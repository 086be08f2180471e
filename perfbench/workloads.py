"""The benchmark's two workloads and the checks on their outputs.

corpus-batch
    About 120 short utterances (0.5-2 s, 150 s in all) of mixed voiced,
    noise and silence segments, through the library in one process: per
    utterance extract_las, extract_features and recover_alas, then one
    fit_refiner over all pairs, then apply_refiner and las_rmse_db per
    utterance. Chosen because the per-frame loops of features and alas do
    nearly all the work and griffin_lim and io do none, and because many
    short calls expose per-call overhead.
cli-chain
    The README command chain over two 8 s WAVs, each command a fresh
    ``python -m alaskit.cli`` process, with ``resynth`` at the CLI default
    of 60 Griffin-Lim iterations. Chosen because it is the only workload
    that writes and reads back the .aftk, .lask and .alrf containers, the
    only one that pays process start and import on every command, and the
    only one whose timed body runs Griffin-Lim (about a seventh of a
    pass). The WAVs are long enough for F0 and voicing figures that are
    steady from seed to seed; import still dominates each command.

An operation is one utterance through the library pipeline, or one CLI
process. Each pass returns its timed body, the time of every operation,
the failures and the quality figures. Every output is checked: finite
values, (frames, 257) shapes, CLI exit code 0, files that parse back with
the matching reader, and the program's own RMSE figures against the
benchmark's.
"""

import contextlib
import io as stdio
import math
import os
import subprocess
import sys
import threading
import time
import wave as wave_module
from dataclasses import dataclass, field

import numpy as np

import alaskit as ak
from alaskit import cli, refine

import calibrate
import gen

PARAMS = ak.AnalysisParams()
BINS = PARAMS.num_bins
DB_PER_LOG = 20.0 / math.log(10.0)
# An F0 estimate off by more than 20% is a gross error; it is counted on its
# own and left out of the F0 RMSE, whose spread it would otherwise dominate.
GROSS_CENTS = 1200.0 * math.log2(1.2)
# corpus-batch runs no Griffin-Lim in its body; its gl_sc comes from one run
# after the passes, on its first utterances joined up to this many frames
# (20 s). At 2000 frames the figure spread 0.13 over ten seeds, at 4000
# frames 0.03.
GL_PROBE_FRAMES = 4000
CLI_TIMEOUT_S = 120
# Every timed call is followed by a reference-kernel sample; run.py reads the
# machine's speed from this and replaces it before each timed run.
CALIBRATION = calibrate.Calibration()


class CheckFailed(Exception):
    pass


@dataclass
class PassResult:
    body_s: float = 0.0
    op_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # sample counts behind quality
    child_rss_mb: float = 0.0  # cli-chain: peak over the command processes
    gl_target: np.ndarray | None = None  # refined ALAS, target of Griffin-Lim probes


def _check_las(las, frames, what):
    if np.shape(las) != (frames, BINS):
        raise CheckFailed(f"{what}: shape {np.shape(las)}, expected ({frames}, {BINS})")
    if not np.all(np.isfinite(las)):
        raise CheckFailed(f"{what}: non-finite values")


def _check_track(track, frames, what):
    if len(track) != frames or track.mcep.shape[0] != frames:
        raise CheckFailed(f"{what}: {len(track)} frames, expected {frames}")
    if not (np.all(np.isfinite(track.f0)) and np.all(np.isfinite(track.mcep))):
        raise CheckFailed(f"{what}: non-finite features")


def _check_close(got, want, tol, what):
    if not (math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))):
        raise CheckFailed(f"{what}: program gives {got}, benchmark computes {want}")


def _timed(fn, tracer):
    """Run one timed call, tracing it when a tracer is given; then sample
    the machine's speed, outside the timing."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = fn()
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.active = False
    CALIBRATION.sample(dt)
    return result, dt


def spectral_convergence(samples, las) -> float:
    """Scale-invariant spectral convergence ||g*|STFT(x)| - exp(las)|| /
    ||exp(las)||, with g the least-squares gain.

    griffin_lim rescales its output to unit peak, which the plain form
    ||STFT(x)| - exp(las)|| / ||exp(las)|| would measure along with the
    phase retrieval. ROADMAP's baseline (0.330/0.241/0.205/0.147) used the
    plain form on other inputs and must not be compared with these values.
    """
    frames = np.shape(las)[0]
    padded = np.zeros((frames - 1) * gen.SHIFT + gen.FRAME_LEN)
    n = min(padded.size, len(samples))
    padded[:n] = samples[:n]
    idx = gen.SHIFT * np.arange(frames)[:, None] + np.arange(gen.FRAME_LEN)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(gen.FRAME_LEN) / gen.FRAME_LEN)
    mag = np.abs(np.fft.rfft(padded[idx] * window, n=PARAMS.fft_size, axis=1))
    target = np.exp(las)
    gain = np.sum(mag * target) / max(np.sum(mag * mag), 1e-300)
    return float(np.linalg.norm(gain * mag - target) / np.linalg.norm(target))


def las_mse_db(ref, test):
    diff = DB_PER_LOG * (np.asarray(ref) - np.asarray(test))
    return float(np.mean(diff * diff))


class Score:
    """Quality figures pooled over every scored frame of a pass."""

    def __init__(self):
        self.sums = dict.fromkeys(
            ["raw", "raw_n", "refined", "refined_n", "f0", "f0_n", "gross", "vuv", "vuv_n"], 0.0)

    def las(self, key, ref, test):
        self.sums[key] += las_mse_db(ref, test) * np.size(ref)
        self.sums[key + "_n"] += np.size(ref)

    def features(self, utt, f0, vuv):
        scored = utt.scored
        self.sums["vuv"] += np.count_nonzero(vuv[scored] != utt.voiced[scored])
        self.sums["vuv_n"] += np.count_nonzero(scored)
        both = scored & utt.voiced & vuv
        cents = 1200.0 * np.log2(f0[both] / utt.f0[both])
        gross = np.abs(cents) > GROSS_CENTS
        self.sums["f0"] += float(np.sum(cents[~gross] ** 2))
        self.sums["f0_n"] += np.count_nonzero(~gross)
        self.sums["gross"] += np.count_nonzero(gross)

    def counts(self) -> dict:
        s = self.sums
        return {"frames": int(s["raw_n"]) // BINS, "voiced": int(s["f0_n"]),
                "gross": int(s["gross"]), "scored": int(s["vuv_n"])}

    def result(self) -> dict:
        s = self.sums
        voiced = s["f0_n"] + s["gross"]
        return {
            "las_rmse_raw_db": math.sqrt(s["raw"] / s["raw_n"]),
            "las_rmse_refined_db": math.sqrt(s["refined"] / s["refined_n"]),
            "f0_rmse_cent": math.sqrt(s["f0"] / s["f0_n"]) if s["f0_n"] else math.nan,
            "f0_gross_pct": 100.0 * s["gross"] / voiced if voiced else math.nan,
            "vuv_error_pct": 100.0 * s["vuv"] / s["vuv_n"] if s["vuv_n"] else math.nan,
        }


def _analyse(samples):
    """Natural LAS, features and recovered ALAS of one utterance."""
    wave = ak.Waveform(samples, gen.FS)
    track = ak.extract_features(wave, PARAMS)
    return ak.extract_las(wave, PARAMS), track, ak.recover_alas(track, PARAMS)


def _refine(model, nat, rec):
    """Refined ALAS and its LAS-RMSE from the natural LAS."""
    refined = ak.apply_refiner(model, rec)
    return refined, ak.las_rmse_db(nat, refined)


class CorpusBatch:
    name = "corpus-batch"
    scaled = True  # timing metrics scaled to the reference machine speed

    def __init__(self, seed, smoke=False):
        self.utts = gen.corpus(seed, count=2, lo=0.4, hi=0.6) if smoke else gen.corpus(seed)
        self.gl_iters = 5 if smoke else 60
        self.audio_s = sum(u.seconds for u in self.utts)

    def prepare(self, workdir):
        pass

    def op_count(self):
        return len(self.utts)

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        op_s, done = {}, {}
        for i, utt in enumerate(self.utts):
            try:
                (nat, track, rec), op_s[i] = _timed(lambda: _analyse(utt.samples), tracer)
                _check_las(nat, utt.frames, f"utterance {i} natural LAS")
                _check_track(track, utt.frames, f"utterance {i} features")
                _check_las(rec, utt.frames, f"utterance {i} recovered ALAS")
                done[i] = (nat, track, rec)
            except Exception as exc:  # counted as a failed operation
                res.failures.append(f"utterance {i}: {type(exc).__name__}: {exc}")
        if done:
            try:
                model, fit_s = _timed(
                    lambda: ak.fit_refiner([(rec, nat) for nat, _, rec in done.values()]), tracer)
                res.body_s += fit_s
            except Exception as exc:
                res.failures += [f"utterance {i}: refiner fit: {exc}" for i in done]
                done = {}
        score = Score()
        gl_parts = []
        for i, (nat, track, rec) in done.items():
            try:
                (refined, rmse), dt = _timed(lambda: _refine(model, nat, rec), tracer)
                op_s[i] += dt
                _check_las(refined, self.utts[i].frames, f"utterance {i} refined ALAS")
                _check_close(rmse, math.sqrt(las_mse_db(nat, refined)), 1e-9,
                             f"utterance {i} las_rmse_db")
            except Exception as exc:
                res.failures.append(f"utterance {i}: {type(exc).__name__}: {exc}")
                continue
            score.las("raw", nat, rec)
            score.las("refined", nat, refined)
            score.features(self.utts[i], track.f0, track.vuv)
            if sum(len(part) for part in gl_parts) < GL_PROBE_FRAMES:
                gl_parts.append(refined)
        if gl_parts:
            res.gl_target = np.vstack(gl_parts)[:GL_PROBE_FRAMES]
        res.op_s = list(op_s.values())
        res.body_s += sum(res.op_s)
        if not res.failures:
            res.quality, res.counts = score.result(), score.counts()
        return res


def _write_pcm16(path, samples):
    pcm = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave_module.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(gen.FS)
        out.writeframes(pcm.tobytes())


def _report(text):
    """metric<TAB>value lines of an evaluate report, as floats."""
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition("\t")
        values[key] = float(value)
    return values


class CliChain:
    name = "cli-chain"
    scaled = False  # process start and import; see calibrate.py
    UTTS = ("a", "b")

    def __init__(self, seed, smoke=False):
        rng = np.random.default_rng(seed)
        if smoke:
            plan = [(1.0, ["voiced", "noise", "voiced"])] * len(self.UTTS)
        else:
            plan = [(8.0, ["voiced", "noise", "voiced", "silence"] + ["voiced", "noise"] * 6)
                    ] * len(self.UTTS)
        self.utts = dict(zip(self.UTTS, gen.stratified(rng, plan)))
        self.gl_iters = 5 if smoke else 60
        self.audio_s = sum(u.seconds for u in self.utts.values())
        self.in_process = False  # the traced run calls cli.main in-process

    def op_count(self):
        return len(self.commands)

    def prepare(self, workdir):
        self.dir = workdir
        f = self.path
        for name, utt in self.utts.items():
            _write_pcm16(f(f"{name}.wav"), utt.samples)
        with open(f("pairs.txt"), "w", encoding="utf-8") as fh:
            for name in self.UTTS:
                fh.write(f"{f(name + '_rec.lask')}\t{f(name + '_nat.lask')}\n")
        src = os.path.dirname(os.path.dirname(ak.__file__))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        a, b = (self._utt_check(n) for n in self.UTTS)
        self.commands = [
            (["analyze", f("a.wav"), "-o", f("a.aftk"), "--las", f("a_nat.lask")], a["analyze"]),
            (["analyze", f("b.wav"), "-o", f("b.aftk"), "--las", f("b_nat.lask")], b["analyze"]),
            (["recover", f("a.aftk"), "-o", f("a_rec.lask")], a["recover"]),
            (["recover", f("b.aftk"), "-o", f("b_rec.lask")], b["recover"]),
            (["refine-fit", f("pairs.txt"), "-o", f("model.alrf")], self._check_model),
            (["refine-apply", f("model.alrf"), f("a_rec.lask"), "-o", f("a_ref.lask")], a["apply"]),
            (["refine-apply", f("model.alrf"), f("b_rec.lask"), "-o", f("b_ref.lask")], b["apply"]),
            (["evaluate", "--ref", f("a_nat.lask"), "--test", f("a_ref.lask"), "--las",
              "-o", f("a_eval.txt")], a["evaluate"]),
            (["evaluate", "--ref", f("b_nat.lask"), "--test", f("b_ref.lask"), "--las",
              "-o", f("b_eval.txt")], b["evaluate"]),
            (["resynth", f("a_ref.lask"), "-o", f("a_syn.wav"), "--iters", str(self.gl_iters)],
             self._check_resynth),
            (["evaluate", "--wav", "--ref", f("a.wav"), "--test", f("a_syn.wav"),
              "-o", f("syn_eval.txt")], self._check_wav_eval),
            (["plot", f("a_ref.lask"), "-o", f("a.pgm")], self._check_plot),
        ]

    def path(self, name):
        return os.path.join(self.dir, name)

    def _read_las(self, name, frames):
        las, shift, rate = ak.read_las_file(self.path(name))
        if (shift, rate) != (gen.SHIFT, gen.FS):
            raise CheckFailed(f"{name}: header geometry {shift}/{rate}")
        _check_las(las, frames, name)
        return las

    def _utt_check(self, name):
        utt = self.utts[name]
        n = utt.frames

        def analyze(stdout):
            _check_track(ak.read_feature_file(self.path(f"{name}.aftk")), n, f"{name}.aftk")
            self._read_las(f"{name}_nat.lask", n)

        def evaluate(stdout):
            with open(self.path(f"{name}_eval.txt"), encoding="utf-8") as fh:
                report = _report(fh.read())
            if report.get("frames_compared") != n:
                raise CheckFailed(f"{name}_eval.txt: frames_compared {report.get('frames_compared')}")
            want = las_mse_db(self._read_las(f"{name}_nat.lask", n),
                              self._read_las(f"{name}_ref.lask", n))
            # the report prints six decimals
            _check_close(report.get("las_rmse_db", math.nan), math.sqrt(want), 1e-5,
                         f"{name}_eval.txt las_rmse_db")

        return {
            "analyze": analyze,
            "recover": lambda stdout: self._read_las(f"{name}_rec.lask", n),
            "apply": lambda stdout: self._read_las(f"{name}_ref.lask", n),
            "evaluate": evaluate,
        }

    def _check_model(self, stdout):
        model = refine.load_refiner(self.path("model.alrf"))
        if model.num_bins != BINS:
            raise CheckFailed(f"model.alrf: {model.num_bins} bins")

    def _check_resynth(self, stdout):
        synth = ak.read_wav(self.path("a_syn.wav"))
        expected = (self.utts["a"].frames - 1) * gen.SHIFT + gen.FRAME_LEN
        if synth.sample_rate != gen.FS or len(synth) != expected:
            raise CheckFailed(f"a_syn.wav: {len(synth)} samples at {synth.sample_rate} Hz")

    def _check_wav_eval(self, stdout):
        with open(self.path("syn_eval.txt"), encoding="utf-8") as fh:
            report = _report(fh.read())
        for key in ("las_rmse_db", "mcd_v_db", "f0_rmse_cent", "vuv_error_pct"):
            if not math.isfinite(report.get(key, math.nan)):
                raise CheckFailed(f"syn_eval.txt: {key} missing or not finite")
        if "vuv_error_pct =" not in stdout:
            raise CheckFailed("evaluate --wav printed no report block")

    def _check_plot(self, stdout):
        frames = self.utts["a"].frames
        header = f"P5\n{frames} {BINS}\n255\n".encode("ascii")
        with open(self.path("a.pgm"), "rb") as fh:
            data = fh.read()
        if not data.startswith(header) or len(data) != len(header) + frames * BINS:
            raise CheckFailed("a.pgm: bad PGM header or size")

    def _spawn(self, argv):
        """One CLI process; returns (exit code, stdout, stderr, peak RSS in MB)."""
        out_path, err_path = self.path("cli.out"), self.path("cli.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "alaskit.cli", *argv],
                                    stdout=out, stderr=err, env=self.env)
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0

    def _call(self, argv):
        """cli.main in this process, as the traced run does."""
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue(), 0.0

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        run = self._call if self.in_process else self._spawn
        for argv, check in self.commands:
            (code, stdout, stderr, rss), dt = _timed(lambda: run(argv), tracer)
            res.op_s.append(dt)
            res.child_rss_mb = max(res.child_rss_mb, rss)
            try:
                if code != 0:
                    raise CheckFailed(f"exit code {code}: {stderr.strip()}")
                check(stdout)
            except Exception as exc:
                res.failures.append(f"alaskit {argv[0]}: {type(exc).__name__}: {exc}")
        res.body_s = sum(res.op_s)
        if not res.failures:
            self._score(res)
        return res

    def _score(self, res):
        score = Score()
        for name, utt in self.utts.items():
            n = utt.frames
            nat = self._read_las(f"{name}_nat.lask", n)
            score.las("raw", nat, self._read_las(f"{name}_rec.lask", n))
            score.las("refined", nat, self._read_las(f"{name}_ref.lask", n))
            track = ak.read_feature_file(self.path(f"{name}.aftk"))
            score.features(utt, track.f0, track.vuv)
        res.quality, res.counts = score.result(), score.counts()
        target = self._read_las("a_ref.lask", self.utts["a"].frames)
        res.counts["gl_frames"] = len(target)
        res.quality["gl_sc"] = spectral_convergence(
            ak.read_wav(self.path("a_syn.wav")).samples, target)
        res.gl_target = target


WORKLOADS = {w.name: w for w in (CorpusBatch, CliChain)}
