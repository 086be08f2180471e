"""alaskit benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload corpus-batch [--seed 0] [--seconds 15] [--trace 0]

Run from a source checkout; the package is imported from ``src/`` and the
CLI workload runs ``python -m alaskit.cli`` with PYTHONPATH pointing there.
Workloads (see workloads.py for why each was chosen): ``corpus-batch``
and ``cli-chain``. Inputs come from ``--seed`` alone (gen.py). A run
repeats passes over the same inputs, at least one, and starts no pass
that would likely end after ``--seconds``. Then it prints a table, a JSON
record with the seed and the environment, and as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``), every workload. On corpus-batch, xrt,
op_p50_s and op_p90_s are scaled to a reference machine speed
(calibrate.py), because wall figures of in-process library work drift with
the state of a shared machine by up to 1.7 times. cli-chain's figures and
setup_s, which are dominated by process start and import, are wall times
(see calibrate.py for why). The table and the record also give the wall
figures and the measured machine scale.

- setup_s: median over fresh processes of importing alaskit and making the
  first call that fills its caches; input generation excluded.
- xrt: seconds of input audio per second of the timed body.
- op_p50_s, op_p90_s: time per operation (one utterance through the
  library pipeline, or one CLI process).
- peak_rss_mb: peak resident memory of the process running the body; for
  cli-chain the largest over the command processes.
- las_rmse_raw_db, las_rmse_refined_db: LAS-RMSE of recovered ALAS from
  the natural LAS, before and after the refiner fitted on the workload.
- f0_rmse_cent, vuv_error_pct: extract_features' F0 and voicing against
  the generator's labels on frames clear of segment boundaries. F0 errors
  over 20% are gross errors, reported as f0_gross_pct in the record and
  the trace, not in the RMSE.
- gl_sc: scale-invariant spectral convergence of Griffin-Lim output
  against its refined target (workloads.spectral_convergence; not
  comparable with ROADMAP's plain-form baseline). corpus-batch runs no
  Griffin-Lim in its body; after the timed passes it resynthesises its
  first utterances, joined up to 4000 frames, to report this figure.

The failed-operation share is in the table and the record; the last line
carries it as ``failed`` out of ``attempted``. Any failed operation makes
the run print its reasons on stderr, report ``correct: false`` and exit 1.

``--trace 1`` gives per-layer metrics instead, from passes that alternate
between untraced and traced with tracing.Tracer's wrappers installed
(cli-chain then calls cli.main in this process with the same argv, in
both kinds of pass). Per traced
function, per pass: calls, frames, busy_s, self_s; plus counters, the
tracing overhead (trace.xrt_untraced against trace.xrt_traced), the share
of body time outside every top-level span, and a Griffin-Lim iteration
sweep on the workload's refined target (at most 800 frames).
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_PROBES = 5
SWEEP_ITERS = (10, 30, 60, 120)
SWEEP_FRAMES = 800

END_TO_END = {
    "setup_s": "s",
    "xrt": "x",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "las_rmse_raw_db": "dB",
    "las_rmse_refined_db": "dB",
    "f0_rmse_cent": "cent",
    "vuv_error_pct": "%",
    "gl_sc": "ratio",
}

# per-layer metrics besides calls, frames, busy_s and self_s of each traced function
LAYER_EXTRAS = [
    "io.bytes_read", "io.bytes_written",
    "features.estimate_f0.voiced_frac", "features.estimate_f0.gross_pct",
    "dsp.extract_las.floor_frac", "alas.recover_alas.floor_frac",
    "cli.import_s",
    "dsp.griffin_lim.us_per_frame_iter", *[f"dsp.griffin_lim.sc_it{n}" for n in SWEEP_ITERS],
    "trace.uncovered_frac", "trace.overhead_frac", "trace.xrt_untraced", "trace.xrt_traced",
]


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".frames", "count"), ("_s", "s"),
                         ("bytes_read", "B"), ("bytes_written", "B"), ("_frac", "ratio"),
                         ("_pct", "%"), ("us_per_frame_iter", "us"), ("xrt_traced", "x"),
                         ("xrt_untraced", "x")):
        if name.endswith(suffix):
            return unit
    return "ratio"  # dsp.griffin_lim.sc_itN


def environment() -> dict:
    """Where the numbers come from; results from different machines differ."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report varies by version
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in threads},
        "commit": commit,
    }


def setup_probes(count: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    results = []
    for _ in range(count):
        out = subprocess.run([sys.executable, str(probe)], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return results


def measure(workload, seconds: float, tracer=None) -> list:
    """Passes over the workload, at least one, starting none that would
    likely end after ``seconds``; stops early after a pass with failures."""
    passes, pass_s = [], 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(tracer))
        pass_s = time.perf_counter() - t0
        if passes[-1].failures:
            break
    return passes


def xrt(workload, passes) -> float:
    body_s = sum(p.body_s for p in passes)
    return workload.audio_s * len(passes) / body_s if body_s else math.nan


def quality(workload, passes, errors):
    """Quality figures of the first pass and their sample counts; later
    passes must repeat the figures."""
    first = passes[0]
    for k, p in enumerate(passes[1:], 2):
        if p.quality != first.quality:
            errors.append(f"pass {k}: quality figures differ from pass 1")
    figures, counts = dict(first.quality), dict(first.counts)
    if figures and "gl_sc" not in figures:
        import alaskit as ak
        import workloads

        synth = ak.griffin_lim(first.gl_target, workloads.PARAMS, iters=workload.gl_iters)
        figures["gl_sc"] = workloads.spectral_convergence(synth.samples, first.gl_target)
        counts["gl_frames"] = len(first.gl_target)
    return figures, counts


def gl_sweep(target) -> dict:
    import alaskit as ak
    import workloads

    out, busy = {}, 0.0
    for iters in SWEEP_ITERS:
        t0 = time.perf_counter()
        synth = ak.griffin_lim(target, workloads.PARAMS, iters=iters)
        busy += time.perf_counter() - t0
        out[f"dsp.griffin_lim.sc_it{iters}"] = workloads.spectral_convergence(synth.samples, target)
    out["dsp.griffin_lim.us_per_frame_iter"] = 1e6 * busy / (target.shape[0] * sum(SWEEP_ITERS))
    return out


def timed_run(workload, seconds, probes, errors):
    import workloads

    workloads.CALIBRATION = calibrate.Calibration()
    passes = measure(workload, seconds)
    machine = workloads.CALIBRATION.scale()
    scale = machine if workload.scaled else 1.0
    ops = [t for p in passes for t in p.op_s]
    if workload.name == "cli-chain":
        rss = max(p.child_rss_mb for p in passes)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = {
        "xrt": xrt(workload, passes),
        "op_p50_s": float(statistics.median(ops)) if ops else math.nan,
        "op_p90_s": _percentile(ops, 90),
    }
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "xrt": wall["xrt"] * scale,
        "op_p50_s": wall["op_p50_s"] / scale,
        "op_p90_s": wall["op_p90_s"] / scale,
        "peak_rss_mb": rss,
        "wall": wall,
        "machine_scale": machine,
    }
    n = {}
    if not any(p.failures for p in passes):
        figures, n = quality(workload, passes, errors)
        metrics.update(figures)
    samples = {
        "setup_s": f"{len(probes)} processes",
        "xrt": (f"{len(passes)} passes, {workload.audio_s * len(passes):.1f} s audio; "
                f"wall {wall['xrt']:.4g} x, machine {machine:.3f}"
                + ("" if workload.scaled else " (not scaled)")),
        "op_p50_s": f"{len(ops)} operations; wall {wall['op_p50_s']:.4g} s",
        "op_p90_s": f"{len(ops)} operations; wall {wall['op_p90_s']:.4g} s",
        "peak_rss_mb": (f"largest of {len(ops)} command processes"
                        if workload.name == "cli-chain" else "1 process"),
        "las_rmse_raw_db": f"{n.get('frames')} frames",
        "las_rmse_refined_db": f"{n.get('frames')} frames",
        "f0_rmse_cent": f"{n.get('voiced')} voiced frames, {n.get('gross')} gross errors left out",
        "vuv_error_pct": f"{n.get('scored')} scored frames",
        "gl_sc": f"{n.get('gl_frames')} frames, {workload.gl_iters} iterations",
    }
    return passes, metrics, samples


def traced_run(workload, seconds, probes, errors):
    import tracing

    # Untraced and traced passes alternate, so that drift in machine speed
    # touches both sides of the overhead figure alike.
    tracer = tracing.Tracer()
    untraced, traced, pair_s = [], [], 0.0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + pair_s <= seconds:
        t0 = time.perf_counter()
        untraced.append(workload.run_pass())
        tracer.install()
        try:
            traced.append(workload.run_pass(tracer))
        finally:
            tracer.uninstall()
        pair_s = time.perf_counter() - t0
        if untraced[-1].failures or traced[-1].failures:
            break
    passes = untraced + traced
    metrics = tracer.layer_metrics(len(traced))
    body_s = sum(p.body_s for p in traced) / len(traced)
    metrics["trace.uncovered_frac"] = (
        1.0 - tracer.top_level_s(len(traced)) / body_s if body_s else math.nan)
    metrics["trace.xrt_untraced"] = xrt(workload, untraced)
    metrics["trace.xrt_traced"] = xrt(workload, traced)
    metrics["trace.overhead_frac"] = 1.0 - metrics["trace.xrt_traced"] / metrics["trace.xrt_untraced"]
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    if not any(p.failures for p in passes):
        figures, _ = quality(workload, passes, errors)
        metrics["features.estimate_f0.gross_pct"] = figures["f0_gross_pct"]
        metrics.update(gl_sweep(passes[0].gl_target[:SWEEP_FRAMES]))
    samples = {"trace": f"{len(untraced)} untraced and {len(traced)} traced passes"}
    return passes, metrics, samples


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else math.nan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus-batch", "cli-chain"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, to check the harness quickly")
    args = parser.parse_args(argv)

    if not (SRC / "alaskit" / "__init__.py").is_file():
        print(f"error: no alaskit package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    env = environment()
    probes = setup_probes(1 if args.smoke else SETUP_PROBES)
    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    if args.trace and isinstance(workload, workloads.CliChain):
        workload.in_process = True
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    errors = []
    try:
        workload.prepare(workdir)
        run = traced_run if args.trace else timed_run
        passes, metrics, samples = run(workload, args.seconds, probes, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    attempted = workload.op_count() * len(passes)
    failures = [f for p in passes for f in p.failures]
    if args.trace:
        names = [f"{f}.{k}" for f in tracing.TRACED for k in ("calls", "frames", "busy_s", "self_s")]
        units = {n: layer_unit(n) for n in names + LAYER_EXTRAS}
    else:
        units = dict(END_TO_END)
    for name in units:
        if not math.isfinite(metrics.get(name, math.nan)):
            errors.append(f"metric {name} is missing or not finite")
    correct = not failures and not errors

    print(f"alaskit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"{'metric':44s} {'value':>14s}  unit   samples")
    for name, unit in units.items():
        print(f"{name:44s} {metrics.get(name, math.nan):14.6g}  {unit:6s} {samples.get(name, '')}")
    failed_frac = len(failures) / attempted if attempted else math.nan
    print(f"{'failed_ops_frac':44s} {failed_frac:14.6g}  ratio  "
          f"{len(failures)}/{attempted} operations")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env, "passes": len(passes),
        "samples": samples, "failed_ops_frac": failed_frac,
    }
    for key in ("f0_gross_pct", "wall", "machine_scale"):
        if key in metrics:
            record[key] = metrics[key]
    print(json.dumps(record, default=float))
    for message in failures + errors:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": _finite(metrics.get(n)), "unit": u} for n, u in units.items()},
    }, default=float))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
