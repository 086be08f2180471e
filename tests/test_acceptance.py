"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from alaskit import (
    Waveform,
    cli,
    excitation_spectrum,
    extract_features,
    extract_las,
    f0_rmse_cent,
    filter_spectrum,
    fit_refiner,
    frame_signal,
    griffin_lim,
    hann_window,
    las_rmse_db,
    mcd_v_db,
    mcep_analysis,
    read_feature_file,
    read_las_file,
    read_wav,
    recover_alas,
    vuv_error_pct,
    warp_cepstrum,
    write_wav,
)
from alaskit.features import FeatureTrack
from alaskit.refine import apply_refiner


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


_analysis_cache = {}


def _corpus_analysis(params, corpus):
    """(natural_las, track, recovered_alas) per utterance, computed once."""
    if "data" not in _analysis_cache:
        rows = []
        for wave in corpus:
            las = extract_las(wave, params)
            track = extract_features(wave, params)
            rows.append((las, track, recover_alas(track, params)))
        _analysis_cache["data"] = rows
    return _analysis_cache["data"]


def test_criterion_1_warp_correctness():
    with criterion(1, "warp correctness", 1.0):
        traced = warp_cepstrum(np.array([0.0, 1.0, 0.0]), 0.42)
        assert np.max(np.abs(traced - [-0.42, 0.8236, 0.345912])) < 1e-6

        rng = np.random.default_rng(100)
        vec = rng.standard_normal(257)
        assert np.max(np.abs(warp_cepstrum(vec, 0.0) - vec)) < 1e-12

        # involution over the operation's input domain: coefficient vectors
        # zero-padded to length 257
        for _ in range(100):
            padded = np.zeros(257)
            padded[:41] = rng.standard_normal(41)
            back = warp_cepstrum(warp_cepstrum(padded, 0.42), -0.42)
            assert np.max(np.abs(back - padded)) < 1e-6


def test_criterion_2_excitation_comb(params):
    with criterion(2, "excitation comb", 1.0):
        rng = np.random.default_rng(101)
        for f0 in rng.uniform(50.0, 500.0, size=100):
            comb = excitation_spectrum(float(f0), params)
            k0 = math.floor(f0 * 512 / 16000 + 0.5)
            pulses = np.nonzero(comb)[0]
            assert len(pulses) == 256 // k0
            assert pulses[0] == k0
            assert np.all(np.diff(pulses) == k0)
            assert comb.sum() == len(pulses)  # every non-pulse bin is zero
        assert np.all(excitation_spectrum(0.0, params) == 1.0)


def test_criterion_3_envelope_round_trip(params):
    with criterion(3, "envelope round trip", 5.0):
        rng = np.random.default_rng(102)
        for _ in range(50):
            truth = rng.standard_normal(41) * rng.uniform(0.6, 0.9) ** np.arange(41)
            log_spec = np.log(filter_spectrum(truth, params))
            recovered = mcep_analysis(log_spec, params)
            rmse = float(np.sqrt(np.mean((recovered - truth) ** 2)))
            assert rmse < 1e-3


def test_criterion_4_alas_fidelity(params, vowel_corpus):
    with criterion(4, "ALAS fidelity", 30.0):
        correlations = []
        for las, track, alas in _corpus_analysis(params, vowel_corpus):
            for i in np.nonzero(track.vuv)[0]:
                a = alas[i] - alas[i].mean()
                b = las[i] - las[i].mean()
                correlations.append(float(a @ b / math.sqrt((a @ a) * (b @ b))))
        mean_r = float(np.mean(correlations))
        print(f"  mean per-voiced-frame correlation: {mean_r:.4f} "
              f"({len(correlations)} frames)")
        assert mean_r >= 0.8


def test_criterion_5_refinement_improves(params, vowel_corpus):
    with criterion(5, "refinement improves held-out RMSE", 30.0):
        analyzed = _corpus_analysis(params, vowel_corpus)
        train = [(alas, las) for las, _, alas in analyzed[:15]]
        model = fit_refiner(train)
        for las, _, alas in analyzed[15:]:
            raw = las_rmse_db(alas, las)
            refined = las_rmse_db(apply_refiner(model, alas), las)
            print(f"  held-out RMSE: raw {raw:.3f} dB -> refined {refined:.3f} dB")
            assert refined < raw


def test_criterion_6_metric_oracles():
    with criterion(6, "metric oracles", 10.0):
        rng = np.random.default_rng(103)
        ref = rng.standard_normal((50, 257))
        test = rng.standard_normal((50, 257))
        total = 0.0
        for i in range(50):
            for k in range(257):
                d = (20.0 / math.log(10.0)) * (ref[i, k] - test[i, k])
                total += d * d
        assert abs(las_rmse_db(ref, test) - math.sqrt(total / (50 * 257))) < 1e-12

        def track(f0, mcep=None):
            return FeatureTrack(f0=f0, mcep=np.zeros((len(f0), 41)) if mcep is None else mcep,
                                frame_shift=80, sample_rate=16000)

        voiced = track(np.full(10, 180.0))
        doubled = track(np.full(10, 360.0))
        assert abs(f0_rmse_cent(voiced, doubled) - 1200.0) < 1e-9

        mcep = np.zeros((10, 41))
        mcep[:, 5] = 1.0
        unit = track(np.full(10, 180.0), mcep)
        expected = (10.0 / math.log(10.0)) * math.sqrt(2.0)
        assert abs(mcd_v_db(voiced, unit) - expected) < 1e-9

        a = track([100, 0, 100, 0, 100])
        b = track([100, 120, 100, 0, 0])
        assert vuv_error_pct(a, b) == 100.0 * 2 / 5


def test_criterion_7_dsp_invariants(params, sine_1khz):
    with criterion(7, "DSP invariants", 30.0):
        rng = np.random.default_rng(104)
        wave = Waveform(rng.standard_normal(3000), 16000)
        frames = frame_signal(wave, params) * hann_window(params.frame_len)
        spectra = np.fft.fft(frames, n=params.fft_size, axis=1)
        time_energy = np.sum(frames**2, axis=1)
        freq_energy = np.sum(np.abs(spectra) ** 2, axis=1) / params.fft_size
        assert np.max(np.abs(freq_energy / time_energy - 1.0)) < 1e-6

        base = extract_las(wave, params)
        shifted = extract_las(
            Waveform(np.concatenate([np.zeros(params.frame_shift), wave.samples]), 16000),
            params,
        )
        assert np.max(np.abs(shifted[1:] - base)) < 1e-6

        las = extract_las(sine_1khz, params)
        out = griffin_lim(las, params, iters=30)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * params.sample_rate / len(out.samples)
        assert abs(peak_hz - 1000.0) <= params.sample_rate / params.fft_size


def test_criterion_8_pipeline_smoke(params, vowel_corpus, tmp_path):
    wav_in = tmp_path / "utt.wav"
    write_wav(wav_in, vowel_corpus[1])
    with criterion(8, "pipeline smoke", 10.0):
        feat = tmp_path / "utt.aftk"
        nat = tmp_path / "nat.lask"
        rec = tmp_path / "rec.lask"
        model = tmp_path / "id.alrf"
        refined = tmp_path / "ref.lask"
        report = tmp_path / "report.txt"
        wav_out = tmp_path / "out.wav"
        image = tmp_path / "out.pgm"

        assert cli.main(["analyze", str(wav_in), "-o", str(feat), "--las", str(nat)]) == 0
        assert cli.main(["recover", str(feat), "-o", str(rec)]) == 0

        # identity refiner fitted on a self-pair
        manifest = tmp_path / "pairs.txt"
        manifest.write_text(f"{rec}\t{rec}\n")
        assert cli.main(["refine-fit", str(manifest), "-o", str(model)]) == 0
        assert cli.main(["refine-apply", str(model), str(rec), "-o", str(refined)]) == 0
        assert cli.main(
            ["evaluate", "--ref", str(nat), "--test", str(refined), "--las",
             "-o", str(report)]
        ) == 0
        assert cli.main(["resynth", str(refined), "-o", str(wav_out), "--iters", "10"]) == 0
        assert cli.main(["plot", str(refined), "-o", str(image)]) == 0

        assert read_feature_file(feat).mcep.shape[1] == 41
        for path in (nat, rec, refined):
            las, shift, rate = read_las_file(path)
            assert las.shape[1] == params.num_bins
            assert (shift, rate) == (params.frame_shift, params.sample_rate)
        assert len(read_wav(wav_out)) > 0
        assert image.read_bytes().startswith(b"P5\n")
        assert "las_rmse_db" in report.read_text()
