"""End-to-end tests of the command-line pipeline."""

import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alaskit
import rawfiles
from alaskit import (
    AnalysisParams,
    FeatureTrack,
    Waveform,
    cli,
    extract_features,
    extract_las,
    metrics,
    read_feature_file,
    read_las_file,
    read_wav,
    write_feature_file,
    write_las_file,
    write_wav,
)


@pytest.fixture(scope="module")
def utterance_wav(tmp_path_factory, vowel_corpus):
    path = tmp_path_factory.mktemp("cli") / "utt.wav"
    write_wav(path, vowel_corpus[0])
    return path


def test_full_chain(tmp_path, utterance_wav):
    feat = tmp_path / "utt.aftk"
    nat = tmp_path / "nat.lask"
    rec = tmp_path / "rec.lask"
    model = tmp_path / "model.alrf"
    refined = tmp_path / "refined.lask"
    report = tmp_path / "report.txt"
    wav_out = tmp_path / "resynth.wav"
    image = tmp_path / "spec.pgm"

    assert cli.main(["analyze", str(utterance_wav), "-o", str(feat), "--las", str(nat)]) == 0
    assert cli.main(["recover", str(feat), "-o", str(rec)]) == 0

    manifest = tmp_path / "pairs.txt"
    manifest.write_text(f"{rec}\t{nat}\n")
    assert cli.main(["refine-fit", str(manifest), "-o", str(model)]) == 0
    assert cli.main(["refine-apply", str(model), str(rec), "-o", str(refined)]) == 0
    assert cli.main(
        ["evaluate", "--ref", str(nat), "--test", str(refined), "--las", "-o", str(report)]
    ) == 0
    assert cli.main(["resynth", str(refined), "-o", str(wav_out), "--iters", "5"]) == 0
    assert cli.main(["plot", str(refined), "-o", str(image)]) == 0

    # all artifacts parse back
    assert read_las_file(rec)[0].shape == read_las_file(nat)[0].shape
    assert len(read_wav(wav_out)) > 0
    assert image.read_bytes().startswith(b"P5\n")
    text = report.read_text()
    assert "las_rmse_db\t" in text

    # refinement brings the recovered spectra toward the natural ones
    raw_line = [l for l in text.splitlines() if l.startswith("las_rmse_db")][0]
    assert float(raw_line.split("\t")[1]) < 10.0


def test_recover_rejects_contradictory_sample_rate(tmp_path, utterance_wav):
    feat = tmp_path / "utt.aftk"
    assert cli.main(["analyze", str(utterance_wav), "-o", str(feat)]) == 0
    code = cli.main(["recover", str(feat), "-o", str(tmp_path / "x.lask"),
                     "--sample-rate", "8000"])
    assert code == 2


def test_analyze_rejects_contradictory_sample_rate(tmp_path, utterance_wav):
    code = cli.main(["analyze", str(utterance_wav), "-o", str(tmp_path / "x.aftk"),
                     "--sample-rate", "22050"])
    assert code == 2


def test_evaluate_self_reports_zero_distance(tmp_path, utterance_wav):
    report = tmp_path / "self.txt"
    assert cli.main(["evaluate", "--ref", str(utterance_wav), "--test", str(utterance_wav),
                     "-o", str(report)]) == 0
    values = dict(
        line.split("\t") for line in report.read_text().strip().splitlines()
    )
    assert values["snr_db"] == "inf"
    assert float(values["las_rmse_db"]) == 0.0
    assert float(values["mcd_v_db"]) == 0.0
    assert float(values["f0_rmse_cent"]) == 0.0
    assert float(values["vuv_error_pct"]) == 0.0


def test_analyze_writes_library_outputs(tmp_path, utterance_wav):
    feat, nat = tmp_path / "utt.aftk", tmp_path / "nat.lask"
    assert cli.main(["analyze", str(utterance_wav), "-o", str(feat), "--las", str(nat)]) == 0
    wave, params = read_wav(utterance_wav), AnalysisParams()
    las, shift, rate = read_las_file(nat)
    assert (shift, rate) == (params.frame_shift, params.sample_rate)
    assert np.array_equal(las, extract_las(wave, params).astype(np.float32))
    track, want = read_feature_file(feat), extract_features(wave, params)
    assert np.array_equal(track.mcep, want.mcep.astype(np.float32))
    assert np.array_equal(track.f0, want.f0.astype(np.float32))
    assert np.array_equal(track.vuv, want.vuv)


def test_evaluate_wav_reports_library_values(tmp_path, utterance_wav, vowel_corpus):
    noisy = tmp_path / "noisy.wav"
    rng = np.random.default_rng(5)
    samples = vowel_corpus[0].samples + 0.01 * rng.standard_normal(len(vowel_corpus[0]))
    write_wav(noisy, Waveform(samples, 16000))
    report = tmp_path / "report.txt"
    assert cli.main(["evaluate", "--wav", "--ref", str(utterance_wav), "--test", str(noisy),
                     "-o", str(report)]) == 0

    ref, test, params = read_wav(utterance_wav), read_wav(noisy), AnalysisParams()
    ref_las, test_las = extract_las(ref, params), extract_las(test, params)
    ref_track, test_track = extract_features(ref, params), extract_features(test, params)
    want = metrics.EvalReport(
        frames_compared=min(ref_las.shape[0], test_las.shape[0]),
        snr_db=metrics.snr_db(ref, test),
        las_rmse_db=metrics.las_rmse_db(ref_las, test_las),
        mcd_v_db=metrics.mcd_v_db(ref_track, test_track),
        f0_rmse_cent=metrics.f0_rmse_cent(ref_track, test_track),
        vuv_error_pct=metrics.vuv_error_pct(ref_track, test_track),
    )
    assert report.read_text() == want.text()


def test_evaluate_wav_rejects_sample_rate_mismatch(tmp_path, utterance_wav):
    narrow = tmp_path / "narrow.wav"
    write_wav(narrow, Waveform(np.zeros(8000), 8000))
    assert cli.main(["evaluate", "--wav", "--ref", str(utterance_wav), "--test", str(narrow),
                     "-o", str(tmp_path / "report.txt")]) == 2
    assert not (tmp_path / "report.txt").exists()


def test_evaluate_feature_mode(tmp_path, utterance_wav):
    feat = tmp_path / "utt.aftk"
    report = tmp_path / "feat_report.txt"
    assert cli.main(["analyze", str(utterance_wav), "-o", str(feat)]) == 0
    assert cli.main(["evaluate", "--ref", str(feat), "--test", str(feat),
                     "-o", str(report)]) == 0
    values = dict(line.split("\t") for line in report.read_text().strip().splitlines())
    assert float(values["mcd_v_db"]) == 0.0
    assert float(values["f0_rmse_cent"]) == 0.0
    assert float(values["vuv_error_pct"]) == 0.0
    assert "snr_db" not in values


def test_evaluate_infers_kind_from_upper_case_extension(tmp_path, capsys):
    path = tmp_path / "in.LASK"
    write_las_file(path, np.zeros((5, 257)), 80, 16000)
    assert cli.main(["evaluate", "--ref", str(path), "--test", str(path)]) == 0
    assert "las_rmse_db = 0.000000" in capsys.readouterr().out


def test_evaluate_reads_both_inputs_as_the_inferred_kind(tmp_path, capsys, utterance_wav):
    las, feat = tmp_path / "x.lask", tmp_path / "y.aftk"
    assert cli.main(["analyze", str(utterance_wav), "-o", str(feat), "--las", str(las)]) == 0
    assert cli.main(["evaluate", "--ref", str(las), "--test", str(feat)]) == 2
    assert "bad magic" in capsys.readouterr().err


def test_evaluate_unknown_extension_exits_two(tmp_path):
    mystery = tmp_path / "data.bin"
    mystery.write_bytes(b"\x00")
    assert cli.main(["evaluate", "--ref", str(mystery), "--test", str(mystery)]) == 2


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == 1


def test_missing_file_exits_two(tmp_path):
    assert cli.main(["recover", str(tmp_path / "absent.aftk"),
                     "-o", str(tmp_path / "out.lask")]) == 2


def test_resynth_rejects_wrong_bin_count(tmp_path):
    path = tmp_path / "narrow.lask"
    write_las_file(path, np.zeros((5, 100)), 80, 16000)
    assert cli.main(["resynth", str(path), "-o", str(tmp_path / "o.wav")]) == 2


@pytest.mark.parametrize("gain", [1e300, 1e308])  # past float32, past float64
def test_refine_apply_overflowing_model_exits_two(tmp_path, gain):
    las = tmp_path / "in.lask"
    write_las_file(las, np.full((5, 257), -3.0), 80, 16000)
    model = tmp_path / "huge.alrf"
    alaskit.save_refiner(alaskit.RefinerModel(gain=np.full(257, gain), bias=np.zeros(257)),
                         model)
    out = tmp_path / "out.lask"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["refine-apply", str(model), str(las), "-o", str(out)]) == 2
    assert not out.exists()


def test_refine_apply_zero_bin_model_names_the_model(tmp_path, capsys):
    las = tmp_path / "in.lask"
    write_las_file(las, np.zeros((5, 257)), 80, 16000)
    model = tmp_path / "empty.alrf"
    rawfiles.write_refiner(model, [], [])
    out = tmp_path / "out.lask"
    assert cli.main(["refine-apply", str(model), str(las), "-o", str(out)]) == 2
    assert f"{model} holds 2 rows of 0 values" in capsys.readouterr().err
    assert not out.exists()


def test_recover_huge_mcep_exits_two(tmp_path):
    mcep = np.zeros((5, 41))
    mcep[1, 3] = 1e30
    feat = tmp_path / "huge.aftk"
    write_feature_file(feat, FeatureTrack(f0=np.full(5, 120.0), mcep=mcep,
                                          frame_shift=80, sample_rate=16000))
    out = tmp_path / "out.lask"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["recover", str(feat), "-o", str(out)]) == 2
    assert not out.exists()


def test_recover_convolution_overflow_exits_two(tmp_path):
    # exp(709) is finite and float32 holds 709 exactly; the window
    # convolution of an unvoiced frame overflows
    mcep = np.zeros((5, 41))
    mcep[:, 0] = 709.0
    feat = tmp_path / "huge.aftk"
    write_feature_file(feat, FeatureTrack(f0=np.zeros(5), mcep=mcep,
                                          frame_shift=80, sample_rate=16000))
    out = tmp_path / "out.lask"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["recover", str(feat), "-o", str(out)]) == 2
    assert not out.exists()


def test_zero_frame_las_exits_two(tmp_path):
    empty = tmp_path / "empty.lask"
    empty.write_bytes(struct.pack("<4sIIIII", b"LASK", 1, 0, 257, 80, 16000))
    out = tmp_path / "o.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["resynth", str(empty), "-o", str(out)]) == 2
        assert cli.main(["evaluate", "--ref", str(empty), "--test", str(empty), "--las"]) == 2
    assert not out.exists()


def test_evaluate_las_rejects_mismatched_geometry(tmp_path):
    ref = tmp_path / "ref.lask"
    test = tmp_path / "test.lask"
    write_las_file(ref, np.zeros((5, 257)), 80, 16000)
    write_las_file(test, np.zeros((5, 257)), 40, 8000)
    assert cli.main(["evaluate", "--ref", str(ref), "--test", str(test), "--las"]) == 2


def test_evaluate_feat_rejects_mismatched_geometry(tmp_path):
    paths = []
    for shift, rate in ((80, 16000), (40, 8000)):
        track = FeatureTrack(f0=np.full(5, 120.0), mcep=np.zeros((5, 41)), frame_shift=shift,
                             sample_rate=rate)
        paths.append(tmp_path / f"{shift}.aftk")
        write_feature_file(paths[-1], track)
    assert cli.main(["evaluate", "--ref", str(paths[0]), "--test", str(paths[1]),
                     "--feat"]) == 2


@pytest.mark.parametrize("mode", ["--las", "--feat"])
def test_evaluate_rejects_flag_contradicting_both_headers(tmp_path, mode):
    path = tmp_path / "in"
    if mode == "--las":
        write_las_file(path, np.zeros((5, 257)), 80, 16000)
    else:
        write_feature_file(path, FeatureTrack(f0=np.full(5, 120.0), mcep=np.zeros((5, 41)),
                                              frame_shift=80, sample_rate=16000))
    argv = ["evaluate", mode, "--ref", str(path), "--test", str(path)]
    assert cli.main(argv + ["--sample-rate", "8000"]) == 2
    assert cli.main(argv + ["--sample-rate", "16000"]) == 0


def test_refine_fit_rejects_mixed_geometry(tmp_path):
    lines = []
    for shift, rate in ((80, 16000), (40, 8000)):
        path = tmp_path / f"{shift}.lask"
        write_las_file(path, np.zeros((5, 257)), shift, rate)
        lines.append(f"{path}\t{path}\n")
    manifest = tmp_path / "pairs.txt"
    manifest.write_text("".join(lines))
    assert cli.main(["refine-fit", str(manifest), "-o", str(tmp_path / "m.alrf")]) == 2
    assert not (tmp_path / "m.alrf").exists()


@pytest.mark.parametrize("line", ["a.lask", "a.lask\tb.lask\tc.lask"], ids=["1-field", "3-field"])
def test_refine_fit_rejects_malformed_manifest_line(tmp_path, capsys, line):
    path = tmp_path / "x.lask"
    write_las_file(path, np.zeros((5, 257)), 80, 16000)
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(f"{path}\t{path}\n\n{line}\n")
    model = tmp_path / "m.alrf"
    assert cli.main(["refine-fit", str(manifest), "-o", str(model)]) == 2
    assert f"{manifest}:3: expected" in capsys.readouterr().err
    assert not model.exists()


def test_refine_fit_skips_blank_lines(tmp_path):
    path = tmp_path / "x.lask"
    write_las_file(path, np.zeros((5, 257)), 80, 16000)
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(f"\n{path}\t{path}\n  \n\n{path}\t{path}\n\n")
    model = tmp_path / "m.alrf"
    assert cli.main(["refine-fit", str(manifest), "-o", str(model)]) == 0
    assert alaskit.load_refiner(model).num_bins == 257


def test_refine_fit_checks_agreement_only(tmp_path):
    # a frame shift of 400 exceeds the default frame length: refine-fit checks
    # that its files agree and builds no analysis parameters from them
    path = tmp_path / "x.lask"
    write_las_file(path, np.zeros((5, 257)), 400, 16000)
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(f"{path}\t{path}\n")
    assert cli.main(["refine-fit", str(manifest), "-o", str(tmp_path / "m.alrf")]) == 0


@pytest.mark.parametrize("radius, code", [(4294967296, 2), (-1, 2), (4294967295, 0)])
def test_refine_fit_context_radius_fits_the_model_header(tmp_path, radius, code):
    # .alrf stores the radius as a u32; past it nothing may be written
    path = tmp_path / "x.lask"
    write_las_file(path, np.zeros((5, 257)), 80, 16000)
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(f"{path}\t{path}\n")
    model = tmp_path / "m.alrf"
    argv = ["refine-fit", str(manifest), "-o", str(model), "--context-radius", str(radius)]
    assert cli.main(argv) == code
    assert model.exists() == (code == 0)
    if code == 0:
        assert alaskit.load_refiner(model).context_radius == radius


@pytest.mark.parametrize("rate, code", [(400, 2), (499, 2), (500, 0)])
def test_analyze_needs_sample_rate_of_f0_max(tmp_path, rate, code):
    path = tmp_path / "low.wav"
    write_wav(path, Waveform(0.5 * np.sin(2 * np.pi * 100.0 * np.arange(rate) / rate), rate))
    assert cli.main(["analyze", str(path), "-o", str(tmp_path / "low.aftk")]) == code


def test_analyze_fft_too_small_for_41_mel_cepstra_exits_two(tmp_path, utterance_wav, capsys):
    out = tmp_path / "x.aftk"
    argv = ["analyze", str(utterance_wav), "-o", str(out), "--frame-len", "64",
            "--frame-shift", "16", "--fft-size", "64"]
    assert cli.main(argv) == 2
    assert "41 mel-cepstra need at least 41 spectral bins" in capsys.readouterr().err
    assert not out.exists()


def test_recover_negative_f0_exits_two(tmp_path, capsys):
    rows = np.zeros((5, 42))
    rows[:, 0] = [120.0, 0.0, -120.0, 0.0, 120.0]
    feat, out = tmp_path / "neg.aftk", tmp_path / "out.lask"
    rawfiles.write_container(feat, b"AFTK", rows)
    assert cli.main(["recover", str(feat), "-o", str(out)]) == 2
    assert "f0 must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_log_floor_exits_two(tmp_path, utterance_wav, value):
    out = tmp_path / "utt.aftk"
    assert cli.main(["analyze", str(utterance_wav), "-o", str(out), "--log-floor", value]) == 2
    assert not out.exists()


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A small valid file of each kind the CLI reads."""
    d = tmp_path_factory.mktemp("inputs")
    write_wav(d / "in.wav", Waveform(0.5 * np.sin(2 * np.pi * 150.0 * np.arange(1600) / 16000),
                                     16000))
    assert cli.main(["analyze", str(d / "in.wav"), "-o", str(d / "in.aftk"),
                     "--las", str(d / "in.lask")]) == 0
    (d / "pairs.txt").write_text(f"{d / 'in.lask'}\t{d / 'in.lask'}\n")
    assert cli.main(["refine-fit", str(d / "pairs.txt"), "-o", str(d / "in.alrf")]) == 0
    return d


def _reading_command(kind, bad, d):
    out = str(d / "out")
    return {
        "wav": ["analyze", bad, "-o", out],
        "aftk": ["recover", bad, "-o", out],
        "lask": ["resynth", bad, "-o", out, "--iters", "1"],
        "alrf": ["refine-apply", bad, str(d / "in.lask"), "-o", out],
    }[kind]


@pytest.mark.parametrize("kind", ["wav", "aftk", "lask", "alrf"])
@settings(max_examples=120, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 63) | st.integers(0, 1 << 15),
                                st.integers(1, 255)), max_size=4),
       cut=st.none() | st.integers(0, 1 << 15))
def test_corrupted_inputs_exit_zero_or_two(valid_inputs, kind, flips, cut):
    data = bytearray((valid_inputs / f"in.{kind}").read_bytes())
    for position, mask in flips:
        data[position % len(data)] ^= mask
    bad = valid_inputs / f"bad.{kind}"
    bad.write_bytes(bytes(data[:cut]))
    assert cli.main(_reading_command(kind, str(bad), valid_inputs)) in (0, 2)


def test_non_finite_inputs_exit_two(tmp_path):
    las = np.zeros((5, 257))
    las[2, 7] = np.nan
    bad_las = tmp_path / "nan.lask"
    rawfiles.write_container(bad_las, b"LASK", las)
    good_las = tmp_path / "ok.lask"
    write_las_file(good_las, np.zeros((5, 257)), 80, 16000)
    assert cli.main(["evaluate", "--ref", str(good_las), "--test", str(bad_las)]) == 2

    rows = np.zeros((3, 42))
    rows[:, 0] = [100.0, np.nan, 0.0]
    bad_feat = tmp_path / "nan.aftk"
    rawfiles.write_container(bad_feat, b"AFTK", rows)
    assert cli.main(["recover", str(bad_feat), "-o", str(tmp_path / "out.lask")]) == 2


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(alaskit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, alaskit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
