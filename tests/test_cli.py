"""End-to-end tests of the command-line pipeline."""

import os
import struct
import subprocess
import sys
import warnings
import wave as wave_module

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
    recover_alas,
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
    assert f"{feat}: bad magic b'AFTK' (expected b'LASK')" in capsys.readouterr().err


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


def test_refine_apply_context_radius_model_exits_two(tmp_path, capsys):
    las = tmp_path / "in.lask"
    write_las_file(las, np.zeros((5, 257)), 80, 16000)
    model = tmp_path / "smoothed.alrf"
    rawfiles.write_refiner(model, np.ones(257), np.zeros(257), context_radius=2)
    out = tmp_path / "out.lask"
    assert cli.main(["refine-apply", str(model), str(las), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"alaskit: error: {model} was fitted with context radius 2" in err
    assert "refit it with refine-fit" in err
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


def test_refine_fit_of_manifest_without_pairs_names_it(tmp_path, capsys):
    manifest = tmp_path / "pairs.txt"
    manifest.write_text("\n  \n")
    model = tmp_path / "m.alrf"
    assert cli.main(["refine-fit", str(manifest), "-o", str(model)]) == 2
    assert f"alaskit: error: {manifest}: no training pairs" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("shapes, message", [
    ([(100, 257), (100, 257), (100, 257), (103, 257)],
     "shape mismatch: (100, 257) from {2}, (103, 257) from {3}"),
    ([(100, 257), (100, 257), (100, 129), (100, 129)],
     "bins mismatch: 257 from {0}, 129 from {2}"),
], ids=["frames", "bins"])
def test_refine_fit_names_the_line_of_a_mismatched_pair(tmp_path, capsys, shapes, message):
    # before: "pair shape mismatch: (100, 257) vs (103, 257)" or "bin count
    # mismatch: ...", naming no line and no file
    paths = [tmp_path / f"{i}.lask" for i in range(4)]
    for path, shape in zip(paths, shapes):
        write_las_file(path, np.zeros(shape), 80, 16000)
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(f"{paths[0]}\t{paths[1]}\n\n{paths[2]}\t{paths[3]}\n")
    model = tmp_path / "m.alrf"
    assert cli.main(["refine-fit", str(manifest), "-o", str(model)]) == 2
    assert capsys.readouterr().err == f"alaskit: error: {manifest}:3: {message.format(*paths)}\n"
    assert not model.exists()


def test_refine_fit_of_an_undecodable_manifest_names_it(tmp_path, capsys):
    # before: the decode error alone, naming no file
    manifest = tmp_path / "pairs.txt"
    manifest.write_bytes(b"\xff\xfea.lask\tb.lask\n")
    model = tmp_path / "m.alrf"
    assert cli.main(["refine-fit", str(manifest), "-o", str(model)]) == 2
    assert capsys.readouterr().err == (f"alaskit: error: {manifest}: 'utf-8' codec can't decode "
                                       "byte 0xff in position 0: invalid start byte\n")
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


def test_refine_fit_context_radius_is_a_usage_error(tmp_path):
    path = tmp_path / "x.lask"
    write_las_file(path, np.zeros((5, 257)), 80, 16000)
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(f"{path}\t{path}\n")
    model = tmp_path / "m.alrf"
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["refine-fit", str(manifest), "-o", str(model), "--context-radius", "1"])
    assert excinfo.value.code == 1
    assert not model.exists()


@pytest.mark.parametrize("rate, code", [(400, 2), (499, 2), (500, 0)])
def test_analyze_needs_sample_rate_of_f0_max(tmp_path, rate, code):
    path = tmp_path / "low.wav"
    write_wav(path, Waveform(0.5 * np.sin(2 * np.pi * 100.0 * np.arange(rate) / rate), rate))
    assert cli.main(["analyze", str(path), "-o", str(tmp_path / "low.aftk")]) == code


def test_recover_negative_f0_exits_two(tmp_path, capsys):
    rows = np.zeros((5, 42))
    rows[:, 0] = [120.0, 0.0, -120.0, 0.0, 120.0]
    feat, out = tmp_path / "neg.aftk", tmp_path / "out.lask"
    rawfiles.write_container(feat, b"AFTK", rows)
    assert cli.main(["recover", str(feat), "-o", str(out)]) == 2
    assert "f0 must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("recover", "--alpha", "0.3"),
    ("recover", "--frame-len", "400"),
    ("recover", "--fft-size", "1024"),
    ("recover", "--log-floor", "1e-8"),
    ("recover", "--sample-rate", "16000"),
    ("resynth", "--frame-shift", "80"),
])
def test_analysis_flags_beyond_analyze_frame_shift_are_usage_errors(tmp_path, valid_inputs,
                                                                     command, flag, value):
    # geometry comes from the input headers; no flag can set it apart from them
    source = valid_inputs / ("in.aftk" if command == "recover" else "in.lask")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, str(source), "-o", str(out), flag, value])
    assert excinfo.value.code == 1
    assert not out.exists()


def test_analyze_frame_shift_flows_through_headers(tmp_path, utterance_wav):
    feat, nat, rec = tmp_path / "utt.aftk", tmp_path / "nat.lask", tmp_path / "rec.lask"
    wav_out = tmp_path / "out.wav"
    assert cli.main(["analyze", str(utterance_wav), "-o", str(feat), "--frame-shift", "160",
                     "--las", str(nat)]) == 0
    assert cli.main(["recover", str(feat), "-o", str(rec)]) == 0
    assert cli.main(["evaluate", "--las", "--ref", str(nat), "--test", str(rec)]) == 0
    assert cli.main(["resynth", str(rec), "-o", str(wav_out)]) == 0
    assert [read_las_file(path)[1:] for path in (nat, rec)] == [(160, 16000)] * 2
    track = read_feature_file(feat)
    expected = np.float32(recover_alas(track, AnalysisParams(frame_shift=160)))
    assert np.array_equal(read_las_file(rec)[0], expected)
    assert read_wav(wav_out).sample_rate == 16000


def test_resynth_of_zero_frame_shift_las_names_the_file(tmp_path, capsys):
    las, out = tmp_path / "z.lask", tmp_path / "z.wav"
    rawfiles.write_container(las, b"LASK", np.zeros((2, 3)), frame_shift=0)
    assert cli.main(["resynth", str(las), "-o", str(out)]) == 2
    assert str(las) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["resynth", "recover"])
def test_frame_shift_beyond_frame_len_names_the_file_and_value(tmp_path, capsys, command):
    # the codec takes a shift-400 header; AnalysisParams refuses it at frame_len 320
    if command == "resynth":
        source = tmp_path / "s400.lask"
        write_las_file(source, np.zeros((5, 257)), 400, 16000)
    else:
        source = tmp_path / "s400.aftk"
        rawfiles.write_container(source, b"AFTK", np.zeros((5, 42)), frame_shift=400)
    out = tmp_path / "out"
    assert cli.main([command, str(source), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"alaskit: error: {source}: frame_shift must be in [1, frame_len], got 400" in err
    assert not out.exists()


def test_evaluate_of_stereo_test_wav_names_it(tmp_path, capsys, utterance_wav):
    stereo = tmp_path / "stereo.wav"
    with wave_module.open(str(stereo), "wb") as writer:
        writer.setnchannels(2)
        writer.setsampwidth(2)
        writer.setframerate(16000)
        writer.writeframes(b"\x00\x00" * 400)
    assert cli.main(["evaluate", "--ref", str(utterance_wav), "--test", str(stereo)]) == 2
    assert f"{stereo}: mono required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "evaluate"])
def test_wav_without_samples_names_it(tmp_path, capsys, utterance_wav, command):
    empty = tmp_path / "empty.wav"
    rawfiles.write_empty_wav(empty)
    argv = (["analyze", str(empty), "-o", str(tmp_path / "e.aftk")] if command == "analyze"
            else ["evaluate", "--wav", "--ref", str(utterance_wav), "--test", str(empty)])
    assert cli.main(argv) == 2
    assert f"alaskit: error: {empty}: no samples" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resynth", "refine-apply", "evaluate"])
def test_las_of_another_bin_count_names_the_files(tmp_path, capsys, command):
    # before: "alaskit: error: LAS must be ..." with no file named
    narrow, wide = tmp_path / "a129.lask", tmp_path / "a257.lask"
    write_las_file(narrow, np.zeros((50, 129)), 80, 16000)
    write_las_file(wide, np.zeros((50, 257)), 80, 16000)
    model = tmp_path / "m.alrf"
    alaskit.save_refiner(alaskit.RefinerModel(gain=np.ones(257), bias=np.zeros(257)), model)
    out = tmp_path / "out"
    argv, named = {
        "resynth": (["resynth", str(narrow), "-o", str(out)], str(narrow)),
        "refine-apply": (["refine-apply", str(model), str(narrow), "-o", str(out)],
                         f"{model} vs {narrow}"),
        "evaluate": (["evaluate", "--ref", str(wide), "--test", str(narrow), "--las"],
                     f"{wide} vs {narrow}"),
    }[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (f"alaskit: error: {named}: LAS must be (frames >= 1, 257), "
                                       "got shape (50, 129)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["resynth", "recover", "analyze"])
def test_refused_values_name_their_file(tmp_path, capsys, command):
    # before: each message alone, with no file named
    out = tmp_path / "out"
    if command == "resynth":
        source = tmp_path / "a.lask"
        las = np.zeros((5, 257))
        las[2, 7] = 710.0
        write_las_file(source, las, 80, 16000)
        message = "LAS values must be at most 709.78 (exp(las) must be finite)"
    elif command == "recover":
        source = tmp_path / "a.aftk"
        mcep = np.zeros((5, 41))
        mcep[:, 0] = 709.0  # exp is finite; an unvoiced frame's convolution is not
        write_feature_file(source, FeatureTrack(f0=np.zeros(5), mcep=mcep, frame_shift=80,
                                                sample_rate=16000))
        message = "mel-cepstra too large: the window convolution of their spectra overflows"
    else:
        source = tmp_path / "a.wav"
        write_wav(source, Waveform(np.zeros(800), 400))
        message = "F0 analysis needs a sample rate of at least 500 Hz, got 400 Hz"
    assert cli.main([command, str(source), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"alaskit: error: {source}: {message}\n"
    assert not out.exists()


def test_resynth_iters_refusal_names_no_file(tmp_path, capsys):
    las = tmp_path / "a.lask"
    write_las_file(las, np.zeros((5, 257)), 80, 16000)
    assert cli.main(["resynth", str(las), "-o", str(tmp_path / "o.wav"), "--iters", "0"]) == 2
    assert capsys.readouterr().err == "alaskit: error: --iters must be an integer >= 1, got 0\n"


@pytest.mark.parametrize("kind", ["wav-noise", "wav-silence", "feat"])
def test_evaluate_without_commonly_voiced_frames_names_both_inputs(tmp_path, capsys, kind):
    # before: "alaskit: error: no commonly voiced frames" with no file named
    t = np.arange(16000) / 16000
    sine = Waveform(0.5 * np.sin(2 * np.pi * 150 * t), 16000)
    other = Waveform(0.01 * np.random.default_rng(7).standard_normal(16000)
                     if kind == "wav-noise" else np.zeros(16000), 16000)
    ref, test = tmp_path / "sine.wav", tmp_path / "other.wav"
    write_wav(ref, sine)
    write_wav(test, other)
    if kind == "feat":
        ref, test = tmp_path / "sine.aftk", tmp_path / "other.aftk"
        write_feature_file(ref, extract_features(sine, AnalysisParams()))
        write_feature_file(test, extract_features(other, AnalysisParams()))
    assert cli.main(["evaluate", "--ref", str(ref), "--test", str(test)]) == 2
    assert capsys.readouterr().err == f"alaskit: error: {ref} vs {test}: no commonly voiced frames\n"


def _subprocess_env():
    """os.environ with this alaskit's source directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(alaskit.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_resynth_to_unwritable_path_prints_one_error_line(tmp_path):
    las = tmp_path / "a.lask"
    write_las_file(las, np.zeros((5, 257)), 80, 16000)
    out = tmp_path / "absent" / "s.wav"
    done = subprocess.run([sys.executable, "-m", "alaskit.cli", "resynth", str(las), "-o",
                           str(out), "--iters", "1"], env=_subprocess_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("alaskit: error: ")
    assert str(out) in done.stderr and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def _tracks_of(tmp_path, *frame_counts):
    """A voiced .aftk of each frame count, at the default geometry."""
    paths = []
    for n in frame_counts:
        paths.append(tmp_path / f"t{n}.aftk")
        write_feature_file(paths[-1], FeatureTrack(f0=np.full(n, 120.0), mcep=np.zeros((n, 41)),
                                                   frame_shift=80, sample_rate=16000))
    return paths


def test_evaluate_prints_a_library_warning_as_one_line(tmp_path, capsys):
    # before: Python's two-line "cli.py:157: UserWarning: ..." and a source line,
    # and a traceback under -W error
    ref, test = _tracks_of(tmp_path, 200, 100)
    argv = ["evaluate", "--ref", str(ref), "--test", str(test)]
    expected = "alaskit: warning: frame count mismatch (200 vs 100); comparing first 100\n"
    assert cli.main(argv) == 0  # the suite turns every warning into an error
    assert capsys.readouterr().err == expected
    done = subprocess.run([sys.executable, "-W", "error", "-m", "alaskit.cli", *argv],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, expected)


def test_other_warning_categories_keep_the_filters(tmp_path, capsys, monkeypatch):
    ref, test = _tracks_of(tmp_path, 5, 5)

    def warns(*args):
        warnings.warn("stray", RuntimeWarning)
        return 0

    monkeypatch.setattr(metrics, "vuv_error_pct", warns)
    with pytest.raises(RuntimeWarning, match="stray"):
        cli.main(["evaluate", "--ref", str(ref), "--test", str(test)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["evaluate", "--ref", str(ref), "--test", str(test)]) == 0
    assert [str(w.message) for w in caught] == ["stray"]
    assert "alaskit: warning" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "{wav}", "--frame-shift", "0"],
     "--frame-shift: frame_shift must be an integer >= 1, got 0"),
    (["analyze", "{wav}", "--frame-shift", "400"],
     "--frame-shift: frame_shift must be in [1, frame_len], got 400 with frame_len 320"),
    (["resynth", "{absent}", "--iters", "-2"], "--iters must be an integer >= 1, got -2"),
], ids=["frame-shift-0", "frame-shift-400", "iters"])
def test_a_refused_flag_value_names_the_flag(tmp_path, capsys, utterance_wav, argv, message):
    # before: the message alone; resynth checked --iters after reading its input
    out = tmp_path / "out"
    argv = [arg.format(wav=utterance_wav, absent=tmp_path / "absent.lask") for arg in argv]
    assert cli.main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"alaskit: error: {message}\n"
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
    # concurrent.futures imports logging; griffin_lim imports it only when it runs
    unloaded = ("scipy", "concurrent.futures", "logging")
    code = f"import sys, alaskit.cli; print([m for m in {unloaded!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
