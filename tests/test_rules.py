"""The rules every count, rate, geometry and result check goes through.

dsp._at_least refuses a count or a rate that is not an integer of at least
its minimum; dsp._agree refuses two sources that give one geometry field
different values; dsp._finite refuses a non-finite result, naming a
non-finite input if there is one and the overflow otherwise. Each site is
pinned to its exact message; the first two state the refused value or
values.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import rawfiles
from alaskit import (
    AnalysisParams,
    EvalReport,
    FeatureTrack,
    RefinerModel,
    Waveform,
    apply_refiner,
    cli,
    estimate_f0,
    extract_las,
    f0_rmse_cent,
    fit_refiner,
    griffin_lim,
    hann_window,
    las_rmse_db,
    mcd_v_db,
    mcep_analysis,
    read_las_file,
    recover_alas,
    snr_db,
    vuv_error_pct,
    warp_cepstrum,
    write_las_file,
)
from alaskit.dsp import _at_least, _finite


def _track(**changes):
    fields = dict(f0=np.full(5, 120.0), mcep=np.zeros((5, 41)), frame_shift=80,
                  sample_rate=16000)
    return FeatureTrack(**{**fields, **changes})


def _las_reader(path):
    rawfiles.write_container(path, b"LASK", np.zeros((2, 257)), 80, 0)
    read_las_file(path)


COUNT_SITES = {
    "params-sample_rate": (lambda _: AnalysisParams(sample_rate=0),
                           "sample_rate must be an integer >= 1, got 0"),
    "params-frame_len": (lambda _: AnalysisParams(frame_len=1),
                         "frame_len must be an integer >= 2, got 1"),
    "params-frame_shift": (lambda _: AnalysisParams(frame_shift=0),
                           "frame_shift must be an integer >= 1, got 0"),
    "params-fft_size": (lambda _: AnalysisParams(fft_size=256),
                        "fft_size must be an integer >= 320, got 256"),
    "waveform-sample_rate": (lambda _: Waveform(np.zeros(4), 0),
                             "sample_rate must be an integer >= 1, got 0"),
    "hann_window": (lambda _: hann_window(1), "window length must be an integer >= 2, got 1"),
    "griffin_lim-iters": (lambda _: griffin_lim(np.zeros((2, 257)), AnalysisParams(), iters=0),
                          "iters must be an integer >= 1, got 0"),
    "track-frame_shift": (lambda _: _track(frame_shift=0),
                          "frame_shift must be an integer >= 1, got 0"),
    "track-sample_rate": (lambda _: _track(sample_rate=0),
                          "sample_rate must be an integer >= 1, got 0"),
    "report-frames_compared": (lambda _: EvalReport(frames_compared=0),
                               "frames_compared must be an integer >= 1, got 0"),
    "las-writer": (lambda path: write_las_file(path, np.zeros((2, 257)), 0, 16000),
                   "{path}: frame_shift must be an integer >= 1, got 0"),
    "las-reader": (_las_reader, "{path}: sample_rate must be an integer >= 1, got 0"),
}


@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_rule_states_the_value_at_every_site(tmp_path, site):
    call, message = COUNT_SITES[site]
    path = tmp_path / "geometry.lask"
    with pytest.raises(ValueError) as exc:
        call(path)
    assert str(exc.value) == message.format(path=path)


@pytest.mark.parametrize("value, shown", [
    (0, "0"), (-3, "-3"), (np.int64(0), "np.int64(0)"), (2.0, "2.0"), (True, "True"),
    ("80", "'80'"), (None, "None"),
])
def test_count_rule_refuses_small_and_non_integer_values(value, shown):
    with pytest.raises(ValueError) as exc:
        _at_least("count", value, 1)
    assert str(exc.value) == f"count must be an integer >= 1, got {shown}"


@pytest.mark.parametrize("value", [1, 7, np.uint8(1), np.int64(2**40)])
def test_count_rule_takes_integers_at_the_minimum_and_above_as_int(value):
    taken = _at_least("count", value, 1)
    assert type(taken) is int and taken == value


def _two_tracks(**changes):
    ref = _track()
    return ref, dataclasses.replace(ref, **changes)


GEOMETRY_SITES = {
    "extract_las": (lambda: extract_las(Waveform(np.zeros(800), 8000), AnalysisParams()),
                    "sample rate mismatch: 8000 from wave, 16000 from params"),
    "estimate_f0": (lambda: estimate_f0(Waveform(np.zeros(800), 8000), AnalysisParams()),
                    "sample rate mismatch: 8000 from wave, 16000 from params"),
    "recover_alas-frame_shift": (lambda: recover_alas(_track(frame_shift=40), AnalysisParams()),
                                 "frame shift mismatch: 40 from track, 80 from params"),
    "recover_alas-sample_rate": (lambda: recover_alas(_track(sample_rate=8000), AnalysisParams()),
                                 "sample rate mismatch: 8000 from track, 16000 from params"),
    "mcd_v_db": (lambda: mcd_v_db(*_two_tracks(frame_shift=160)),
                 "frame shift mismatch: 80 from ref, 160 from test"),
    "f0_rmse_cent": (lambda: f0_rmse_cent(*_two_tracks(sample_rate=8000)),
                     "sample rate mismatch: 16000 from ref, 8000 from test"),
    "vuv_error_pct": (lambda: vuv_error_pct(*_two_tracks(sample_rate=8000)),
                      "sample rate mismatch: 16000 from ref, 8000 from test"),
    "snr_db": (lambda: snr_db(Waveform(np.ones(8), 16000), Waveform(np.ones(8), 8000)),
               "sample rate mismatch: 16000 from ref, 8000 from test"),
    "fit_refiner": (lambda: fit_refiner([(np.zeros((3, 257)), np.zeros((4, 257)))]),
                    "shape mismatch: (3, 257) from recovered, (4, 257) from natural"),
    "cli-frame_shift": (lambda: cli._agreed(("a.lask", 80, 16000), ("b.wav", None, 16000),
                                            ("c.lask", 40, 16000)),
                        "frame shift mismatch: 80 from a.lask, 40 from c.lask"),
    "cli-sample_rate": (lambda: cli._agreed(("a.wav", None, 16000), ("b.wav", None, 8000)),
                        "sample rate mismatch: 16000 from a.wav, 8000 from b.wav"),
}


@pytest.mark.parametrize("site", GEOMETRY_SITES)
def test_geometry_rule_states_both_values_at_every_site(site):
    call, message = GEOMETRY_SITES[site]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def _nan_at_end(shape):
    values = np.zeros(shape)
    values[-1, -1] = np.nan
    return values


def _gains(value):
    return RefinerModel(gain=np.full(257, value), bias=np.zeros(257))


_UNVOICED_709 = np.zeros((5, 41))
_UNVOICED_709[:, 0] = 709.0  # exp is finite; an unvoiced frame's convolution is not
_APART = " overflows the float64 range: the inputs are too far apart"

# site: (a call whose result overflows, its refusal, and for a site that reads
# its inputs only once its result is non-finite, a call with a NaN input and its
# refusal)
RESULT_SITES = {
    "warp_cepstrum": (lambda: warp_cepstrum(np.full(257, 1.7e308), 0.42),
                      "cepstral vectors too large: their warp overflows", None, None),
    "recover_alas": (lambda: recover_alas(_track(f0=np.zeros(5), mcep=_UNVOICED_709),
                                          AnalysisParams()),
                     "mel-cepstra too large: the window convolution of their spectra overflows",
                     None, None),
    "mcep_analysis": (lambda: mcep_analysis(np.full((2, 257), np.finfo(np.float64).max),
                                            AnalysisParams()),
                      "log spectra too large: their mel-cepstra overflow",
                      lambda: mcep_analysis(_nan_at_end((2, 257)), AnalysisParams()),
                      "log spectra must be finite"),
    "apply_refiner": (lambda: apply_refiner(_gains(1e308), np.full((3, 257), 2.0)),
                      "the refiner's gains or biases take the LAS past the float64 range",
                      lambda: apply_refiner(_gains(1.0), _nan_at_end((3, 257))),
                      "LAS values must be finite"),
    "fit_refiner": (lambda: fit_refiner([(np.full((3, 257), 1e308), np.zeros((3, 257)))]),
                    "the pairs' statistics overflow the float64 range",
                    lambda: fit_refiner([(np.zeros((3, 257)), _nan_at_end((3, 257)))]),
                    "LAS values must be finite"),
    "snr_db": (lambda: snr_db(Waveform(np.full(8, 1e200), 16000), Waveform(np.zeros(8), 16000)),
               "signal energies overflow the float64 range", None, None),
    "las_rmse_db": (lambda: las_rmse_db(np.full((2, 257), 1e200), np.full((2, 257), -1e200)),
                    "las_rmse_db" + _APART,
                    lambda: las_rmse_db(np.zeros((2, 257)), _nan_at_end((2, 257))),
                    "LAS values must be finite"),
    "mcd_v_db": (lambda: mcd_v_db(_track(mcep=np.full((5, 41), 1e200)),
                                  _track(mcep=np.full((5, 41), -1e200))),
                 "mcd_v_db" + _APART, None, None),
    "f0_rmse_cent": (lambda: f0_rmse_cent(_track(f0=np.full(5, 1e-300)),
                                          _track(f0=np.full(5, 1e300))),
                     "f0_rmse_cent" + _APART, None, None),
    # exp(709) is finite; the first synthesis's inverse FFT sums 257 of them
    "griffin_lim": (lambda: griffin_lim(np.full((5, 257), 709.0), AnalysisParams(), iters=2),
                    "LAS values too large: their synthesis overflows", None, None),
}


def _refused_without_warning(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert str(exc.value) == message


@pytest.mark.parametrize("site", RESULT_SITES)
def test_result_rule_refuses_an_overflow_at_every_site(site):
    _refused_without_warning(*RESULT_SITES[site][:2])


@pytest.mark.parametrize("site", [site for site, entry in RESULT_SITES.items() if entry[2]])
def test_result_rule_refuses_a_non_finite_input_at_every_site(site):
    _refused_without_warning(*RESULT_SITES[site][2:])


def test_result_rule_reads_its_inputs_only_for_a_non_finite_result():
    result, unreadable = np.ones(3), object()  # np.isfinite refuses an object
    assert _finite(result, "overflow", unreadable) is result
    with pytest.raises(ValueError, match="^overflow$"):
        _finite(np.full(3, np.inf), "overflow", np.ones(3))
    with pytest.raises(ValueError, match="^bad input$"):
        _finite(np.full(3, np.nan), "overflow", np.ones(3), np.full(3, np.nan), refused="bad input")
