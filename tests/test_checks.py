"""Non-finite inputs to the functions that find them from their results.

apply_refiner, las_rmse_db, fit_refiner and mcep_analysis check their
inputs' shapes before any work and their inputs' values only once the
result is non-finite; recover_alas reads a track whose arrays were checked
when it was built. These tests pin that every single NaN or ±inf is still
refused with the message the input check gives, and that the success path
scans no full-size input.
"""

import math
import warnings

import numpy as np
import pytest

from alaskit import (
    FeatureTrack,
    RefinerModel,
    alas,
    apply_refiner,
    fit_refiner,
    las_rmse_db,
    mcep_analysis,
    recover_alas,
)

FRAMES, BINS = 7, 257
BAD = [math.nan, math.inf, -math.inf]
SPOTS = {"first": (0, 0), "middle": (FRAMES // 2, BINS // 2), "last": (FRAMES - 1, BINS - 1)}
LAS_MESSAGE = "^LAS values must be finite$"


def _las(seed, frames=FRAMES):
    return np.random.default_rng(seed).standard_normal((frames, BINS))


def _with(array, spot, bad):
    array = array.copy()
    array[spot] = bad
    return array


def _refused(message, call, *args):
    """``call(*args)`` raises a ValueError matching ``message``, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call(*args)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("spot", SPOTS)
class TestEverySingleNonFiniteValue:
    def test_apply_refiner(self, spot, bad):
        model = RefinerModel(gain=np.full(BINS, 0.5), bias=np.ones(BINS))
        _refused(LAS_MESSAGE, apply_refiner, model, _with(_las(1), SPOTS[spot], bad))

    @pytest.mark.parametrize("side", ["ref", "test"])
    def test_las_rmse_db(self, spot, bad, side):
        ref, test = _las(2), _las(3)
        if side == "ref":
            ref = _with(ref, SPOTS[spot], bad)
        else:
            test = _with(test, SPOTS[spot], bad)
        _refused(LAS_MESSAGE, las_rmse_db, ref, test)

    @pytest.mark.parametrize("pair", [0, 2])
    @pytest.mark.parametrize("side", ["recovered", "natural"])
    def test_fit_refiner(self, spot, bad, pair, side):
        pairs = [[_las(10 + i), _las(20 + i)] for i in range(3)]
        which = ["recovered", "natural"].index(side)
        pairs[pair][which] = _with(pairs[pair][which], SPOTS[spot], bad)
        _refused(LAS_MESSAGE, fit_refiner, pairs)

    def test_mcep_analysis(self, params, spot, bad):
        las = _with(_las(4), SPOTS[spot], bad)
        _refused("^log spectra must be finite$", mcep_analysis, las, params)
        _refused("^log spectra must be finite$", mcep_analysis, las[SPOTS[spot][0]], params)

    @pytest.mark.parametrize("side", ["f0", "mcep"])
    def test_recover_alas(self, params, spot, bad, side):
        # a track owns a checked copy of its arrays, so a value written into
        # the caller's arrays afterwards does not reach recover_alas; the
        # layer that takes those raw arrays refuses it with the same message
        f0 = np.where(np.arange(FRAMES) % 2, 150.0, 0.0)
        mcep = 0.1 * np.random.default_rng(5).standard_normal((FRAMES, 41))
        track = FeatureTrack(f0=f0, mcep=mcep, frame_shift=80, sample_rate=16000)
        want = recover_alas(track, params)
        frame, column = SPOTS[spot]
        if side == "f0":
            f0[frame] = bad
            _refused("^f0 must be finite and nonnegative$", alas.excitation_spectrum, f0, params)
        else:
            mcep[frame, column * 40 // (BINS - 1)] = bad
            _refused("^mel-cepstra must be finite$", alas.filter_spectrum, mcep, params)
        assert np.array_equal(recover_alas(track, params), want)


@pytest.mark.parametrize("longer", ["ref", "test"])
@pytest.mark.parametrize("bad", BAD)
def test_las_rmse_db_refuses_a_non_finite_value_in_a_dropped_row(longer, bad):
    # the RMSE never reads the rows that truncation drops; they are refused
    # before the frame count mismatch is warned about
    ref, test = _las(6, frames=9), _las(7)
    if longer == "test":
        ref, test = test, ref
    (ref if longer == "ref" else test)[8, 100] = bad
    _refused(LAS_MESSAGE, las_rmse_db, ref, test)


def _track(f0, mcep):
    return FeatureTrack(f0=np.asarray(f0, dtype=float), mcep=mcep, frame_shift=80,
                        sample_rate=16000)


TOO_LARGE = "^mel-cepstra too large: their log filter spectrum exceeds 709.78, where exp overflows$"


def test_recover_alas_refuses_an_overflowing_exp_on_a_voiced_frame(params):
    # exp gives inf at every bin, and inf times the comb's zeros is NaN
    mcep = np.zeros((3, 41))
    mcep[1, 0] = 709.9
    _refused(TOO_LARGE, recover_alas, _track([150.0, 150.0, 150.0], mcep), params)


def test_recover_alas_refuses_a_log_filter_just_past_the_limit_off_the_comb(params):
    # a log filter of 709.781 has a finite exp (up to about 709.7827), and
    # the comb of a 7 kHz voiced frame (one pulse, at bin 224) zeroes the
    # low bins where it lies, so the recovered LAS alone would not show it
    bump = alas._log_filter_map(params)[1]
    mcep = np.zeros((3, 41))
    mcep[1, :2] = 709.781 - 300.0 * bump.max(), 300.0
    log_filter = mcep[1] @ alas._log_filter_map(params)[:41]
    assert 709.78 < log_filter.max() < 709.7827 and log_filter[224] < 0.0
    _refused(TOO_LARGE, recover_alas, _track([150.0, 7000.0, 150.0], mcep), params)
    _refused(TOO_LARGE, alas.filter_spectrum, mcep, params)


class _Scans:
    """The arrays and scalars that np.isfinite and the comparisons with
    alas._EXP_MAX read, as (size, is one of the inputs) pairs."""

    def __init__(self, monkeypatch, inputs):
        self.inputs, self.seen = inputs, []
        isfinite = np.isfinite

        def counted_isfinite(x, *args, **kwargs):
            self._saw(x)
            return isfinite(x, *args, **kwargs)

        scans = self

        class Limit(float):
            """A float whose ufunc calls (``array <= limit``) are counted."""

            def __array_ufunc__(self, ufunc, method, *operands, **kwargs):
                operands = [float(x) if x is self else x for x in operands]
                for x in operands:
                    if isinstance(x, (np.ndarray, np.generic)):
                        scans._saw(x)
                return getattr(ufunc, method)(*operands, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted_isfinite)
        monkeypatch.setattr(alas, "_EXP_MAX", Limit(alas._EXP_MAX))

    def _saw(self, x):
        x = np.asarray(x)
        self.seen.append((x.size, any(np.may_share_memory(x, i) for i in self.inputs)))

    def sizes(self):
        assert not any(is_input for _, is_input in self.seen), self.seen
        return sorted(size for size, _ in self.seen)


N = 1600


def test_success_paths_scan_no_full_size_input(params, monkeypatch):
    # the benchmark's noise cannot resolve one (frames, bins) scan, about
    # 1.5% of an utterance's analysis; these counts repeat exactly
    rng = np.random.default_rng(8)
    las, other = rng.standard_normal((2, N, BINS))
    model = RefinerModel(gain=np.full(BINS, 0.5), bias=np.ones(BINS))
    mcep = 0.1 * rng.standard_normal((N, 41))
    track = _track(np.where(np.arange(N) % 3, 150.0, 0.0), mcep)
    recover_alas(track, params)  # the cached maps are built outside the count
    mcep_analysis(las, params)

    scans = _Scans(monkeypatch, [las, other])
    apply_refiner(model, las)
    assert scans.sizes() == [N * BINS]  # the result

    scans = _Scans(monkeypatch, [las, other])
    las_rmse_db(las, other)
    assert scans.sizes() == [1]  # the RMSE

    scans = _Scans(monkeypatch, [las, other])
    fit_refiner([(las, other), (other, las)])
    # the variances, covariances, gains and biases, then RefinerModel's gains and biases
    assert scans.sizes() == [BINS] * 6

    scans = _Scans(monkeypatch, [las])
    mcep_analysis(las, params)
    assert scans.sizes() == [N * 41]  # the coefficients

    scans = _Scans(monkeypatch, [track.f0, track.mcep])
    recover_alas(track, params)
    # the log filter's maximum, and the convolved spectra; excitation_spectrum's f0
    # check is the one input scan, of N values
    assert sorted(size for size, _ in scans.seen) == [1, N, N * BINS]
    assert [size for size, is_input in scans.seen if is_input] == [N]
