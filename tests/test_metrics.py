"""Tests for the objective evaluation metrics."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from alaskit import (
    EvalReport,
    Waveform,
    f0_rmse_cent,
    las_rmse_db,
    mcd_v_db,
    snr_db,
    vuv_error_pct,
)
from alaskit.features import FeatureTrack
from alaskit.metrics import DB_PER_LOG


def _track(f0, mcep=None):
    """A track whose voicing is f0 > 0, with zero mel-cepstra unless given."""
    return FeatureTrack(f0=f0, mcep=np.zeros((len(f0), 41)) if mcep is None else mcep,
                        frame_shift=80, sample_rate=16000)


def _voiced_track(n=10, mcep=None, f0=150.0):
    return _track(np.full(n, f0), mcep)


class TestSnr:
    def test_identical_signals(self):
        w = Waveform(np.sin(np.linspace(0, 20, 500)), 16000)
        assert snr_db(w, w) == math.inf

    def test_zero_test_signal(self):
        ref = Waveform(np.sin(np.linspace(0, 20, 500)), 16000)
        assert snr_db(ref, Waveform(np.zeros(500), 16000)) == pytest.approx(0.0, abs=1e-12)

    def test_hundredth_energy_noise_is_20db(self):
        rng = np.random.default_rng(30)
        r = rng.standard_normal(1000)
        test = Waveform(r + r / 10.0, 16000)  # noise energy = signal/100
        assert snr_db(Waveform(r, 16000), test) == pytest.approx(20.0, abs=1e-9)

    def test_zero_reference(self):
        zero = Waveform(np.zeros(100), 16000)
        with pytest.raises(ValueError, match="zero reference"):
            snr_db(zero, Waveform(np.ones(100), 16000))

    def test_truncates_to_shorter(self):
        rng = np.random.default_rng(31)
        r = rng.standard_normal(400)
        assert snr_db(Waveform(r, 16000), Waveform(np.concatenate([r, r]), 16000)) == math.inf

    def test_in_range_value_is_the_energy_ratio(self):
        rng = np.random.default_rng(36)
        r, t = rng.standard_normal(300), rng.standard_normal(300)
        expected = 10.0 * math.log10(float(r @ r) / float((r - t) @ (r - t)))
        assert snr_db(Waveform(r, 16000), Waveform(t, 16000)) == expected

    @pytest.mark.parametrize("ref, test", [(1e200, -1e200), (0.5, 1e200), (1e200, 0.5)])
    def test_overflowing_energies_rejected(self, ref, test):
        with pytest.raises(ValueError, match="energies overflow"):
            snr_db(Waveform(np.full(8, ref), 16000), Waveform(np.full(8, test), 16000))

    @pytest.mark.parametrize("ref, test, expected", [
        ([1e-160], [1e150], -6200.0),     # the energy ratio underflows to 0
        ([1e150, 0.0], [1e150, 1e-160], 6200.0),  # and here overflows to inf
    ])
    def test_energy_ratio_outside_float64_range(self, ref, test, expected):
        got = snr_db(Waveform(np.array(ref), 16000), Waveform(np.array(test), 16000))
        assert got == pytest.approx(expected, rel=1e-6)


class TestLasRmse:
    def test_identical(self):
        las = np.random.default_rng(32).standard_normal((20, 257))
        assert las_rmse_db(las, las) == 0.0

    def test_uniform_offset_is_one_db(self):
        las = np.random.default_rng(33).standard_normal((20, 257))
        offset = math.log(10.0) / 20.0
        assert las_rmse_db(las, las + offset) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(34)
        ref = rng.standard_normal((50, 257))
        test = rng.standard_normal((50, 257))
        total = 0.0
        for i in range(50):
            for k in range(257):
                d = (20.0 / math.log(10.0)) * (ref[i, k] - test[i, k])
                total += d * d
        expected = math.sqrt(total / (50 * 257))
        assert las_rmse_db(ref, test) == pytest.approx(expected, abs=1e-12)

    def test_equals_the_unfused_expression_to_the_bit(self):
        rng = np.random.default_rng(35)
        ref = rng.standard_normal((50, 257))
        test = rng.standard_normal((50, 257))
        diff = DB_PER_LOG * (ref - test)
        assert las_rmse_db(ref, test) == float(np.sqrt(np.mean(diff * diff)))

    def test_bin_mismatch(self):
        with pytest.raises(ValueError):
            las_rmse_db(np.zeros((4, 8)), np.zeros((4, 9)))

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="las_rmse_db overflows"):
            las_rmse_db(np.full((2, 3), 1e200), np.full((2, 3), -1e200))


    def test_memory_peak(self):
        # at 1600 frames x 257 bins the squared differences, computed in
        # place, take 3.3 MB; the mean and the check read them without a
        # copy. A (frames, bins) float64 temporary adds 3.3 MB.
        ref, test = np.random.default_rng(36).standard_normal((2, 1600, 257))
        tracemalloc.start()
        try:
            las_rmse_db(ref, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.8e6


class TestMcdV:
    def test_identical(self):
        mcep = np.random.default_rng(35).standard_normal((10, 41))
        assert mcd_v_db(_voiced_track(mcep=mcep), _voiced_track(mcep=mcep.copy())) == 0.0

    def test_single_coefficient_unit_difference(self):
        ref = _voiced_track()
        mcep = np.zeros((10, 41))
        mcep[:, 7] = 1.0
        expected = (10.0 / math.log(10.0)) * math.sqrt(2.0)
        assert mcd_v_db(ref, _voiced_track(mcep=mcep)) == pytest.approx(expected, abs=1e-9)

    def test_energy_coefficient_excluded(self):
        ref = _voiced_track()
        mcep = np.zeros((10, 41))
        mcep[:, 0] = 5.0  # energy column only
        assert mcd_v_db(ref, _voiced_track(mcep=mcep)) == 0.0

    def test_no_common_voiced_frames(self):
        silent = _track(np.zeros(5))
        with pytest.raises(ValueError, match="voiced"):
            mcd_v_db(silent, silent)

    def test_ignores_frames_not_voiced_in_both(self):
        base = np.zeros((4, 41))
        noisy = base.copy()
        noisy[2] = 99.0  # altered frame is unvoiced in ref
        ref = _track([100, 100, 0, 100])
        assert mcd_v_db(ref, _track([100, 100, 120, 100], noisy)) == 0.0

    def test_overflow_rejected(self):
        ref, test = _voiced_track(mcep=np.full((10, 41), 1e200)), _voiced_track(
            mcep=np.full((10, 41), -1e200))
        with pytest.raises(ValueError, match="mcd_v_db overflows"):
            mcd_v_db(ref, test)


class TestF0Rmse:
    def test_identical(self):
        t = _voiced_track(f0=200.0)
        assert f0_rmse_cent(t, t) == 0.0

    def test_octave_is_1200_cents(self):
        ref = _voiced_track(f0=150.0)
        assert f0_rmse_cent(ref, _voiced_track(f0=300.0)) == pytest.approx(1200.0, abs=1e-9)

    def test_semitone_is_100_cents(self):
        ref = _voiced_track(f0=220.0)
        test = _voiced_track(f0=220.0 * 2 ** (1 / 12))
        assert f0_rmse_cent(ref, test) == pytest.approx(100.0, abs=1e-9)

    def test_symmetric(self):
        a = _voiced_track(f0=180.0)
        b = _voiced_track(f0=200.0)
        assert f0_rmse_cent(a, b) == pytest.approx(f0_rmse_cent(b, a), abs=1e-12)

    @pytest.mark.parametrize("ref, test", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_overflow_rejected(self, ref, test):
        with pytest.raises(ValueError, match="f0_rmse_cent overflows"):
            f0_rmse_cent(_voiced_track(f0=ref), _voiced_track(f0=test))


@pytest.mark.parametrize("metric", [mcd_v_db, f0_rmse_cent])
@pytest.mark.parametrize("ref_f0, test_f0", [
    ([150, 0, 150, 0], [0, 150, 0, 150]),
    ([150, 150, 150, 150], [0, 0, 0, 0]),
    ([0, 0, 0, 0], [0, 0, 0, 0]),
], ids=["alternating", "test-unvoiced", "both-unvoiced"])
def test_no_commonly_voiced_frame_rejected(metric, ref_f0, test_f0):
    with pytest.raises(ValueError, match="^no commonly voiced frames$"):
        metric(_track(np.array(ref_f0, dtype=float)), _track(np.array(test_f0, dtype=float)))


class TestVuvError:
    def test_identical_flags(self):
        t = _track([100, 0, 100])
        assert vuv_error_pct(t, t) == 0.0

    def test_all_flipped(self):
        a = _track([100, 0, 100])
        b = _track([0, 100, 0])
        assert vuv_error_pct(a, b) == 100.0

    def test_fractional_count(self):
        flags_b = np.zeros(120, dtype=bool)
        flags_b[[5, 50, 100]] = True
        a = _track(np.zeros(120))
        b = _track(np.where(flags_b, 100.0, 0.0))
        assert vuv_error_pct(a, b) == pytest.approx(2.5)


class TestFrameMismatchHandling:
    def test_truncates_and_warns(self):
        a = _voiced_track(n=10)
        b = _voiced_track(n=11)
        with pytest.warns(UserWarning, match="frame count mismatch"):
            assert mcd_v_db(a, b) == 0.0
        with pytest.warns(UserWarning):
            las_rmse_db(np.zeros((10, 8)), np.zeros((12, 8)))

    def test_warning_points_at_the_caller(self):
        a, b = _voiced_track(n=10), _voiced_track(n=11)
        for metric in (mcd_v_db, f0_rmse_cent, vuv_error_pct):
            with pytest.warns(UserWarning, match="frame count mismatch") as record:
                metric(a, b)
            assert [w.filename for w in record] == [__file__]


class TestGeometryMismatch:
    @pytest.mark.parametrize("metric", [mcd_v_db, f0_rmse_cent, vuv_error_pct])
    def test_tracks_of_different_geometry_rejected(self, metric):
        ref = _voiced_track()
        test = dataclasses.replace(ref, frame_shift=160, sample_rate=8000)
        with pytest.raises(ValueError, match="^frame shift mismatch: 80 from ref, 160 from test$"):
            metric(ref, test)
        with pytest.raises(ValueError, match="^frame shift mismatch: 160 from ref, 80 from test$"):
            metric(test, ref)
        with pytest.raises(ValueError,
                           match="^sample rate mismatch: 16000 from ref, 8000 from test$"):
            metric(ref, dataclasses.replace(ref, sample_rate=8000))


class TestEvalReport:
    def test_lines_format(self):
        report = EvalReport(frames_compared=42, snr_db=math.inf, las_rmse_db=1.25)
        lines = report.lines()
        assert "snr_db\tinf" in lines
        assert "las_rmse_db\t1.250000" in lines
        assert lines[-1] == "frames_compared\t42"
        assert not any(line.startswith("mcd") for line in lines)

    def test_key_value_block(self):
        report = EvalReport(frames_compared=3, vuv_error_pct=2.5)
        assert "vuv_error_pct = 2.500000" in report.block().splitlines()

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            EvalReport(frames_compared=0)
        with pytest.raises(ValueError):
            EvalReport(frames_compared=5, vuv_error_pct=101.0)
        with pytest.raises(ValueError):
            EvalReport(frames_compared=5, las_rmse_db=math.inf)

    @pytest.mark.parametrize("value", [1.5, 3.0, True])
    def test_frames_compared_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="frames_compared must be an integer"):
            EvalReport(frames_compared=value)
        report = EvalReport(frames_compared=np.int64(3))
        assert type(report.frames_compared) is int
        assert report.lines() == ["frames_compared\t3"]

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_snr_only_takes_positive_infinity(self, value):
        with pytest.raises(ValueError, match="snr_db must be finite or math.inf"):
            EvalReport(frames_compared=1, snr_db=value)
