"""Tests for the per-bin affine refinement stage."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import rawfiles
from alaskit import RefinerModel, apply_refiner, fit_refiner, load_refiner, save_refiner


def _random_pair(seed, frames=60, bins=257):
    rng = np.random.default_rng(seed)
    alas = rng.standard_normal((frames, bins))
    return alas


class TestFitRefiner:
    def test_identity_data(self):
        alas = _random_pair(20)
        model = fit_refiner([(alas, alas.copy())])
        np.testing.assert_allclose(model.gain, 1.0, atol=1e-9)
        np.testing.assert_allclose(model.bias, 0.0, atol=1e-9)

    def test_exact_affine_data(self):
        alas = _random_pair(21)
        model = fit_refiner([(alas, 2.0 * alas + 3.0)])
        np.testing.assert_allclose(model.gain, 2.0, atol=1e-9)
        np.testing.assert_allclose(model.bias, 3.0, atol=1e-9)

    def test_degenerate_bin_uses_mean_residual(self):
        alas = _random_pair(22, bins=8)
        alas[:, 3] = 1.5  # constant bin
        las = alas + 0.25
        model = fit_refiner([(alas, las)])
        assert model.gain[3] == 1.0
        assert model.bias[3] == pytest.approx(0.25)

    def test_no_pairs(self):
        with pytest.raises(ValueError, match="no training pairs"):
            fit_refiner([])

    @pytest.mark.parametrize("x, y", [
        (np.array([[1e308] * 3, [-1e308] * 3]), np.array([[1e308] * 3, [-1e308] * 3])),
        (np.array([[1.0] * 3, [-1.0] * 3]), np.array([[1e308] * 3, [-1e308] * 3])),
        (np.full((3, 3), 1e308), np.full((3, 3), 1e308)),
    ], ids=["centred-moments", "cross-moment", "sums"])
    def test_float64_overflow_rejected_without_warning(self, x, y):
        # finite pairs whose centred moments (x * x, x * y) or sums leave the
        # float64 range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="statistics overflow the float64 range"):
                fit_refiner([(x, y)])

    def test_lists_are_coerced_to_float64(self):
        model = RefinerModel(gain=[1, 2], bias=[0.0, -1.0])
        assert model.gain.dtype == model.bias.dtype == np.float64
        assert model.num_bins == 2
        np.testing.assert_array_equal(apply_refiner(model, np.ones((3, 2))), [[1.0, 1.0]] * 3)

    @pytest.mark.parametrize("name", ["gain", "bias"])
    def test_arrays_are_read_only_views(self, name):
        given = dict(gain=np.ones(8), bias=np.zeros(8))
        model = RefinerModel(**given)
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[3] = -1.0
        # the view is of the model's own copy, not of the caller's array
        assert getattr(model, name).flags.owndata
        assert not np.shares_memory(getattr(model, name), given[name])
        given[name][3] = 5.0  # the caller's own array stays writeable
        assert getattr(model, name)[3] == {"gain": 1.0, "bias": 0.0}[name]

    def test_a_write_to_the_given_arrays_leaves_the_model_savable(self, tmp_path):
        # before: the model shared the caller's arrays, and a NaN written into
        # them after the check gave an .alrf that load_refiner refuses
        gain, bias = np.linspace(0.5, 1.5, 8), np.linspace(-1.0, 1.0, 8)
        model = RefinerModel(gain=gain, bias=bias)
        gain[3] = bias[5] = np.nan
        save_refiner(model, tmp_path / "m.alrf")
        loaded = load_refiner(tmp_path / "m.alrf")
        np.testing.assert_array_equal(loaded.gain, np.linspace(0.5, 1.5, 8))
        np.testing.assert_array_equal(loaded.bias, np.linspace(-1.0, 1.0, 8))

    def test_model_needs_at_least_one_bin(self):
        with pytest.raises(ValueError, match="non-empty 1-D arrays"):
            RefinerModel(gain=np.ones(0), bias=np.zeros(0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            fit_refiner([(np.zeros((4, 8)), np.zeros((5, 8)))])

    def test_bin_count_mismatch_between_pairs(self):
        a, b = _random_pair(30, bins=8), _random_pair(31, bins=9)
        message = "LAS must be (frames >= 1, 8), got shape (60, 9)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_refiner([(a, a), (b, b)])

    def test_memory_peak(self):
        # at 1600 frames x 257 bins one (frames, bins) array takes 3.3 MB: the
        # peak is the second pass's centred recovered values and centred
        # natural values, 6.6 MB; the statistics and their checks are (bins,)
        # arrays. One more (frames, bins) temporary adds 3.3 MB.
        rng = np.random.default_rng(28)
        recovered, natural = rng.standard_normal((2, 1600, 257))
        tracemalloc.start()
        try:
            fit_refiner([(recovered, natural)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.2e6

    def test_streamed_fit_matches_stacked_least_squares(self):
        rng = np.random.default_rng(32)
        pairs = [(rng.standard_normal((n, 6)), rng.standard_normal((n, 6))) for n in (7, 30, 1)]
        x = np.vstack([r for r, _ in pairs])
        y = np.vstack([n for _, n in pairs])
        model = fit_refiner(pairs)
        for k in range(6):
            gain, bias = np.polyfit(x[:, k], y[:, k], 1)
            assert model.gain[k] == pytest.approx(gain, abs=1e-12)
            assert model.bias[k] == pytest.approx(bias, abs=1e-12)


class TestApplyRefiner:
    def test_identity_model(self):
        alas = _random_pair(23)
        model = RefinerModel(gain=np.ones(257), bias=np.zeros(257))
        np.testing.assert_array_equal(apply_refiner(model, alas), alas)

    def test_fit_then_apply_reproduces_affine_target(self):
        alas = _random_pair(24)
        las = -0.5 * alas + 1.25
        model = fit_refiner([(alas, las)])
        np.testing.assert_allclose(apply_refiner(model, alas), las, atol=1e-6)

    def test_heldout_improvement(self):
        rng = np.random.default_rng(25)
        pairs = []
        for _ in range(6):
            alas = rng.standard_normal((50, 64))
            las = 0.9 * alas - 2.0 + 0.05 * rng.standard_normal((50, 64))
            pairs.append((alas, las))
        model = fit_refiner(pairs[:5])
        alas, las = pairs[5]
        refined = apply_refiner(model, alas)
        assert np.mean((refined - las) ** 2) < np.mean((alas - las) ** 2)

    def test_equals_alas_times_gain_plus_bias_to_the_bit(self):
        rng = np.random.default_rng(26)
        model = RefinerModel(gain=rng.uniform(0.5, 1.5, 257), bias=rng.standard_normal(257))
        alas = _random_pair(27)
        refined = apply_refiner(model, alas)
        assert (refined == alas * model.gain + model.bias).all()
        assert refined.flags.owndata

    def test_bin_count_mismatch(self):
        model = RefinerModel(gain=np.ones(8), bias=np.zeros(8))
        with pytest.raises(ValueError):
            apply_refiner(model, np.zeros((4, 9)))

    def test_float64_overflow_rejected_without_warning(self):
        model = RefinerModel(gain=np.full(4, 1e308), bias=np.full(4, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float64 range"):
                apply_refiner(model, np.full((3, 4), 1.5))


    def test_memory_peak(self):
        # at 1600 frames x 257 bins the result takes 3.3 MB and its finiteness
        # mask 0.4 MB; a (frames, bins) float64 temporary adds 3.3 MB
        model = RefinerModel(gain=np.full(257, 0.5), bias=np.ones(257))
        alas = np.random.default_rng(29).standard_normal((1600, 257))
        tracemalloc.start()
        try:
            apply_refiner(model, alas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.2e6


class TestRefinerProperties:
    def test_affine_at_zero_radius(self):
        rng = np.random.default_rng(26)
        model = RefinerModel(gain=rng.standard_normal(32), bias=rng.standard_normal(32))
        x = rng.standard_normal((20, 32))
        a = 2.5
        zero = apply_refiner(model, np.zeros_like(x))
        lhs = apply_refiner(model, a * x) - zero
        rhs = a * (apply_refiner(model, x) - zero)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_least_squares_optimality(self):
        alas = _random_pair(27, frames=80, bins=16)
        las = 1.3 * alas - 0.7 + 0.1 * np.random.default_rng(28).standard_normal(alas.shape)
        model = fit_refiner([(alas, las)])

        def mse(gain, bias):
            return np.mean((alas * gain + bias - las) ** 2, axis=0)

        base = mse(model.gain, model.bias)
        for dg, db in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
            assert np.all(mse(model.gain + dg, model.bias + db) >= base - 1e-15)

    def test_serialization_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        model = RefinerModel(gain=rng.standard_normal(257), bias=rng.standard_normal(257))
        path = tmp_path / "model.alrf"
        save_refiner(model, path)
        loaded = load_refiner(path)
        assert np.array_equal(loaded.gain, model.gain)
        assert np.array_equal(loaded.bias, model.bias)

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.alrf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            load_refiner(path)

    @pytest.mark.parametrize("radius", [1, 2**32 - 1])
    def test_load_rejects_a_context_radius(self, tmp_path, radius):
        # such a model was fitted on frame-smoothed input, and applying it
        # without the smoothing would give other spectra than it was fitted for
        path = tmp_path / "smoothed.alrf"
        rawfiles.write_refiner(path, np.ones(4), np.zeros(4), context_radius=radius)
        with pytest.raises(ValueError, match=f"context radius {radius}.*refit it with refine-fit"):
            load_refiner(path)

    @pytest.mark.parametrize("damage, message", [
        ("no bins", "both must be positive"),
        ("nan gain", "non-finite"),
        ("truncated header", "truncated header"),
        ("truncated payload", "truncated payload"),
        ("oversized payload", "inconsistent with header"),
        ("version 2", "unsupported version 2"),
    ])
    def test_load_rejects_like_every_container(self, tmp_path, damage, message):
        path = tmp_path / "damaged.alrf"
        gain, bias = np.full(4, 1.5), np.zeros(4)
        if damage == "no bins":
            gain = bias = []
        if damage == "nan gain":
            gain[2] = np.nan
        rawfiles.write_refiner(path, gain, bias, version=2 if damage == "version 2" else 1)
        data = path.read_bytes()
        cut = {"truncated header": data[:12], "truncated payload": data[:-8],
               "oversized payload": data + bytes(8)}
        path.write_bytes(cut.get(damage, data))
        with pytest.raises(ValueError, match=message):
            load_refiner(path)
