"""Tests for the per-bin affine refinement stage."""

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

    @pytest.mark.parametrize("radius", [-1, 2**32])  # outside the .alrf header's u32
    def test_context_radius_out_of_range(self, radius):
        alas = _random_pair(32, bins=8)
        with pytest.raises(ValueError, match="context_radius must be in"):
            fit_refiner([(alas, alas)], context_radius=radius)
        with pytest.raises(ValueError, match="context_radius must be in"):
            RefinerModel(gain=np.ones(8), bias=np.zeros(8), context_radius=radius)

    @pytest.mark.parametrize("radius", [1.5, 2.0, "2"])
    def test_context_radius_must_be_an_integer(self, radius):
        # a fractional radius cannot index the frames that the smoothing averages
        alas = _random_pair(33, bins=8)
        with pytest.raises(ValueError, match="context_radius must be an integer"):
            fit_refiner([(alas, alas)], context_radius=radius)
        with pytest.raises(ValueError, match="context_radius must be an integer"):
            RefinerModel(gain=np.ones(8), bias=np.zeros(8), context_radius=radius)

    def test_numpy_integer_radius_stored_as_int(self):
        model = RefinerModel(gain=np.ones(8), bias=np.zeros(8), context_radius=np.uint32(2))
        assert type(model.context_radius) is int and model.context_radius == 2

    def test_model_needs_at_least_one_bin(self):
        with pytest.raises(ValueError, match="non-empty 1-D arrays"):
            RefinerModel(gain=np.ones(0), bias=np.zeros(0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            fit_refiner([(np.zeros((4, 8)), np.zeros((5, 8)))])

    def test_bin_count_mismatch_between_pairs(self):
        a, b = _random_pair(30, bins=8), _random_pair(31, bins=9)
        with pytest.raises(ValueError, match="bin count mismatch"):
            fit_refiner([(a, a), (b, b)])

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

    def test_context_radius_fits_smoothed_input(self):
        rng = np.random.default_rng(33)
        recovered = rng.standard_normal((40, 5))
        natural = 0.8 * recovered + rng.standard_normal((40, 5))
        model = fit_refiner([(recovered, natural)], context_radius=2)
        smoothed = np.array([recovered[max(i - 2, 0) : i + 3].mean(axis=0) for i in range(40)])
        for k in range(5):
            gain, bias = np.polyfit(smoothed[:, k], natural[:, k], 1)
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

    def test_bin_count_mismatch(self):
        model = RefinerModel(gain=np.ones(8), bias=np.zeros(8))
        with pytest.raises(ValueError):
            apply_refiner(model, np.zeros((4, 9)))

    @pytest.mark.parametrize("radius", [0, 1])
    def test_float64_overflow_rejected_without_warning(self, radius):
        model = RefinerModel(gain=np.full(4, 1e308), bias=np.full(4, 1e308),
                             context_radius=radius)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float64 range"):
                apply_refiner(model, np.full((3, 4), 1.5))

    def test_context_smoothing_averages_frames(self):
        model = RefinerModel(gain=np.ones(4), bias=np.zeros(4), context_radius=1)
        data = np.arange(12.0).reshape(3, 4)
        out = apply_refiner(model, data)
        np.testing.assert_allclose(out[1], data.mean(axis=0))
        np.testing.assert_allclose(out[0], data[:2].mean(axis=0))


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
        model = RefinerModel(
            gain=rng.standard_normal(257), bias=rng.standard_normal(257), context_radius=2
        )
        path = tmp_path / "model.alrf"
        save_refiner(model, path)
        loaded = load_refiner(path)
        assert np.array_equal(loaded.gain, model.gain)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.context_radius == 2

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.alrf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
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
