"""Tests for the spectrum recovery chain: excitation, warp, filter, window,
and full-frame reconstruction, with the batched maps checked against the
per-frame oracles in ``oracles.py``."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from alaskit import (
    AnalysisParams,
    FeatureTrack,
    excitation_spectrum,
    extract_features,
    extract_las,
    filter_spectrum,
    mcep_analysis,
    mirror_full_spectrum,
    recover_alas,
    warp_cepstrum,
    window_spectrum,
)
from alaskit.alas import _log_filter_map
from alaskit.dsp import _warp_matrix

# Batched recover_alas against the per-frame oracle: the maps reorder the
# float64 sums, which moves linear magnitudes by a few ulps of the frame
# peak; bins far below the peak then differ more in log units.
LOG_TOL = 1e-6
LINEAR_TOL = 1e-12  # relative to the frame's peak magnitude


class TestExcitationSpectrum:
    def test_200hz_comb(self, params):
        e = excitation_spectrum(200.0, params)
        expected = np.zeros(257)
        expected[6::6] = 1.0  # K0 = round(200/16000*512) = 6
        assert np.array_equal(e, expected)
        assert int(e.sum()) == 42

    def test_unvoiced_is_all_ones(self, params):
        assert np.all(excitation_spectrum(0.0, params) == 1.0)

    def test_nyquist_f0_single_pulse(self, params):
        e = excitation_spectrum(8000.0, params)
        assert np.nonzero(e)[0].tolist() == [256]

    def test_negative_f0(self, params):
        with pytest.raises(ValueError):
            excitation_spectrum(-1.0, params)

    def test_non_finite_f0(self, params):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                excitation_spectrum(np.array([200.0, bad]), params)

    def test_batch_equals_per_value(self, params):
        f0 = np.array([[0.0, 50.0, 200.0], [8000.0, 333.3, 499.9]])
        batch = excitation_spectrum(f0, params)
        assert batch.shape == (2, 3, params.num_bins)
        for idx in np.ndindex(f0.shape):
            assert np.array_equal(batch[idx], excitation_spectrum(float(f0[idx]), params))

    def test_comb_structure_random_f0(self, params):
        rng = np.random.default_rng(12)
        for f0 in rng.uniform(50.0, 500.0, size=100):
            e = excitation_spectrum(float(f0), params)
            k0 = max(1, math.floor(f0 / params.sample_rate * params.fft_size + 0.5))
            pulses = np.nonzero(e)[0]
            assert len(pulses) == 256 // k0
            assert np.all(np.diff(pulses) == k0)
            assert pulses[0] == k0
            assert np.all(e[pulses] == 1.0)
            assert e.sum() == len(pulses)


# F0 values for the comb: unvoiced, tiny (K0 clamps to 1), speech, the
# rounding edges (k - 1/2) * 16000/512 of the default geometry, spacings
# at or past the last bin, and huge values up to the float64 range
F0_VALUES = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 1.0),
    st.floats(50.0, 500.0),
    st.integers(1, 600).map(lambda k: (k - 0.5) * 16000 / 512),
    st.floats(7900.0, 1e6),
    st.just(1e300),
    st.floats(1e6, 1.7e308),
)
COMB_GEOMETRIES = [AnalysisParams(), AnalysisParams(frame_len=640, fft_size=1024),
                   AnalysisParams(sample_rate=8000, frame_len=160, frame_shift=40, fft_size=256)]


@settings(max_examples=200, deadline=None)
@given(params=st.sampled_from(COMB_GEOMETRIES),
       f0=F0_VALUES | arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=5),
                             elements=F0_VALUES))
def test_excitation_table_matches_modulo_comb(params, f0):
    got = excitation_spectrum(f0, params)
    want = oracles.excitation_spectrum_modulo(f0, params)
    assert got.shape == np.shape(f0) + (params.num_bins,) and got.dtype == np.float64
    assert np.array_equal(got, want)


def test_excitation_result_is_a_fresh_array(params):
    for f0 in (0.0, 200.0, np.array([0.0, 200.0, 1e9])):
        excitation_spectrum(f0, params)[...] = 7.0
    assert np.array_equal(excitation_spectrum(200.0, params),
                          oracles.excitation_spectrum_modulo(200.0, params))
    assert np.all(excitation_spectrum(0.0, params) == 1.0)


# Properties of the batched linear maps, against the per-frame oracles.
# Errors are relative to the larger of 1 and the inputs' scale: log(exp(v))
# rounds by an absolute ulp of 1 near v = 0. Measured at most 3e-15 for
# linearity, 8e-16 against the oracles and 1.1e-15 for the inverse pair.
MAP_TOL = 1e-13
MAP_ALPHAS = [0.0, 0.42, 0.55, 0.7]
# the longest cepstra whose warped image fits in K = 257 coefficients:
# beyond 20 at alpha 0.7 the truncated tail shows (4e-5 at 41)
FITTING_LENGTH = {0.0: 41, 0.42: 41, 0.55: 41, 0.7: 20}


def _scaled_error(got, want, *scales):
    return np.max(np.abs(got - want)) / max(1.0, *scales)


@settings(max_examples=60, deadline=None)
@given(alpha=st.sampled_from(MAP_ALPHAS), scale=st.sampled_from([1e-6, 1.0, 50.0]),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_mcep_analysis_is_linear(alpha, scale, a, b, seed):
    params = AnalysisParams(warp_alpha=alpha)
    x, y = np.random.default_rng(seed).standard_normal((2, params.num_bins)) * scale
    frames = np.stack([x, y, a * x + b * y])
    rows = mcep_analysis(frames, params)
    for row, frame in zip(rows, frames):
        oracle = oracles.mcep_frame(frame, params)
        assert _scaled_error(row, oracle, np.max(np.abs(frame))) <= MAP_TOL
    combined = a * rows[0] + b * rows[1]
    assert _scaled_error(rows[2], combined, np.max(np.abs(frames[2]))) <= MAP_TOL


@settings(max_examples=60, deadline=None)
@given(alpha=st.sampled_from(MAP_ALPHAS), scale=st.sampled_from([1e-6, 1.0, 3.0]),
       length=st.integers(1, 41), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_log_filter_map_is_linear(alpha, scale, length, a, b, seed):
    params = AnalysisParams(warp_alpha=alpha)
    c1, c2 = np.random.default_rng(seed).standard_normal((2, length)) * scale
    coeffs = np.stack([c1, c2, a * c1 + b * c2])
    logs = np.log(filter_spectrum(coeffs, params))
    for log, c in zip(logs, coeffs):
        oracle = oracles.log_filter_frame(c, params)
        assert _scaled_error(log, oracle, np.max(np.abs(oracle))) <= MAP_TOL
    combined = a * logs[0] + b * logs[1]
    assert _scaled_error(logs[2], combined, np.max(np.abs(combined))) <= MAP_TOL


@settings(max_examples=60, deadline=None)
@given(alpha=st.sampled_from(MAP_ALPHAS), scale=st.sampled_from([1e-6, 1.0, 3.0]),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_analysis_inverts_synthesis_on_fitting_cepstra(alpha, scale, data, seed):
    params = AnalysisParams(warp_alpha=alpha)
    length = data.draw(st.integers(1, FITTING_LENGTH[alpha]))
    coeffs = np.zeros(41)
    coeffs[:length] = np.random.default_rng(seed).standard_normal(length) * scale
    log = np.log(filter_spectrum(coeffs, params))
    back = mcep_analysis(log, params)
    assert _scaled_error(back, coeffs, np.max(np.abs(log))) <= MAP_TOL
    per_frame = oracles.mcep_frame(oracles.log_filter_frame(coeffs, params), params)
    assert _scaled_error(per_frame, coeffs, np.max(np.abs(log))) <= MAP_TOL


@pytest.mark.parametrize("alpha", [0.0, 0.42, 0.55])
def test_log_filter_map_is_warp_of_unit_vectors(alpha):
    params = AnalysisParams(warp_alpha=alpha)
    cep = warp_cepstrum(np.eye(params.num_bins), alpha)
    want = np.fft.rfft(mirror_full_spectrum(cep, params.fft_size)).real
    assert np.array_equal(_log_filter_map(params), want)


class TestWarpCepstrum:
    def test_hand_traced_recursion(self):
        out = warp_cepstrum(np.array([0.0, 1.0, 0.0]), 0.42)
        np.testing.assert_allclose(out, [-0.42, 0.8236, 0.345912], atol=1e-12)

    def test_zero_alpha_identity(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal(257)
        np.testing.assert_array_equal(warp_cepstrum(m, 0.0), m)

    def test_leading_impulse_is_invariant(self):
        out = warp_cepstrum(np.array([1.0, 0.0, 0.0]), 0.7)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal((2, 257))
        a, b = 1.7, -0.3
        lhs = warp_cepstrum(a * x + b * y, 0.42)
        rhs = a * warp_cepstrum(x, 0.42) + b * warp_cepstrum(y, 0.42)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_involution_on_padded_vectors(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            vec = np.zeros(257)
            vec[:41] = rng.standard_normal(41)
            back = warp_cepstrum(warp_cepstrum(vec, 0.42), -0.42)
            assert np.max(np.abs(back - vec)) < 1e-6

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            warp_cepstrum(np.zeros(8), 1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            warp_cepstrum(np.ones(8), alpha)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("alpha", [0.42, 0.0])
    def test_non_finite_vectors_rejected(self, bad, alpha):
        # before: NaN out, with a matmul warning at alpha 0.42
        with pytest.raises(ValueError, match="cepstral vectors must be finite"):
            warp_cepstrum([bad, 1.0], alpha)
        with pytest.raises(ValueError, match="cepstral vectors must be finite"):
            warp_cepstrum(np.array([[0.0, 1.0], [1.0, bad]]), alpha)

    def test_overflowing_warp_rejected(self):
        # before: inf out, with a matmul overflow warning
        large = np.full(257, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(warp_cepstrum(large, 0.42), large @ _warp_matrix(257, 0.42).T)
            with pytest.raises(ValueError, match="cepstral vectors too large"):
                warp_cepstrum(np.full(257, 1.7e308), 0.42)

    @pytest.mark.parametrize("alpha", [0.42, -0.42, 0.7])
    @pytest.mark.parametrize("nonzero", [41, 257])
    def test_matches_scalar_recursion(self, alpha, nonzero):
        # measured: 1e-15 (padded) to 4e-14 (full length)
        rng = np.random.default_rng(19)
        vec = np.zeros(257)
        vec[:nonzero] = rng.standard_normal(nonzero)
        np.testing.assert_allclose(
            warp_cepstrum(vec, alpha), oracles.warp_recursion(vec, alpha), rtol=0, atol=1e-12
        )

    def test_batch_equals_per_vector(self):
        rng = np.random.default_rng(20)
        batch = rng.standard_normal((3, 2, 57))
        out = warp_cepstrum(batch, 0.42)
        for idx in np.ndindex(batch.shape[:-1]):
            np.testing.assert_allclose(out[idx], warp_cepstrum(batch[idx], 0.42),
                                       rtol=0, atol=1e-14)


class TestFilterSpectrum:
    def test_zero_coefficients_give_unit_spectrum(self, params):
        np.testing.assert_allclose(filter_spectrum(np.zeros(41), params), 1.0, atol=1e-12)

    def test_energy_only_gives_constant(self, params):
        v = filter_spectrum(np.array([0.7] + [0.0] * 40), params)
        np.testing.assert_allclose(v, math.exp(0.7), rtol=1e-12)

    def test_mirrored_cepstrum_transform_is_real(self, params):
        rng = np.random.default_rng(16)
        coeffs = np.zeros(params.num_bins)
        coeffs[:41] = rng.standard_normal(41) * 0.5
        cep = warp_cepstrum(coeffs, params.warp_alpha)
        spectrum = np.fft.fft(mirror_full_spectrum(cep, params.fft_size))
        assert np.max(np.abs(spectrum.imag)) < 1e-9

    def test_strictly_positive(self, params):
        rng = np.random.default_rng(17)
        for _ in range(5):
            v = filter_spectrum(rng.standard_normal(41), params)
            assert np.all(v > 0.0)
            assert np.all(np.isfinite(v))

    @pytest.mark.parametrize("value", [1e30, 710.0])
    def test_overflowing_exp_rejected(self, params, value):
        coeffs = np.zeros((3, 41))
        coeffs[1, 0] = value  # the energy term adds its value to every log bin
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mel-cepstra too large"):
                filter_spectrum(coeffs, params)

    def test_overflowing_log_filter_rejected(self, params):
        # before: a matmul overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mel-cepstra too large"):
                filter_spectrum(np.full(41, 1e308), params)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, params, bad):
        # before: NaN was "mel-cepstra too large", ±inf a matmul warning
        coeffs = np.zeros((3, 41))
        coeffs[1, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mel-cepstra must be finite"):
                filter_spectrum(coeffs, params)

    def test_largest_finite_exp_accepted(self, params):
        coeffs = np.zeros(41)
        coeffs[0] = 709.0
        assert np.all(np.isfinite(filter_spectrum(coeffs, params)))

    def test_too_many_coefficients(self, params):
        with pytest.raises(ValueError):
            filter_spectrum(np.zeros(params.num_bins + 1), params)

    def test_batch_equals_per_vector(self, params):
        rng = np.random.default_rng(21)
        batch = rng.standard_normal((5, 41)) * 0.8 ** np.arange(41)
        out = filter_spectrum(batch, params)
        assert out.shape == (5, params.num_bins)
        for row, coeffs in zip(out, batch):
            np.testing.assert_allclose(row, filter_spectrum(coeffs, params), rtol=1e-13)


class TestWindowSpectrum:
    def test_peak_is_window_sum_at_center(self, params):
        w = window_spectrum(params)
        center = params.fft_size // 2
        assert np.argmax(w) == center
        assert w[center] == pytest.approx(params.frame_len / 2, abs=1e-9)

    def test_even_symmetry_about_center(self, params):
        w = window_spectrum(params)
        center = params.fft_size // 2
        for off in range(1, 200):
            assert w[center + off] == pytest.approx(w[center - off], abs=1e-9)

    def test_main_lobe_nulls_at_double_padding(self):
        p = AnalysisParams(frame_len=256, fft_size=512)
        w = window_spectrum(p)
        center, peak = 256, 128.0
        for off in range(4, 200, 2):
            assert abs(w[center + off]) <= 1e-6 * peak


def _one_frame(f0, energy=0.0, mcep=None):
    """One-frame feature track; a flat filter of the given energy unless
    mcep (energy first) is given."""
    if mcep is None:
        mcep = energy * np.eye(41)[0]
    return FeatureTrack(f0=np.array([f0]),
                        mcep=np.asarray(mcep, dtype=np.float64)[None],
                        frame_shift=80, sample_rate=16000)


def _assert_matches_oracle(batch, f0, vuv, mcep, params):
    """Rows of batched ALAS against the per-frame oracle, within the stated
    log and linear tolerances."""
    for row, *frame in zip(batch, f0, vuv, mcep):
        expected = oracles.recover_alas_frame(*frame, params)
        assert np.max(np.abs(row - expected)) <= LOG_TOL
        linear_err = np.max(np.abs(np.exp(row) - np.exp(expected)))
        assert linear_err <= LINEAR_TOL * np.exp(expected.max())


class TestRecoverAlasFrame:
    """recover_alas on one-frame tracks."""

    def test_unvoiced_flat_filter_is_constant(self, params):
        alas = recover_alas(_one_frame(0.0), params)[0]
        expected = math.log(window_spectrum(params).sum())
        np.testing.assert_allclose(alas, expected, rtol=1e-6)

    def test_voiced_flat_filter_peaks_at_harmonics(self, params):
        alas = recover_alas(_one_frame(200.0), params)[0]
        for i in range(2, 41):  # interior harmonics, K0 = 6
            k = 6 * i
            assert alas[k] > alas[k - 3]
            assert alas[k] > alas[k + 3]

    def test_filter_gain_shifts_log_output(self, params):
        gain = 2.5
        base = recover_alas(_one_frame(200.0, energy=0.3), params)
        scaled = recover_alas(_one_frame(200.0, energy=0.3 + math.log(gain)), params)
        np.testing.assert_allclose(scaled - base, math.log(gain), atol=1e-9)

    def test_output_floored_and_finite(self, params, vowel_corpus):
        track = extract_features(vowel_corpus[2], params)
        alas = recover_alas(_one_frame(track.f0[50], mcep=track.mcep[50]), params)
        assert np.all(np.isfinite(alas))
        assert np.all(alas >= math.log(params.log_floor) - 1e-12)

    def test_comb_above_nyquist_floors_every_bin(self, params):
        # K0 = 640 > K - 1: the comb has no pulse, so nothing survives
        alas = recover_alas(_one_frame(20000.0), params)
        np.testing.assert_array_equal(alas, math.log(params.log_floor))

    def test_matches_per_frame_oracle(self, params):
        rng = np.random.default_rng(22)
        for f0 in (0.0, 140.0, 455.5):
            mcep = rng.standard_normal(41) * 0.7 ** np.arange(41)
            track = _one_frame(f0, mcep=mcep)
            _assert_matches_oracle(recover_alas(track, params), track.f0, track.vuv,
                                   track.mcep, params)


class TestRecoverAlas:
    def test_single_frame_track(self, params, vowel_corpus):
        track = extract_features(vowel_corpus[0], params)
        single = type(track)(
            f0=track.f0[5:6], mcep=track.mcep[5:6],
            frame_shift=track.frame_shift, sample_rate=track.sample_rate,
        )
        out = recover_alas(single, params)
        assert out.shape == (1, params.num_bins)
        np.testing.assert_allclose(out[0], recover_alas(track, params)[5], rtol=0, atol=LOG_TOL)
        _assert_matches_oracle(out, single.f0, single.vuv, single.mcep, params)

    def test_batch_matches_per_frame_oracle(self, params, vowel_corpus):
        # measured: 1.4e-7 in log units, 4.6e-15 of the frame peak
        for wave in vowel_corpus:
            track = extract_features(wave, params)
            _assert_matches_oracle(recover_alas(track, params), track.f0, track.vuv,
                                   track.mcep, params)

    def test_rejects_mismatched_geometry(self, params):
        track = FeatureTrack(f0=np.array([0.0]), mcep=np.zeros((1, 41)),
                             frame_shift=40, sample_rate=8000)
        with pytest.raises(ValueError, match="geometry"):
            recover_alas(track, params)

    def test_huge_mcep_rejected_without_warning(self, params):
        mcep = np.zeros((4, 41))
        mcep[2, 5] = 1e30
        track = FeatureTrack(f0=np.zeros(4), mcep=mcep,
                             frame_shift=80, sample_rate=16000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exp overflows"):
                recover_alas(track, params)

    def test_convolution_overflow_rejected_without_warning(self, params):
        # exp(709) is finite, but an unvoiced frame sums about fft_size of
        # such bins in the window convolution
        mcep = np.zeros((5, 41))
        mcep[:, 0] = 709.0
        track = FeatureTrack(f0=np.zeros(5), mcep=mcep,
                             frame_shift=80, sample_rate=16000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="convolution .* overflows"):
                recover_alas(track, params)

    def test_frame_order_preserved(self, params, vowel_corpus):
        track = extract_features(vowel_corpus[1], params)
        perm = np.random.default_rng(18).permutation(len(track))
        shuffled = type(track)(
            f0=track.f0[perm], mcep=track.mcep[perm],
            frame_shift=track.frame_shift, sample_rate=track.sample_rate,
        )
        # rows land in other BLAS blocks, so equal within the oracle tolerance
        np.testing.assert_allclose(recover_alas(shuffled, params),
                                   recover_alas(track, params)[perm], rtol=0, atol=LOG_TOL)

    def test_matches_natural_las_on_vowel(self, params, vowel_corpus):
        wave = vowel_corpus[0]
        las = extract_las(wave, params)
        track = extract_features(wave, params)
        alas = recover_alas(track, params)
        rs = []
        for i in np.nonzero(track.vuv)[0]:
            a = alas[i] - alas[i].mean()
            b = las[i] - las[i].mean()
            rs.append(float(a @ b / math.sqrt((a @ a) * (b @ b))))
        assert np.mean(rs) >= 0.8

    def test_deterministic(self, params, vowel_corpus):
        track = extract_features(vowel_corpus[3], params)
        first = recover_alas(track, params)
        second = recover_alas(track, params)
        assert np.array_equal(first, second)
