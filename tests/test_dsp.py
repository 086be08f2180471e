"""Tests for framing, windowing, LAS extraction and Griffin-Lim."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from alaskit import (
    AnalysisParams,
    RefinerModel,
    Waveform,
    apply_refiner,
    emit_spectrogram_image,
    extract_las,
    fit_refiner,
    frame_signal,
    griffin_lim,
    hann_window,
    las_rmse_db,
    magnitude_error,
    mirror_full_spectrum,
)
from alaskit.dsp import _frame_grid, _frames, _inverse_stft

# Griffin-Lim against the per-frame, angle/exp oracle: the scatter-add adds
# in the loop's order, so one iteration is bit-identical; the phasor update
# rounds differently from angle/exp, and the library takes the momentum
# step on the signal where the oracle takes it on the spectra (measured at
# most 3e-13 with momentum 0 and 5.2e-12 with momentum 0.99, at 5 to 60
# iterations on 600 corpus frames, output peaking below 1).
GL_ORACLE_ATOL = 1e-9
MOMENTA = [0.0, 0.99]


class TestFrameSignal:
    def test_exact_multiple(self, params):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(320)
        frames = frame_signal(Waveform(samples, 16000), params)
        assert frames.shape == (4, 320)
        assert np.array_equal(frames[0], samples)

    def test_zero_signal(self, params):
        frames = frame_signal(Waveform(np.zeros(500), 16000), params)
        assert not frames.any()

    def test_partial_tail_zero_padded(self, params):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(400)
        frames = frame_signal(Waveform(samples, 16000), params)
        # frame starts 0, 80, 160, 240, 320
        assert frames.shape == (5, 320)
        assert np.array_equal(frames[4][:80], samples[320:])
        assert not frames[4][80:].any()

    def test_empty_input(self, params):
        with pytest.raises(ValueError, match="empty input"):
            frame_signal(Waveform(np.zeros(0), 16000), params)

    def test_returns_writable_array(self, params):
        frames = frame_signal(Waveform(np.ones(500), 16000), params)
        frames[0, 80] = 2.0  # the sample frame 1 starts with; frames are separate copies
        assert frames[1, 0] == 1.0

    def test_frames_pad_and_truncate_to_n(self):
        ramp = np.arange(1.0, 11.0)
        assert np.array_equal(_frames(ramp, 2, 4, 3), [[1, 2, 3, 4], [4, 5, 6, 7]])
        assert np.array_equal(_frames(ramp[:5], 2, 4, 3), [[1, 2, 3, 4], [4, 5, 0, 0]])

    def test_matches_hand_padded_framing_on_corpus(self, params, vowel_corpus):
        window = hann_window(params.frame_len)
        for wave in vowel_corpus:
            for samples in (wave.samples, wave.samples[:-37]):
                expected = oracles.frame_signal_padded(samples, params)
                assert np.array_equal(frame_signal(Waveform(samples, 16000), params), expected)
                spectra = np.fft.rfft(expected * window, n=params.fft_size, axis=1)
                expected_las = np.log(np.maximum(np.abs(spectra), params.log_floor))
                assert np.array_equal(extract_las(Waveform(samples, 16000), params), expected_las)


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from([(320, 80, 512), (320, 120, 512), (256, 100, 256)]),
    size=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_synthesis_inverts_analysis(geometry, size, seed):
    """Overlap-adding the STFT of a signal gives it back on covered samples,
    also where frame_len is not a multiple of frame_shift."""
    length, shift, fft_size = geometry
    params = AnalysisParams(frame_len=length, frame_shift=shift, fft_size=fft_size)
    samples = np.random.default_rng(seed).standard_normal(size)
    window = hann_window(length)
    frames = frame_signal(Waveform(samples, params.sample_rate), params)
    n = frames.shape[0]
    spectra = np.fft.rfft(frames * window, n=fft_size, axis=1)
    out = _inverse_stft(_frame_grid(n, length, shift), window, fft_size)(spectra)
    norm = np.zeros(out.size)
    for i in range(n):
        norm[i * shift : i * shift + length] += window * window
    covered = norm > 0.01 * norm.max()
    padded = np.zeros(out.size)
    padded[:size] = samples
    np.testing.assert_allclose(out[covered], padded[covered], rtol=0, atol=1e-12)


class TestHannWindow:
    def test_length_four(self):
        assert hann_window(4) == pytest.approx([0.0, 0.5, 1.0, 0.5])

    def test_first_sample_is_zero(self):
        for length in (2, 5, 320, 513):
            assert hann_window(length)[0] == 0.0

    def test_coefficient_sum(self):
        for length in (4, 320, 512):
            assert hann_window(length).sum() == pytest.approx(length / 2, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError):
            hann_window(1)


class TestExtractLas:
    def test_bin_center_sine_peaks_at_its_bin(self, params, sine_1khz):
        k0 = round(1000.0 * params.fft_size / params.sample_rate)
        las = extract_las(sine_1khz, params)
        assert np.all(np.argmax(las, axis=1) == k0)

    def test_zero_signal_hits_floor(self, params):
        las = extract_las(Waveform(np.zeros(1000), 16000), params)
        assert np.all(las == math.log(params.log_floor))

    def test_white_noise_finite_and_floored(self, params):
        rng = np.random.default_rng(2)
        las = extract_las(Waveform(0.1 * rng.standard_normal(4000), 16000), params)
        assert np.all(np.isfinite(las))
        assert np.all(las >= math.log(params.log_floor) - 1e-12)

    def test_parseval_per_frame(self, params):
        rng = np.random.default_rng(3)
        wave = Waveform(rng.standard_normal(2000), 16000)
        frames = frame_signal(wave, params) * hann_window(params.frame_len)
        spectra = np.fft.fft(frames, n=params.fft_size, axis=1)
        time_energy = np.sum(frames**2, axis=1)
        freq_energy = np.sum(np.abs(spectra) ** 2, axis=1) / params.fft_size
        assert freq_energy == pytest.approx(time_energy, rel=1e-6)

    def test_shift_consistency(self, params):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal(1000)
        base = extract_las(Waveform(samples, 16000), params)
        shifted = extract_las(
            Waveform(np.concatenate([np.zeros(params.frame_shift), samples]), 16000), params
        )
        assert shifted.shape[0] == base.shape[0] + 1
        np.testing.assert_allclose(shifted[1:], base, atol=1e-6)

    def test_sample_rate_mismatch_rejected(self, params):
        with pytest.raises(ValueError, match="8000 Hz.*16000 Hz"):
            extract_las(Waveform(np.zeros(800), 8000), params)


class TestMirrorFullSpectrum:
    def test_small_case(self):
        assert mirror_full_spectrum([1.0, 2.0, 3.0], 4) == pytest.approx([1, 2, 3, 2])

    def test_constant(self):
        full = mirror_full_spectrum(np.full(257, 7.5), 512)
        assert np.all(full == 7.5)

    def test_retains_half(self):
        rng = np.random.default_rng(5)
        half = rng.standard_normal(257)
        assert np.array_equal(mirror_full_spectrum(half, 512)[:257], half)

    def test_even_symmetry(self):
        rng = np.random.default_rng(6)
        full = mirror_full_spectrum(rng.standard_normal(257), 512)
        for k in (1, 17, 100, 255, 256, 300, 511):
            assert full[k] == full[512 - k]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mirror_full_spectrum(np.zeros(100), 512)


class TestGriffinLim:
    def test_sine_peak_recovered(self, params, sine_1khz):
        las = extract_las(sine_1khz, params)
        out = griffin_lim(las, params, iters=30)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * params.sample_rate / len(out.samples)
        bin_hz = params.sample_rate / params.fft_size
        assert abs(peak_hz - 1000.0) <= bin_hz

    def test_floor_las_is_near_silent(self, params):
        las = np.full((10, params.num_bins), math.log(params.log_floor))
        out = griffin_lim(las, params, iters=5)
        assert np.max(np.abs(out.samples)) < 1e-3

    def test_error_non_increasing_with_iterations(self, params, sine_1khz):
        # a property of classic Griffin-Lim (momentum 0), whose projections
        # never raise the error; low level keeps every iterate below unit
        # peak, so the returned waveform is the raw alternating-projection state
        las = extract_las(sine_1khz, params) + math.log(0.05)
        errors = [
            magnitude_error(griffin_lim(las, params, iters=n, momentum=0.0), las, params)
            for n in (1, 5, 30)
        ]
        assert errors[0] >= errors[1] >= errors[2]

    def test_default_momentum_converges_faster(self, params, vowel_corpus):
        for wave in vowel_corpus:
            las = extract_las(wave, params) + math.log(0.05)  # no unit-peak rescaling
            fast = griffin_lim(las, params, iters=30)
            plain = griffin_lim(las, params, iters=30, momentum=0.0)
            assert np.max(np.abs(fast.samples)) < 1.0 and np.max(np.abs(plain.samples)) < 1.0
            assert magnitude_error(fast, las, params) < magnitude_error(plain, las, params)

    def test_bad_iteration_count(self, params):
        with pytest.raises(ValueError):
            griffin_lim(np.zeros((3, params.num_bins)), params, iters=0)

    @pytest.mark.parametrize("momentum", [math.nan, -0.1, 1.5])
    def test_bad_momentum(self, params, momentum):
        with pytest.raises(ValueError, match="momentum"):
            griffin_lim(np.zeros((3, params.num_bins)), params, iters=5, momentum=momentum)

    @pytest.mark.parametrize("bad", ["nan", "overflow", "empty", "bins", "1-d"])
    def test_bad_las_rejected_up_front(self, params, bad):
        las = _bad_las(params, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="LAS"):
                griffin_lim(las, params, iters=60)

    def test_one_iteration_bit_identical_to_oracle(self, params, vowel_corpus):
        for wave in vowel_corpus:
            las = extract_las(wave, params)
            for momentum in MOMENTA:
                got = griffin_lim(las, params, iters=1, momentum=momentum).samples
                want = oracles.griffin_lim_loop(las, params, iters=1, momentum=momentum)
                assert np.array_equal(got, want.samples)

    @pytest.mark.parametrize("iters", [5, 30, 60])
    def test_within_tolerance_of_oracle(self, params, vowel_corpus, iters):
        samples = np.concatenate([wave.samples for wave in vowel_corpus[:3]])
        las = extract_las(Waveform(samples, params.sample_rate), params)
        for momentum in MOMENTA:
            got = griffin_lim(las, params, iters=iters, momentum=momentum).samples
            expected = oracles.griffin_lim_loop(las, params, iters=iters, momentum=momentum)
            assert np.max(np.abs(expected.samples)) <= 1.0
            assert np.max(np.abs(got - expected.samples)) <= GL_ORACLE_ATOL

    def test_zero_bins_match_oracle(self, params, vowel_corpus):
        # exp(-800) underflows to 0: the middle of the block synthesizes to
        # exact zeros, so its analysed bins are 0 and take phasor 1 instead
        # of dividing 0 by 0
        las = extract_las(vowel_corpus[0], params)
        las[60:100] = -800.0
        for momentum in MOMENTA:
            once = griffin_lim(las, params, iters=1, momentum=momentum).samples
            want = oracles.griffin_lim_loop(las, params, iters=1, momentum=momentum)
            assert np.array_equal(once, want.samples)
            frames = _frames(once, las.shape[0], params.frame_len, params.frame_shift)
            assert not np.abs(np.fft.rfft(frames, n=params.fft_size, axis=1)).all()
            for iters in (5, 30):
                got = griffin_lim(las, params, iters=iters, momentum=momentum).samples
                expected = oracles.griffin_lim_loop(las, params, iters=iters, momentum=momentum)
                assert np.max(np.abs(got - expected.samples)) <= GL_ORACLE_ATOL

    def test_las_not_mutated(self, params, vowel_corpus):
        las = extract_las(vowel_corpus[0], params)
        before = las.copy()
        griffin_lim(las, params, iters=5)
        assert np.array_equal(las, before)

    def test_no_state_shared_across_calls(self, params, vowel_corpus):
        a, b = (extract_las(wave, params) for wave in vowel_corpus[:2])
        c = b[:150]
        fresh = [griffin_lim(las, params, iters=5).samples for las in (a, b, c)]
        interleaved = [griffin_lim(las, params, iters=5).samples for las in (a, b, a, c, b)]
        # compared once all calls ran, so a later call writing into an
        # earlier result would show too
        for got, want in zip(interleaved, [fresh[0], fresh[1], fresh[0], fresh[2], fresh[1]]):
            assert np.array_equal(got, want)


def _bad_las(params, kind):
    las = np.zeros((6, params.num_bins))
    if kind == "nan":
        las[2, 40] = np.nan
    elif kind in ("inf", "-inf"):
        las[1, 3] = float(kind)
    elif kind == "overflow":
        las[3, 7] = np.float32(710.0)  # finite in a float32 .lask, exp overflows
    elif kind == "empty":
        las = las[:0]
    elif kind == "bins":
        las = las[:, :100]
    elif kind == "1-d":
        las = las[0]
    return las


class TestLasRule:
    """Every function that takes a LAS rejects the same inputs: not 2-D, no
    frames, or any non-finite value."""

    @staticmethod
    def _consumers(params, path):
        good = np.zeros((6, params.num_bins))
        model = RefinerModel(gain=np.ones(params.num_bins), bias=np.zeros(params.num_bins))
        return {
            "griffin_lim": lambda las: griffin_lim(las, params, iters=1),
            "magnitude_error": lambda las: magnitude_error(Waveform(np.zeros(800), 16000),
                                                           las, params),
            "apply_refiner": lambda las: apply_refiner(model, las),
            "fit_refiner": lambda las: fit_refiner([(las, las)]),
            "las_rmse_db": lambda las: las_rmse_db(las, las),
            "las_rmse_db_test": lambda las: las_rmse_db(good, las),
            "emit_spectrogram_image": lambda las: emit_spectrogram_image(las, path),
        }

    @pytest.mark.parametrize("consumer", ["griffin_lim", "magnitude_error", "apply_refiner",
                                          "fit_refiner", "las_rmse_db", "las_rmse_db_test",
                                          "emit_spectrogram_image"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "empty", "1-d"])
    def test_bad_las_rejected(self, params, tmp_path, consumer, bad):
        call = self._consumers(params, tmp_path / "x.pgm")[consumer]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                call(_bad_las(params, bad))
        assert not (tmp_path / "x.pgm").exists()


class TestMagnitudeError:
    def test_short_signal_zero_padded(self, params, sine_1khz):
        las = extract_las(sine_1khz, params)
        short = sine_1khz.samples[:5003]
        padded = np.concatenate([short, np.zeros(sine_1khz.samples.size - short.size)])
        got = magnitude_error(Waveform(short, 16000), las, params)
        assert got == magnitude_error(Waveform(padded, 16000), las, params)
        assert got > 0.0

    def test_long_signal_truncated_to_las_frames(self, params, sine_1khz):
        las = extract_las(sine_1khz, params)[:50]
        spanned = Waveform(sine_1khz.samples[: 49 * params.frame_shift + params.frame_len], 16000)
        got = magnitude_error(sine_1khz, las, params)
        assert got == magnitude_error(spanned, las, params)
        assert got < 1e-6 * np.linalg.norm(np.exp(las))

    @pytest.mark.parametrize("bad", ["nan", "overflow", "empty", "bins", "1-d"])
    def test_bad_las_rejected(self, params, sine_1khz, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="LAS"):
                magnitude_error(sine_1khz, _bad_las(params, bad), params)

    def test_sample_rate_mismatch_rejected(self, params):
        las = np.zeros((5, params.num_bins))
        with pytest.raises(ValueError, match="8000 Hz"):
            magnitude_error(Waveform(np.zeros(800), 8000), las, params)


class TestAnalysisParams:
    def test_num_bins(self, params):
        assert params.num_bins == 257

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(fft_size=300),          # not a power of two
            dict(fft_size=256),          # smaller than frame_len
            dict(frame_shift=400),       # larger than frame_len
            dict(warp_alpha=1.0),
            dict(log_floor=0.0),
            dict(sample_rate=0),
            dict(log_floor=math.nan),
            dict(log_floor=math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisParams(**kwargs)
