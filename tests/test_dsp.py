"""Tests for framing, windowing, LAS extraction and Griffin-Lim."""

import contextlib
import itertools
import math
import re
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from alaskit import (
    AnalysisParams,
    FeatureTrack,
    RefinerModel,
    Waveform,
    apply_refiner,
    emit_spectrogram_image,
    estimate_f0,
    extract_las,
    fit_refiner,
    frame_signal,
    griffin_lim,
    hann_window,
    las_rmse_db,
)
from alaskit import dsp
from alaskit.dsp import _frame_view, _hann, _overlap_add, _padded

# Griffin-Lim against the per-frame, angle/exp oracle: the overlap-add adds
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

    def test_empty_input(self):
        with pytest.raises(ValueError, match="^no samples$"):
            Waveform(np.zeros(0), 16000)

    def test_returns_writable_array(self, params):
        frames = frame_signal(Waveform(np.ones(500), 16000), params)
        frames[0, 80] = 2.0  # the sample frame 1 starts with; frames are separate copies
        assert frames[1, 0] == 1.0

    def test_padded_zero_pads_to_n_frames(self):
        ramp = np.arange(1.0, 6.0)
        span = _padded(ramp, 4, 3)
        assert np.array_equal(span, [1, 2, 3, 4, 5, 0, 0])
        assert np.array_equal(_frame_view(span, 4, 3), [[1, 2, 3, 4], [4, 5, 0, 0]])

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
    windowed = np.fft.irfft(spectra, n=fft_size, axis=1)[:, :length] * window
    out = _overlap_add(windowed, shift)
    norm = np.zeros(out.size)
    for i in range(n):
        norm[i * shift : i * shift + length] += window * window
    covered = norm > 0.01 * norm.max()
    padded = np.zeros(out.size)
    padded[:size] = samples
    np.testing.assert_allclose(out[covered] / norm[covered], padded[covered], rtol=0, atol=1e-12)


OVERLAP_GEOMETRIES = [(320, 80), (320, 96), (320, 320), (256, 100), (64, 7)]


@settings(max_examples=100, deadline=None)
@given(geometry=st.sampled_from(OVERLAP_GEOMETRIES), n=st.integers(1, 60),
       scale=st.sampled_from([1.0, 1e-300, 1e300]), zeros=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_overlap_add_matches_scatter_add(geometry, n, scale, zeros, seed):
    """The shifted-block overlap-add equals the bincount scatter-add bit for
    bit, also into a reused buffer holding stale values. A share of the
    values is -0.0: 0.0 + -0.0 is 0.0, so a sum that skipped the 0.0 start
    would differ in the sign bit."""
    length, shift = geometry
    rng = np.random.default_rng(seed)
    frames = scale * rng.standard_normal((n, length))
    frames[rng.random((n, length)) < zeros] = -0.0
    want = oracles.overlap_add_bincount(frames, shift)
    got = _overlap_add(frames, shift)
    assert got.tobytes() == want.tobytes()
    stale = np.full(want.size, np.nan)
    assert _overlap_add(frames, shift, out=stale) is stale
    assert stale.tobytes() == want.tobytes()


@pytest.mark.parametrize("geometry", OVERLAP_GEOMETRIES)
@pytest.mark.parametrize("n", [1, 127, 128, 333, 1600])
def test_overlap_add_matches_scatter_add_at_length(geometry, n):
    length, shift = geometry
    frames = np.random.default_rng(n).standard_normal((n, length))
    want = oracles.overlap_add_bincount(frames, shift)
    assert _overlap_add(frames, shift).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("length", [2.5, 320.0, True])
    def test_non_integer_length_rejected(self, length):
        with pytest.raises(ValueError, match="window length must be an integer"):
            hann_window(length)
        assert np.array_equal(hann_window(np.int64(320)), hann_window(320))

    def test_analysis_window_is_one_read_only_array_per_length(self):
        window = _hann(320)
        assert _hann(320) is window and not window.flags.writeable
        assert np.array_equal(window, hann_window(320))
        fresh = hann_window(320)
        fresh[0] = 1.0  # the public window is the caller's own array
        assert fresh.flags.writeable and window[0] == 0.0 and hann_window(320)[0] == 0.0


def _assert_same_view(got, want, span):
    assert got.shape == want.shape and got.strides == want.strides
    assert got.flags.writeable == want.flags.writeable and np.shares_memory(got, span)
    assert np.array_equal(got, want)


class TestFrameView:
    """_frame_view builds the view of sliding_window_view(span, length)[::shift]
    from the span's size and stride."""

    @pytest.mark.parametrize("writeable", [False, True])
    def test_matches_sliding_window_view_over_a_grid(self, writeable):
        for size in range(1, 41):
            span = np.arange(float(size))
            for length, shift in itertools.product(range(1, size + 1), range(1, 12)):
                want = np.lib.stride_tricks.sliding_window_view(span, length,
                                                                writeable=writeable)[::shift]
                _assert_same_view(_frame_view(span, length, shift, writeable), want, span)

    def test_a_read_only_span_gives_a_read_only_view(self):
        span = np.arange(10.0)
        span.flags.writeable = False
        for writeable in (False, True):
            assert not _frame_view(span, 4, 3, writeable).flags.writeable

    @pytest.mark.parametrize("length, shift", OVERLAP_GEOMETRIES)
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_sliding_window_view_on_overlap_add_pieces(self, length, shift, n):
        # the writeable views _overlap_add adds each piece through, and a
        # write through one lands in the signal
        out = np.zeros((n - 1) * shift + length)
        for start in range(0, length, shift):
            width = min(shift, length - start)
            want = np.lib.stride_tricks.sliding_window_view(out[start:], width,
                                                            writeable=True)[::shift]
            got = _frame_view(out[start:], width, shift, writeable=True)
            _assert_same_view(got, want, out)
            assert got.shape[0] >= n
            got[-1, -1] = start + 1.0
            assert out[start + (got.shape[0] - 1) * shift + width - 1] == start + 1.0


@settings(max_examples=80, deadline=None)
@given(geometry=st.sampled_from([(320, 80, 512), (320, 96, 512), (256, 100, 256),
                                 (320, 320, 512), (64, 7, 128)]),
       scale=st.sampled_from([1.0, 1e-12, 0.0]),
       seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_extract_las_matches_framed_form(geometry, scale, seed, data):
    """extract_las equals the rfft of frame_signal's frames times the window,
    floored and logged, bit for bit."""
    length, shift, fft_size = geometry
    size = data.draw(st.one_of(
        st.integers(1, length - 1),  # shorter than one frame
        st.integers(1, 30).map(lambda k: k * shift),  # exact multiples of the shift
        st.integers(length, 30 * shift).filter(lambda n: n % shift),  # off the grid
    ))
    params = AnalysisParams(frame_len=length, frame_shift=shift, fft_size=fft_size)
    wave = Waveform(scale * np.random.default_rng(seed).standard_normal(size), params.sample_rate)
    spectra = np.fft.rfft(frame_signal(wave, params) * hann_window(length), n=fft_size, axis=1)
    expected = np.log(np.maximum(np.abs(spectra), params.log_floor))
    assert np.array_equal(extract_las(wave, params), expected)


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
        with pytest.raises(ValueError,
                           match="^sample rate mismatch: 8000 from wave, 16000 from params$"):
            extract_las(Waveform(np.zeros(800), 8000), params)

    @pytest.mark.parametrize("pattern", [1.0, -1.0, (-1.0) ** np.arange(2000)])
    def test_overflow_limit_is_inclusive(self, params, pattern):
        # |X[k]| <= peak * frame_len / 2: at the limit, a constant frame puts
        # float64 max / 2 in bin 0 and an alternating one in bin fft_size/2;
        # one ulp more is refused
        limit = np.finfo(np.float64).max / params.frame_len
        samples = limit * np.broadcast_to(pattern, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(extract_las(Waveform(samples, 16000), params)))
            samples[700] = np.copysign(np.nextafter(limit, np.inf), samples[700])
            with pytest.raises(ValueError, match="magnitude at most 5.62e\\+305"):
                extract_las(Waveform(samples, 16000), params)

    @pytest.mark.parametrize("amplitude", [1.13e306, 1e308])
    def test_samples_whose_spectra_overflow_rejected(self, params, amplitude):
        # before: overflow warnings in the FFT, and a LAS holding 22 infs
        # (1.13e306), or 204 infs and 2743 NaNs (1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the spectra overflow"):
                extract_las(Waveform(np.full(2000, amplitude), 16000), params)

    def test_memory_peak(self, params):
        # 8 s at 16 kHz is 1600 frames: the padded signal takes 1.03 MB, the
        # windowed frames 4.1 MB and the complex spectra 6.6 MB, about 11.7 MB
        # together; a (frames, fft_size) zero-padded FFT buffer adds 6.6 MB,
        # and any (frames, bins) temporary 3.3 MB.
        wave = Waveform(0.5 * np.sin(2 * np.pi * 200.0 * np.arange(128000) / 16000), 16000)
        tracemalloc.start()
        try:
            las = extract_las(wave, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert las.shape == (1600, params.num_bins)
        assert peak <= 12.5e6

    def test_result_owns_its_memory(self, params, sine_1khz):
        # a view would keep the FFT's complex spectra alive behind it
        assert extract_las(sine_1khz, params).flags.owndata


def _magnitude_error(signal, las, params):
    """Frobenius distance between |STFT(signal)| over las.shape[0] frames and exp(las)."""
    return np.linalg.norm(np.exp(extract_las(signal, params)[: len(las)]) - np.exp(las))


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
            _magnitude_error(griffin_lim(las, params, iters=n, momentum=0.0), las, params)
            for n in (1, 5, 30)
        ]
        assert errors[0] >= errors[1] >= errors[2]

    def test_default_momentum_converges_faster(self, params, vowel_corpus):
        for wave in vowel_corpus:
            las = extract_las(wave, params) + math.log(0.05)  # no unit-peak rescaling
            fast = griffin_lim(las, params, iters=30)
            plain = griffin_lim(las, params, iters=30, momentum=0.0)
            assert np.max(np.abs(fast.samples)) < 1.0 and np.max(np.abs(plain.samples)) < 1.0
            assert _magnitude_error(fast, las, params) < _magnitude_error(plain, las, params)

    def test_bad_iteration_count(self, params):
        with pytest.raises(ValueError):
            griffin_lim(np.zeros((3, params.num_bins)), params, iters=0)

    def test_non_integer_iteration_count(self, params):
        las = np.zeros((3, params.num_bins))
        with pytest.raises(ValueError, match="iters must be an integer"):
            griffin_lim(las, params, iters=2.5)
        assert griffin_lim(las, params, iters=np.int64(2)).samples.size > 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_peak(self, params, monkeypatch, threads):
        # the buffers griffin_lim needs at 1600 frames x 257 bins come to
        # about 22.4 MB (the spectra, the one (frames, fft_size) FFT buffer
        # and a few signals); a second FFT buffer adds 6.6 MB, a (frames,
        # bins) scale buffer 3.3 MB, and an (n, frame_len) index grid or
        # frame copy 4 MB. threads=1 runs the two row blocks in turn on the
        # calling thread, threads=2 on the two-thread pool.
        if threads == 1:
            monkeypatch.setattr(dsp, "_thread_pool",
                                lambda: contextlib.nullcontext(types.SimpleNamespace(map=map)))
        rng = np.random.default_rng(3)
        las = np.log(rng.uniform(1e-3, 1.0, (1600, params.num_bins)))
        tracemalloc.start()
        try:
            griffin_lim(las, params, iters=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 23.5e6

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

    @pytest.mark.parametrize("level", [703.0, 703.5])
    def test_las_just_below_the_synthesis_overflow_synthesised(self, params, level):
        # exp(level) summed over the bins stays finite; from about 704 the
        # first synthesis overflows and the LAS is refused (tests/test_rules.py)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = griffin_lim(np.full((5, params.num_bins), level), params, iters=5)
        assert np.max(np.abs(out.samples)) == 1.0

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
            frames = _frame_view(once, params.frame_len, params.frame_shift)
            assert len(frames) == las.shape[0]
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


class TestGriffinLimThreads:
    """Two row blocks on two threads against the same blocks run in turn."""

    @pytest.mark.parametrize("momentum", MOMENTA)
    @pytest.mark.parametrize("shift", [80, 96])  # 320/96: frame_len not a multiple of the shift
    @pytest.mark.parametrize("extra", [0, 1, 205])  # even and odd frame counts
    def test_two_blocks_equal_one(self, vowel_corpus, monkeypatch, momentum, shift, extra):
        params = AnalysisParams(frame_shift=shift)
        samples = np.concatenate([wave.samples for wave in vowel_corpus[:3]])
        las = extract_las(Waveform(samples, params.sample_rate), params)[: 128 + extra]
        threaded = griffin_lim(las, params, iters=5, momentum=momentum).samples
        pools = []

        def serial_pool():
            pools.append(types.SimpleNamespace(map=map))
            return contextlib.nullcontext(pools[-1])

        monkeypatch.setattr(dsp, "_thread_pool", serial_pool)
        serial = griffin_lim(las, params, iters=5, momentum=momentum).samples
        assert len(pools) == 1
        assert np.array_equal(threaded, serial)

    @pytest.mark.parametrize("frames", [1, 2])  # the first block empty, or one row
    def test_one_and_two_frames_match_oracle(self, params, vowel_corpus, frames):
        las = extract_las(vowel_corpus[0], params)[40 : 40 + frames]
        for momentum in MOMENTA:
            once = griffin_lim(las, params, iters=1, momentum=momentum).samples
            want = oracles.griffin_lim_loop(las, params, iters=1, momentum=momentum)
            assert np.array_equal(once, want.samples)
            got = griffin_lim(las, params, iters=5, momentum=momentum).samples
            expected = oracles.griffin_lim_loop(las, params, iters=5, momentum=momentum)
            assert np.max(np.abs(got - expected.samples)) <= GL_ORACLE_ATOL

    def test_concurrent_calls_under_fast_switching(self, params, vowel_corpus):
        # three calls at once run six block threads on the usable CPUs, with
        # the interpreter switching threads every microsecond
        lases = [extract_las(wave, params)[: 128 + 11 * i]
                 for i, wave in enumerate(vowel_corpus[:3])]
        want = [griffin_lim(las, params, iters=5).samples for las in lases]
        got = [None] * len(lases)

        def call(i):
            got[i] = griffin_lim(lases[i], params, iters=5).samples

        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(lases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for g, w in zip(got, want):
            assert g is not None and np.array_equal(g, w)

    def test_pool_shut_down_when_an_iteration_raises(self, params, vowel_corpus, monkeypatch):
        las = extract_las(vowel_corpus[0], params)
        calls = itertools.count()
        rfft = np.fft.rfft

        def failing_rfft(*args, **kwargs):
            if next(calls) == 2:  # the second iteration's first analysis
                raise RuntimeError("injected failure")
            return rfft(*args, **kwargs)

        before = set(threading.enumerate())
        monkeypatch.setattr(np.fft, "rfft", failing_rfft)
        with pytest.raises(RuntimeError, match="injected failure"):
            griffin_lim(las, params, iters=10)
        assert set(threading.enumerate()) <= before


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
            "apply_refiner": lambda las: apply_refiner(model, las),
            "fit_refiner": lambda las: fit_refiner([(las, las)]),
            "las_rmse_db": lambda las: las_rmse_db(las, las),
            "las_rmse_db_test": lambda las: las_rmse_db(good, las),
            "emit_spectrogram_image": lambda las: emit_spectrogram_image(las, path),
        }

    @pytest.mark.parametrize("consumer", ["griffin_lim", "apply_refiner", "fit_refiner",
                                          "las_rmse_db", "las_rmse_db_test",
                                          "emit_spectrogram_image"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "empty", "1-d"])
    def test_bad_las_rejected(self, params, tmp_path, consumer, bad):
        call = self._consumers(params, tmp_path / "x.pgm")[consumer]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                call(_bad_las(params, bad))
        assert not (tmp_path / "x.pgm").exists()


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

    @pytest.mark.parametrize("kwargs, value", [
        (dict(sample_rate=0), "got 0"),
        (dict(frame_len=1), "got 1"),
        (dict(frame_len=321, fft_size=512), "got 321"),
        (dict(frame_shift=400), "got 400 with frame_len 320"),
        (dict(fft_size=256), "(?<=>= 320, )got 256"),
        (dict(fft_size=600), "got 600"),
        (dict(warp_alpha=1.0), "got 1.0"),
        (dict(log_floor=math.nan), "got nan"),
    ])
    def test_range_errors_state_the_value(self, kwargs, value):
        with pytest.raises(ValueError, match=f"must .*, {value}$"):
            AnalysisParams(**kwargs)

    @pytest.mark.parametrize("field", ["sample_rate", "frame_len", "frame_shift", "fft_size"])
    @pytest.mark.parametrize("kind", [float, str, bool])
    def test_non_integer_geometry_rejected(self, field, kind):
        value = kind(getattr(AnalysisParams(), field))
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            AnalysisParams(**{field: value})

    def test_numpy_integers_accepted(self, params, sine_1khz):
        geometry = dict(sample_rate=np.int32(16000), frame_len=np.int64(320),
                        frame_shift=np.uint16(80), fft_size=np.int64(512))
        numpy_params = AnalysisParams(**geometry)
        assert numpy_params == params
        assert all(type(getattr(numpy_params, field)) is int for field in geometry)
        assert np.array_equal(extract_las(sine_1khz, numpy_params), extract_las(sine_1khz, params))


@pytest.mark.parametrize("build, message", [
    (lambda: Waveform(np.zeros(0), 16000), "^no samples$"),
    (lambda: FeatureTrack(f0=np.zeros(0), mcep=np.zeros((0, 41)), frame_shift=80,
                          sample_rate=16000), "^f0 must be a non-empty 1-D array"),
    (lambda: RefinerModel(gain=np.ones(0), bias=np.zeros(0)), "^gain and bias must be non-empty"),
    (lambda: las_rmse_db(np.zeros((0, 257)), np.zeros((0, 257))),
     re.escape("LAS must be (frames >= 1, bins >= 1), got shape (0, 257)")),
], ids=["Waveform", "FeatureTrack", "RefinerModel", "LAS"])
def test_every_value_type_refuses_an_empty_value(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestWaveform:
    @pytest.mark.parametrize("rate", [16000.5, 16000.0, "16000"])
    def test_non_integer_sample_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sample_rate must be an integer"):
            Waveform(np.zeros(10), rate)

    def test_numpy_integer_sample_rate_accepted(self):
        wave = Waveform(np.zeros(10), np.uint16(8000))
        assert wave.sample_rate == 8000 and type(wave.sample_rate) is int

    def test_samples_are_a_read_only_view(self, params):
        # before: a NaN written into a built waveform gave a NaN LAS row and
        # frame 0 voiced at 50 Hz
        given = np.zeros(1600)
        wave = Waveform(given, params.sample_rate)
        with pytest.raises(ValueError, match="read-only"):
            wave.samples[5] = np.nan
        assert np.isfinite(extract_las(wave, params)).all()
        assert not estimate_f0(wave, params)[0].any()
        # the view is of the waveform's own copy, not of the caller's array
        assert wave.samples.flags.owndata and not np.shares_memory(wave.samples, given)
        given[5] = 0.25  # the caller's own array stays writeable
        assert wave.samples[5] == 0.0
        assert Waveform([0, 1, -1], 8000).samples.dtype == np.float64

    def test_a_write_to_the_given_array_leaves_the_waveform_finite(self, params):
        # before: the waveform shared the caller's array, and a NaN written
        # into it after the check gave 4 frames x 257 non-finite LAS values
        given = 0.5 * np.sin(2 * np.pi * 200.0 * np.arange(16000) / 16000)
        wave = Waveform(given, params.sample_rate)
        want = extract_las(wave, params)
        given[5000] = np.nan
        assert np.array_equal(extract_las(wave, params), want)
        assert np.isfinite(estimate_f0(wave, params)[0]).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 800, -1])
    def test_non_finite_samples_rejected(self, bad, index):
        # one max/min pair gives both the finiteness verdict and the peak
        samples = 0.5 * np.sin(np.arange(1600))
        samples[index] = bad
        with pytest.raises(ValueError, match="^samples must be finite$"):
            Waveform(samples, 16000)
