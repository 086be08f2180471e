"""Tests for F0 estimation, mel-cepstral analysis and feature extraction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import vowelgen
from alaskit import (
    AnalysisParams,
    Waveform,
    estimate_f0,
    extract_features,
    FeatureTrack,
    extract_las,
    filter_spectrum,
    mcep_analysis,
    read_feature_file,
    recover_alas,
    warp_cepstrum,
    write_feature_file,
)
from alaskit import features


def _sine(freq, seconds, fs, amp=0.5):
    t = np.arange(int(seconds * fs)) / fs
    return Waveform(amp * np.sin(2 * np.pi * freq * t), fs)


# estimate_f0 picks peaks on chunks of 32768 // lags frames; at 16 kHz it keeps
# the 290 lags 31..320, so a chunk holds 112 frames
CHUNK = 112


def _assert_matches_oracle(samples, params):
    f0, vuv = estimate_f0(Waveform(samples, params.sample_rate), params)
    expected_f0, expected_vuv = oracles.estimate_f0_padded(samples, params)
    assert np.array_equal(vuv, expected_vuv)
    np.testing.assert_allclose(f0, expected_f0, rtol=1e-12, atol=0)
    return f0, vuv


def _chunks_seen(monkeypatch):
    """Row counts of the chunks estimate_f0 hands to its peak pick."""
    seen = []
    pick = features._f0_from_correlation

    def recording(r, lo, fs):
        seen.append(r.shape[0])
        return pick(r, lo, fs)

    monkeypatch.setattr(features, "_f0_from_correlation", recording)
    return seen


class TestEstimateF0:
    def test_pure_200hz_sine(self, params):
        f0, vuv = estimate_f0(_sine(200.0, 1.0, 16000), params)
        interior = slice(1, -4)
        assert np.all(vuv[interior])
        assert np.all(np.abs(f0[interior] - 200.0) <= 2.0)

    def test_white_noise_mostly_unvoiced(self, params):
        rng = np.random.default_rng(7)
        f0, vuv = estimate_f0(Waveform(0.1 * rng.standard_normal(16000), 16000), params)
        assert np.mean(~vuv) > 0.5

    def test_silence_unvoiced(self, params):
        f0, vuv = estimate_f0(Waveform(np.zeros(4000), 16000), params)
        assert not vuv.any()
        assert not f0.any()

    def test_f0_zero_iff_unvoiced(self, params, vowel_corpus):
        for wave in vowel_corpus[:3]:
            f0, vuv = estimate_f0(wave, params)
            assert np.array_equal(f0 > 0, vuv)

    def test_voiced_f0_stays_in_search_range(self, params, vowel_corpus):
        f0, vuv = estimate_f0(vowel_corpus[0], params)
        assert np.all((f0[vuv] >= 50.0) & (f0[vuv] <= 500.0))

    def test_matches_padded_buffer_search_on_corpus(self, params, vowel_corpus):
        for wave in vowel_corpus:
            for samples in (wave.samples, wave.samples[:-37]):
                _assert_matches_oracle(samples, params)
            # on the 16-bit PCM grid every product and sum is exact: F0 to the bit
            grid = np.round(wave.samples * 32768.0) / 32768.0
            f0 = estimate_f0(Waveform(grid, params.sample_rate), params)[0]
            assert np.array_equal(f0, oracles.estimate_f0_padded(grid, params)[0])

    def test_matches_padded_buffer_search_after_a_loud_to_quiet_step(self, params):
        # A running sum of squares over the loud second would leave the quiet
        # second's lagged energies to cancellation, up to 18% off, and frame
        # 199's F0 1.6e-5 off; a direct sum of squares does not cancel.
        t = np.arange(params.sample_rate) / params.sample_rate
        noise = 1e-9 * np.random.default_rng(1).standard_normal(t.size)
        samples = np.concatenate([0.9 * np.sign(np.sin(2 * np.pi * 150.0 * t)),
                                  2e-7 * np.sin(2 * np.pi * 200.0 * t) + noise])
        _assert_matches_oracle(samples, params)

    @pytest.mark.parametrize("shift", [1, 7, 160, 320])
    def test_matches_padded_buffer_search_at_other_shifts(self, shift):
        # a frame is 320 pieces of 1 sample, 45 of 7 and one of 5, 2 of 160,
        # or one of 320
        params = AnalysisParams(frame_shift=shift)
        samples = vowelgen.synth_vowel([140.0, 230.0], 0.1, params.sample_rate, 43,
                                       vowelgen.FORMANT_SETS[3]).samples
        f0, vuv = _assert_matches_oracle(samples, params)
        assert vuv.any()

    def test_matches_padded_buffer_search_at_a_frame_len_of_several_set_bits(self):
        # 300 = 256 + 32 + 8 + 4: the window sums add four doubled widths,
        # and a shift of 80 leaves a last piece of 60
        params = AnalysisParams(frame_len=300)
        samples = vowelgen.synth_vowel([120.0, 260.0], 0.4, params.sample_rate, 44,
                                       vowelgen.FORMANT_SETS[1]).samples
        f0, vuv = _assert_matches_oracle(samples, params)
        assert vuv.any()
        grid = np.round(samples * 32768.0) / 32768.0
        f0 = estimate_f0(Waveform(grid, params.sample_rate), params)[0]
        assert np.array_equal(f0, oracles.estimate_f0_padded(grid, params)[0])

    @pytest.mark.parametrize("rate, shift", [(8000, 80), (22050, 80), (44100, 80), (16000, 96),
                                            (192000, 80)])
    def test_matches_padded_buffer_search_at_other_geometry(self, rate, shift):
        # lag_min and lag_max scale with the rate (at 192 kHz a chunk is 9
        # frames of 3458 lags); a shift of 96 moves every frame off the
        # 80-sample grid
        params = AnalysisParams(sample_rate=rate, frame_shift=shift)
        vowel = vowelgen.synth_vowel([110.0, 230.0, 470.0], 0.6, rate, 41,
                                     vowelgen.FORMANT_SETS[0]).samples
        noise = 0.05 * np.random.default_rng(42).standard_normal(rate // 5)
        samples = np.concatenate([vowel, noise, np.zeros(rate // 20), vowel[: rate // 7]])
        f0, vuv = _assert_matches_oracle(samples, params)
        assert 0 < np.count_nonzero(vuv) < vuv.size

    @pytest.mark.parametrize("size, period", [(100, 40), (34, 32), (33, 32), (400, 320),
                                              (32, 16), (20, 7), (1, 1)])
    def test_matches_padded_buffer_search_on_short_waves(self, params, size, period):
        # Below ceil(fs / F0_MIN) = 320 samples the scan stops at the wave's
        # end; at lag_min = 32 samples or fewer no lag is left to scan. The
        # pulses' negative second sample pulls the 33-sample wave's parabolic
        # fit, which reads lag_max = 33, past lag 32, to below 500 Hz.
        rng = np.random.default_rng(size)
        samples = 0.01 * rng.standard_normal(size)
        samples[::period] += 0.5
        samples[1::period] -= 0.3
        f0, vuv = _assert_matches_oracle(samples, params)
        assert vuv.any() == (size > 32)
        assert size != 33 or 0 < f0[0] < 500.0

    @pytest.mark.parametrize("size, pulses, expected", [
        (34, {0: 0.5, 1: 0.5, 2: 0.5, 33: 0.5}, 500.0),  # r equal at lags 31..33: no fit
        (330, {0: 0.5, 1: 0.5, 320: 0.5}, 16000 / 319.5),  # r equal at 319 and 320 = lag_max
        (330, {0: 0.5, 1: 0.49, 320: 0.5}, 50.0),  # r rising 2% from 319 to 320
    ])
    def test_matches_padded_buffer_search_at_the_span_ends(self, params, size, pulses, expected):
        # Of tied lags the shorter is taken, then fitted; a peak at lag_max
        # itself gets no fit.
        samples = np.zeros(size)
        samples[list(pulses)] = list(pulses.values())
        f0, vuv = _assert_matches_oracle(samples, params)
        assert f0[0] == expected

    @settings(max_examples=40, deadline=None)
    @given(f0=st.floats(60.0, 480.0), amplitude=st.floats(5e-5, 4e-4),
           noise=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_padded_buffer_search_near_the_gates(self, params, f0, amplitude, noise,
                                                         seed):
        # Amplitudes around RMS_GATE * sqrt(2), faded in and out, put frames on
        # both sides of the RMS gate; the noise moves the correlation peak
        # across VOICING_THRESHOLD.
        t = np.arange(params.sample_rate // 5) / params.sample_rate
        rng = np.random.default_rng(seed)
        fade = np.minimum(1.0, np.minimum(t, t[::-1]) / 0.08)
        samples = amplitude * fade * (np.sin(2 * np.pi * f0 * t)
                                      + noise * rng.standard_normal(t.size))
        _assert_matches_oracle(samples, params)


    @pytest.mark.parametrize("frames", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_matches_padded_buffer_search_across_chunk_seams(self, params, monkeypatch, frames):
        # silence, then a vowel from frame 60 on: voiced runs cross every seam
        seen = _chunks_seen(monkeypatch)
        vowel = vowelgen.synth_vowel([140.0, 210.0], 3.0, params.sample_rate, 5,
                                     vowelgen.FORMANT_SETS[1]).samples
        samples = np.zeros(frames * params.frame_shift)
        samples[60 * params.frame_shift :] = vowel[: samples.size - 60 * params.frame_shift]
        f0, vuv = _assert_matches_oracle(samples, params)
        assert seen == [CHUNK] * (frames // CHUNK) + [frames % CHUNK] * (frames % CHUNK > 0)
        assert not vuv[:56].any() and vuv[70 : frames - 4].all()

    def test_matches_padded_buffer_search_with_an_unvoiced_chunk(self, params, monkeypatch):
        # the middle chunk holds noise and silence only, and its frames' lag
        # segments end before the last vowel starts: no row is voiced (under
        # some noise seeds the frame half in the noise's tail is)
        seen = _chunks_seen(monkeypatch)
        shift = params.frame_shift
        vowel = vowelgen.synth_vowel([160.0], 1.0, params.sample_rate, 6,
                                     vowelgen.FORMANT_SETS[2]).samples
        noise = 0.05 * np.random.default_rng(12).standard_normal(CHUNK * shift // 2)
        samples = np.concatenate([vowel[: CHUNK * shift], noise,
                                  np.zeros((CHUNK // 2 + 10) * shift), vowel[: 40 * shift]])
        f0, vuv = _assert_matches_oracle(samples, params)
        assert seen == [CHUNK, CHUNK, 50]
        assert vuv[:CHUNK].any() and not vuv[CHUNK + 4 : 2 * CHUNK].any() and vuv[-30:].any()

    @pytest.mark.parametrize("pulses, climb, tie", [
        ({0: 1.0, 1: 0.995, 2: 0.99, 3: 0.98, 4: 0.975, 200: 1.0}, 4, False),
        ({0: 1.0, 1: 0.995, 2: 0.995, 3: 0.99, 4: 0.98, 5: 0.975, 200: 1.0}, 3, True),
        ({0: 1.0, 1: 0.99, 2: 0.975, 3: 0.9, 4: 0.965, 200: 1.0}, 2, False),
    ])
    def test_matches_padded_buffer_search_on_climbs(self, params, pulses, climb, tie):
        # Frame 0's lagged windows past lag 5 hold only the pulse at 200, so r
        # at lag 200 - i is the pulse at i over one shared norm, exactly: the
        # climb from the first lag within 3% of the peak runs ``climb`` lags.
        # In the second case it stops at an exact tie though r rises after it;
        # in the third it starts past a local maximum 3.5% below the peak.
        samples = np.zeros(201)
        samples[list(pulses)] = list(pulses.values())
        f0, vuv = _assert_matches_oracle(samples, params)
        lag_min = int(params.sample_rate / features.F0_MAX)
        r = oracles.autocorrelation_padded(samples, params)[0]
        span = r[lag_min:]
        first = lag_min + int(np.argmax(span >= 0.97 * span.max()))
        top = lag_min + oracles.pick_peak_lag(span, float(span.max()))
        assert top - first == climb and np.all(np.diff(r[first : top + 1]) > 0)
        assert (r[top + 1] == r[top]) == tie and (r[top + 2] > r[top]) == tie
        assert vuv[0]
        if tie:  # the fit over (rising, top, tied) lands half a lag up
            assert f0[0] == params.sample_rate / (top + 0.5)

    def test_sample_rate_mismatch_rejected(self, params):
        with pytest.raises(ValueError,
                           match="^sample rate mismatch: 8000 from wave, 16000 from params$"):
            estimate_f0(_sine(200.0, 0.2, 8000), params)

    def test_large_samples_below_the_overflow_limit_analysed(self, params):
        # a 1e74 sine: the energy products reach about 3e300, finite
        wave = _sine(200.0, 0.2, params.sample_rate, amp=1e74)
        f0, vuv = _assert_matches_oracle(wave.samples, params)
        assert np.count_nonzero(vuv) == 39 and np.all(np.abs(f0[vuv] - 200.0) <= 2.0)

    @pytest.mark.parametrize("amplitude", [1e76, 1e160])
    def test_samples_whose_energy_products_overflow_rejected(self, params, amplitude):
        # before: 5 of 40 frames voiced, at 50 to 200 Hz, with 37 overflow
        # warnings (1e76), or all 40 voiced at 50 Hz (1e160)
        with pytest.raises(ValueError, match="magnitude at most 5.44e\\+75"):
            estimate_f0(_sine(200.0, 0.2, params.sample_rate, amp=amplitude), params)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_limit_is_inclusive(self, params, sign):
        # pulses at the limit itself give finite products; one ulp more is refused
        limit = (np.finfo(np.float64).max / (320 * (320 + 320))) ** 0.25
        samples = np.zeros(1600)
        samples[::100] = sign * limit
        f0, vuv = _assert_matches_oracle(samples, params)
        assert np.all(np.abs(f0[vuv] - 160.0) <= 2.0) and vuv.any()
        samples[700] = sign * np.nextafter(limit, np.inf)
        with pytest.raises(ValueError, match="magnitude at most"):
            estimate_f0(Waveform(samples, params.sample_rate), params)

    @pytest.mark.parametrize("rate", [400, 499])
    def test_sample_rate_below_f0_max_rejected(self, rate):
        with pytest.raises(ValueError, match=f"{rate} Hz"):
            estimate_f0(_sine(100.0, 1.0, rate), AnalysisParams(sample_rate=rate))

    @pytest.mark.parametrize("rate, samples, bound", [
        (192000, 48000, 2_000_000), (16_000_000, 1600, 2_000_000), (16000, 128000, 2_600_000),
    ], ids=["192000-48000", "16000000-1600", "16000-128000"])
    def test_memory_does_not_grow_with_frames_times_lags(self, rate, samples, bound):
        # A (frames, frame_len + lag range) copy of the segments would take
        # 40 MB for 0.25 s at 192 kHz; at 16 MHz the lag range runs far past
        # the signal's end, and scanning it would take 100 MB. Over 8 s at
        # 16 kHz the padded signal alone takes 1.03 MB; squares or window sums
        # kept for the whole signal, not per chunk, would add as much each.
        wave = Waveform(0.5 * np.sin(2 * np.pi * 200.0 * np.arange(samples) / rate), rate)
        tracemalloc.start()
        try:
            f0, vuv = estimate_f0(wave, AnalysisParams(sample_rate=rate))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert vuv.any() == (rate != 16_000_000)


class TestWindowSums:
    WIDTHS = [1, 2, 3, 7, 80, 255, 256, 320]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_integers_match_convolution_exactly(self, width):
        # every partial sum of integers this small is exact, in any order
        x = np.random.default_rng(width).integers(0, 2**30, 1000).astype(np.float64)
        sums = features._window_sums(x, width)
        assert np.array_equal(sums, np.convolve(x, np.ones(width), "valid"))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_floats_match_convolution_within_rounding(self, width):
        # nonnegative terms, summed in another order (6.9e-16 relative seen)
        x = np.random.default_rng(width).uniform(0.0, 1.0, 1000) ** 2
        sums = features._window_sums(x, width)
        np.testing.assert_allclose(sums, np.convolve(x, np.ones(width), "valid"),
                                   rtol=1e-13, atol=0)

    def test_one_window_spanning_the_input(self):
        x = np.arange(1.0, 8.0)
        np.testing.assert_array_equal(features._window_sums(x, 7), [28.0])


def _f0_from_rows_oracle(r, lo, fs):
    """_f0_from_correlation one row at a time, by the oracle's local-maximum
    peak pick and parabolic fit."""
    f0 = np.zeros(len(r))
    for i, row in enumerate(r):
        span = row[1:]
        peak = float(span.max())
        if peak >= features.VOICING_THRESHOLD:
            lag = 1 + oracles.pick_peak_lag(span, peak)
            f0[i] = np.clip(fs / (lo + lag + oracles.parabolic_offset(row, lag)),
                            features.F0_MIN, features.F0_MAX)
    return f0


class TestPeakPick:
    # columns are lags 30..37 at 4 kHz: 133.3 down to 108.1 Hz, inside the clamp
    CRAFTED = {
        "plateau at the top": [0.0, 0.2, 0.5, 0.9, 0.9, 0.6, 0.3, 0.1],
        "plateau of three": [0.0, 0.2, 0.9, 0.9, 0.9, 0.6, 0.3, 0.1],
        "exactly 0.97 * peak": [0.0, 0.2, 0.97, 0.5, 0.3, 1.0, 0.4, 0.2],
        "one ulp under 0.97 * peak": [0.0, 0.2, np.nextafter(0.97, 0.0), 0.5, 0.3, 1.0, 0.4, 0.2],
        "climb past the first near-peak lag": [0.0, 0.5, 0.98, 0.99, 1.0, 0.7, 0.4, 0.2],
        "top at the last lag": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8],
        "top at the first searched lag": [0.0, 0.9, 0.5, 0.3, 0.2, 0.1, 0.3, 0.4],
        "lag lo above 0.97 * peak": [1.0, 0.8, 0.6, 0.4, 0.5, 0.7, 0.8, 0.6],
        "lag lo the only one above 0.97 * peak": [1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0, 0.1],
        "under the voicing threshold": [0.9, 0.1, 0.29, 0.2, 0.1, 0.0, 0.1, 0.2],
        "at the voicing threshold": [0.0, 0.1, 0.3, 0.2, 0.1, 0.0, 0.1, 0.2],
        "gated": [0.0] * 8,
    }

    def test_crafted_rows_match_oracle_exactly(self):
        r = np.array(list(self.CRAFTED.values()))
        f0 = features._f0_from_correlation(r, 30, 4000)
        assert np.array_equal(f0, _f0_from_rows_oracle(r, 30, 4000))
        assert (f0 > 0).tolist() == [True] * 9 + [False, True, False]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rows_match_oracle_exactly(self, seed):
        # decaying cosines plus noise, rounded to 0.01 so that ties and
        # plateaus are common, some scaled under the voicing threshold
        rng = np.random.default_rng(seed)
        lags = np.arange(31, 322)
        period, decay = rng.uniform(20.0, 330.0, (300, 1)), rng.uniform(100.0, 2000.0, (300, 1))
        r = (np.cos(2 * np.pi * lags / period) * np.exp(-lags / decay)
             + rng.normal(0.0, rng.uniform(0.0, 0.3, (300, 1)), (300, lags.size)))
        r = np.round(r * rng.uniform(0.2, 1.0, (300, 1)), 2)
        f0 = features._f0_from_correlation(r, 30, 16000)
        assert np.array_equal(f0, _f0_from_rows_oracle(r, 30, 16000))
        assert 0 < np.count_nonzero(f0) < len(f0)


class TestMcepAnalysis:
    def test_flat_spectrum(self, params):
        coeffs = mcep_analysis(np.full(params.num_bins, 1.3), params)
        assert coeffs.shape == (41,)
        assert coeffs[0] == pytest.approx(1.3, abs=1e-9)
        assert np.max(np.abs(coeffs[1:])) < 1e-6

    def test_zero_alpha_gives_plain_cepstrum(self):
        p = AnalysisParams(warp_alpha=0.0)
        rng = np.random.default_rng(8)
        las_frame = rng.standard_normal(p.num_bins)
        coeffs = mcep_analysis(las_frame, p)
        plain = np.fft.irfft(las_frame, n=p.fft_size)[:41]
        np.testing.assert_allclose(coeffs, plain, atol=1e-12)

    def test_round_trip_through_synthesis(self, params):
        rng = np.random.default_rng(9)
        truth = rng.standard_normal(41) * 0.8 ** np.arange(41)
        log_spec = np.log(filter_spectrum(truth, params))
        recovered = mcep_analysis(log_spec, params)
        rmse = float(np.sqrt(np.mean((recovered - truth) ** 2)))
        assert rmse < 1e-3

    def test_dimension_mismatch(self, params):
        with pytest.raises(ValueError):
            mcep_analysis(np.zeros(100), params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("frames", [(), (2,)])
    def test_non_finite_spectra_rejected(self, params, bad, frames):
        # at every bin: the spectra are checked only once the coefficients,
        # which every bin reaches through the matrix product, are not finite
        las = np.zeros(frames + (params.num_bins,))
        for k in range(params.num_bins):
            las[..., k] = bad
            with pytest.raises(ValueError, match="^log spectra must be finite$"):
                mcep_analysis(las, params)
            las[..., k] = 0.0

    def test_needs_41_bins(self):
        p = AnalysisParams(frame_len=64, frame_shift=16, fft_size=64)
        with pytest.raises(ValueError, match="41 mel-cepstra need at least 41 spectral bins, "
                                             r"got 33 \(fft_size 64\)"):
            mcep_analysis(np.zeros(p.num_bins), p)

    def test_batch_matches_per_frame_oracle(self, params, vowel_corpus):
        # measured: 4e-15
        for wave in vowel_corpus:
            las = extract_las(wave, params)
            batch = mcep_analysis(las, params)
            assert batch.shape == (las.shape[0], 41)
            for row, frame in zip(batch, las):
                np.testing.assert_allclose(row, oracles.mcep_frame(frame, params),
                                           rtol=0, atol=1e-12)


    def test_memory_peak(self, params):
        # at 1600 frames the (frames, 41) coefficients take 0.52 MB and their
        # finiteness mask 0.07 MB; a (frames, bins) float64 temporary adds
        # 3.3 MB, and a finiteness mask of the spectra 0.41 MB at its side.
        las = np.random.default_rng(10).standard_normal((1600, params.num_bins))
        mcep_analysis(las, params)  # the cached map is built outside the trace
        tracemalloc.start()
        try:
            mcep_analysis(las, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.8e6


class TestWarpInvolution:
    def test_padded_vectors_round_trip(self, params):
        rng = np.random.default_rng(10)
        k = params.num_bins
        for _ in range(20):
            vec = np.zeros(k)
            vec[:41] = rng.standard_normal(41)
            back = warp_cepstrum(warp_cepstrum(vec, params.warp_alpha), -params.warp_alpha)
            assert np.max(np.abs(back - vec)) < 1e-6

    def test_envelope_reproduction(self, params):
        rng = np.random.default_rng(11)
        truth = rng.standard_normal(41) * 0.7 ** np.arange(41)
        log_spec = np.log(filter_spectrum(truth, params))
        rebuilt = np.log(filter_spectrum(mcep_analysis(log_spec, params), params))
        assert float(np.sqrt(np.mean((rebuilt - log_spec) ** 2))) < 0.1


class TestExtractFeatures:
    def test_frame_count_matches_las(self, params, vowel_corpus):
        wave = vowel_corpus[0]
        track = extract_features(wave, params)
        las = extract_las(wave, params)
        assert len(track) == las.shape[0]
        assert track.mcep.shape == (len(track), 41)

    def test_vowel_mostly_voiced(self, params, vowel_corpus):
        track = extract_features(vowel_corpus[1], params)
        interior = track.vuv[1:-4]
        assert np.mean(interior) >= 0.9

    def test_silence_gives_valid_unvoiced_track(self, params):
        track = extract_features(Waveform(np.zeros(2000), 16000), params)
        assert len(track) == 25
        assert not track.vuv.any()
        assert not track.f0.any()
        assert np.all(np.isfinite(track.mcep))

    def test_empty_input(self):
        with pytest.raises(ValueError, match="^no samples$"):
            Waveform(np.zeros(0), 16000)

    def test_sample_rate_mismatch_rejected(self, params):
        with pytest.raises(ValueError,
                           match="^sample rate mismatch: 8000 from wave, 16000 from params$"):
            extract_features(_sine(200.0, 0.2, 8000), params)


class TestFeatureTrack:
    def _track(self, **changes):
        fields = dict(f0=np.array([0.0, 120.0, 0.0]), mcep=np.zeros((3, 41)), frame_shift=80,
                      sample_rate=16000)
        return FeatureTrack(**{**fields, **changes})

    @pytest.mark.parametrize("name, value", [("frame_shift", 80.5), ("frame_shift", 80.0),
                                             ("sample_rate", 16000.0)])
    def test_geometry_must_be_an_integer(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            self._track(**{name: value})

    @pytest.mark.parametrize("name", ["frame_shift", "sample_rate"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_geometry_must_be_positive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value}$"):
            self._track(**{name: value})

    def test_numpy_integers_stored_as_int(self):
        track = self._track(frame_shift=np.int32(80), sample_rate=np.uint64(16000))
        assert type(track.frame_shift) is int and type(track.sample_rate) is int
        assert (track.frame_shift, track.sample_rate) == (80, 16000)

    def test_vuv_is_positive_f0(self, tmp_path):
        track = self._track(f0=np.array([0.0, 120.0, -0.0, 80.0]), mcep=np.zeros((4, 41)))
        write_feature_file(tmp_path / "t.aftk", track)
        for t in (track, read_feature_file(tmp_path / "t.aftk")):
            assert np.array_equal(t.vuv, [False, True, False, True])
            assert np.array_equal(t.vuv, t.f0 > 0)
        with pytest.raises(AttributeError):
            track.vuv = np.ones(4, bool)

    @pytest.mark.parametrize("f0, vuv", [
        ([0.0, 0.0, 0.0], [True, True, True]),  # voiced frames without an F0
        ([0.0, 120.0, 0.0], [False, False, False]),  # an F0 on an unvoiced frame
    ])
    def test_vuv_must_match_positive_f0(self, f0, vuv):
        # vuv is derived from f0, so a disagreeing one cannot be passed in
        with pytest.raises(TypeError, match="vuv"):
            self._track(f0=np.array(f0), vuv=np.array(vuv))
        assert np.array_equal(self._track(f0=np.array(f0)).vuv, np.array(f0) > 0)

    @pytest.mark.parametrize("name, index", [("f0", 1), ("mcep", (1, 4))])
    def test_arrays_are_read_only_views(self, tmp_path, name, index):
        # a track once checked stays valid: writing -5 into its F0 would make
        # an .aftk that read_feature_file rejects
        given = dict(f0=np.array([0.0, 120.0, 0.0]), mcep=np.zeros((3, 41)))
        track = self._track(**given)
        with pytest.raises(ValueError, match="read-only"):
            getattr(track, name)[index] = -5.0
        write_feature_file(tmp_path / "t.aftk", track)
        assert np.array_equal(getattr(read_feature_file(tmp_path / "t.aftk"), name), given[name])
        # the view is of the track's own copy, not of the caller's array
        assert getattr(track, name).flags.owndata
        assert not np.shares_memory(getattr(track, name), given[name])
        given[name][index] = 7.0  # the caller's own array stays writeable
        assert getattr(track, name)[index] == {"f0": 120.0, "mcep": 0.0}[name]

    def test_a_write_to_the_given_arrays_leaves_the_track_finite(self, params):
        # before: the track shared the caller's arrays, and a NaN written into
        # them after the check reached recover_alas's output
        f0 = np.where(np.arange(6) % 2, 150.0, 0.0)
        mcep = 0.1 * np.random.default_rng(3).standard_normal((6, 41))
        track = self._track(f0=f0, mcep=mcep)
        want = recover_alas(track, params)
        f0[1] = mcep[2, 7] = np.nan
        assert np.array_equal(recover_alas(track, params), want)
        assert np.isfinite(want).all()

    def test_lists_are_coerced_to_float64(self):
        track = self._track(f0=[0, 120, 0], mcep=[[0] * 41] * 3)
        assert track.f0.dtype == track.mcep.dtype == np.float64
        assert track.mcep.shape == (3, 41)
        assert np.array_equal(track.vuv, [False, True, False])

    @pytest.mark.parametrize("shape", [(3,), (3, 40), (3, 42), (2, 41), (1, 3, 41)])
    def test_mcep_must_be_frames_by_41(self, shape):
        with pytest.raises(ValueError, match=r"mcep must be 3 frames x 41 mel-cepstra"):
            self._track(mcep=np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_f0_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="f0 must be finite and nonnegative"):
            self._track(f0=np.array([0.0, 120.0, bad]))

    @pytest.mark.parametrize("f0", [np.zeros(0), np.zeros((3, 1)), 120.0])
    def test_f0_must_be_a_non_empty_vector(self, f0):
        with pytest.raises(ValueError, match="f0 must be a non-empty 1-D array"):
            self._track(f0=f0)

    def test_non_finite_mcep_rejected(self):
        mcep = np.zeros((3, 41))
        mcep[1, 7] = np.nan
        with pytest.raises(ValueError, match="mcep must be finite"):
            self._track(mcep=mcep)

    def test_negative_zero_f0_is_unvoiced(self, params):
        track = self._track(f0=np.array([-0.0, 120.0, -0.0]))
        assert np.array_equal(track.vuv, [False, True, False])
        np.testing.assert_array_equal(recover_alas(track, params)[0],
                                      recover_alas(self._track(), params)[0])
