"""Tests for F0 estimation, mel-cepstral analysis and feature extraction."""

import tracemalloc

import numpy as np
import pytest

import oracles
from alaskit import (
    AnalysisParams,
    Waveform,
    estimate_f0,
    extract_features,
    extract_las,
    filter_spectrum,
    mcep_analysis,
    warp_cepstrum,
)


def _sine(freq, seconds, fs, amp=0.5):
    t = np.arange(int(seconds * fs)) / fs
    return Waveform(amp * np.sin(2 * np.pi * freq * t), fs)


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
                f0, vuv = estimate_f0(Waveform(samples, params.sample_rate), params)
                expected_f0, expected_vuv = oracles.estimate_f0_padded(samples, params)
                assert np.array_equal(f0, expected_f0)
                assert np.array_equal(vuv, expected_vuv)


    def test_sample_rate_mismatch_rejected(self, params):
        with pytest.raises(ValueError, match="8000 Hz.*16000 Hz"):
            estimate_f0(_sine(200.0, 0.2, 8000), params)

    @pytest.mark.parametrize("rate", [400, 499])
    def test_sample_rate_below_f0_max_rejected(self, rate):
        with pytest.raises(ValueError, match=f"{rate} Hz"):
            estimate_f0(_sine(100.0, 1.0, rate), AnalysisParams(sample_rate=rate))

    @pytest.mark.parametrize("rate, samples", [(192000, 48000), (16_000_000, 1600)])
    def test_memory_does_not_grow_with_frames_times_lags(self, rate, samples):
        # A (frames, frame_len + lag range) copy of the segments would take
        # 40 MB for 0.25 s at 192 kHz; at 16 MHz the lag range runs far past
        # the signal's end, and scanning it would take 100 MB.
        wave = Waveform(0.5 * np.sin(2 * np.pi * 200.0 * np.arange(samples) / rate), rate)
        tracemalloc.start()
        try:
            f0, vuv = estimate_f0(wave, AnalysisParams(sample_rate=rate))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert vuv.any() == (rate == 192000)


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
        coeffs = mcep_analysis(las_frame, p, order=40)
        plain = np.fft.irfft(las_frame, n=p.fft_size)[:41]
        np.testing.assert_allclose(coeffs, plain, atol=1e-12)

    def test_round_trip_through_synthesis(self, params):
        rng = np.random.default_rng(9)
        truth = rng.standard_normal(41) * 0.8 ** np.arange(41)
        log_spec = np.log(filter_spectrum(truth, params))
        recovered = mcep_analysis(log_spec, params, order=40)
        rmse = float(np.sqrt(np.mean((recovered - truth) ** 2)))
        assert rmse < 1e-3

    def test_dimension_mismatch(self, params):
        with pytest.raises(ValueError):
            mcep_analysis(np.zeros(100), params)

    def test_batch_matches_per_frame_oracle(self, params, vowel_corpus):
        # measured: 4e-15
        for wave in vowel_corpus:
            las = extract_las(wave, params)
            batch = mcep_analysis(las, params)
            assert batch.shape == (las.shape[0], 41)
            for row, frame in zip(batch, las):
                np.testing.assert_allclose(row, oracles.mcep_frame(frame, params),
                                           rtol=0, atol=1e-12)


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

    def test_empty_input(self, params):
        with pytest.raises(ValueError, match="empty input"):
            extract_features(Waveform(np.zeros(0), 16000), params)

    def test_sample_rate_mismatch_rejected(self, params):
        with pytest.raises(ValueError, match="8000 Hz.*16000 Hz"):
            extract_features(_sine(200.0, 0.2, 8000), params)
