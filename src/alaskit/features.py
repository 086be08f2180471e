"""Acoustic feature extraction: F0 with voicing decision, and mel-cepstra.

One frame carries F0, a voiced/unvoiced flag, an energy coefficient and 40
mel-cepstral coefficients, extracted on the same frame grid as the log
amplitude spectra.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dsp import (
    AnalysisParams,
    Waveform,
    _check_sample_rate,
    _frames,
    _integer,
    extract_las,
    num_frames,
    warp_cepstrum,
)

F0_MIN = 50.0
F0_MAX = 500.0
VOICING_THRESHOLD = 0.3
RMS_GATE = 1e-4
MCEP_ORDER = 40


@dataclass(frozen=True, eq=False)
class FeatureTrack:
    """Frame-synchronous feature arrays.

    ``mcep`` has shape (N, order+1) with the energy coefficient in column 0.
    The voicing flag and F0 are consistent: f0 > 0 exactly on voiced frames.
    ``frame_shift`` and ``sample_rate`` are integers, stored as ``int``.
    """

    f0: np.ndarray
    vuv: np.ndarray
    mcep: np.ndarray
    frame_shift: int
    sample_rate: int

    def __post_init__(self):
        if self.f0.ndim != 1 or self.f0.size == 0:
            raise ValueError("feature track must be non-empty")
        if self.vuv.shape != self.f0.shape or self.mcep.shape[0] != self.f0.size:
            raise ValueError("inconsistent feature array lengths")
        if not np.array_equal(self.vuv, self.f0 > 0):
            raise ValueError("vuv must equal f0 > 0: voiced exactly where F0 is positive")
        for name in ("frame_shift", "sample_rate"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))

    def __len__(self):
        return self.f0.size


def estimate_f0(wave: Waveform, params: AnalysisParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame F0 and voicing by normalized autocorrelation.

    For each frame the lag range [sample_rate/F0_MAX, sample_rate/F0_MIN]
    is searched; a frame is voiced when the peak normalized autocorrelation
    reaches VOICING_THRESHOLD and the frame RMS clears RMS_GATE. The peak
    lag is refined by parabolic interpolation, preferring the shortest lag
    among near-ties to avoid octave errors. Unvoiced frames get f0 = 0.
    The waveform must be at ``params.sample_rate``, at least F0_MAX Hz.
    """
    _check_sample_rate(wave, params)
    fs, shift, length = params.sample_rate, params.frame_shift, params.frame_len
    if fs < F0_MAX:
        raise ValueError(f"F0 analysis needs a sample rate of at least {F0_MAX:g} Hz, got {fs} Hz")
    lag_min = int(fs / F0_MAX)
    lag_max = min(int(np.ceil(fs / F0_MIN)), len(wave))  # later lags meet only zero padding (r = 0)
    n = num_frames(len(wave), shift)
    segments = _frames(wave.samples, n, length + lag_max, shift)

    f0 = np.zeros(n)
    vuv = np.zeros(n, dtype=bool)
    for i, seg in enumerate(segments):
        base = seg[:length]
        base_energy = float(base @ base)
        if lag_max <= lag_min or np.sqrt(base_energy / length) < RMS_GATE:
            continue
        corr = np.correlate(seg, base, mode="valid")  # lag 0..lag_max
        sq = np.concatenate(([0.0], np.cumsum(seg * seg)))
        energies = sq[length:] - sq[: lag_max + 1]
        r = corr / np.sqrt(base_energy * energies + 1e-300)
        span = r[lag_min : lag_max + 1]
        peak = float(span.max())
        if peak < VOICING_THRESHOLD:
            continue
        lag = lag_min + _pick_peak_lag(span, peak)
        lag_f = lag + _parabolic_offset(r, lag)
        f0[i] = float(np.clip(fs / lag_f, F0_MIN, F0_MAX))
        vuv[i] = True
    return f0, vuv


def _pick_peak_lag(span: np.ndarray, peak: float) -> int:
    """Shortest local maximum within 3% of the peak, to dodge period multiples."""
    local_max = np.zeros(span.size, dtype=bool)
    local_max[1:-1] = (span[1:-1] >= span[:-2]) & (span[1:-1] >= span[2:])
    local_max[0] = span[0] >= span[1]
    local_max[-1] = span[-1] >= span[-2]
    candidates = np.nonzero(local_max & (span >= 0.97 * peak))[0]
    if candidates.size == 0:
        return int(np.argmax(span))
    return int(candidates[0])


def _parabolic_offset(r: np.ndarray, lag: int) -> float:
    """Sub-sample peak offset from a 3-point parabolic fit, in (-0.5, 0.5)."""
    if lag <= 0 or lag >= r.size - 1:
        return 0.0
    denom = r[lag - 1] - 2.0 * r[lag] + r[lag + 1]
    if abs(denom) < 1e-12:
        return 0.0
    return float(np.clip(0.5 * (r[lag - 1] - r[lag + 1]) / denom, -0.5, 0.5))


@lru_cache(maxsize=8)
def _cepstral_analysis_map(params: AnalysisParams) -> np.ndarray:
    """K x K map from a log spectrum to its warped cepstrum: row j is the
    -alpha warp of the first K samples of the j-th unit bin's inverse FFT."""
    k = params.num_bins
    cepstra = np.fft.irfft(np.eye(k), n=params.fft_size)[:, :k]
    return warp_cepstrum(cepstra, -params.warp_alpha)


def mcep_analysis(las_frame: np.ndarray, params: AnalysisParams, order: int = MCEP_ORDER) -> np.ndarray:
    """Warped cepstral coefficients (energy first) of log spectrum frames.

    Inverse of the synthesis path: each mirrored log spectrum (last axis)
    is inverse Fourier transformed to a length-K cepstrum, warped with
    -alpha, and truncated to order+1 coefficients. Leading axes are batch
    axes.
    """
    las_frame = np.asarray(las_frame, dtype=np.float64)
    k = params.num_bins
    if las_frame.ndim == 0 or las_frame.shape[-1] != k:
        raise ValueError(f"expected length-{k} log spectra, got {las_frame.shape}")
    if order < 1 or order + 1 > k:
        raise ValueError("order must be in [1, num_bins-1]")
    return las_frame @ _cepstral_analysis_map(params)[:, : order + 1]


def extract_features(wave: Waveform, params: AnalysisParams, order: int = MCEP_ORDER) -> FeatureTrack:
    """Full acoustic feature track: F0/voicing plus per-frame mel-cepstra."""
    return _track_from_las(wave, extract_las(wave, params), params, order)


def _track_from_las(wave: Waveform, las: np.ndarray, params: AnalysisParams,
                    order: int = MCEP_ORDER) -> FeatureTrack:
    """extract_features for a wave whose extract_las is already computed."""
    f0, vuv = estimate_f0(wave, params)
    mcep = mcep_analysis(las, params, order)
    return FeatureTrack(
        f0=f0, vuv=vuv, mcep=mcep, frame_shift=params.frame_shift, sample_rate=params.sample_rate
    )
