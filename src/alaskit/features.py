"""Acoustic feature extraction: F0 with voicing decision, and mel-cepstra.

One frame carries F0 (0 on unvoiced frames, so voicing is f0 > 0), an
energy coefficient and 40 mel-cepstral coefficients, extracted on the same
frame grid as the log amplitude spectra.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dsp import (
    AnalysisParams,
    Waveform,
    _agree,
    _at_least,
    _check_peak,
    _finite,
    _frame_view,
    _padded,
    _read_only_float64,
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

    ``f0`` is a non-empty 1-D array of finite, nonnegative F0 values in Hz;
    a frame is voiced exactly where f0 > 0 (see :attr:`vuv`). ``mcep`` has
    shape (N, 41): the energy coefficient in column 0, then 40 warped
    cepstral coefficients, all finite. Both are stored as read-only float64
    copies of what was given, so a checked track cannot change afterwards;
    ``frame_shift`` and ``sample_rate`` are integers, stored as ``int``.
    """

    f0: np.ndarray
    mcep: np.ndarray
    frame_shift: int
    sample_rate: int

    def __post_init__(self):
        for name in ("f0", "mcep"):
            object.__setattr__(self, name, _read_only_float64(getattr(self, name)))
        for name in ("frame_shift", "sample_rate"):
            object.__setattr__(self, name, _at_least(name, getattr(self, name), 1))
        n, width = self.f0.size, MCEP_ORDER + 1
        if self.f0.ndim != 1 or n == 0:
            raise ValueError("f0 must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.f0) & (self.f0 >= 0.0)):
            raise ValueError("f0 must be finite and nonnegative (0 marks an unvoiced frame)")
        if self.mcep.shape != (n, width):
            raise ValueError(f"mcep must be {n} frames x {width} mel-cepstra, "
                             f"got shape {self.mcep.shape}")
        if not np.all(np.isfinite(self.mcep)):
            raise ValueError("mcep must be finite")

    @property
    def vuv(self) -> np.ndarray:
        """Voicing flags, True exactly where f0 > 0."""
        return self.f0 > 0

    def __len__(self):
        return self.f0.size


def estimate_f0(wave: Waveform, params: AnalysisParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame F0 and voicing by normalized autocorrelation.

    For each frame the lag range [sample_rate/F0_MAX, sample_rate/F0_MIN]
    is searched; a frame is voiced when the peak normalized autocorrelation
    reaches VOICING_THRESHOLD and the frame RMS clears RMS_GATE. The peak
    lag is refined by parabolic interpolation, preferring the shortest lag
    among near-ties to avoid octave errors. Unvoiced frames get f0 = 0.
    The waveform must be at ``params.sample_rate``, at least F0_MAX Hz, and
    its peak |sample| small enough that the energy products stay finite
    (about 5.4e75 at the default geometry); a larger one is a ValueError.

    The frames go in chunks of about 32768 correlation values, and each
    step runs on the whole chunk at once: the correlations, the lagged and
    frame energies, the normalisation and the RMS gate
    (:func:`_normalized_correlation`), then the peak pick and the fit
    (:func:`_f0_from_correlation`). Each frame is cut into pieces of at
    most frame_shift samples, so a chunk computes each sample product once,
    not once per frame that overlaps it. Every energy, the frame's and the
    lagged ones, is read from one array of frame_len-wide window sums per
    chunk, which only adds squares (no running sum, so no cancellation).
    On samples on the 16-bit PCM grid, as every WAV gives, each
    product is an integer times 2**-30 and every sum is exact, so the output
    equals, to the bit, that of a search that correlates each frame whole;
    on other float samples the sums round in another order, and F0 agrees
    with it within 1e-12 relative.
    """
    _agree("sample_rate", wave.sample_rate, "wave", params.sample_rate, "params")
    fs, shift, length = params.sample_rate, params.frame_shift, params.frame_len
    if fs < F0_MAX:
        raise ValueError(f"F0 analysis needs a sample rate of at least {F0_MAX:g} Hz, got {fs} Hz")
    lag_min = int(fs / F0_MAX)
    lag_max = min(int(np.ceil(fs / F0_MIN)), len(wave))  # later lags meet only zero padding (r = 0)
    n = num_frames(len(wave), shift)
    span = _padded(wave.samples, length + lag_max, shift)

    f0 = np.zeros(n)
    if lag_max <= lag_min:
        return f0, f0 > 0
    # A lagged energy times the frame energy reaches at most length^2 * peak^4,
    # below length * (length + lag_max) * peak^4, which is finite up to this peak.
    limit = (np.finfo(np.float64).max / (length * (length + lag_max))) ** 0.25
    _check_peak(wave, limit, "F0", "the energy products overflow")
    # r is kept for lags lo..lag_max only: the span lag_min..lag_max and the
    # one lag below it that the parabolic fit reads (lag_min >= 1, as fs >= F0_MAX).
    lo = lag_min - 1
    chunk = max(1, 32768 // (lag_max - lo + 1))
    for start in range(0, n, chunk):
        rows = min(chunk, n - start)
        f0[start : start + rows] = _f0_from_correlation(_normalized_correlation(
            span[start * shift : (start + rows - 1) * shift + length + lag_max], rows, lo, length,
            shift), lo, fs)
    return f0, f0 > 0


def _normalized_correlation(span: np.ndarray, rows: int, lo: int, length: int,
                            shift: int) -> np.ndarray:
    """Per frame of ``length`` samples starting every ``shift`` samples of
    ``span``, ``rows`` of them, the correlation of the frame with the
    ``length`` samples from each lag lo..lag_max onward, divided by the
    square root of the product of their energies; 0 on a frame under
    RMS_GATE. ``span`` ends where the last frame's lag_max window does.

    A frame is cut into pieces of at most ``shift`` samples, as _overlap_add
    cuts it, so piece c of frame i is the block of samples from (i + c) *
    shift. Per piece width, one np.vecdot correlates every block the frames
    use with its lagged windows, and a frame's correlations are its pieces'
    rows summed in piece order. The energies come from one array over the
    span, the squares of every ``length``-sample window summed
    (:func:`_window_sums`): read at the frame starts, it gives the frames'
    energies, and through a strided view at the lags, their lagged ones.
    """
    lag_max = span.size - (rows - 1) * shift - length
    # sums[j]: the squares of span[j : j + length], summed
    sums = _window_sums(span * span, length)
    energy = sums[::shift][:rows]
    lagged = _frame_view(sums[lo:], lag_max - lo + 1, shift)[:rows] * energy[:, None]
    r = np.zeros_like(lagged)
    full, rest = divmod(length, shift)
    # the full-width pieces, then a narrower last one where shift does not divide length
    for first, count, width in [(0, full, shift), (full, 1, rest)][: 1 + (rest > 0)]:
        # blocks first .. first + count + rows - 2, each with its lag segment
        part = span[first * shift : (first + count + rows - 2) * shift + lag_max + width]
        blocks = _frame_view(part, lag_max + width, shift)
        corr = np.vecdot(np.lib.stride_tricks.sliding_window_view(blocks[:, lo:], width, axis=1),
                         blocks[:, None, :width])
        for c in range(count):
            r += corr[c : c + rows]
    lagged += 1e-300
    r /= np.sqrt(lagged, out=lagged)
    r[np.sqrt(energy / length) < RMS_GATE] = 0.0  # a gated frame reads as unvoiced
    return r


def _window_sums(x: np.ndarray, width: int) -> np.ndarray:
    """sums[j] = x[j : j + width].sum() for every window of ``width`` >= 1
    samples inside ``x``, built by doubling: the sums of widths 1, 2, 4, ...
    each from two of the width before, and one add into the result per set
    bit of ``width`` (at 320, the sums of widths 64 and 256)."""
    n = x.size - width + 1
    sums = np.zeros(n)
    size, done, power = 1, 0, x  # power[j]: x[j : j + size] summed
    while True:
        if width & size:
            sums += power[done : done + n]
            done += size
        if 2 * size > width:
            return sums
        power = power[:-size] + power[size:]
        size *= 2


def _f0_from_correlation(r: np.ndarray, lo: int, fs: int) -> np.ndarray:
    """F0 of each row of r, the normalized autocorrelation of one frame at
    lags lo..lo + r.shape[1] - 1; 0 where the peak over lags lo + 1 onward
    is below VOICING_THRESHOLD.

    The chosen lag is the first one from lo + 1 on where r reaches 0.97 *
    peak and, unless it is the last lag, does not rise at the next one.
    That is the shortest local maximum within 3% of the peak, which dodges
    period multiples: r stays below 0.97 * peak before the first lag that
    reaches it, rises strictly from there to the top of that climb, and
    the top reaches 0.97 * peak and does not rise after it. A three-point
    parabolic fit refines the lag, except at the last lag or on a flat top.
    """
    f0 = np.zeros(r.shape[0])
    peak = r[:, 1:].max(axis=1)
    voiced = np.flatnonzero(peak >= VOICING_THRESHOLD)
    rows = r[voiced]
    # picks[:, j]: lag lo + j qualifies; lag lo is there only for the fit
    picks = rows >= 0.97 * peak[voiced, None]
    picks[:, :-1] &= rows[:, 1:] <= rows[:, :-1]
    picks[:, 0] = False
    lag = np.argmax(picks, axis=1)
    last = r.shape[1] - 1
    inner = lag < last
    at = np.minimum(lag, last - 1)  # the fit's centre, kept inside r where there is no fit
    left, mid, right = (r[voiced, at + d] for d in (-1, 0, 1))
    denom = left - 2.0 * mid + right
    offset = np.zeros(voiced.size)
    np.divide(0.5 * (left - right), denom, out=offset, where=inner & (np.abs(denom) >= 1e-12))
    np.clip(offset, -0.5, 0.5, out=offset)
    f0[voiced] = np.clip(fs / (lo + lag + offset), F0_MIN, F0_MAX)
    return f0


@lru_cache(maxsize=8)
def _cepstral_analysis_map(params: AnalysisParams) -> np.ndarray:
    """K x K map from a log spectrum to its warped cepstrum: row j is the
    -alpha warp of the first K samples of the j-th unit bin's inverse FFT."""
    k = params.num_bins
    cepstra = np.fft.irfft(np.eye(k), n=params.fft_size)[:, :k]
    return warp_cepstrum(cepstra, -params.warp_alpha)


def mcep_analysis(las_frame: np.ndarray, params: AnalysisParams) -> np.ndarray:
    """Warped cepstral coefficients (energy first) of log spectrum frames.

    Inverse of the synthesis path: each mirrored log spectrum (last axis)
    is inverse Fourier transformed to a length-K cepstrum, warped with
    -alpha, and truncated to MCEP_ORDER+1 = 41 coefficients, which needs
    K > MCEP_ORDER bins. Leading axes are batch axes; the spectra must be
    finite, and so must their coefficients: spectra at the float64 limit
    can overflow the energy coefficient.

    The shape and the bin count are checked before any work. Every map
    entry a bin meets is a product, so a NaN or ±inf bin leaves its
    frame's coefficients non-finite: the spectra are checked only when the
    coefficients are, and a non-finite one is refused as "log spectra must
    be finite".
    """
    las_frame = np.asarray(las_frame, dtype=np.float64)
    k = params.num_bins
    if las_frame.ndim == 0 or las_frame.shape[-1] != k:
        raise ValueError(f"expected length-{k} log spectra, got {las_frame.shape}")
    if k <= MCEP_ORDER:
        raise ValueError(f"{MCEP_ORDER + 1} mel-cepstra need at least {MCEP_ORDER + 1} spectral "
                         f"bins, got {k} (fft_size {params.fft_size})")
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked
        mcep = las_frame @ _cepstral_analysis_map(params)[:, : MCEP_ORDER + 1]
    return _finite(mcep, "log spectra too large: their mel-cepstra overflow", las_frame,
                   refused="log spectra must be finite")


def extract_features(wave: Waveform, params: AnalysisParams) -> FeatureTrack:
    """Full acoustic feature track: F0 plus per-frame mel-cepstra."""
    return _track_from_las(wave, extract_las(wave, params), params)


def _track_from_las(wave: Waveform, las: np.ndarray, params: AnalysisParams) -> FeatureTrack:
    """extract_features for a wave whose extract_las is already computed."""
    return FeatureTrack(f0=estimate_f0(wave, params)[0], mcep=mcep_analysis(las, params),
                        frame_shift=params.frame_shift, sample_rate=params.sample_rate)
