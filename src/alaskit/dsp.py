"""Core STFT utilities: framing, windowing, log amplitude spectra, Griffin-Lim.

A log amplitude spectrum (LAS) matrix is a plain float64 ndarray of shape
(num_frames, num_bins) holding natural-log magnitudes, floored at
``log(params.log_floor)``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class AnalysisParams:
    """Frame/FFT geometry and warping constant shared by all stages.

    Defaults give 20 ms frames with 5 ms shift at 16 kHz, a 512-point FFT
    (257 bins) and warp coefficient 0.42.
    """

    sample_rate: int = 16000
    frame_len: int = 320
    frame_shift: int = 80
    fft_size: int = 512
    warp_alpha: float = 0.42
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.frame_len < 2:
            raise ValueError("frame_len must be >= 2")
        if self.frame_len % 2 != 0:
            raise ValueError("frame_len must be even (zero-phase window centering)")
        if self.frame_shift < 1 or self.frame_shift > self.frame_len:
            raise ValueError("frame_shift must be in [1, frame_len]")
        if self.fft_size < self.frame_len:
            raise ValueError("fft_size must be >= frame_len")
        if self.fft_size & (self.fft_size - 1) != 0:
            raise ValueError("fft_size must be a power of two")
        if not 0.0 <= self.warp_alpha < 1.0:
            raise ValueError("warp_alpha must be in [0, 1)")
        if not 0.0 < self.log_floor < math.inf:  # false for NaN
            raise ValueError("log_floor must be finite and positive")

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True, eq=False)
class Waveform:
    """Mono PCM samples (float, nominally in [-1, 1]) with a sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    def __len__(self):
        return self.samples.size


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window: w[j] = 0.5 - 0.5*cos(2*pi*j/length)."""
    if length < 2:
        raise ValueError("window length must be >= 2")
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def num_frames(n_samples: int, frame_shift: int) -> int:
    """Frame count for a signal: one frame per started shift interval."""
    return -(-n_samples // frame_shift)


def _frame_grid(n: int, length: int, shift: int) -> np.ndarray:
    """(n, length) sample indices of the frame grid: frame i starts at i*shift."""
    return shift * np.arange(n)[:, None] + np.arange(length)


def _frames(samples: np.ndarray, n: int, length: int, shift: int) -> np.ndarray:
    """Exactly n >= 1 frames of ``length`` samples on the ``shift`` grid, the
    samples zero-padded or truncated to the (n-1)*shift + length it spans,
    as a read-only strided view of that span (no copy per frame)."""
    if n < 1:
        raise ValueError("empty input")
    span = np.zeros((n - 1) * shift + length)
    kept = min(span.size, samples.size)
    span[:kept] = samples[:kept]
    return np.lib.stride_tricks.sliding_window_view(span, length)[::shift]


def _check_sample_rate(wave: Waveform, params: AnalysisParams) -> None:
    if wave.sample_rate != params.sample_rate:
        raise ValueError(f"waveform at {wave.sample_rate} Hz, params at {params.sample_rate} Hz")


def frame_signal(wave: Waveform, params: AnalysisParams) -> np.ndarray:
    """Cut a waveform into overlapping frames of length ``params.frame_len``.

    Frame n starts at n*frame_shift; the tail is zero-padded so every frame
    has full length. Returns an (N, frame_len) array.
    """
    shift = params.frame_shift
    return _frames(wave.samples, num_frames(len(wave), shift), params.frame_len, shift).copy()


def extract_las(wave: Waveform, params: AnalysisParams) -> np.ndarray:
    """Log amplitude spectra of a waveform: per frame, log|FFT(frame * hann)|.

    Magnitudes are floored at ``params.log_floor`` before the log, so the
    result is finite everywhere and >= log(log_floor). The waveform must be
    at ``params.sample_rate``.
    """
    _check_sample_rate(wave, params)
    frames = frame_signal(wave, params)
    window = hann_window(params.frame_len)
    spectra = np.fft.rfft(frames * window, n=params.fft_size, axis=1)
    return np.log(np.maximum(np.abs(spectra), params.log_floor))


def mirror_full_spectrum(half: np.ndarray, fft_size: int) -> np.ndarray:
    """Expand length-K half spectra to even-symmetric full spectra.

    out[..., k] = half[..., k] for k < K and out[..., fft_size-k] =
    half[..., k] for k = 1..K-2, so each row is real-even over the
    fft_size-point circle. Leading axes are batch axes.
    """
    half = np.asarray(half, dtype=np.float64)
    k = fft_size // 2 + 1
    if half.ndim == 0 or half.shape[-1] != k:
        raise ValueError(f"expected length-{k} half spectra, got {half.shape}")
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)


@lru_cache(maxsize=8)
def _warp_matrix(size: int, alpha: float) -> np.ndarray:
    """Matrix form of the warp recursion, cached per (size, alpha).

    Column j holds the warped image of the j-th unit input: the unit
    impulse after j passes of the first-order all-pass section
    q[k] = p[k-1] - alpha*(p[k] - q[k-1]). In matrix form the section is
    T @ (shift - alpha*I), where T[i, k] = alpha^(i-k) for i >= k inverts
    the feedback (I - alpha*shift).
    """
    idx = np.arange(size)
    feedback = np.tril(alpha ** np.abs(idx[:, None] - idx))
    section = feedback @ (np.eye(size, k=-1) - alpha * np.eye(size))
    columns = [np.eye(size)[0]]
    for _ in range(size - 1):
        columns.append(section @ columns[-1])
    return np.stack(columns, axis=1)


def warp_cepstrum(m: np.ndarray, alpha: float) -> np.ndarray:
    """All-pass frequency warp of cepstral vectors (the last axis).

    Runs the iterative scheme (i from len(m) down to 1, state starting at
    zero):

        c1(i) = m[i] - alpha*c1(i+1)
        c2(i) = (1 - alpha^2)*c1(i+1) - alpha*c2(i+1)
        ck(i) = ck-1(i+1) - alpha*(ck(i+1) - ck-1(i))    for k > 2

    and returns [c1(1), ..., cK(1)]. The scheme is linear, so it is applied
    as a cached matrix product; alpha and -alpha are inverse warps for
    inputs whose warped image fits the vector length.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 0 or m.shape[-1] == 0:
        raise ValueError("expected non-empty cepstral vectors")
    if abs(alpha) >= 1.0:
        raise ValueError("|alpha| must be < 1")
    if alpha == 0.0:
        return m.copy()
    return m @ _warp_matrix(m.shape[-1], float(alpha)).T


def _check_las(las, bins: int | None = None) -> np.ndarray:
    """The LAS as float64, if it is 2-D with at least one frame and one bin,
    ``bins`` bins when given, and finite everywhere; else a ValueError."""
    las = np.asarray(las, dtype=np.float64)
    if las.ndim != 2 or 0 in las.shape or (bins is not None and las.shape[1] != bins):
        raise ValueError(f"LAS must be (frames >= 1, {bins or 'bins >= 1'}), got shape {las.shape}")
    if not np.isfinite(las).all():
        raise ValueError("LAS values must be finite")
    return las


_EXP_MAX = 709.78  # exp overflows above ~709.7827


def _las_magnitudes(las: np.ndarray, params: AnalysisParams) -> np.ndarray:
    """exp(las), for a _check_las LAS of ``params.num_bins`` bins with finite exp."""
    las = _check_las(las, params.num_bins)
    if las.max() > _EXP_MAX:
        raise ValueError(f"LAS values must be at most {_EXP_MAX} (exp(las) must be finite)")
    return np.exp(las)


def _inverse_stft(grid: np.ndarray, window: np.ndarray, fft_size: int):
    """Least-squares inverse STFT on a frame grid, as a function of the spectra:
    windowed overlap-add (one scatter-add) over the squared-window sum. Samples
    covered below 1% of the peak level are left unnormalized; dividing there
    would amplify edge samples by up to the inverse squared window value.
    The inverse FFT and windowed frames go to buffers allocated once here;
    each call returns a new signal."""
    index = grid.ravel()
    norm = np.bincount(index, np.tile(window * window, grid.shape[0]))
    norm[norm <= 0.01 * norm.max()] = 1.0
    full = np.empty((grid.shape[0], fft_size))
    frames = np.empty(grid.shape)  # contiguous, so ravel is a view

    def synthesize(spectra: np.ndarray) -> np.ndarray:
        np.fft.irfft(spectra, n=fft_size, axis=1, out=full)
        np.multiply(full[:, : window.size], window, out=frames)
        signal = np.bincount(index, frames.ravel())
        signal /= norm
        return signal

    return synthesize


def griffin_lim(las: np.ndarray, params: AnalysisParams, iters: int = 60,
                momentum: float = 0.99) -> Waveform:
    """Reconstruct a waveform whose STFT magnitude matches exp(las).

    Alternating projection: overlap-add synthesis from the current
    magnitude/phase estimate, then re-analysis to update the phase. With
    ``momentum`` alpha > 0 this is fast Griffin-Lim (Perraud, Magron &
    Badeau, 2013): each phase comes from the analysed spectra minus
    alpha/(1+alpha) times the previous iteration's analysed spectra;
    alpha = 0 is the classic algorithm. The STFT is linear, so the step is
    taken on the signal before analysis: STFT(x) - c * STFT(x_prev) is
    STFT(x - c * x_prev). The start is deterministic: a linear phase placing
    each frame's energy at the window center. If the result peaks above 1
    it is scaled down to unit peak. Every iteration runs in buffers
    allocated once per call.
    """
    magnitudes = _las_magnitudes(las, params)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not 0.0 <= momentum <= 1.0:  # false for NaN
        raise ValueError(f"momentum must be in [0, 1], got {momentum}")
    length = params.frame_len
    window = hann_window(length)
    grid = _frame_grid(magnitudes.shape[0], length, params.frame_shift)
    synthesize = _inverse_stft(grid, window, params.fft_size)
    phase = -2.0 * np.pi * np.arange(params.num_bins) * (length // 2) / params.fft_size
    spectra = magnitudes * np.exp(1j * phase)
    frames = np.empty(grid.shape)
    padded = np.zeros((grid.shape[0], params.fft_size))
    size = np.empty(magnitudes.shape)
    step = momentum / (1.0 + momentum)
    previous = None
    for _ in range(iters - 1):
        signal = synthesize(spectra)
        # the signal whose analysis sets the phase
        estimate = signal if previous is None or not step else signal - step * previous
        previous = signal
        # indices are in range; mode="clip" writes to out, "raise" buffers a copy
        np.take(estimate, grid, out=frames, mode="clip")
        np.multiply(frames, window, out=padded[:, :length])
        np.fft.rfft(padded, axis=1, out=spectra)
        np.abs(spectra, out=size)
        if not size.all():  # a zero bin keeps phasor 1, as np.angle's phase 0
            zero = size == 0
            spectra[zero] = size[zero] = 1.0
        np.divide(magnitudes, size, out=size)
        spectra *= size  # magnitudes times the unit phasors spectra / |spectra|
    signal = synthesize(spectra)
    return Waveform(signal / max(1.0, np.max(np.abs(signal))), params.sample_rate)


def magnitude_error(signal: Waveform, las: np.ndarray, params: AnalysisParams) -> float:
    """Frobenius distance between |STFT(signal)| and the target exp(las).

    The STFT has las.shape[0] frames: a signal shorter than they span is
    zero-padded, a longer one truncated. The signal must be at
    ``params.sample_rate``; the LAS is checked as in griffin_lim.
    """
    target = _las_magnitudes(las, params)
    _check_sample_rate(signal, params)
    frames = _frames(signal.samples, target.shape[0], params.frame_len, params.frame_shift)
    got = np.abs(np.fft.rfft(frames * hann_window(params.frame_len), n=params.fft_size, axis=1))
    return float(math.sqrt(np.sum((got - target) ** 2)))
