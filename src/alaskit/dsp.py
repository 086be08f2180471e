"""Core STFT utilities: framing, windowing, log amplitude spectra, Griffin-Lim.

A log amplitude spectrum (LAS) matrix is a plain float64 ndarray of shape
(num_frames, num_bins) holding natural-log magnitudes, floored at
``log(params.log_floor)``.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _at_least(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an int or a numpy integer of at least
    ``minimum``, else a ValueError stating ``name``, the rule and the value:
    the one rule of every count and rate. A float, even 320.0, is not taken
    as a count or a rate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _agree(field: str, first, first_from: str, value, value_from: str) -> None:
    """A ValueError stating both values and their sources unless ``value``
    (from ``value_from``) equals ``first`` (from ``first_from``): the one
    rule of two sources of one geometry ``field``, such as an AnalysisParams
    field, whose underscores print as spaces."""
    if value != first:
        raise ValueError(f"{field.replace('_', ' ')} mismatch: {first} from {first_from}, "
                         f"{value} from {value_from}")


def _finite(result, overflow: str, *inputs, refused: str = "LAS values must be finite"):
    """``result``, computed with float errors ignored, if it is finite
    everywhere; else a ValueError: ``refused`` if one of ``inputs`` is not
    finite (they are read only then), else ``overflow``. The one rule of a
    non-finite result: bad input, or an overflow of good input."""
    if not np.isfinite(result).all():
        raise ValueError(overflow if all(np.isfinite(x).all() for x in inputs) else refused)
    return result


def _read_only_float64(value) -> np.ndarray:
    """``value`` as a new, read-only float64 array: what is checked in it
    cannot change afterwards, through it or through the caller's array."""
    owned = np.array(value, dtype=np.float64)
    owned.flags.writeable = False
    return owned


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
        for name, minimum in (("sample_rate", 1), ("frame_len", 2), ("frame_shift", 1)):
            object.__setattr__(self, name, _at_least(name, getattr(self, name), minimum))
        object.__setattr__(self, "fft_size", _at_least("fft_size", self.fft_size, self.frame_len))
        if self.frame_len % 2 != 0:
            raise ValueError(f"frame_len must be even (zero-phase window centering), "
                             f"got {self.frame_len}")
        if self.frame_shift > self.frame_len:
            raise ValueError(f"frame_shift must be in [1, frame_len], got {self.frame_shift} "
                             f"with frame_len {self.frame_len}")
        if self.fft_size & (self.fft_size - 1) != 0:
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if not 0.0 <= self.warp_alpha < 1.0:
            raise ValueError(f"warp_alpha must be in [0, 1), got {self.warp_alpha!r}")
        if not 0.0 < self.log_floor < math.inf:  # false for NaN
            raise ValueError(f"log_floor must be finite and positive, got {self.log_floor!r}")

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True, eq=False)
class Waveform:
    """Mono PCM samples (float, nominally in [-1, 1]) with a sample rate.

    ``samples`` must be 1-D, non-empty and finite, so every analysis has at
    least one frame. It is stored as a read-only float64 copy of what was
    given, so a checked waveform cannot change afterwards, and its peak
    |sample| is kept for the analyses that bound it; ``sample_rate`` is a
    positive integer, stored as ``int``.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _read_only_float64(self.samples))
        object.__setattr__(self, "sample_rate", _at_least("sample_rate", self.sample_rate, 1))
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size == 0:
            raise ValueError("no samples")
        # max and min both give NaN on a NaN, so the peak is NaN or inf
        # exactly when a sample is not finite
        peak = max(float(self.samples.max()), -float(self.samples.min()))
        if not peak < math.inf:
            raise ValueError("samples must be finite")
        object.__setattr__(self, "_peak", peak)

    def __len__(self):
        return self.samples.size


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window: w[j] = 0.5 - 0.5*cos(2*pi*j/length)."""
    length = _at_least("window length", length, 2)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def num_frames(n_samples: int, frame_shift: int) -> int:
    """Frame count for a signal: one frame per started shift interval."""
    return -(-n_samples // frame_shift)


def _frame_view(span: np.ndarray, length: int, shift: int, writeable: bool = False) -> np.ndarray:
    """The frames of ``length`` samples starting every ``shift`` samples of
    ``span`` that lie inside it, as a strided view (no copy); read-only
    unless ``writeable``, which is safe only while length <= shift, where
    no two frames share a sample."""
    return np.lib.stride_tricks.sliding_window_view(span, length, writeable=writeable)[::shift]


def _padded(samples: np.ndarray, length: int, shift: int) -> np.ndarray:
    """The (n-1)*shift + length samples that the n = num_frames frames of
    ``length`` samples on the ``shift`` grid span: the samples zero-padded
    to that size, in a new array. As (n-1)*shift >= samples.size - shift,
    the span holds every sample if length >= shift, which AnalysisParams
    keeps (frame_shift <= frame_len)."""
    span = np.zeros((num_frames(samples.size, shift) - 1) * shift + length)
    span[: samples.size] = samples
    return span


def _check_peak(wave: Waveform, limit: float, analysis: str, overflow: str) -> None:
    """Refuse a ``wave`` whose peak |sample| is above ``limit``: the
    ValueError names the ``analysis`` and says what would ``overflow``."""
    if wave._peak > limit:
        raise ValueError(f"{analysis} analysis needs samples of magnitude at most {limit:.3g} "
                         f"({overflow}), got {wave._peak:.3g}")


def frame_signal(wave: Waveform, params: AnalysisParams) -> np.ndarray:
    """Cut a waveform into overlapping frames of length ``params.frame_len``.

    Frame n starts at n*frame_shift; the tail is zero-padded so every frame
    has full length. Returns an (N, frame_len) array.
    """
    length, shift = params.frame_len, params.frame_shift
    return _frame_view(_padded(wave.samples, length, shift), length, shift).copy()


def extract_las(wave: Waveform, params: AnalysisParams) -> np.ndarray:
    """Log amplitude spectra of a waveform: per frame, log|FFT(frame * hann)|.

    Magnitudes are floored at ``params.log_floor`` before the log, so the
    result is finite everywhere and >= log(log_floor). The waveform must be
    at ``params.sample_rate``, and its peak |sample| at most float64 max /
    frame_len (about 5.6e305 at the default geometry), so that every
    magnitude stays finite; a larger one is a ValueError.
    """
    _agree("sample_rate", wave.sample_rate, "wave", params.sample_rate, "params")
    length, shift = params.frame_len, params.frame_shift
    frames = _frame_view(_padded(wave.samples, length, shift), length, shift)
    # |X[k]| is at most the peak times the window's sum, frame_len / 2, so
    # this limit leaves a factor 2 of headroom inside the FFT.
    _check_peak(wave, np.finfo(np.float64).max / length, "LAS", "the spectra overflow")
    las = np.abs(np.fft.rfft(frames * hann_window(length), n=params.fft_size, axis=1))
    np.maximum(las, params.log_floor, out=las)
    return np.log(las, out=las)


@lru_cache(maxsize=8)
def _warp_matrix(size: int, alpha: float) -> np.ndarray:
    """Matrix form of the warp recursion, cached per (size, alpha).

    Column j holds the warped image of the j-th unit input: the unit
    impulse after j passes of the first-order all-pass section
    q[k] = p[k-1] - alpha*(p[k] - q[k-1]). In matrix form the section is
    T @ (shift - alpha*I), where T[i, k] = alpha^(i-k) for i >= k inverts
    the feedback (I - alpha*shift); its column j is T's column j+1 (zero
    past the last) minus alpha times T's column j.
    """
    idx = np.arange(size)
    feedback = np.tril((alpha ** idx)[np.abs(idx[:, None] - idx)])
    section = -alpha * feedback
    section[:, :-1] += feedback[:, 1:]
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
    inputs whose warped image fits the vector length. The vectors must be
    finite, and so must their warp.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 0 or m.shape[-1] == 0:
        raise ValueError("expected non-empty cepstral vectors")
    if not np.isfinite(m).all():
        raise ValueError("cepstral vectors must be finite")
    if not abs(alpha) < 1.0:  # false for NaN
        raise ValueError(f"alpha must be finite with |alpha| < 1, got {alpha}")
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        warped = m @ _warp_matrix(m.shape[-1], float(alpha)).T
    return _finite(warped, "cepstral vectors too large: their warp overflows")


def _check_las_shape(las, bins: int | None = None) -> np.ndarray:
    """The LAS as float64, if it is 2-D with at least one frame and one bin,
    and ``bins`` bins when given; else a ValueError. The shape half of the
    LAS rule: a function whose result is non-finite wherever its LAS is
    checks this before any work, and the values through _finite."""
    las = np.asarray(las, dtype=np.float64)
    if las.ndim != 2 or 0 in las.shape or (bins is not None and las.shape[1] != bins):
        raise ValueError(f"LAS must be (frames >= 1, {bins or 'bins >= 1'}), got shape {las.shape}")
    return las


def _check_las(las, bins: int | None = None) -> np.ndarray:
    """The LAS as float64, if _check_las_shape takes it and it is finite
    everywhere; else a ValueError."""
    las = _check_las_shape(las, bins)
    if not np.isfinite(las).all():
        raise ValueError("LAS values must be finite")
    return las


_EXP_MAX = 709.78  # exp overflows above ~709.7827


def _overlap_add(frames: np.ndarray, shift: int, out: np.ndarray | None = None) -> np.ndarray:
    """Overlap-add of (n, length) frames on the ``shift`` grid: the
    (n-1)*shift + length samples to which frame i adds from sample i*shift,
    written over ``out`` if given, else a new array.

    The transpose of framing: the frames are cut into ceil(length/shift)
    column pieces of at most ``shift`` samples, and piece k of every frame
    is added at once through a writeable _frame_view of the samples from
    k*shift, the last piece first. Each sample so sums its frames in
    ascending frame order starting from 0.0, as a per-frame loop does.
    """
    n, length = frames.shape
    out = np.empty((n - 1) * shift + length) if out is None else out
    out.fill(0.0)
    for start in reversed(range(0, length, shift)):
        piece = frames[:, start : start + shift]
        _frame_view(out[start:], piece.shape[1], shift, writeable=True)[:n] += piece
    return out


def _thread_pool():
    """A pool of two threads. concurrent.futures is imported here, not with
    this module, because it imports logging: about 5 ms on every command."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(2)


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
    it is scaled down to unit peak. Analysis reads the frames as a
    _frame_view of the signal, synthesis is _overlap_add over the
    squared-window sum, and every iteration runs in buffers allocated once
    per call.

    The per-frame work of every iteration after the first synthesis
    (analysis, magnitude projection, inverse FFT and windowing) runs over
    two row blocks, the first n//2 frames and the rest, on two threads of a
    pool that lives for the call; the first synthesis, overlap-add and the
    momentum step run on the calling thread. Each row's arithmetic does not
    depend on its block, so the output does not depend on the CPU count.
    """
    las = _check_las(las, params.num_bins)
    if las.max() > _EXP_MAX:
        raise ValueError(f"LAS values must be at most {_EXP_MAX} (exp(las) must be finite)")
    iters = _at_least("iters", iters, 1)
    if not 0.0 <= momentum <= 1.0:  # false for NaN
        raise ValueError(f"momentum must be in [0, 1], got {momentum}")
    magnitudes = np.exp(las)
    n, length, shift = magnitudes.shape[0], params.frame_len, params.frame_shift
    window = hann_window(length)
    norm = _overlap_add(np.broadcast_to(window * window, (n, length)), shift)
    # samples covered below 1% of the peak stay unnormalized: dividing there
    # would amplify edge samples by up to the inverse squared window value
    norm[norm <= 0.01 * norm.max()] = 1.0
    phase = -2.0 * np.pi * np.arange(params.num_bins) * (length // 2) / params.fft_size
    spectra = magnitudes * np.exp(1j * phase)
    full = np.empty((n, params.fft_size))
    np.fft.irfft(spectra, n=params.fft_size, axis=1, out=full)
    full[:, :length] *= window
    signal, previous, estimate = np.empty((3, norm.size))
    analysed = _frame_view(estimate, length, shift)

    def per_frame(rows: slice) -> None:
        """For the frames in ``rows``: analyse ``estimate``, project the
        spectra onto the target magnitudes, then write the windowed inverse
        FFTs to the first frame_len columns of ``full``. Analysis windows the
        frames into ``full``, zero-padded, and once they are transformed
        takes its first num_bins columns for the scale."""
        spectrum, frames = spectra[rows], full[rows]
        np.multiply(analysed[rows], window, out=frames[:, :length])
        frames[:, length:] = 0.0
        np.fft.rfft(frames, axis=1, out=spectrum)
        scale = np.abs(spectrum, out=frames[:, : params.num_bins])
        if not scale.all():  # a zero bin keeps phasor 1, as np.angle's phase 0
            zero = scale == 0
            spectrum[zero] = scale[zero] = 1.0
        np.divide(magnitudes[rows], scale, out=scale)
        spectrum *= scale  # magnitudes times the unit phasors spectrum / |spectrum|
        np.fft.irfft(spectrum, n=params.fft_size, axis=1, out=frames)
        frames[:, :length] *= window

    blocks = [slice(0, n // 2), slice(n // 2, n)]
    step = momentum / (1.0 + momentum)
    with _thread_pool() as pool:
        for it in range(iters - 1):
            signal, previous = _overlap_add(full[:, :length], shift, out=previous), signal
            signal /= norm
            # the signal whose analysis sets the phase; x - 0.0 is x, also for -0.0
            term = np.multiply(previous, step, out=estimate) if it and step else 0.0
            np.subtract(signal, term, out=estimate)
            for _ in pool.map(per_frame, blocks):
                pass  # reads every result, so a worker's exception is raised here
    signal = _overlap_add(full[:, :length], shift, out=previous)
    signal /= norm
    return Waveform(signal / max(1.0, np.max(np.abs(signal))), params.sample_rate)
