"""Core STFT utilities: framing, windowing, log amplitude spectra, Griffin-Lim.

A log amplitude spectrum (LAS) matrix is a plain float64 ndarray of shape
(num_frames, num_bins) holding natural-log magnitudes, floored at
``log(params.log_floor)``.
"""

import math
import numbers
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an int or a numpy integer, else a
    ValueError naming ``name``: a float, even 320.0, is not taken as a
    count or a rate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _read_only_float64(value) -> np.ndarray:
    """``value`` as a float64 array, through a read-only view: no copy is made
    of a float64 array, and the caller's own array stays writeable."""
    view = np.asarray(value, dtype=np.float64).view()
    view.flags.writeable = False
    return view


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
        for name in ("sample_rate", "frame_len", "frame_shift", "fft_size"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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
    """Mono PCM samples (float, nominally in [-1, 1]) with a sample rate.

    ``samples`` must be 1-D and finite. It is stored as a read-only float64
    view of what was given, so it shares memory with a float64 array passed
    in (which stays writeable to its owner) and a checked waveform cannot be
    changed through it; ``sample_rate`` is a positive integer, stored as
    ``int``.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _read_only_float64(self.samples))
        object.__setattr__(self, "sample_rate", _integer("sample_rate", self.sample_rate))
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


def _frame_view(span: np.ndarray, length: int, shift: int, writeable: bool = False) -> np.ndarray:
    """The frames of ``length`` samples starting every ``shift`` samples of
    ``span`` that lie inside it, as a strided view (no copy); read-only
    unless ``writeable``, which is safe only while length <= shift, where
    no two frames share a sample."""
    return np.lib.stride_tricks.sliding_window_view(span, length, writeable=writeable)[::shift]


def _frames(samples: np.ndarray, n: int, length: int, shift: int) -> np.ndarray:
    """Exactly n >= 1 frames of ``length`` samples on the ``shift`` grid, the
    samples zero-padded or truncated to the (n-1)*shift + length it spans,
    as a _frame_view of that span."""
    if n < 1:
        raise ValueError("empty input")
    span = np.zeros((n - 1) * shift + length)
    kept = min(span.size, samples.size)
    span[:kept] = samples[:kept]
    return _frame_view(span, length, shift)


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
    length, shift = params.frame_len, params.frame_shift
    frames = _frames(wave.samples, num_frames(len(wave), shift), length, shift)
    padded = np.zeros((frames.shape[0], params.fft_size))
    np.multiply(frames, hann_window(length), out=padded[:, :length])
    las = np.abs(np.fft.rfft(padded, axis=1))
    np.maximum(las, params.log_floor, out=las)
    return np.log(las, out=las)


def mirror_full_spectrum(half: np.ndarray, fft_size: int) -> np.ndarray:
    """Expand length-K half spectra to even-symmetric full spectra.

    out[..., k] = half[..., k] for k < K and out[..., fft_size-k] =
    half[..., k] for k = 1..K-2, so each row is real-even over the
    fft_size-point circle. Leading axes are batch axes; the values must be
    finite.
    """
    half = np.asarray(half, dtype=np.float64)
    k = fft_size // 2 + 1
    if half.ndim == 0 or half.shape[-1] != k:
        raise ValueError(f"expected length-{k} half spectra, got {half.shape}")
    if not np.isfinite(half).all():
        raise ValueError("half spectra must be finite")
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)


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
    if alpha == 0.0:
        return m.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        warped = m @ _warp_matrix(m.shape[-1], float(alpha)).T
    if not np.isfinite(warped).all():
        raise ValueError("cepstral vectors too large: their warp overflows")
    return warped


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


# Below this many frames griffin_lim runs inline. The two thread hand-offs
# per iteration cost about 0.25 ms on a 2-vCPU Xeon, about what splitting
# the per-frame work saves at 64 frames; 128 leaves a margin.
_THREAD_MIN_FRAMES = 128


def _thread_pool():
    """A pool of two threads. concurrent.futures is imported here, not with
    this module, because it imports logging: about 5 ms on every command."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(2)


def _worker_count() -> int:
    """Row blocks griffin_lim splits each iteration into: two, or one when
    this process may run on a single CPU."""
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(2, usable)


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

    The per-frame work of an iteration (analysis, magnitude projection,
    inverse FFT and windowing) runs on two threads over two row blocks when
    two CPUs are usable and the LAS has enough frames; overlap-add and the
    momentum step stay on the calling thread. Each row's arithmetic is the
    same either way, so the output does not depend on the CPU count.
    """
    magnitudes = _las_magnitudes(las, params)
    if _integer("iters", iters) < 1:
        raise ValueError("iters must be >= 1")
    if not 0.0 <= momentum <= 1.0:  # false for NaN
        raise ValueError(f"momentum must be in [0, 1], got {momentum}")
    n, length, shift = magnitudes.shape[0], params.frame_len, params.frame_shift
    window = hann_window(length)
    norm = _overlap_add(np.broadcast_to(window * window, (n, length)), shift)
    # samples covered below 1% of the peak stay unnormalized: dividing there
    # would amplify edge samples by up to the inverse squared window value
    norm[norm <= 0.01 * norm.max()] = 1.0
    phase = -2.0 * np.pi * np.arange(params.num_bins) * (length // 2) / params.fft_size
    spectra = magnitudes * np.exp(1j * phase)
    full = np.empty((n, params.fft_size))
    signal, previous, estimate = np.empty((3, norm.size))
    analysed = _frame_view(estimate, length, shift)

    def per_frame(rows: slice, analyse: bool) -> None:
        """For the frames in ``rows``: if ``analyse``, analyse ``estimate`` and
        project the spectra onto the target magnitudes; then write the
        windowed inverse FFTs to the first frame_len columns of ``full``.
        Analysis windows the frames into ``full``, zero-padded, and once they
        are transformed takes its first num_bins columns for the scale."""
        if analyse:
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
        np.fft.irfft(spectra[rows], n=params.fft_size, axis=1, out=full[rows])
        full[rows, :length] *= window

    split = n >= _THREAD_MIN_FRAMES and _worker_count() > 1
    blocks = [slice(0, n // 2), slice(n // 2, n)] if split else [slice(0, n)]
    step = momentum / (1.0 + momentum)
    with _thread_pool() if len(blocks) > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map

        def each_block(analyse: bool) -> None:
            for _ in run(per_frame, blocks, repeat(analyse)):
                pass  # reads every result, so a worker's exception is raised here

        each_block(False)
        for it in range(iters - 1):
            signal, previous = _overlap_add(full[:, :length], shift, out=previous), signal
            signal /= norm
            # the signal whose analysis sets the phase; x - 0.0 is x, also for -0.0
            term = np.multiply(previous, step, out=estimate) if it and step else 0.0
            np.subtract(signal, term, out=estimate)
            each_block(True)
    signal = _overlap_add(full[:, :length], shift, out=previous)
    signal /= norm
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
