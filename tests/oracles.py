"""Slow, obvious reference implementations of the batched library code.

The library applies the warp, the cepstral analysis and the window
convolution as cached matrices over whole frame batches. These are the
per-vector and per-frame forms they were derived from, kept here so tests
can compare the two with stated tolerances. The per-frame forms warp one
vector at a time with ``warp_cepstrum``, which is itself checked against
the scalar recursion.

The library builds its filter and window maps straight from numpy's
Hermitian and real FFTs. The forms below write each step out: they mirror
a half spectrum by concatenation and convolve it with the centre-shifted
window spectrum through FFTs.

The library looks each source comb up in a cached table by its harmonic
spacing; the float-modulo comb it replaced is kept below as its reference.

The library frames every signal as one strided view, overlap-adds by
shifted blocks and runs Griffin-Lim with one phasor update per iteration.
The hand-padded framing, the scatter-add (bincount) overlap-add over an
index grid, and the per-frame overlap-add Griffin-Lim (with or without
momentum) with its angle/exp phase round trip are kept below as their
references.

The library's F0 search scans only the lags it reads, sums each frame's
products and energies from shift-wide blocks shared with the frames that
overlap it, and picks the peaks of a chunk of frames at once, from one
mask of the lags that reach 0.97 of the peak and do not rise. Its
reference below slices each frame from its own padded buffer, correlates
the frame whole, takes each lagged energy as its own dot product, scans
every lag from 0 to ceil(fs/F0_MIN), and picks one frame at a time with
its own peak pick over a local-maximum mask and its own parabolic fit, so
the two share only the constants. The sums
round in another order, so the tests compare F0 within a stated tolerance,
and exactly on the 16-bit PCM grid, where every sum is exact.
"""

import numpy as np

from alaskit import Waveform, hann_window, warp_cepstrum
from alaskit.features import F0_MAX, F0_MIN, RMS_GATE, VOICING_THRESHOLD


def warp_recursion(m, alpha):
    """The scalar warp recursion of ``warp_cepstrum``'s docstring.

    For i from len(m) down to 1, with every state starting at zero:
    c1(i) = m[i] - alpha*c1(i+1); c2(i) = (1 - alpha^2)*c1(i+1) - alpha*c2(i+1);
    ck(i) = ck-1(i+1) - alpha*(ck(i+1) - ck-1(i)) for k > 2. Returns
    [c1(1), ..., cK(1)].
    """
    n = len(m)
    state = [0.0] * n
    for i in range(n - 1, -1, -1):
        new = [0.0] * n
        new[0] = m[i] - alpha * state[0]
        if n > 1:
            new[1] = (1.0 - alpha * alpha) * state[0] - alpha * state[1]
        for k in range(2, n):
            new[k] = state[k - 1] - alpha * (state[k] - new[k - 1])
        state = new
    return np.array(state)


def mcep_frame(las_frame, params, order=40):
    """Per-frame mel-cepstral analysis: inverse FFT, truncate to K, warp
    with -alpha, keep order+1 coefficients."""
    k = params.num_bins
    cepstrum = np.fft.irfft(las_frame, n=params.fft_size)[:k]
    return warp_cepstrum(cepstrum, -params.warp_alpha)[: order + 1]


def excitation_spectrum_modulo(f0, params):
    """``excitation_spectrum`` testing every bin against the harmonic spacing
    K0 with a float modulo, instead of looking its row up in a table."""
    f0 = np.asarray(f0, dtype=np.float64)
    k0 = np.maximum(1.0, np.floor(f0 / params.sample_rate * params.fft_size + 0.5))[..., None]
    bins = np.arange(params.num_bins)
    return np.where(f0[..., None] == 0.0, 1.0, (bins > 0) & (bins % k0 == 0))


def mirror_full_spectrum(half):
    """Length-K half spectra (last axis) expanded to even-symmetric full
    spectra of fft_size = 2(K-1): out[k] = half[k] for k < K and
    out[fft_size-k] = half[k] for k = 1..K-2."""
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)


def window_spectrum(params):
    """Centre-shifted spectrum of the zero-phase periodic Hann window: the
    window arranged circularly around sample 0 and zero-padded to fft_size,
    so its transform is real and even, with its peak (the window's sum,
    frame_len/2) at index fft_size//2."""
    window = hann_window(params.frame_len)
    half = params.frame_len // 2
    buf = np.zeros(params.fft_size)
    buf[: params.frame_len - half] = window[half:]
    buf[params.fft_size - half :] = window[:half]
    return np.fft.fftshift(np.fft.fft(buf).real)


def log_filter_frame(mcep_with_energy, params):
    """Per-frame log filter spectrum: zero-pad to K, warp with alpha, mirror
    and take the real part of the FFT."""
    padded = np.zeros(params.num_bins)
    padded[: len(mcep_with_energy)] = mcep_with_energy
    cep = warp_cepstrum(padded, params.warp_alpha)
    return np.fft.rfft(mirror_full_spectrum(cep)).real


def recover_alas_frame(f0, vuv, mcep_with_energy, params):
    """Per-frame ALAS: comb times filter spectrum, mirrored, circularly
    convolved with the window spectrum through FFTs, floored and logged."""
    k = params.num_bins
    excitation = excitation_spectrum_modulo(f0 if vuv else 0.0, params)
    envelope = np.exp(log_filter_frame(mcep_with_energy, params))
    full = mirror_full_spectrum(excitation * envelope)
    kernel = np.fft.ifftshift(window_spectrum(params))
    convolved = np.fft.irfft(np.fft.rfft(full) * np.fft.rfft(kernel), n=params.fft_size)
    return np.log(np.maximum(np.abs(convolved[:k]), params.log_floor))


def frame_signal_padded(samples, params):
    """Frames of ``frame_signal`` cut from a hand-padded copy of the signal."""
    shift, length = params.frame_shift, params.frame_len
    n = -(-samples.size // shift)
    padded = np.zeros((n - 1) * shift + length)
    padded[: samples.size] = samples
    starts = shift * np.arange(n)
    return padded[starts[:, None] + np.arange(length)[None, :]]


def estimate_f0_padded(samples, params):
    """``estimate_f0`` slicing each frame's lag segment from its own padded
    buffer of (n-1)*shift + frame_len + lag_max samples."""
    fs = params.sample_rate
    lag_min = int(fs / F0_MAX)
    rows = autocorrelation_padded(samples, params)
    f0 = np.zeros(len(rows))
    vuv = np.zeros(len(rows), dtype=bool)
    for i, r in enumerate(rows):
        if r is None:
            continue
        span = r[lag_min:]
        peak = float(span.max())
        if peak < VOICING_THRESHOLD:
            continue
        lag = lag_min + pick_peak_lag(span, peak)
        lag_f = lag + parabolic_offset(r, lag)
        f0[i] = float(np.clip(fs / lag_f, F0_MIN, F0_MAX))
        vuv[i] = True
    return f0, vuv


def autocorrelation_padded(samples, params):
    """Per frame, the normalized autocorrelation r at every lag 0 to
    ceil(fs/F0_MIN), from the frame's own padded buffer; None for a frame
    under the RMS gate. Each lagged energy is the dot product of its window
    with itself, not a difference of running sums, which cancellation would
    spoil after a loud stretch."""
    fs, shift, length = params.sample_rate, params.frame_shift, params.frame_len
    lag_max = int(np.ceil(fs / F0_MIN))
    n = -(-samples.size // shift)
    padded = np.zeros((n - 1) * shift + length + lag_max)
    padded[: samples.size] = samples
    rows = []
    for i in range(n):
        seg = padded[i * shift : i * shift + length + lag_max]
        base = seg[:length]
        base_energy = float(base @ base)
        if np.sqrt(base_energy / length) < RMS_GATE:
            rows.append(None)
            continue
        corr = np.correlate(seg, base, mode="valid")
        windows = np.lib.stride_tricks.sliding_window_view(seg, length)
        energies = np.vecdot(windows, windows)  # seg[k : k + length] @ seg[k : k + length]
        rows.append(corr / np.sqrt(energies * base_energy + 1e-300))
    return rows


def pick_peak_lag(span, peak):
    """Index of the shortest local maximum of ``span`` within 3% of its peak
    (an end counts when it is no lower than its one neighbour), else of the
    peak itself."""
    local_max = np.zeros(span.size, dtype=bool)
    local_max[1:-1] = (span[1:-1] >= span[:-2]) & (span[1:-1] >= span[2:])
    local_max[0] = span[0] >= span[1]
    local_max[-1] = span[-1] >= span[-2]
    candidates = np.nonzero(local_max & (span >= 0.97 * peak))[0]
    if candidates.size == 0:
        return int(np.argmax(span))
    return int(candidates[0])


def parabolic_offset(r, lag):
    """Sub-sample offset of the peak of r at ``lag`` from a 3-point parabolic
    fit, clipped to [-0.5, 0.5]; 0 at either end of r or on a flat top."""
    if lag <= 0 or lag >= r.size - 1:
        return 0.0
    denom = r[lag - 1] - 2.0 * r[lag] + r[lag + 1]
    if abs(denom) < 1e-12:
        return 0.0
    return float(np.clip(0.5 * (r[lag - 1] - r[lag + 1]) / denom, -0.5, 0.5))


def overlap_add_bincount(frames, shift):
    """Overlap-add of (n, length) frames with frame i starting at sample
    i*shift, as one scatter-add over the (n, length) index grid: bincount
    adds each sample's values in grid order, ascending frame by frame,
    starting from 0.0."""
    n, length = frames.shape
    grid = shift * np.arange(n)[:, None] + np.arange(length)
    return np.bincount(grid.ravel(), np.ravel(frames), minlength=(n - 1) * shift + length)


def overlap_add_loop(spectra, params, window):
    """Least-squares inverse STFT, one frame at a time: windowed overlap-add
    and squared-window norm, normalizing only samples covered above 1% of
    the peak level."""
    n, length, shift = spectra.shape[0], params.frame_len, params.frame_shift
    frames = np.fft.irfft(spectra, n=params.fft_size, axis=1)[:, :length]
    out = np.zeros((n - 1) * shift + length)
    norm = np.zeros_like(out)
    wsq = window * window
    for i in range(n):
        start = i * shift
        out[start : start + length] += frames[i] * window
        norm[start : start + length] += wsq
    covered = norm > 0.01 * norm.max()
    out[covered] /= norm[covered]
    return out


def griffin_lim_loop(las, params, iters=60, momentum=0.99):
    """Griffin-Lim with the per-frame overlap-add and the phase carried as
    angles: np.angle after each analysis, np.exp(1j*phase) before each
    synthesis, from the same linear start phase; unit-peak scaling. With
    momentum alpha, the phase is the angle of the analysed spectra minus
    alpha/(1+alpha) times the previous iteration's analysed spectra."""
    magnitudes = np.exp(las)
    window = hann_window(params.frame_len)
    bins = np.arange(params.num_bins)
    phase = np.broadcast_to(
        -2.0 * np.pi * bins * (params.frame_len // 2) / params.fft_size, magnitudes.shape
    ).copy()
    starts = params.frame_shift * np.arange(las.shape[0])
    grid = starts[:, None] + np.arange(params.frame_len)[None, :]
    signal = previous = None
    for _ in range(iters):
        signal = overlap_add_loop(magnitudes * np.exp(1j * phase), params, window)
        spectra = np.fft.rfft(signal[grid] * window, n=params.fft_size, axis=1)
        estimate = spectra
        if previous is not None:
            estimate = spectra - momentum / (1.0 + momentum) * previous
        phase = np.angle(estimate)
        previous = spectra
    peak = np.max(np.abs(signal))
    if peak > 1.0:
        signal = signal / peak
    return Waveform(signal, params.sample_rate)
