"""Slow, obvious reference implementations of the batched library code.

The library applies the warp, the cepstral analysis and the window
convolution as cached matrices over whole frame batches. These are the
per-vector and per-frame forms they were derived from, kept here so tests
can compare the two with stated tolerances. The per-frame forms warp one
vector at a time with ``warp_cepstrum``, which is itself checked against
the scalar recursion.

The library frames every signal through one frame-grid helper and runs
Griffin-Lim as one scatter-add synthesis and one phasor update per
iteration. The hand-padded framing, the per-frame F0 search over its own
padded buffer, and the per-frame overlap-add Griffin-Lim (with or without
momentum) with its angle/exp phase round trip are kept below as their
references.
"""

import numpy as np

from alaskit import (
    Waveform,
    excitation_spectrum,
    hann_window,
    mirror_full_spectrum,
    warp_cepstrum,
    window_spectrum,
)
from alaskit.features import (
    F0_MAX,
    F0_MIN,
    RMS_GATE,
    VOICING_THRESHOLD,
    _parabolic_offset,
    _pick_peak_lag,
)


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


def recover_alas_frame(f0, vuv, mcep_with_energy, params):
    """Per-frame ALAS: comb times filter spectrum, mirrored, circularly
    convolved with the window spectrum through FFTs, floored and logged."""
    k = params.num_bins
    excitation = excitation_spectrum(f0 if vuv else 0.0, params)
    padded = np.zeros(k)
    padded[: len(mcep_with_energy)] = mcep_with_energy
    cep = warp_cepstrum(padded, params.warp_alpha)
    envelope = np.exp(np.fft.rfft(mirror_full_spectrum(cep, params.fft_size)).real)
    full = mirror_full_spectrum(excitation * envelope, params.fft_size)
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
    fs, shift, length = params.sample_rate, params.frame_shift, params.frame_len
    lag_min = int(fs / F0_MAX)
    lag_max = int(np.ceil(fs / F0_MIN))
    n = -(-samples.size // shift)
    padded = np.zeros((n - 1) * shift + length + lag_max)
    padded[: samples.size] = samples
    f0 = np.zeros(n)
    vuv = np.zeros(n, dtype=bool)
    for i in range(n):
        seg = padded[i * shift : i * shift + length + lag_max]
        base = seg[:length]
        base_energy = float(base @ base)
        if np.sqrt(base_energy / length) < RMS_GATE:
            continue
        corr = np.correlate(seg, base, mode="valid")
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
