"""Slow, obvious reference implementations of the batched envelope maps.

The library applies the warp, the cepstral analysis and the window
convolution as cached matrices over whole frame batches. These are the
per-vector and per-frame forms they were derived from, kept here so tests
can compare the two with stated tolerances. The per-frame forms warp one
vector at a time with ``warp_cepstrum``, which is itself checked against
the scalar recursion.
"""

import numpy as np

from alaskit import excitation_spectrum, mirror_full_spectrum, warp_cepstrum, window_spectrum


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
