"""Knowledge-driven recovery of approximate log amplitude spectra.

Builds a harmonic (or flat, when unvoiced) excitation spectrum from F0, a
filter amplitude spectrum from warped cepstra, multiplies them bin-wise and
convolves the mirrored product with the analysis-window spectrum to imitate
what windowed STFT analysis would have produced.

Everything but the comb, the exponential and the final log-magnitude is
linear, so the filter and window steps are cached matrices per
AnalysisParams, applied to whole frame batches.
"""

from functools import lru_cache

import numpy as np

from .dsp import _EXP_MAX, AnalysisParams, _warp_matrix, hann_window, mirror_full_spectrum
from .features import FeatureTrack


@lru_cache(maxsize=8)
def _comb_table(bins: int) -> np.ndarray:
    """Read-only (bins+1) x bins table of source spectra by harmonic spacing:
    row 0 is the unvoiced all-ones row, row k in [1, bins) has unit pulses
    at the nonzero multiples of k, and row ``bins`` (any spacing past the
    last bin) is all zeros."""
    table = np.zeros((bins + 1, bins))
    table[0] = 1.0
    for k0 in range(1, bins):
        table[k0, k0::k0] = 1.0
    table.flags.writeable = False
    return table


def excitation_spectrum(f0: float | np.ndarray, params: AnalysisParams) -> np.ndarray:
    """Length-K source spectra, one per F0 value (leading axes are batch axes).

    Voiced (f0 > 0): unit pulses at bins i*K0 for i = 1, 2, ... with
    K0 = round(f0/sample_rate * fft_size) clamped to >= 1, while
    i*K0 <= K-1. Unvoiced (f0 == 0): all ones, the expected magnitude of a
    white-noise source.
    """
    f0 = np.asarray(f0, dtype=np.float64)
    if not np.all(np.isfinite(f0) & (f0 >= 0.0)):
        raise ValueError("f0 must be finite and nonnegative")
    k = params.num_bins
    # half-up rounding, independent of banker's rounding in round()
    k0 = np.maximum(1.0, np.floor(f0 / params.sample_rate * params.fft_size + 0.5))
    row = np.where(f0 == 0.0, 0.0, np.minimum(k0, k)).astype(np.intp)
    return np.take(_comb_table(k), row, axis=0)  # a new array, never the table


@lru_cache(maxsize=8)
def _log_filter_map(params: AnalysisParams) -> np.ndarray:
    """K x K map from padded coefficients to the log filter spectrum: row j
    is the unwarped, mirrored and transformed j-th unit coefficient."""
    cep = _warp_matrix(params.num_bins, float(params.warp_alpha)).T
    return np.fft.rfft(mirror_full_spectrum(cep, params.fft_size)).real


def filter_spectrum(mcep_with_energy: np.ndarray, params: AnalysisParams) -> np.ndarray:
    """Amplitude spectra of the vocal-tract filter from warped cepstra.

    Each coefficient vector (energy first, last axis) is zero-padded to K,
    unwarped to linear frequency, mirrored to an even sequence and Fourier
    transformed; exponentiation yields strictly positive length-K spectra.
    Non-finite coefficients, and coefficients whose log spectrum exceeds
    709.78 anywhere, where the exponential overflows, are a ValueError.
    """
    coeffs = np.asarray(mcep_with_energy, dtype=np.float64)
    k = params.num_bins
    if coeffs.ndim == 0 or coeffs.shape[-1] > k:
        raise ValueError(f"coefficient vectors must have at most {k} entries")
    if not np.isfinite(coeffs).all():
        raise ValueError("mel-cepstra must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        log_filter = coeffs @ _log_filter_map(params)[: coeffs.shape[-1]]
    if not (log_filter <= _EXP_MAX).all():  # also false for NaN
        raise ValueError(f"mel-cepstra too large: their log filter spectrum exceeds {_EXP_MAX}, "
                         "where exp overflows")
    return np.exp(log_filter)


def window_spectrum(params: AnalysisParams) -> np.ndarray:
    """Center-shifted spectrum of the zero-phase periodic Hann window.

    The window is arranged circularly around sample 0 and zero-padded to
    fft_size, making its transform real even; the peak (the window's
    coefficient sum, frame_len/2) sits at the center index fft_size//2.
    """
    window = hann_window(params.frame_len)
    half = params.frame_len // 2
    buf = np.zeros(params.fft_size)
    buf[: params.frame_len - half] = window[half:]
    buf[params.fft_size - half :] = window[:half]
    return np.fft.fftshift(np.fft.fft(buf).real)


@lru_cache(maxsize=8)
def _window_convolution_map(params: AnalysisParams) -> np.ndarray:
    """K x K map of the window convolution: row j is the first K outputs of
    the mirrored j-th unit half spectrum circularly convolved with the
    window spectrum (both aligned on their zero-frequency bins)."""
    full = mirror_full_spectrum(np.eye(params.num_bins), params.fft_size)
    kernel = np.fft.rfft(np.fft.ifftshift(window_spectrum(params)))
    convolved = np.fft.irfft(np.fft.rfft(full) * kernel, n=params.fft_size)
    return convolved[:, : params.num_bins]


def recover_alas(track: FeatureTrack, params: AnalysisParams) -> np.ndarray:
    """Approximate log amplitude spectra for every frame of a feature track.

    Per frame, the source-filter product is mirrored to a full even
    spectrum and circularly convolved with the window spectrum; the
    magnitudes of the K bins from zero frequency upward are floored and
    logged. Mel-cepstra whose spectra overflow, in the exponential or in
    the convolution, are a ValueError.
    """
    if (track.frame_shift, track.sample_rate) != (params.frame_shift, params.sample_rate):
        raise ValueError(f"track geometry {track.frame_shift}/{track.sample_rate} (frame shift/"
                         f"sample rate) differs from params {params.frame_shift}/{params.sample_rate}")
    excitation = excitation_spectrum(track.f0, params)
    source_filter = excitation * filter_spectrum(track.mcep, params)
    with np.errstate(over="ignore", invalid="ignore"):
        convolved = source_filter @ _window_convolution_map(params)
    if not np.isfinite(convolved).all():
        raise ValueError("mel-cepstra too large: the window convolution of their "
                         "spectra overflows")
    return np.log(np.maximum(np.abs(convolved), params.log_floor))
