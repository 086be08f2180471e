"""Knowledge-driven recovery of approximate log amplitude spectra.

Builds a harmonic (or flat, when unvoiced) excitation spectrum from F0, a
filter amplitude spectrum from warped cepstra, multiplies them bin-wise and
takes the spectrum of the product's even inverse transform times the
zero-phase analysis window, to imitate what windowed STFT analysis would
have produced. By the convolution theorem, that is the mirrored product
convolved with the window's spectrum.

Everything but the comb, the exponential and the final log-magnitude is
linear, so the filter and window steps are cached matrices per
AnalysisParams, applied to whole frame batches.
"""

from functools import lru_cache

import numpy as np

from .dsp import _EXP_MAX, AnalysisParams, _agree, _finite, _warp_matrix, hann_window
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
    is the Hermitian FFT (the FFT of the even sequence mirrored from a half)
    of the unwarped j-th unit coefficient, at its first K bins."""
    cep = _warp_matrix(params.num_bins, float(params.warp_alpha)).T
    return np.fft.hfft(cep, n=params.fft_size)[:, : params.num_bins]


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
    return _exp_log_filter(coeffs, params)


def _exp_log_filter(coeffs: np.ndarray, params: AnalysisParams) -> np.ndarray:
    """filter_spectrum of finite float64 ``coeffs`` of at most K entries:
    their log filter spectrum, checked once to be at most _EXP_MAX (a NaN
    from an overflow is not), then exponentiated in place."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        log_filter = coeffs @ _log_filter_map(params)[: coeffs.shape[-1]]
    if not np.max(log_filter, initial=-np.inf) <= _EXP_MAX:
        raise ValueError(f"mel-cepstra too large: their log filter spectrum exceeds "
                         f"{_EXP_MAX}, where exp overflows")
    return np.exp(log_filter, out=log_filter)


@lru_cache(maxsize=8)
def _window_convolution_map(params: AnalysisParams) -> np.ndarray:
    """K x K map of the window step: row j is the first K bins of the
    spectrum of the j-th unit half spectrum's even inverse transform times
    the zero-phase periodic Hann window (arranged circularly around sample
    0, zero-padded to fft_size). Scaled by fft_size, that is the mirrored
    unit half spectrum circularly convolved with the window's spectrum."""
    n, length = params.fft_size, params.frame_len
    window = np.roll(np.pad(hann_window(length), (0, n - length)), -(length // 2))
    return n * np.fft.rfft(np.fft.irfft(np.eye(params.num_bins), n=n) * window).real


def recover_alas(track: FeatureTrack, params: AnalysisParams) -> np.ndarray:
    """Approximate log amplitude spectra for every frame of a feature track.

    Per frame, the source-filter product's even inverse transform is
    multiplied by the zero-phase analysis window and transformed back, which
    convolves the mirrored product with the window's spectrum; the
    magnitudes of the K bins from zero frequency upward are floored and
    logged. Mel-cepstra whose spectra overflow, in the exponential or in
    the convolution, are a ValueError.

    The geometry is checked before any work, and no input is scanned for
    its values but the f0: the track's mel-cepstra were checked finite when
    it was built and cannot change, so only their log filter's range is
    checked, once, and a convolution overflow is found from its result.
    """
    for field in ("frame_shift", "sample_rate"):
        _agree(field, getattr(track, field), "track", getattr(params, field), "params")
    source_filter = _exp_log_filter(track.mcep, params)
    source_filter *= excitation_spectrum(track.f0, params)
    with np.errstate(over="ignore", invalid="ignore"):
        convolved = _finite(source_filter @ _window_convolution_map(params),
                            "mel-cepstra too large: the window convolution of their spectra "
                            "overflows")
    np.abs(convolved, out=convolved)
    np.maximum(convolved, params.log_floor, out=convolved)
    return np.log(convolved, out=convolved)
