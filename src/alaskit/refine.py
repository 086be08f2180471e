"""Data-driven refinement of recovered log spectra.

A per-bin affine correction (gain and bias per frequency bin) fitted by
ordinary least squares on paired (recovered, natural) matrices, with an
optional moving-average context window over frames.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .dsp import _check_las

_MAGIC = b"ALRF"
_VERSION = 1


@dataclass(frozen=True, eq=False)
class RefinerModel:
    """Per-bin gain/bias in log units, plus a temporal smoothing radius."""

    gain: np.ndarray
    bias: np.ndarray
    context_radius: int = 0

    def __post_init__(self):
        if self.gain.shape != self.bias.shape or self.gain.ndim != 1:
            raise ValueError("gain and bias must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.gain)) and np.all(np.isfinite(self.bias))):
            raise ValueError("model parameters must be finite")
        if self.context_radius < 0:
            raise ValueError("context_radius must be >= 0")

    @property
    def num_bins(self) -> int:
        return self.gain.size


def fit_refiner(pairs, context_radius: int = 0) -> RefinerModel:
    """Least-squares per-bin affine fit of natural LAS against recovered LAS.

    ``pairs`` is a sequence of (recovered, natural) LAS matrices, each 2-D
    with at least one frame and finite, with matching shapes and one bin
    count. The recovered side is first smoothed over
    +-context_radius frames, as :func:`apply_refiner` does; smoothing is
    linear with unit row sums, so the fit is least-squares for what is
    applied. Bins whose recovered values are (numerically) constant get
    gain 1 and the mean residual as bias. Statistics are accumulated pair
    by pair, in two passes: means, then centred moments.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no training pairs")
    bins = np.shape(pairs[0][0])[1:]
    checked = []
    for recovered, natural in pairs:
        if np.shape(recovered) != np.shape(natural):
            raise ValueError(
                f"pair shape mismatch: {np.shape(recovered)} vs {np.shape(natural)}"
            )
        if np.ndim(recovered) != 2 or np.shape(recovered)[1:] != bins:
            raise ValueError(f"bin count mismatch: pairs must be 2-D with one bin count, "
                             f"got {np.shape(recovered)} after {np.shape(pairs[0][0])}")
        checked.append((_check_las(recovered), _check_las(natural)))
    count = sum(recovered.shape[0] for recovered, _ in checked)

    def smoothed_pairs():
        for x, y in checked:
            yield (_moving_average(x, context_radius) if context_radius > 0 else x), y

    x_sum = y_sum = 0.0
    for x, y in smoothed_pairs():
        x_sum += x.sum(axis=0)
        y_sum += y.sum(axis=0)
    x_mean, y_mean = x_sum / count, y_sum / count
    x_sq = xy = 0.0
    for x, y in smoothed_pairs():
        dx = x - x_mean
        x_sq += np.einsum("ij,ij->j", dx, dx)
        xy += np.einsum("ij,ij->j", dx, y - y_mean)
    x_var, covariance = x_sq / count, xy / count
    degenerate = x_var < 1e-12
    safe_var = np.where(degenerate, 1.0, x_var)
    gain = np.where(degenerate, 1.0, covariance / safe_var)
    bias = y_mean - gain * x_mean
    return RefinerModel(gain=gain, bias=bias, context_radius=context_radius)


def apply_refiner(model: RefinerModel, alas: np.ndarray) -> np.ndarray:
    """Apply the per-bin correction, then the optional frame smoothing. A
    model whose gains or biases take a value past the float64 range is a
    ValueError."""
    alas = _check_las(alas, model.num_bins)
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        out = alas * model.gain + model.bias
        if model.context_radius > 0:
            out = _moving_average(out, model.context_radius)
    if not np.isfinite(out).all():
        raise ValueError("the refiner's gains or biases take the LAS past the float64 range")
    return out


def _moving_average(values: np.ndarray, radius: int) -> np.ndarray:
    """Mean over +-radius frames, truncated at the matrix edges."""
    n = values.shape[0]
    csum = np.vstack([np.zeros((1, values.shape[1])), np.cumsum(values, axis=0)])
    idx = np.arange(n)
    lo = np.maximum(idx - radius, 0)
    hi = np.minimum(idx + radius, n - 1) + 1
    return (csum[hi] - csum[lo]) / (hi - lo)[:, None]


def save_refiner(model: RefinerModel, path) -> None:
    """Write the model in the versioned binary layout (magic ALRF)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", _MAGIC, _VERSION, model.num_bins, model.context_radius))
        fh.write(np.asarray(model.gain, dtype="<f8").tobytes())
        fh.write(np.asarray(model.bias, dtype="<f8").tobytes())


def load_refiner(path) -> RefinerModel:
    """Read a model written by :func:`save_refiner`, validating the header."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError("truncated model file")
        magic, version, bins, radius = struct.unpack("<4sIII", header)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r} (expected {_MAGIC!r})")
        if version != _VERSION:
            raise ValueError(f"unsupported model version {version}")
        payload = fh.read()
    expected = 2 * bins * 8
    if len(payload) != expected:
        raise ValueError(f"model payload is {len(payload)} bytes, expected {expected}")
    gain = np.frombuffer(payload[: bins * 8], dtype="<f8").copy()
    bias = np.frombuffer(payload[bins * 8 :], dtype="<f8").copy()
    return RefinerModel(gain=gain, bias=bias, context_radius=radius)
