"""Data-driven refinement of recovered log spectra.

A per-bin affine correction (gain and bias per frequency bin) fitted by
ordinary least squares on paired (recovered, natural) matrices, with an
optional moving-average context window over frames.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import _check_las, _integer
from .io import _REFINER_MAGIC, _payload_rows, _read_container, _write_container

_RADIUS_MAX = 0xFFFFFFFF  # the header stores the context radius as a u32


@dataclass(frozen=True, eq=False)
class RefinerModel:
    """Per-bin gain/bias in log units, plus a temporal smoothing radius."""

    gain: np.ndarray
    bias: np.ndarray
    context_radius: int = 0

    def __post_init__(self):
        if self.gain.shape != self.bias.shape or self.gain.ndim != 1 or self.gain.size == 0:
            raise ValueError("gain and bias must be non-empty 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.gain)) and np.all(np.isfinite(self.bias))):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "context_radius", _context_radius(self.context_radius))

    @property
    def num_bins(self) -> int:
        return self.gain.size


def _context_radius(value) -> int:
    """``value`` as an int in [0, _RADIUS_MAX], else a ValueError."""
    radius = _integer("context_radius", value)
    if not 0 <= radius <= _RADIUS_MAX:
        raise ValueError(f"context_radius must be in [0, {_RADIUS_MAX}], got {radius}")
    return radius


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
    context_radius = _context_radius(context_radius)
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
    """Write the model as a container (magic ALRF) whose header fields are
    the bin count and the context radius, and whose payload is the gains,
    then the biases, as float64."""
    _write_container(path, _REFINER_MAGIC,
                     dict(bins=model.num_bins, context_radius=model.context_radius),
                     np.array([model.gain, model.bias], dtype="<f8"))


def load_refiner(path) -> RefinerModel:
    """Read a model written by :func:`save_refiner`, with the checks every
    container reader makes."""
    (bins, radius), payload = _read_container(path, _REFINER_MAGIC, 2)
    gain, bias = _payload_rows(path, payload, 2, bins, "<f8")
    return RefinerModel(gain=gain, bias=bias, context_radius=radius)
