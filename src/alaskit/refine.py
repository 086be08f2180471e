"""Data-driven refinement of recovered log spectra.

A per-bin affine correction (gain and bias per frequency bin) fitted by
ordinary least squares on paired (recovered, natural) matrices.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import _agree, _check_las_shape, _finite, _read_only_float64
from .io import _payload_rows, _read_container, _write_container

_REFINER_MAGIC = b"ALRF"  # the .alrf container's magic, see save_refiner


@dataclass(frozen=True, eq=False)
class RefinerModel:
    """Per-bin gain/bias in log units.

    ``gain`` and ``bias`` are stored as read-only float64 copies of what was
    given, so a checked model cannot change afterwards.
    """

    gain: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        for name in ("gain", "bias"):
            object.__setattr__(self, name, _read_only_float64(getattr(self, name)))
        if self.gain.shape != self.bias.shape or self.gain.ndim != 1 or self.gain.size == 0:
            raise ValueError("gain and bias must be non-empty 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.gain)) and np.all(np.isfinite(self.bias))):
            raise ValueError("model parameters must be finite")

    @property
    def num_bins(self) -> int:
        return self.gain.size


def fit_refiner(pairs) -> RefinerModel:
    """Least-squares per-bin affine fit of natural LAS against recovered LAS.

    ``pairs`` is a sequence of (recovered, natural) LAS matrices, each 2-D
    with at least one frame and finite, with matching shapes and one bin
    count. Bins whose recovered values are (numerically) constant get
    gain 1 and the mean residual as bias. Statistics are accumulated pair
    by pair, in two passes: means, then centred moments. Pairs whose sums,
    moments or fitted parameters leave the float64 range are a ValueError.

    Every pair's shape is checked before any work. A NaN or ±inf in a pair
    leaves the fitted statistics non-finite, so the pairs' values are
    checked only when they are: a non-finite value is refused as
    "LAS values must be finite", not as an overflow.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no training pairs")
    checked, bins = [], None
    for recovered, natural in pairs:
        _agree("shape", np.shape(recovered), "recovered", np.shape(natural), "natural")
        checked.append((_check_las_shape(recovered, bins), _check_las_shape(natural)))
        bins = checked[0][0].shape[1]
    count = sum(recovered.shape[0] for recovered, _ in checked)
    with np.errstate(over="ignore", invalid="ignore"):  # the statistics are checked below
        x_sum = y_sum = 0.0
        for x, y in checked:
            x_sum += x.sum(axis=0)
            y_sum += y.sum(axis=0)
        x_mean, y_mean = x_sum / count, y_sum / count
        x_sq = xy = 0.0
        for x, y in checked:
            dx = x - x_mean
            x_sq += np.einsum("ij,ij->j", dx, dx)
            xy += np.einsum("ij,ij->j", dx, y - y_mean)
        x_var, covariance = x_sq / count, xy / count
        degenerate = x_var < 1e-12
        safe_var = np.where(degenerate, 1.0, x_var)
        gain = np.where(degenerate, 1.0, covariance / safe_var)
        bias = y_mean - gain * x_mean
    # a mean that overflows, or a non-finite value, makes the moments and the bias non-finite too
    every = [las for pair in checked for las in pair]
    for statistic in (x_var, covariance, gain, bias):
        _finite(statistic, "the pairs' statistics overflow the float64 range", *every)
    return RefinerModel(gain=gain, bias=bias)


def apply_refiner(model: RefinerModel, alas: np.ndarray) -> np.ndarray:
    """Apply the per-bin correction. A model whose gains or biases take a
    value past the float64 range is a ValueError.

    The LAS's shape is checked before any work; a NaN or ±inf in it leaves
    the result non-finite, so its values are checked only when the result
    is, and a non-finite one is refused as "LAS values must be finite"."""
    alas = _check_las_shape(alas, model.num_bins)
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        out = alas * model.gain
        out += model.bias
    return _finite(out, "the refiner's gains or biases take the LAS past the float64 range", alas)


def save_refiner(model: RefinerModel, path) -> None:
    """Write the model as a container (magic ALRF) whose header fields are
    the bin count and 0, and whose payload is the gains, then the biases,
    as float64."""
    _write_container(path, _REFINER_MAGIC, dict(bins=model.num_bins, context_radius=0),
                     np.array([model.gain, model.bias], dtype="<f8"))


def load_refiner(path) -> RefinerModel:
    """Read a model written by :func:`save_refiner`, with the checks every
    container reader makes. A nonzero second header field is a context
    radius: that model was fitted on frame-smoothed input, which this
    refiner does not apply, so it is a ValueError."""
    (bins, radius), payload = _read_container(path, _REFINER_MAGIC, 2)
    if radius:
        raise ValueError(f"{path} was fitted with context radius {radius}, which is no longer "
                         f"supported; refit it with refine-fit")
    gain, bias = _payload_rows(path, payload, 2, bins, "<f8")
    return RefinerModel(gain=gain, bias=bias)
