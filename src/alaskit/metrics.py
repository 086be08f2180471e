"""Objective evaluation: SNR, LAS-RMSE, MCD over voiced frames, F0 RMSE in
cents, and V/UV error rate."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dsp import Waveform, _agree, _at_least, _check_las, _check_las_shape, _finite
from .features import FeatureTrack

# natural-log amplitude -> dB
DB_PER_LOG = 20.0 / math.log(10.0)
_MCD_SCALE = 10.0 / math.log(10.0)
# a metric of finite inputs that is not finite
_TOO_FAR = " overflows the float64 range: the inputs are too far apart"


@dataclass(frozen=True)
class EvalReport:
    """Metric values for one comparison; absent metrics are None.

    snr_db may be math.inf (the identical-signals sentinel); every other
    present value must be finite.
    """

    frames_compared: int
    snr_db: float | None = None
    las_rmse_db: float | None = None
    mcd_v_db: float | None = None
    f0_rmse_cent: float | None = None
    vuv_error_pct: float | None = None

    def __post_init__(self):
        frames = _at_least("frames_compared", self.frames_compared, 1)
        object.__setattr__(self, "frames_compared", frames)
        if self.snr_db is not None and not -math.inf < self.snr_db <= math.inf:  # false for NaN
            raise ValueError("snr_db must be finite or math.inf")
        for name in ("las_rmse_db", "mcd_v_db", "f0_rmse_cent", "vuv_error_pct"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.vuv_error_pct is not None and not 0.0 <= self.vuv_error_pct <= 100.0:
            raise ValueError("vuv_error_pct must be in [0, 100]")

    def _items(self):
        for name in ("snr_db", "las_rmse_db", "mcd_v_db", "f0_rmse_cent", "vuv_error_pct"):
            value = getattr(self, name)
            if value is not None:
                yield name, (f"{value:.6f}" if math.isfinite(value) else "inf")
        yield "frames_compared", str(self.frames_compared)

    def lines(self) -> list[str]:
        """Machine-readable metric<TAB>value lines."""
        return [f"{name}\t{value}" for name, value in self._items()]

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def block(self) -> str:
        """Human-readable flat key-value block."""
        return "\n".join(f"{name} = {value}" for name, value in self._items()) + "\n"


def snr_db(ref: Waveform, test: Waveform) -> float:
    """Signal-to-noise ratio 10*log10(sum ref^2 / sum (ref-test)^2), in dB.

    Signals are truncated to the shorter length; identical signals report
    math.inf. Energies past the float64 range are a ValueError.
    """
    _agree("sample_rate", ref.sample_rate, "ref", test.sample_rate, "test")
    n = min(len(ref), len(test))
    r = ref.samples[:n]
    t = test.samples[:n]
    with np.errstate(over="ignore"):  # the energies are checked below
        signal = float(r @ r)
        noise = float((r - t) @ (r - t))
    _finite(signal + noise, "signal energies overflow the float64 range")
    if signal <= 0.0:
        raise ValueError("zero reference energy")
    if noise == 0.0:
        return math.inf
    ratio = signal / noise
    if 0.0 < ratio < math.inf:
        return 10.0 * math.log10(ratio)
    return 10.0 * (math.log10(signal) - math.log10(noise))  # the ratio leaves the float64 range


def las_rmse_db(ref: np.ndarray, test: np.ndarray) -> float:
    """RMSE between two log spectra matrices, measured in dB.

    Both shapes are checked before any work. A NaN or ±inf in the rows
    compared leaves the RMSE non-finite, so their values are checked only
    when it is; the rows that frame truncation drops are checked first. A
    non-finite value is refused as "LAS values must be finite"."""
    ref = _check_las_shape(ref)
    test = _check_las_shape(test, ref.shape[1])
    n = min(ref.shape[0], test.shape[0])
    for las in (ref, test):
        if las.shape[0] > n:
            _check_las(las[n:])
    ref, test = _truncate_rows(ref, test)
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked
        diff = np.subtract(ref, test)
        diff *= DB_PER_LOG
        diff *= diff
        rmse = np.sqrt(np.mean(diff))
    return float(_finite(rmse, "las_rmse_db" + _TOO_FAR, ref, test))


def mcd_v_db(ref: FeatureTrack, test: FeatureTrack) -> float:
    """Mel-cepstral distortion over commonly voiced frames, energy excluded."""
    both = _common_voiced(ref, test)
    with np.errstate(over="ignore"):  # the result is checked
        diff = ref.mcep[both, 1:] - test.mcep[both, 1:]
        per_frame = _MCD_SCALE * np.sqrt(2.0 * np.sum(diff * diff, axis=1))
        return float(_finite(per_frame.mean(), "mcd_v_db" + _TOO_FAR))


def f0_rmse_cent(ref: FeatureTrack, test: FeatureTrack) -> float:
    """RMSE of the F0 ratio in cents over commonly voiced frames."""
    both = _common_voiced(ref, test)
    with np.errstate(over="ignore", divide="ignore"):  # the result is checked
        cents = 1200.0 * np.log2(test.f0[both] / ref.f0[both])
        return float(_finite(np.sqrt(np.mean(cents * cents)), "f0_rmse_cent" + _TOO_FAR))


def vuv_error_pct(ref: FeatureTrack, test: FeatureTrack) -> float:
    """Percentage of frames whose voicing flags disagree."""
    ref_v, test_v = _track_vuv(ref, test)
    return 100.0 * float(np.mean(ref_v != test_v))


def _truncate_rows(a, b, stacklevel=3):
    """Clip both inputs to the shorter frame count, warning when they differ."""
    if a.shape[0] != b.shape[0]:
        n = min(a.shape[0], b.shape[0])
        warnings.warn(
            f"frame count mismatch ({a.shape[0]} vs {b.shape[0]}); comparing first {n}",
            stacklevel=stacklevel,
        )
        return a[:n], b[:n]
    return a, b


def _track_vuv(ref: FeatureTrack, test: FeatureTrack, stacklevel=4):
    """Both tracks' voicing flags over their common length; tracks of
    different frame_shift or sample_rate are a ValueError stating both."""
    for field in ("frame_shift", "sample_rate"):
        _agree(field, getattr(ref, field), "ref", getattr(test, field), "test")
    return _truncate_rows(ref.vuv, test.vuv, stacklevel=stacklevel)


def _common_voiced(ref: FeatureTrack, test: FeatureTrack) -> np.ndarray:
    """Indices of the frames voiced in both tracks, over their common length."""
    ref_v, test_v = _track_vuv(ref, test, stacklevel=5)
    both = np.nonzero(ref_v & test_v)[0]
    if both.size == 0:
        raise ValueError("no commonly voiced frames")
    return both
