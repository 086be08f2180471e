"""Machine-speed calibration for the benchmark's timing metrics.

Small shared machines drift between a fast state and states up to about
1.7 times slower, CPU time included, for seconds to tens of minutes at a
time: on the 2-vCPU Xeon this benchmark was tuned on, corpus-batch passes
over the same inputs ran between 20 and 34 x realtime within four minutes.
No run length averages that out, so wall times of the same code differ by
that much from run to run.

So after every timed call the benchmark runs a fixed reference kernel,
outside the timing, for about SHARE of the call's duration. The kernel's
mean time per unit over a run tracks the machine's state during the timed
calls, weighted by their durations. The timing metrics of in-process
library work (corpus-batch) are then scaled to a machine on which one unit
takes REF_UNIT_S (about the unit's time on that Xeon in its fast state): a
time t becomes t / scale and a rate r becomes r * scale, where scale is
the measured time per unit over REF_UNIT_S. On 39 corpus-batch passes this
cut the spread of per-pass x realtime (interquartile range over median)
from 0.24 to 0.07.

Work dominated by process start and import (cli-chain's commands, the
set-up probes) responds to the machine's state differently from the
kernel, and those figures stay wall times: scaled by the kernel, five
cli-chain runs spread 0.15 in x realtime against 0.08-0.10 unscaled, and
set-up times did not follow the kernel from probe to probe either.

The kernel mixes what alaskit's own loops do: interpreted arithmetic, small
numpy calls and 512-point FFTs. It uses no alaskit code, so a change to the
program does not move it.
"""

import math
import time

import numpy as np

SHARE = 0.02
REF_UNIT_S = 0.4e-3
_ROWS = np.random.default_rng(0).standard_normal((16, 512))


def _unit() -> float:
    acc = 0.0
    for row in _ROWS:
        acc += float(np.log(np.abs(np.fft.rfft(row)) + 1e-9).sum())
        for i in range(200):
            acc += i * 1e-9
    return acc


class Calibration:
    """Reference-kernel samples taken after timed calls."""

    def __init__(self):
        self.units, self.seconds = 0, 0.0

    def sample(self, call_s: float):
        """Run the kernel for about SHARE of a call that took ``call_s``."""
        n = max(1, round(SHARE * call_s / REF_UNIT_S))
        t0 = time.perf_counter()
        for _ in range(n):
            _unit()
        self.seconds += time.perf_counter() - t0
        self.units += n

    def scale(self) -> float:
        """Mean time per unit over REF_UNIT_S: above 1 on a slower machine."""
        return self.seconds / self.units / REF_UNIT_S if self.units else math.nan

