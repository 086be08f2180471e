"""Seeded synthetic speech-like inputs with per-frame ground truth.

Each utterance is a sequence of segments:

- voiced: a band-limited harmonic source whose F0 glides between two
  off-grid values (log-linear), shaped by a random three-formant resonator
  cascade;
- noise: either narrow-band noise, nearly periodic and so a hard case for
  the voicing decision, or broadband noise with a spectral tilt, standing
  in for fricatives and aspiration;
- silence: digital zeros.

Samples are quantised to the PCM16 grid, so the library workloads see the
same values the CLI workload reads from its WAV files. Labels are per
analysis frame (frame n spans samples [n*SHIFT, n*SHIFT + FRAME_LEN)): the
true F0 at the frame centre (0 when unvoiced), the voicing flag, and a
scoring mask that drops every frame within one frame length of a segment
boundary or of either end of the utterance.

The mix is stratified: utterance lengths and segment kinds follow fixed
schedules that the seed only permutes, and F0 contours and noise colours
are spread evenly over their ranges (see stratified). Every seed thus
yields the same amount of audio and nearly the same shares of voiced,
noise and silence frames and of hard cases, which keeps the quality
figures steady from seed to seed; formants, levels, phases and noise
samples are drawn freely.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

FS = 16000
SHIFT = 80
FRAME_LEN = 320
F0_LO, F0_HI = 80.0, 320.0


@dataclass(frozen=True, eq=False)
class Utterance:
    samples: np.ndarray  # float64 on the PCM16 grid, in [-1, 1)
    f0: np.ndarray  # per-frame true F0 in Hz, 0 where unvoiced
    voiced: np.ndarray  # per-frame voicing label
    scored: np.ndarray  # per-frame mask: clear of segment boundaries

    @property
    def seconds(self) -> float:
        return self.samples.size / FS

    @property
    def frames(self) -> int:
        return self.f0.size


def _resonator(freq: float, bandwidth: float):
    """Second-order all-pole section with unit gain at its centre frequency."""
    r = np.exp(-np.pi * bandwidth / FS)
    theta = 2.0 * np.pi * freq / FS
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    gain = abs(np.polyval(a[::-1], np.exp(-1j * theta)))
    return np.array([gain]), a


def _fade(x: np.ndarray) -> np.ndarray:
    """10 ms raised-cosine ramps at both ends, so segment joins do not click."""
    n = min(160, x.size // 2)
    if n:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(n) / n)
        x[:n] *= ramp
        x[-n:] *= ramp[::-1]
    return x


def _voiced(rng, n: int, u: float):
    lo, hi = np.log(F0_LO * 1.1), np.log(F0_HI / 1.1)
    f_start = np.exp(lo + u * (hi - lo))
    # the glide, up to 0.6 octave either way, also follows from u, so every
    # seed has the same set of (start, glide) pairs
    glide = 1.2 * ((7.0 * u) % 1.0 - 0.5)
    f_end = float(np.clip(f_start * 2.0 ** glide, F0_LO, F0_HI))
    f0 = np.exp(np.linspace(np.log(f_start), np.log(f_end), n))
    phase = 2.0 * np.pi * np.cumsum(f0) / FS + rng.uniform(0.0, 2.0 * np.pi)
    src = np.zeros(n)
    for h in range(1, int(7000.0 / F0_LO) + 1):
        amp = np.where(h * f0 < 7000.0, 1.0 / h, 0.0)
        if not amp.any():
            break
        src += amp * np.sin(h * phase)
    for lo, hi in ((300.0, 850.0), (900.0, 2300.0), (2400.0, 3400.0)):
        b, a = _resonator(rng.uniform(lo, hi), rng.uniform(60.0, 160.0))
        src = lfilter(b, a, src)
    return src, f0


def _noise(rng, n: int, u: float):
    x = rng.standard_normal(n)
    if u < 0.5:  # narrow band at 1.5-6.5 kHz, 100-300 Hz wide: nearly periodic
        width = 100.0 + 200.0 * ((14.0 * u) % 1.0)
        b, a = _resonator(1500.0 + 10000.0 * u, width)
    else:  # broadband, flat to tilted towards high frequencies
        pole = -1.6 * (u - 0.5)
        b, a = np.array([1.0 - abs(pole)]), np.array([1.0, -pole])
    return lfilter(b, a, x)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# relative segment lengths: gaps are shorter than voiced stretches
_SHARE = {"voiced": 1.0, "noise": 0.6, "silence": 0.4}


def utterance(rng, seconds: float, kinds: list[str], picks: list[float]) -> Utterance:
    """One utterance of the given length, its segments of the given kinds in
    order, with segment lengths drawn around a split weighted by _SHARE.

    ``picks`` holds one number in [0, 1) per segment: the start F0 and glide
    of a voiced segment, the colour of a noise segment.
    """
    total = int(round(seconds * FS))
    weights = rng.uniform(0.9, 1.1, len(kinds)) * [_SHARE[k] for k in kinds]
    bounds = np.concatenate(([0], np.cumsum(weights) / weights.sum()))
    edges = np.rint(bounds * total).astype(int)
    x = np.zeros(total)
    f0_track = np.zeros(total)
    for kind, u, lo, hi in zip(kinds, picks, edges[:-1], edges[1:]):
        n = hi - lo
        if kind == "voiced":
            seg, f0 = _voiced(rng, n, u)
            f0_track[lo:hi] = f0
        elif kind == "noise":
            seg = _noise(rng, n, u)
        else:
            continue
        level = 10.0 ** (rng.uniform(-24.0, -6.0) / 20.0)
        x[lo:hi] = _fade(level * seg / np.max(np.abs(seg)))
    samples = np.clip(np.rint(x * 32768.0), -32768, 32767) / 32768.0

    frames = -(-total // SHIFT)
    starts = SHIFT * np.arange(frames)
    centres = np.minimum(starts + FRAME_LEN // 2, total - 1)
    f0 = f0_track[centres]
    scored = np.ones(frames, dtype=bool)
    for b in edges:
        scored &= (starts + FRAME_LEN + FRAME_LEN <= b) | (starts - FRAME_LEN >= b)
    return Utterance(samples=samples, f0=f0, voiced=f0 > 0.0, scored=scored)


_CORPUS_KINDS = [
    ["voiced", "noise", "voiced"],
    ["silence", "voiced", "noise"],
    ["noise", "voiced", "silence", "voiced"],
    ["voiced", "silence", "noise", "voiced"],
]


def stratified(rng, plan) -> list[Utterance]:
    """Utterances for a plan of (seconds, kinds).

    The N segments of each kind get the picks (k + 0.5) / N, k = 0..N-1,
    the same set for every seed, in the order of a golden-ratio sequence
    with a seeded offset, taken over the segments in order of utterance
    length. Any run of consecutive segments then spreads evenly over
    [0, 1), so narrow-band and broadband noise, and low and high F0, share
    out the long and the short utterances alike.
    """
    picks = [[0.0] * len(kinds) for _, kinds in plan]
    by_length = np.argsort([seconds for seconds, _ in plan], kind="stable")
    for kind in ("voiced", "noise"):
        slots = [(i, j) for i in by_length for j, k in enumerate(plan[i][1]) if k == kind]
        sequence = (rng.random() + _GOLDEN * np.arange(len(slots))) % 1.0
        ranks = np.argsort(np.argsort(sequence))
        for (i, j), rank in zip(slots, ranks):
            picks[i][j] = (rank + 0.5) / len(slots)
    return [utterance(rng, seconds, kinds, p) for (seconds, kinds), p in zip(plan, picks)]


def corpus(seed: int, count: int = 120, lo: float = 0.5, hi: float = 2.0) -> list[Utterance]:
    """``count`` utterances with lengths evenly spread over [lo, hi] seconds
    (shuffled), cycling through fixed voiced/noise/silence patterns."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.linspace(lo, hi, count))
    return stratified(rng, [(float(sec), _CORPUS_KINDS[i % len(_CORPUS_KINDS)])
                             for i, sec in enumerate(lengths)])

