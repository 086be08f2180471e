"""Per-layer tracing from outside the package.

Wrappers are installed on the public functions of each alaskit module
(the layers) and record one span per call: name, parent span, start, end
and the frames the call handled. A function is wrapped under every name
it is looked up by, in every alaskit module: ``features`` imports
``extract_las`` by name, so both ``dsp.extract_las`` and
``features.extract_las`` lead to the wrapper, and ``extract_features``'
inner call shows up as a child span. ``uninstall`` puts the originals
back.

Spans are recorded only while ``active`` is set, so the benchmark's own
output checks, which use the same readers, do not count.
"""

import inspect
import math
import os
import sys
import time
from collections import defaultdict
from functools import wraps
from importlib import import_module

import numpy as np

# Frame counts of a WAV are given in analysis frames at the default shift.
_WAV_SHIFT = 80


def _wav_frames(wave):
    return -(-len(wave) // _WAV_SHIFT)


def _floor_hits(counters, key, las, params):
    counters[key + ".floor_bins"] += np.count_nonzero(las <= math.log(params.log_floor))
    counters[key + ".bins"] += las.size


def _read_bytes(counters, path):
    counters["io.bytes_read"] += os.path.getsize(path)


def _written_bytes(counters, path):
    counters["io.bytes_written"] += os.path.getsize(path)


def _extract_las(a, r, c):
    _floor_hits(c, "dsp.extract_las", r, a["params"])
    return r.shape[0]


def _griffin_lim(a, r, c):
    return np.shape(a["las"])[0]


def _estimate_f0(a, r, c):
    c["features.estimate_f0.voiced"] += np.count_nonzero(r[1])
    return r[0].size


def _recover_alas(a, r, c):
    _floor_hits(c, "alas.recover_alas", r, a["params"])
    return r.shape[0]


def _fit_refiner(a, r, c):
    return sum(np.shape(rec)[0] for rec, _ in a["pairs"])


def _read(frames_of):
    def observe(a, r, c):
        _read_bytes(c, a["path"])
        return frames_of(r)
    return observe


def _write(arg, frames_of):
    def observe(a, r, c):
        _written_bytes(c, a["path"])
        return frames_of(a[arg])
    return observe


# module -> {function: observer(bound_args, result, counters) -> frames}
OBSERVERS = {
    "dsp": {"extract_las": _extract_las, "griffin_lim": _griffin_lim},
    "features": {
        "estimate_f0": _estimate_f0,
        "extract_features": lambda a, r, c: len(r),
    },
    "alas": {"recover_alas": _recover_alas},
    "refine": {
        "fit_refiner": _fit_refiner,
        "apply_refiner": lambda a, r, c: r.shape[0],
    },
    "metrics": {"las_rmse_db": lambda a, r, c: min(np.shape(a["ref"])[0], np.shape(a["test"])[0])},
    "io": {
        "read_wav": _read(_wav_frames),
        "write_wav": _write("wave", _wav_frames),
        "read_feature_file": _read(len),
        "write_feature_file": _write("track", len),
        "read_las_file": _read(lambda r: r[0].shape[0]),
        "write_las_file": _write("las", lambda las: np.shape(las)[0]),
        "emit_spectrogram_image": lambda a, r, c: (
            _written_bytes(c, a["path"]) or np.shape(a["las"])[0]),
    },
    # frames of a command: the largest frame count among the spans it caused
    "cli": {"main": None},
}

TRACED = [f"{module}.{func}" for module, funcs in OBSERVERS.items() for func in funcs]


class Tracer:
    """Spans and counters of traced calls, kept in memory."""

    def __init__(self):
        self.active = False
        self.spans = []  # [name, parent index or None, start, end, frames]
        self.counters = defaultdict(float)
        self._stack = []
        self._restore = []

    def install(self):
        for module_name, funcs in OBSERVERS.items():
            module = import_module(f"alaskit.{module_name}")
            for func_name, observe in funcs.items():
                original = getattr(module, func_name)
                wrapper = self._wrap(f"{module_name}.{func_name}", original, observe)
                for mod in [m for n, m in sys.modules.items()
                            if n == "alaskit" or n.startswith("alaskit.")]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, observe):
        signature = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, 0]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if observe is None:
                span[4] = max((s[4] for s in self.spans[index + 1:] if s[1] == index), default=0)
            else:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = observe(bound.arguments, result, self.counters)
            return result

        return traced

    def layer_metrics(self, passes: int) -> dict:
        """Per traced function: calls, frames, busy and self seconds, each per
        pass; plus the I/O byte counts and the voiced and floor shares."""
        out = {}
        child_time = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for fname in TRACED:
            calls = frames = busy = own = 0.0
            for i, (name, _, start, end, n) in enumerate(self.spans):
                if name == fname:
                    calls += 1
                    frames += n
                    busy += end - start
                    own += end - start - child_time[i]
            out[f"{fname}.calls"] = calls / passes
            out[f"{fname}.frames"] = frames / passes
            out[f"{fname}.busy_s"] = busy / passes
            out[f"{fname}.self_s"] = own / passes
        c = self.counters
        out["io.bytes_read"] = c["io.bytes_read"] / passes
        out["io.bytes_written"] = c["io.bytes_written"] / passes
        out["features.estimate_f0.voiced_frac"] = _ratio(
            c["features.estimate_f0.voiced"], out["features.estimate_f0.frames"] * passes)
        for key in ("dsp.extract_las", "alas.recover_alas"):
            out[f"{key}.floor_frac"] = _ratio(c[key + ".floor_bins"], c[key + ".bins"])
        return out

    def top_level_s(self, passes: int) -> float:
        """Time per pass inside spans that no other span caused."""
        return sum(end - start for _, parent, start, end, _ in self.spans
                   if parent is None) / passes


def _ratio(num, den):
    return num / den if den else 0.0
