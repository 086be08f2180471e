"""One set-up measurement in a fresh interpreter.

Imports alaskit, then makes a first small pipeline call, which fills the
package's lazy caches (the warp matrix). Prints one JSON line:
``setup_s`` is the import plus the first call, without making the tiny
input; ``import_s`` is the import of alaskit.cli, which pulls in every
module. Run with alaskit importable, for example PYTHONPATH=src.
"""

import time

t_start = time.perf_counter()
import alaskit as ak  # noqa: E402

t_package = time.perf_counter()
import alaskit.cli  # noqa: E402,F401

t_cli = time.perf_counter()
import json  # noqa: E402

import numpy as np  # noqa: E402

wave = ak.Waveform(0.1 * np.sin(2.0 * np.pi * 150.0 * np.arange(4000) / 16000.0), 16000)
params = ak.AnalysisParams()
t_call = time.perf_counter()
ak.recover_alas(ak.extract_features(wave, params), params)
t_end = time.perf_counter()
print(json.dumps({"setup_s": (t_package - t_start) + (t_end - t_call),
                  "import_s": t_cli - t_start}))
