"""Smoke test of the benchmark at tiny size (two short utterances, five
Griffin-Lim iterations): every metric BENCHMARK.json names is emitted,
finite and in its unit, in both the timed and the traced run.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = Path(__file__).resolve().parent / "run.py"


def _run(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for spec in expected:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), spec["name"]
    if trace and workload == "cli-chain":
        # two per analyze --las (extract_features computes it once more), and
        # four per evaluate --wav
        assert result["metrics"]["dsp.extract_las.calls"]["value"] == 8
        assert result["metrics"]["cli.main.calls"]["value"] == 12


def test_wrappers_are_removed_after_tracing():
    sys.path[:0] = [str(ROOT / "src"), str(RUN.parent)]
    try:
        import alaskit
        import tracing
        from alaskit import dsp, features

        original = dsp.extract_las
        tracer = tracing.Tracer()
        tracer.install()
        assert features.extract_las is dsp.extract_las is alaskit.extract_las is not original
        tracer.uninstall()
        assert features.extract_las is dsp.extract_las is alaskit.extract_las is original
    finally:
        del sys.path[:2]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "corpus-batch", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
