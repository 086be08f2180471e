"""Run the benchmark in alternated A/B pairs of two checkouts and summarise
each end-to-end metric by the rule a performance claim is held to.

    python tools/abpairs.py PARENT CHANGE [--pairs 10] [--workload corpus-batch]
                            [--seconds 50] [--seed 0] [--log runs.jsonl]

PARENT and CHANGE are source checkouts, each with its own perfbench/run.py,
which runs with the checkout as its working directory. Pair i runs the
parent first when i is even and the change first when it is odd, so drift
of a shared machine weighs on both sides alike. Each run's last output
line, the JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, is kept, and with ``--log`` appended to a JSON-lines file as
the run ends. This reads the checkouts and changes nothing in them but
the work directory run.py keeps there.

Then, per end-to-end metric of this checkout's BENCHMARK.json, one row:
each side's median and quartiles (linear interpolation, as numpy's default
percentile), the change's median against the parent's, the pairs the change won (strictly better in its ``better``
direction), and the claim verdict. A claim holds when there are at least
10 pairs, the change won at least 9 of every 10, and the medians differ in
the better direction by more than the parent's interquartile range.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``values``,
    by linear interpolation between the sorted values."""
    ordered = sorted(values)
    last = len(ordered) - 1

    def at(q: float) -> float:
        pos = q * last
        low = math.floor(pos)
        high = min(low + 1, last)
        return ordered[low] + (pos - low) * (ordered[high] - ordered[low])

    return at(0.25), at(0.5), at(0.75)


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """The pair summary of one metric: ``parent[i]`` and ``change[i]`` are
    pair i's values, ``better`` is "higher" or "lower". Gives both sides'
    quartiles, the change's wins, the gap of the medians in the better
    direction (positive when the change is better) and the claim verdict."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need one value per side per pair, got {len(parent)} and {len(change)}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (c_q[1] - p_q[1])
    claim = len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and gap > p_q[2] - p_q[0]
    return {"parent": p_q, "change": c_q, "wins": wins, "pairs": len(parent), "gap": gap,
            "claim": claim}


def value(result: dict, name: str) -> float:
    """Metric ``name`` of one run's result, NaN where the run has none or
    run.py wrote it as null (a metric it could not measure)."""
    v = result.get("metrics", {}).get(name, {}).get("value")
    return math.nan if v is None else float(v)


def run_once(checkout: Path, args) -> dict:
    """One perfbench/run.py run in ``checkout``: its last output line."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: run.py gave no result (exit {done.returncode}):\n"
                         f"{done.stderr.strip()}")


def report(runs: dict[str, list[dict]], benchmark: dict) -> None:
    """Print the failure counts and one summary row per end-to-end metric."""
    for side, results in runs.items():
        failed = sum(r.get("failed", 0) for r in results)
        attempted = sum(r.get("attempted", 0) for r in results)
        wrong = sum(not r.get("correct", False) for r in results)
        print(f"{side}: {len(results)} runs, {wrong} not correct, {failed}/{attempted} "
              f"operations failed")
    print(f"{'metric':22s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'change':>8s} {'wins':>6s}  claim")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        parent = [value(r, name) for r in runs["parent"]]
        change = [value(r, name) for r in runs["change"]]
        if any(math.isnan(v) for v in parent + change):
            print(f"{name:22s} (missing in some run)")
            continue
        s = summarize(parent, change, metric["better"])
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        rel = f"{(cm - pm) / abs(pm):+.1%}" if pm else "n/a"
        print(f"{name:22s} {pm:12.6g} [{p1:.6g}, {p3:.6g}]".ljust(57)
              + f" {cm:12.6g} [{c1:.6g}, {c3:.6g}]".ljust(35)
              + f" {rel:>8s} {s['wins']:>3d}/{s['pairs']:<2d}  {'yes' if s['claim'] else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--workload", default="corpus-batch")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--log", type=Path, help="append each run's result to this JSON-lines file")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(getattr(args, side), args)
            runs[side].append(result)
            print(f"pair {i + 1}/{args.pairs} {side}: xrt {value(result, 'xrt'):.4g}", flush=True)
            if args.log:
                with args.log.open("a", encoding="utf-8") as log:
                    log.write(json.dumps({"pair": i, "side": side, **result}, default=float) + "\n")
    report(runs, benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
