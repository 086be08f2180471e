"""tools/abpairs.py's summary arithmetic: quartiles, wins and the claim rule
(at least 10 pairs, at least 9 of 10 won, a median gap above the parent's
interquartile range)."""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "abpairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("abpairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("values, expected", [
    ([5.0], (5.0, 5.0, 5.0)),
    ([2.0, 1.0], (1.25, 1.5, 1.75)),
    ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 3.0, 4.0)),
    ([4.0, 1.0, 3.0, 2.0], (1.75, 2.5, 3.25)),
    (list(range(10, 0, -1)), (3.25, 5.5, 7.75)),
])
def test_quartiles_interpolate_linearly_between_sorted_values(values, expected):
    # numpy.percentile(values, [25, 50, 75]) gives the same
    assert _tool().quartiles(values) == pytest.approx(expected, abs=0, rel=1e-15)


def test_wins_count_strictly_better_pairs_in_the_better_direction():
    tool = _tool()
    parent, change = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    assert tool.summarize(parent, change, "higher")["wins"] == 2
    assert tool.summarize(parent, change, "lower")["wins"] == 1


def test_claim_holds_at_ten_pairs_nine_won_and_a_gap_above_the_iqr():
    tool = _tool()
    parent = [100.0 + i for i in range(10)]  # quartiles 102.25, 104.5, 106.75: IQR 4.5
    change = [v + 5.0 for v in parent]
    change[3] = parent[3] - 1.0  # one pair lost
    s = tool.summarize(parent, change, "higher")
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["parent"] == (102.25, 104.5, 106.75)
    assert s["gap"] == pytest.approx(5.0) and s["claim"]


@pytest.mark.parametrize("case", ["eight-won", "nine-pairs", "gap-within-iqr", "wrong-way"])
def test_claim_fails_short_of_any_part_of_the_rule(case):
    tool = _tool()
    parent = [100.0 + i for i in range(10)]
    change = [v + 5.0 for v in parent]
    better = "higher"
    if case == "eight-won":
        change[0], change[1] = parent[0] - 1.0, parent[1] - 1.0
    elif case == "nine-pairs":
        parent, change = parent[:9], change[:9]
    elif case == "gap-within-iqr":
        change = [v + 0.5 for v in parent]  # every pair won, median gap 0.5 < IQR 4.5
    else:
        better = "lower"  # the same figures read as a loss
    s = tool.summarize(parent, change, better)
    assert not s["claim"]
    if case == "gap-within-iqr":
        assert s["wins"] == 10 and s["gap"] == pytest.approx(0.5)


def test_lower_is_better_claims_a_drop():
    tool = _tool()
    parent = [1.0 + 0.01 * i for i in range(12)]
    change = [v - 0.5 for v in parent]
    s = tool.summarize(parent, change, "lower")
    assert s["wins"] == 12 and s["gap"] == pytest.approx(0.5) and s["claim"]


def test_sides_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="one value per side per pair"):
        _tool().summarize([1.0, 2.0], [1.0], "higher")


def test_report_prints_one_row_per_end_to_end_metric(capsys):
    tool = _tool()

    def run(xrt, rss):
        # run.py writes a metric it could not measure as null; op_p50_s is absent
        return {"correct": True, "attempted": 120, "failed": 0,
                "metrics": {"xrt": {"value": xrt}, "peak_rss_mb": {"value": rss},
                            "setup_s": {"value": None}}}

    runs = {"parent": [run(200.0 + i, 700.0) for i in range(10)],
            "change": [run(220.0 + i, 700.0) for i in range(10)]}
    benchmark = {"end_to_end": [{"name": "xrt", "better": "higher"},
                                {"name": "peak_rss_mb", "better": "lower"},
                                {"name": "setup_s", "better": "lower"},
                                {"name": "op_p50_s", "better": "lower"}]}
    tool.report(runs, benchmark)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "parent: 10 runs, 0 not correct, 0/1200 operations failed"
    rows = {line.split()[0]: line.split() for line in lines[3:]}
    assert rows["xrt"][-3:] == ["+9.8%", "10/10", "yes"]
    assert rows["peak_rss_mb"][-3:] == ["+0.0%", "0/10", "no"]
    assert rows["setup_s"][1:] == ["(missing", "in", "some", "run)"]
    assert rows["op_p50_s"][1:] == ["(missing", "in", "some", "run)"]
    assert math.isnan(tool.value(runs["parent"][0], "setup_s"))
    assert math.isnan(tool.value(runs["parent"][0], "op_p50_s"))

