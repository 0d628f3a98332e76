"""Tests for the scripts under tools/."""

import functools
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_digest_is_repeatable():
    # two runs on one checkout hash every case alike: the grid is seeded,
    # and no output depends on uninitialised memory
    cmd = [sys.executable, str(ROOT / "tools" / "digest.py"), str(ROOT)]
    first, second = (
        subprocess.run(cmd, capture_output=True, text=True, check=True).stdout for _ in range(2)
    )
    lines = first.splitlines()
    assert len(lines) > 3000 and len(set(lines)) == len(lines)
    assert all(len(line.split()) == 2 for line in lines)
    assert first == second


def _record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(metric, values):
    """Synthetic ``record_bench`` pairs of one workload: (base, change)
    values of one metric."""
    return [
        {"workload": "w", **{side: {"metrics": {metric: {"value": v}}}
                             for side, v in zip(("base", "change"), pair)}}
        for pair in values
    ]


def test_quartiles():
    rb = _record_bench()
    assert rb.quartiles([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5}
    assert rb.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    # linear interpolation between the samples
    assert rb.quartiles([4.0, 1.0, 2.0, 3.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_compare_claim_rule():
    # the base reads 100..109 (IQR 4.5); the change gains 10 in all but one pair
    rb = _record_bench()
    base = [100.0 + i for i in range(10)]
    nine = _pairs("mpx_per_s", [(b, b + 10.0 if i else b - 1.0) for i, b in enumerate(base)])
    m = rb.compare(nine, "w")["mpx_per_s"]
    assert (m["pairs"], m["wins"], m["losses"]) == (10, 9, 1)
    assert m["base_iqr"] == 4.5 and m["base"]["median"] == 104.5
    assert m["meets_claim_rule"]
    assert m["rel_change"] == (m["change"]["median"] - 104.5) / 104.5
    # 8 of 10 wins does not meet it, however large the gain
    eight = _pairs("mpx_per_s", [(b, b + 50.0 if i > 1 else b - 1.0) for i, b in enumerate(base)])
    m = rb.compare(eight, "w")["mpx_per_s"]
    assert (m["wins"], m["losses"]) == (8, 2) and not m["meets_claim_rule"]
    # 10 of 10 wins whose median gain is within the base's IQR does not either
    small = _pairs("mpx_per_s", [(b, b + 4.0) for b in base])
    assert not rb.compare(small, "w")["mpx_per_s"]["meets_claim_rule"]
    # only this workload's pairs count, and only metrics that both sides report
    assert rb.compare(nine, "other") == {}


def test_compare_ties_and_direction():
    rb = _record_bench()
    base = [5.0 + 0.01 * i for i in range(10)]
    # ties count as neither a win nor a loss
    m = rb.compare(_pairs("mpx_per_s", [(b, b) for b in base]), "w")["mpx_per_s"]
    assert (m["wins"], m["losses"], m["rel_change"]) == (0, 0, 0.0)
    assert not m["meets_claim_rule"]
    # lower is better for a latency: falling by 1 wins every pair and meets
    # the rule, rising loses every pair
    assert rb.end_to_end()["req_p50_ms"]["better"] == "lower"
    m = rb.compare(_pairs("req_p50_ms", [(b, b - 1.0) for b in base]), "w")["req_p50_ms"]
    assert (m["wins"], m["losses"]) == (10, 0) and m["meets_claim_rule"]
    m = rb.compare(_pairs("req_p50_ms", [(b, b + 1.0) for b in base]), "w")["req_p50_ms"]
    assert (m["wins"], m["losses"]) == (0, 10) and not m["meets_claim_rule"]
    assert m["rel_change"] > 0
    # and the same rise of a higher-is-better metric wins
    m = rb.compare(_pairs("mpx_per_s", [(b, b + 1.0) for b in base]), "w")["mpx_per_s"]
    assert (m["wins"], m["losses"]) == (10, 0) and m["meets_claim_rule"]


def test_timed_interleaves_trees_and_keys_per_call():
    rb = _record_bench()
    log = []
    trees = {"change": "c", "base": "b"}
    medians, faults = rb.timed(trees, 4, lambda t: {
        key: functools.partial(log.append, (t, key)) for key in ("x", "y", "z")
    })
    # each repetition runs one tree's calls in dict order, then the other's,
    # and the tree that goes first alternates
    one = {t: [(t, key) for key in ("x", "y", "z")] for t in "cb"}
    assert log == 2 * (one["c"] + one["b"] + one["b"] + one["c"])
    assert list(medians) == ["change", "base"] and list(faults) == ["change", "base"]
    for side in trees:
        assert list(medians[side]) == ["x", "y", "z"]
        assert all(ns > 0 for ns in medians[side].values())
        assert faults[side] >= 0
