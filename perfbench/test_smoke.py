"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

Checks that every metric BENCHMARK.json names is printed with its unit,
that no request fails at seed 1, that each workload's reason matches its
BENCHMARK.json entry, and that the benchmark refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
# the end-to-end metrics every run prints, including those the JSON result
# carries in another form (failed_frac as ok_frac and the "failed" count)
PRINTED = (
    "mpx_per_s", "req_p50_ms", "req_tail_ms", "req_tail_pct", "req_count",
    "sigma_spread", "psnr_db_min", "peak_mem_mb", "failed_frac", "setup_s",
)
# per-layer metrics that must be measured (non-zero) on each workload
KERNEL = ("approx.kernel_us", "approx.k_eff", "filtering.adds_per_px",
          "filtering.muls_per_px", "filtering.peak_alloc_mb")
CLI = KERNEL + ("cli.self_ms", "pgm.read_ms", "pgm.write_ms", "pgm.mb_per_s",
                "filtering.sep2d_ms", "filtering.sep2d_ns_per_px",
                "filtering.compulsory_gb_s")
APPLIES = {
    "sweep-1k": CLI + tuple(
        f"{m}.s{s}" for s in (2, 5, 12, 50)
        for m in ("filtering.sep2d_ns_per_px", "oracle.dense_ms", "oracle.speedup")
    ),
    "thumbs-16bit": CLI,
    "sparse-probes": KERNEL + ("filtering.filter_at_ms", "filtering.filter_at_us_per_probe"),
}


def run(root: Path, workload: str, trace: int):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke",
        ],
        capture_output=True, text=True, timeout=170, cwd=root,
    )
    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return proc, printed


def check_result(proc, printed, declared):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]][1] == m["unit"]
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    proc, printed = run(HERE.parent, workload, 0)
    metrics = check_result(proc, printed, SPEC["end_to_end"])
    assert f"workload {workload} seed 1 trace 0: {WORKLOADS[workload]}\n" in proc.stdout
    assert all(m["value"] > 0 for m in metrics.values())
    assert set(PRINTED) <= set(printed)
    assert printed["failed_frac"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(workload):
    proc, printed = run(HERE.parent, workload, 1)
    metrics = check_result(proc, printed, SPEC["per_layer"])
    assert all(v["value"] == 0 for k, v in metrics.items() if k.endswith(".errors"))
    assert all(metrics[name]["value"] > 0 for name in APPLIES[workload])


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, printed = run(tmp_path, next(iter(WORKLOADS)), 0)
    assert proc.returncode != 0
    assert not printed and '"correct"' not in proc.stdout
