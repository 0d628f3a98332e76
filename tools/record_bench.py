"""Record one point of the benchmark trajectory as ``BENCH_<label>.json``.

Usage (from the repository root):

    python3 tools/record_bench.py --label NAME [--checkout DIR] [--base DIR]
        [--seeds N ...] [--workload NAME ...]

Runs ``perfbench/run.py`` of the checkout (default: this repository) for
25 s once for every workload that ``BENCHMARK.json`` lists (or each
``--workload``) and each seed (default 1, 2 and 3), one run at a time, and
keeps the JSON result line each run prints, with the metrics it prints
beside that line (such as ``req_count`` and ``req_tail_pct``, the
percentile ``req_tail_ms`` was taken at) under ``extra``.

With ``--base DIR``, every run of the checkout is paired with a run of the
base checkout, for the same workload and seed, back to back; which of the
two goes first alternates from pair to pair.  For each workload and
end-to-end metric the file then records both sides' medians and quartiles
(linear interpolation), the base's interquartile range, and the pairs that
the checkout won and lost in the metric's better direction (ties count for
neither).  ``meets_claim_rule`` is true when the checkout won at least 9 of
every 10 pairs and its median is better than the base's by more than the
base's interquartile range; ``rel_change`` is (checkout - base) / base of
the medians, to compare with the metric's ``bound`` in ``BENCHMARK.json``.
A claim should rest on seeds that were not used while the change was
written, e.g. ``--seeds 11 12 13 14 15 16 17 18 19 20``.

It then times, in-process (with ``--base``, for the base too, in fresh
interpreters after this checkout's, so host drift between the two is not
paired out):

* ``separable_filter_2d`` at 512², 1024² and 2048², sigma 5 and 50, k=3,
  for float64 and float32 inputs (a checkout that filters everything in
  float64 converts the float32 ones);
* the two passes of that call, ``_column_pass`` and ``_row_pass``, at
  1024², sigma 5 and 50, in float32 and float64 (skipped, and recorded as
  null, for a checkout without them);
* at thumbnail size, ``separable_filter_2d`` on float64 and float32
  images of 64x70, 113x120 and 158x155, k=5, sigma 2 and 8, with the
  minor page faults per call of each shape and dtype, and
  ``gaussian_kernel(sigma, 5)``.  ``sliceblur filter`` filters 16-bit
  files in float32, and ``read_pgm`` reads them as float64 by default.

Everything, with the machine facts that run.py prints, goes to
``BENCH_<label>.json`` in the root of this repository.  Nothing under
``perfbench/`` is changed.

Benchmark another commit by pointing ``--checkout`` at an export of it,
e.g. ``git archive <commit> | tar -x -C /tmp/base``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the default seeds, and the run length of every label, so the files compare
SEEDS = (1, 2, 3)
SECONDS = 25.0

# Run in a fresh interpreter with the checkout's src/ first on sys.path:
# median wall time of 15 calls of separable_filter_2d at sigma 5 and 50,
# interleaved so that a drift in machine load hits both sigmas alike.
RATIO_SCRIPT = r"""
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from sliceblur import approx
from sliceblur.filtering import separable_filter_2d
from sliceblur.synth import make_image

rows = []
for n in (512, 1024, 2048):
    image = make_image("one-over-f", n, n, seed=42)
    kernels = {s: approx.gaussian_kernel(s, 3) for s in (5.0, 50.0)}
    for dtype in ("float64", "float32"):
        img = image.astype(dtype)
        times = {s: [] for s in kernels}
        for _ in range(15):
            for s, kern in kernels.items():
                out = None  # free the previous output before the next call
                t0 = time.perf_counter_ns()
                out = separable_filter_2d(img, kern)
                times[s].append(time.perf_counter_ns() - t0)
        ms = {s: statistics.median(t) / 1e6 for s, t in times.items()}
        rows.append({
            "size": n, "input_dtype": dtype, "output_dtype": out.dtype.name,
            "ms_sigma5": ms[5.0], "ms_sigma50": ms[50.0],
            "ratio_50_5": ms[50.0] / ms[5.0],
        })
print(json.dumps(rows))
"""

# Run like RATIO_SCRIPT: median wall time of 15 calls of each pass of
# separable_filter_2d at 1024², k=3, in the order that call runs them (the
# column pass into the output, then the row pass on it in place), sigma
# 5 and 50 interleaved.  Prints null for a checkout without the passes.
PASS_SCRIPT = r"""
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from sliceblur import approx, filtering
from sliceblur.synth import make_image

if not all(hasattr(filtering, f) for f in ("_column_pass", "_row_pass")):
    print("null")
    sys.exit()
image = make_image("one-over-f", 1024, 1024, seed=42)
kernels = {s: approx.gaussian_kernel(s, 3) for s in (5.0, 50.0)}
rows = []
for dtype in ("float64", "float32"):
    img = image.astype(dtype)
    out = filtering._empty(img.shape, img.dtype)
    times = {(s, p): [] for s in kernels for p in ("column", "row")}
    for _ in range(15):
        for s, kern in kernels.items():
            t0 = time.perf_counter_ns()
            filtering._column_pass(img, kern, out)
            t1 = time.perf_counter_ns()
            filtering._row_pass(out, kern, out)
            t2 = time.perf_counter_ns()
            times[s, "column"].append(t1 - t0)
            times[s, "row"].append(t2 - t1)
    for (s, p), t in times.items():
        rows.append({
            "size": 1024, "dtype": dtype, "sigma": s, "pass": f"_{p}_pass",
            "ms": statistics.median(t) / 1e6,
        })
print(json.dumps(rows))
"""

# Run like RATIO_SCRIPT: per-call times at thumbnail size, where fixed
# per-call costs weigh most.  Median wall time of 300 calls of
# separable_filter_2d on float64 and float32 images of 64x70, 113x120 and
# 158x155 (rows x columns), k=5, sigma 2 and 8 interleaved, and of 3000
# calls of gaussian_kernel(sigma, 5) at sigmas drawn from U[1, 8].  Each
# shape and dtype also records its minor page faults per call: whether
# glibc hands the freed buffers back between calls changes from process to
# process, and a call that faults them in again is much slower.
THUMB_SCRIPT = r"""
import json, resource, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from sliceblur import approx
from sliceblur.filtering import separable_filter_2d
from sliceblur.synth import make_image

rows = []
kernels = {s: approx.gaussian_kernel(s, 5) for s in (2.0, 8.0)}
for h, w in ((64, 70), (113, 120), (158, 155)):
    for dtype in ("float64", "float32"):
        img = make_image("one-over-f", w, h, seed=42).astype(dtype)
        times = {s: [] for s in kernels}
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(300):
            for s, kern in kernels.items():
                t0 = time.perf_counter_ns()
                separable_filter_2d(img, kern)
                times[s].append(time.perf_counter_ns() - t0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        for s, t in times.items():
            rows.append({
                "call": "separable_filter_2d", "size": [h, w], "dtype": dtype,
                "k": 5, "sigma": s, "us": statistics.median(t) / 1e3,
                "faults_per_call": faults / (300 * len(kernels)),
            })
sigmas = np.random.default_rng(0).uniform(1.0, 8.0, 3000).tolist()
t = []
for s in sigmas:
    t0 = time.perf_counter_ns()
    approx.gaussian_kernel(s, 5)
    t.append(time.perf_counter_ns() - t0)
rows.append({"call": "gaussian_kernel", "k": 5, "sigma": "U[1, 8]",
             "us": statistics.median(t) / 1e3})
print(json.dumps(rows))
"""


def end_to_end() -> dict:
    """Each end-to-end metric of ``BENCHMARK.json``: its better direction
    and bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def workloads() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def run_one(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """(machine facts, result) of one run.py run; the result's ``extra``
    holds the printed metrics that its ``metrics`` lack, such as the
    request count and the percentile ``req_tail_ms`` was taken at."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    machine = next(line for line in lines if line.startswith("machine "))
    result = json.loads(lines[-1])
    printed = (line.split() for line in lines if line.startswith("metric "))
    result["extra"] = {
        name: float(value) for _, name, value, *_ in printed if name not in result["metrics"]
    }
    return json.loads(machine.removeprefix("machine ")), result


def in_process(script: str, checkout: Path):
    """The JSON that ``script`` prints, run on the checkout's ``src/``."""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(checkout / "src")],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def in_process_all(checkout: Path) -> dict:
    return {
        "sigma_ratio": in_process(RATIO_SCRIPT, checkout),
        "passes": in_process(PASS_SCRIPT, checkout),
        "thumbnails": in_process(THUMB_SCRIPT, checkout),
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list[dict], workload: str) -> dict:
    """Per end-to-end metric of ``workload``: both sides' quartiles, the
    base's interquartile range, and the pairs won and lost."""
    summary = {}
    for name, spec in end_to_end().items():
        values = [
            (p["base"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
            for p in pairs
            if p["workload"] == workload and name in p["base"]["metrics"]
            and name in p["change"]["metrics"]
        ]
        if not values:
            continue
        sign = 1 if spec["better"] == "higher" else -1
        base = quartiles([b for b, _ in values])
        change = quartiles([c for _, c in values])
        iqr = base["q3"] - base["q1"]
        wins = sum(sign * (c - b) > 0 for b, c in values)
        summary[name] = {
            "better": spec["better"], "bound": spec["bound"], "pairs": len(values),
            "base": base, "change": change, "base_iqr": iqr,
            "wins": wins, "losses": sum(sign * (c - b) < 0 for b, c in values),
            "rel_change": (
                (change["median"] - base["median"]) / abs(base["median"])
                if base["median"] else None
            ),
            "meets_claim_rule": (
                10 * wins >= 9 * len(values)
                and sign * (change["median"] - base["median"]) > iqr
            ),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--base", type=Path, default=None,
                        help="pair every run with one of this checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--workload", action="append", choices=workloads(),
                        help="run only this workload (repeatable)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    base = args.base.resolve() if args.base else None

    runs, pairs, machine = [], [], None
    for workload in args.workload or workloads():
        for seed in args.seeds:
            if base is None:
                machine, result = run_one(checkout, workload, seed)
                runs.append({"workload": workload, "seed": seed, "result": result})
                print(f"{workload} seed {seed}: " + json.dumps(result["metrics"]), flush=True)
                continue
            # alternate which side goes first, so a drift hits both alike
            order = ["base", "change"] if len(pairs) % 2 == 0 else ["change", "base"]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                machine, pair[side] = run_one(base if side == "base" else checkout, workload, seed)
            pairs.append(pair)
            runs.append({"workload": workload, "seed": seed, "result": pair["change"]})
            print(f"{workload} seed {seed}, {order[0]} first: " + json.dumps({
                name: [pair[side]["metrics"][name]["value"] for side in ("base", "change")]
                for name in end_to_end() if name in pair["change"]["metrics"]
            }), flush=True)
    record = {
        "label": args.label,
        "command": ["python3", "perfbench/run.py", "--seconds", SECONDS, "--trace", 0],
        "seeds": args.seeds,
        "machine": machine,
        "runs": runs,
        **in_process_all(checkout),
    }
    if base is not None:
        record["base"] = {
            "checkout": base.name,
            "pairs": pairs,
            "paired": {w: compare(pairs, w) for w in dict.fromkeys(p["workload"] for p in pairs)},
            **in_process_all(base),
        }
        for workload, summary in record["base"]["paired"].items():
            for name, m in summary.items():
                print(
                    f"{workload:14} {name:13} base {m['base']['median']:.4g} "
                    f"(IQR {m['base_iqr']:.3g})  change {m['change']['median']:.4g}  "
                    f"won {m['wins']}/{m['pairs']} lost {m['losses']}"
                    + ("  meets claim rule" if m["meets_claim_rule"] else "")
                )
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
