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

It then times, in this interpreter, the checkout's ``src/sliceblur``
loaded as ``sliceblur_change`` (with ``--base``, beside the base's, loaded
as ``sliceblur_base``; in each repetition, which tree's call goes first
alternates, so that a drift in machine load hits both alike):

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
  files in float32, and ``read_pgm`` reads them as float64 by default;
* the ``tracemalloc`` peak of one whole ``sliceblur filter`` request
  (``cli.main``: read, kernel, filter, write) on a 1024² 8-bit file at
  sigma 2, 5, 12 and 50, k=3, and on a 113x120 16-bit file at sigma 8,
  k=5, under ``request_memory``.

Everything, with the machine facts that run.py prints, goes to
``BENCH_<label>.json`` in the root of this repository.  Nothing under
``perfbench/`` is changed.

Benchmark another commit by pointing ``--checkout`` at an export of it,
e.g. ``git archive <commit> | tar -x -C /tmp/base``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# the default seeds, and the run length of every label, so the files compare
SEEDS = (1, 2, 3)
SECONDS = 25.0

def load(checkout: Path, name: str):
    """The ``sliceblur`` package of the checkout's ``src/``, imported as
    ``name`` with its submodules, so that two checkouts load side by side
    in one interpreter."""
    init = checkout / "src" / "sliceblur" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("synth", "pgm", "cli"):
        importlib.import_module(f"{name}.{module}")
    return package


def interleaved(trees: dict, rep: int) -> list:
    """``trees``' items in the order of repetition ``rep``: which tree's
    call goes first alternates, so that a drift in machine load hits both
    alike."""
    items = list(trees.items())
    return items if rep % 2 == 0 else items[::-1]


def sigma_ratio(trees: dict) -> dict:
    """Per tree: median wall time of 15 calls of separable_filter_2d at
    sigma 5 and 50, k=3, 512², 1024² and 2048², float64 and float32 input,
    the sigmas and trees interleaved."""
    synth = next(iter(trees.values())).synth
    rows = {side: [] for side in trees}
    for n in (512, 1024, 2048):
        image = synth.make_image("one-over-f", n, n, seed=42)
        kernels = {side: {s: t.approx.gaussian_kernel(s, 3) for s in (5.0, 50.0)}
                   for side, t in trees.items()}
        for dtype in ("float64", "float32"):
            img = image.astype(dtype)
            times = {side: {5.0: [], 50.0: []} for side in trees}
            out_dtype = {}
            for rep in range(15):
                for side, t in interleaved(trees, rep):
                    for s, kern in kernels[side].items():
                        t0 = time.perf_counter_ns()
                        out = t.filtering.separable_filter_2d(img, kern)
                        times[side][s].append(time.perf_counter_ns() - t0)
                        out_dtype[side] = out.dtype.name
                        out = None  # free the output before the next call
            for side, tt in times.items():
                ms = {s: statistics.median(t) / 1e6 for s, t in tt.items()}
                rows[side].append({
                    "size": n, "input_dtype": dtype, "output_dtype": out_dtype[side],
                    "ms_sigma5": ms[5.0], "ms_sigma50": ms[50.0],
                    "ratio_50_5": ms[50.0] / ms[5.0],
                })
    return rows


def passes(trees: dict) -> dict:
    """Per tree: median wall time of 15 calls of each pass of
    separable_filter_2d at 1024², k=3, in the order that call runs them
    (the column pass into the output, then the row pass on it in place),
    sigma 5 and 50 and the trees interleaved.  None for a tree without
    the passes."""
    have = {side: t for side, t in trees.items()
            if all(hasattr(t.filtering, f) for f in ("_column_pass", "_row_pass"))}
    rows = {side: None if side not in have else [] for side in trees}
    if not have:
        return rows
    image = next(iter(trees.values())).synth.make_image("one-over-f", 1024, 1024, seed=42)
    kernels = {side: {s: t.approx.gaussian_kernel(s, 3) for s in (5.0, 50.0)}
               for side, t in have.items()}
    for dtype in ("float64", "float32"):
        img = image.astype(dtype)
        out = next(iter(have.values())).filtering._empty(img.shape, img.dtype)
        times = {side: {(s, p): [] for s in (5.0, 50.0) for p in ("column", "row")}
                 for side in have}
        for rep in range(15):
            for side, t in interleaved(have, rep):
                for s, kern in kernels[side].items():
                    t0 = time.perf_counter_ns()
                    t.filtering._column_pass(img, kern, out)
                    t1 = time.perf_counter_ns()
                    t.filtering._row_pass(out, kern, out, img)
                    t2 = time.perf_counter_ns()
                    times[side][s, "column"].append(t1 - t0)
                    times[side][s, "row"].append(t2 - t1)
        for side, tt in times.items():
            rows[side] += [
                {"size": 1024, "dtype": dtype, "sigma": s, "pass": f"_{p}_pass",
                 "ms": statistics.median(t) / 1e6}
                for (s, p), t in tt.items()
            ]
    return rows


def thumbnails(trees: dict) -> dict:
    """Per tree: per-call times at thumbnail size, where fixed per-call
    costs weigh most.  Median wall time of 300 calls of separable_filter_2d
    on float64 and float32 images of 64x70, 113x120 and 158x155 (rows x
    columns), k=5, sigma 2 and 8 and the trees interleaved, and of 3000
    calls of gaussian_kernel(sigma, 5) at sigmas drawn from U[1, 8].  Each
    shape and dtype also records its minor page faults per call, counted
    around each tree's calls: whether glibc hands the freed buffers back between
    calls changes from process to process, and a call that faults them in
    again is much slower."""
    synth = next(iter(trees.values())).synth
    rows = {side: [] for side in trees}
    kernels = {side: {s: t.approx.gaussian_kernel(s, 5) for s in (2.0, 8.0)}
               for side, t in trees.items()}
    for h, w in ((64, 70), (113, 120), (158, 155)):
        for dtype in ("float64", "float32"):
            img = synth.make_image("one-over-f", w, h, seed=42).astype(dtype)
            times = {side: {2.0: [], 8.0: []} for side in trees}
            faults = dict.fromkeys(trees, 0)
            for rep in range(300):
                for side, t in interleaved(trees, rep):
                    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    for s, kern in kernels[side].items():
                        t0 = time.perf_counter_ns()
                        t.filtering.separable_filter_2d(img, kern)
                        times[side][s].append(time.perf_counter_ns() - t0)
                    faults[side] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
            for side, tt in times.items():
                rows[side] += [
                    {"call": "separable_filter_2d", "size": [h, w], "dtype": dtype,
                     "k": 5, "sigma": s, "us": statistics.median(t) / 1e3,
                     "faults_per_call": faults[side] / (300 * len(tt))}
                    for s, t in tt.items()
                ]
    sigmas = np.random.default_rng(0).uniform(1.0, 8.0, 3000).tolist()
    times = {side: [] for side in trees}
    for rep, s in enumerate(sigmas):
        for side, t in interleaved(trees, rep):
            t0 = time.perf_counter_ns()
            t.approx.gaussian_kernel(s, 5)
            times[side].append(time.perf_counter_ns() - t0)
    for side, t in times.items():
        rows[side].append({"call": "gaussian_kernel", "k": 5, "sigma": "U[1, 8]",
                           "us": statistics.median(t) / 1e3})
    return rows


def request_memory(trees: dict) -> dict:
    """Per tree: the tracemalloc peak, in MB, of one ``sliceblur filter``
    request (``cli.main``) on a 1024² 8-bit file at sigma 2, 5, 12 and 50,
    k=3, and on a 113x120 16-bit file at sigma 8, k=5.  Each request is run
    once untraced first, so that the peak leaves out one-time set-up."""
    first = next(iter(trees.values()))
    rows = {side: [] for side in trees}
    cases = [((1024, 1024), 255, 3, s) for s in (2.0, 5.0, 12.0, 50.0)]
    cases.append(((113, 120), 65535, 5, 8.0))
    with tempfile.TemporaryDirectory() as tmp:
        for (h, w), maxval, k, s in cases:
            src, dst = Path(tmp) / f"{h}x{w}-{maxval}.pgm", Path(tmp) / "out.pgm"
            image = first.synth.make_image("one-over-f", w, h, seed=42)
            first.pgm.write_pgm(src, image, maxval)
            argv = ["filter", str(src), str(dst), "--sigma", repr(s), "--k", str(k)]
            for side, t in trees.items():
                t.cli.main(argv)
                tracemalloc.start()
                try:
                    if t.cli.main(argv) != 0:
                        raise RuntimeError(f"{side}: sliceblur {' '.join(argv)} failed")
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                rows[side].append({"call": "sliceblur filter", "size": [h, w],
                                   "maxval": maxval, "k": k, "sigma": s, "peak_mb": peak / 1e6})
    return rows


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


def in_process_all(trees: dict) -> dict:
    """Per tree: the in-process timings and request peaks, keyed as in
    ``BENCH_*.json``."""
    timed = {"sigma_ratio": sigma_ratio(trees), "passes": passes(trees),
             "thumbnails": thumbnails(trees), "request_memory": request_memory(trees)}
    return {side: {key: rows[side] for key, rows in timed.items()} for side in trees}


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
    }
    trees = {"change": load(checkout, "sliceblur_change")}
    if base is not None:
        trees["base"] = load(base, "sliceblur_base")
    timed = in_process_all(trees)
    record.update(timed["change"])
    if base is not None:
        record["base"] = {
            "checkout": base.name,
            "pairs": pairs,
            "paired": {w: compare(pairs, w) for w in dict.fromkeys(p["workload"] for p in pairs)},
            **timed["base"],
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
