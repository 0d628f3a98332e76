"""Record one point of the benchmark trajectory as ``BENCH_<label>.json``.

Usage (from the repository root):

    python3 tools/record_bench.py --label NAME --base DIR [--checkout DIR]
        [--seeds N ...] [--workload NAME ...]

``--base`` is required: every run pairs the checkout (default: this
repository) with the base checkout in ``DIR``.  For every workload that
``BENCHMARK.json`` lists (or each ``--workload``) and each seed (default
1, 2 and 3) it runs both checkouts' ``perfbench/run.py`` for 25 s, back to
back, one run at a time; which of the two goes first alternates from pair
to pair.  Each pair is stored once, under ``base.pairs``: both sides' JSON
result lines, with the metrics each run prints beside that line (such as
``req_count`` and ``req_tail_pct``, the percentile ``req_tail_ms`` was
taken at) under ``extra``.  For each workload and end-to-end metric
``base.paired`` then records both sides' medians and quartiles (linear
interpolation), the base's interquartile range, and the pairs that the
checkout won and lost in the metric's better direction (ties count for
neither).  ``meets_claim_rule`` is true when the checkout won at least 9 of
every 10 pairs and its median is better than the base's by more than the
base's interquartile range; ``rel_change`` is (checkout - base) / base of
the medians, to compare with the metric's ``bound`` in ``BENCHMARK.json``.
A claim should rest on seeds that were not used while the change was
written, e.g. ``--seeds 11 12 13 14 15 16 17 18 19 20``.

It then times, in this interpreter, the checkout's ``src/sliceblur``
loaded as ``sliceblur_change`` beside the base's, loaded as
``sliceblur_base``.  ``timed`` times every call: in each repetition each
tree runs all its calls, and which tree goes first alternates, so that a
drift in machine load hits both alike.  ``--base`` is meant to be the
parent commit, and both trees must have the two passes:

* ``separable_filter_2d`` at 512², 1024² and 2048², sigma 5 and 50, k=3,
  for float64 and float32 inputs, with the dtype of the output;
* the two passes of that call, ``_column_pass`` and ``_row_pass``, at
  1024², sigma 5 and 50, in float32 and float64;
* at thumbnail size, ``separable_filter_2d`` on float64 and float32
  images of 64x70, 113x120 and 158x155, k=5, sigma 2 and 8, with the
  minor page faults per call of each shape and dtype, and
  ``gaussian_kernel(sigma, 5)``, at a new sigma in every repetition.
  ``sliceblur filter`` filters 16-bit files in float32, and ``read_pgm``
  reads them as float64 by default;
* the ``tracemalloc`` peak of one whole ``sliceblur filter`` request
  (``cli.main``: read, kernel, filter, write) on a 1024² 8-bit file at
  sigma 2, 5, 12 and 50, k=3, and on a 113x120 16-bit file at sigma 8,
  k=5, under ``request_memory``.

Everything, with the machine facts that run.py prints, goes to
``BENCH_<label>.json``, the checkout's rows at the top level and the
base's under ``base``, in the root of this repository.  Nothing under
``perfbench/`` is changed.

Benchmark another commit, or give the base, by pointing ``--checkout``
or ``--base`` at an export of it, e.g.
``git archive <commit> | tar -x -C /tmp/base``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import itertools
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
# the workloads and end-to-end metrics, with their better direction and bound
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
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


def timed(trees: dict, reps: int, calls) -> tuple[dict, dict]:
    """Time the calls that ``calls(tree)`` returns, a dict of calls without
    arguments, ``reps`` times for each tree: in each repetition every tree
    runs all its calls in their dict order, and which tree goes first
    alternates, so that a drift in machine load hits both alike.  A call's
    result is freed after its time is taken.  Returns per tree the median
    ns of each call, keyed as the calls are, and the minor page faults per
    repetition, counted around the tree's calls."""
    by_tree = {side: calls(t) for side, t in trees.items()}
    times = {side: {key: [] for key in c} for side, c in by_tree.items()}
    faults = dict.fromkeys(trees, 0)
    sides = list(trees)
    for rep in range(reps):
        for side in sides if rep % 2 == 0 else sides[::-1]:
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for key, call in by_tree[side].items():
                t0 = time.perf_counter_ns()
                out = call()
                times[side][key].append(time.perf_counter_ns() - t0)
                del out
            faults[side] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
    medians = {side: {key: statistics.median(t) for key, t in tt.items()}
               for side, tt in times.items()}
    return medians, {side: f / reps for side, f in faults.items()}


def filter_calls(img, sigmas, k: int):
    """``calls`` for ``timed``: one separable_filter_2d of ``img`` per sigma,
    with the tree's k-slice kernel."""
    return lambda t: {s: functools.partial(t.filtering.separable_filter_2d, img,
                                           t.approx.gaussian_kernel(s, k)) for s in sigmas}


def sigma_ratio(trees: dict) -> dict:
    """Per tree: median wall time of 15 calls of separable_filter_2d at
    sigma 5 and 50, k=3, 512², 1024² and 2048², float64 and float32 input,
    the sigmas and trees interleaved, and the output dtype of a 1x1 call."""
    synth = next(iter(trees.values())).synth
    rows = {side: [] for side in trees}
    for n in (512, 1024, 2048):
        image = synth.make_image("one-over-f", n, n, seed=42)
        for dtype in ("float64", "float32"):
            img = image.astype(dtype)
            ns, _ = timed(trees, 15, filter_calls(img, (5.0, 50.0), 3))
            for side, t in trees.items():
                out = t.filtering.separable_filter_2d(img[:1, :1], t.approx.gaussian_kernel(5.0, 3))
                ms = {s: v / 1e6 for s, v in ns[side].items()}
                rows[side].append({
                    "size": n, "input_dtype": dtype, "output_dtype": out.dtype.name,
                    "ms_sigma5": ms[5.0], "ms_sigma50": ms[50.0],
                    "ratio_50_5": ms[50.0] / ms[5.0],
                })
    return rows


def passes(trees: dict) -> dict:
    """Per tree: median wall time of 15 calls of each pass of
    separable_filter_2d at 1024², k=3, in the order that call runs them
    (the column pass into the output, then the row pass on it in place),
    sigma 5 and 50 and the trees interleaved."""
    first = next(iter(trees.values()))
    image = first.synth.make_image("one-over-f", 1024, 1024, seed=42)
    rows = {side: [] for side in trees}
    for dtype in ("float64", "float32"):
        img = image.astype(dtype)
        out = first.filtering._empty(img.shape, img.dtype)

        def calls(t):
            both = {}
            for s in (5.0, 50.0):
                kern = t.approx.gaussian_kernel(s, 3)
                both[s, "column"] = functools.partial(t.filtering._column_pass, img, kern, out)
                both[s, "row"] = functools.partial(t.filtering._row_pass, out, kern, out, img)
            return both

        ns, _ = timed(trees, 15, calls)
        for side, tt in ns.items():
            rows[side] += [
                {"size": 1024, "dtype": dtype, "sigma": s, "pass": f"_{p}_pass", "ms": v / 1e6}
                for (s, p), v in tt.items()
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
    for h, w in ((64, 70), (113, 120), (158, 155)):
        for dtype in ("float64", "float32"):
            img = synth.make_image("one-over-f", w, h, seed=42).astype(dtype)
            ns, faults = timed(trees, 300, filter_calls(img, (2.0, 8.0), 5))
            for side, tt in ns.items():
                rows[side] += [
                    {"call": "separable_filter_2d", "size": [h, w], "dtype": dtype,
                     "k": 5, "sigma": s, "us": v / 1e3, "faults_per_call": faults[side] / len(tt)}
                    for s, v in tt.items()
                ]
    # every tree draws the next sigma of one sequence in each repetition
    sigmas = np.random.default_rng(0).uniform(1.0, 8.0, 3000).tolist()
    ns, _ = timed(trees, len(sigmas), lambda t: {"kernel": functools.partial(
        next, map(t.approx.gaussian_kernel, sigmas, itertools.repeat(5)))})
    for side, tt in ns.items():
        rows[side].append({"call": "gaussian_kernel", "k": 5, "sigma": "U[1, 8]",
                           "us": tt["kernel"] / 1e3})
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
    return {m["name"]: m for m in SPEC["end_to_end"]}


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
    parser.add_argument("--base", type=Path, required=True,
                        help="pair every run with one of this checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="run only this workload (repeatable)")
    args = parser.parse_args(argv)
    dirs = {"base": args.base.resolve(), "change": args.checkout.resolve()}

    pairs, machine = [], None
    for workload in args.workload or workloads:
        for seed in args.seeds:
            # alternate which side goes first, so a drift hits both alike
            order = ["base", "change"] if len(pairs) % 2 == 0 else ["change", "base"]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                machine, pair[side] = run_one(dirs[side], workload, seed)
            pairs.append(pair)
            print(f"{workload} seed {seed}, {order[0]} first: " + json.dumps({
                name: [pair[side]["metrics"][name]["value"] for side in ("base", "change")]
                for name in end_to_end() if name in pair["change"]["metrics"]
            }), flush=True)
    trees = {side: load(dirs[side], f"sliceblur_{side}") for side in ("change", "base")}
    tables = {"sigma_ratio": sigma_ratio(trees), "passes": passes(trees),
              "thumbnails": thumbnails(trees), "request_memory": request_memory(trees)}
    measured = {side: {key: rows[side] for key, rows in tables.items()} for side in trees}
    paired = {w: compare(pairs, w) for w in dict.fromkeys(p["workload"] for p in pairs)}
    record = {
        "label": args.label,
        "command": ["python3", "perfbench/run.py", "--seconds", SECONDS, "--trace", 0],
        "seeds": args.seeds,
        "machine": machine,
        **measured["change"],
        "base": {"checkout": dirs["base"].name, "pairs": pairs, "paired": paired,
                 **measured["base"]},
    }
    for workload, summary in paired.items():
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
