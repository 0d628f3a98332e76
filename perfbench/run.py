"""sliceblur benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-1k --seed 1 --seconds 25 --trace 0

Workloads: sweep-1k, thumbs-16bit and sparse-probes (see workloads.py for
what each stresses and why).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` sends every request twice, once plain and once with spans
recorded around the calls into sliceblur's public functions, and reports
the per-layer metrics.  ``--smoke`` shrinks the inputs so that a run takes
a few seconds; ``python3 -m pytest perfbench/test_smoke.py`` uses it.  The
program is imported from ``src/`` of the checkout this file sits in;
nothing is installed.  Scratch files and traces go to ``perfbench/out/``.

A run: generate the seeded inputs; time fresh processes from start to
their first completed request (``setup_s``, a median); compute the
references; measure peak memory and accuracy in an untimed pass over a
fixed request set; then send requests in a closed loop for ``--seconds``.
Every output is checked outside the timed region.  Failed requests count
in ``failed`` and are left out of the timings.  Request times are wall
clock, except ``req_tail_ms``, which is process CPU time (see end_to_end);
the wall-clock tail is printed beside it.  Machine facts are printed
with each result; bytes moved are computed from array sizes, not counted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, CheckFailed, Sweep1k

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: the per-sigma layer metrics cover sweep-1k's sigmas
SWEEP_GROUPS = dict(zip(Sweep1k.groups, Sweep1k.sigmas))
#: bytes a separable pass must move per pixel: read and write each of two passes
COMPULSORY_B_PER_PX = 32
LAYERS = ("cli", "pgm", "approx", "filtering", "oracle")

E2E_UNITS = {
    "mpx_per_s": "Mpx/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "sigma_spread": "ratio",
    "psnr_db_min": "dB",
    "peak_mem_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}
LAYER_UNITS = {
    "cli.self_ms": "ms",
    "pgm.read_ms": "ms",
    "pgm.write_ms": "ms",
    "pgm.mb_per_s": "MB/s",
    "approx.kernel_us": "us",
    "approx.k_eff": "count",
    "filtering.sep2d_ms": "ms",
    "filtering.sep2d_ns_per_px": "ns/px",
    **{f"filtering.sep2d_ns_per_px.{g}": "ns/px" for g in SWEEP_GROUPS},
    "filtering.adds_per_px": "ops/px",
    "filtering.muls_per_px": "ops/px",
    "filtering.compulsory_gb_s": "GB/s",
    "filtering.peak_alloc_mb": "MB",
    "filtering.filter_at_ms": "ms",
    "filtering.filter_at_us_per_probe": "us",
    **{f"oracle.dense_ms.{g}": "ms" for g in SWEEP_GROUPS},
    **{f"oracle.speedup.{g}": "ratio" for g in SWEEP_GROUPS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "input.same_image_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def trace_targets(sb):
    """Public functions each layer is entered through, with span names."""
    return [
        (sb.cli, "main", "cli.main", lambda a, kw, r: {"rc": r}),
        (sb.pgm, "read_pgm", "pgm.read", None),
        (sb.pgm, "write_pgm", "pgm.write", None),
        (sb.approx, "table_defaults", "approx.table_defaults", None),
        (sb.approx, "to_slices", "approx.to_slices", None),
        (sb.approx, "scale_to_sigma", "approx.scale_to_sigma", lambda a, kw, r: {"k_eff": r.k}),
        (sb.filtering, "separable_filter_2d", "filtering.sep2d", lambda a, kw, r: {"pixels": r.size}),
        (sb.filtering, "filter_at", "filtering.filter_at", None),
        (
            sb.oracle, "exact_gaussian_2d", "oracle.dense",
            lambda a, kw, r: {"sigma": float(a[1] if len(a) > 1 else kw["sigma"]), "pixels": r.size},
        ),
    ]


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        conf = subprocess.run(
            ["getconf", "-a"], capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        conf = ""
    for line in conf.splitlines():
        key, _, value = line.partition(" ")
        if key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            info[key.lower()] = int(value) if value.strip().isdigit() else None
    return info


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, req):
        """The timed part of a request: ((wall ns, process CPU ns), result),
        or (None, None) if the call raised."""
        self.attempted += 1
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            result = self.wl.run(req)
        except Exception as exc:  # a raising call is a failed request
            self.failures.append(f"request {req.index}: {exc!r}")
            return None, None
        return (time.perf_counter_ns() - t0, time.process_time_ns() - c0), result

    def check(self, req, result):
        """PSNR of the request's float result, or None if a check failed."""
        try:
            return self.wl.check(req, result)
        except (CheckFailed, ValueError, OSError) as exc:
            self.failures.append(f"request {req.index}: {exc}")
            return None

    def request(self, req):
        """(wall ns, CPU ns) of a request whose output passed its checks,
        else None."""
        times, result = self.call(req)
        if times is None or self.check(req, result) is None:
            return None
        return times


def measure_setup(wl, workdir: Path, probes: int) -> float:
    """Median over fresh processes of start to first completed request,
    less the time spent loading the request's input."""
    values = []
    for i in range(probes):
        spec = json.dumps(wl.probe_spec(workdir / f"probe-out{i}.pgm"))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), spec],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if report["rc"] != 0:
            raise RuntimeError(f"set-up probe request returned {report['rc']}")
        values.append(report["done"] - t0 - report["load_s"])
    return statistics.median(values)


def traced_peak(fn):
    """(peak MB that tracemalloc saw allocated during fn(), its result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1] / 1e6, result
    finally:
        tracemalloc.stop()


#: percentiles a tail may be reported at, from the median up
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def tail(latencies):
    """(p, value) for the highest ladder percentile p that has at least 10
    samples beyond it (nearest rank).

    A fixed ladder keeps the reported percentile from moving with small
    changes in the request count, and keeps at least 10 and usually many
    more samples beyond it, so that a few scheduler stalls in one run do
    not decide the value.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    p = max((q for q in TAIL_LADDER if n - math.ceil(q * n / 100) >= 10), default=50)
    return p, ordered[math.ceil(p * n / 100) - 1]


def same_image_frac(reqs) -> float:
    pairs = list(zip(reqs, reqs[1:]))
    return sum(a.image == b.image for a, b in pairs) / len(pairs) if pairs else 0.0


@dataclass
class Sent:
    """A timed request whose output passed its checks."""

    req: object
    wall_ns: int
    cpu_ns: int  # process CPU time, all threads
    traced_wall_ns: int | None = None


def timed_loop(run: Run, seconds: float, tracer=None, targets=None) -> list[Sent]:
    """Closed loop until ``seconds`` have passed.

    With a tracer, each request is sent twice, alternating which of the
    plain and the traced send goes first.
    """
    done = []
    deadline = time.monotonic() + seconds
    for i, req in enumerate(run.wl.requests()):
        if time.monotonic() >= deadline:
            break
        if tracer is None:
            times = run.request(req)
            if times is not None:
                done.append(Sent(req, *times))
            continue
        sends = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                with tracer.installed(targets), tracer.request(req.index):
                    times, result = run.call(req)
                ok = times is not None and run.check(req, result) is not None
                sends[traced] = times if ok else None
            else:
                sends[traced] = run.request(req)
        if None not in sends.values():
            done.append(Sent(req, *sends[False], traced_wall_ns=sends[True][0]))
    return done


def end_to_end(run: Run, done: list[Sent], setup_s: float, peak: float, psnrs) -> dict:
    lat = [d.wall_ns for d in done]
    # The tail is taken on process CPU time: on a shared machine, hypervisor
    # steal and co-tenant load stall more than 1% of requests by several ms
    # of wall time, and those stalls, not the program, decided the
    # wall-clock tail from run to run.
    pct, tail_ns = tail([d.cpu_ns for d in done])
    by_group = {}
    for d in done:
        by_group.setdefault(d.req.group, []).append(d.wall_ns / d.req.pixels)
    group_medians = [statistics.median(v) for v in by_group.values()]
    return {
        "mpx_per_s": sum(d.req.pixels for d in done) / 1e6 / (sum(lat) / 1e9),
        "req_p50_ms": statistics.median(lat) / 1e6,
        "req_tail_ms": tail_ns / 1e6,
        "sigma_spread": max(group_medians) / min(group_medians),
        "psnr_db_min": min(psnrs),
        "peak_mem_mb": peak,
        "ok_frac": 1.0 - len(run.failures) / run.attempted,
        "setup_s": setup_s,
    }, {
        "req_count": (len(lat), "count"),
        "req_tail_pct": (pct, "%"),
        "req_tail_wall_ms": (tail(lat)[1] / 1e6, "ms"),
        "failed_frac": (len(run.failures) / run.attempted, "ratio"),
        "input.same_image_frac": (same_image_frac([d.req for d in done]), "ratio"),
    }


def per_layer(run: Run, done: list[Sent], tracer: Tracer, peak_alloc: float) -> dict:
    wl = run.wl
    reqs = [d.req for d in done]
    rids = [req.index for req in reqs]
    spans = tracer.by_request(rids)

    def totals(rid, *names, self_time=False):
        return sum(s if self_time else d for name in names for d, s, _ in spans[rid].get(name, ()))

    def med_over(name, *names, self_time=False, scale=1.0):
        vals = [totals(r, name, *names, self_time=self_time) for r in rids if spans[r].get(name)]
        return median(vals) / scale

    sep = [(req, totals(req.index, "filtering.sep2d")) for req in reqs
           if spans[req.index].get("filtering.sep2d")]
    io_ns = sum(totals(r, "pgm.read", "pgm.write") for r in rids)
    io_bytes = sum(wl.file_bytes(req) for req in reqs) if io_ns else 0
    k_eff = median([s["k_eff"] for r in rids for _, _, s in spans[r].get("approx.scale_to_sigma", ())])
    at_ms = med_over("filtering.filter_at", scale=1e6)

    m = {
        "cli.self_ms": med_over("cli.main", self_time=True, scale=1e6),
        "pgm.read_ms": med_over("pgm.read", scale=1e6),
        "pgm.write_ms": med_over("pgm.write", scale=1e6),
        "pgm.mb_per_s": io_bytes / 1e6 / (io_ns / 1e9) if io_ns else 0.0,
        "approx.kernel_us": med_over(
            "approx.scale_to_sigma", "approx.to_slices", "approx.table_defaults", scale=1e3
        ),
        "approx.k_eff": k_eff,
        "filtering.sep2d_ms": median([ns for _, ns in sep]) / 1e6,
        "filtering.sep2d_ns_per_px": median([ns / req.pixels for req, ns in sep]),
        "filtering.adds_per_px": 4.0 * k_eff,
        "filtering.muls_per_px": 2.0 * k_eff,
        "filtering.compulsory_gb_s": (
            sum(COMPULSORY_B_PER_PX * req.pixels for req, _ in sep) / sum(ns for _, ns in sep)
            if sep else 0.0
        ),
        "filtering.peak_alloc_mb": peak_alloc,
        "filtering.filter_at_ms": at_ms,
        "filtering.filter_at_us_per_probe": at_ms * 1e3 / wl.n_points if at_ms else 0.0,
    }
    dense = [s for s in tracer.spans if s["name"] == "oracle.dense" and not s["error"]]
    for group, sigma in SWEEP_GROUPS.items():
        mine = [(req, ns) for req, ns in sep if req.sigma == sigma]
        fast_ms = median([ns for _, ns in mine]) / 1e6
        pixels = {req.pixels for req, _ in mine}
        dense_ms = median([
            (s["end_ns"] - s["start_ns"]) / 1e6 for s in dense
            if s["sigma"] == sigma and s["pixels"] in pixels
        ])
        m[f"filtering.sep2d_ns_per_px.{group}"] = median([ns / req.pixels for req, ns in mine])
        m[f"oracle.dense_ms.{group}"] = dense_ms
        m[f"oracle.speedup.{group}"] = dense_ms / fast_ms if dense_ms and fast_ms else 0.0
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(
            s["error"] or s.get("rc", 0) != 0
            for s in tracer.spans if s["name"].split(".")[0] == layer
        )
    m["input.same_image_frac"] = same_image_frac(reqs)
    m["trace.overhead_frac"] = (
        statistics.median(d.traced_wall_ns for d in done)
        / statistics.median(d.wall_ns for d in done) - 1.0
    )
    return m


def bench(args, sb, workdir: Path) -> dict:
    wl = WORKLOADS[args.workload](sb, args.seed, workdir, args.smoke)
    print("machine " + json.dumps(machine()))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")
    run = Run(wl)
    setup_s = measure_setup(wl, workdir, 2 if args.smoke else 7)
    wl.setup_done()

    tracer = Tracer() if args.trace else None
    targets = trace_targets(sb)
    if tracer is None:
        wl.prepare()
    else:
        with tracer.installed(targets), tracer.request("ref"):
            wl.prepare()

    # Untimed pass over a fixed request set, so that peak memory and
    # accuracy do not depend on how many requests the timed loop sends:
    # whole requests without tracing, the filtering call alone with it.
    peak, psnrs = 0.0, []
    for req in wl.fixed_requests():
        if tracer is None:
            mb, (times, result) = traced_peak(lambda: run.call(req))
            if times is not None:
                psnrs.append(run.check(req, result))
        else:
            mb, _ = traced_peak(wl.filter_job(req))
        peak = max(peak, mb)

    done = timed_loop(run, args.seconds, tracer, targets)
    if not done:
        raise RuntimeError("no request completed: " + "; ".join(run.failures[:3]))
    if tracer is None:
        metrics, extra = end_to_end(run, done, setup_s, peak, [p for p in psnrs if p is not None])
        units = {**E2E_UNITS, **{k: u for k, (_, u) in extra.items()}}
        shown = {**metrics, **{k: v for k, (v, _) in extra.items()}}
    else:
        metrics = per_layer(run, done, tracer, peak)
        units, shown = LAYER_UNITS, metrics
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
    for name, value in shown.items():
        print(f"metric {name} {value!r} {units[name]}")
    for failure in run.failures[:10]:
        print(f"failure {failure}")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)

    if not (SRC / "sliceblur" / "__init__.py").is_file():
        print(f"run.py: no sliceblur sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sliceblur
    import sliceblur.cli

    if Path(sliceblur.__file__).resolve().parent != SRC / "sliceblur":
        print(f"run.py: imported sliceblur from {sliceblur.__file__}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = bench(args, sliceblur, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
