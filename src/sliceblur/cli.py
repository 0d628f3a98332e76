"""Command-line interface.

Subcommands: ``filter`` (fast Gaussian blur of a PGM image), ``optimize``
(compute approximation parameters and write a parameter file), ``bench``
(speed/accuracy CSV over an image corpus), ``synth`` (generate test
images) and ``psnr`` (compare two images).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import approx, oracle, params, pgm, synth
from .filtering import separable_filter_2d

CSV_HEADER = [
    "method",
    "k",
    "sigma",
    "image_id",
    "wall_time_ns",
    "psnr_db",
    "adds_per_px",
    "muls_per_px",
]


@dataclass(frozen=True)
class BenchRecord:
    method: str
    k: int
    sigma: float
    image_id: str
    wall_time_ns: int
    psnr_db: float
    adds_per_px: float
    muls_per_px: float

    def row(self) -> list:
        return [
            self.method,
            self.k,
            repr(self.sigma),
            self.image_id,
            self.wall_time_ns,
            "inf" if math.isinf(self.psnr_db) else repr(self.psnr_db),
            repr(self.adds_per_px),
            repr(self.muls_per_px),
        ]


@functools.cache
def _builtin_base(k: int) -> approx.SliceKernel:
    # shared by every call, so made read-only; scale_to_sigma only reads it
    base = approx.to_slices(*approx.table_defaults(k))
    base.radii.flags.writeable = False
    base.weights.flags.writeable = False
    return base


def _scaled_kernel(k: int, sigma: float, params_path=None) -> approx.SliceKernel:
    if params_path is not None:
        loaded = params.load_params(params_path)
        base = approx.to_slices(loaded.partition, loaded.sigma0)
    else:
        base = _builtin_base(k)
    return approx.scale_to_sigma(base, sigma)


def cmd_filter(args) -> int:
    kernel = _scaled_kernel(args.k, args.sigma, args.params)
    image, maxval = pgm.read_pgm(args.input)
    out = separable_filter_2d(image, kernel)
    pgm.write_pgm(args.output, out, maxval)
    return 0


def cmd_optimize(args) -> int:
    n = args.samples
    sigma0 = n / math.pi
    target = approx.sample_gaussian(sigma0, n)
    if args.model == "qf":
        model = approx.build_autocorr(n - 1)
    else:
        model = approx.identity_model(n - 1)
    partition = approx.search_partitions(target, args.k, model)
    e2 = approx.quadratic_error(
        target, approx.partition_profile(partition, n), model
    )
    params.save_params(
        args.params, params.FilterParams(partition, sigma0, args.model, e2)
    )
    return 0


def _median_time_ns(fn, reps: int):
    """Median wall time of ``reps`` calls, and the last call's result."""
    times = []
    for _ in range(reps):
        result = None  # free the previous output before the next timed call
        t0 = time.perf_counter_ns()
        result = fn()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times)), result


def _l2_partitions(ks) -> dict[int, approx.Partition]:
    n = 100
    target = approx.sample_gaussian(n / math.pi, n)
    model = approx.identity_model(n - 1)
    return {k: approx.search_partitions(target, k, model) for k in ks}


def cmd_bench(args) -> int:
    corpus = sorted(Path(args.corpus_dir).glob("*.pgm"))
    if not corpus:
        raise FileNotFoundError(f"no .pgm images in {args.corpus_dir}")
    if args.reps < 3:
        raise ValueError("need at least 3 repetitions")
    images = [(p.stem, pgm.read_pgm(p)[0]) for p in corpus]
    l2_parts = _l2_partitions(args.k) if args.l2 else {}

    arms = [("slices-qf", {k: approx.table_defaults(k)[0] for k in args.k})]
    if args.l2:
        arms.append(("slices-l2", l2_parts))

    records = []
    for image_id, image in images:
        # Time every oracle arm of an image before any of its fast arms: the
        # oracle's sigma-sized padded buffers change how much freed memory
        # the allocator returns to the OS, so fast arms timed right after
        # each sigma's oracle would fault in a sigma-dependent number of pages.
        exact = []
        for sigma in args.sigma:
            t_exact, reference = _median_time_ns(
                lambda: oracle.exact_gaussian_2d(image, sigma), args.reps
            )
            taps = oracle.gaussian_taps(sigma).size
            exact.append((
                BenchRecord(
                    "exact", 0, sigma, image_id, t_exact, oracle.PSNR_INF,
                    2.0 * (taps - 1), 2.0 * taps,
                ),
                reference,
            ))
        for sigma, (exact_record, reference) in zip(args.sigma, exact):
            records.append(exact_record)
            for method, parts in arms:
                for k in args.k:
                    base = approx.to_slices(parts[k], approx.SIGMA0)
                    kernel = approx.scale_to_sigma(base, sigma)
                    t, filtered = _median_time_ns(
                        lambda: separable_filter_2d(image, kernel), args.reps
                    )
                    records.append(
                        BenchRecord(
                            method, k, sigma, image_id, t,
                            oracle.psnr(filtered, reference),
                            4.0 * k, 2.0 * k,
                        )
                    )
                    del filtered  # time every fast arm with the same memory held

    with open(args.csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(record.row())
    return 0


def cmd_synth(args) -> int:
    image = synth.make_image(args.kind, args.width, args.height, args.seed)
    pgm.write_pgm(args.output, image)
    return 0


def cmd_psnr(args) -> int:
    a, _ = pgm.read_pgm(args.image_a)
    b, _ = pgm.read_pgm(args.image_b)
    value = oracle.psnr(a, b)
    print("inf" if math.isinf(value) else repr(value))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceblur",
        description="Constant-time Gaussian filtering with running sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="blur a PGM image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k", type=int, default=3, choices=(3, 4, 5))
    p.add_argument("--params", default=None, help="parameter file (overrides --k)")
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("optimize", help="compute approximation parameters")
    p.add_argument("--k", type=int, required=True, choices=range(1, 6))
    p.add_argument("--model", choices=("qf", "l2"), default="qf")
    p.add_argument("--params", required=True, help="output parameter file")
    p.add_argument("--samples", type=int, default=100, help="half-kernel samples")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("bench", help="benchmark a PGM corpus, write CSV")
    p.add_argument("corpus_dir")
    p.add_argument("--sigma", type=float, action="append", required=True)
    p.add_argument("--k", type=int, action="append", required=True)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--csv", required=True)
    p.add_argument("--l2", action="store_true", help="add l2-optimized rows")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("synth", help="generate a synthetic PGM image")
    p.add_argument("kind", choices=synth.KINDS)
    p.add_argument("output")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("psnr", help="PSNR between two PGM images")
    p.add_argument("image_a")
    p.add_argument("image_b")
    p.set_defaults(fn=cmd_psnr)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser takes ~1 ms, parsing ~0.06 ms.  Sharing it is safe:
    # parse_args returns a fresh namespace and leaves the parser unchanged.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"sliceblur: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
