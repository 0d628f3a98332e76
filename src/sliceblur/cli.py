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
from pathlib import Path

import numpy as np

from . import approx, oracle, params, pgm, synth
from .filtering import separable_filter_2d


CSV_HEADER = [
    "method", "k", "sigma", "image_id",
    "wall_time_ns", "psnr_db", "adds_per_px", "muls_per_px",
]


def cmd_filter(args) -> int:
    fitted = None
    if args.params is not None:
        loaded = params.load_params(args.params)
        fitted = (loaded.partition, loaded.sigma0)
    kernel = approx.gaussian_kernel(args.sigma, args.k, fitted)
    # 16-bit files too: the float32 filter keeps them within a level
    image, maxval = pgm.read_pgm(args.input, pixels=np.float32)
    # the array is this request's own, so it holds the output too
    separable_filter_2d(image, kernel, _in_place=True)
    pgm.write_pgm(args.output, image, maxval)
    return 0


def _fit(k: int, error_model: str, n: int) -> params.FilterParams:
    """The k-slice partition that best fits the Gaussian of sigma0 = n/pi,
    sampled at n half-kernel points, under ``error_model`` (qf | l2)."""
    sigma0 = n / math.pi
    target = approx.sample_gaussian(sigma0, n)
    if error_model == "qf":
        model = approx.build_autocorr(n - 1)
    else:
        model = approx.identity_model(n - 1)
    partition = approx.search_partitions(target, k, model)
    e2 = approx.quadratic_error(
        target, approx.partition_profile(partition, n), model
    )
    return params.FilterParams(partition, sigma0, error_model, e2)


def cmd_optimize(args) -> int:
    params.save_params(args.params, _fit(args.k, args.model, args.samples))
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


def cmd_bench(args) -> int:
    corpus = sorted(Path(args.corpus_dir).glob("*.pgm"))
    if not corpus:
        raise FileNotFoundError(f"no .pgm images in {args.corpus_dir}")
    if args.reps < 3:
        raise ValueError("need at least 3 repetitions")
    # read as filter reads them, so the slice rows time what it runs
    images = [(p.stem, pgm.read_pgm(p, pixels=np.float32)[0]) for p in corpus]
    # per arm, the params of each k (None: the builtin partition)
    arms = [("slices-qf", dict.fromkeys(args.k))]
    if args.l2:
        fits = {k: _fit(k, "l2", 100) for k in args.k}
        arms.append(
            ("slices-l2", {k: (f.partition, f.sigma0) for k, f in fits.items()})
        )

    rows = []
    for image_id, image in images:
        # Time every oracle arm of an image before any of its fast arms: the
        # oracle's sigma-sized padded buffers change how much freed memory
        # the allocator returns to the OS, so fast arms timed right after
        # each sigma's oracle would fault in a sigma-dependent number of pages.
        exact = [
            _median_time_ns(lambda: oracle.exact_gaussian_2d(image, sigma), args.reps)
            for sigma in args.sigma
        ]
        for sigma, (t_exact, reference) in zip(args.sigma, exact):
            taps = oracle.gaussian_taps(sigma).size
            rows.append(("exact", 0, sigma, image_id, t_exact, oracle.PSNR_INF,
                         2.0 * (taps - 1), 2.0 * taps))
            for method, arm_params in arms:
                for k in args.k:
                    kernel = approx.gaussian_kernel(sigma, k, arm_params[k])
                    t, filtered = _median_time_ns(
                        lambda: separable_filter_2d(image, kernel), args.reps
                    )
                    ops = oracle.count_ops(image, kernel)
                    rows.append((method, k, sigma, image_id, t,
                                 oracle.psnr(filtered, reference),
                                 ops.adds_per_px, ops.muls_per_px))
                    del filtered  # time every fast arm with the same memory held

    with open(args.csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return 0


def cmd_synth(args) -> int:
    image = synth.make_image(args.kind, args.width, args.height, args.seed)
    pgm.write_pgm(args.output, image)
    return 0


def cmd_psnr(args) -> int:
    # float64 at both depths: the PSNR of the files' own levels
    a, _ = pgm.read_pgm(args.image_a, pixels=np.float64)
    b, _ = pgm.read_pgm(args.image_b, pixels=np.float64)
    print(repr(oracle.psnr(a, b)))
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
    p.add_argument("--k", type=int, action="append", required=True, choices=(3, 4, 5))
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
    except (OSError, ValueError, MemoryError) as exc:
        print(f"sliceblur: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
