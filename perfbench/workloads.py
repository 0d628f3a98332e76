"""The benchmark's workloads: inputs, the timed call, and output checks.

Every workload is closed-loop: one client in one process sends its next
request when the previous one has returned, single-threaded, with the
program's default options (``--parallel`` is never used: it starts four
threads, more than the two cores this benchmark was sized on).  Inputs are
generated from the seed alone; references are computed outside the timed
region.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

#: An output below this PSNR against the dense oracle fails its check.
PSNR_FLOOR_DB = 30.0
#: filter_at must reproduce separable_filter_2d pixels up to float64 rounding.
PROBE_TOL = 1e-12


class CheckFailed(Exception):
    """A request's output disagrees with its reference."""


@dataclass(frozen=True)
class Request:
    index: int
    image: int  # index into the workload's image pool
    sigma: float
    group: str  # sigma group for sigma_spread
    pixels: int
    points: np.ndarray | None = None  # (x, y) rows, sparse-probes only


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    err = float(np.mean((a - b) ** 2))
    return math.inf if err == 0.0 else -10.0 * math.log10(err)


def slice_kernel(sb, k: int, sigma: float):
    """The builtin kernel at ``sigma``, built the way the CLI builds it."""
    partition, sigma0 = sb.approx.table_defaults(k)
    return sb.approx.scale_to_sigma(sb.approx.to_slices(partition, sigma0), sigma)


class CliWorkload:
    """Requests are in-process ``sliceblur filter`` calls on PGM files."""

    k: int
    maxval: int

    def __init__(self, sb, seed: int, workdir: Path, smoke: bool):
        self.sb = sb
        self.seed = seed
        self.workdir = workdir
        self.out_bytes = {}  # request index -> size of the file it wrote
        self.levels = []  # integer input levels per pool image
        self.paths = []
        for i, (h, w) in enumerate(self.pool_shapes(np.random.default_rng([seed, 0]), smoke)):
            image = inputs.one_over_f(np.random.default_rng([seed, 1, i]), h, w)
            levels = inputs.quantize(image, self.maxval)
            path = workdir / f"in{i}.pgm"
            inputs.write_pgm(path, levels, self.maxval)
            self.levels.append(levels)
            self.paths.append(path)

    def argv(self, req: Request, out_path) -> list[str]:
        return [
            "filter", str(self.paths[req.image]), str(out_path),
            "--sigma", repr(req.sigma), "--k", str(self.k),
        ]

    def out_path(self, req: Request) -> Path:
        # A fresh file per request, removed by the check: rewriting one file
        # in place makes ext4 flush it on close, which a CLI user writing
        # a new output does not pay.
        return self.workdir / f"out{req.index}.pgm"

    def run(self, req: Request):
        return self.sb.cli.main(self.argv(req, self.out_path(req)))

    def reference(self, req: Request) -> tuple[np.ndarray, float]:
        """(expected output levels, PSNR of the float result vs the oracle)."""
        image = self.levels[req.image] / self.maxval
        fast = self.sb.separable_filter_2d(image, slice_kernel(self.sb, self.k, req.sigma))
        exact = self.sb.oracle.exact_gaussian_2d(image, req.sigma)
        return inputs.quantize(fast, self.maxval), psnr_db(fast, exact)

    def check(self, req: Request, rc) -> float:
        # cli.main reports ValueError/OSError only through its return code
        if rc != 0:
            raise CheckFailed(f"cli.main returned {rc}")
        expected, psnr = self.reference(req)
        path = self.out_path(req)
        try:
            self.out_bytes[req.index] = path.stat().st_size
            got, maxval = inputs.read_pgm_levels(path)
        finally:
            path.unlink(missing_ok=True)
        if maxval != self.maxval or got.shape != expected.shape:
            raise CheckFailed(f"output is {got.shape} maxval {maxval}")
        lsb = int(np.abs(got - expected).max())
        if lsb > 1:
            raise CheckFailed(f"output differs from the float result by {lsb} LSB")
        if psnr < PSNR_FLOOR_DB:
            raise CheckFailed(f"PSNR {psnr:.2f} dB against the oracle")
        return psnr

    def filter_job(self, req: Request):
        image = self.levels[req.image] / self.maxval
        kernel = slice_kernel(self.sb, self.k, req.sigma)
        return lambda: self.sb.separable_filter_2d(image, kernel)

    def probe_spec(self, out_path) -> dict:
        return {"kind": "cli", "argv": self.argv(next(self.requests()), out_path)}

    def setup_done(self):
        """The timed requests read the input files, so they stay."""

    def file_bytes(self, req: Request) -> int:
        """Bytes the request read plus bytes it wrote."""
        return self.paths[req.image].stat().st_size + self.out_bytes[req.index]


class Sweep1k(CliWorkload):
    name = "sweep-1k"
    why = (
        "1024^2 8-bit CLI filter at sigma 2, 5, 12, 50: the filter pass is "
        ">95% of a request, and the sweep tests the paper's "
        "sigma-independent cost"
    )
    k = 3
    maxval = 255
    sigmas = (2.0, 5.0, 12.0, 50.0)
    groups = tuple(f"s{s:g}" for s in sigmas)

    def pool_shapes(self, rng, smoke):
        side = 128 if smoke else 1024
        return [(side, side)] * (1 if smoke else 2)

    def requests(self):
        n = len(self.levels)
        for i in itertools.count():
            img = (i // len(self.sigmas)) % n
            sigma = self.sigmas[i % len(self.sigmas)]
            yield Request(i, img, sigma, f"s{sigma:g}", self.levels[img].size)

    def fixed_requests(self):
        """Every (image, sigma) once."""
        return list(itertools.islice(self.requests(), len(self.levels) * len(self.sigmas)))

    def prepare(self):
        """Each (image, sigma) repeats, so compute its reference once."""
        self._refs = {}
        for req in self.fixed_requests():
            self._refs[req.image, req.sigma] = CliWorkload.reference(self, req)

    def reference(self, req):
        return self._refs[req.image, req.sigma]


class Thumbs16(CliWorkload):
    name = "thumbs-16bit"
    why = (
        "small non-square 16-bit CLI filter, k=5, a new sigma per request: "
        "PGM I/O, kernel scaling and CLI glue are about half of a request"
    )
    k = 5
    maxval = 65535
    sigma_range = (1.0, 8.0)
    groups = ("b1", "b2", "b3", "b4")  # equal-width sigma bins over sigma_range

    def pool_shapes(self, rng, smoke):
        """Heights and widths are seeded within 16 strata of [64, 160], one
        shape per (height, width) stratum pair, so that the spread of sizes,
        which sets the latency distribution, is nearly the same every seed."""
        strata = 2 if smoke else 16
        edges = np.linspace(64, 160, strata + 1).astype(int)
        hs = [int(rng.integers(a, b)) for a, b in zip(edges, edges[1:])]
        ws = [int(rng.integers(a, b)) for a, b in zip(edges, edges[1:])]
        return [(h, w + (w == h)) for h in hs for w in ws]

    def requests(self):
        rng = np.random.default_rng([self.seed, 2])
        lo, hi = self.sigma_range
        for i in itertools.count():
            img = int(rng.integers(len(self.levels)))
            sigma = float(rng.uniform(lo, hi))
            b = min(int((sigma - lo) / (hi - lo) * len(self.groups)), len(self.groups) - 1)
            yield Request(i, img, sigma, self.groups[b], self.levels[img].size)

    def fixed_requests(self):
        """Every pool image once, alternately at the narrowest kernel, the
        least accurate, and the widest, which needs the most memory; the
        largest image is last, at the widest."""
        lo, hi = self.sigma_range
        n = len(self.levels)
        return [
            Request(-1 - i, i, hi if (n - 1 - i) % 2 == 0 else lo, "fixed", levels.size)
            for i, levels in enumerate(self.levels)
        ]

    def prepare(self):
        """Every request has its own sigma: references are made per check."""


class SparseProbes:
    """Requests are in-memory ``sliceblur.filter_at`` calls."""

    name = "sparse-probes"
    why = (
        "filter_at at 64 points of 2048^2 images at sigma 5 or 20: row "
        "cumsum plus per-column work, and no full column pass"
    )
    k = 3
    # Image i is always filtered at sigmas[i]: one (image, sigma) pair per
    # image keeps the full-image references to two per run.
    sigmas = (5.0, 20.0)
    groups = tuple(f"s{s:g}" for s in sigmas)
    n_points = 64

    def __init__(self, sb, seed: int, workdir: Path, smoke: bool):
        self.sb = sb
        side = 256 if smoke else 2048
        self.images = [
            inputs.one_over_f(np.random.default_rng([seed, 1, i]), side, side)
            for i in range(len(self.sigmas))
        ]
        # Requests are drawn up front so that references can be taken at
        # exactly the probed points; the cap is far above what a run sends.
        rng = np.random.default_rng([seed, 2])
        cap = 200 if smoke else 4000
        self._requests = []
        for i in range(cap):
            img = int(rng.integers(len(self.images)))
            points = rng.integers(0, side, size=(self.n_points, 2))
            sigma = self.sigmas[img]
            self._requests.append(Request(i, img, sigma, f"s{sigma:g}", side * side, points))
        self._npy = workdir / "probe-image.npy"
        np.save(self._npy, self.images[self._requests[0].image])

    def requests(self):
        return iter(self._requests)

    def fixed_requests(self):
        """The first eight requests of each image."""
        fixed = []
        for img in range(len(self.images)):
            fixed += [r for r in self._requests if r.image == img][:8]
        return fixed

    def prepare(self):
        """Per image: the full fast and dense results, kept only at the
        probed points."""
        self._sep = np.empty((len(self._requests), self.n_points))
        self._exact = np.empty_like(self._sep)
        for img, (image, sigma) in enumerate(zip(self.images, self.sigmas)):
            fast = self.sb.separable_filter_2d(image, slice_kernel(self.sb, self.k, sigma))
            exact = self.sb.oracle.exact_gaussian_2d(image, sigma)
            for r in self._requests:
                if r.image == img:
                    xs, ys = r.points[:, 0], r.points[:, 1]
                    self._sep[r.index] = fast[ys, xs]
                    self._exact[r.index] = exact[ys, xs]

    def run(self, req: Request):
        kernel = slice_kernel(self.sb, self.k, req.sigma)
        return self.sb.filter_at(self.images[req.image], kernel, req.points)

    def check(self, req: Request, values) -> float:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_points,):
            raise CheckFailed(f"filter_at returned shape {values.shape}")
        diff = float(np.abs(values - self._sep[req.index]).max())
        if not diff <= PROBE_TOL:
            raise CheckFailed(f"filter_at differs from separable_filter_2d by {diff:g}")
        psnr = psnr_db(values, self._exact[req.index])
        if psnr < PSNR_FLOOR_DB:
            raise CheckFailed(f"PSNR {psnr:.2f} dB against the oracle")
        return psnr

    def filter_job(self, req: Request):
        kernel = slice_kernel(self.sb, self.k, req.sigma)
        image = self.images[req.image]
        return lambda: self.sb.filter_at(image, kernel, req.points)

    def setup_done(self):
        # removed before the kernel writes it back during the timed loop
        self._npy.unlink()

    def probe_spec(self, out_path) -> dict:
        req = self._requests[0]
        return {
            "kind": "filter_at", "npy": str(self._npy), "k": self.k,
            "sigma": req.sigma, "points": req.points.tolist(),
        }


WORKLOADS = {w.name: w for w in (Sweep1k, Thumbs16, SparseProbes)}
