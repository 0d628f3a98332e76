"""Print one hash per case of a fixed grid of filter calls, so that the
outputs of two checkouts can be diffed.

Usage (from the repository root):

    python3 tools/digest.py CHECKOUT > digest.txt

The filters come from ``CHECKOUT/src``.  Each line is ``<case> <hash>``,
the hash a SHA-256 prefix of the output's dtype, shape and bytes, or of
the text of the exception the call raised.  The grid:

* widths 1, 2, 3, 255, 256, 257 and 1024, heights 1, 7, 40 and 300 (so
  that both column paths run more than one block of rows);
* float64 and float32;
* C, Fortran and reversed (negative-stride) layouts of a seeded random
  image, and an image of -0.0;
* a radius-0 kernel, ``gaussian_kernel`` at sigma 2, 5 and 400 (k=5),
  and a 3-slice kernel;
* ``separable_filter_2d``, ``filter_at`` at the corners, the centre and
  a repeated point, and ``slice_filter_1d`` on the first row;
* plus the radii and weights of ``gaussian_kernel`` at k 3, 4 and 5 over
  a sigma grid;
* and ``sliceblur filter`` (``cli.main``) on seeded 8-bit and 16-bit PGM
  files, written into a temporary directory, of 1x1, 1x9, 9x1, 7x257,
  300x3, 40x64, 1400x100 and 600x300 pixels (rows x columns) at sigma
  0.3, 2, 5, 50 and 400 and k 3 and 5, plus one call with a ``--params``
  file; its hash is of the bytes of the file it wrote, or of its exit
  code when that is not 0;
* ``sliceblur optimize`` files, k 1 to 5 under ``qf`` and ``l2`` at 16,
  20 and 100 samples, hashed the same way;
* and one ``sliceblur bench --l2`` CSV of a seeded 8-bit 70x50 and 16-bit
  33x41 corpus at sigma 1, 4.5 and 20 and k 3 and 5: one line per row,
  of every column but ``wall_time_ns``.

Two checkouts filter alike, bit for bit, where their lines agree:

    diff <(python3 tools/digest.py A) <(python3 tools/digest.py B)
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

WIDTHS = (1, 2, 3, 255, 256, 257, 1024)
HEIGHTS = (1, 7, 40, 300)
SIGMAS = (0.3, 0.8, 1.0, 2.0, 3.7, 5.0, 12.0, 50.0, 400.0)
# the CLI grid: (rows, columns) of the input files, and --sigma values
CLI_SHAPES = ((1, 1), (1, 9), (9, 1), (7, 257), (300, 3), (40, 64), (1400, 100), (600, 300))
CLI_SIGMAS = ("0.3", "2", "5", "50", "400")
# the optimize grid: --samples values, each run at k 1-5 under qf and l2
OPTIMIZE_SAMPLES = ("16", "20", "100")


def _hash(value) -> str:
    h = hashlib.sha256()
    if isinstance(value, Exception):
        h.update(f"{type(value).__name__}: {value}".encode())
    else:
        h.update(f"{value.dtype.str} {value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()[:16]


def _call(f, *args) -> str:
    try:
        return _hash(f(*args))
    except ValueError as exc:  # a refusal is part of the output
        return _hash(exc)


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cli_file(main, argv, dst: Path) -> str:
    """The hash of the file that ``main(argv)`` wrote to ``dst``, or of its
    nonzero exit code."""
    rc = main(argv)
    return _short(dst.read_bytes() if rc == 0 else f"exit {rc}".encode())


def _write_pgm(path: Path, levels: np.ndarray, maxval: int) -> None:
    """Write ``levels`` as a P5 file: the input bytes are written here, not
    by the checkout."""
    h, w = levels.shape
    sample = np.uint8 if maxval <= 255 else ">u2"
    path.write_bytes(b"P5\n%d %d\n%d\n" % (w, h, maxval) + levels.astype(sample).tobytes())


def cli_digest(sliceblur) -> list[str]:
    """The ``<case> <hash>`` lines of the ``sliceblur filter`` grid."""
    approx, params = sliceblur.approx, sliceblur.params
    main = sliceblur.cli.main
    lines = []
    rng = np.random.default_rng(21)
    with tempfile.TemporaryDirectory() as tmp:
        dst = Path(tmp) / "out.pgm"
        for h, w in CLI_SHAPES:
            for maxval in (255, 65535):
                src = Path(tmp) / f"{h}x{w}-{maxval}.pgm"
                _write_pgm(src, rng.integers(0, maxval, (h, w), endpoint=True), maxval)
                for sigma in CLI_SIGMAS:
                    for k in ("3", "5"):
                        argv = ["filter", str(src), str(dst), "--sigma", sigma, "--k", k]
                        lines.append(f"cli-{h}x{w}-{maxval}-s{sigma}-k{k} {_cli_file(main, argv, dst)}")
        # the grid's last file, filtered with a k=4 parameter file
        pfile = Path(tmp) / "k4.txt"
        part, sigma0 = approx.table_defaults(4)
        params.save_params(pfile, params.FilterParams(part, sigma0, "qf", 0.0))
        argv = ["filter", str(src), str(dst), "--sigma", "5", "--params", str(pfile)]
        lines.append(f"cli-{h}x{w}-{maxval}-s5-params-k4 {_cli_file(main, argv, dst)}")
    return lines


def tool_digest(sliceblur) -> list[str]:
    """The ``<case> <hash>`` lines of ``sliceblur optimize`` and ``bench``."""
    main = sliceblur.cli.main
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        dst = Path(tmp) / "params.txt"
        for n in OPTIMIZE_SAMPLES:
            for model in ("qf", "l2"):
                for k in "12345":
                    argv = ["optimize", "--k", k, "--model", model, "--params", str(dst),
                            "--samples", n]
                    lines.append(f"optimize-n{n}-{model}-k{k} {_cli_file(main, argv, dst)}")
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(22)
        for (h, w), maxval in (((50, 70), 255), ((41, 33), 65535)):
            src = corpus / f"{h}x{w}-{maxval}.pgm"
            _write_pgm(src, rng.integers(0, maxval, (h, w), endpoint=True), maxval)
        csv_path = Path(tmp) / "bench.csv"
        argv = ["bench", str(corpus), "--sigma", "1", "--sigma", "4.5", "--sigma", "20",
                "--k", "3", "--k", "5", "--reps", "3", "--l2", "--csv", str(csv_path)]
        rc = main(argv)
        rows = csv_path.read_text().splitlines() if rc == 0 else []
        lines.append(f"bench-exit {_short(str(rc).encode())}")
        for row in rows:
            # every column but wall_time_ns, the fifth
            method, k, sigma, image_id, _, *rest = row.split(",")
            case = f"bench-{image_id}-{method}-k{k}-s{sigma}"
            lines.append(f"{case} {_short(','.join(rest).encode())}")
    return lines


def digest(sliceblur) -> list[str]:
    """The ``<case> <hash>`` lines of the grid, computed with the package
    ``sliceblur``."""
    approx = sliceblur.approx
    f = sliceblur.filtering
    kernels = {
        "r0": approx.SliceKernel((0,), (1.0,)),
        "s2": approx.gaussian_kernel(2.0, 5),
        "s5": approx.gaussian_kernel(5.0, 5),
        "s400": approx.gaussian_kernel(400.0, 5),
        "k3": approx.SliceKernel((1, 4, 11), (0.2, 0.05, 0.01)).normalized(),
    }
    lines = []
    for k in (3, 4, 5):
        for s in SIGMAS:
            kern = approx.gaussian_kernel(s, k)
            lines.append(f"kernel-k{k}-s{s} {_hash(kern.radii)}{_hash(kern.weights)}")
    rng = np.random.default_rng(20)
    for h in HEIGHTS:
        for w in WIDTHS:
            base = rng.random((h, w))
            layouts = {
                "C": np.ascontiguousarray(base),
                "F": np.asfortranarray(base),
                "rev": base[::-1, ::-1],
                "neg0": np.full((h, w), -0.0),
            }
            points = [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1), (w // 2, h // 2), (0, 0)]
            for dtype in ("float64", "float32"):
                for name, image in layouts.items():
                    img = image.astype(dtype, copy=False)
                    for kname, kern in kernels.items():
                        case = f"{h}x{w}-{dtype}-{name}-{kname}"
                        lines.append(f"2d-{case} {_call(f.separable_filter_2d, img, kern)}")
                        lines.append(f"at-{case} {_call(f.filter_at, img, kern, points)}")
                        lines.append(f"1d-{case} {_call(f.slice_filter_1d, img[0], kern)}")
    return lines + cli_digest(sliceblur) + tool_digest(sliceblur)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/digest.py CHECKOUT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    import sliceblur.approx
    import sliceblur.cli
    import sliceblur.filtering
    import sliceblur.params

    print("\n".join(digest(sliceblur)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
