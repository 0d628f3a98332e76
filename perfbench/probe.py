"""Fresh-process set-up probe: import sliceblur and complete one request.

Usage: python3 probe.py <src dir> <request spec as JSON>

Prints one JSON line: the CLOCK_MONOTONIC time at which the first request
completed, the seconds spent loading the request's input (which set-up
time excludes) and the request's return code.  The parent subtracts its
own CLOCK_MONOTONIC reading taken just before starting this process.
"""

import json
import sys
import time


def main():
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    load_s = 0.0
    if spec["kind"] == "cli":
        from sliceblur import cli

        rc = cli.main(spec["argv"])
    else:
        import numpy as np

        import sliceblur as sb

        t0 = time.monotonic()
        image = np.load(spec["npy"])
        load_s = time.monotonic() - t0
        part, sigma0 = sb.table_defaults(spec["k"])
        kernel = sb.scale_to_sigma(sb.to_slices(part, sigma0), spec["sigma"])
        sb.filter_at(image, kernel, spec["points"])
        rc = 0
    done = time.monotonic()
    print(json.dumps({"done": done, "load_s": load_s, "rc": rc}))


if __name__ == "__main__":
    main()
