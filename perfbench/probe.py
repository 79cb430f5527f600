"""Set-up probe: what a fresh process pays before its first useful op.

    python3 perfbench/probe.py SRC WORK_DIR

Times importing ``isingreg`` with its numpy/scipy stack plus one small call
down the sampling and the fitting command paths, and prints
``{"setup_s": ...}``.  Nothing is imported before the clock starts.
"""

import contextlib
import io
import json
import sys
import time


def main(src, work):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from isingreg import cli
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["sample", "--n", "64", "--count", "2", "--burn-in", "2"],
                     ["benchmark", "--n", "60", "--classes", "3",
                      "--benchmark-seeds", "2", "--model-kind", "linear"]):
            if cli.main(["--out-dir", work] + argv) != 0:
                raise SystemExit(f"warm-up op {argv[0]} failed")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
