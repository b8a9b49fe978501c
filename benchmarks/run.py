"""Benchmark entry point.

    python3 benchmarks/run.py --workload proxy-sandwich --seed 1 --seconds 30 --trace 0

Run from the repository root: the package is imported from ``src/`` of the
same checkout, never from an installed copy.  The last line of standard
output is the result (``correct``, ``attempted``, ``failed``, ``metrics``);
a one-line ``summary`` with the host record, the output digest and the
round count goes to standard error.  Exit code 0 means the run finished;
2 means the package could not be imported or the arguments were bad.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: the work is many tiny calls, and the machine has 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["proxy-sandwich", "learn-sketch", "verify-labs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")

    if not (SRC / "sketchlab" / "__init__.py").is_file():
        print(f"error: no sketchlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sketchlab
    if Path(sketchlab.__file__).resolve().parent != SRC / "sketchlab":
        print(f"error: imported sketchlab from {sketchlab.__file__}", file=sys.stderr)
        return 2
    import harness
    import workloads

    workdir = str(ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}")
    result = harness.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), [str(SRC), str(BENCH_DIR)], workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
