"""rrnn benchmark: training and evaluation throughput on three workloads.

    python3 benchmark/run.py --workload desk-lstm-char --seed 1 --seconds 40 --trace 0

Paths are resolved from this file, so it runs from any directory.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes the same untraced run, then a traced pass over the
same training budget that wraps every public function of the rrnn
modules (tracer.py), then the hand-fused numpy floor (floor.py), and
reports the per-layer metrics.  The last line of standard output is one
JSON object: {correct, attempted, failed, metrics}.  The lines before it
and ``benchmark/out/<workload>.trace<0|1>.json`` hold the rest, including
the environment stamp.

Exit codes: 0 all checks passed, 1 a correctness check failed (the
result line is still printed), 2 the source tree or inputs are missing.
See README.md in this directory for the metrics and workloads.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/rrnn/__init__.py", "configs/desk.json", "corpus/train.txt", "corpus/valid.txt")
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall time of the measured training and evaluation")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    # numpy reads these when it loads BLAS, so they are set before any import of it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import rrnn
    import workloads
    if Path(rrnn.__file__).resolve().parent != ROOT / "src" / "rrnn":
        print(f"error: imported rrnn from {rrnn.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import measure
    return measure.main(args)


if __name__ == "__main__":
    sys.exit(main())
