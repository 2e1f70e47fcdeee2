"""Print each workload's end-to-end medians across the ``BENCH_*.json`` files.

    python3 tools/trajectory.py
    python3 tools/trajectory.py BENCH_22.json BENCH_23.json

Each ``BENCH_n.json`` that ``tools/bench_pairs.py`` wrote holds, per
workload and end-to-end metric, the medians of a parent's and a change's
runs.  The files (by default every ``BENCH_*.json`` at the repository's
root) are read in the order of n, the order in which their changes
landed.  For each workload and metric one line per file gives its name, the
parent's and the change's medians, change / parent, and the pairs the
change won.  The figures are raw: nothing divides out the machine's
speed, which drifts between files by more than most gains, so memory
reads as a trajectory across files and throughput only within one.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def file_order(path):
    """Sort key: the n of ``BENCH_n.json``, names without a number last."""
    n = path.stem.rpartition("_")[2]
    return (0, int(n), path.name) if n.isdigit() else (1, 0, path.name)


def trajectory(paths):
    """(workload, metric) -> [(file name, summary)] in file order, the
    summary being the file's record of that metric; keys in order of first
    appearance."""
    table = {}
    for path in sorted(paths, key=file_order):
        record = json.loads(path.read_text())
        for wl, result in record["workloads"].items():
            for metric, summary in result["metrics"].items():
                table.setdefault((wl, metric), []).append((path.name, summary))
    return table


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("files", nargs="*", type=Path,
                   help="BENCH_*.json files; default: all at the repository's root")
    args = p.parse_args(argv)
    table = trajectory(args.files or list(ROOT.glob("BENCH_*.json")))
    for (wl, metric), rows in sorted(table.items(), key=lambda item: item[0][0]):
        print(f"{wl} {metric} ({rows[0][1]['better']} is better)")
        for name, s in rows:
            parent, change = s["parent_median"], s["change_median"]
            ratio = f"{change / parent:7.3f}" if parent else "      -"
            print(f"  {name:14s} {parent:14.6g} -> {change:14.6g}  {ratio}"
                  f"  won {s['pairs_won']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
