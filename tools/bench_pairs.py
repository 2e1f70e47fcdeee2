"""Compare two source trees on the benchmark in interleaved pairs.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_n.json

The parent revision is exported with ``git archive`` into a temporary
directory, so the repository's own ``.git`` is left untouched.  The
change is this checkout's working tree.  Each pair runs the unchanged
``benchmark/run.py --trace 0`` once on each tree, one after the other,
with the order alternating from pair to pair, so that a drift in the
machine's speed falls on both sides alike.  Every run uses seed 1 and
the run length of ``BENCHMARK.json``, and every workload gets ten pairs,
so that files written by different changes compare.  A pair counts only
when both of its runs exited 0.  The output file holds, per workload and
end-to-end metric of ``BENCHMARK.json``, both sides' values in run
order, their medians, the parent's interquartile range and the number of
pairs in which the change was strictly better.  It is rewritten after
every pair, so a run that is stopped keeps what it has.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
PAIRS = 10


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """The tree of ``rev`` as plain files under ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree, workload, seconds):
    """One ``--trace 0`` run; returns (exit code, metrics as name -> value)."""
    proc = subprocess.run([sys.executable, str(tree / "benchmark" / "run.py"),
                           "--workload", workload, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return proc.returncode, {}
    return proc.returncode, {k: v["value"] for k, v in result["metrics"].items()}


def pairs(trees, workload, seconds, metrics):
    """Run the interleaved pairs of one workload.  After each pair, yield
    the metrics of the pairs kept so far, per side, and the failed runs per
    side.  A pair is kept only when both runs exited 0 and printed every
    metric: a run that exits 1 (a failed check) still prints its metrics,
    which must not enter the medians."""
    values = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        codes, got = {}, {}
        for side in order:
            start = time.monotonic()
            codes[side], got[side] = run_once(trees[side], workload, seconds)
            failed[side] += codes[side] != 0
            print(f"{workload} pair {pair} {side}: exit {codes[side]} in "
                  f"{time.monotonic() - start:.0f} s", file=sys.stderr)
        if all(codes[s] == 0 and set(metrics) <= set(got[s]) for s in got):
            for side in values:
                values[side].append(got[side])
        yield values, failed


def summary(parent, change, better):
    """Medians, the parent's interquartile range and the pairs won."""
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    return {"better": better,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "pairs_won": wins,
            "pairs": len(parent),
            "parent": parent, "change": change}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD~1", help="git revision to compare against")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = {"parent": git("rev-parse", args.parent),
              "change": git("rev-parse", "HEAD") + ("+working-tree" if dirty else ""),
              "seed": SEED, "seconds": seconds,
              "machine": {"python": platform.python_version(), "machine": platform.machine(),
                          "cpus": len(os.sched_getaffinity(0))},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent"
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for wl in (w["name"] for w in bench["workloads"]):
            for values, failed in pairs(trees, wl, seconds, metrics):
                record["workloads"][wl] = {
                    "failed_runs": failed,
                    "metrics": {m: summary([v[m] for v in values["parent"]],
                                           [v[m] for v in values["change"]], better)
                                for m, better in metrics.items()} if len(values["parent"]) > 1
                    else {}}
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    for wl, result in record["workloads"].items():
        for m, s in result["metrics"].items():
            print(f"{wl:16s} {m:20s} {s['parent_median']:12.6g} -> {s['change_median']:12.6g}"
                  f"  won {s['pairs_won']}/{s['pairs']}  parent IQR {s['parent_iqr']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
