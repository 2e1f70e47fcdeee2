"""Wall time and minor page faults of each window, in the benchmark's order.

    python3 tools/window_faults.py --workload desk-lstm-char --rounds 3

Builds the workload through ``benchmark/workloads.py`` as the benchmark
does, then runs the order of its throughput phase round by round: one
``training.evaluate`` over the validation split, then ``eval_every``
training windows of the budget through one ``training.train_epoch``.
Each window's wall time and the minor page faults the process took
during it (``resource.getrusage``) are printed as one JSON object:
{workload, seed, setup_rss_mb, rounds: [{eval: {ms, faults}, train:
{ms, faults}}], workspace: {slots, total}, peak_rss_mb}.
``setup_rss_mb`` is the process's resident set once the workload is set
up, before its first window (``VmRSS`` of ``/proc/self/status``), so
memory that loading the corpus and building the model leave resident
shows apart from the windows'.
A window that reuses memory freed by the one before it takes few
faults; one whose pages the allocator gave back to the kernel takes
them all again.  ``workspace`` is what the thread's window workspace
holds after the rounds, in bytes: per slot (a (name, n) slot as
"name n") and in total, so a window's memory shows without the
benchmark.  ``peak_rss_mb`` is the process's maximum resident set after
the rounds (``ru_maxrss`` / 1024), the benchmark's ``peak_rss_mb`` for
this order of windows.  BLAS threads are set as ``benchmark/run.py``
sets them.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class WindowMeter:
    """A batch list that records each window's ms and minor faults while
    ``train_epoch`` or ``evaluate`` iterates it."""

    def __init__(self, batches):
        self.batches = batches
        self.ms, self.faults = [], []

    def __len__(self):
        return len(self.batches)

    def __getitem__(self, i):
        return self.batches[i]

    def __iter__(self):
        for batch in self.batches:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            yield batch
            self.ms.append(1e3 * (time.perf_counter() - start))
            self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)

    def record(self):
        return {"ms": [round(ms, 3) for ms in self.ms], "faults": self.faults}


def resident_mb():
    """The process's resident set now, in MB (``VmRSS``, in kB, / 1024)."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:")) / 1024


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    # numpy reads these when it loads BLAS, so they are set before any import of it
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    import workloads as W
    from rrnn import tensor as T
    from rrnn import training as Tr

    if args.workload not in W.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="window_faults_") as corpus_dir:
        if wl.name == "ptb-gru-word":
            W.write_word_corpus(Path(corpus_dir), args.seed)
        rc = W.run_config(wl, ROOT, corpus_dir, args.seed)
        _, train_b, valid_b, model = W.build(rc)
    setup_rss_mb = resident_mb()
    cfg = rc.train_cfg
    opt = Tr.OptimizerState.for_params(model.parameters())
    rounds = []
    for epoch in range(1, args.rounds + 1):
        evals = WindowMeter(valid_b)
        Tr.evaluate(model, evals)
        trains = WindowMeter(train_b[:wl.eval_every])
        Tr.train_epoch(model, trains, cfg, opt, cfg.lr0, epoch=epoch)
        rounds.append({"eval": evals.record(), "train": trains.record()})
    with T.Workspace.loop() as ws:
        slots = {" ".join(map(str, key)) if isinstance(key, tuple) else key: size
                 for key, size in ws.nbytes().items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "setup_rss_mb": round(setup_rss_mb, 2), "rounds": rounds,
                      "workspace": {"slots": slots, "total": sum(slots.values())},
                      "peak_rss_mb": round(peak_rss_mb, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
