"""One benchmark run: set-up probes, the untraced run and, with --trace 1,
the traced pass and the floor.  ``run.py`` configures BLAS threads and the
import path, then calls ``main``; see README.md for what is measured."""

import ctypes
import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import floor as F
import workloads as W
from rrnn import cells as C
from rrnn import data as D
from rrnn import model as M
from rrnn import restriction as R
from rrnn import tensor as T
from rrnn import training as Tr
from rrnn.errors import NumericError
from tracer import END, PARENT, START, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 5          # before training; then one every PROBE_INTERVAL_S between windows
PROBE_INTERVAL_S = 2.5
WARMUP_WINDOWS = 2        # first windows of a pass fault in the tape's memory
# the first evaluation of the loaded model is likewise untimed when others follow
LOSS_RTOL = 1e-10         # floor vs program, one window with dropout 0
PARAM_RTOL = 1e-9         # floor vs program, parameters after that window's step

E2E_UNITS = {
    "train_tok_s": "tok/s", "train_window_ms_p50": "ms", "eval_tok_s": "tok/s",
    "valid_ppl": "ppl", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
}
LAYER_UNITS = {
    "tensor.nodes_per_window": "count", "tensor.backward_ms": "ms",
    "cells.stack_fwd_ms": "ms", "tensor.gather_rows_calls": "count",
    "tensor.gathered_mb": "MB", "tensor.matmul_calls": "count",
    "tensor.matmul_gflop": "GFLOP", "cells.head_fwd_ms": "ms", "cells.embed_ms": "ms",
    "training.ce_fwd_ms": "ms", "training.clip_ms": "ms", "training.sgd_ms": "ms",
    "training.eval_window_ms": "ms", "training.window_ms_tail": "ms",
    "data.load_s": "s", "data.batchify_ms": "ms", "data.train_tokens": "count",
    "data.vocab_size": "count", "model.build_s": "s", "restriction.pool_rows": "count",
    "restriction.params_restricted": "count", "model.save_ms": "ms", "model.load_ms": "ms",
    "model.ckpt_bytes": "bytes", "trace.overhead_frac": "frac",
    "trace.unaccounted_frac": "frac", "floor.train_window_ms": "ms", "floor.ratio": "ratio",
}
# counts that must repeat exactly across runs of one source tree, whatever the seed
COUNT_METRICS = ("tensor.nodes_per_window", "tensor.gather_rows_calls", "tensor.gathered_mb",
                 "tensor.matmul_calls", "tensor.matmul_gflop", "data.train_tokens",
                 "data.vocab_size", "restriction.pool_rows", "restriction.params_restricted")
# per-window span sums that make up a traced training window
WINDOW_PARTS = {
    "cells.embed_ms": "cells.embed_tokens",
    "cells.stack_fwd_ms": "cells.stack_forward",
    "cells.head_fwd_ms": "cells.lm_head_forward",
    "training.ce_fwd_ms": "training.cross_entropy_loss",
    "tensor.backward_ms": "tensor.backward",
    "training.clip_ms": "training.clip_gradients",
    "training.sgd_ms": "training.sgd_step",
}
# per-window counts: metric -> (span name, field: 0 calls, 2 summed value, scale)
WINDOW_COUNTS = {
    "tensor.nodes_per_window": ("tensor.from_op", 2, 1),
    "tensor.gather_rows_calls": ("tensor.gather_rows", 0, 1),
    "tensor.gathered_mb": ("tensor.gather_rows", 2, 1e-6),
    "tensor.matmul_calls": ("tensor.matmul", 0, 1),
    "tensor.matmul_gflop": ("tensor.matmul", 2, 1e-9),
}


class Checks:
    """Named pass/fail correctness checks of one run."""

    def __init__(self):
        self.results = {}

    def add(self, name, ok, detail=""):
        """Record a check; a name checked again keeps its first failure."""
        if self.results.get(name, (True,))[0]:
            self.results[name] = (bool(ok), str(detail))

    def failed(self):
        return [name for name, (ok, _) in self.results.items() if not ok]


class WindowClock:
    """A batch list that times each window while ``train_epoch``/``evaluate``
    iterate it; optionally stops at a deadline or opens a trace window."""

    def __init__(self, batches, name, tracer=None, deadline=None):
        self.batches = batches
        self.name = name
        self.tracer = tracer
        self.deadline = deadline
        self.seconds = []

    def __len__(self):
        return len(self.batches)

    def __getitem__(self, i):
        return self.batches[i]

    def __iter__(self):
        for batch in self.batches:
            if self.deadline is not None and time.perf_counter() >= self.deadline:
                return
            span = self.tracer.open_window(self.name) if self.tracer else None
            start = time.perf_counter()
            try:
                yield batch
            finally:
                self.seconds.append(time.perf_counter() - start)
                if span is not None:
                    self.tracer.close_window(span)


class LossLog:
    """Records each training window's loss as ``train_epoch`` computes it.

    ``train_epoch`` looks ``cross_entropy_loss`` up in its module at call
    time, so replacing the module attribute is enough; evaluation losses
    (no tape) are not recorded.
    """

    def __init__(self):
        self.losses = []

    def __enter__(self):
        original = self.original = Tr.cross_entropy_loss
        losses = self.losses

        @functools.wraps(original)
        def recorded(step_logits, targets):
            loss = original(step_logits, targets)
            if loss.requires_grad:
                losses.append(loss.item())
            return loss

        Tr.cross_entropy_loss = recorded
        return self

    def __exit__(self, *exc):
        Tr.cross_entropy_loss = self.original


# ---------------- environment stamp ----------------

def git_sha(root):
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count as the loaded OpenBLAS reports it, or None if not found."""
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        blas = ctypes.CDLL(path)
        for name in names:
            fn = getattr(blas, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.25 only prints its config
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rrnn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


# ---------------- passes ----------------

def probe_setup(workload, seed, corpus_dir):
    """Seconds from spawning a fresh interpreter to its first training window."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "probe_setup.py"), workload,
                           str(seed), str(corpus_dir)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def budget_pass(wl, rc, ckpt, tracer=None):
    """Build, train the fixed budget through ``training.fit`` (which saves the
    checkpoint), load it back and evaluate the loaded model once."""
    out = {}
    out["stream"], train_b, valid_b, model = W.build(rc)
    out["budget"] = train_b[:wl.budget_windows]
    out["valid_tokens"] = sum(b.targets.size for b in valid_b)
    out["model"] = model
    clock = WindowClock(out["budget"], "window.train", tracer)
    eval_clock = WindowClock(valid_b, "window.eval", tracer)
    out["clocks"], out["eval_clock"] = [clock], eval_clock
    with LossLog() as log:
        out["losses"] = log.losses
        out["start"] = time.perf_counter()
        records = Tr.fit(model, clock, eval_clock, rc.train_cfg, checkpoint_path=str(ckpt))
    out["fit_valid_loss"] = records[0]["valid_loss"]
    out["loaded"] = loaded = M.LanguageModel.load(str(ckpt))
    out["ckpt_bytes"] = ckpt.stat().st_size
    ckpt.unlink()
    out["roundtrip_exact"] = all(
        a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data)
        for a, b in zip(model.parameters(), loaded.parameters()))
    out["eval_s"], out["loaded_valid_loss"] = [], []
    evaluate_loaded(out)
    return out


def evaluate_loaded(run):
    start = time.perf_counter()
    vm = Tr.evaluate(run["loaded"], run["eval_clock"])
    run["eval_s"].append(time.perf_counter() - start)
    run["loaded_valid_loss"].append(vm["loss"])
    run["valid_ppl"] = vm["perplexity"]


def throughput(wl, rc, run, deadline, between):
    """Until the deadline, alternate ``eval_every`` more training windows
    (``train_epoch`` over the budget windows) with one evaluation of the
    loaded model and one call of ``between``, so that all three sample the
    whole run rather than one stretch of it."""
    model = run["model"]
    opt = Tr.OptimizerState.for_params(model.parameters())
    epoch = 1
    with LossLog() as log:
        while time.perf_counter() < deadline:
            evaluate_loaded(run)
            between()
            clock = WindowClock(run["budget"][:wl.eval_every], "window.train",
                                deadline=deadline)
            em = Tr.train_epoch(model, clock, rc.train_cfg, opt, rc.train_cfg.lr0, epoch=epoch)
            run["clocks"].append(clock)
            if "aborted" in em:
                raise NumericError(em["aborted"])
            epoch += 1
    run["losses"] = run["losses"] + log.losses


def window_tail(seconds):
    """Highest percentile with at least ten windows beyond it: (ms, pct, n).

    With ten windows or fewer no such percentile exists; the maximum is
    reported with percentile 100.
    """
    s = sorted(seconds)
    n = len(s)
    if n > 10:
        return 1e3 * s[n - 11], 100.0 * (n - 10) / n, n
    return 1e3 * s[-1], 100.0, n


def counts_of(stream, model):
    closed = 0
    for spec, plan in zip(model.specs, model.plans):
        rate = spec.rates[0][0]
        closed += R.closed_form_counts(plan.m, plan.n, plan.d, spec.input_size, rate).restricted
    return {
        "data.train_tokens": int(len(stream.train)),
        "data.vocab_size": int(stream.vocab.size),
        "restriction.pool_rows": int(sum(p.d_r for p in model.plans)),
        "restriction.params_restricted": int(model.recurrent_counts()[1].restricted),
        "restriction.closed_form": int(closed),
    }


def traced_pass(wl, rc, checks, untraced):
    """The same budget with every public rrnn function wrapped; per-layer metrics."""
    tracer = Tracer()
    ckpt = OUT / f"{wl.name}.traced.npz"
    with tracer.install((D, R, M, C, T, Tr), M.LanguageModel):
        run = budget_pass(wl, rc, ckpt, tracer)
    k = len(run["losses"])
    checks.add("traced_losses_bit_identical", run["losses"] == untraced["losses"][:k],
               f"{k} windows")

    windows, sums = tracer.per_window("window.train")
    metrics = {}
    parts = {m: [] for m in WINDOW_PARTS}
    unaccounted = []
    for w, dur in windows.items():
        covered = 0
        for metric, span in WINDOW_PARTS.items():
            ns = sums[w].get(span, [0, 0, 0])[1]
            parts[metric].append(ns / 1e6)
            covered += ns
        unaccounted.append((dur - covered) / dur)
    for metric, values in parts.items():
        metrics[metric] = statistics.median(values)
    metrics["trace.unaccounted_frac"] = statistics.median(unaccounted)
    for metric, (span, field, scale) in WINDOW_COUNTS.items():
        values = {sums[w].get(span, [0, 0, 0])[field] for w in windows}
        checks.add("window_counts_repeat", len(values) == 1, f"{metric}: {sorted(values)}")
        metrics[metric] = max(values) * scale
    eval_windows, _ = tracer.per_window("window.eval")
    metrics["training.eval_window_ms"] = statistics.median(eval_windows.values()) / 1e6

    top = {}  # top-level set-up and checkpoint spans, called from the benchmark or fit
    for rec in tracer.spans:
        parent = rec[PARENT]
        if parent < 0 or tracer.name_of(tracer.spans[parent]) == "training.fit":
            top.setdefault(tracer.name_of(rec), []).append((rec[END] - rec[START]) / 1e9)
    metrics["data.load_s"] = sum(top["data.load_splits"])
    metrics["data.batchify_ms"] = 1e3 * sum(top["data.batchify"])
    metrics["model.build_s"] = sum(top["model.LanguageModel.__init__"])
    metrics["model.save_ms"] = 1e3 * sum(top["model.LanguageModel.save"])
    metrics["model.load_ms"] = 1e3 * sum(top["model.LanguageModel.load"])
    metrics["model.ckpt_bytes"] = run["ckpt_bytes"]

    traced_p50 = 1e3 * statistics.median(run["clocks"][0].seconds[WARMUP_WINDOWS:])
    metrics["trace.overhead_frac"] = traced_p50 / untraced["p50_ms"] - 1.0

    counts = counts_of(run["stream"], run["model"])
    checks.add("setup_counts_repeat", counts == untraced["counts"], counts)
    n = len(windows)
    per_window = {name: {"calls": calls / n, "ms": incl / 1e6 / n, "self_ms": own / 1e6 / n}
                  for name, (calls, incl, own) in tracer.self_times(set(windows)).items()}
    spans_path = OUT / f"{wl.name}.spans.tsv"
    tracer.write(spans_path)
    return metrics, counts, {"traced_window_ms_p50": traced_p50,
                             "spans_per_window": per_window,
                             "spans_file": str(spans_path.relative_to(ROOT)),
                             "spans": len(tracer.spans)}


def floor_pass(wl, rc, checks, untraced):
    """Verify the floor against the program, then time it on the budget windows."""
    cfg, lr = rc.train_cfg, rc.train_cfg.lr0

    # one window with dropout 0, program vs floor from the same initial parameters
    _, train_b, _, model = W.build(rc, dropout=0.0)
    ref = F.Floor(model, cfg)
    first = train_b[0]
    with LossLog() as log:
        Tr.train_epoch(model, [first], cfg, Tr.OptimizerState.for_params(model.parameters()),
                       lr, epoch=0)
    loss, _ = ref.window(first.inputs, first.targets, ref.init_state(first.inputs.shape[1]),
                         None, lr)
    loss_rel = abs(loss - log.losses[0]) / abs(log.losses[0])
    param_rel = max(float(np.max(np.abs(a - b.data)) / np.max(np.abs(b.data)))
                    for a, b in zip(ref.parameters(), model.parameters()))
    checks.add("floor_loss_matches_program", loss_rel <= LOSS_RTOL, f"rel {loss_rel:.3e}")
    checks.add("floor_step_matches_program", param_rel <= PARAM_RTOL, f"rel {param_rel:.3e}")
    del model, ref

    # the workload's own dropout, timed over the budget windows
    _, train_b, _, model = W.build(rc)
    fl = F.Floor(model, cfg)
    del model
    rng = np.random.default_rng([cfg.seed, 0, 0x5EED])   # train_epoch's epoch-0 stream
    states = fl.init_state(first.inputs.shape[1])
    seconds, losses = [], []
    for batch in train_b[:wl.budget_windows]:
        start = time.perf_counter()
        loss, states = fl.window(batch.inputs, batch.targets, states, rng, lr)
        seconds.append(time.perf_counter() - start)
        losses.append(loss)
    checks.add("floor_losses_finite", all(map(math.isfinite, losses)))
    k = len(losses)
    close = [abs(a - b) / abs(b) for a, b in zip(losses, untraced["losses"][:k])]
    checks.add("floor_dropout_window_matches_program", close[0] <= LOSS_RTOL,
               f"rel {close[0]:.3e}")
    floor_ms = 1e3 * statistics.median(seconds[1:])
    return ({"floor.train_window_ms": floor_ms,
             "floor.ratio": untraced["p50_ms"] / floor_ms},
            {"loss_rel_dropout0": loss_rel, "param_rel_dropout0": param_rel,
             "loss_rel_vs_untraced_windows": max(close), "windows": k})


# ---------------- main ----------------

def main(args):
    """One run of one workload; returns the exit code."""
    wl = W.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env))

    corpus_dir = OUT / f"{wl.name}.corpus"
    if wl.name == "ptb-gru-word":
        W.write_word_corpus(corpus_dir, args.seed)
    rc = W.run_config(wl, ROOT, corpus_dir, args.seed)
    checks = Checks()
    aborted = 0
    attempted = 0

    def probe():
        setup.append(probe_setup(wl.name, args.seed, corpus_dir))
        next_probe[0] = time.perf_counter() + PROBE_INTERVAL_S

    def probe_when_due():
        if time.perf_counter() >= next_probe[0]:
            probe()

    setup, next_probe = [], [0.0]
    for _ in range(SETUP_PROBES):
        probe()
    try:
        run = budget_pass(wl, rc, OUT / f"{wl.name}.npz")
        throughput(wl, rc, run, run["start"] + args.seconds, probe_when_due)
    except NumericError as err:
        print(f"numeric failure: {err}")
        run, aborted = None, 1
    extras = {"setup_probes_s": setup}
    e2e = {}
    layer = {}
    if run is not None:
        windows = [s for c in run["clocks"] for s in c.seconds]
        timed = windows[WARMUP_WINDOWS:]
        tokens_per_window = run["budget"][0].targets.size
        attempted = len(windows)
        nonfinite = sum(not math.isfinite(x) for x in run["losses"])
        checks.add("window_losses_finite", nonfinite == 0, f"{nonfinite} non-finite")
        checks.add("budget_windows_full",
                   all(b.targets.shape == run["budget"][0].targets.shape for b in run["budget"]))
        checks.add("checkpoint_roundtrip_bit_exact", run["roundtrip_exact"])
        checks.add("loaded_valid_loss_equal",
                   all(v == run["fit_valid_loss"] for v in run["loaded_valid_loss"]),
                   f"fit {run['fit_valid_loss']!r} loaded {run['loaded_valid_loss']!r}")
        counts = counts_of(run["stream"], run["model"])
        checks.add("params_match_closed_form",
                   counts["restriction.params_restricted"] == counts["restriction.closed_form"],
                   counts)
        checks.add("vocab_size", counts["data.vocab_size"] == wl.vocab_size,
                   counts["data.vocab_size"])
        p50_ms = 1e3 * statistics.median(timed)
        e2e = {
            "train_tok_s": tokens_per_window * len(timed) / sum(timed),
            "train_window_ms_p50": p50_ms,
            "eval_tok_s": statistics.median(run["valid_tokens"] / s
                                            for s in run["eval_s"][1:] or run["eval_s"]),
            "valid_ppl": run["valid_ppl"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        tail_ms, tail_pct, tail_n = window_tail(timed)
        extras.update({"window_ms": [1e3 * s for s in windows], "warmup_windows": WARMUP_WINDOWS,
                       "window_losses": run["losses"], "eval_s": run["eval_s"],
                       "window_tail": {"ms": tail_ms, "percentile": tail_pct, "samples": tail_n}})
        untraced = {"losses": run["losses"][:len(run["budget"])], "p50_ms": p50_ms,
                    "counts": counts}
        del run
        gc.collect()

        if args.trace:
            layer, traced_counts, extras["trace"] = traced_pass(wl, rc, checks, untraced)
            gc.collect()
            floor_metrics, extras["floor"] = floor_pass(wl, rc, checks, untraced)
            layer.update(floor_metrics)
            layer.update({k: v for k, v in traced_counts.items() if k in LAYER_UNITS})
            layer["training.window_ms_tail"] = tail_ms
        repeats = {f"valid_ppl seed {args.seed}": e2e["valid_ppl"]}
        repeats.update({k: layer[k] for k in COUNT_METRICS if k in layer})
        check_repeats(wl, env, repeats, checks)

    failed = aborted + len(checks.failed())
    attempted = max(attempted, 1)
    e2e["ok_frac"] = max(0.0, 1.0 - failed / attempted)
    metrics, units = (layer, LAYER_UNITS) if args.trace else (e2e, E2E_UNITS)
    correct = failed == 0 and set(metrics) == set(units)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct,
              "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in checks.results.items()},
              "end_to_end": e2e, "per_layer": layer, "extras": extras}
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for name, (ok, detail) in checks.results.items():
        print(f"check {name:34s} {'ok' if ok else 'FAILED'}  {detail if not ok else ''}")
    for name, value in {**e2e, **layer}.items():
        print(f"{name:34s} {value:14.6g} {E2E_UNITS.get(name) or LAYER_UNITS[name]}")
    if "window_tail" in extras:
        t = extras["window_tail"]
        print(f"window tail p{t['percentile']:.1f} over {t['samples']} windows: {t['ms']:.2f} ms")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} windows)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units if k in metrics}}))
    return 0 if correct else 1


def check_repeats(wl, env, values, checks):
    """Values that must repeat exactly across runs of the same source tree.

    ``out/<workload>.repeats.json`` keeps the first value seen for each key
    while the hash of ``src/rrnn`` stays the same.
    """
    path = OUT / f"{wl.name}.repeats.json"
    ledger = {"src_sha256": env["src_sha256"], "values": {}}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["src_sha256"] == env["src_sha256"]:
            ledger = previous
    seen = ledger["values"]
    differ = {k: (seen[k], v) for k, v in values.items() if k in seen and seen[k] != v}
    checks.add("repeats_across_runs", not differ, differ)
    ledger["values"] = {**values, **seen}
    path.write_text(json.dumps(ledger, indent=1))
