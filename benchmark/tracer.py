"""Spans around the public functions of the rrnn modules, recorded from outside.

``Tracer.install`` replaces every public module-level function of the
given modules (and the public methods of ``LanguageModel``) with a wrapper
that records a span: name, start, end, parent span and the window it ran
in.  Callers inside the package look these names up at call time
(``T.matmul``, ``C.stack_forward``, ``training.clip_gradients``), so the
wrappers see every layer boundary without any change to the package.
Spans stay in memory until ``write`` is called at the end of a run.

A few spans also carry a count measured where the work happens: tape
nodes created (``tensor.from_op``), forward matmul FLOPs
(``tensor.matmul``) and bytes gathered (``tensor.gather_rows``).
"""

import functools
import inspect
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns


def _tape_node(args, out):
    return 1 if out.requires_grad else 0


def _matmul_flops(args, out):
    a, b = args[0], args[1]
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _gathered_bytes(args, out):
    return out.data.nbytes


COUNTERS = {
    "tensor.from_op": _tape_node,
    "tensor.matmul": _matmul_flops,
    "tensor.gather_rows": _gathered_bytes,
}

MODEL_METHODS = ("__init__", "forward", "parameters", "init_state",
                 "recurrent_counts", "save", "load")

# span record fields
NAME, START, END, PARENT, WINDOW, VALUE = range(6)


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.spans = []      # [name index, start ns, end ns, parent, window, value]
        self._open = []      # indices of spans not yet ended, innermost last
        self.window = -1     # window id stamped on new spans; -1 outside windows
        self._windows = 0

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open_window(self, name):
        """Start a window span; spans begun until ``close_window`` carry its id."""
        self.window = self._windows
        self._windows += 1
        idx = len(self.spans)
        self.spans.append([self._name_index(name), _clock(), 0,
                           self._open[-1] if self._open else -1, self.window, 0])
        self._open.append(idx)
        return idx

    def close_window(self, idx):
        self.spans[idx][END] = _clock()
        self._open.pop()
        self.window = -1

    def wrap(self, name, fn):
        name_idx = self._name_index(name)
        counter = COUNTERS.get(name)
        spans, open_, clock = self.spans, self._open, _clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name_idx, clock(), 0, open_[-1] if open_ else -1, self.window, 0]
            spans.append(rec)
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()
            if counter is not None:
                rec[VALUE] = counter(args, out)
            return out

        return traced

    @contextmanager
    def install(self, modules, model_cls):
        """Wrap the modules' public functions and the model's methods; undo on exit."""
        saved = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                saved.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(f"{short}.{attr}", obj))
        prefix = f"{model_cls.__module__.rsplit('.', 1)[-1]}.{model_cls.__name__}"
        for attr in MODEL_METHODS:
            raw = vars(model_cls)[attr]
            saved.append((model_cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(model_cls, attr, classmethod(self.wrap(f"{prefix}.{attr}", raw.__func__)))
            else:
                setattr(model_cls, attr, self.wrap(f"{prefix}.{attr}", raw))
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(saved):
                setattr(owner, attr, obj)

    # ---------------- reading the spans back ----------------

    def name_of(self, rec):
        return self.names[rec[NAME]]

    def self_times(self, windows):
        """{name: [calls, inclusive ns, self ns]} over the spans in ``windows``.

        Self time is the span's duration minus the part its child spans cover.
        """
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        out = {}
        for idx, rec in enumerate(self.spans):
            if rec[WINDOW] not in windows:
                continue
            dur = rec[END] - rec[START]
            acc = out.setdefault(self.name_of(rec), [0, 0, 0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child_ns[idx]
        return out

    def per_window(self, window_name):
        """{window id: {name: [calls, ns, value]}} for spans inside windows
        opened under ``window_name``, plus each such window's own duration."""
        windows = {rec[WINDOW]: rec[END] - rec[START] for rec in self.spans
                   if self.name_of(rec) == window_name}
        sums = {w: {} for w in windows}
        for rec in self.spans:
            w = rec[WINDOW]
            if w in sums:
                acc = sums[w].setdefault(self.name_of(rec), [0, 0, 0])
                acc[0] += 1
                acc[1] += rec[END] - rec[START]
                acc[2] += rec[VALUE]
        return windows, sums

    def write(self, path):
        """Spans as tab-separated lines: name, start ns, end ns, parent, window, value."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\twindow\tvalue\n")
            for rec in self.spans:
                fh.write(f"{self.name_of(rec)}\t{rec[START]}\t{rec[END]}\t{rec[PARENT]}\t"
                         f"{rec[WINDOW]}\t{rec[VALUE]}\n")
