"""Trainable parameters, the window workspace and dropout.

A ``Parameter`` is a float64 array plus its gradient buffer.  There is
no tape: each stage of a training window has a hand-written backward
pass that adds straight into ``Parameter.grad``, and the loss runs them
all before it returns.  The buffers are made at the first training
window, so a model that is only evaluated holds no gradient memory.

A ``Workspace`` holds the window arrays of a thread's training and
evaluation loops; ``cells`` states the contract they keep.
"""

import threading
from contextlib import contextmanager

import numpy as np

from .errors import StateError


class Parameter:
    """A trainable float64 array ``data`` and its gradient ``grad`` (None until trained).

    ``Parameter.rows_of(base, index)`` is a Parameter whose data and
    gradient are ``base.data[index].T`` and the same view of ``base.grad``,
    so several Parameters can live in one matrix.
    """

    __slots__ = ("data", "grad", "base", "index")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.base = self.index = None

    @classmethod
    def rows_of(cls, base, index):
        view = cls.__new__(cls)
        view.data, view.grad, view.base, view.index = base.data[index].T, None, base, index
        return view

    def zero_grad(self):
        """Zero the gradient buffer, allocating it on first use; a view's
        buffer is the same view of its base's."""
        if self.grad is None:
            if self.base is None:
                self.grad = np.zeros_like(self.data)
            else:
                if self.base.grad is None:
                    self.base.grad = np.zeros_like(self.base.data)
                self.grad = self.base.grad[self.index].T
        self.grad.fill(0.0)


class Workspace:
    """The window arrays of the training and evaluation loops of one thread.

    Each named slot is one flat buffer that grows to its largest request
    and hands out a contiguous leading reshape of itself, so a shorter
    window or a narrower layer takes no new memory; the workspace holds
    the sum of its slots' largest requests.  ``begin`` starts a window,
    and ``check`` raises StateError for an earlier one.
    """

    _threads = threading.local()

    def __init__(self):
        self.window = 0
        self._slots = {}
        self._uses = {}

    @classmethod
    def current(cls):
        """The workspace of the loop running on this thread; outside a loop,
        a new one that keeps nothing."""
        active = getattr(cls._threads, "active", None)
        return _Unkept() if active is None else active

    @classmethod
    @contextmanager
    def loop(cls):
        """Run a loop's windows in this thread's workspace, made by its
        first loop and kept for the thread's life."""
        threads = cls._threads
        if getattr(threads, "kept", None) is None:
            threads.kept = cls()
        outer, threads.active = getattr(threads, "active", None), threads.kept
        try:
            yield threads.kept
        finally:
            threads.active = outer

    def begin(self):
        self.window += 1
        self._uses.clear()

    def check(self, window):
        if window != self.window:
            raise StateError(f"window {window} of this workspace was overwritten "
                             f"by window {self.window}")

    def serial(self, name):
        """How many times ``name`` was asked for earlier in this window: the
        key of an array of which each use in a window needs its own slot."""
        n = self._uses.get(name, 0)
        self._uses[name] = n + 1
        return n

    def array(self, name, shape, dtype):
        """An uninitialized array of ``shape`` in slot ``name``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if name not in self._slots or self._slots[name].size < nbytes:
            self._slots.pop(name, None)   # freed first, unless an array still holds it
            self._slots[name] = np.empty(nbytes, dtype=np.uint8)
        return self._slots[name][:nbytes].view(dtype).reshape(shape)

    def nbytes(self):
        """The bytes each slot holds, as slot -> bytes."""
        return {name: buf.size for name, buf in self._slots.items()}


class _Unkept(Workspace):
    """The workspace outside a loop: each array is allocated anew."""

    def array(self, name, shape, dtype):
        return np.empty(shape, dtype=dtype)


def check_dropout_rate(p, error):
    """Raise ``error`` unless the dropout rate p is in [0, 1)."""
    if not 0.0 <= p < 1.0:
        raise error(f"dropout rate must be in [0, 1), got {p}")


def apply_dropout(x, keep, p, out=None):
    """x with the entries ``keep`` drops zeroed and the rest scaled by 1/(1-p),
    bit for bit x times a float mask, written into ``out`` (which may be x)
    when given; x itself when ``keep`` is None."""
    if keep is None:
        return x
    out = np.multiply(x, 1.0 / (1.0 - p), out=out)
    out *= keep
    return out
