"""Minimal reverse-mode autodiff over float64 numpy arrays.

Only the operations needed around the recurrent layers are provided:
matrix product, elementwise arithmetic, tanh/sigmoid, dropout-mask
application, row gather (with scatter-add backward, which is what makes
pool sharing differentiable) and transpose.  Operands are tensors, and
the single permitted broadcast is a bias vector added over the columns
of a matrix (``add(matrix, bias)``).
A whole recurrent layer over a window and the LM head fused with the
cross entropy are custom nodes built with ``from_op`` (see ``cells`` and
``training``).

A backward rule returns, per parent, a gradient array of the parent's
shape or None.  A gradient array handed to several parents is never
added into in place, and no two leaves end up with one gradient buffer.

Every operation checks its result for NaN/Inf and raises NumericError
instead of propagating silently.
"""

from contextlib import contextmanager

import numpy as np

from .errors import NumericError, ShapeError, StateError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus the tape bookkeeping needed for backward().

    Leaf tensors are created directly; operation results carry their
    parents and a backward rule.  Gradients accumulate into ``.grad`` on
    leaves with ``requires_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backprop", "_op", "_spent")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NumericError("tensor initialized with non-finite values")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backprop = None
        self._op = "leaf"
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # operator sugar; both operands are tensors
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def recording(parents):
    """Whether a node over these parents goes on the tape (outside ``no_grad``)."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def from_op(data, parents, backprop, op):
    """Build an operation-result tensor; the extension point for custom ops.

    ``backprop(out_grad)`` must return, per parent and in order, a
    gradient array or None.
    """
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by op '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out._spent = False
    out._op = op
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backprop = backprop
    else:
        out.requires_grad = False
        out._parents = ()
        out._backprop = None
    return out


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backprop(g):
        return g @ b.data.T, a.data.T @ g

    return from_op(out, (a, b), backprop, "matmul")


def add(a, b):
    """a + b for tensors of one shape, or a matrix plus a bias over its columns."""
    if a.shape == b.shape:
        def backprop(g):
            return g, g
        return from_op(a.data + b.data, (a, b), backprop, "add")
    if a.ndim == 2 and b.ndim == 1 and b.shape[0] == a.shape[0]:
        def backprop(g):
            return g, g.sum(axis=1)
        return from_op(a.data + b.data[:, None], (a, b), backprop, "add_bias")
    raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}")


def mul(a, b):
    """Elementwise a * b for tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}")

    def backprop(g):
        return g * b.data, g * a.data

    return from_op(a.data * b.data, (a, b), backprop, "mul")


def tanh(a):
    out = np.tanh(a.data)

    def backprop(g):
        return (g * (1.0 - out * out),)

    return from_op(out, (a,), backprop, "tanh")


def sigmoid(a):
    # split by sign for stability at large |x|
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backprop(g):
        return (g * out * (1.0 - out),)

    return from_op(out, (a,), backprop, "sigmoid")


def dropout_mask(shape, p, rng):
    """Inverted-dropout mask drawn from rng: each entry 0 or 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {p}")
    return (rng.random(shape) >= p) / (1.0 - p)


def masked(a, mask):
    """a times a constant mask of its shape (a dropout mask drawn beforehand)."""
    def backprop(g):
        return (g * mask,)

    return from_op(a.data * mask, (a,), backprop, "dropout")


def gather_rows(a, rows):
    """Select rows of a 1-D or 2-D tensor; backward scatter-ADDS into the source.

    Repeated row indices (aliased pool rows reached through several views)
    therefore accumulate the sum of all their gradient paths.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= a.shape[0]):
        raise ShapeError(f"row index out of range for shape {a.shape}")
    out = a.data[rows]

    def backprop(g):
        acc = np.zeros_like(a.data)
        np.add.at(acc, rows, g)
        return (acc,)

    return from_op(out, (a,), backprop, "gather_rows")


def transpose(a):
    def backprop(g):
        return (g.T,)

    return from_op(a.data.T, (a,), backprop, "transpose")


def tsum(a):
    """Sum of all entries, as a scalar tensor."""
    def backprop(g):
        return (np.full_like(a.data, float(g)),)

    return from_op(a.data.sum(), (a,), backprop, "sum")


def backward(loss):
    """Reverse-sweep the tape from a scalar loss.

    Populates ``.grad`` on every reachable leaf with ``requires_grad`` and
    returns the {leaf: gradient array} map.  Leaves reached through several
    paths receive the sum of all path contributions.  A second call on the
    same loss raises StateError.

    A backward rule may return one array for several parents (``add``
    returns ``g, g``), so the first contribution to a tensor is kept as
    given and never written to.  The second allocates the tensor's own
    buffer, which later contributions add into.  A leaf whose gradient is
    still a borrowed array gets a copy of it.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ShapeError("backward() requires a scalar tensor")
    if loss._spent:
        raise StateError("backward() already called on this loss")
    loss._spent = True
    if not loss.requires_grad:
        return {}

    # iterative reverse topological order; each node visited exactly once
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    owned = set()   # ids whose buffer backward allocated, safe to add into in place
    leaf_grads = {}
    for node in reversed(topo):
        g = grads.pop(id(node))
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient at op '{node._op}'")
        if node._backprop is None:
            if node.grad is not None:
                node.grad = node.grad + g
            else:   # a leaf's .grad is scaled in place later (clipping): never share it
                node.grad = g if id(node) in owned else g.copy()
            leaf_grads[node] = node.grad
            continue
        for parent, pg in zip(node._parents, node._backprop(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            pg = np.asarray(pg, dtype=np.float64).reshape(parent.data.shape)
            if key in owned:
                grads[key] += pg
            elif key in grads:
                grads[key] = grads[key] + pg
                owned.add(key)
            else:
                grads[key] = pg
    return leaf_grads
