"""Trainable parameters and dropout masks.

A ``Parameter`` is a float64 array plus its gradient buffer.  There is
no tape: each stage of a training window has a hand-written backward
(the restricted layer's BPTT and the embedding scatter in ``cells``,
the fused head and loss in ``training``), and those backward passes add
straight into ``Parameter.grad``; the loss runs them all before it
returns.  ``training.zero_grads`` allocates the buffers at the first
training window and zeroes them before its forward pass and each later
one's, so a model that is only evaluated holds no gradient memory.
"""

import numpy as np

from .errors import NumericError, ShapeError


class Parameter:
    """A trainable float64 array ``data`` and its gradient ``grad`` (None until trained)."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NumericError("parameter initialized with non-finite values")
        self.grad = None


def dropout_mask(shape, p, rng):
    """Dropout keep-mask drawn from rng: a boolean array, True where kept."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {p}")
    return rng.random(shape) >= p


def apply_dropout(x, keep, p):
    """x with the entries ``keep`` drops zeroed and the rest scaled by 1/(1-p),
    bit for bit x times a float mask; x itself when ``keep`` is None."""
    return x if keep is None else x * (1.0 / (1.0 - p)) * keep
