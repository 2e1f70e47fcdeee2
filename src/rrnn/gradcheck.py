"""Finite-difference verification of pool gradients through a layer.

Runs one ``layer_forward`` over a 3-step window with the loss
sum_t sum(tanh(h_t)) and compares the analytic pool gradients against
central differences over every referenced pool entry.  Shared entries are
exercised through all of their view paths at once, so this also checks
that aliased gradients sum.
"""

from dataclasses import dataclass

import numpy as np

from . import cells as C
from . import model as M
from . import restriction as R
from . import training as Tr
from .errors import ValidationError

FD_STEP = 1e-5
PASS_THRESHOLD = 1e-4
STEPS = 3   # steps in the window
BATCH = 2


@dataclass
class GradcheckReport:
    max_rel_error: float
    worst_entry: tuple   # ("W" | "b", row, col)
    checked: int

    @property
    def passed(self):
        return self.max_rel_error < PASS_THRESHOLD


def _window_loss(spec, pool, x, state):
    """sum_t sum(tanh(h_t)) and the layer's backward pass; the tanh readout
    sends each hidden entry its own upstream gradient (a plain sum sends 1
    everywhere)."""
    features, _, backward = C.layer_forward(spec, pool, x, state)
    readout = np.tanh(features)
    return readout.sum(), readout, backward


def _referenced_entries(plan):
    """(kind, row, col) for every pool scalar touched by some view."""
    width = plan.row_width()
    entries = []
    for row in range(plan.d_r):
        for col in range(int(width[row])):
            entries.append(("W", row, col))
        if width[row] > 0:
            entries.append(("b", row, 0))
    return entries


def run_gradcheck(family, d, k, rate, seed=0):
    """Analytic vs central-difference pool gradients; STEPS steps of BATCH, d, k <= 8."""
    if d > 8 or k > 8:
        raise ValidationError("gradcheck is restricted to d, k <= 8")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    (spec,) = M.layer_specs(family, 1, k, d, rate)
    plan = spec.plan
    pool = R.build_pool(plan, seed)
    rng = np.random.default_rng(seed + 1)
    # step t in columns [t*BATCH, (t+1)*BATCH), drawn in turn
    x = np.concatenate([rng.uniform(-1, 1, size=(k, BATCH)) for _ in range(STEPS)], axis=1)
    state0 = C.CellState(rng.uniform(-1, 1, size=(d, BATCH)),
                         np.zeros((d, BATCH)) if family == "lstm" else None)

    Tr.zero_grads(pool.trainables())
    _, readout, backward = _window_loss(spec, pool, x, state0)
    backward(1.0 - readout * readout, lambda cols: x[:, cols])
    analytic = {"W": pool.W.grad, "b": pool.b.grad}

    def forward_value():
        return float(_window_loss(spec, pool, x, state0)[0])

    worst = 0.0
    worst_entry = ("W", -1, -1)
    entries = _referenced_entries(plan)
    for kind, row, col in entries:
        arr = pool.W.data if kind == "W" else pool.b.data
        idx = (row, col) if kind == "W" else row
        orig = arr[idx]
        arr[idx] = orig + FD_STEP
        up = forward_value()
        arr[idx] = orig - FD_STEP
        down = forward_value()
        arr[idx] = orig
        numeric = (up - down) / (2 * FD_STEP)
        a = analytic[kind][idx]
        rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
        if rel > worst:
            worst = rel
            worst_entry = (kind, row, col)
    return GradcheckReport(max_rel_error=worst, worst_entry=worst_entry, checked=len(entries))
