"""Finite-difference verification of pool gradients through cell steps.

Runs a 3-step unrolled forward, one ``cell_step`` node per step, with the
loss sum_t sum(tanh(h_t)), then compares the analytic pool gradients
against central differences over every referenced pool entry.  Shared
entries are exercised through all of their view paths at once, so this
also checks that aliased gradients sum.
"""

from dataclasses import dataclass

import numpy as np

from . import cells as C
from . import restriction as R
from . import tensor as T
from .errors import ValidationError

FD_STEP = 1e-5
PASS_THRESHOLD = 1e-4


@dataclass
class GradcheckReport:
    max_rel_error: float
    worst_entry: tuple   # ("W" | "b", row, col)
    checked: int

    @property
    def passed(self):
        return self.max_rel_error < PASS_THRESHOLD


def _unrolled_loss(spec, pool, plan, xs, state):
    """sum_t sum(tanh(h_t)): the tanh readout sends each hidden entry its own
    upstream gradient (a plain sum sends 1 everywhere) and puts a tape rule
    besides the layer node's on the checked path."""
    total = None
    for x in xs:
        state = C.cell_step(spec, pool, plan, x, state)
        part = T.tsum(T.tanh(state.h))
        total = part if total is None else total + part
    return total


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


def run_gradcheck(family, d, k, rate, seed=0, steps=3, batch=2):
    """Analytic vs central-difference pool gradients; small dims only."""
    if d > 8 or k > 8:
        raise ValidationError("gradcheck is restricted to d, k <= 8")
    spec = C.CellSpec.uniform(family, k, d, rate)
    plan = spec.make_plan()
    pool = R.build_pool(plan, R.InitSpec(), seed=seed)
    rng = np.random.default_rng(seed + 1)
    xs = [T.Tensor(rng.uniform(-1, 1, size=(k, batch))) for _ in range(steps)]
    state0 = C.CellState(T.Tensor(rng.uniform(-1, 1, size=(d, batch))),
                         T.Tensor(np.zeros((d, batch))) if family == "lstm" else None)

    loss = _unrolled_loss(spec, pool, plan, xs, state0)
    T.backward(loss)
    analytic = {"W": pool.W.grad.copy(), "b": pool.b.grad.copy()}

    def forward_value():
        with T.no_grad():
            return _unrolled_loss(spec, pool, plan, xs, state0).item()

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
