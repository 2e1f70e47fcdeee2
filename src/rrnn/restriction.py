"""Shared parameter pool construction and exact parameter accounting.

A cell with m inputs and n gates normally owns m*n separate weight
matrices.  Here all of them are row-views into one pool matrix W of shape
(d_r, k_r): each view is the shared row prefix [0, s_ij) followed by its
own private row block, so a higher sharing rate means fewer distinct
trainable scalars.  A ``RestrictionPlan`` is that map alone; a layer's
compact layout of its views is ``cells.CellSpec.compact``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor import Parameter


def round_half_away(x):
    """Round with ties away from zero (x is nonnegative here)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class RestrictionPlan:
    """All row bookkeeping derived from an m x n sharing-rate matrix.

    ``s[i][j]`` rows of the pool prefix are shared by pair (i, j);
    ``q[i][j]`` private rows start at ``offsets[i][j]``.  Pool shape is
    (d_r, k_r) with d_r = s_r + sum(q).
    """

    m: int
    n: int
    d: int
    k_inputs: tuple
    rates: tuple          # m x n nested tuple of floats in [0, 1]
    s: tuple              # m x n shared row counts
    q: tuple              # m x n private row counts
    s_r: int
    k_r: int
    d_r: int
    offsets: tuple        # m x n start row of each private block

    def view_rows(self, i, j):
        """Pool row indices of view (input i, gate j); always length d."""
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise ValidationError(f"view index ({i},{j}) out of range for {self.m}x{self.n} plan")
        off = self.offsets[i][j]
        return np.concatenate([
            np.arange(self.s[i][j], dtype=np.intp),
            np.arange(off, off + self.q[i][j], dtype=np.intp),
        ])

    def row_width(self):
        """Trainable columns per pool row: the widest k_i over views touching it.

        Every view uses columns [0, k_i), so row r holds ``row_width()[r]``
        trainable weights plus one bias; 0 marks a placeholder row.
        """
        width = np.zeros(self.d_r, dtype=np.int64)
        for i in range(self.m):
            for j in range(self.n):
                np.maximum.at(width, self.view_rows(i, j), self.k_inputs[i])
        return width


def plan_restriction(m, n, d, k_inputs, rates):
    """Build a RestrictionPlan from channel sizes and an m x n rate matrix."""
    if d < 1:
        raise ValidationError(f"output channel size must be >= 1, got {d}")
    if len(k_inputs) != m or any(k < 1 for k in k_inputs):
        raise ValidationError(f"need {m} input channel sizes >= 1, got {k_inputs}")
    rates = tuple(tuple(float(r) for r in row) for row in rates)
    if len(rates) != m or any(len(row) != n for row in rates):
        raise ValidationError(f"rates must be {m}x{n}")
    for row in rates:
        for r in row:
            if not 0.0 <= r <= 1.0:
                raise ValidationError(f"sharing rate {r} outside [0, 1]")

    s = tuple(tuple(round_half_away(r * d) for r in row) for row in rates)
    q = tuple(tuple(d - sij for sij in row) for row in s)
    s_r = max(max(row) for row in s)
    k_r = max(k_inputs)
    d_r = s_r + sum(sum(row) for row in q)

    # private blocks packed after the shared prefix, row-major over (i, j)
    offsets = []
    cursor = s_r
    for i in range(m):
        row = []
        for j in range(n):
            row.append(cursor)
            cursor += q[i][j]
        offsets.append(tuple(row))
    assert cursor == d_r

    return RestrictionPlan(m=m, n=n, d=d, k_inputs=tuple(k_inputs), rates=rates,
                           s=s, q=q, s_r=s_r, k_r=k_r, d_r=d_r, offsets=tuple(offsets))


@dataclass
class ParameterPool:
    """The master weight matrix and bias all views are sliced from."""

    W: Parameter   # (d_r, k_r)
    b: Parameter   # (d_r,)

    def trainables(self):
        return [self.W, self.b]


def build_pool(plan, seed):
    """A pool drawn uniform on (-1/sqrt(d), 1/sqrt(d)) from ``seed``.

    Every pool entry is drawn once, so aliased view rows start (and stay)
    identical by construction.
    """
    scale = 1.0 / math.sqrt(plan.d)
    rng = np.random.default_rng(seed)
    w = rng.uniform(-scale, scale, size=(plan.d_r, plan.k_r))
    b = rng.uniform(-scale, scale, size=plan.d_r)
    return ParameterPool(W=Parameter(w), b=Parameter(b))


@dataclass(frozen=True)
class ParamCounts:
    """Unrestricted count P, shared savings S_r, restricted count P_r, C=P_r/P."""

    unrestricted: int
    shared: int
    restricted: int

    @property
    def compression(self):
        return self.restricted / self.unrestricted


def count_parameters(plan):
    """Exact counts by enumerating distinct trainable pool scalars.

    A pool cell (row, col) is trainable iff some view covers it, which
    ``RestrictionPlan.row_width`` enumerates.  Placeholder rows count zero.
    """
    unrestricted = sum(plan.d * (k + 1) for k in plan.k_inputs) * plan.n
    width = plan.row_width()
    restricted = int(width.sum()) + int(np.count_nonzero(width > 0))
    return ParamCounts(unrestricted=unrestricted, shared=unrestricted - restricted,
                       restricted=restricted)


def closed_form_counts(m, n, d, k, r):
    """Counts for a uniform-rate, uniform-k plan, from the closed forms:
    P = mnd(k+1) and S_r = (mn-1) * s * (k+1) with s = round(r * d)."""
    s = round_half_away(r * d)
    p = m * n * d * (k + 1)
    shared = (m * n - 1) * s * (k + 1)
    return ParamCounts(unrestricted=p, shared=shared, restricted=p - shared)
