"""Property tests over random per-(input, gate) 2 x n rate matrices.

Each example draws a family, sizes d, k <= 6, a window of T <= 4 steps
of batch B <= 3 and an independent sharing rate for every (input, gate)
pair.  The checks are the invariants the restriction rests on: the
window's layer pass against a per-step loop of the dense oracle, its
gradients against central differences, and the enumerated parameter
counts against the plan's row bookkeeping.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrnn import cells as C
from rrnn import restriction as R
from rrnn import training as Tr

from oracles import assemble_dense_weights, central_diff, dense_cell_step

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def specs(draw):
    family = draw(st.sampled_from(sorted(C.GATE_COUNT)))
    n = C.GATE_COUNT[family]
    rate = st.floats(0.0, 1.0, allow_nan=False)
    rates = tuple(tuple(draw(rate) for _ in range(n)) for _ in range(2))
    return C.CellSpec(family, draw(st.integers(1, 6)), draw(st.integers(1, 6)), rates)


@st.composite
def windows(draw):
    return (draw(specs()), draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(st.integers(0, 2 ** 32 - 1)))


# all-0, all-1 and mixed rate matrices for each family: every run reaches
# views with no shared rows (s_ij = 0) and views with no private rows (q_ij = 0)
EDGE_SPECS = [C.CellSpec(family, 3, 4, rates)
              for family, n in sorted(C.GATE_COUNT.items())
              for rates in (((0.0,) * n,) * 2, ((1.0,) * n,) * 2,
                            ((0.0, 1.0, 0.5, 1.0)[:n], (1.0, 0.0, 0.25, 0.0)[:n]))]


def edge_examples(make_case):
    """Add an ``@example`` built by ``make_case`` for each of EDGE_SPECS."""
    def decorate(test):
        for spec in EDGE_SPECS:
            test = example(make_case(spec))(test)
        return test
    return decorate


def make_window(spec, steps, batch, seed):
    plan = spec.plan
    pool = R.build_pool(plan, seed=seed)
    rng = np.random.default_rng(seed)
    # the window matrix: step t, drawn in turn, in columns [t*batch, (t+1)*batch)
    x = np.concatenate([rng.uniform(-1, 1, (spec.input_size, batch))
                        for _ in range(steps)], axis=1)
    shape = (spec.hidden_size, batch)
    h0 = rng.uniform(-1, 1, shape)
    c0 = rng.uniform(-1, 1, shape) if spec.family == "lstm" else None
    return plan, pool, x, C.CellState(h0, c0), rng


@PROPERTY
@given(windows())
@edge_examples(lambda spec: (spec, 3, 2, 11))
def test_window_matches_per_step_dense_oracle(case):
    spec, steps, batch, seed = case
    plan, pool, x, state0, _ = make_window(spec, steps, batch, seed)
    feats, (state,), _ = C.stack_forward([spec], [pool], x, [state0])
    gates = assemble_dense_weights(pool.W.data, pool.b.data, plan)
    h, c = state0.h, state0.c
    for t in range(steps):
        cols = slice(t * batch, (t + 1) * batch)
        h, c = dense_cell_step(spec.family, gates, x[:, cols], h, c)
        assert np.abs(feats[:, cols] - h).max() < 1e-12
    assert np.abs(state.h - h).max() < 1e-12
    if c is not None:
        assert np.abs(state.c - c).max() < 1e-12


@PROPERTY
@given(windows())
@edge_examples(lambda spec: (spec, 3, 2, 11))
def test_window_gradients_match_central_differences(case):
    spec, steps, batch, seed = case
    plan, pool, x, state0, rng = make_window(spec, steps, batch, seed)
    # a random readout of every step's features, whose gradient is the readout
    readout = rng.uniform(-1, 1, (spec.hidden_size, steps * batch))

    def value():
        feats, _, _ = C.stack_forward([spec], [pool], x, [state0])
        return float((feats * readout).sum())

    Tr.zero_grads(pool.trainables())
    _, _, backward = C.stack_forward([spec], [pool], x, [state0], train=True)
    dx = backward(readout, lambda cols: x[:, cols])

    width = plan.row_width()
    checked = [(pool.W.data, pool.W.grad, (row, col))
               for row in range(plan.d_r) for col in range(width[row])]
    checked += [(pool.b.data, pool.b.grad, (row,)) for row in range(plan.d_r) if width[row]]
    checked += [(x, dx, idx) for idx in np.ndindex(x.shape)]
    for arr, grad, idx in checked:
        numeric = central_diff(value, arr, idx)
        analytic = grad[idx]
        rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
        assert rel < 1e-4, (arr.shape, idx, analytic, numeric)


@PROPERTY
@given(specs())
@edge_examples(lambda spec: spec)
def test_enumerated_counts_match_row_bookkeeping(spec):
    plan = spec.plan
    n, k = plan.n, plan.k_inputs
    pairs = [(i, j) for i in range(2) for j in range(n)]
    assert plan.d_r == plan.s_r + sum(plan.q[i][j] for i, j in pairs)
    assert all(len(plan.view_rows(i, j)) == plan.d for i, j in pairs)
    # prefix row r is shared by the views with s_ij > r and is as wide as the
    # widest of them; each private block belongs to one view; none is unused
    prefix = sum(max(k[i] for i, j in pairs if plan.s[i][j] > row) + 1
                 for row in range(plan.s_r))
    private = sum(plan.q[i][j] * (k[i] + 1) for i, j in pairs)
    counts = R.count_parameters(plan)
    assert counts.restricted == prefix + private
    assert counts.unrestricted == n * sum(plan.d * (ki + 1) for ki in k)
    assert counts.shared == counts.unrestricted - counts.restricted
    assert np.count_nonzero(plan.row_width()) == plan.d_r
