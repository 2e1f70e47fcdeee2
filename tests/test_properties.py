"""Property tests over random per-(input, gate) 2 x n rate matrices.

Each example draws a family, sizes d, k <= 6, a window of T <= 4 steps
of batch B <= 3 and an independent sharing rate for every (input, gate)
pair.  The checks are the invariants the restriction rests on: the
window's layer node against a per-step loop of the dense oracle, its
gradients against central differences, and the enumerated parameter
counts against the plan's row bookkeeping.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rrnn import cells as C
from rrnn import restriction as R
from rrnn import tensor as T
from rrnn.tensor import Tensor

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


def make_window(spec, steps, batch, seed, requires_grad=False):
    plan = spec.make_plan()
    pool = R.build_pool(plan, seed=seed)
    rng = np.random.default_rng(seed)
    # the window matrix: step t, drawn in turn, in columns [t*batch, (t+1)*batch)
    x = Tensor(np.concatenate([rng.uniform(-1, 1, (spec.input_size, batch))
                               for _ in range(steps)], axis=1), requires_grad=requires_grad)
    shape = (spec.hidden_size, batch)
    h0 = Tensor(rng.uniform(-1, 1, shape), requires_grad=requires_grad)
    c0 = None
    if spec.family == "lstm":
        c0 = Tensor(rng.uniform(-1, 1, shape), requires_grad=requires_grad)
    return plan, pool, x, C.CellState(h0, c0), rng


@PROPERTY
@given(windows())
def test_window_matches_per_step_dense_oracle(case):
    spec, steps, batch, seed = case
    plan, pool, x, state0, _ = make_window(spec, steps, batch, seed)
    feats, (state,) = C.stack_forward([spec], [pool], [plan], x, [state0])
    gates = assemble_dense_weights(pool.W.data, pool.b.data, plan)
    h = state0.h.data
    c = state0.c.data if state0.c is not None else None
    for t in range(steps):
        cols = slice(t * batch, (t + 1) * batch)
        h, c = dense_cell_step(spec.family, gates, x.data[:, cols], h, c)
        assert np.abs(feats.data[:, cols] - h).max() < 1e-12
    assert np.abs(state.h.data - h).max() < 1e-12
    if c is not None:
        assert np.abs(state.c.data - c).max() < 1e-12


@PROPERTY
@given(windows())
def test_window_gradients_match_central_differences(case):
    spec, steps, batch, seed = case
    plan, pool, x, state0, rng = make_window(spec, steps, batch, seed, requires_grad=True)
    # random readouts of every output: per-step features, h_T and c_T
    shape = (spec.hidden_size, batch)
    readouts = [Tensor(rng.uniform(-1, 1, shape)) for _ in range(steps + 2)]

    def loss():
        feats, (state,) = C.stack_forward([spec], [pool], [plan], x, [state0])
        outputs = [T.col_slice(feats, batch, start=t * batch) for t in range(steps)]
        outputs += [state.h] + ([state.c] if state.c is not None else [])
        total = T.tsum(outputs[0] * readouts[0])
        for out, weight in zip(outputs[1:], readouts[1:]):
            total = total + T.tsum(out * weight)
        return total

    T.backward(loss())

    def value():
        with T.no_grad():
            return loss().item()

    width = plan.row_width()
    checked = [(pool.W, (row, col)) for row in range(plan.d_r) for col in range(width[row])]
    checked += [(pool.b, (row,)) for row in range(plan.d_r) if width[row]]
    leaves = [x, state0.h] + ([state0.c] if state0.c is not None else [])
    checked += [(leaf, idx) for leaf in leaves for idx in np.ndindex(leaf.shape)]
    for leaf, idx in checked:
        numeric = central_diff(value, leaf.data, idx)
        analytic = leaf.grad[idx]
        rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
        assert rel < 1e-4, (leaf.shape, idx, analytic, numeric)


@PROPERTY
@given(specs())
def test_enumerated_counts_match_row_bookkeeping(spec):
    plan = spec.make_plan()
    n, k = plan.n, plan.k_inputs
    pairs = [(i, j) for i in range(2) for j in range(n)]
    assert plan.d_r == plan.s_r + sum(plan.q[i][j] for i, j in pairs)
    assert all(len(plan.input_rows(i)) == n * plan.d for i in range(2))
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
