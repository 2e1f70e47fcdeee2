import math
import tracemalloc

import numpy as np
import pytest

from rrnn import cells as C
from rrnn import gradcheck as G
from rrnn import restriction as R
from rrnn import tensor as T
from rrnn import training as Tr
from rrnn.errors import ConfigError, NumericError, ShapeError, StateError, ValidationError
from rrnn.model import head_shapes, layer_specs

from oracles import (assemble_dense_weights, dense_cell_step, distinct_rows, dropout_mask,
                     expanded_layer_forward)

FAMILIES = ["rnn", "gru", "lstm"]


def make_cell(family, d, k, rate, seed=0, zero=False):
    spec = layer_specs(family, 1, k, d, rate)[0]
    pool = R.build_pool(spec.plan, seed)
    if zero:
        pool.W.data[:] = 0.0
        pool.b.data[:] = 0.0
    return spec, pool


def trainable_count(head):
    return sum(p.data.size for p in head.trainables())


def head_shapes_count(*args):
    return sum(map(math.prod, head_shapes(*args).values()))


def rand_state(family, d, batch, seed):
    rng = np.random.default_rng(seed)
    h = rng.uniform(-1, 1, (d, batch))
    c = rng.uniform(-1, 1, (d, batch)) if family == "lstm" else None
    return C.CellState(h, c)


class TestRNNStep:
    def test_zero_pool_gives_zero(self):
        spec, pool = make_cell("rnn", 4, 4, 0.5, zero=True)
        state = rand_state("rnn", 4, 3, 1)
        _, out, _ = C.layer_forward(spec, pool, np.ones((4, 3)), state)
        assert not out.h.any()

    def test_full_sharing_doubles_input(self):
        # r=1: W^r_xh == W^r_hh, so x = h = v gives tanh(W(2v) + 2b)
        spec, pool = make_cell("rnn", 5, 5, 1.0, seed=2)
        v = np.random.default_rng(3).uniform(-1, 1, (5, 2))
        _, out, _ = C.layer_forward(spec, pool, v, C.CellState(v))
        w = pool.W.data[:5, :5]
        b = pool.b.data[:5]
        expect = np.tanh(w @ (2 * v) + 2 * b[:, None])
        assert np.abs(out.h - expect).max() < 1e-12

    def test_small_instance_vs_dense_oracle(self):
        spec, pool = make_cell("rnn", 2, 2, 0.5, seed=4)
        x = np.array([[1.0], [0.0]])
        h = np.array([[0.0], [1.0]])
        _, out, _ = C.layer_forward(spec, pool, x, C.CellState(h))
        gates = assemble_dense_weights(pool.W.data, pool.b.data, spec.plan)
        expect, _ = dense_cell_step("rnn", gates, x, h)
        assert np.abs(out.h - expect).max() < 1e-12

    def test_shape_error(self):
        spec, pool = make_cell("rnn", 4, 4, 0.5)
        with pytest.raises(ShapeError):
            C.layer_forward(spec, pool, np.ones((5, 3)), rand_state("rnn", 4, 3, 1))


class TestLSTMStep:
    def test_zero_pool_halves_memory(self):
        spec, pool = make_cell("lstm", 4, 4, 0.5, zero=True)
        c0 = np.random.default_rng(5).uniform(-1, 1, (4, 3))
        state = C.CellState(np.zeros((4, 3)), c0)
        _, out, _ = C.layer_forward(spec, pool, np.zeros((4, 3)), state)
        assert np.allclose(out.c, 0.5 * c0, atol=1e-12)
        assert np.allclose(out.h, 0.5 * np.tanh(0.5 * c0), atol=1e-12)

    def test_saturated_gates_carry_memory(self):
        # f-gate bias +30, i-gate bias -30 (r=0 keeps bias rows disjoint)
        spec, pool = make_cell("lstm", 4, 4, 0.0, zero=True)
        pool.b.data[spec.plan.view_rows(0, 0)] = -30.0  # input gate shut
        pool.b.data[spec.plan.view_rows(0, 1)] = +30.0  # forget gate open
        c0 = np.random.default_rng(6).uniform(-1, 1, (4, 2))
        state = C.CellState(np.zeros((4, 2)), c0)
        _, out, _ = C.layer_forward(spec, pool, np.zeros((4, 2)), state)
        assert np.abs(out.c - c0).max() < 1e-9

    def test_random_instance_vs_dense_oracle(self):
        spec, pool = make_cell("lstm", 5, 3, 0.5, seed=7)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (3, 4))
        state = rand_state("lstm", 5, 4, 9)
        _, out, _ = C.layer_forward(spec, pool, x, state)
        gates = assemble_dense_weights(pool.W.data, pool.b.data, spec.plan)
        eh, ec = dense_cell_step("lstm", gates, x, state.h, state.c)
        assert np.abs(out.h - eh).max() < 1e-12
        assert np.abs(out.c - ec).max() < 1e-12

    def test_missing_cell_state(self):
        spec, pool = make_cell("lstm", 4, 4, 0.5)
        with pytest.raises(StateError):
            C.layer_forward(spec, pool, np.zeros((4, 2)),
                            C.CellState(np.zeros((4, 2))))


class TestGRUStep:
    def test_zero_pool_halves_hidden(self):
        spec, pool = make_cell("gru", 4, 4, 0.5, zero=True)
        h0 = np.random.default_rng(10).uniform(-1, 1, (4, 3))
        _, out, _ = C.layer_forward(spec, pool, np.zeros((4, 3)),
                                 C.CellState(h0))
        assert np.allclose(out.h, 0.5 * h0, atol=1e-12)

    def test_saturated_update_gate_freezes_state(self):
        spec, pool = make_cell("gru", 4, 4, 0.0, zero=True)
        pool.b.data[spec.plan.view_rows(0, 1)] = +30.0  # z gate saturated high
        h0 = np.random.default_rng(11).uniform(-1, 1, (4, 2))
        _, out, _ = C.layer_forward(spec, pool, np.zeros((4, 2)),
                                 C.CellState(h0))
        assert np.abs(out.h - h0).max() < 1e-9

    def test_random_instance_vs_dense_oracle(self):
        spec, pool = make_cell("gru", 6, 4, 0.5, seed=12)
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (4, 3))
        state = rand_state("gru", 6, 3, 14)
        _, out, _ = C.layer_forward(spec, pool, x, state)
        gates = assemble_dense_weights(pool.W.data, pool.b.data, spec.plan)
        eh, _ = dense_cell_step("gru", gates, x, state.h)
        assert np.abs(out.h - eh).max() < 1e-12

    def test_reset_gate_multiplies_hidden_bias(self):
        # bias of the candidate's hidden half sits inside the reset product
        spec, pool = make_cell("gru", 3, 3, 0.0, zero=True)
        pool.b.data[spec.plan.view_rows(1, 2)] = 2.0   # b_hn
        pool.b.data[spec.plan.view_rows(0, 0)] = -30.0  # r gate ~ 0 via input bias
        _, out, _ = C.layer_forward(spec, pool, np.zeros((3, 2)),
                                 C.CellState(np.zeros((3, 2))))
        # with r ~ 0 the b_hn term is suppressed: n = tanh(0 + r*2) ~ 0
        assert np.abs(out.h).max() < 1e-9


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("rate", [0.0, 0.25, 0.5, 1.0])
def test_dense_assembly_equivalence(family, rate):
    rng = np.random.default_rng([FAMILIES.index(family), int(rate * 100)])
    for _ in range(5):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        spec, pool = make_cell(family, d, k, rate, seed=int(rng.integers(10 ** 6)))
        x = rng.uniform(-1, 1, (k, 3))
        state = rand_state(family, d, 3, int(rng.integers(10 ** 6)))
        _, out, _ = C.layer_forward(spec, pool, x, state)
        gates = assemble_dense_weights(pool.W.data, pool.b.data, spec.plan)
        eh, ec = dense_cell_step(family, gates, x, state.h,
                                 state.c if state.c is not None else None)
        assert np.abs(out.h - eh).max() < 1e-12
        if ec is not None:
            assert np.abs(out.c - ec).max() < 1e-12


NON_UNIFORM = [
    ("gru", ((0.4, 0.2, 0.6), (0.8, 0.8, 0.2))),
    ("lstm", ((0.4, 0.2, 0.6, 1.0), (0.8, 0.8, 0.2, 0.0))),
    ("rnn", ((0.0,), (0.4,))),
    # shared rows past s_min under one gate per input: the layout reorders rows
    ("lstm", ((0.4,) * 4, (0.4, 0.4, 0.4, 0.8))),
    ("lstm", ((0.6, 0.4, 0.6, 0.8), (0.4, 0.8, 0.6, 0.6))),
]
COMPACT_CASES = [(f, ((r,) * C.GATE_COUNT[f],) * 2) for f in FAMILIES for r in (0.0, 0.5, 1.0)]


def check_against_expanded_reference(family, rates, steps):
    # the forward is the expanded-gate layer's, bit for bit; the backward
    # reassociates only the shared rows' sum over the gates
    d, k, batch = 5, 3, 3
    spec = C.CellSpec(family, k, d, rates)
    pools = [R.build_pool(spec.plan, seed=7), R.build_pool(spec.plan, seed=7)]
    for pool in pools:
        Tr.zero_grads(pool.trainables())
    state = rand_state(family, d, batch, 8)
    rng = np.random.default_rng(9)
    x, g = rng.uniform(-1, 1, (k, steps * batch)), rng.uniform(-1, 1, (d, steps * batch))
    h, out, backward = C.layer_forward(spec, pools[0], x, state)
    eh, eh_t, ec_t, expect_backward = expanded_layer_forward(spec, pools[1], x,
                                                             state.h, state.c)
    assert np.array_equal(h, eh) and np.array_equal(out.h, eh_t)
    assert (out.c is None) == (ec_t is None)
    if ec_t is not None:
        assert np.array_equal(out.c, ec_t)
    got = [backward(g, lambda cols: x[:, cols]), pools[0].W.grad, pools[0].b.grad]
    expect = [expect_backward(g), pools[1].W.grad, pools[1].b.grad]
    for a, b in zip(got, expect):
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("rates", [((0.5, 0.2, 1.0), (0.0, 0.7, 0.4)),
                                   ((0.2, 0.4, 0.2), (0.8, 0.6, 1.0)),
                                   ((0.6, 0.6, 0.6), (0.6, 0.6, 0.6)),
                                   ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                                   ((0.4, 0.2, 0.6, 1.0), (0.8, 0.8, 0.2, 0.0)),
                                   ((0.4,) * 4, (0.4,) * 4)])
def test_compact_index_is_shared_block_then_view_tails(rates):
    # a GRU (3 gates) or an LSTM (4 gates, held in the order i, f, o, g)
    gates = {3: (0, 1, 2), 4: (0, 1, 3, 2)}[len(rates[0])]
    spec = C.CellSpec({3: "gru", 4: "lstm"}[len(gates)], 3, 5, rates)
    plan = spec.plan
    s, rows, blocks = spec.compact
    assert s == min(min(row) for row in plan.s)
    assert blocks == (slice(0, s),) + tuple(slice(s + p * (5 - s), s + (p + 1) * (5 - s))
                                            for p in range(len(gates)))
    uniform = len({x for row in plan.s for x in row}) == 1
    for i in range(2):
        assert np.array_equal(rows[i][:s], np.arange(s))
        for tail, j in zip(rows[i][s:].reshape(len(gates), plan.d - s), gates):
            assert np.array_equal(tail, spec.plan.view_rows(i, j)[s:])
        if uniform:   # the layout reorders the distinct rows
            assert sorted(rows[i]) == list(distinct_rows(plan, i))


@pytest.mark.parametrize("family, rates", COMPACT_CASES + NON_UNIFORM)
def test_compact_layer_matches_expanded_reference(family, rates):
    check_against_expanded_reference(family, rates, steps=4)


def block_entries(spec, batch, steps):
    """A WINDOW_BLOCK_ENTRIES under which the layer of ``spec`` runs its
    window products over blocks of ``steps`` steps."""
    return steps * batch * max(len(rows) for rows in spec.compact[1])


class _LoggedWindowArrays:
    """``cells.window_array``, logging the role and shape of each array."""

    def __init__(self, window_array):
        self.window_array, self.log = window_array, []

    def __call__(self, workspace, role, shape, dtype=np.float64):
        self.log.append((role, shape))
        return self.window_array(workspace, role, shape, dtype)

    def widths(self, role):
        return [shape[1] for logged, shape in self.log if logged == role]


@pytest.mark.parametrize("family, rates", COMPACT_CASES + NON_UNIFORM)
def test_multi_block_layer_matches_expanded_reference(monkeypatch, family, rates):
    # a 7-step window in blocks of 3, 3 and 1 steps: the forward projects
    # each block before its steps, the backward runs each block's products
    # once it has finished the block's steps
    spec = C.CellSpec(family, 3, 5, rates)
    monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES", block_entries(spec, 3, 3))
    logged = _LoggedWindowArrays(C.window_array)
    monkeypatch.setattr(C, "window_array", logged)
    check_against_expanded_reference(family, rates, steps=7)
    assert logged.widths("projection") == [9, 9, 3]
    assert logged.widths("dax") == [3, 9, 9]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
def test_multi_block_gradcheck(monkeypatch, family, rate):
    # the analytic gradients of a 7-step window in blocks of 3, 3 and 1
    # steps against central differences
    spec = layer_specs(family, 1, 4, 4, rate)[0]
    monkeypatch.setattr(G, "STEPS", 7)
    monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES", block_entries(spec, G.BATCH, 3))
    report = G.run_gradcheck(family, 4, 4, rate, seed=31)
    assert report.passed, report


@pytest.mark.parametrize("family", FAMILIES)
def test_multi_block_evaluation_window_matches_one_block(monkeypatch, family):
    # in a loop each evaluation layer writes its h over its input, the h of
    # the layer below: a block's input projection reads its columns before
    # the block's steps overwrite them, so blocks of 3, 3 and 1 steps give
    # the one-block window's outputs and states bit for bit
    d, steps, batch, layers = 5, 7, 3, 3
    specs = layer_specs(family, layers, d, d, 0.5)
    pools = [R.build_pool(spec.plan, seed=32 + ell) for ell, spec in enumerate(specs)]
    states = [rand_state(family, d, batch, 40 + ell) for ell in range(layers)]
    x = np.random.default_rng(33).uniform(-1, 1, (d, steps * batch))
    results = []
    for entries in (C.WINDOW_BLOCK_ENTRIES, block_entries(specs[0], batch, 3)):
        monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES", entries)
        with T.Workspace.loop() as ws:
            ws.begin()
            h, new_states, _ = C.stack_forward(specs, pools, x.copy(), states)
            results.append([h.copy()] + [a for st in new_states for a in (st.h, st.c)
                                         if a is not None])
    assert all(np.array_equal(a, b) for a, b in zip(*results))


def _memory(arrays):
    """Where each array lies: its data pointer, shape and strides."""
    return [(a.__array_interface__["data"][0], a.shape, a.strides) for a in arrays]


@pytest.mark.parametrize("family", FAMILIES)
def test_backward_rule_takes_the_forward_rules_step_arrays(monkeypatch, family):
    # the BPTT reads each step's arrays where its forward rule wrote them:
    # step t's backward rule gets the very views its forward rule was given
    forward, backward = C._RULES[family]
    given = {"forward": [], "backward": []}

    def logged_forward(gx, s, *step):
        given["forward"].append(_memory(step))
        forward(gx, s, *step)

    def logged_backward(dh, dc, s, dx, dg, *step):
        given["backward"].append(_memory(step))
        return backward(dh, dc, s, dx, dg, *step)

    monkeypatch.setitem(C._RULES, family, (logged_forward, logged_backward))
    spec, pool = make_cell(family, 4, 3, 0.5, seed=50)
    monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES", block_entries(spec, 2, 2))
    steps, batch = 5, 2
    x = np.random.default_rng(51).uniform(-1, 1, (3, steps * batch))
    with T.Workspace.loop() as ws:
        ws.begin()
        h, _, layer_backward = C.layer_forward(spec, pool, x, rand_state(family, 4, batch, 52))
        Tr.zero_grads(pool.trainables())
        layer_backward(np.ones_like(h), lambda cols: x[:, cols])
    assert len(given["forward"]) == steps
    assert given["backward"] == given["forward"][::-1]


def test_lstm_backward_reads_the_forwards_cell_state_bit_for_bit(monkeypatch):
    # a training window keeps c only at each block's start: the backward
    # makes each block's c again, and every step's backward rule reads the
    # very c_prev and c its forward rule wrote, over blocks of 3, 3 and 1
    # steps in a loop's workspace, where layer 1 writes its c over layer 0's
    forward, backward = C._RULES["lstm"]
    given = {"forward": [], "backward": []}
    where = []

    def logged_forward(gx, s, h_prev, h, gh, c_prev, c, *rest):
        forward(gx, s, h_prev, h, gh, c_prev, c, *rest)
        given["forward"].append((c_prev.copy(), c.copy()))
        where.append(c.__array_interface__["data"][0])

    def logged_backward(dh, dc, s, dx, dg, h_prev, h, gh, c_prev, c, *rest):
        given["backward"].append((c_prev.copy(), c.copy()))
        return backward(dh, dc, s, dx, dg, h_prev, h, gh, c_prev, c, *rest)

    monkeypatch.setitem(C._RULES, "lstm", (logged_forward, logged_backward))
    d, steps, batch, layers = 4, 7, 2, 2
    specs = layer_specs("lstm", layers, 3, d, 0.5)
    pools = [R.build_pool(spec.plan, seed=56 + ell) for ell, spec in enumerate(specs)]
    monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES", block_entries(specs[0], batch, 3))
    states = [rand_state("lstm", d, batch, 58 + ell) for ell in range(layers)]
    x = np.random.default_rng(60).uniform(-1, 1, (3, steps * batch))
    with T.Workspace.loop() as ws:
        ws.begin()
        h, _, stack_backward = C.stack_forward(specs, pools, x, states, train=True)
        for pool in pools:
            Tr.zero_grads(pool.trainables())
        stack_backward(np.ones_like(h), lambda cols: x[:, cols])
    assert len(given["forward"]) == len(given["backward"]) == layers * steps
    assert where[:steps] == where[steps:]
    # the forward runs layer 0 then 1, the backward layer 1 then 0
    for ell in range(layers):
        fwd = given["forward"][ell * steps:(ell + 1) * steps]
        bwd = given["backward"][(layers - 1 - ell) * steps:(layers - ell) * steps][::-1]
        for (fc_prev, fc), (bc_prev, bc) in zip(fwd, bwd):
            assert np.array_equal(fc_prev, bc_prev) and np.array_equal(fc, bc)


@pytest.mark.parametrize("family", FAMILIES)
def test_training_and_evaluation_windows_agree_bit_for_bit(monkeypatch, family):
    # a training and an evaluation window over blocks of 3, 3 and 1 steps
    # in a loop's workspace: an LSTM keeps c at block starts either way,
    # running a block on all of its c or on two in turn, with the same ops
    d, steps, batch, layers = 4, 7, 2, 2
    specs = layer_specs(family, layers, 3, d, 0.5)
    pools = [R.build_pool(spec.plan, seed=64 + ell) for ell, spec in enumerate(specs)]
    monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES", block_entries(specs[0], batch, 3))
    states = [rand_state(family, d, batch, 66 + ell) for ell in range(layers)]
    x = np.random.default_rng(68).uniform(-1, 1, (3, steps * batch))
    runs = []
    with T.Workspace.loop() as ws:
        for train in (True, False):
            ws.begin()
            h, final, _ = C.stack_forward(specs, pools, x.copy(), states, train=train)
            runs.append([h.copy()] + [a for state in final for a in (state.h, state.c)
                                      if a is not None])
    trained, evaluated = runs
    assert len(trained) == len(evaluated) == 1 + layers * (2 if family == "lstm" else 1)
    for a, b in zip(trained, evaluated):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("family", FAMILIES)
def test_ordinary_weights_check_no_hidden_projection(monkeypatch, family):
    # |h_t| <= max(1, |h_0|) bounds every step's hidden projection, so a
    # window whose weights and state bound it finitely checks only its
    # blocks' input projections, here two blocks of 2 and 1 steps
    checked = []
    monkeypatch.setattr(C, "_check_finite", lambda arr, spec, what: checked.append(what))
    spec, pool = make_cell(family, 4, 3, 0.5, seed=61)
    monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES", block_entries(spec, 2, 2))
    x = np.random.default_rng(62).uniform(-1, 1, (3, 3 * 2))
    for train in (True, False):
        C.layer_forward(spec, pool, x, rand_state(family, 4, 2, 63), train=train)
    assert checked == ["input projection"] * 4


def test_lstm_evaluation_keeps_its_sigmoid_apart_from_the_hidden_scratch(monkeypatch):
    # an evaluation window's sigmoid block is a kept step array of its own,
    # in ("sig", 0), not rows of the ("gh", -1) scratch
    forward, backward = C._RULES["lstm"]
    sigs = []

    def logged_forward(*args):
        sigs.append(args[7])
        return forward(*args)

    monkeypatch.setitem(C._RULES, "lstm", (logged_forward, backward))
    spec, pool = make_cell("lstm", 4, 3, 0.5, seed=53)
    x = np.random.default_rng(54).uniform(-1, 1, (3, 3 * 2))
    with T.Workspace.loop() as ws:
        ws.begin()
        C.layer_forward(spec, pool, x, rand_state("lstm", 4, 2, 55), train=False)
        scratch = ws.array(("gh", -1), (ws.nbytes()[("gh", -1)],), np.uint8)
    assert len(sigs) == 3
    assert not any(np.shares_memory(sig, scratch) for sig in sigs)


@pytest.mark.parametrize("family", FAMILIES)
def test_state_purity(family):
    spec, pool = make_cell(family, 4, 4, 0.5, seed=20)
    state = rand_state(family, 4, 2, 21)
    h_before = state.h.copy()
    _, out, _ = C.layer_forward(spec, pool, np.ones((4, 2)), state)
    assert out is not state and out.h is not state.h
    assert np.array_equal(state.h, h_before)


class _LoggedMatmuls(np.ndarray):
    """An array whose ufuncs run on plain arrays, logging each matmul's
    operand shapes into ``log``; results are logged arrays again."""

    log = None

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        inputs = [np.asarray(a) for a in inputs]
        if ufunc is np.matmul:
            _LoggedMatmuls.log.append(tuple(a.shape for a in inputs))
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out is not None:
            return out[0]
        return result.view(_LoggedMatmuls) if isinstance(result, np.ndarray) else result


class _NumpyLoggingBuffers:
    """numpy, but the buffers ``empty`` and ``zeros`` make log their matmuls."""

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        return np.empty(*args, **kwargs).view(_LoggedMatmuls)

    def zeros(self, *args, **kwargs):
        return np.zeros(*args, **kwargs).view(_LoggedMatmuls)


@pytest.mark.parametrize("family, rates, compact", [
    ("gru", ((0.4, 0.2, 0.6), (0.8, 0.8, 0.2)), 13),
    ("lstm", ((0.4, 0.2, 0.6, 1.0), (0.8, 0.8, 0.2, 0.0)), 20),
    ("lstm", ((0.5,) * 4, (0.5,) * 4), 11),
    ("rnn", ((0.0,), (0.4,)), 5)])
def test_every_layer_matmul_runs_over_compact_rows(monkeypatch, family, rates, compact):
    # the forward and backward GEMMs of a window: none has the n*d gate
    # rows, and under a uniform rate matrix each runs over the distinct rows;
    # otherwise a row shared past s_min is multiplied once per gate.  The
    # GRU's backward runs each step's hidden projection again.  The input
    # projection and the dW and dx products run once per block of steps,
    # here blocks of 2 and 1 steps
    d, k, steps, batch = 5, 3, 3, 2
    spec = C.CellSpec(family, k, d, rates)
    pool = R.build_pool(spec.plan, seed=4)
    monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES", block_entries(spec, batch, 2))
    Tr.zero_grads(pool.trainables())
    log = []
    monkeypatch.setattr(_LoggedMatmuls, "log", log)
    # the layer's own buffers and the window arrays of the workspace
    monkeypatch.setattr(C, "np", _NumpyLoggingBuffers())
    monkeypatch.setattr(T, "np", _NumpyLoggingBuffers())
    state = rand_state(family, d, batch, 5)
    rng = np.random.default_rng(6)
    x, g = rng.uniform(-1, 1, (k, steps * batch)), rng.uniform(-1, 1, (d, steps * batch))
    x = x.view(_LoggedMatmuls)
    _, _, backward = C.layer_forward(spec, pool, x, state)
    backward(g, lambda cols: x[:, cols])
    dx, dh = map(len, spec.compact[1])
    assert dx == dh == compact
    if len({r for row in rates for r in row}) == 1:
        assert dx == len(distinct_rows(spec.plan, 0)) and dh == len(distinct_rows(spec.plan, 1))
    rebuilt = steps if family == "gru" else 0
    expect = [((dh, d), (d, batch))] * (steps + rebuilt) + [((d, dh), (dh, batch))] * (steps - 1)
    for width in (2 * batch, batch):
        expect += [((dx, k), (k, width)),
                   ((dx, width), (width, k)), ((dh, width), (width, d)), ((k, dx), (dx, width))]
    assert sorted(log) == sorted(expect)


class TestNonFinite:
    def make_rnn(self):
        return make_cell("rnn", 3, 3, 0.0, zero=True)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_overflowing_input_projection_raises(self):
        spec, pool = self.make_rnn()
        pool.W.data[spec.plan.view_rows(0, 0), :2] = [10.0, -10.0]
        x = np.full((3, 2), 1e308)
        with pytest.raises(NumericError, match="input projection"):
            C.layer_forward(spec, pool, x, rand_state("rnn", 3, 2, 40))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_overflowing_hidden_projection_raises(self):
        spec, pool = self.make_rnn()
        pool.W.data[spec.plan.view_rows(1, 0), :2] = [10.0, -10.0]
        state = C.CellState(np.full((3, 2), 1e308))
        with pytest.raises(NumericError, match="hidden projection at step 0"):
            C.layer_forward(spec, pool, np.zeros((3, 2)), state)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_nan_initial_hidden_state_raises(self, family):
        # a NaN in h_0 makes the window's bound NaN, so every step is checked
        spec, pool = make_cell(family, 4, 3, 0.5, seed=69)
        state = rand_state(family, 4, 2, 70)
        state.h[1, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite hidden projection at step 0"):
            C.layer_forward(spec, pool, np.zeros((3, 2)), state)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_gradient_raises(self):
        # a gradient that overflows in the backward pass stops the step
        spec, pool = self.make_rnn()
        x = np.full((3, 4), 10.0)
        Tr.zero_grads(pool.trainables())
        _, _, backward = C.stack_forward([spec], [pool], x, [C.zero_state(spec, 2)],
                                         train=True)
        backward(np.full((3, 4), 1e307), lambda cols: x[:, cols])
        with pytest.raises(NumericError, match="gradient"):
            Tr.clip_gradients(pool.trainables(), 0.25)


class TestStack:
    def make_stack(self, families, d, k, rate, seed=0):
        specs, pools = [], []
        for ell, fam in enumerate(families):
            spec = layer_specs(fam, 1, k if ell == 0 else d, d, rate)[0]
            specs.append(spec)
            pools.append(R.build_pool(spec.plan, seed=seed + ell))
        return specs, pools

    def test_single_layer_matches_repeated_steps(self):
        specs, pools = self.make_stack(["lstm"], 5, 3, 0.5, seed=30)
        rng = np.random.default_rng(31)
        xs = [rng.uniform(-1, 1, (3, 2)) for _ in range(4)]
        window = np.concatenate(xs, axis=1)
        state = C.zero_state(specs[0], 2)
        feats, _, _ = C.stack_forward(specs, pools, window, [state], dropout_p=0.0)
        manual = C.zero_state(specs[0], 2)
        for t, x in enumerate(xs):
            _, manual, _ = C.layer_forward(specs[0], pools[0], x, manual)
            assert np.array_equal(feats[:, 2 * t:2 * (t + 1)], manual.h)

    def test_three_layer_output_shape(self):
        # reference setup: 3 layers of 200 hidden, batch 80, window 35
        specs, pools = self.make_stack(["gru"] * 3, 200, 200, 0.5, seed=32)
        rng = np.random.default_rng(33)
        x = np.concatenate([rng.uniform(-1, 1, (200, 80)) for _ in range(35)], axis=1)
        states = [C.zero_state(s, 80) for s in specs]
        feats, new_states, _ = C.stack_forward(specs, pools, x, states)
        assert feats.shape == (200, 35 * 80)
        assert all(ns.h.shape == (200, 80) for ns in new_states)

    def test_dropout_train_vs_eval(self):
        specs, pools = self.make_stack(["rnn"], 6, 6, 0.0, seed=34)
        rng_data = np.random.default_rng(35)
        x = np.concatenate([rng_data.uniform(-1, 1, (6, 4)) for _ in range(3)], axis=1)
        states = [C.zero_state(specs[0], 4)]
        blocks = [slice(4 * t, 4 * (t + 1)) for t in range(3)]
        ev, _, _ = C.stack_forward(specs, pools, x, states, dropout_p=0.2, train=False)
        tr, _, _ = C.stack_forward(specs, pools, x, states, dropout_p=0.2,
                                rng=np.random.default_rng(36), train=True)
        assert not any(np.array_equal(ev[:, b], tr[:, b]) for b in blocks)
        ev2, _, _ = C.stack_forward(specs, pools, x, states, dropout_p=0.2, train=False)
        assert all(np.array_equal(ev[:, b], ev2[:, b]) for b in blocks)

    def test_evaluation_window_keeps_no_step_arrays(self):
        # an evaluation window holds the gathered weights, the input
        # projection and h_0 ... h_T, not T steps of the arrays a backward
        # pass would read (for the LSTM c_prev, g and tanh(c), d x B each)
        d, steps, batch = 32, 100, 8
        specs, pools = self.make_stack(["lstm"], d, d, 0.5, seed=38)
        x = np.random.default_rng(39).uniform(-1, 1, (d, steps * batch))
        states = [C.zero_state(specs[0], batch)]
        rows = len(specs[0].compact[1][0])
        window = 8 * (2 * rows * d + rows * steps * batch + d * (steps + 1) * batch)
        step_arrays = 8 * 3 * d * batch
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            C.stack_forward(specs, pools, x, states, train=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < window + steps // 4 * step_arrays

    def test_stale_layer_backward_raises(self):
        # a loop's next window overwrites the arrays a layer's backward pass
        # reads: the pass raises before it adds into any gradient
        specs, pools = self.make_stack(["lstm", "gru"], 5, 4, 0.5, seed=40)
        x = np.random.default_rng(41).uniform(-1, 1, (4, 6))
        states = [C.zero_state(spec, 3) for spec in specs]
        for pool in pools:
            Tr.zero_grads(pool.trainables())
        with T.Workspace.loop() as ws:
            ws.begin()
            _, _, old = C.stack_forward(specs, pools, x, states, train=True)
            ws.begin()
            _, _, new = C.stack_forward(specs, pools, x, states, train=True)
        with pytest.raises(StateError):
            old(np.ones((5, 6)), lambda cols: x[:, cols])
        assert not any(p.grad.any() for pool in pools for p in pool.trainables())
        new(np.ones((5, 6)), lambda cols: x[:, cols])
        assert all(p.grad.any() for pool in pools for p in pool.trainables())

    def test_ragged_window_rejected(self):
        specs, pools = self.make_stack(["rnn"], 3, 2, 0.5, seed=37)
        x = np.zeros((2, 3))   # one and a half steps of batch 2
        with pytest.raises(ShapeError):
            C.stack_forward(specs, pools, x, [C.zero_state(specs[0], 2)])

    def test_state_size_mismatch(self):
        spec, pool = make_cell("gru", 3, 2, 0.5)
        with pytest.raises(ShapeError):
            C.layer_forward(spec, pool, np.zeros((2, 2)),
                            C.CellState(np.zeros((4, 2))))

    def test_size_chain_mismatch(self):
        specs = [layer_specs("rnn", 1, 4, 6, 0.5)[0], layer_specs("rnn", 1, 5, 6, 0.5)[0]]
        pools = [R.build_pool(s.plan, 0) for s in specs]
        with pytest.raises(ConfigError):
            C.stack_forward(specs, pools, [np.zeros((4, 2))],
                            [C.zero_state(s, 2) for s in specs])


def dense_logits(z, backward):
    """A dense logits block z as a ``make_head`` head's operands: identity
    decoder, zero bias, zeroed gradients."""
    vocab = len(z)
    head = C.make_head(vocab, vocab, vocab, tied=True)
    head.embedding.data[...] = np.eye(vocab)
    head.bias.data[...] = 0.0
    Tr.zero_grads(head.trainables())
    return C.lm_head_forward(head, z, None, 0.0, backward)


class TestLMHead:
    def test_tied_trainable_count(self):
        head = C.make_head(10_000, 200, 200, tied=True)
        assert trainable_count(head) == 10_000 * 200 + 10_000 == 2_010_000
        assert head_shapes_count(10_000, 200, 200, True) == 2_010_000

    def test_untied_trainable_count(self):
        # the decoder multiplies the stack's features, so it is hidden wide
        head = C.make_head(10_000, 100, 200, tied=False)
        assert head.decoder.data.shape == (10_000, 200)
        assert trainable_count(head) == 10_000 * 100 + 10_000 + 10_000 * 200 == 3_010_000
        assert head_shapes_count(10_000, 100, 200, False) == 3_010_000

    def test_tied_head_has_single_storage(self):
        head = C.make_head(50, 8, 8, tied=True)
        assert head.decoder is None
        assert len(head.trainables()) == 2

    def test_zero_features_give_bias(self):
        # at zero features every logits column is the bias: the loss and its
        # bias gradient equal those of a dense block of bias columns, bit for bit
        head = C.make_head(12, 6, 6, tied=True)
        head.bias.data[:] = np.arange(12.0)
        targets = np.array([0, 5, 11, 3])
        Tr.zero_grads(head.trainables())
        loss = Tr.cross_entropy_loss(
            C.lm_head_forward(head, np.zeros((6, 4)), None, 0.0, lambda g: None), targets)
        bias_cols = []
        dense = dense_logits(np.tile(np.arange(12.0)[:, None], (1, 4)), bias_cols.append)
        expect = Tr.cross_entropy_loss(dense, targets)
        assert loss.item() == expect.item()
        assert np.array_equal(head.bias.grad, bias_cols[0].sum(axis=1))

    def test_tying_size_mismatch(self):
        with pytest.raises(ConfigError):
            C.make_head(50, 8, 16, tied=True)
        head = C.make_head(50, 8, 8, tied=True)
        with pytest.raises(ConfigError):
            C.lm_head_forward(head, np.zeros((16, 2)), None, 0.0)

    def test_embedding_lookup_shape(self):
        head = C.make_head(30, 8, 8, tied=True)
        out = C.embed_tokens(head, np.array([3, 1, 4]), "dropped")
        assert out.shape == (8, 3)
        assert np.array_equal(out[:, 0], head.embedding.data[3])

    def test_window_embedding_is_step_major(self):
        head = C.make_head(30, 8, 8, tied=True)
        ids = np.array([[3, 1], [4, 1], [5, 9]])   # 3 steps of batch 2
        out = C.embed_tokens(head, ids, "dropped")
        assert out.shape == (8, 6)
        for t, b in np.ndindex(ids.shape):
            assert np.array_equal(out[:, 2 * t + b], head.embedding.data[ids[t, b]])

    def test_embedding_scatter_sums_repeats_in_window_order(self):
        # bit for bit the scatter into a zeroed array that is then added
        head = C.make_head(30, 8, 8, tied=True)
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 5, (6, 4))   # few types, so most ids repeat
        g = rng.standard_normal((8, 24))
        head.embedding.grad = rng.standard_normal((30, 8))
        acc = np.zeros((30, 8))
        np.add.at(acc, ids.reshape(-1), g.T)
        expect = head.embedding.grad + acc
        C.embed_backward(head, ids, g)
        assert np.array_equal(head.embedding.grad, expect)

    def test_head_node_matches_matmul_plus_bias(self, monkeypatch):
        # the fused head and loss, in chunks of one step, against a dense
        # block w @ f + b fed to the loss and the matmul and bias gradients
        monkeypatch.setattr(Tr, "CE_CHUNK_ENTRIES", 12)
        head = C.make_head(12, 6, 6, tied=False, seed=3)
        head.bias.data[:] = np.random.default_rng(4).uniform(-1, 1, 12)
        rng = np.random.default_rng(5)
        feats = rng.uniform(-1, 1, (6, 5))
        targets = rng.integers(0, 12, (5, 1))
        dfeats, dz = [], []
        Tr.zero_grads(head.trainables())
        loss = Tr.cross_entropy_loss(C.lm_head_forward(head, feats, None, 0.0, dfeats.append),
                                     targets)
        w, b = head.decoder.data, head.bias.data
        dense = dense_logits(w @ feats + b[:, None], dz.append)
        expect = Tr.cross_entropy_loss(dense, targets)
        assert abs(loss.item() - expect.item()) < 1e-12
        (dz,) = dz
        refs = (dz @ feats.T, dz.sum(axis=1), w.T @ dz)
        for got, ref in zip((head.decoder.grad, head.bias.grad, dfeats[0]), refs):
            assert np.abs(got - ref).max() < 1e-12


class TestHeadLayout:
    """The head as one C-contiguous (features + 1) x vocab matrix [Wᵀ; b],
    the checkpoint-shaped Parameters as views of it."""

    @pytest.mark.parametrize("tied", [True, False])
    def test_out_is_decoder_transposed_over_bias(self, tied):
        vocab, emb, hidden = 30, 6, 6 if tied else 9
        head = C.make_head(vocab, emb, hidden, tied=tied, seed=4)
        out = head.out.data
        assert out.flags.c_contiguous and out.shape == (hidden + 1, vocab)
        weight = head.embedding if tied else head.decoder
        assert weight.data.shape == (vocab, hidden) and np.array_equal(out[:hidden], weight.data.T)
        assert np.shares_memory(out[:hidden], weight.data)
        assert head.bias.data.shape == (vocab,) and np.shares_memory(out[hidden], head.bias.data)
        if not tied:
            assert not np.shares_memory(out, head.embedding.data)
            assert head.embedding.data.T.flags.c_contiguous
        # the same draws as a (vocab, emb) embedding and (vocab, hidden) decoder
        rng = np.random.default_rng(4)
        scale = 1.0 / np.sqrt(emb)
        assert np.array_equal(head.embedding.data, rng.uniform(-scale, scale, (vocab, emb)))
        if not tied:
            scale = 1.0 / np.sqrt(hidden)
            assert np.array_equal(head.decoder.data, rng.uniform(-scale, scale, (vocab, hidden)))
        assert not head.bias.data.any()

    @pytest.mark.parametrize("tied", [True, False])
    def test_gradients_are_views_of_the_same_layout(self, tied):
        head = C.make_head(30, 6, 6, tied=tied)
        assert head.out.grad is None
        Tr.zero_grads(head.trainables())
        grad = head.out.grad
        assert grad.shape == head.out.data.shape and not grad.any()
        assert np.shares_memory(grad[6], head.bias.grad)
        weight = head.embedding if tied else head.decoder
        assert np.shares_memory(grad[:6], weight.grad) and weight.grad.shape == (30, 6)
        grad += 1.0
        Tr.zero_grads(head.trainables())
        assert not grad.any()

    @pytest.mark.parametrize("tied", [True, False])
    def test_embed_tokens_is_the_row_gather(self, tied):
        head = C.make_head(30, 6, 6 if tied else 9, tied=tied, seed=5)
        ids = np.random.default_rng(5).integers(0, 30, (4, 3))
        table = np.ascontiguousarray(head.embedding.data)   # (vocab, emb), row-major
        got = C.embed_tokens(head, ids, "dropped")
        assert np.array_equal(got, table[ids.reshape(-1)].T)

    @pytest.mark.parametrize("tied", [True, False])
    def test_embed_backward_is_add_at(self, tied):
        head = C.make_head(30, 6, 6 if tied else 9, tied=tied, seed=6)
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 7, (5, 4))
        g = rng.standard_normal((6, 20))
        Tr.zero_grads(head.trainables())
        C.embed_backward(head, ids, g)
        expect = np.zeros((30, 6))
        np.add.at(expect, ids.reshape(-1), g.T)
        assert np.array_equal(head.embedding.grad, expect)

    def test_tied_gradient_is_head_part_plus_scatter_part(self):
        head = C.make_head(30, 6, 6, tied=True, seed=7)
        rng = np.random.default_rng(7)
        head.bias.data[:] = rng.uniform(-1, 1, 30)
        ids, targets = rng.integers(0, 30, (4, 3)), rng.integers(0, 30, (4, 3))
        feats = C.embed_tokens(head, ids, "dropped")
        sink = []
        Tr.zero_grads(head.trainables())
        Tr.cross_entropy_loss(C.lm_head_forward(head, feats, None, 0.0, sink.append), targets)
        head_part = head.embedding.grad.copy()
        Tr.zero_grads(head.trainables())
        Tr.cross_entropy_loss(C.lm_head_forward(
            head, feats, None, 0.0, lambda g: C.embed_backward(head, ids, g)), targets)
        scatter = np.zeros((30, 6))
        np.add.at(scatter, ids.reshape(-1), sink[0].T)
        assert np.array_equal(head.embedding.grad, head_part + scatter)


def test_layer_backward_frees_the_dropped_out_input_first():
    # without a workspace, the layer's backward pass drops the dropped-out
    # input it made again before it computes the input's gradient, which
    # the stack drops out in place: beside dax it holds one (k x T*B) array
    # at a time, with the dW products and the steps' temporaries well
    # under two more (holding the dropped-out input, the gradient and two
    # dropout temporaries at once took four)
    d = k = 64
    steps, batch = 10, 32
    spec, pool = make_cell("lstm", d, k, 0.5, seed=42)
    Tr.zero_grads(pool.trainables())
    rng = np.random.default_rng(43)
    x, g = rng.uniform(-1, 1, (k, steps * batch)), rng.uniform(-1, 1, (d, steps * batch))
    _, _, backward = C.stack_forward([spec], [pool], x,
                                     [rand_state("lstm", d, batch, 44)], dropout_p=0.5,
                                     rng=rng, train=True)
    dax = 8 * len(spec.compact[1][0]) * steps * batch
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        backward(g, lambda cols: x[:, cols])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < dax + 3 * x.nbytes


def test_window_dropout_masks_follow_per_step_draws():
    sizes, steps, batch = [3, 5], 4, 2
    masks = C.dropout_masks(sizes, steps, batch, 0.3, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    for t in range(steps):
        for k, mask in zip(sizes, masks):
            expect = dropout_mask((k, batch), 0.3, rng)
            assert mask.dtype == bool and mask.shape == (k, steps * batch)
            assert np.array_equal(mask[:, t * batch:(t + 1) * batch], expect)


def test_spec_family_validation():
    with pytest.raises(ValidationError):
        layer_specs("tree", 1, 4, 4, 0.5)[0]
    with pytest.raises(ValidationError):
        C.CellSpec("lstm", 4, 4, ((0.5,), (0.5,)))
