import numpy as np
import pytest

from rrnn import cells as C
from rrnn import restriction as R
from rrnn import tensor as T
from rrnn import training as Tr
from rrnn.errors import ConfigError, NumericError, ShapeError, StateError, ValidationError
from rrnn.tensor import Tensor

from oracles import assemble_dense_weights, dense_cell_step

FAMILIES = ["rnn", "gru", "lstm"]


def make_cell(family, d, k, rate, seed=0, init=None):
    spec = C.CellSpec.uniform(family, k, d, rate)
    plan = spec.make_plan()
    pool = R.build_pool(plan, init or R.InitSpec(), seed=seed)
    return spec, plan, pool


def rand_state(family, d, batch, seed):
    rng = np.random.default_rng(seed)
    h = Tensor(rng.uniform(-1, 1, (d, batch)))
    c = Tensor(rng.uniform(-1, 1, (d, batch))) if family == "lstm" else None
    return C.CellState(h, c)


class TestRNNStep:
    def test_zero_pool_gives_zero(self):
        spec, plan, pool = make_cell("rnn", 4, 4, 0.5, init=R.InitSpec(kind="zeros"))
        state = rand_state("rnn", 4, 3, 1)
        _, out = C.layer_forward(spec, pool, plan, Tensor(np.ones((4, 3))), state)
        assert not out.h.data.any()

    def test_full_sharing_doubles_input(self):
        # r=1: W^r_xh == W^r_hh, so x = h = v gives tanh(W(2v) + 2b)
        spec, plan, pool = make_cell("rnn", 5, 5, 1.0, seed=2)
        v = np.random.default_rng(3).uniform(-1, 1, (5, 2))
        _, out = C.layer_forward(spec, pool, plan, Tensor(v), C.CellState(Tensor(v)))
        w = pool.W.data[:5, :5]
        b = pool.b.data[:5]
        expect = np.tanh(w @ (2 * v) + 2 * b[:, None])
        assert np.abs(out.h.data - expect).max() < 1e-12

    def test_small_instance_vs_dense_oracle(self):
        spec, plan, pool = make_cell("rnn", 2, 2, 0.5, seed=4)
        x = Tensor(np.array([[1.0], [0.0]]))
        h = Tensor(np.array([[0.0], [1.0]]))
        _, out = C.layer_forward(spec, pool, plan, x, C.CellState(h))
        gates = assemble_dense_weights(pool.W.data, pool.b.data, plan)
        expect, _ = dense_cell_step("rnn", gates, x.data, h.data)
        assert np.abs(out.h.data - expect).max() < 1e-12

    def test_shape_error(self):
        spec, plan, pool = make_cell("rnn", 4, 4, 0.5)
        with pytest.raises(ShapeError):
            C.layer_forward(spec, pool, plan, Tensor(np.ones((5, 3))), rand_state("rnn", 4, 3, 1))


class TestLSTMStep:
    def test_zero_pool_halves_memory(self):
        spec, plan, pool = make_cell("lstm", 4, 4, 0.5, init=R.InitSpec(kind="zeros"))
        c0 = np.random.default_rng(5).uniform(-1, 1, (4, 3))
        state = C.CellState(Tensor(np.zeros((4, 3))), Tensor(c0))
        _, out = C.layer_forward(spec, pool, plan, Tensor(np.zeros((4, 3))), state)
        assert np.allclose(out.c.data, 0.5 * c0, atol=1e-12)
        assert np.allclose(out.h.data, 0.5 * np.tanh(0.5 * c0), atol=1e-12)

    def test_saturated_gates_carry_memory(self):
        # f-gate bias +30, i-gate bias -30 (r=0 keeps bias rows disjoint)
        spec, plan, pool = make_cell("lstm", 4, 4, 0.0, init=R.InitSpec(kind="zeros"))
        pool.b.data[plan.view_rows(0, 0)] = -30.0  # input gate shut
        pool.b.data[plan.view_rows(0, 1)] = +30.0  # forget gate open
        c0 = np.random.default_rng(6).uniform(-1, 1, (4, 2))
        state = C.CellState(Tensor(np.zeros((4, 2))), Tensor(c0))
        _, out = C.layer_forward(spec, pool, plan, Tensor(np.zeros((4, 2))), state)
        assert np.abs(out.c.data - c0).max() < 1e-9

    def test_random_instance_vs_dense_oracle(self):
        spec, plan, pool = make_cell("lstm", 5, 3, 0.5, seed=7)
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        state = rand_state("lstm", 5, 4, 9)
        _, out = C.layer_forward(spec, pool, plan, x, state)
        gates = assemble_dense_weights(pool.W.data, pool.b.data, plan)
        eh, ec = dense_cell_step("lstm", gates, x.data, state.h.data, state.c.data)
        assert np.abs(out.h.data - eh).max() < 1e-12
        assert np.abs(out.c.data - ec).max() < 1e-12

    def test_missing_cell_state(self):
        spec, plan, pool = make_cell("lstm", 4, 4, 0.5)
        with pytest.raises(StateError):
            C.layer_forward(spec, pool, plan, Tensor(np.zeros((4, 2))),
                            C.CellState(Tensor(np.zeros((4, 2)))))


class TestGRUStep:
    def test_zero_pool_halves_hidden(self):
        spec, plan, pool = make_cell("gru", 4, 4, 0.5, init=R.InitSpec(kind="zeros"))
        h0 = np.random.default_rng(10).uniform(-1, 1, (4, 3))
        _, out = C.layer_forward(spec, pool, plan, Tensor(np.zeros((4, 3))),
                                 C.CellState(Tensor(h0)))
        assert np.allclose(out.h.data, 0.5 * h0, atol=1e-12)

    def test_saturated_update_gate_freezes_state(self):
        spec, plan, pool = make_cell("gru", 4, 4, 0.0, init=R.InitSpec(kind="zeros"))
        pool.b.data[plan.view_rows(0, 1)] = +30.0  # z gate saturated high
        h0 = np.random.default_rng(11).uniform(-1, 1, (4, 2))
        _, out = C.layer_forward(spec, pool, plan, Tensor(np.zeros((4, 2))),
                                 C.CellState(Tensor(h0)))
        assert np.abs(out.h.data - h0).max() < 1e-9

    def test_random_instance_vs_dense_oracle(self):
        spec, plan, pool = make_cell("gru", 6, 4, 0.5, seed=12)
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, (4, 3)))
        state = rand_state("gru", 6, 3, 14)
        _, out = C.layer_forward(spec, pool, plan, x, state)
        gates = assemble_dense_weights(pool.W.data, pool.b.data, plan)
        eh, _ = dense_cell_step("gru", gates, x.data, state.h.data)
        assert np.abs(out.h.data - eh).max() < 1e-12

    def test_reset_gate_multiplies_hidden_bias(self):
        # bias of the candidate's hidden half sits inside the reset product
        spec, plan, pool = make_cell("gru", 3, 3, 0.0, init=R.InitSpec(kind="zeros"))
        pool.b.data[plan.view_rows(1, 2)] = 2.0   # b_hn
        pool.b.data[plan.view_rows(0, 0)] = -30.0  # r gate ~ 0 via input bias
        _, out = C.layer_forward(spec, pool, plan, Tensor(np.zeros((3, 2))),
                                 C.CellState(Tensor(np.zeros((3, 2)))))
        # with r ~ 0 the b_hn term is suppressed: n = tanh(0 + r*2) ~ 0
        assert np.abs(out.h.data).max() < 1e-9


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("rate", [0.0, 0.25, 0.5, 1.0])
def test_dense_assembly_equivalence(family, rate):
    rng = np.random.default_rng([FAMILIES.index(family), int(rate * 100)])
    for _ in range(5):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        spec, plan, pool = make_cell(family, d, k, rate, seed=int(rng.integers(10 ** 6)))
        x = Tensor(rng.uniform(-1, 1, (k, 3)))
        state = rand_state(family, d, 3, int(rng.integers(10 ** 6)))
        _, out = C.layer_forward(spec, pool, plan, x, state)
        gates = assemble_dense_weights(pool.W.data, pool.b.data, plan)
        eh, ec = dense_cell_step(family, gates, x.data, state.h.data,
                                 state.c.data if state.c is not None else None)
        assert np.abs(out.h.data - eh).max() < 1e-12
        if ec is not None:
            assert np.abs(out.c.data - ec).max() < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_state_purity(family):
    spec, plan, pool = make_cell(family, 4, 4, 0.5, seed=20)
    state = rand_state(family, 4, 2, 21)
    h_before = state.h.data.copy()
    _, out = C.layer_forward(spec, pool, plan, Tensor(np.ones((4, 2))), state)
    assert out is not state and out.h is not state.h
    assert np.array_equal(state.h.data, h_before)


class TestNonFinite:
    def make_rnn(self):
        return make_cell("rnn", 3, 3, 0.0, init=R.InitSpec(kind="zeros"))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_overflowing_input_projection_raises(self):
        spec, plan, pool = self.make_rnn()
        pool.W.data[plan.input_rows(0), :2] = [10.0, -10.0]
        x = Tensor(np.full((3, 2), 1e308))
        with pytest.raises(NumericError, match="input projection"):
            C.layer_forward(spec, pool, plan, x, rand_state("rnn", 3, 2, 40))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_overflowing_hidden_projection_raises(self):
        spec, plan, pool = self.make_rnn()
        pool.W.data[plan.input_rows(1), :2] = [10.0, -10.0]
        state = C.CellState(Tensor(np.full((3, 2), 1e308)))
        with pytest.raises(NumericError, match="hidden projection at step 0"):
            C.layer_forward(spec, pool, plan, Tensor(np.zeros((3, 2))), state)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_gradient_raises(self):
        spec, plan, pool = self.make_rnn()
        x = Tensor(np.full((3, 4), 10.0))
        feats, _ = C.stack_forward([spec], [pool], [plan], x, [C.zero_state(spec, 2)])
        loss = T.tsum(feats * Tensor(np.full((3, 4), 1e307)))
        with pytest.raises(NumericError, match="gradient"):
            T.backward(loss)


class TestStack:
    def make_stack(self, families, d, k, rate, seed=0):
        specs, plans, pools = [], [], []
        for ell, fam in enumerate(families):
            spec = C.CellSpec.uniform(fam, k if ell == 0 else d, d, rate)
            specs.append(spec)
            plans.append(spec.make_plan())
            pools.append(R.build_pool(plans[-1], seed=seed + ell))
        return specs, plans, pools

    def test_single_layer_matches_repeated_steps(self):
        specs, plans, pools = self.make_stack(["lstm"], 5, 3, 0.5, seed=30)
        rng = np.random.default_rng(31)
        xs = [Tensor(rng.uniform(-1, 1, (3, 2))) for _ in range(4)]
        window = Tensor(np.concatenate([x.data for x in xs], axis=1))
        state = C.zero_state(specs[0], 2)
        feats, _ = C.stack_forward(specs, pools, plans, window, [state], dropout_p=0.0)
        manual = C.zero_state(specs[0], 2)
        for t, x in enumerate(xs):
            _, manual = C.layer_forward(specs[0], pools[0], plans[0], x, manual)
            assert np.array_equal(feats.data[:, 2 * t:2 * (t + 1)], manual.h.data)

    def test_three_layer_output_shape(self):
        # reference setup: 3 layers of 200 hidden, batch 80, window 35
        specs, plans, pools = self.make_stack(["gru"] * 3, 200, 200, 0.5, seed=32)
        rng = np.random.default_rng(33)
        x = Tensor(np.concatenate([rng.uniform(-1, 1, (200, 80)) for _ in range(35)], axis=1))
        states = [C.zero_state(s, 80) for s in specs]
        feats, new_states = C.stack_forward(specs, pools, plans, x, states)
        assert feats.shape == (200, 35 * 80)
        assert all(ns.h.shape == (200, 80) for ns in new_states)

    def test_dropout_train_vs_eval(self):
        specs, plans, pools = self.make_stack(["rnn"], 6, 6, 0.0, seed=34)
        rng_data = np.random.default_rng(35)
        x = Tensor(np.concatenate([rng_data.uniform(-1, 1, (6, 4)) for _ in range(3)], axis=1))
        states = [C.zero_state(specs[0], 4)]
        blocks = [slice(4 * t, 4 * (t + 1)) for t in range(3)]
        ev, _ = C.stack_forward(specs, pools, plans, x, states, dropout_p=0.2, train=False)
        tr, _ = C.stack_forward(specs, pools, plans, x, states, dropout_p=0.2,
                                rng=np.random.default_rng(36), train=True)
        assert not any(np.array_equal(ev.data[:, b], tr.data[:, b]) for b in blocks)
        ev2, _ = C.stack_forward(specs, pools, plans, x, states, dropout_p=0.2, train=False)
        assert all(np.array_equal(ev.data[:, b], ev2.data[:, b]) for b in blocks)

    def test_ragged_window_rejected(self):
        specs, plans, pools = self.make_stack(["rnn"], 3, 2, 0.5, seed=37)
        x = Tensor(np.zeros((2, 3)))   # one and a half steps of batch 2
        with pytest.raises(ShapeError):
            C.stack_forward(specs, pools, plans, x, [C.zero_state(specs[0], 2)])

    def test_state_size_mismatch(self):
        spec, plan, pool = make_cell("gru", 3, 2, 0.5)
        with pytest.raises(ShapeError):
            C.layer_forward(spec, pool, plan, Tensor(np.zeros((2, 2))),
                            C.CellState(Tensor(np.zeros((4, 2)))))

    def test_size_chain_mismatch(self):
        specs = [C.CellSpec.uniform("rnn", 4, 6, 0.5), C.CellSpec.uniform("rnn", 5, 6, 0.5)]
        plans = [s.make_plan() for s in specs]
        pools = [R.build_pool(p) for p in plans]
        with pytest.raises(ConfigError):
            C.stack_forward(specs, pools, plans, [Tensor(np.zeros((4, 2)))],
                            [C.zero_state(s, 2) for s in specs])


class TestLMHead:
    def test_tied_trainable_count(self):
        head = C.make_head(10_000, 200, tied=True)
        assert head.trainable_count() == 10_000 * 200 + 10_000 == 2_010_000

    def test_untied_trainable_count(self):
        head = C.make_head(10_000, 200, tied=False)
        assert head.trainable_count() == 2 * 10_000 * 200 + 10_000

    def test_tied_head_has_single_storage(self):
        head = C.make_head(50, 8, tied=True)
        assert head.decoder is None
        assert len(head.trainables()) == 2

    def test_zero_features_give_bias(self):
        # at zero features every logits column is the bias: the loss and its
        # bias gradient equal those of a dense block of bias columns, bit for bit
        head = C.make_head(12, 6, tied=True)
        head.bias.data[:] = np.arange(12.0)
        targets = np.array([0, 5, 11, 3])
        loss = Tr.cross_entropy_loss(C.lm_head_forward(head, Tensor(np.zeros((6, 4)))), targets)
        T.backward(loss)
        bias_cols = Tensor(np.tile(np.arange(12.0)[:, None], (1, 4)), requires_grad=True)
        dense = C.HeadLogits(Tensor(np.eye(12)), Tensor(np.zeros(12)), bias_cols)
        expect = Tr.cross_entropy_loss(dense, targets)
        T.backward(expect)
        assert loss.item() == expect.item()
        assert np.array_equal(head.bias.grad, bias_cols.grad.sum(axis=1))

    def test_tying_size_mismatch(self):
        with pytest.raises(ConfigError):
            C.make_head(50, 8, tied=True, feature_size=16)
        head = C.make_head(50, 8, tied=True)
        with pytest.raises(ConfigError):
            C.lm_head_forward(head, Tensor(np.zeros((16, 2))))

    def test_embedding_lookup_shape(self):
        head = C.make_head(30, 8, tied=True)
        out = C.embed_tokens(head, np.array([3, 1, 4]))
        assert out.shape == (8, 3)
        assert np.array_equal(out.data[:, 0], head.embedding.data[3])

    def test_window_embedding_is_step_major(self):
        head = C.make_head(30, 8, tied=True)
        ids = np.array([[3, 1], [4, 1], [5, 9]])   # 3 steps of batch 2
        out = C.embed_tokens(head, ids)
        assert out.shape == (8, 6)
        for t, b in np.ndindex(ids.shape):
            assert np.array_equal(out.data[:, 2 * t + b], head.embedding.data[ids[t, b]])

    def test_head_node_matches_matmul_plus_bias(self, monkeypatch):
        # the fused head and loss, in chunks of one step, against the tape's
        # matmul and bias nodes feeding the loss as a dense block
        monkeypatch.setattr(Tr, "CE_CHUNK_ENTRIES", 12)
        head = C.make_head(12, 6, tied=False, seed=3)
        head.bias.data[:] = np.random.default_rng(4).uniform(-1, 1, 12)
        rng = np.random.default_rng(5)
        feats = Tensor(rng.uniform(-1, 1, (6, 5)), requires_grad=True)
        targets = rng.integers(0, 12, (5, 1))
        loss = Tr.cross_entropy_loss(C.lm_head_forward(head, feats), targets)
        T.backward(loss)
        leaves = [Tensor(p.data, requires_grad=True) for p in (head.decoder, head.bias, feats)]
        logits = T.matmul(leaves[0], leaves[2]) + leaves[1]
        expect = Tr.cross_entropy_loss(
            C.HeadLogits(Tensor(np.eye(12)), Tensor(np.zeros(12)), logits), targets)
        T.backward(expect)
        assert abs(loss.item() - expect.item()) < 1e-12
        for got, ref in zip((head.decoder, head.bias, feats), leaves):
            assert np.abs(got.grad - ref.grad).max() < 1e-12


def test_window_dropout_masks_follow_per_step_draws():
    sizes, steps, batch = [3, 5], 4, 2
    masks = C.dropout_masks(sizes, steps, batch, 0.3, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    for t in range(steps):
        for k, mask in zip(sizes, masks):
            expect = T.dropout_mask((k, batch), 0.3, rng)
            assert np.array_equal(mask[:, t * batch:(t + 1) * batch], expect)


def test_spec_family_validation():
    with pytest.raises(ValidationError):
        C.CellSpec.uniform("tree", 4, 4, 0.5)
    with pytest.raises(ValidationError):
        C.CellSpec("lstm", 4, 4, ((0.5,), (0.5,)))
