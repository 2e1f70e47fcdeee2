"""Parameters, dropout masks and the gradient plumbing of a training window:
the embedding's gather and scatter, one gradient buffer per parameter,
gradient paths that meet at one parameter, the loss that writes a
training window's gradients, and a whole window's gradients against
central differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrnn import cells as C
from rrnn import restriction as R
from rrnn import tensor as T
from rrnn import training as Tr
from rrnn.errors import NumericError, ShapeError
from rrnn.model import LanguageModel


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def tiny_model(family="lstm", rate=0.5, tied=True, dropout=0.0, seed=0):
    return LanguageModel(family, 5, layers=2, hidden=3, emb=3, rates=rate, tied=tied,
                         dropout=dropout, seed=seed)


def window_ids(seed, steps=3, batch=2, vocab=5):
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab, (steps, batch)), rng.integers(0, vocab, (steps, batch))


def window_loss(model, ids, targets, seed=0):
    """The training-window loss, its dropout masks drawn from rng(seed)."""
    logits, _ = model.forward(ids, model.init_state(ids.shape[1]), train=True,
                              rng=np.random.default_rng(seed))
    return Tr.cross_entropy_loss(logits, targets)


def train_grads(model, ids, targets, seed=0):
    """Loss value and each parameter's gradient after one training window."""
    Tr.zero_grads(model.parameters())
    loss = window_loss(model, ids, targets, seed)
    return loss.item(), [p.grad for p in model.parameters()]


class TestElementwise:
    def test_sigmoid_symmetry(self):
        assert np.array_equal(C._sigmoid(np.zeros(3)), np.full(3, 0.5))

    def test_sigmoid_saturation(self):
        assert abs(C._sigmoid(np.array([30.0]))[0] - 1.0) < 1e-12
        assert abs(C._sigmoid(np.array([-30.0]))[0] - 0.0) < 1e-12

    def test_nonfinite_raises(self):
        # a parameter, such as one a damaged checkpoint would give, stays finite
        with pytest.raises(NumericError):
            T.Parameter(np.array([1.0, np.nan]))


class TestBackward:
    def test_constant_loss_zero_grads(self):
        # a zero upstream gradient adds nothing into the pool buffers
        spec = C.CellSpec.uniform("lstm", 3, 4, 0.5)
        plan = spec.make_plan()
        pool = R.build_pool(plan, seed=1)
        Tr.zero_grads(pool.trainables())
        h, _, backward = C.layer_forward(spec, pool, plan, rand((3, 6)), C.zero_state(spec, 2))
        dx = backward(np.zeros_like(h))
        assert not pool.W.grad.any() and not pool.b.grad.any() and not dx.any()

    def test_fanout_accumulation(self):
        # a tied embedding's gradient is the sum of its head path and its
        # scatter path: an untied copy with the same decoder has them apart
        ids, targets = window_ids(1)
        tied = tiny_model(seed=2)
        untied = tiny_model(tied=False, seed=2)
        untied.head.decoder.data[:] = untied.head.embedding.data
        assert np.array_equal(untied.head.embedding.data, tied.head.embedding.data)
        train_grads(tied, ids, targets)
        train_grads(untied, ids, targets)
        expect = untied.head.decoder.grad + untied.head.embedding.grad
        assert np.array_equal(tied.head.embedding.grad, expect)

    def test_fanout_k_branches(self):
        # r = 1 with k = d: all 2n = 8 LSTM views are the same d pool rows,
        # which receive the sum of the 8 gradients that an r = 0 pool holding
        # the same weights in 8 private blocks receives view by view
        d, n = 3, 4
        spec1 = C.CellSpec.uniform("lstm", d, d, 1.0)
        spec0 = C.CellSpec.uniform("lstm", d, d, 0.0)
        plan1, plan0 = spec1.make_plan(), spec0.make_plan()
        pool1, pool0 = R.build_pool(plan1, seed=3), R.build_pool(plan0, seed=3)
        for i in range(2):
            for j in range(n):
                pool0.W.data[plan0.view_rows(i, j)] = pool1.W.data[:d]
                pool0.b.data[plan0.view_rows(i, j)] = pool1.b.data[:d]
        x, g = rand((d, 8), 4), rand((d, 8), 5)
        for spec, plan, pool in ((spec1, plan1, pool1), (spec0, plan0, pool0)):
            Tr.zero_grads(pool.trainables())
            h, _, backward = C.layer_forward(spec, pool, plan, x, C.zero_state(spec, 2))
            backward(g)
        views = [plan0.view_rows(i, j) for i in range(2) for j in range(n)]
        assert np.allclose(pool1.W.grad[:d], sum(pool0.W.grad[v] for v in views), atol=1e-12)
        assert np.allclose(pool1.b.grad[:d], sum(pool0.b.grad[v] for v in views), atol=1e-12)

    def test_leaves_get_their_own_gradient_buffers(self):
        # clipping scales each .grad in place, so no two parameters may share
        # a buffer; later windows zero the buffers the first one allocated
        ids, targets = window_ids(7)
        model = tiny_model(dropout=0.2, seed=7)
        _, grads = train_grads(model, ids, targets)
        for a, p in enumerate(model.parameters()):
            assert not np.shares_memory(p.grad, p.data)
            assert not any(np.shares_memory(p.grad, q) for q in grads[a + 1:])
        _, again = train_grads(model, ids, targets)
        assert all(a is b for a, b in zip(grads, again))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(C.GATE_COUNT)), st.floats(0.0, 1.0), st.booleans(),
       st.integers(0, 10 ** 6))
def test_finite_difference_property(family, rate, tied, seed):
    # a whole training window with dropout: embedding gather, 2 layers,
    # masks, head and loss.  Each parameter's gradient is checked along 3
    # random directions, whose central differences stay well above the
    # rounding noise that single entries with gradients near 1e-8 hit
    ids, targets = window_ids(seed)
    model = tiny_model(family, rate, tied=tied, dropout=0.3, seed=seed % 1000)
    # each training-mode loss below adds into the buffers again
    grads = [g.copy() for g in train_grads(model, ids, targets, seed)[1]]
    rng = np.random.default_rng(seed)
    step = 1e-5
    for p, analytic in zip(model.parameters(), grads):
        origin = p.data.copy()
        for _ in range(3):
            v = rng.normal(size=p.data.shape)
            p.data[...] = origin + step * v
            up = window_loss(model, ids, targets, seed).item()
            p.data[...] = origin - step * v
            down = window_loss(model, ids, targets, seed).item()
            p.data[...] = origin
            num, exact = (up - down) / (2 * step), float((analytic * v).sum())
            assert abs(exact - num) / max(abs(exact) + abs(num), 1e-8) < 1e-4


def test_determinism_bit_identical():
    def run():
        ids, targets = window_ids(99)
        loss, grads = train_grads(tiny_model("gru", dropout=0.2, seed=99), ids, targets, 99)
        return loss, [g.copy() for g in grads]

    (l1, g1), (l2, g2) = run(), run()
    assert l1 == l2 and all(np.array_equal(a, b) for a, b in zip(g1, g2))


class TestDropout:
    def test_zero_rate_is_identity(self):
        x = rand((5, 5))
        keep = T.dropout_mask(x.shape, 0.0, np.random.default_rng(0))
        assert keep.all()
        assert np.array_equal(T.apply_dropout(x, keep, 0.0), x)

    def test_train_mask_and_scale(self):
        keep = T.dropout_mask((200, 50), 0.2, np.random.default_rng(0))
        assert keep.dtype == bool
        out = T.apply_dropout(np.ones((200, 50)), keep, 0.2)
        vals = np.unique(out)
        assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.8, 12)}
        assert np.array_equal(out != 0, keep)
        # keep fraction concentrates near 1 - p
        assert abs((out != 0).mean() - 0.8) < 0.02
        # the same bits as multiplying by a float mask of 0 and 1/(1-p)
        x = rand((200, 50), 4)
        assert np.array_equal(np.signbit(T.apply_dropout(x, keep, 0.2)), np.signbit(x))
        assert np.array_equal(T.apply_dropout(x, keep, 0.2), x * (keep / (1.0 - 0.2)))

    def test_gradient_through_mask(self):
        # the stack's backward applies to a layer's input gradient the
        # keep-mask and scale that layer's input was dropped out with
        spec = C.CellSpec.uniform("gru", 4, 5, 0.5)
        plan = spec.make_plan()
        pool = R.build_pool(plan, seed=8)
        x, g = rand((4, 6), 9), rand((5, 6), 10)
        Tr.zero_grads(pool.trainables())
        _, _, backward = C.stack_forward([spec], [pool], [plan], x, [C.zero_state(spec, 3)],
                                         dropout_p=0.5, rng=np.random.default_rng(3),
                                         train=True)
        dx = backward(g)
        (keep,) = C.dropout_masks([4], 2, 3, 0.5, np.random.default_rng(3))
        assert keep.dtype == bool
        _, _, layer_backward = C.layer_forward(spec, pool, plan, T.apply_dropout(x, keep, 0.5),
                                               C.zero_state(spec, 3))
        assert np.array_equal(dx, T.apply_dropout(layer_backward(g), keep, 0.5))
        assert np.array_equal(dx, layer_backward(g) * (keep / 0.5))
        assert not dx[~keep].any()


class TestGatherScatter:
    def test_gather_rows(self):
        head = C.make_head(4, 3, 3, seed=1)
        out = C.embed_tokens(head, [2, 0, 2])
        assert np.array_equal(out, head.embedding.data[[2, 0, 2]].T)

    def test_scatter_add_on_repeated_rows(self):
        head = C.make_head(4, 3, 3, seed=2)
        Tr.zero_grads(head.trainables())
        C.embed_backward(head, np.array([1, 1, 3]), np.ones((3, 3)))
        expect = np.zeros((4, 3))
        expect[1] = 2.0
        expect[3] = 1.0
        assert np.array_equal(head.embedding.grad, expect)

    def test_out_of_range(self):
        head = C.make_head(4, 3, 3)
        for ids in ([4], [-1]):
            with pytest.raises(ShapeError):
                C.embed_tokens(head, ids)


def test_no_grad_suppresses_tape():
    # an evaluation window keeps no backward pass and allocates no gradients
    ids, targets = window_ids(11)
    model = tiny_model(dropout=0.2, seed=11)
    logits, _ = model.forward(ids, model.init_state(2))
    assert logits.backward is None
    loss = Tr.cross_entropy_loss(logits, targets)
    assert not loss.requires_grad
    assert all(p.grad is None for p in model.parameters())
    x = C.embed_tokens(model.head, ids)
    *_, backward = C.stack_forward(model.specs, model.pools, model.plans, x,
                                   model.init_state(2), dropout_p=0.2)
    assert backward is None
