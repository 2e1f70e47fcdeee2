import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrnn import tensor as T
from rrnn.errors import NumericError, ShapeError, StateError
from rrnn.tensor import Tensor

from oracles import central_diff, matmul_triple_loop


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_projector(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        v = Tensor([[5.0], [7.0]])
        assert np.array_equal(T.matmul(p, v).data, [[5.0], [0.0]])

    def test_matches_triple_loop(self):
        a, b = rand((3, 4), 1), rand((4, 2), 2)
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - matmul_triple_loop(a, b)).max() < 1e-12

    def test_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            T.matmul(Tensor(rand((3, 4))), Tensor(rand((3, 2))))


class TestElementwise:
    def test_sigmoid_symmetry(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_tanh_zero(self):
        assert T.tanh(Tensor(0.0)).item() == 0.0

    def test_sigmoid_saturation(self):
        assert abs(T.sigmoid(Tensor(30.0)).item() - 1.0) < 1e-12
        assert abs(T.sigmoid(Tensor(-30.0)).item() - 0.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(rand((2, 3))), Tensor(rand((3, 2))))
        with pytest.raises(ShapeError):
            T.mul(Tensor(rand((2, 3))), Tensor(rand((3, 3))))

    def test_bias_broadcast_over_columns_only(self):
        m = Tensor(rand((3, 4)))
        b = Tensor(rand(3, seed=5))
        out = T.add(m, b)
        assert np.array_equal(out.data, m.data + b.data[:, None])
        with pytest.raises(ShapeError):
            T.add(m, Tensor(rand(4)))  # row-vector broadcast is not a thing

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_raises(self):
        big = Tensor(np.full((2, 2), 1e308))
        with pytest.raises(NumericError):
            T.mul(big, big)


class TestBackward:
    def test_linear_outer_product_vs_fd(self):
        w = Tensor(rand((3, 4), 3), requires_grad=True)
        x = rand((4, 2), 4)
        T.backward(T.tsum(T.matmul(w, Tensor(x))))
        analytic = w.grad.copy()

        def loss():
            return (w.data @ x).sum()

        for idx in np.ndindex(w.shape):
            num = central_diff(loss, w.data, idx)
            assert abs(analytic[idx] - num) / max(abs(num), 1e-12) < 1e-6

    def test_constant_loss_zero_grads(self):
        w = Tensor(rand((3, 3)), requires_grad=True)
        loss = T.tsum(w * Tensor(np.zeros((3, 3))))
        T.backward(loss)
        assert np.array_equal(w.grad, np.zeros((3, 3)))

    def test_fanout_accumulation(self):
        a = Tensor(2.0, requires_grad=True)
        x = Tensor(3.0)
        y1 = a * x
        y2 = a * x
        T.backward(y1 + y2)
        assert a.grad == 2 * x.data

    def test_fanout_k_branches(self):
        a = Tensor(rand(5), requires_grad=True)
        k = 4
        branches = [T.tsum(a * Tensor(np.ones(5))) for _ in range(k)]
        total = branches[0]
        for b in branches[1:]:
            total = total + b
        T.backward(total)
        assert np.array_equal(a.grad, np.full(5, float(k)))

    def test_double_backward_raises(self):
        a = Tensor(1.0, requires_grad=True)
        loss = a * a
        T.backward(loss)
        with pytest.raises(StateError):
            T.backward(loss)

    def test_nonscalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            T.backward(Tensor(rand((2, 2)), requires_grad=True))

    @pytest.mark.parametrize("add_first", [True, False])
    def test_shared_gradient_array_not_aliased(self, add_first):
        # add() hands one array to both parents; adding the later product
        # term into it in place would corrupt the other parent's gradient
        x = Tensor([0.3, -0.7], requires_grad=True)
        y = Tensor([1.1, 0.4], requires_grad=True)
        a, b = T.tanh(x), T.tanh(y)
        terms = [T.tsum(a + b), T.tsum(a * b)]
        if not add_first:
            terms.reverse()
        T.backward(terms[0] + terms[1])
        ta, tb = np.tanh(x.data), np.tanh(y.data)
        assert np.allclose(x.grad, (1.0 + tb) * (1.0 - ta * ta), atol=1e-15)
        assert np.allclose(y.grad, (1.0 + ta) * (1.0 - tb * tb), atol=1e-15)

    def test_leaves_get_their_own_gradient_buffers(self):
        # add() hands one array to both parents; clipping scales each leaf's
        # .grad in place, so two leaves must never share that array
        a = Tensor(rand((2, 3), 1), requires_grad=True)
        b = Tensor(rand((2, 3), 2), requires_grad=True)
        T.backward(T.tsum(a + b))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad *= 0.5
        assert np.array_equal(b.grad, np.ones((2, 3)))

    def test_returns_leaf_map(self):
        a = Tensor(1.5, requires_grad=True)
        b = Tensor(2.5, requires_grad=True)
        grads = T.backward(a * b)
        assert grads[a] == 2.5 and grads[b] == 1.5


def composed_loss_value(w, b, v, x):
    s = 1.0 / (1.0 + np.exp(-(w @ x + b[:, None])))
    return float((s * np.tanh(v @ x)).sum())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_finite_difference_property(seed):
    # composed graph: sum(sigmoid(Wx + b) * tanh(Vx)), inputs in [-1, 1]
    rng = np.random.default_rng(seed)
    w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    v = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (4, 2)))

    loss = T.tsum(T.sigmoid(T.matmul(w, x) + b) * T.tanh(T.matmul(v, x)))
    T.backward(loss)

    for leaf in (w, b, v):
        analytic = leaf.grad
        for idx in np.ndindex(leaf.shape):
            num = central_diff(lambda: composed_loss_value(w.data, b.data, v.data, x.data),
                               leaf.data, idx)
            rel = abs(analytic[idx] - num) / max(abs(analytic[idx]) + abs(num), 1e-8)
            assert rel < 1e-4


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        w = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, (4, 3)))
        out = T.tanh(T.matmul(w, x))
        T.backward(T.tsum(out))
        return out.data.copy(), w.grad.copy()

    (o1, g1), (o2, g2) = run(), run()
    assert np.array_equal(o1, o2) and np.array_equal(g1, g2)


class TestDropout:
    def test_zero_rate_is_identity(self):
        x = Tensor(rand((5, 5)))
        mask = T.dropout_mask(x.shape, 0.0, np.random.default_rng(0))
        assert np.array_equal(T.masked(x, mask).data, x.data)

    def test_train_mask_and_scale(self):
        x = Tensor(np.ones((200, 50)))
        out = T.masked(x, T.dropout_mask(x.shape, 0.2, np.random.default_rng(0)))
        vals = np.unique(out.data)
        assert set(np.round(vals, 12)) <= {0.0, round(1 / 0.8, 12)}
        # keep fraction concentrates near 1 - p
        assert abs((out.data != 0).mean() - 0.8) < 0.02

    def test_gradient_through_mask(self):
        x = Tensor(np.ones((10, 10)), requires_grad=True)
        out = T.masked(x, T.dropout_mask(x.shape, 0.5, np.random.default_rng(3)))
        T.backward(T.tsum(out))
        assert np.array_equal(x.grad, (out.data != 0) * 2.0)


class TestGatherScatter:
    def test_gather_rows(self):
        a = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(a, [2, 0, 2])
        assert np.array_equal(out.data, a.data[[2, 0, 2]])

    def test_scatter_add_on_repeated_rows(self):
        a = Tensor(rand((4, 3)), requires_grad=True)
        out = T.gather_rows(a, [1, 1, 3])
        T.backward(T.tsum(out))
        expect = np.zeros((4, 3))
        expect[1] = 2.0
        expect[3] = 1.0
        assert np.array_equal(a.grad, expect)

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            T.gather_rows(Tensor(rand((4, 3))), [4])


def test_no_grad_suppresses_tape():
    a = Tensor(rand((2, 2)), requires_grad=True)
    with T.no_grad():
        out = T.tanh(T.matmul(a, a))
    assert not out.requires_grad and out._parents == ()
