import math
import weakref

import numpy as np
import pytest

from rrnn import data as D
from rrnn import tensor as T
from rrnn import training as Tr
from rrnn.cli import RunConfig
from rrnn.errors import NumericError, ShapeError, ValidationError
from rrnn.model import LanguageModel
from rrnn.tensor import Tensor

from oracles import softmax_ce_direct


def tiny_corpus(n_tokens=4000, vocab=6, seed=0):
    """Markov-ish id stream a small model can learn."""
    rng = np.random.default_rng(seed)
    ids = [0]
    for _ in range(n_tokens - 1):
        ids.append((ids[-1] + rng.integers(0, 2)) % vocab)
    return np.asarray(ids, dtype=np.int32)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = Tr.cross_entropy_loss(logits, np.array([0, 1, 2]))
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_certain_prediction(self):
        z = np.zeros((5, 2))
        z[3, 0] = 1e4
        z[1, 1] = 1e4
        loss = Tr.cross_entropy_loss(Tensor(z), np.array([3, 1]))
        assert loss.item() < 1e-10

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-2, 2, (3, 4))
        targets = np.array([0, 2, 1, 1])
        loss = Tr.cross_entropy_loss(Tensor(z), targets)
        expect = np.mean([softmax_ce_direct(z[:, j], targets[j]) for j in range(4)])
        assert abs(loss.item() - expect) < 1e-10

    def test_multi_step_mean(self):
        rng = np.random.default_rng(2)
        window = np.concatenate([rng.uniform(-1, 1, (3, 2)) for _ in range(3)], axis=1)
        targets = rng.integers(0, 3, (3, 2))
        loss = Tr.cross_entropy_loss(Tensor(window), targets)
        parts = [softmax_ce_direct(window[:, 2 * t + j], targets[t, j])
                 for t in range(3) for j in range(2)]
        assert abs(loss.item() - np.mean(parts)) < 1e-10

    def test_targets_must_cover_every_column(self):
        with pytest.raises(ShapeError):
            Tr.cross_entropy_loss(Tensor(np.zeros((4, 6))), np.zeros((2, 2), dtype=int))

    def test_target_out_of_vocab(self):
        with pytest.raises(ValidationError):
            Tr.cross_entropy_loss(Tensor(np.zeros((4, 2))), np.array([0, 4]))

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        targets = np.array([2, 0])
        T.backward(Tr.cross_entropy_loss(logits, targets))
        e = np.exp(logits.data - logits.data.max(axis=0))
        soft = e / e.sum(axis=0)
        soft[targets, np.arange(2)] -= 1
        assert np.allclose(logits.grad, soft / 2, atol=1e-12)


class TestPerplexity:
    def test_zero_loss(self):
        assert Tr.perplexity(0.0) == 1.0

    def test_uniform_vocab(self):
        assert abs(Tr.perplexity(math.log(10_000)) - 10_000) < 1e-6

    def test_inverse_definition(self):
        assert abs(Tr.perplexity(math.log(150)) - 150) < 1e-9

    def test_monotone_in_loss(self):
        losses = [0.1, 0.5, 1.0, 3.0]
        ppls = [Tr.perplexity(x) for x in losses]
        assert ppls == sorted(ppls)

    def test_finite_loss_past_exp_range_is_inf(self):
        assert Tr.perplexity(800.0) == math.inf
        with pytest.raises(NumericError):
            Tr.perplexity(math.inf)


def params_with_grads(grads):
    out = []
    for g in grads:
        p = Tensor(np.zeros_like(np.asarray(g, dtype=float)), requires_grad=True)
        p.grad = np.asarray(g, dtype=float)
        out.append(p)
    return out


class TestClip:
    def test_scales_to_max_norm(self):
        params = params_with_grads([[0.3, 0.4]])  # norm 0.5
        factor = Tr.clip_gradients(params, 0.25)
        assert factor == 0.5
        assert abs(np.linalg.norm(params[0].grad) - 0.25) < 1e-12

    def test_under_threshold_untouched(self):
        params = params_with_grads([[0.06, 0.08]])  # norm 0.1
        g0 = params[0].grad.copy()
        assert Tr.clip_gradients(params, 0.25) == 1.0
        assert np.array_equal(params[0].grad, g0)

    def test_zero_grads_no_division(self):
        params = params_with_grads([[0.0, 0.0]])
        assert Tr.clip_gradients(params, 0.25) == 1.0

    def test_global_norm_across_tensors(self):
        params = params_with_grads([[3.0], [4.0]])  # global norm 5
        factor = Tr.clip_gradients(params, 0.25)
        assert abs(factor - 0.05) < 1e-15
        total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        assert total <= 0.25 + 1e-12

    def test_two_leaves_of_one_sum(self):
        # backward of a + b must not give a and b one buffer to scale twice
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        T.backward(T.tsum(a + b))   # each gradient is ones: global norm 2
        Tr.clip_gradients([a, b], 0.25)
        total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in (a, b)))
        assert abs(total - 0.25) < 1e-12

    def test_nan_raises(self):
        params = params_with_grads([[float("nan")]])
        with pytest.raises(NumericError):
            Tr.clip_gradients(params, 0.25)


class TestSGD:
    def test_zero_grad_zero_decay_noop(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        cfg = Tr.TrainConfig(momentum=0.9, weight_decay=0.0)
        opt = Tr.OptimizerState.for_params([p])
        Tr.sgd_step([p], opt, 1.0, cfg)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_momentum_two_step_recursion(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        cfg = Tr.TrainConfig(momentum=0.9, weight_decay=0.0)
        opt = Tr.OptimizerState.for_params([p])
        p.grad = np.array([1.0])
        Tr.sgd_step([p], opt, 1.0, cfg)
        assert p.data[0] == -1.0
        p.grad = np.array([1.0])
        Tr.sgd_step([p], opt, 1.0, cfg)
        assert abs(p.data[0] - (-1.0 - 1.9)) < 1e-15

    def test_decay_only_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.0])
        cfg = Tr.TrainConfig(momentum=0.0, weight_decay=1e-6)
        opt = Tr.OptimizerState.for_params([p])
        Tr.sgd_step([p], opt, 1.0, cfg)
        assert abs(p.data[0] - (1.0 - 1e-6)) < 1e-18


class TestCosine:
    def test_endpoints_and_midpoint(self):
        assert Tr.cosine_lr(0, 100, 1.0) == 1.0
        assert abs(Tr.cosine_lr(100, 100, 1.0)) < 1e-16
        assert Tr.cosine_lr(50, 100, 1.0) == 0.5

    def test_strictly_decreasing(self):
        lrs = [Tr.cosine_lr(e, 100, 1.0) for e in range(101)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_epoch_out_of_range(self):
        with pytest.raises(ValidationError):
            Tr.cosine_lr(101, 100, 1.0)


def small_model(family="lstm", vocab=6, rate=0.5, seed=0, dropout=0.0):
    return LanguageModel(family, vocab, layers=1, hidden=16, emb=16, rates=rate,
                         tied=True, dropout=dropout, seed=seed)


class TestTrainEpoch:
    def test_frozen_step_matches_eval(self):
        stream = tiny_corpus()
        cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, seed=1)
        batches = D.batchify(stream, 4, 8)[:1]
        model = small_model(dropout=0.0)
        before = [p.data.copy() for p in model.parameters()]
        opt = Tr.OptimizerState.for_params(model.parameters())
        em = Tr.train_epoch(model, batches, cfg, opt, lr=0.0)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)
        ev = Tr.evaluate(model, batches)
        assert abs(em["loss"] - ev["loss"]) < 1e-12

    def test_smoke_decreasing_loss(self):
        stream = tiny_corpus()
        cfg = Tr.TrainConfig(batch_size=8, bptt_len=16, epochs=5, lr0=0.5, seed=2)
        batches = D.batchify(stream, 8, 16)
        model = small_model(rate=0.5, seed=2, dropout=0.2)
        records = Tr.fit(model, batches, None, cfg)
        losses = [r["train_loss"] for r in records]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_deterministic_replay(self):
        def run():
            stream = tiny_corpus()
            cfg = Tr.TrainConfig(batch_size=8, bptt_len=16, epochs=2, lr0=0.5, seed=3)
            batches = D.batchify(stream, 8, 16)
            model = small_model(seed=3, dropout=0.2)
            return Tr.fit(model, batches, batches, cfg)

        r1, r2 = run(), run()
        for a, b in zip(r1, r2):
            for key in ("train_loss", "train_ppl", "valid_loss", "valid_ppl", "clip_rate"):
                assert a[key] == b[key]

    def test_shared_entry_single_update(self):
        # one optimizer step touches an aliased pool entry exactly once:
        # delta = -lr * (summed grad + wd * w) with zero velocity
        model = small_model(rate=1.0, seed=4, dropout=0.0)
        stream = tiny_corpus(500)
        batches = D.batchify(stream, 4, 8)[:1]
        cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, momentum=0.9,
                             weight_decay=1e-6, clip_norm=1e9, seed=4)
        pool = model.pools[0]
        w_before = pool.W.data.copy()
        logits, _ = model.forward(batches[0].inputs, model.init_state(4))
        loss = Tr.cross_entropy_loss(logits, batches[0].targets)
        Tr.zero_grads(model.parameters())
        T.backward(loss)
        grad = pool.W.grad.copy()
        opt = Tr.OptimizerState.for_params(model.parameters())
        Tr.sgd_step(model.parameters(), opt, 0.1, cfg)
        expect = w_before - 0.1 * (grad + 1e-6 * w_before)
        assert np.allclose(pool.W.data, expect, atol=1e-15)


    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_diverging_epoch_reports_inf_perplexity(self):
        # the first window's loss is finite but past exp's range, the huge
        # step then overflows the second window: the epoch aborts with ppl inf
        model = small_model(seed=8, dropout=0.0)
        model.head.bias.data[:] = 2000.0 * (np.arange(6) == 5)
        stream = tiny_corpus(500)
        stream[stream == 5] = 0
        batches = D.batchify(stream, 4, 8)[:2]
        cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, seed=8)
        opt = Tr.OptimizerState.for_params(model.parameters())
        em = Tr.train_epoch(model, batches, cfg, opt, lr=1e300)
        assert "aborted" in em
        assert em["loss"] > 1000.0 and em["ppl"] == math.inf


def test_window_graph_released_before_next_forward(monkeypatch):
    # the previous window's loss tape holds its logits, the cross-entropy
    # closure and every layer's saved arrays; none may outlive the window
    model = small_model(seed=9, dropout=0.2)
    batches = D.batchify(tiny_corpus(), 4, 8)[:3]
    cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, seed=9)
    refs, alive = [], []
    cross_entropy, forward = Tr.cross_entropy_loss, model.forward

    def recording_cross_entropy(logits, targets):
        refs.append(weakref.ref(logits.data))
        return cross_entropy(logits, targets)

    def counting_forward(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return forward(*args, **kwargs)

    monkeypatch.setattr(Tr, "cross_entropy_loss", recording_cross_entropy)
    monkeypatch.setattr(model, "forward", counting_forward)
    Tr.train_epoch(model, batches, cfg, Tr.OptimizerState.for_params(model.parameters()), lr=0.1)
    assert alive == [0, 0, 0]
    refs.clear()
    alive.clear()
    Tr.evaluate(model, batches)
    assert alive == [0, 0, 0]


def test_window_graph_is_one_node_per_stage():
    # gather + transpose + 2 x (input mask + layer) + feature mask + head + CE;
    # the carried states are constants that share no memory with the graph
    model = LanguageModel("lstm", 6, layers=2, hidden=8, emb=8, dropout=0.2, seed=10)
    batch = D.batchify(tiny_corpus(), 4, 8)[0]
    logits, states = model.forward(batch.inputs, model.init_state(4), train=True,
                                   rng=np.random.default_rng(11))
    loss = Tr.cross_entropy_loss(logits, batch.targets)
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._backprop is not None and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    assert len(nodes) == 9
    layers = [n for n in nodes.values() if n._op == "lstm_layer"]
    assert len(layers) == 2
    for state in states:
        for part in (state.h, state.c):
            assert not part.requires_grad
            assert not any(np.shares_memory(part.data, n.data) for n in layers)


class TestEvaluate:
    def test_untrained_perplexity_band(self):
        vocab = 40
        rng = np.random.default_rng(5)
        stream = rng.integers(0, vocab, 3000).astype(np.int32)
        model = LanguageModel("gru", vocab, layers=1, hidden=16, emb=16, rates=0.5,
                              tied=True, dropout=0.0, seed=5)
        m = Tr.evaluate(model, D.batchify(stream, 8, 16))
        assert 0.5 * vocab <= m["perplexity"] <= 1.5 * vocab

    def test_training_reduces_perplexity(self):
        stream = tiny_corpus()
        batches = D.batchify(stream, 8, 16)
        model = small_model(seed=6, dropout=0.0)
        before = Tr.evaluate(model, batches)["perplexity"]
        cfg = Tr.TrainConfig(batch_size=8, bptt_len=16, epochs=5, lr0=0.5, seed=6)
        Tr.fit(model, batches, None, cfg)
        after = Tr.evaluate(model, batches)["perplexity"]
        assert after < before

    def test_degenerate_language_approaches_one(self):
        stream = np.zeros(2000, dtype=np.int32)  # a single token, repeated
        batches = D.batchify(stream, 4, 16)
        model = LanguageModel("rnn", 2, layers=1, hidden=8, emb=8, rates=0.5,
                              tied=True, dropout=0.0, seed=7)
        cfg = Tr.TrainConfig(batch_size=4, bptt_len=16, epochs=10, lr0=0.5, seed=7)
        Tr.fit(model, batches, None, cfg)
        assert Tr.evaluate(model, batches)["perplexity"] < 1.05


def test_train_config_defaults_match_reference_setup():
    cfg = Tr.TrainConfig()
    assert (cfg.lr0, cfg.momentum, cfg.weight_decay, cfg.clip_norm) == (1.0, 0.9, 1e-6, 0.25)
    assert (cfg.epochs, cfg.batch_size, cfg.bptt_len) == (100, 80, 35)
    assert RunConfig().dropout == 0.2


def test_train_config_validation():
    with pytest.raises(ValidationError):
        Tr.TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        Tr.TrainConfig(momentum=-0.1)
