import math
import tracemalloc
import weakref

import numpy as np
import pytest

from rrnn import cells as C
from rrnn import data as D
from rrnn import training as Tr
from rrnn.cells import HeadLogits
from rrnn.cli import RunConfig
from rrnn.errors import NumericError, ShapeError, ValidationError
from rrnn.model import LanguageModel
from rrnn.tensor import Parameter

from oracles import head_cross_entropy_dense, softmax_ce_direct


def tiny_corpus(n_tokens=4000, vocab=6, seed=0):
    """Markov-ish id stream a small model can learn."""
    rng = np.random.default_rng(seed)
    ids = [0]
    for _ in range(n_tokens - 1):
        ids.append((ids[-1] + rng.integers(0, 2)) % vocab)
    return np.asarray(ids, dtype=np.int32)


def head_operands(w, b, f, train=False):
    """HeadLogits over w, b and f with zeroed gradient buffers, and the list
    that a training window's features backward appends its gradient to."""
    sink = []
    logits = HeadLogits(Parameter(w), Parameter(b), f, sink.append if train else None)
    Tr.zero_grads([logits.weight, logits.bias])
    return logits, sink


def dense(z):
    """A dense logits block z as head operands: identity weight, zero bias."""
    vocab = z.shape[0]
    return head_operands(np.eye(vocab), np.zeros(vocab), z)[0]


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = Tr.cross_entropy_loss(dense(np.zeros((4, 3))), np.array([0, 1, 2]))
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_certain_prediction(self):
        z = np.zeros((5, 2))
        z[3, 0] = 1e4
        z[1, 1] = 1e4
        loss = Tr.cross_entropy_loss(dense(z), np.array([3, 1]))
        assert loss.item() < 1e-10

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-2, 2, (3, 4))
        targets = np.array([0, 2, 1, 1])
        loss = Tr.cross_entropy_loss(dense(z), targets)
        expect = np.mean([softmax_ce_direct(z[:, j], targets[j]) for j in range(4)])
        assert abs(loss.item() - expect) < 1e-10

    def test_multi_step_mean(self):
        rng = np.random.default_rng(2)
        window = np.concatenate([rng.uniform(-1, 1, (3, 2)) for _ in range(3)], axis=1)
        targets = rng.integers(0, 3, (3, 2))
        loss = Tr.cross_entropy_loss(dense(window), targets)
        parts = [softmax_ce_direct(window[:, 2 * t + j], targets[t, j])
                 for t in range(3) for j in range(2)]
        assert abs(loss.item() - np.mean(parts)) < 1e-10

    def test_targets_must_cover_every_column(self):
        with pytest.raises(ShapeError):
            Tr.cross_entropy_loss(dense(np.zeros((4, 6))), np.zeros((2, 2), dtype=int))

    def test_target_out_of_vocab(self):
        with pytest.raises(ValidationError):
            Tr.cross_entropy_loss(dense(np.zeros((4, 2))), np.array([0, 4]))

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(3)
        logits, dz = head_operands(np.eye(4), np.zeros(4), rng.uniform(-1, 1, (4, 2)),
                                   train=True)
        targets = np.array([2, 0])
        Tr.cross_entropy_loss(logits, targets)
        z = logits.features
        e = np.exp(z - z.max(axis=0))
        soft = e / e.sum(axis=0)
        soft[targets, np.arange(2)] -= 1
        assert np.allclose(dz[0], soft / 2, atol=1e-12)


def rel(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestFusedHeadLoss:
    """The head and the loss as one stage, evaluated in chunks of whole steps."""

    vocab, emb, steps, batch = 50, 6, 7, 3

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        # two steps of logits and a little more: chunks of 2, 2, 2 and 1 steps
        monkeypatch.setattr(Tr, "CE_CHUNK_ENTRIES", 2 * self.vocab * self.batch + 10)

    def operands(self, seed=0):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1, 1, (self.vocab, self.emb))
        b = rng.uniform(-1, 1, self.vocab)
        f = rng.uniform(-2, 2, (self.emb, self.steps * self.batch))
        targets = rng.integers(0, self.vocab, (self.steps, self.batch))
        logits, sink = head_operands(w, b, f, train=True)
        return logits, sink, targets

    def test_matches_dense_reference_over_several_chunks(self):
        logits, sink, targets = self.operands()
        loss = Tr.cross_entropy_loss(logits, targets)
        ref_loss, ref_grads = head_cross_entropy_dense(logits.weight.data, logits.bias.data,
                                                       logits.features, targets)
        assert abs(loss.item() - ref_loss) <= 1e-12 * abs(ref_loss)
        for got, ref in zip((logits.weight.grad, logits.bias.grad, sink[0]), ref_grads):
            assert rel(got, ref) <= 1e-12

    def test_tied_embedding_sums_scatter_and_head_gradients(self):
        head = C.make_head(self.vocab, self.emb, self.emb, tied=True, seed=2)
        head.bias.data[:] = np.random.default_rng(3).uniform(-1, 1, self.vocab)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, self.vocab, (self.steps, self.batch))
        targets = rng.integers(0, self.vocab, (self.steps, self.batch))
        feats = C.embed_tokens(head, ids)
        logits = C.lm_head_forward(head, feats, lambda g: C.embed_backward(head, ids, g))
        Tr.zero_grads(head.trainables())
        Tr.cross_entropy_loss(logits, targets)
        e = head.embedding.data
        f = e[ids.reshape(-1)].T
        _, (dw, db, df) = head_cross_entropy_dense(e, head.bias.data, f, targets)
        np.add.at(dw, ids.reshape(-1), df.T)
        assert rel(head.embedding.grad, dw) <= 1e-12
        assert rel(head.bias.grad, db) <= 1e-12

    def test_no_grad_allocates_no_gradient_buffers(self, monkeypatch):
        # a weight far larger than a chunk: its gradient would dominate the peak
        vocab, emb, batch = 4000, 32, 2
        monkeypatch.setattr(Tr, "CE_CHUNK_ENTRIES", vocab * batch)
        rng = np.random.default_rng(5)
        operands = (rng.uniform(-1, 1, (vocab, emb)), np.zeros(vocab),
                    rng.uniform(-1, 1, (emb, 4 * batch)))
        targets = rng.integers(0, vocab, (4, batch))

        def peak_bytes(train):
            logits, _ = head_operands(*operands, train=train)
            tracemalloc.start()
            try:
                loss = Tr.cross_entropy_loss(logits, targets)
                return loss, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        recorded, recording_peak = peak_bytes(train=True)
        loss, peak = peak_bytes(train=False)
        assert recorded.requires_grad and not loss.requires_grad
        assert loss.item() == recorded.item()
        bound = operands[0].nbytes // 2
        assert recording_peak > bound > peak

    @pytest.mark.parametrize("train", [False, True])
    def test_one_logits_chunk_alive_at_a_time(self, monkeypatch, train):
        # each chunk's logits block is freed before the next one is computed
        vocab, emb, batch, steps = 4000, 2, 8, 4
        monkeypatch.setattr(Tr, "CE_CHUNK_ENTRIES", vocab * batch)
        rng = np.random.default_rng(7)
        logits, _ = head_operands(rng.uniform(-1, 1, (vocab, emb)), np.zeros(vocab),
                                  rng.uniform(-1, 1, (emb, steps * batch)), train=train)
        targets = rng.integers(0, vocab, (steps, batch))
        tracemalloc.start()
        try:
            Tr.cross_entropy_loss(logits, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * Tr.CE_CHUNK_ENTRIES

    def test_training_loss_stages_no_parameter_sized_buffer(self, monkeypatch):
        # the loss adds each chunk's weight gradient straight into the
        # weight's buffer: beside that buffer it holds one weight-sized
        # product at a time, not a second accumulator
        vocab, emb, batch = 4000, 32, 2
        monkeypatch.setattr(Tr, "CE_CHUNK_ENTRIES", vocab * batch)
        rng = np.random.default_rng(6)
        logits, sink = head_operands(rng.uniform(-1, 1, (vocab, emb)), np.zeros(vocab),
                                     rng.uniform(-1, 1, (emb, 4 * batch)), train=True)
        targets = rng.integers(0, vocab, (4, batch))
        tracemalloc.start()
        try:
            loss = Tr.cross_entropy_loss(logits, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loss.requires_grad and len(sink) == 1 and logits.weight.grad.any()
        assert peak < 1.5 * logits.weight.data.nbytes

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_logit_in_last_chunk_raises(self):
        logits, _, targets = self.operands(seed=6)
        logits.features[:, -1] = 1e300
        logits.weight.data[0] = 1e300
        with pytest.raises(NumericError):
            Tr.cross_entropy_loss(logits, targets)

    def test_target_checks_fire_before_any_chunk(self):
        logits, _, targets = self.operands(seed=7)
        with pytest.raises(ShapeError):
            Tr.cross_entropy_loss(logits, targets[:-1])
        targets[-1, -1] = self.vocab
        with pytest.raises(ValidationError):
            Tr.cross_entropy_loss(logits, targets)


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
        p = Parameter(np.zeros_like(np.asarray(g, dtype=float)))
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
        # a window's gradients must not give two parameters (such as a tied
        # embedding, the sum of two paths, and the head bias) one buffer
        # to scale twice
        model = small_model(seed=13, dropout=0.2)
        batch = D.batchify(tiny_corpus(), 4, 8)[0]
        params = model.parameters()
        Tr.zero_grads(params)
        logits, _ = model.forward(batch.inputs, model.init_state(4), train=True,
                                  rng=np.random.default_rng(13))
        Tr.cross_entropy_loss(logits, batch.targets)
        assert Tr.clip_gradients(params, 1e-3) < 1.0
        total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        assert abs(total - 1e-3) < 1e-12

    def test_nan_raises(self):
        params = params_with_grads([[float("nan")]])
        with pytest.raises(NumericError):
            Tr.clip_gradients(params, 0.25)


class TestSGD:
    def test_zero_grad_zero_decay_noop(self):
        p = Parameter(np.array([1.0, 2.0]))
        p.grad = np.zeros(2)
        cfg = Tr.TrainConfig(momentum=0.9, weight_decay=0.0)
        opt = Tr.OptimizerState.for_params([p])
        Tr.sgd_step([p], opt, 1.0, cfg)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_momentum_two_step_recursion(self):
        p = Parameter(np.array([0.0]))
        cfg = Tr.TrainConfig(momentum=0.9, weight_decay=0.0)
        opt = Tr.OptimizerState.for_params([p])
        p.grad = np.array([1.0])
        Tr.sgd_step([p], opt, 1.0, cfg)
        assert p.data[0] == -1.0
        p.grad = np.array([1.0])
        Tr.sgd_step([p], opt, 1.0, cfg)
        assert abs(p.data[0] - (-1.0 - 1.9)) < 1e-15

    def test_decay_only_step(self):
        p = Parameter(np.array([1.0]))
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
        Tr.zero_grads(model.parameters())
        logits, _ = model.forward(batches[0].inputs, model.init_state(4), train=True)
        Tr.cross_entropy_loss(logits, batches[0].targets)
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
    # the previous window's logits hold its features and every layer's
    # saved arrays; none may outlive the window
    model = small_model(seed=9, dropout=0.2)
    batches = D.batchify(tiny_corpus(), 4, 8)[:3]
    cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, seed=9)
    refs, alive = [], []
    cross_entropy, forward = Tr.cross_entropy_loss, model.forward

    def recording_cross_entropy(logits, targets):
        refs.append(weakref.ref(logits.features))
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


def test_window_peak_memory_below_one_logits_block(monkeypatch):
    # the logits of a window are 8 chunks: a window's peak stays below the
    # one dense block that a separate head node would hold (and the
    # exp(z - m) block beside it that a separate loss node would keep)
    vocab, batch, steps = 4000, 8, 16
    monkeypatch.setattr(Tr, "CE_CHUNK_ENTRIES", 2 * vocab * batch)
    model = LanguageModel("gru", vocab, layers=1, hidden=8, emb=8, dropout=0.2, seed=12)
    ids = np.random.default_rng(13).integers(0, vocab, 2 * batch * steps).astype(np.int32)
    batches = D.batchify(ids, batch, steps)[:1]
    cfg = Tr.TrainConfig(batch_size=batch, bptt_len=steps, epochs=1, seed=12)
    opt = Tr.OptimizerState.for_params(model.parameters())
    logits_bytes = vocab * batch * steps * 8
    assert logits_bytes >= 4 * 8 * Tr.CE_CHUNK_ENTRIES
    tracemalloc.start()
    try:
        em = Tr.train_epoch(model, batches, cfg, opt, lr=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "aborted" not in em
    assert peak < logits_bytes


def test_window_graph_is_one_node_per_stage(monkeypatch):
    # one layer pass per layer; the carried states are plain arrays that
    # share no memory with any layer's window output or the features, so
    # they do not keep the window's arrays alive
    model = LanguageModel("lstm", 6, layers=2, hidden=8, emb=8, dropout=0.2, seed=10)
    batch = D.batchify(tiny_corpus(), 4, 8)[0]
    outputs, layer_forward = [], C.layer_forward

    def recording_layer_forward(*args):
        out = layer_forward(*args)
        outputs.append(out[0])
        return out

    monkeypatch.setattr(C, "layer_forward", recording_layer_forward)
    Tr.zero_grads(model.parameters())
    logits, states = model.forward(batch.inputs, model.init_state(4), train=True,
                                   rng=np.random.default_rng(11))
    assert len(outputs) == 2
    assert Tr.cross_entropy_loss(logits, batch.targets).requires_grad
    for state in states:
        for part in (state.h, state.c):
            assert isinstance(part, np.ndarray)
            assert not any(np.shares_memory(part, a) for a in outputs + [logits.features])


def test_benchmark_hooks_see_window_losses(monkeypatch):
    # the benchmark records losses by replacing the module's
    # cross_entropy_loss and reading requires_grad and item(), and compares
    # parameters through .data
    model = small_model(seed=14, dropout=0.2)
    batches = D.batchify(tiny_corpus(), 4, 8)[:3]
    cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, seed=14)
    seen, cross_entropy = [], Tr.cross_entropy_loss

    def recorder(logits, targets):
        loss = cross_entropy(logits, targets)
        seen.append((loss.requires_grad, loss.item()))
        return loss

    monkeypatch.setattr(Tr, "cross_entropy_loss", recorder)
    em = Tr.train_epoch(model, batches, cfg, Tr.OptimizerState.for_params(model.parameters()),
                        lr=0.1)
    assert [grad for grad, _ in seen] == [True] * 3
    assert abs(em["loss"] - np.mean([value for _, value in seen])) < 1e-12
    seen.clear()
    vm = Tr.evaluate(model, batches)
    assert [grad for grad, _ in seen] == [False] * 3
    assert abs(vm["loss"] - np.mean([value for _, value in seen])) < 1e-12
    assert all(isinstance(p.data, np.ndarray) for p in model.parameters())


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
    for name in ("lr0", "momentum", "weight_decay", "clip_norm"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                Tr.TrainConfig(**{name: value})
