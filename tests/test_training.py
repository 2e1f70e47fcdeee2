import math
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from rrnn import cells as C
from rrnn import data as D
from rrnn import restriction as R
from rrnn import training as Tr
from rrnn.cli import RunConfig
from rrnn.errors import NumericError, ShapeError, StateError, ValidationError
from rrnn.model import LanguageModel
from rrnn.tensor import Parameter, Workspace

from oracles import head_cross_entropy_dense, softmax_ce_direct


def tiny_corpus(n_tokens=4000, vocab=6, seed=0):
    """Markov-ish id stream a small model can learn."""
    rng = np.random.default_rng(seed)
    ids = [0]
    for _ in range(n_tokens - 1):
        ids.append((ids[-1] + rng.integers(0, 2)) % vocab)
    return np.asarray(ids, dtype=np.int32)


def head_operands(w, b, f, train=False):
    """HeadLogits of a tied head built by ``make_head`` and set to the
    decoder w and bias b, over the features f, with zeroed gradient
    buffers, and the list that a training window's features backward
    appends its gradient to."""
    vocab, width = w.shape
    head = C.make_head(vocab, width, width, tied=True)
    head.embedding.data[...] = w
    head.bias.data[...] = b
    Tr.zero_grads(head.trainables())
    sink = []
    return C.lm_head_forward(head, f, None, 0.0, sink.append if train else None), sink


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
        ref_loss, ref_grads = head_cross_entropy_dense(logits.head.embedding.data, logits.head.bias.data,
                                                       logits.features, targets)
        assert abs(loss.item() - ref_loss) <= 1e-12 * abs(ref_loss)
        for got, ref in zip((logits.head.embedding.grad, logits.head.bias.grad, sink[0]), ref_grads):
            assert rel(got, ref) <= 1e-12

    def test_head_gradient_over_column_blocks_matches_dense_reference(self, monkeypatch):
        # 50 vocabulary columns in blocks of 16: four blocks per chunk, the last partial
        monkeypatch.setattr(Tr, "HEAD_BLOCK_COLUMNS", 16)
        logits, sink, targets = self.operands(seed=9)
        loss = Tr.cross_entropy_loss(logits, targets)
        ref_loss, ref_grads = head_cross_entropy_dense(logits.head.embedding.data,
                                                       logits.head.bias.data,
                                                       logits.features, targets)
        assert abs(loss.item() - ref_loss) <= 1e-12 * abs(ref_loss)
        for got, ref in zip((logits.head.embedding.grad, logits.head.bias.grad, sink[0]),
                            ref_grads):
            assert rel(got, ref) <= 1e-12

    def test_gradient_overwrites_the_features_in_a_loop(self):
        # in a loop the feature gradient is the operand's top rows: each
        # chunk's columns are written after that chunk's last read, so the
        # loss and the gradients are those of fresh arrays, bit for bit, and
        # the gradient is left in the features after the loss
        fresh, fresh_sink, targets = self.operands(seed=5)
        expect = Tr.cross_entropy_loss(fresh, targets)
        with Workspace.loop() as ws:
            ws.begin()
            logits, sink, _ = self.operands(seed=5)
            loss = Tr.cross_entropy_loss(logits, targets)
        (df,) = sink
        assert df.shape == logits.features.shape
        assert df.ctypes.data == logits.operand.ctypes.data
        assert np.array_equal(logits.features, fresh_sink[0])
        assert np.array_equal(logits.operand[-1], np.ones(self.steps * self.batch))
        assert loss.item() == expect.item()
        for got, ref in ((logits.head.embedding.grad, fresh.head.embedding.grad),
                         (logits.head.bias.grad, fresh.head.bias.grad)):
            assert np.array_equal(got, ref)

    def test_features_are_left_as_they_were_outside_a_loop(self):
        logits, sink, targets = self.operands(seed=6)
        before = logits.operand.copy()
        Tr.cross_entropy_loss(logits, targets)
        assert np.array_equal(logits.operand, before)
        assert not np.shares_memory(sink[0], logits.operand)

    def test_tied_embedding_sums_scatter_and_head_gradients(self):
        head = C.make_head(self.vocab, self.emb, self.emb, tied=True, seed=2)
        head.bias.data[:] = np.random.default_rng(3).uniform(-1, 1, self.vocab)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, self.vocab, (self.steps, self.batch))
        targets = rng.integers(0, self.vocab, (self.steps, self.batch))
        feats = C.embed_tokens(head, ids, "dropped")
        logits = C.lm_head_forward(head, feats, None, 0.0,
                                   lambda g: C.embed_backward(head, ids, g))
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
        # weight's buffer, one block of vocabulary columns at a time: beside
        # that buffer it holds one chunk's logits and one block's product,
        # no weight-sized product and no second accumulator
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
        assert loss.requires_grad and len(sink) == 1 and logits.head.embedding.grad.any()
        block = 8 * (emb + 1) * Tr.HEAD_BLOCK_COLUMNS
        assert 2 * Tr.HEAD_BLOCK_COLUMNS > vocab > Tr.HEAD_BLOCK_COLUMNS   # two blocks
        assert peak < 1.1 * (8 * Tr.CE_CHUNK_ENTRIES + block) < logits.head.embedding.data.nbytes

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_logit_in_last_chunk_raises(self):
        logits, _, targets = self.operands(seed=6)
        logits.features[:, -1] = 1e300
        logits.head.embedding.data[0] = 1e300
        with pytest.raises(NumericError):
            Tr.cross_entropy_loss(logits, targets)

    def test_target_checks_fire_before_any_chunk(self):
        logits, _, targets = self.operands(seed=7)
        with pytest.raises(ShapeError):
            Tr.cross_entropy_loss(logits, targets[:-1])
        targets[-1, -1] = self.vocab
        with pytest.raises(ValidationError):
            Tr.cross_entropy_loss(logits, targets)


class TestBlockedSoftmax:
    """The softmax passes over row blocks of a position-major chunk, with
    several blocks per chunk in each orientation: vocab 50 over chunks of 6
    positions (the vocabulary is the longer side) and vocab 5 over chunks
    of 12 (the positions are)."""

    # (vocab, emb, steps, batch, steps per chunk, positions per block)
    LAYOUTS = {"vocab_longer": (50, 6, 7, 3, 2, 2),
               "positions_longer": (5, 4, 7, 4, 3, 5)}

    @pytest.fixture(params=sorted(LAYOUTS))
    def shape(self, request, monkeypatch):
        vocab, emb, steps, batch, chunk_steps, block = self.LAYOUTS[request.param]
        monkeypatch.setattr(Tr, "CE_CHUNK_ENTRIES", chunk_steps * batch * vocab)
        monkeypatch.setattr(Tr, "CE_BLOCK_ENTRIES", block * vocab)
        return vocab, emb, steps, batch, chunk_steps

    def operands(self, shape, seed, train):
        vocab, emb, steps, batch, _ = shape
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1, 1, (vocab, emb))
        b = rng.uniform(-1, 1, vocab)
        f = rng.uniform(-2, 2, (emb, steps * batch))
        targets = rng.integers(0, vocab, (steps, batch))
        logits, sink = head_operands(w, b, f, train=train)
        return logits, sink, targets

    def test_matches_dense_reference(self, shape):
        logits, sink, targets = self.operands(shape, 11, train=True)
        loss = Tr.cross_entropy_loss(logits, targets)
        ref_loss, ref_grads = head_cross_entropy_dense(logits.head.embedding.data, logits.head.bias.data,
                                                       logits.features, targets)
        assert abs(loss.item() - ref_loss) <= 1e-12 * abs(ref_loss)
        for got, ref in zip((logits.head.embedding.grad, logits.head.bias.grad, sink[0]), ref_grads):
            assert rel(got, ref) <= 1e-12

    def test_training_and_evaluation_losses_are_bitwise_equal(self, shape):
        recorded = Tr.cross_entropy_loss(*self.operands(shape, 12, train=True)[::2])
        loss = Tr.cross_entropy_loss(*self.operands(shape, 12, train=False)[::2])
        assert recorded.requires_grad and not loss.requires_grad
        assert loss.item() == recorded.item()

    def test_results_do_not_depend_on_the_block_size(self, shape, monkeypatch):
        # every pass is per position, so one block per chunk gives the same bits
        def run():
            logits, sink, targets = self.operands(shape, 14, train=True)
            loss = Tr.cross_entropy_loss(logits, targets)
            return loss.item(), logits.head.embedding.grad, logits.head.bias.grad, sink[0]

        blocked = run()
        monkeypatch.setattr(Tr, "CE_BLOCK_ENTRIES", Tr.CE_CHUNK_ENTRIES)
        whole = run()
        assert blocked[0] == whole[0]
        for got, ref in zip(blocked[1:], whole[1:]):
            assert np.array_equal(got, ref)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("train", [False, True])
    def test_non_finite_logit_in_a_middle_block_of_a_middle_chunk_raises(self, shape, train):
        _, _, steps, batch, chunk_steps = shape
        assert 2 * chunk_steps < steps   # the second chunk is not the last
        logits, _, targets = self.operands(shape, 13, train=train)
        # a position in the second block of the second chunk, one logit overflowing
        column = chunk_steps * batch + (chunk_steps * batch) // 2
        logits.features[:, column] = 1e300
        logits.head.embedding.data[1] = 1e300
        with pytest.raises(NumericError):
            Tr.cross_entropy_loss(logits, targets)


    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("train", [False, True])
    def test_lone_negative_infinite_logit_in_a_middle_block_raises(self, shape, train):
        # the row max shows NaN and +inf; a -inf logit needs the block's min
        vocab, _, steps, batch, chunk_steps = shape
        logits, _, targets = self.operands(shape, 15, train=train)
        column = chunk_steps * batch + (chunk_steps * batch) // 2
        logits.features[:, column] = 1e300
        logits.head.embedding.data[1] = -1e300
        targets.reshape(-1)[column] = 0   # the -inf logit is not the target's
        logits.head.embedding.data[0] = 0.0
        with pytest.raises(NumericError):
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

    def test_finite_gradients_whose_squares_overflow_are_still_clipped(self):
        # the sum of squares overflows to inf; the gradients are finite, so
        # they are clipped to max_norm in their own direction, not zeroed
        params = params_with_grads([[1e200, 1e200], [0.0, -3e199]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = Tr.clip_gradients(params, 0.25)
        assert 0.0 < factor < 1.0
        total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        assert abs(total - 0.25) <= 1e-12
        a, b = params[0].grad, params[1].grad
        assert a[0] == a[1] > 0.0 and b[0] == 0.0 and abs(b[1] / a[0] + 0.3) <= 1e-15

    def test_multi_block_head_order_gradient_scales_by_max_norm_over_its_norm(self):
        # the tied embedding is an F-order view of the head, several blocks long
        head = C.make_head(1001, 50, 50, tied=True, seed=11)
        Tr.zero_grads(head.trainables())
        g = head.embedding.grad
        g[...] = np.random.default_rng(11).standard_normal(g.shape)
        assert g.flags.f_contiguous and not g.flags.c_contiguous
        assert g.size > 3 * Tr.STEP_BLOCK_ENTRIES
        before = g.copy()
        expect = 0.25 / math.sqrt(float((before * before).sum()))
        factor = Tr.clip_gradients([head.embedding], 0.25)
        assert abs(factor - expect) <= 1e-15 * expect
        assert np.array_equal(g, before * factor)


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

    def test_in_place_step_matches_the_formula_bit_for_bit(self):
        # small parameters, and a C-order parameter and the head's F-order
        # embedding view that each span several blocks, the last one partial
        rng = np.random.default_rng(8)
        head = C.make_head(1001, 50, 50, tied=True, seed=10)
        Tr.zero_grads(head.trainables())
        head.embedding.grad[...] = rng.standard_normal(head.embedding.grad.shape)
        params = params_with_grads([rng.standard_normal((7, 5)), rng.standard_normal(3),
                                    rng.standard_normal((301, 170))]) + [head.embedding]
        for p in params:
            p.data[...] = rng.standard_normal(p.data.shape)
        assert head.embedding.data.flags.f_contiguous and not head.embedding.data.flags.c_contiguous
        assert all(p.data.size > 3 * Tr.STEP_BLOCK_ENTRIES and p.data.size % Tr.STEP_BLOCK_ENTRIES
                   for p in params[2:])
        cfg = Tr.TrainConfig(momentum=0.9, weight_decay=1e-3)
        opt = Tr.OptimizerState.for_params(params)
        expect = [(p.data.copy(), v.copy()) for p, v in zip(params, opt.velocities)]
        for _ in range(2):
            Tr.sgd_step(params, opt, 0.7, cfg)
            for (data, v), p in zip(expect, params):
                v[:] = cfg.momentum * v + (p.grad + cfg.weight_decay * data)
                data -= 0.7 * v
        for (data, v), p, got_v in zip(expect, params, opt.velocities):
            assert np.array_equal(p.data, data) and np.array_equal(got_v, v)


def test_clip_and_sgd_allocate_one_scratch_buffer():
    # the step runs in place: beside one block-sized scratch buffer,
    # clipping and SGD allocate nothing, however large the parameters
    rng = np.random.default_rng(9)
    params = params_with_grads([rng.standard_normal((300, 200)),
                                rng.standard_normal((200, 150)), rng.standard_normal(300)])
    cfg = Tr.TrainConfig()
    opt = Tr.OptimizerState.for_params(params)
    tracemalloc.start()
    try:
        assert Tr.clip_gradients(params, 1e-3) < 1.0
        Tr.sgd_step(params, opt, 0.5, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params[0].data.size > 3 * Tr.STEP_BLOCK_ENTRIES
    assert peak <= 1.1 * 8 * Tr.STEP_BLOCK_ENTRIES


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
    def test_diverging_epoch_reports_inf_perplexity(self, monkeypatch):
        # the first window's loss is finite but past exp's range (ppl inf),
        # the huge step then overflows the second window: the epoch raises
        model = small_model(seed=8, dropout=0.0)
        model.head.bias.data[:] = 2000.0 * (np.arange(6) == 5)
        stream = tiny_corpus(500)
        stream[stream == 5] = 0
        batches = D.batchify(stream, 4, 8)[:2]
        cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, seed=8)
        opt = Tr.OptimizerState.for_params(model.parameters())
        losses, cross_entropy = [], Tr.cross_entropy_loss

        def recording_cross_entropy(logits, targets):
            losses.append(cross_entropy(logits, targets).item())
            return Tr.Loss(losses[-1], True)

        monkeypatch.setattr(Tr, "cross_entropy_loss", recording_cross_entropy)
        with pytest.raises(NumericError):
            Tr.train_epoch(model, batches, cfg, opt, lr=1e300)
        assert losses[0] > 1000.0 and Tr.perplexity(losses[0]) == math.inf


def test_window_graph_released_before_next_forward(monkeypatch):
    # the previous window's logits hold its operand [f; 1] and every
    # layer's saved arrays; none may outlive the window (the reference is
    # to the stored operand: ``features`` is a new view at each access)
    model = small_model(seed=9, dropout=0.2)
    batches = D.batchify(tiny_corpus(), 4, 8)[:3]
    cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, seed=9)
    refs, alive = [], []
    cross_entropy, forward = Tr.cross_entropy_loss, model.forward

    def recording_cross_entropy(logits, targets):
        refs.append(weakref.ref(logits.operand))
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


@pytest.mark.parametrize("family", ["rnn", "gru", "lstm"])
def test_windows_read_the_row_map_built_with_the_specs(monkeypatch, family):
    # the restriction is a static row map: once the model is built, no
    # training or evaluation window asks the plan for a view's rows again
    model = LanguageModel(family, 6, layers=3, hidden=8, emb=8, rates=0.25, tied=True, dropout=0.2,
                          seed=14)
    batches = D.batchify(tiny_corpus(), 4, 8)[:3]
    cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, seed=14)
    opt = Tr.OptimizerState.for_params(model.parameters())
    Tr.train_epoch(model, batches[:1], cfg, opt, lr=0.1)
    calls, view_rows = [], R.RestrictionPlan.view_rows

    def counting_view_rows(plan, i, j):
        calls.append((i, j))
        return view_rows(plan, i, j)

    monkeypatch.setattr(R.RestrictionPlan, "view_rows", counting_view_rows)
    Tr.train_epoch(model, batches, cfg, opt, lr=0.1)
    Tr.evaluate(model, batches)
    assert calls == []
    model.plans[0].view_rows(0, 0)   # the count sees a call
    assert calls == [(0, 0)]


def test_window_peak_memory_below_one_logits_block(monkeypatch):
    # the logits of a window are 8 chunks: a window's peak stays below the
    # one dense block that a separate head node would hold (and the
    # exp(z - m) block beside it that a separate loss node would keep)
    vocab, batch, steps = 4000, 8, 16
    monkeypatch.setattr(Tr, "CE_CHUNK_ENTRIES", 2 * vocab * batch)
    model = LanguageModel("gru", vocab, layers=1, hidden=8, emb=8, rates=0.5, tied=True,
                          dropout=0.2, seed=12)
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
    assert np.isfinite(em["loss"])
    assert peak < logits_bytes


def test_window_graph_is_one_node_per_stage(monkeypatch):
    # one layer pass per layer; the carried states are plain arrays that
    # share no memory with any layer's window output or the features, so
    # they do not keep the window's arrays alive
    model = LanguageModel("lstm", 6, layers=2, hidden=8, emb=8, rates=0.5, tied=True, dropout=0.2,
                          seed=10)
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


def loop_windows(batches, in_loop):
    """The batches, as a loop of the thread's workspace would run them
    when ``in_loop``, else on fresh arrays."""
    if not in_loop:
        yield from batches
        return
    with Workspace.loop() as ws:
        for batch in batches:
            ws.begin()
            yield batch


def run_windows(model, train_b, valid_b, in_loop):
    """Training windows, then an evaluation, the steps of ``train_epoch``
    and ``evaluate``, in the thread's workspace when ``in_loop``; returns
    every window's loss and states, then the parameters."""
    params = model.parameters()
    cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, seed=3)
    opt = Tr.OptimizerState.for_params(params)
    rng = np.random.default_rng([cfg.seed, 0, 0x5EED])
    out = []

    def record(loss, states):
        out.append(loss.item())
        out.extend(part.copy() for st in states for part in (st.h, st.c) if part is not None)

    states = model.init_state(4)
    for batch in loop_windows(train_b, in_loop):
        Tr.zero_grads(params)
        logits, states = model.forward(batch.inputs, states, train=True, rng=rng)
        record(Tr.cross_entropy_loss(logits, batch.targets), states)
        Tr.clip_gradients(params, cfg.clip_norm)
        Tr.sgd_step(params, opt, 0.5, cfg)
    states = model.init_state(4)
    for batch in loop_windows(valid_b, in_loop):
        logits, states = model.forward(batch.inputs, states)
        record(Tr.cross_entropy_loss(logits, batch.targets), states)
    return out + [p.data.copy() for p in params]


def short_last_windows(seed):
    # 22 columns of batch 4: windows of 8, 8 and 5 steps
    batches = D.batchify(tiny_corpus(88, seed=seed), 4, 8)
    assert [len(b.inputs) for b in batches] == [8, 8, 5]
    return batches


def check_windows_match_fresh_arrays(family, dropout, tied):
    results = []
    for in_loop in (True, False):
        model = LanguageModel(family, 6, layers=2, hidden=8, emb=8 if tied else 5, rates=0.5,
                              tied=tied, dropout=dropout, seed=21)
        results.append(run_windows(model, short_last_windows(1), short_last_windows(2),
                                   in_loop))
    got, expect = results
    assert len(got) == len(expect)
    assert all(np.array_equal(a, b) for a, b in zip(got, expect))


@pytest.mark.parametrize("family", ["rnn", "gru", "lstm"])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("tied", [True, False])
def test_workspace_windows_match_fresh_arrays(family, dropout, tied):
    # consecutive windows in the workspace's slots give, bit for bit, the
    # losses, states and parameters of the same loop on fresh arrays;
    # untied with emb != hidden, the two layers' inputs differ in size
    check_windows_match_fresh_arrays(family, dropout, tied)


@pytest.mark.parametrize("family", ["rnn", "gru", "lstm"])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("tied", [True, False])
def test_workspace_windows_of_one_step_blocks_match_fresh_arrays(monkeypatch, family,
                                                                 dropout, tied):
    # the same with each layer's window products run a step at a time: in
    # a loop each block's input gradient is written over its g's columns,
    # also layer 0's when, untied, its input is not as wide as its g
    monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES", 1)
    check_windows_match_fresh_arrays(family, dropout, tied)


def test_train_epoch_and_evaluate_match_fresh_arrays(monkeypatch):
    # the loops' workspace changes no result
    model = LanguageModel("gru", 6, layers=2, hidden=8, emb=8, rates=0.5, tied=True, dropout=0.2,
                          seed=22)
    expect = run_windows(model, short_last_windows(1), short_last_windows(2), False)
    losses, cross_entropy = [], Tr.cross_entropy_loss

    def recorder(logits, targets):
        loss = cross_entropy(logits, targets)
        losses.append(loss.item())
        return loss

    monkeypatch.setattr(Tr, "cross_entropy_loss", recorder)
    model = LanguageModel("gru", 6, layers=2, hidden=8, emb=8, rates=0.5, tied=True, dropout=0.2,
                          seed=22)
    params = model.parameters()
    cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, seed=3)
    Tr.train_epoch(model, short_last_windows(1), cfg, Tr.OptimizerState.for_params(params), 0.5)
    Tr.evaluate(model, short_last_windows(2))
    assert losses == [x for x in expect if isinstance(x, float)]
    assert all(np.array_equal(p.data, e) for p, e in zip(params, expect[-len(params):]))


def test_stale_window_raises():
    # the next window overwrites the slots the last one's backward pass
    # reads: it raises, directly or from the loss, before any layer's
    # gradient changes
    model = small_model(seed=23, dropout=0.2)
    batches = D.batchify(tiny_corpus(), 4, 8)[:2]
    params = model.parameters()
    Tr.zero_grads(params)
    rng = np.random.default_rng(24)
    with Workspace.loop() as ws:
        ws.begin()
        old, states = model.forward(batches[0].inputs, model.init_state(4), train=True,
                                    rng=rng)
        ws.begin()
        new, _ = model.forward(batches[1].inputs, states, train=True, rng=rng)
        with pytest.raises(StateError):
            old.backward(np.ones(old.features.shape))
        with pytest.raises(StateError):
            Tr.cross_entropy_loss(old, batches[0].targets)
        assert not any(p.grad.any() for pool in model.pools for p in pool.trainables())
        Tr.zero_grads(params)
        assert Tr.cross_entropy_loss(new, batches[1].targets).requires_grad
    assert all(p.grad.any() for p in params)


class WindowPeaks:
    """A batch list that records, per window, the peak of the memory that
    tracemalloc saw allocated on top of what was live when it began."""

    def __init__(self, batches):
        self.batches = batches
        self.peaks = []

    def __len__(self):
        return len(self.batches)

    def __getitem__(self, i):
        return self.batches[i]

    def __iter__(self):
        for batch in self.batches:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            yield batch
            self.peaks.append(tracemalloc.get_traced_memory()[1] - base)


@pytest.mark.parametrize("family", ["gru", "lstm"])
def test_later_windows_and_loops_reuse_the_first_windows_memory(family):
    # on a new thread the workspace starts empty: its first training window
    # fills it, and every later window takes its arrays from it and
    # allocates only small temporaries, in the same loop, in an evaluation
    # of another model and in the next training loop
    model, other = (LanguageModel(family, 50, layers=2, hidden=32, emb=32, rates=0.5, tied=True,
                                  dropout=0.2, seed=seed) for seed in (25, 26))
    batches = D.batchify(tiny_corpus(4000, vocab=50), 16, 32)
    train, valid, again = WindowPeaks(batches[:3]), WindowPeaks(batches[3:5]), \
        WindowPeaks(batches[5:7])
    params = model.parameters()
    Tr.zero_grads(params)   # the gradient buffers are allocated before window 1
    cfg = Tr.TrainConfig(batch_size=16, bptt_len=32, seed=25)
    opt = Tr.OptimizerState.for_params(params)
    errors = []

    def loops():
        try:
            Tr.train_epoch(model, train, cfg, opt, 0.5)
            Tr.evaluate(other, valid)
            Tr.train_epoch(model, again, cfg, opt, 0.5, epoch=1)
        except Exception as err:   # re-raised on the test's thread
            errors.append(err)

    tracemalloc.start()
    try:
        thread = threading.Thread(target=loops)
        thread.start()
        thread.join()
    finally:
        tracemalloc.stop()
    assert not errors, errors
    first, *later = train.peaks + valid.peaks + again.peaks
    assert len(later) == 6
    assert max(later) < first / 4


@pytest.mark.parametrize("family", ["rnn", "gru", "lstm"])
def test_training_window_keeps_one_copy_of_what_its_backward_reads(family):
    # each layer of a training window keeps h and the step arrays its
    # backward pass reads, and nothing that pass can recompute: no LSTM
    # tanh(c) or hidden pre-activation, an LSTM c only at the start of its
    # one block and c_T, no GRU z beside rz and no GRU hidden
    # pre-activation, which its backward pass makes again from h.  The
    # LSTM's block of c, one per window, has the block's steps plus one.  A
    # new thread's workspace holds exactly what one window asked for.
    steps, batch, hidden = 6, 4, 8
    model = LanguageModel(family, 20, layers=2, hidden=hidden, emb=hidden, rates=0.5, tied=True,
                          dropout=0.2, seed=27)
    batches = D.batchify(tiny_corpus(500, vocab=20), batch, steps)[:1]
    cfg = Tr.TrainConfig(batch_size=batch, bptt_len=steps, seed=27)
    opt = Tr.OptimizerState.for_params(model.parameters())
    slots, errors = [], []

    def window():
        try:
            Tr.train_epoch(model, batches, cfg, opt, 0.5)
            with Workspace.loop() as ws:
                slots.append(ws.nbytes())
        except Exception as err:   # re-raised on the test's thread
            errors.append(err)

    thread = threading.Thread(target=window)
    thread.start()
    thread.join()
    assert not errors, errors
    expect = {}
    for n, plan in enumerate(model.plans):
        s = min(min(row) for row in plan.s)
        q = hidden - s
        assert 0 < s < hidden
        # name -> entries: (T+1) states, 1 + 1 block states, or T steps of
        # a (rows x B) block
        kept = {"rnn": {"h": (steps + 1) * hidden},
                "lstm": {"h": (steps + 1) * hidden, "c": 2 * hidden,
                         "sig": steps * (s + 3 * q), "g": steps * hidden},
                "gru": {"h": (steps + 1) * hidden, "rz": steps * (s + 2 * q),
                        "n": steps * hidden}}[family]
        expect.update({(name, n): 8 * entries * batch for name, entries in kept.items()})
    per_layer = {key: size for key, size in slots[0].items()
                 if isinstance(key, tuple) and key[0] != "mask" and key[1] >= 0}
    assert per_layer == expect
    block = {("c", -1): 8 * (steps + 1) * hidden * batch} if family == "lstm" else {}
    assert {key: size for key, size in slots[0].items() if key == ("c", -1)} == block


@pytest.mark.parametrize("family", ["rnn", "gru", "lstm"])
def test_workspace_holds_exactly_the_slot_table(monkeypatch, family):
    # one training window, then one evaluation window, from an empty
    # workspace on a new thread: the workspace holds WINDOW_SLOTS' shared
    # slots, each at its largest role's size, and the keyed slots, nothing
    # else.  No window keeps the embedding ("h", -1) or a copy of the
    # features ("features" or "chunk" beside "b"): the loss reads its
    # operand [f; 1] from "b", and the evaluation runs in layer 0's slots.
    # The layers' window products run over blocks of 4 and 2 steps, and
    # each layer's input gradient takes its g's memory in "b".  An LSTM
    # layer keeps c at the start of each block and c_T, and runs a block's
    # steps in the layers' one ("c", -1)
    steps, batch, hidden, vocab = 6, 4, 8, 20
    columns, block = steps * batch, 4 * batch
    model = LanguageModel(family, vocab, layers=2, hidden=hidden, emb=hidden, rates=0.5, tied=True,
                          dropout=0.2, seed=28)
    monkeypatch.setattr(C, "WINDOW_BLOCK_ENTRIES",
                        block * max(len(rows) for rows in model.specs[0].compact[1]))
    train_b, valid_b = D.batchify(tiny_corpus(500, vocab=vocab), batch, steps)[:2]
    cfg = Tr.TrainConfig(batch_size=batch, bptt_len=steps, seed=28)
    params = model.parameters()
    opt = Tr.OptimizerState.for_params(params)
    slots, errors = [], []

    def windows():
        try:
            Tr.train_epoch(model, [train_b], cfg, opt, 0.5)
            Tr.evaluate(model, [valid_b])
            with Workspace.loop() as ws:
                slots.append(ws.nbytes())
        except Exception as err:   # re-raised on the test's thread
            errors.append(err)

    thread = threading.Thread(target=windows)
    thread.start()
    thread.join()
    assert not errors, errors
    rows = [tuple(map(len, spec.compact[1])) for spec in model.specs]
    expect = {
        # the layers' masks drawn a step at a time, then the features'; each
        # layer's projection and input-side gradient of a block; the chunk
        # logits
        "a": 8 * max([2 * hidden * batch, hidden * batch] + [rx * block for rx, _ in rows]
                     + [columns * vocab]),
        # the operand [f; 1]: the embedding, the dropped-out inputs, the
        # feature gradient and the inputs' gradients are a row narrower
        "b": 8 * (hidden + 1) * columns,
        # a head product block; a GRU layer's hidden-side gradient of a
        # block; the clip and SGD scratch
        "c": 8 * max([(hidden + 1) * vocab]
                     + ([rh * block for _, rh in rows] if family == "gru" else [])
                     + [min(Tr.STEP_BLOCK_ENTRIES, max(p.data.size for p in params))]),
        # a layer's dropped-out input of a block, made again in its backward
        "d": 8 * hidden * block,
        ("gh", -1): 8 * max(rh for _, rh in rows) * batch,
    }
    if family == "lstm":
        expect[("c", -1)] = 8 * (4 + 1) * hidden * batch
    expect.update({("mask", n): hidden * columns for n in range(3)})
    for n, plan in enumerate(model.plans):
        s = min(min(row) for row in plan.s)
        q = hidden - s
        kept = {"rnn": {"h": (steps + 1) * hidden},
                "lstm": {"h": (steps + 1) * hidden, "c": (2 + 1) * hidden,
                         "sig": steps * (s + 3 * q), "g": steps * hidden},
                "gru": {"h": (steps + 1) * hidden, "rz": steps * (s + 2 * q),
                        "n": steps * hidden}}[family]
        expect.update({(name, n): 8 * entries * batch for name, entries in kept.items()})
    assert slots[0] == expect


def test_reference_shaped_window_holds_one_block_in_slot_a():
    # the reference shape, a 3 x 200 LSTM at r = 0.5 over 35 steps of batch
    # 80, on a new thread's empty workspace: slot "a" holds one block of 6
    # steps of the 500 compact rows (1.8 MiB), not the window's compact
    # gates (35 steps, 10.7 MiB); the logits chunk of 50 words is smaller
    steps, batch, hidden = 35, 80, 200
    model = LanguageModel("lstm", 50, layers=3, hidden=hidden, emb=hidden, rates=0.5, tied=True,
                          dropout=0.2, seed=29)
    train_b = D.batchify(tiny_corpus(batch * (steps + 1), vocab=50), batch, steps)[:1]
    cfg = Tr.TrainConfig(batch_size=batch, bptt_len=steps, seed=29)
    opt = Tr.OptimizerState.for_params(model.parameters())
    slots, errors = [], []

    def window():
        try:
            Tr.train_epoch(model, train_b, cfg, opt, 0.5)
            with Workspace.loop() as ws:
                slots.append(ws.nbytes())
        except Exception as err:   # re-raised on the test's thread
            errors.append(err)

    thread = threading.Thread(target=window)
    thread.start()
    thread.join()
    assert not errors, errors
    rows = len(model.specs[0].compact[1][0])
    assert rows == 500
    assert slots[0]["a"] == 8 * rows * 6 * batch <= 8 * C.WINDOW_BLOCK_ENTRIES


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
