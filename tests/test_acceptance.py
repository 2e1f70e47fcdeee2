"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Quantitative targets are pinned here, including the
published per-model complexity table (unit: millions, 3 decimals) which
the recurrent counts must reproduce once the 10,000-entry output softmax
bias is included.

Run just this file with:  pytest tests/test_acceptance.py -v -s
"""

import math
from pathlib import Path

import numpy as np
import pytest

from rrnn import cells as C
from rrnn import data as D
from rrnn import restriction as R
from rrnn import training as Tr
from rrnn.gradcheck import run_gradcheck
from rrnn.model import LanguageModel
from rrnn.tensor import Parameter

from oracles import assemble_dense_weights, dense_cell_step

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
RATE_GRID = [0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1]
OUTPUT_BIAS = 10_000  # vocab-size softmax bias folded into published totals

# published complexity table, millions, by family then rate
COMPLEXITY_TABLE = {
    "rnn": {1: 0.130, 0.95: 0.136, 0.9: 0.142, 0.7: 0.167, 0.5: 0.191,
            0.3: 0.215, 0.1: 0.239, 0: 0.251},
    "gru": {1: 0.130, 0.95: 0.161, 0.9: 0.191, 0.7: 0.311, 0.5: 0.432,
            0.3: 0.553, 0.1: 0.673, 0: 0.733},
    "lstm": {1: 0.130, 0.95: 0.173, 0.9: 0.215, 0.7: 0.384, 0.5: 0.553,
             0.3: 0.721, 0.1: 0.890, 0: 0.975},
}
GATES = {"rnn": 1, "gru": 3, "lstm": 4}


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def recurrent_total(family, r, layers=3, d=200, k=200):
    n = GATES[family]
    plan = R.plan_restriction(2, n, d, [k, d], [[r] * n] * 2)
    return layers * R.count_parameters(plan).restricted


def test_parameter_count_reproduction():
    worst = 0.0
    for family, row in COMPLEXITY_TABLE.items():
        n = GATES[family]
        for r in RATE_GRID:
            total = recurrent_total(family, r)
            published_m = row[r]
            diff_m = abs((total + OUTPUT_BIAS) / 1e6 - published_m)
            worst = max(worst, diff_m)
            assert diff_m <= 0.001, (family, r, total, published_m)
            # pure recurrent counts also match the closed form exactly
            s = R.round_half_away(r * 200)
            plan = R.plan_restriction(2, n, 200, [200, 200], [[r] * n] * 2)
            c = R.count_parameters(plan)
            assert c.restricted == c.unrestricted - (2 * n - 1) * s * 201
    report("parameter-count reproduction (3 families x 8 rates, +/-0.001M)",
           True, f"worst diff {worst:.6f}M")


def test_compression_rate_formulas():
    for r in RATE_GRID:
        plan = R.plan_restriction(2, 1, 200, [200, 200], [[r], [r]])
        assert R.compression_rate(plan) == (2 - r) / 2
    for family in ("gru", "lstm"):
        n = GATES[family]
        for r in RATE_GRID:
            s = R.round_half_away(r * 200)
            plan = R.plan_restriction(2, n, 200, [200, 200], [[r] * n] * 2)
            expect = (2 * n * 200 - (2 * n - 1) * s) / (2 * n * 200)
            assert R.compression_rate(plan) == expect
    assert R.compression_rate(R.plan_restriction(2, 1, 200, [200, 200], [[1.0], [1.0]])) == 0.5
    assert R.compression_rate(R.plan_restriction(2, 1, 200, [200, 200], [[0.0], [0.0]])) == 1.0
    report("compression-rate closed forms (exact)", True)


def test_dense_assembly_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        family = ["rnn", "gru", "lstm"][trial % 3]
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        r = [0, 0.25, 0.5, 1][trial % 4]
        spec = C.CellSpec.uniform(family, k, d, r)
        plan = spec.make_plan()
        pool = R.build_pool(plan, seed=int(rng.integers(10 ** 9)))
        x = rng.uniform(-1, 1, (k, 3))
        h = rng.uniform(-1, 1, (d, 3))
        c = rng.uniform(-1, 1, (d, 3)) if family == "lstm" else None
        _, out, _ = C.layer_forward(spec, pool, plan, x, C.CellState(h, c))
        gates = assemble_dense_weights(pool.W.data, pool.b.data, plan)
        eh, ec = dense_cell_step(family, gates, x, h, c)
        worst = max(worst, np.abs(out.h - eh).max())
        if ec is not None:
            worst = max(worst, np.abs(out.c - ec).max())
    assert worst < 1e-12
    report("dense-assembly oracle equivalence (200 random configs)",
           True, f"max abs diff {worst:.2e}")


def test_gradient_correctness():
    worst = 0.0
    for family in ("rnn", "gru", "lstm"):
        for r in (0, 0.5, 1):
            rep = run_gradcheck(family, 4, 4, r, seed=13)
            worst = max(worst, rep.max_rel_error)
            assert rep.passed, (family, r, rep.max_rel_error)
    # shared entries receive the sum of per-view paths: at r=1 the finite
    # difference perturbs one storage location feeding every view at once,
    # so the passing check above already covers the summed path gradient.
    # Make the fan-in explicit for the vanilla cell too:
    spec = C.CellSpec.uniform("rnn", 3, 3, 1.0)
    plan = spec.make_plan()
    pool = R.build_pool(plan, seed=14)
    rng = np.random.default_rng(15)
    v = rng.uniform(-1, 1, (3, 2))
    feats, _, backward = C.layer_forward(spec, pool, plan, v, C.CellState(v))
    Tr.zero_grads(pool.trainables())
    backward(np.ones_like(feats))   # the gradient of sum(feats)
    pre = pool.W.data[:3, :3] @ (2 * v) + 2 * pool.b.data[:3, None]
    sech2 = 1 - np.tanh(pre) ** 2
    single_path = sech2 @ v.T  # gradient through one view only
    assert np.allclose(pool.W.grad[:3, :3], 2 * single_path, atol=1e-12)
    report("gradient correctness (3 families x r in {0, 0.5, 1})",
           True, f"max rel error {worst:.2e}")


def test_aliasing_exhaustive():
    for family in ("rnn", "gru", "lstm"):
        spec = C.CellSpec.uniform(family, 4, 4, 0.5)
        plan = spec.make_plan()
        pool = R.build_pool(plan, seed=21)

        def materialize():
            return {(i, j): (pool.W.data[plan.view_rows(i, j)][:, :4].copy(),
                             pool.b.data[plan.view_rows(i, j)].copy())
                    for i in range(2) for j in range(plan.n)}

        base = materialize()
        shared_rows = plan.s_r
        for row in range(plan.d_r):
            for col in range(5):  # 4 weight columns + the bias entry
                arr, idx = (pool.W.data, (row, col)) if col < 4 else (pool.b.data, row)
                orig = arr[idx]
                arr[idx] = orig + 1.0
                changed = [key for key, (w, b) in materialize().items()
                           if not (np.array_equal(w, base[key][0])
                                   and np.array_equal(b, base[key][1]))]
                arr[idx] = orig
                if row < shared_rows:
                    aliased = [(i, j) for i in range(2) for j in range(plan.n)
                               if row < plan.s[i][j]]
                    assert sorted(changed) == sorted(aliased), (family, row, col)
                    assert len(changed) == 2 * plan.n  # uniform rate: all views
                else:
                    assert len(changed) == 1, (family, row, col)
    report("aliasing exhaustive at d=k=4 (shared rows hit all views, "
           "private rows hit exactly one)", True)


def _train_family(family, rate, seed, epochs=5):
    stream = D.load_splits(CORPUS / "train.txt", CORPUS / "valid.txt", mode="char")
    cfg = Tr.TrainConfig(epochs=epochs, batch_size=80, bptt_len=35, lr0=0.5, seed=seed)
    train_b = D.batchify(stream.train, cfg.batch_size, cfg.bptt_len)
    valid_b = D.batchify(stream.valid, cfg.batch_size, cfg.bptt_len)
    model = LanguageModel(family, stream.vocab.size, layers=1, hidden=64, emb=64,
                          rates=rate, tied=True, dropout=0.2, seed=seed)
    records = Tr.fit(model, train_b, valid_b, cfg)
    return model, records


def test_training_smoke():
    results = {}
    for family in ("rnn", "gru", "lstm"):
        model, records = _train_family(family, 0.5, seed=42)
        losses = [rec["train_loss"] for rec in records]
        assert all(a > b for a, b in zip(losses, losses[1:])), (family, losses)
        results[family] = (model, records)
    report("training smoke (a): every family, 5 epochs, strictly decreasing "
           "train loss", True,
           ", ".join(f"{f} ppl {r[-1]['train_ppl']:.2f}" for f, (m, r) in results.items()))

    # (b) restricted LSTM vs unrestricted at identical seed and budget
    base_model, base_records = _train_family("lstm", 0.0, seed=42)
    restricted_model, restricted_records = results["lstm"]
    ppl_restricted = restricted_records[-1]["valid_ppl"]
    ppl_base = base_records[-1]["valid_ppl"]
    _, restricted_counts = restricted_model.recurrent_counts()
    _, base_counts = base_model.recurrent_counts()
    param_ratio = restricted_counts.restricted / base_counts.restricted
    assert ppl_restricted <= 1.3 * ppl_base, (ppl_restricted, ppl_base)
    assert param_ratio <= 0.62, param_ratio
    report("training smoke (b): restricted LSTM within 1.3x valid ppl at "
           "<= 62% recurrent params", True,
           f"ppl {ppl_restricted:.2f} vs {ppl_base:.2f}, params {param_ratio:.4f}")

    # (c) identical seeds reproduce identical metric streams
    _, replay = _train_family("rnn", 0.5, seed=42)
    original = results["rnn"][1]
    for a, b in zip(original, replay):
        for key in ("train_loss", "train_ppl", "valid_loss", "valid_ppl", "clip_rate"):
            assert a[key] == b[key], key
    report("training smoke (c): identical seeds give identical metric streams", True)


def test_schedule_and_clipping():
    assert Tr.cosine_lr(0, 100, 1.0) == 1.0
    assert Tr.cosine_lr(100, 100, 1.0) == 0.0 or abs(Tr.cosine_lr(100, 100, 1.0)) < 1e-16
    assert Tr.cosine_lr(50, 100, 1.0) == 0.5

    rng = np.random.default_rng(31)
    for _ in range(50):
        params = []
        for _ in range(3):
            p = Parameter(np.zeros(4))
            p.grad = rng.normal(0, 1, 4)
            params.append(p)
        factor = Tr.clip_gradients(params, 0.25)
        norm = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        if factor < 1.0:
            assert norm <= 0.25 + 1e-12

    p = Parameter(np.array([0.0]))
    cfg = Tr.TrainConfig(momentum=0.9, weight_decay=0.0)
    opt = Tr.OptimizerState.for_params([p])
    p.grad = np.array([1.0])
    Tr.sgd_step([p], opt, 1.0, cfg)
    first = p.data[0]
    p.grad = np.array([1.0])
    Tr.sgd_step([p], opt, 1.0, cfg)
    assert first == -1.0 and abs(p.data[0] - (-2.9)) < 1e-15
    report("schedule and clipping (cosine endpoints, post-clip norm <= 0.25, "
           "SGD recursion -1/-1.9)", True)


def test_tied_embedding_accounting():
    def count(head):
        return sum(p.data.size for p in head.trainables())

    tied = C.make_head(10_000, 200, 200, tied=True)
    untied = C.make_head(10_000, 200, 200, tied=False)
    assert count(untied) - count(tied) == 10_000 * 200
    assert count(tied) == 2_010_000
    report("tied-embedding accounting (tying removes vocab x emb; head is "
           "2.01M at 10k x 200)", True)
