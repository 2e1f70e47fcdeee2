import json

import numpy as np
import pytest

from rrnn import data as D
from rrnn import training as Tr
from rrnn.errors import ConfigError
from rrnn.model import LanguageModel


def test_tied_requires_matching_sizes():
    with pytest.raises(ConfigError):
        LanguageModel("lstm", 50, layers=1, hidden=16, emb=8, tied=True)


def test_layer_chain_sizes():
    m = LanguageModel("gru", 50, layers=3, hidden=12, emb=12, rates=0.5, tied=True)
    assert m.specs[0].input_size == 12
    assert all(s.input_size == 12 for s in m.specs[1:])


def test_parameter_list_tied_vs_untied():
    tied = LanguageModel("rnn", 30, layers=2, hidden=8, emb=8, tied=True)
    untied = LanguageModel("rnn", 30, layers=2, hidden=8, emb=6, tied=False)
    # 2 pools x (W, b) + embedding + bias (+ decoder when untied)
    assert len(tied.parameters()) == 6
    assert len(untied.parameters()) == 7


def test_untied_head_over_wider_hidden_trains_and_round_trips(tmp_path):
    # emb 8 < hidden 16: the decoder is (vocab, hidden), the features' width
    m = LanguageModel("gru", 20, layers=2, hidden=16, emb=8, tied=False, seed=5)
    assert m.head.decoder.data.shape == (20, 16)
    stream = np.random.default_rng(5).integers(0, 20, 400).astype(np.int32)
    batches = D.batchify(stream, 4, 8)[:1]
    cfg = Tr.TrainConfig(batch_size=4, bptt_len=8, epochs=1, seed=5)
    em = Tr.train_epoch(m, batches, cfg, Tr.OptimizerState.for_params(m.parameters()), lr=0.5)
    assert "aborted" not in em and np.isfinite(em["loss"])
    path = tmp_path / "untied.npz"
    m.save(path)
    back = LanguageModel.load(path)
    assert not back.tied
    assert all(np.array_equal(a.data, b.data) for a, b in zip(m.parameters(), back.parameters()))
    assert Tr.evaluate(back, batches) == Tr.evaluate(m, batches)


def test_recurrent_counts_sum_layers():
    m = LanguageModel("lstm", 30, layers=3, hidden=200, emb=200, rates=0.5, tied=True)
    per_layer, total = m.recurrent_counts()
    assert [c.restricted for c in per_layer] == [180_900] * 3
    assert total.restricted == 542_700


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = LanguageModel("lstm", 40, layers=2, hidden=10, emb=10, rates=0.5,
                      tied=True, dropout=0.2, seed=11,
                      id_to_token=[f"t{i}" for i in range(40)])
    path = tmp_path / "model.npz"
    m.save(path)
    back = LanguageModel.load(path)
    for a, b in zip(m.parameters(), back.parameters()):
        assert np.array_equal(a.data, b.data)
    assert back.id_to_token == m.id_to_token
    assert back.family == "lstm" and back.tied


def test_checkpoint_records_mode(tmp_path):
    m = LanguageModel("gru", 12, layers=1, hidden=6, emb=6, seed=2, mode="word")
    m.save(tmp_path / "model.npz")
    assert LanguageModel.load(tmp_path / "model.npz").mode == "word"


def test_version1_checkpoint_loads(tmp_path):
    m = LanguageModel("lstm", 12, layers=2, hidden=6, emb=6, seed=3, mode="char")
    path = tmp_path / "model.npz"
    m.save(path)
    with np.load(path) as npz:
        arrays = dict(npz)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["format_version"] = 1
    del meta["mode"]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    back = LanguageModel.load(path)
    assert back.mode is None
    assert all(np.array_equal(a.data, b.data) for a, b in zip(m.parameters(), back.parameters()))


@pytest.mark.parametrize("key", ["layer1_W", "layer0_b", "embedding", "head_bias", "decoder"])
def test_load_rejects_array_of_wrong_shape(tmp_path, key):
    m = LanguageModel("lstm", 12, layers=2, hidden=6, emb=6, tied=False, seed=4)
    path = tmp_path / "model.npz"
    m.save(path)
    with np.load(path) as npz:
        arrays = dict(npz)
    arrays[key] = arrays[key][:-1]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigError, match=key):
        LanguageModel.load(path)


def test_checkpoint_preserves_eval_metrics(tmp_path):
    rng = np.random.default_rng(12)
    stream = rng.integers(0, 20, 1500).astype(np.int32)
    batches = D.batchify(stream, 4, 10)
    m = LanguageModel("gru", 20, layers=1, hidden=8, emb=8, rates=0.5,
                      tied=True, dropout=0.0, seed=12)
    before = Tr.evaluate(m, batches)
    path = tmp_path / "model.npz"
    m.save(path)
    after = Tr.evaluate(LanguageModel.load(path), batches)
    assert before == after


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    m = LanguageModel("gru", 20, layers=1, hidden=8, emb=8, rates=0.5,
                      tied=True, dropout=0.0, seed=14)
    path = tmp_path / "model.npz"
    m.save(path)
    before, w_saved = path.read_bytes(), m.pools[0].W.data.copy()

    def savez_dies_mid_write(fh, **arrays):
        fh.write(b"PK partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_dies_mid_write)
    m.pools[0].W.data += 1.0
    with pytest.raises(OSError, match="disk full"):
        m.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert np.array_equal(LanguageModel.load(path).pools[0].W.data, w_saved)
    assert list(tmp_path.iterdir()) == [path]


def test_forward_shapes():
    m = LanguageModel("lstm", 25, layers=2, hidden=8, emb=8, rates=0.5,
                      tied=True, dropout=0.0)
    ids = np.random.default_rng(13).integers(0, 25, (5, 3))
    logits, states = m.forward(ids, m.init_state(3))
    assert logits.shape == (25, 5 * 3)
    assert states[0].c is not None and states[0].h.shape == (8, 3)
