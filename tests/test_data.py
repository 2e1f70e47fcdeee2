import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrnn import data as D
from rrnn.errors import ValidationError


class TestVocabulary:
    def test_word_mode_counts(self):
        vocab = D.build_vocab(["a", "b", "a"], add_unk=False)
        assert vocab.size == 2 and vocab.unk_id is None
        vocab = D.build_vocab(["a", "b", "a"], add_unk=True)
        assert vocab.size == 3 and vocab.unk_id is not None

    def test_char_mode_counts(self):
        vocab = D.build_vocab(D.tokenize("abca", "char"), add_unk=False)
        assert vocab.size == 3

    def test_premarked_unk_reused(self):
        vocab = D.build_vocab(["x", D.UNK, "y"], add_unk=True)
        assert vocab.size == 3
        assert vocab.id_to_token[vocab.unk_id] == D.UNK

    def test_unknowns_map_to_unk(self):
        vocab = D.build_vocab(["a", "b"], add_unk=True)
        ids = vocab.encode(["a", "zzz", "b"])
        assert ids[1] == vocab.unk_id

    def test_unknown_without_unk_rejected(self):
        vocab = D.build_vocab(["a", "b"], add_unk=False)
        with pytest.raises(ValidationError):
            vocab.encode(["c"])

    def test_empty_corpus(self):
        with pytest.raises(ValidationError):
            D.build_vocab([])

    def test_bijective(self):
        vocab = D.build_vocab(list("language"), add_unk=False)
        assert vocab.decode(vocab.encode(list("language"))) == list("language")

    def test_from_tokens_rebuilds_vocabulary(self):
        for tokens, add_unk in ((["x", D.UNK, "y"], False), (["b", "a"], True),
                                (list("abc"), False)):
            vocab = D.build_vocab(tokens, add_unk=add_unk)
            assert D.Vocabulary.from_tokens(vocab.id_to_token) == vocab


class TestTokenize:
    def test_word_mode_appends_eos_per_line(self):
        toks = D.tokenize("a b\nc\n", "word")
        assert toks == ["a", "b", D.EOS, "c", D.EOS]

    def test_char_mode(self):
        assert D.tokenize("ab\nc", "char") == ["a", "b", "\n", "c"]

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            D.tokenize("x", "subword")


class TestBatchify:
    def test_hand_layout_with_short_tail_window(self):
        batches = D.batchify(np.arange(10), batch_size=2, bptt_len=3)
        # columns are [0..4] and [5..9]
        assert np.array_equal(batches[0].inputs, [[0, 5], [1, 6], [2, 7]])
        assert np.array_equal(batches[0].targets, [[1, 6], [2, 7], [3, 8]])
        # final window: one input/target pair left per column
        assert np.array_equal(batches[1].inputs, [[3, 8]])
        assert np.array_equal(batches[1].targets, [[4, 9]])

    def test_hand_layout_exact_fit(self):
        batches = D.batchify(np.arange(8), batch_size=2, bptt_len=3)
        # columns [0..3], [4..7]: one batch of length 3, no empty tail window
        assert len(batches) == 1
        assert batches[0].inputs.shape == (3, 2)

    def test_batch_one_is_whole_stream(self):
        stream = np.arange(7)
        batches = D.batchify(stream, batch_size=1, bptt_len=100)
        assert len(batches) == 1
        assert np.array_equal(batches[0].inputs[:, 0], stream[:-1])
        assert np.array_equal(batches[0].targets[:, 0], stream[1:])

    def test_too_short_stream(self):
        with pytest.raises(ValidationError):
            D.batchify(np.arange(5), batch_size=3, bptt_len=2)

    def test_target_alignment_invariant(self):
        stream = np.arange(100)
        for batch in D.batchify(stream, 4, 7):
            assert np.array_equal(batch.targets, batch.inputs + 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(10, 300), st.integers(1, 6), st.integers(1, 12))
    def test_coverage_property(self, length, batch_size, bptt_len):
        # every token except the ragged tail and each column's last token
        # appears exactly once as an input; shifted-by-one as a target
        stream = np.arange(length)
        cols = length // batch_size
        if cols < 2:
            return
        batches = D.batchify(stream, batch_size, bptt_len)
        inputs = np.concatenate([b.inputs.ravel() for b in batches])
        targets = np.concatenate([b.targets.ravel() for b in batches])
        expect_inputs = set(range(cols * batch_size)) - {c * cols + cols - 1
                                                         for c in range(batch_size)}
        expect_targets = set(range(cols * batch_size)) - {c * cols for c in range(batch_size)}
        assert sorted(inputs.tolist()) == sorted(expect_inputs)
        assert sorted(targets.tolist()) == sorted(expect_targets)

    def test_determinism(self):
        stream = np.random.default_rng(0).integers(0, 50, 200)
        a = D.batchify(stream, 4, 7)
        b = D.batchify(stream, 4, 7)
        assert all(np.array_equal(x.inputs, y.inputs) for x, y in zip(a, b))


class TestSplitsAndCache:
    def test_load_splits_round_trip(self, tmp_path):
        (tmp_path / "train.txt").write_text("the cat sat\nthe dog ran\n")
        (tmp_path / "valid.txt").write_text("the fox sat\n")
        stream = D.load_splits(tmp_path / "train.txt", tmp_path / "valid.txt", mode="word")
        assert stream.vocab.unk_id is not None
        decoded = stream.vocab.decode(stream.train)
        assert decoded == ["the", "cat", "sat", D.EOS, "the", "dog", "ran", D.EOS]
        # "fox" is out of vocabulary
        assert stream.valid[1] == stream.vocab.unk_id

    def test_char_splits_no_unk_by_default(self, tmp_path):
        (tmp_path / "train.txt").write_text("abcabc")
        stream = D.load_splits(tmp_path / "train.txt", mode="char")
        assert stream.vocab.unk_id is None
        assert stream.vocab.size == 3
