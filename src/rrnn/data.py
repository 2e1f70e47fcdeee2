"""Corpus ingestion, vocabulary, tokenization and contiguous BPTT batching.

Word mode splits lines on whitespace and appends an end-of-sentence token
per line (PTB-style pre-tokenized input); char mode treats every character
as a token.  Batching never shuffles: hidden-state carryover requires that
consecutive batches continue each column of the stream.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

EOS = "<eos>"
UNK = "<unk>"


@dataclass
class Vocabulary:
    token_to_id: dict
    id_to_token: list
    unk_id: int = None

    @classmethod
    def from_tokens(cls, id_to_token):
        """Vocabulary over tokens in id order; ``<unk>``, if among them, is the unk."""
        id_to_token = list(id_to_token)
        token_to_id = {t: i for i, t in enumerate(id_to_token)}
        return cls(token_to_id=token_to_id, id_to_token=id_to_token,
                   unk_id=token_to_id.get(UNK))

    @property
    def size(self):
        return len(self.id_to_token)

    def encode(self, tokens):
        if self.unk_id is None:
            try:
                ids = [self.token_to_id[t] for t in tokens]
            except KeyError as err:
                raise ValidationError(f"token {err.args[0]!r} not in vocabulary "
                                      "(built without an unk token)") from None
        else:
            ids = [self.token_to_id.get(t, self.unk_id) for t in tokens]
        return np.asarray(ids, dtype=np.int32)

    def decode(self, ids):
        return [self.id_to_token[i] for i in ids]


def tokenize(text, mode):
    if mode == "word":
        tokens = []
        for line in text.splitlines():
            tokens.extend(line.split())
            tokens.append(EOS)
        return tokens
    if mode == "char":
        return list(text)
    raise ValidationError(f"unknown tokenization mode {mode!r}")


def build_vocab(train_tokens, add_unk=True):
    """Vocabulary over the training tokens, ids in sorted-token order.

    A pre-marked ``<unk>`` (as in PTB) is picked up from the corpus itself;
    otherwise one is appended when add_unk is set.  The vocabulary keeps
    copies of its strings: the corpus's own would keep every allocator
    arena they filled resident after the token list is freed.
    """
    train_tokens = list(train_tokens)
    if not train_tokens:
        raise ValidationError("empty corpus")
    toks = [t.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")
            for t in sorted(set(train_tokens))]
    if add_unk and UNK not in toks:
        toks.append(UNK)
    return Vocabulary.from_tokens(toks)


@dataclass
class TokenStream:
    """Flat encoded id sequences per split."""

    vocab: Vocabulary
    train: np.ndarray
    valid: np.ndarray = None
    test: np.ndarray = None


def read_text(path):
    """The UTF-8 text of the file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise ValidationError(f"{os.fspath(path)} is not UTF-8 text: {err}") from None


def load_splits(train_path, valid_path=None, test_path=None, mode="char"):
    """Read split files, build the vocab on train, encode everything.

    Word mode adds ``<unk>`` to the vocabulary; char mode does not.
    """
    train_tokens = tokenize(read_text(train_path), mode)
    vocab = build_vocab(train_tokens, add_unk=mode == "word")

    def enc(path):
        return None if path is None else vocab.encode(tokenize(read_text(path), mode))

    return TokenStream(vocab=vocab, train=vocab.encode(train_tokens),
                       valid=enc(valid_path), test=enc(test_path))


@dataclass
class SequenceBatch:
    inputs: np.ndarray   # (T, batch) ids
    targets: np.ndarray  # (T, batch) ids, shifted one position forward


def batchify(stream, batch_size, bptt_len):
    """Cut the stream into batch_size contiguous columns and window them.

    The ragged tail beyond batch_size * floor(len/batch_size) is dropped.
    The final short window is emitted only if each column still has an
    input and a target token left.
    """
    stream = np.asarray(stream)
    if batch_size < 1 or bptt_len < 1:
        raise ValidationError("batch_size and bptt_len must be >= 1")
    cols = len(stream) // batch_size
    if cols < 2:
        raise ValidationError(
            f"stream of {len(stream)} tokens too short for batch size {batch_size}")
    data = stream[:cols * batch_size].reshape(batch_size, cols).T  # (cols, batch)
    batches = []
    for t in range(0, cols - 1, bptt_len):
        span = min(bptt_len, cols - 1 - t)
        batches.append(SequenceBatch(inputs=data[t:t + span],
                                     targets=data[t + 1:t + 1 + span]))
    return batches
