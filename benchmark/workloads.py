"""The benchmark's three workloads and the synthetic word corpus.

Every workload trains with batch 80 and BPTT 35 through the same set-up
steps as ``rrnn train``: ``data.load_splits``, ``data.batchify`` and
``LanguageModel`` construction, configured by the CLI's own ``RunConfig``.
"""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from rrnn import data as D
from rrnn import model as M
from rrnn.cli import RunConfig
from rrnn.training import TrainConfig

BATCH = 80
BPTT = 35

# The word corpus: PTB's vocabulary size, <unk> and <eos> included.
WORD_TYPES = 10_000
WORD_TRAIN_WINDOWS = 60
WORD_VALID_WINDOWS = 3
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    budget_windows: int   # fixed training budget behind valid_ppl
    eval_every: int       # training windows between evaluations of the loaded model
    vocab_size: int       # expected vocabulary, checked after loading


WORKLOADS = {w.name: w for w in (
    Workload("desk-lstm-char",
             "configs/desk.json 1x64 LSTM on the shipped char corpus: small matrices, "
             "so per-op tape overhead in tensor dominates the window",
             budget_windows=35, eval_every=7, vocab_size=30),
    Workload("ref-lstm-char",
             "reference 3x200 LSTM, r=0.5, tied, char corpus: the recurrent stack is "
             "~97% of a window, where hoisted input projections show",
             budget_windows=6, eval_every=3, vocab_size=30),
    Workload("ptb-gru-word",
             "3x200 GRU, r=0.9, tied, 10k-type Zipf word text: the 10k head and tied "
             "embedding dominate, so a stack gain must not cost the head",
             budget_windows=6, eval_every=1, vocab_size=WORD_TYPES),
)}


def run_config(workload, root, corpus_dir, seed):
    """The RunConfig ``rrnn train`` would use for this workload.

    Paths are absolute.  The word workload reads the text that
    ``write_word_corpus`` generated into ``corpus_dir``.
    """
    corpus = Path(root) / "corpus"
    char_paths = {"train_path": str(corpus / "train.txt"),
                  "valid_path": str(corpus / "valid.txt")}
    if workload.name == "desk-lstm-char":
        rc = RunConfig.from_file(Path(root) / "configs" / "desk.json")
        rc = replace(rc, **char_paths, test_path=None)
    elif workload.name == "ref-lstm-char":
        rc = RunConfig(**char_paths, mode="char")
    else:
        # At the default lr0 of 1.0 a 10k-word model overshoots in its first
        # windows, and valid_ppl after the budget swings by a third across
        # seeds; at 0.1 the budget ends on the monotone part of the curve.
        rc = RunConfig(family="gru", rate=0.9, mode="word", train_cfg=TrainConfig(lr0=0.1),
                       train_path=str(Path(corpus_dir) / "train.txt"),
                       valid_path=str(Path(corpus_dir) / "valid.txt"))
    rc.train_cfg = replace(rc.train_cfg, seed=seed, epochs=1,
                           batch_size=BATCH, bptt_len=BPTT)
    return rc


def build(rc, dropout=None):
    """Load, batchify and construct the model exactly as ``rrnn train`` does.

    Module attributes are looked up at call time so that a tracer that
    wraps them sees these calls.
    """
    tc = rc.train_cfg
    stream = D.load_splits(rc.train_path, rc.valid_path, None, mode=rc.mode)
    train_b = D.batchify(stream.train, tc.batch_size, tc.bptt_len)
    valid_b = D.batchify(stream.valid, tc.batch_size, tc.bptt_len)
    model = M.LanguageModel(rc.family, stream.vocab.size, layers=rc.layers,
                            hidden=rc.hidden, emb=rc.emb, rates=rc.rate, tied=rc.tied,
                            dropout=rc.dropout if dropout is None else dropout,
                            seed=tc.seed, id_to_token=stream.vocab.id_to_token)
    return stream, train_b, valid_b, model


# ---------------- synthetic word corpus ----------------

def _pseudo_words(rng, count):
    """``count`` distinct lowercase words, shortest first (frequent words are short)."""
    words = []
    seen = set()
    while len(words) < count:
        lengths = rng.integers(2, 10, size=2 * count)
        letters = rng.integers(0, 26, size=(2 * count, 9)) + ord("a")
        for n, row in zip(lengths, letters):
            w = bytes(row[:n].astype(np.uint8)).decode("ascii")
            if w not in seen:
                seen.add(w)
                words.append(w)
                if len(words) == count:
                    break
    return sorted(words, key=len)


def _line_lengths(rng, total_tokens):
    """Words per line such that the words plus one <eos> per line make
    exactly ``total_tokens`` tokens."""
    lengths = []
    remaining = total_tokens
    while remaining > 0:
        n = int(rng.integers(5, 40))
        if remaining - (n + 1) < 6:
            n = remaining - 1
        lengths.append(n)
        remaining -= n + 1
    return lengths


def _text(vocab, word_ids, lengths):
    lines = []
    pos = 0
    for n in lengths:
        lines.append(" ".join(vocab[i] for i in word_ids[pos:pos + n]))
        pos += n
    return "\n".join(lines) + "\n"


def write_word_corpus(out_dir, seed):
    """Write Zipf-ranked train/valid word text with exactly WORD_TYPES types.

    Every type occurs in the train split: the train words are one copy of
    each type plus Zipf draws, shuffled together.  A plain Zipf draw of this
    length misses more than half of the tail.
    """
    rng = np.random.default_rng([seed, 0x57D])
    n_words = WORD_TYPES - 1          # the tokenizer adds <eos>
    vocab = _pseudo_words(rng, n_words - 1)
    vocab.insert(2, D.UNK)            # PTB marks rare words <unk>; it is frequent
    weights = 1.0 / np.arange(1, n_words + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()

    def zipf(count):
        return rng.choice(n_words, size=count, p=weights)

    train_lengths = _line_lengths(rng, BATCH * (BPTT * WORD_TRAIN_WINDOWS + 1))
    train_ids = np.concatenate([np.arange(n_words), zipf(sum(train_lengths) - n_words)])
    rng.shuffle(train_ids)
    valid_lengths = _line_lengths(rng, BATCH * (BPTT * WORD_VALID_WINDOWS + 1))
    valid_ids = zipf(sum(valid_lengths))

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "train.txt").write_text(_text(vocab, train_ids, train_lengths), encoding="utf-8")
    (out_dir / "valid.txt").write_text(_text(vocab, valid_ids, valid_lengths), encoding="utf-8")
