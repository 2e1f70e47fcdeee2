"""Multi-layer restricted language model and its checkpoint format.

Checkpoint layout (documented here; tests assert bit-exact round trips):
a numpy ``.npz`` archive holding

  meta        uint8 array, UTF-8 JSON: {format_version, family, layers,
              hidden, emb, vocab, rates (per-layer 2 x n), tied, dropout,
              gate_order, id_to_token, mode}
  layer{i}_W  float64 (d_r, k_r) pool matrix of layer i
  layer{i}_b  float64 (d_r,) pool bias of layer i
  embedding   float64 (vocab, emb)
  head_bias   float64 (vocab,)
  decoder     float64 (vocab, hidden), present only when untied

float64 arrays survive npz round trips bit-exactly.  ``mode`` is the
tokenization ("char" or "word", null if unknown) the vocabulary was built
with; it arrived in format version 2, and version 1 files load with mode
None.  ``save`` writes a temporary file beside the target, fsyncs it and
renames it over the target, so a failed save leaves the previous
checkpoint intact.  ``load`` raises ConfigError for a file that is not
such an archive or lacks a key of this layout.
"""

import json
import os
import zipfile

import numpy as np

from . import cells as C
from . import restriction as R
from . import tensor as T
from .errors import ConfigError

CHECKPOINT_VERSION = 2
READABLE_VERSIONS = (1, 2)


class LanguageModel:
    """Embedding -> stacked restricted recurrent layers -> (tied) softmax head."""

    def __init__(self, family, vocab, layers=3, hidden=200, emb=200, rates=0.5,
                 tied=True, dropout=0.2, seed=0, id_to_token=None, mode=None):
        if layers < 1:
            raise ConfigError("need at least one recurrent layer")
        self.family = family
        self.vocab = vocab
        self.emb = emb
        self.dropout = dropout
        self.tied = tied
        self.id_to_token = list(id_to_token) if id_to_token is not None else None
        self.mode = mode

        self.specs = []
        for ell in range(layers):
            k = emb if ell == 0 else hidden
            if np.isscalar(rates):
                spec = C.CellSpec.uniform(family, k, hidden, rates)
            else:
                spec = C.CellSpec(family, k, hidden, tuple(tuple(row) for row in rates))
            self.specs.append(spec)
        self.plans = [s.make_plan() for s in self.specs]
        self.pools = [R.build_pool(p, seed * 1000 + ell) for ell, p in enumerate(self.plans)]
        self.head = C.make_head(vocab, emb, hidden, tied=tied, seed=seed * 1000 + 999)

    def parameters(self):
        params = []
        for pool in self.pools:
            params.extend(pool.trainables())
        params.extend(self.head.trainables())
        return params

    def init_state(self, batch_size):
        return [C.zero_state(s, batch_size) for s in self.specs]

    def forward(self, ids, states, train=False, rng=None):
        """ids (T, batch) int array -> (logits, new states).

        The logits are a ``cells.HeadLogits``: the head's weight, its bias
        and the (hidden x T*batch) features, whose column t*batch + b is step
        t of sequence b.  ``training.cross_entropy_loss`` evaluates them in
        column chunks.  Training dropout hits every layer's input and the
        final features.  When ``train`` is set, the logits also carry the
        features' backward pass: the feature mask, the stack in reverse,
        then the embedding scatter, each adding into the parameters'
        gradient buffers (see ``training.zero_grads``).
        """
        feats, states, stack_backward = C.stack_forward(
            self.specs, self.pools, self.plans, C.embed_tokens(self.head, ids), states,
            dropout_p=self.dropout, rng=rng, train=train)
        if not train:
            return C.lm_head_forward(self.head, feats), states
        mask = None
        if self.dropout:
            steps, batch = ids.shape
            (mask,) = C.dropout_masks([feats.shape[0]], steps, batch, self.dropout, rng)
        feats = T.apply_dropout(feats, mask, self.dropout)

        def backward(g):
            g = T.apply_dropout(g, mask, self.dropout)
            C.embed_backward(self.head, ids, stack_backward(g))

        return C.lm_head_forward(self.head, feats, backward), states

    def recurrent_counts(self):
        """Per-layer ParamCounts plus (P, S_r, P_r) totals over all layers."""
        per_layer = [R.count_parameters(p) for p in self.plans]
        total = R.ParamCounts(
            unrestricted=sum(c.unrestricted for c in per_layer),
            shared=sum(c.shared for c in per_layer),
            restricted=sum(c.restricted for c in per_layer))
        return per_layer, total

    # ---------------- checkpointing ----------------

    def save(self, path):
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "family": self.family,
            "layers": len(self.specs),
            "hidden": self.specs[0].hidden_size,
            "emb": self.emb,
            "vocab": self.vocab,
            "rates": [list(map(list, s.rates)) for s in self.specs],
            "tied": self.tied,
            "dropout": self.dropout,
            "gate_order": C.GATE_ORDER[self.family],
            "id_to_token": self.id_to_token,
            "mode": self.mode,
        }
        arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
        for ell, pool in enumerate(self.pools):
            arrays[f"layer{ell}_W"] = pool.W.data
            arrays[f"layer{ell}_b"] = pool.b.data
        arrays["embedding"] = self.head.embedding.data
        arrays["head_bias"] = self.head.bias.data
        if not self.tied:
            arrays["decoder"] = self.head.decoder.data
        # a crash mid-write must not destroy the previous checkpoint at path
        tmp = f"{os.fspath(path)}.tmp"
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path):
        try:
            with np.load(path) as npz:
                meta = json.loads(bytes(npz["meta"]).decode("utf-8"))
                if meta["format_version"] not in READABLE_VERSIONS:
                    raise ConfigError(f"unsupported checkpoint version {meta['format_version']}")
                if meta["gate_order"] != C.GATE_ORDER[meta["family"]]:
                    raise ConfigError("checkpoint gate order does not match this build")
                if any(rates != meta["rates"][0] for rates in meta["rates"]):
                    raise ConfigError("checkpoint layers have different rate matrices; "
                                      "this build gives every layer the same rates")
                model = cls(meta["family"], meta["vocab"], layers=meta["layers"],
                            hidden=meta["hidden"], emb=meta["emb"], rates=meta["rates"][0],
                            tied=meta["tied"], dropout=meta["dropout"],
                            id_to_token=meta["id_to_token"], mode=meta.get("mode"))

                def restore(key, like):
                    arr = npz[key]
                    if arr.shape != like.data.shape:
                        raise ConfigError(f"checkpoint {key} has shape {arr.shape}, "
                                          f"the model needs {like.data.shape}")
                    if not np.all(np.isfinite(arr)):
                        raise ConfigError(f"damaged checkpoint {path}: {key} is not finite")
                    return T.Parameter(arr)

                for ell, pool in enumerate(model.pools):
                    pool.W = restore(f"layer{ell}_W", pool.W)
                    pool.b = restore(f"layer{ell}_b", pool.b)
                model.head.embedding = restore("embedding", model.head.embedding)
                model.head.bias = restore("head_bias", model.head.bias)
                if not model.tied:
                    model.head.decoder = restore("decoder", model.head.decoder)
            return model
        except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as err:
            # not an npz archive, or one that lacks an array or a meta key
            raise ConfigError(f"damaged checkpoint {os.fspath(path)}: {err}") from None
