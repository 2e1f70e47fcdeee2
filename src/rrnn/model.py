"""Multi-layer restricted language model and its checkpoint format.

Checkpoint layout (documented here; tests assert bit-exact round trips):
a numpy ``.npz`` archive holding ``meta`` first, then the arrays of
``LanguageModel.named_parameters``, in its order:

  meta        uint8 array, UTF-8 JSON: {format_version, family, layers,
              hidden, emb, vocab, rates (per-layer 2 x n), tied, dropout,
              gate_order, id_to_token, mode}
  layer{i}_W  float64 (d_r, k_r) pool matrix of layer i
  layer{i}_b  float64 (d_r,) pool bias of layer i
  embedding   float64 (vocab, emb)
  head_bias   float64 (vocab,)
  decoder     float64 (vocab, hidden), present only when untied

``mode`` is the tokenization ("char" or "word", null if unknown) the
vocabulary was built with; version 1 files lack it and load with mode
None.  The head's arrays have the shapes above whatever the layout in
memory (see ``cells.LMHead``): ``save`` writes its transposed views as
they are, so ``embedding`` and ``decoder`` are stored in Fortran order,
and ``load`` copies an array of either order into the model bit-exactly.
``save`` writes a temporary file beside the target, fsyncs it and
renames it over the target, so a failed save leaves the previous
checkpoint intact.

``load`` raises ConfigError, before it builds a pool, for:

- a file that is not such an archive, or a meta that lacks a key or has
  a field of another JSON type;
- a meta that describes no model, say a hidden size of 0, a rate of 2, a
  dropout rate outside [0, 1), an ``id_to_token`` that is not ``vocab``
  distinct strings or a ``mode`` other than "char", "word" or null;
- an archive whose arrays are not exactly the ones the meta implies;
- an array whose npy header gives another dtype than float64 (either
  byte order) or another shape than the meta implies.  The shapes come
  from the restriction's arithmetic alone (``checkpoint_shapes``), so no
  pool or row map is made for a meta that claims another model.

It raises ConfigError too for an array that is not finite.
"""

import json
import os
import zipfile

import numpy as np

from . import cells as C
from . import restriction as R
from . import tensor as T
from .errors import ConfigError, ValidationError

CHECKPOINT_VERSION = 2
READABLE_VERSIONS = (1, 2)

# JSON type of each meta field that load reads; (kind, None) may be null,
# and mode is absent from version 1 files
META_FIELDS = {"format_version": int, "family": str, "layers": int, "hidden": int,
               "emb": int, "vocab": int, "rates": list, "tied": bool, "dropout": float,
               "gate_order": str, "id_to_token": (list, None), "mode": (str, None)}

# checkpoint keys of the head's arrays, in the order of LMHead.trainables
HEAD_KEYS = ("embedding", "head_bias", "decoder")


def json_typed(name, value, kind):
    """value, if its JSON type is kind (a bool is no number, an int is a
    float) or kind is (type, None) and value is null; ConfigError
    otherwise."""
    if isinstance(kind, tuple):
        if value is None:
            return value
        kind = kind[0]
    types = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def json_rate_matrix(name, value):
    """value, if it is a JSON list of rows of numbers; ConfigError otherwise."""
    for row in json_typed(name, value, list):
        for rate in json_typed(name, row, list):
            json_typed(name, rate, float)
    return value


def _check_meta(meta, path):
    """ConfigError unless every meta field that load reads has its JSON
    type, the rates being per-layer lists of number rows and the
    vocabulary a list of strings."""
    where = f"damaged checkpoint {os.fspath(path)}: meta"
    if not isinstance(meta, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(meta).__name__}")
    for key, kind in META_FIELDS.items():
        json_typed(f"{where} {key}", meta.get(key) if key == "mode" else meta[key], kind)
    for rates in meta["rates"]:
        json_rate_matrix(f"{where} rates", rates)
    for token in meta["id_to_token"] or ():
        json_typed(f"{where} id_to_token", token, str)


def _stored_header(npz, key):
    """The shape and dtype in the npy header of the archive's array
    ``key``, read without the array's data."""
    with npz.zip.open(f"{key}.npy") as fh:
        version = np.lib.format.read_magic(fh)
        read = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                else np.lib.format.read_array_header_2_0)
        shape, _, dtype = read(fh)
        return shape, dtype


def layer_specs(family, layers, emb, hidden, rates):
    """Each layer's CellSpec under one rate matrix (one rate or a 2 x n
    matrix): layer 0 reads the embedding, and the layers above read h and
    share one spec."""
    if np.isscalar(rates):   # CellSpec rejects an unknown family
        rates = [[float(rates)] * C.GATE_COUNT.get(family, 0)] * 2
    rates = tuple(tuple(row) for row in rates)

    def spec(k):
        return C.CellSpec(family, k, hidden, rates)

    return [spec(emb)] + ([spec(hidden)] * (layers - 1) if layers > 1 else [])


def layer_counts(specs):
    """Per-layer ParamCounts of the specs' plans plus (P, S_r, P_r) totals."""
    per_layer = [R.count_parameters(s.plan) for s in specs]
    total = R.ParamCounts(
        unrestricted=sum(c.unrestricted for c in per_layer),
        shared=sum(c.shared for c in per_layer),
        restricted=sum(c.restricted for c in per_layer))
    return per_layer, total


def head_shapes(vocab, emb, hidden, tied):
    """The head's checkpoint keys -> shapes: the embedding, the output bias
    and, when untied, the decoder over the stack's hidden features."""
    shapes = [(vocab, emb), (vocab,)] + ([] if tied else [(vocab, hidden)])
    return dict(zip(HEAD_KEYS, shapes))


def checkpoint_shapes(meta):
    """Each checkpoint array's key -> the shape that the meta implies, in
    the order of ``LanguageModel.named_parameters``, from the restriction's
    arithmetic alone under the meta's first rate matrix."""
    n, hidden, vocab = C.GATE_COUNT[meta["family"]], meta["hidden"], meta["vocab"]
    shapes = {}
    for ell in range(meta["layers"]):
        plan = R.plan_restriction(2, n, hidden, [meta["emb"] if ell == 0 else hidden, hidden],
                                  meta["rates"][0])
        shapes[f"layer{ell}_W"], shapes[f"layer{ell}_b"] = (plan.d_r, plan.k_r), (plan.d_r,)
    shapes.update(head_shapes(vocab, meta["emb"], hidden, meta["tied"]))
    return shapes


def _check_arrays(npz, meta, path):
    """ConfigError unless the meta describes a model with one rate matrix
    per layer and the archive holds exactly its arrays, each one's npy
    header saying float64 in its shape; no pool is built."""
    where = f"damaged checkpoint {os.fspath(path)}"
    layers = meta["layers"]
    # first, so that the shape table is no longer than the file
    if len(meta["rates"]) != layers:
        raise ConfigError(f"{where}: meta has {len(meta['rates'])} rate matrices "
                          f"for {layers} layers")
    try:
        shapes = checkpoint_shapes(meta)
    except ValidationError as err:   # a size or a rate that no layer takes
        raise ConfigError(f"{where}: meta describes no model ({err})") from None
    stored = set(npz.files) - {"meta"}
    for keys, what in ((set(shapes) - stored, "missing"), (stored - set(shapes), "stray")):
        if keys:
            raise ConfigError(f"{where}: array {min(keys)} is {what} ({len(keys)} {what} "
                              f"in all) for the model that its meta describes")
    for key, shape in shapes.items():
        stored_shape, dtype = _stored_header(npz, key)
        if stored_shape != shape or dtype.kind != "f" or dtype.itemsize != 8:
            raise ConfigError(f"{where}: {key} is {dtype} of shape {stored_shape}, "
                              f"the model needs float64 of shape {shape}")


class LanguageModel:
    """Embedding -> stacked restricted recurrent layers -> (tied) softmax head."""

    def __init__(self, family, vocab, *, layers, hidden, emb, rates, tied, dropout, seed=0,
                 id_to_token=None, mode=None):
        if layers < 1:
            raise ConfigError("need at least one recurrent layer")
        T.check_dropout_rate(dropout, ConfigError)
        if id_to_token is not None and not len(id_to_token) == len(set(id_to_token)) == vocab:
            raise ConfigError(f"id_to_token must hold {vocab} distinct tokens, got "
                              f"{len(id_to_token)} with {len(set(id_to_token))} distinct")
        if mode not in (None, "char", "word"):
            raise ConfigError(f"mode must be char, word or null, got {mode!r}")
        self.family = family
        self.vocab = vocab
        self.emb = emb
        self.dropout = dropout
        self.tied = tied
        self.id_to_token = list(id_to_token) if id_to_token is not None else None
        self.mode = mode

        self.specs = layer_specs(family, layers, emb, hidden, rates)
        self.pools = [R.build_pool(s.plan, seed * 1000 + ell) for ell, s in enumerate(self.specs)]
        self.head = C.make_head(vocab, emb, hidden, tied=tied, seed=seed * 1000 + 999)

    @property
    def plans(self):
        return [s.plan for s in self.specs]

    def named_parameters(self):
        """Each checkpoint array's key -> its Parameter: the pools' W and b
        layer by layer, then the head's."""
        named = {}
        for ell, pool in enumerate(self.pools):
            named.update(zip((f"layer{ell}_W", f"layer{ell}_b"), pool.trainables()))
        named.update(zip(HEAD_KEYS, self.head.trainables()))
        return named

    def parameters(self):
        return list(self.named_parameters().values())

    def init_state(self, batch_size):
        return [C.zero_state(s, batch_size) for s in self.specs]

    def forward(self, ids, states, train=False, rng=None):
        """ids (T, batch) int array -> (logits, new states).

        The logits are a ``cells.HeadLogits`` over the (hidden x T*batch)
        step-major features, which ``training.cross_entropy_loss``
        evaluates.  Training dropout hits every layer's input and the
        features.  When ``train`` is set, the logits also carry the
        features' backward pass: the feature mask, the stack in reverse,
        then the embedding scatter, each adding into the parameters'
        gradient buffers.  The window arrays keep the contract in ``cells``.
        """
        feats, states, stack_backward = C.stack_forward(
            self.specs, self.pools, C.embed_tokens(self.head, ids, "dropped"), states,
            dropout_p=self.dropout, rng=rng, train=train)
        if not train:
            return C.lm_head_forward(self.head, feats, None, self.dropout), states
        mask = None
        if self.dropout:
            steps, batch = ids.shape
            (mask,) = C.dropout_masks([feats.shape[0]], steps, batch, self.dropout, rng)

        def backward(g):
            T.apply_dropout(g, mask, self.dropout, out=g)
            flat = ids.reshape(-1)
            C.embed_backward(self.head, ids, stack_backward(
                g, lambda cols: C.embed_tokens(self.head, flat[cols], "input block")))

        return C.lm_head_forward(self.head, feats, mask, self.dropout, backward), states

    def recurrent_counts(self):
        """Per-layer ParamCounts plus (P, S_r, P_r) totals over all layers."""
        return layer_counts(self.specs)

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
        arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                  **{key: p.data for key, p in self.named_parameters().items()}}
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
                _check_meta(meta, path)
                if meta["format_version"] not in READABLE_VERSIONS:
                    raise ConfigError(f"unsupported checkpoint version {meta['format_version']}")
                if meta["gate_order"] != C.GATE_ORDER[meta["family"]]:
                    raise ConfigError("checkpoint gate order does not match this build")
                if any(rates != meta["rates"][0] for rates in meta["rates"]):
                    raise ConfigError("checkpoint layers have different rate matrices; "
                                      "this build gives every layer the same rates")
                _check_arrays(npz, meta, path)
                try:
                    model = cls(meta["family"], meta["vocab"], layers=meta["layers"],
                                hidden=meta["hidden"], emb=meta["emb"], rates=meta["rates"][0],
                                tied=meta["tied"], dropout=meta["dropout"],
                                id_to_token=meta["id_to_token"], mode=meta.get("mode"))
                except ConfigError as err:   # say, a dropout rate of 1.5
                    raise ConfigError(f"damaged checkpoint {os.fspath(path)}: meta describes "
                                      f"no model ({err})") from None

                for key, param in model.named_parameters().items():
                    arr = npz[key]
                    if not np.all(np.isfinite(arr)):
                        raise ConfigError(f"damaged checkpoint {path}: {key} is not finite")
                    param.data[...] = arr
            return model
        except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as err:
            # not an npz archive, or one that lacks an array or a meta key
            raise ConfigError(f"damaged checkpoint {os.fspath(path)}: {err}") from None
