"""Restricted recurrent layers, stacking, the embedding and the LM head.

A BPTT window of T steps over a batch of B travels as one step-major
matrix, rows x T*B with step t in columns [t*B, (t+1)*B), from the
embedding lookup to the head.  ``layer_forward`` runs one layer over a
window.  Its steps hold the gates in a compact layout [S; R_1 ... R_n]:
the first s_min rows of every view are the same pool rows, so their
pre-activation is one block S that every gate shares, and each gate adds
its own d - s_min rows R_j.  Each input's pool rows are gathered once
per window in that layout, so every matmul and nonlinearity runs once
per compact row, and the hand-written BPTT sums the gates' gradients on
S and hands back the input's gradient.  Training is truncated BPTT, so
no gradient crosses a window boundary: the state a layer starts a window
from and the state it ends with are plain arrays.  ``stack_forward``
runs the stack layer by layer and, when training, chains the layers'
backward passes in reverse.
The head is held as one (features + 1) x vocab matrix [Wᵀ; b] and is no
stage of its own: ``lm_head_forward`` hands it and the features to the
loss, which evaluates the logits in chunks of whole steps, runs the
softmax over cache-sized blocks of positions and never holds the whole
(vocab x T*B) block.

Gate ordering is fixed and recorded in checkpoints: LSTM gates are
(i, f, g, o) at j = 0..3, GRU gates are (r, z, n) at j = 0..2.  The GRU
reset gate multiplies the hidden pre-activation including its bias:
n = tanh(Wx x + bx + r * (Wh h + bh)).
"""

from dataclasses import dataclass

import numpy as np

from . import restriction as R
from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError, StateError, ValidationError

GATE_COUNT = {"rnn": 1, "gru": 3, "lstm": 4}
GATE_ORDER = {"rnn": "h", "gru": "rzn", "lstm": "ifgo"}


@dataclass(frozen=True)
class CellSpec:
    """One recurrent layer: family, channel sizes and a 2 x n rate matrix."""

    family: str
    input_size: int
    hidden_size: int
    rates: tuple  # 2 x n, row 0 = data input, row 1 = hidden state

    def __post_init__(self):
        if self.family not in GATE_COUNT:
            raise ValidationError(f"unknown cell family {self.family!r}")
        n = GATE_COUNT[self.family]
        if len(self.rates) != 2 or any(len(row) != n for row in self.rates):
            raise ValidationError(f"{self.family} needs a 2x{n} rate matrix, got {self.rates}")

    @classmethod
    def uniform(cls, family, input_size, hidden_size, rate):
        if family not in GATE_COUNT:
            raise ValidationError(f"unknown cell family {family!r}")
        n = GATE_COUNT[family]
        return cls(family, input_size, hidden_size,
                   tuple(tuple(float(rate) for _ in range(n)) for _ in range(2)))

    def make_plan(self):
        return R.plan_restriction(m=2, n=GATE_COUNT[self.family], d=self.hidden_size,
                                  k_inputs=[self.input_size, self.hidden_size],
                                  rates=self.rates)


@dataclass
class CellState:
    """Hidden state h (d x batch); LSTM additionally carries the memory cell c."""

    h: np.ndarray
    c: np.ndarray = None


def zero_state(spec, batch_size):
    h = np.zeros((spec.hidden_size, batch_size))
    c = np.zeros((spec.hidden_size, batch_size)) if spec.family == "lstm" else None
    return CellState(h, c)


def _sigmoid(x):
    """Logistic function in tanh form, in place on ``x``: no overflow at any |x|."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


# Internal gate order, as pool gate indices: the LSTM is held as (i, f, o, g)
# so that one sigmoid covers three gates.  Pools and checkpoints keep GATE_ORDER.
_GATES = {"rnn": (0,), "gru": (0, 1, 2), "lstm": (0, 1, 3, 2)}

# Per-family step rules on raw arrays in the compact gate layout
# [S; R_1 ... R_n], gates in internal order: S is the layer's s rows whose
# pre-activation every gate shares, R_j gate j's other q = d - s rows, so
# gate j is S over R_j.  A forward rule takes the step's input projection
# gx and hidden projection gh (compact rows x B, biases included, gh
# owned), h, c and s, writes the new h into ``out`` and returns
# (c, saved), saved being exactly what the backward rule reads.  That
# takes dh, dc, saved and s, writes the gradients at the input-side and
# hidden-side compact pre-activations into ``dx`` and ``dg`` (one array
# where the two are equal), S holding the sum over the gates, and returns
# the part of dh_prev that bypasses Wh (or None) and dc_prev (or None).

def _rnn_forward(gx, gh, h, c, s, out):
    gh += gx
    np.tanh(gh, out=out)
    return None, (out,)


def _rnn_backward(dh, dc, saved, s, dx, dg):
    (h,) = saved
    np.multiply(dh, 1.0 - h * h, out=dx)
    return None, None


def _lstm_forward(gx, gh, h, c, s, out):
    gh += gx
    q = len(h) - s
    g = np.empty_like(h)
    np.tanh(gh[:s], out=g[:s])
    np.tanh(gh[s + 3 * q:], out=g[s:])
    sig = _sigmoid(gh[:s + 3 * q])      # S, R_i, R_f, R_o: i is sig[:d]
    c_prev = c
    c = sig[:s + q] * g                 # i * g, then + f * c
    c[:s] += sig[:s] * c_prev[:s]
    c[s:] += sig[s + q:s + 2 * q] * c_prev[s:]
    tc = np.tanh(c)
    np.multiply(sig[:s], tc[:s], out=out[:s])
    np.multiply(sig[s + 2 * q:], tc[s:], out=out[s:])
    return c, (c_prev, sig, g, tc)


def _lstm_backward(dh, dc, saved, s, dx, dg):
    c_prev, sig, g, tc = saved
    q = len(g) - s
    do = np.empty_like(dh)              # dh * o
    np.multiply(dh[:s], sig[:s], out=do[:s])
    np.multiply(dh[s:], sig[s + 2 * q:], out=do[s:])
    do *= 1.0 - tc * tc
    dc = dc + do
    # i, f and o: S gets the sum of their three paths, each R its own
    np.add(g[:s], c_prev[:s], out=dx[:s])
    dx[:s] *= dc[:s]
    dx[:s] += dh[:s] * tc[:s]
    np.multiply(dc[s:], g[s:], out=dx[s:s + q])
    np.multiply(dc[s:], c_prev[s:], out=dx[s + q:s + 2 * q])
    np.multiply(dh[s:], tc[s:], out=dx[s + 2 * q:s + 3 * q])
    dx[:s + 3 * q] *= sig
    dx[:s + 3 * q] *= 1.0 - sig
    dci = dc * sig[:s + q]              # g's path: dc * i * (1 - g^2)
    dci *= 1.0 - g * g
    dx[:s] += dci[:s]
    dx[s + 3 * q:] = dci[s:]
    dc_prev = np.empty_like(dc)         # dc * f
    np.multiply(dc[:s], sig[:s], out=dc_prev[:s])
    np.multiply(dc[s:], sig[s + q:s + 2 * q], out=dc_prev[s:])
    return None, dc_prev


def _gru_forward(gx, gh, h, c, s, out):
    q = len(h) - s
    rz = _sigmoid(gx[:s + 2 * q] + gh[:s + 2 * q])   # S, R_r, R_z: r is rz[:d]
    r = rz[:s + q]
    z = np.concatenate((rz[:s], rz[s + q:]))
    ghn = np.concatenate((gh[:s], gh[s + 2 * q:]))
    n = r * ghn
    n[:s] += gx[:s]
    n[s:] += gx[s + 2 * q:]
    np.tanh(n, out=n)
    np.add((1.0 - z) * n, z * h, out=out)
    return None, (h, r, z, n, ghn)


def _gru_backward(dh, dc, saved, s, dx, dg):
    h_prev, r, z, n, ghn = saved
    q = len(h_prev) - s
    dn = dh * (1.0 - z) * (1.0 - n * n)
    np.multiply(dn, ghn, out=dx[:s + q])             # dr
    dx[:s + q] *= r
    dx[:s + q] *= 1.0 - r
    dz = dh * (h_prev - n) * z * (1.0 - z)
    dx[:s] += dz[:s]
    dx[s + q:s + 2 * q] = dz[s:]
    dg[:s + 2 * q] = dx[:s + 2 * q]
    dx[:s] += dn[:s]
    dx[s + 2 * q:] = dn[s:]
    dn *= r
    dg[:s] += dn[:s]
    dg[s + 2 * q:] = dn[s:]
    return dh * z, None


_RULES = {"rnn": (_rnn_forward, _rnn_backward),
          "lstm": (_lstm_forward, _lstm_backward),
          "gru": (_gru_forward, _gru_backward)}


def _check_finite(arr, spec, what):
    # a pre-activation that overflowed saturates its gate to a finite value,
    # so the layer's output alone would not show it
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite {what} in {spec.family} layer")


def _add_blocks(grad, rows, blocks, update):
    """``grad[rows] += update`` block by block: a compact row may repeat
    across the blocks S, R_1 ... R_n but never within one, and a fancy-index
    add keeps only one update of a repeated row (``np.add.at`` is slower)."""
    for block in blocks:
        grad[rows[block]] += update[block]


def layer_forward(spec, pool, plan, x, state, keep=None, dropout_p=0.0, train=True):
    """One restricted layer over a whole window.

    ``x`` holds the window's inputs side by side, (k x T*B) with step t in
    columns [t*B, (t+1)*B); with a keep-mask ``keep`` it is the input
    before dropout, which is redone where it is read rather than kept.
    Each input's pool rows are gathered once per window in the compact
    gate layout of ``RestrictionPlan.compact_rows``, and the matmuls of
    the window's input projection and of each step's Wh @ h run over
    them, so each nonlinearity runs once per compact row.

    Returns ``(h, final_state, backward)``: the layer's h for every step,
    (d x T*B) in the same column order, the final CellState, and, when
    ``train``, the BPTT over the window (None otherwise, and the steps
    keep nothing for it).  ``backward(g)`` takes the gradient at h, writes
    each step's compact gate gradients, the shared block S summed over
    the gates, runs the dh, dW, db and dx matmuls over them, adds into
    ``pool.W.grad`` and ``pool.b.grad`` and returns the gradient at x.
    The final state shares no memory with h or ``backward``.
    """
    d, k = spec.hidden_size, spec.input_size
    if x.ndim != 2 or x.shape[0] != k:
        raise ShapeError(f"input shape {x.shape} incompatible with input size {k}")
    lstm = spec.family == "lstm"
    if lstm and state.c is None:
        raise StateError("LSTM step requires a cell state c")
    batch = state.h.shape[1]
    if state.h.shape != (d, batch) or (lstm and state.c.shape != (d, batch)):
        raise ShapeError(f"state shape {state.h.shape} incompatible with hidden size {d}")
    if x.shape[1] % batch:
        raise ShapeError(f"{x.shape[1]} input columns are not whole steps of batch {batch}")
    steps = x.shape[1] // batch
    forward_rule, backward_rule = _RULES[spec.family]
    gates = _GATES[spec.family]

    s = min(min(row) for row in plan.s)
    rows = [plan.compact_rows(0, gates), plan.compact_rows(1, gates)]
    wx = pool.W.data[rows[0], :k]
    wh = pool.W.data[rows[1], :d]
    bh = pool.b.data[rows[1], None]
    gx = wx @ T.apply_dropout(x, keep, dropout_p)
    gx += pool.b.data[rows[0], None]
    _check_finite(gx, spec, "input projection")

    # h_0 ... h_T in column blocks 0 ... T: the layer's output is blocks 1
    # onward and the backward pass's h_prev blocks 0 ... T-1
    buf = np.empty((d, (steps + 1) * batch))
    buf[:, :batch] = state.h
    saved = []
    c = state.c
    for t in range(steps):
        cols = slice(t * batch, (t + 1) * batch)
        h = buf[:, cols]
        gh = wh @ h
        gh += bh
        _check_finite(gh, spec, f"hidden projection at step {t}")
        c, keep_t = forward_rule(gx[:, cols], gh, h, c, s,
                                 buf[:, (t + 1) * batch:(t + 2) * batch])
        if train:
            saved.append(keep_t)
    final = CellState(buf[:, steps * batch:].copy(), c)
    if not train:
        return buf[:, batch:], final, None

    # LSTM and RNN inputs get the same compact gradient: one buffer
    same = spec.family != "gru"
    q = d - s
    blocks = [slice(0, s)] + [slice(s + p * q, s + (p + 1) * q) for p in range(len(gates))]

    def backward(g):
        dax = np.empty((len(rows[0]), steps * batch))
        dah = dax if same else np.empty((len(rows[1]), steps * batch))
        # each step's compact gradients, held contiguous while the rule works on them
        comp_x = np.empty((len(rows[0]), batch))
        comp_h = comp_x if same else np.empty((len(rows[1]), batch))
        dh_next = np.zeros((d, batch))
        dc = np.zeros((d, batch)) if lstm else None
        for t in reversed(range(steps)):
            cols = slice(t * batch, (t + 1) * batch)
            dh = g[:, cols] + dh_next
            dh_bypass, dc = backward_rule(dh, dc, saved[t], s, comp_x, comp_h)
            dah[:, cols] = comp_h
            if not same:
                dax[:, cols] = comp_x
            if t:   # h_0 is data: no gradient flows past the first step
                dh_next = wh.T @ comp_h
                if dh_bypass is not None:
                    dh_next += dh_bypass
        inputs = (T.apply_dropout(x, keep, dropout_p), buf[:, :steps * batch])
        for i, (da, inp) in enumerate(zip((dax, dah), inputs)):
            _add_blocks(pool.W.grad[:, :plan.k_inputs[i]], rows[i], blocks, da @ inp.T)
            _add_blocks(pool.b.grad, rows[i], blocks, da.sum(axis=1))
        return T.apply_dropout(wx.T @ dax, keep, dropout_p)

    return buf[:, batch:], final, backward


def dropout_masks(sizes, steps, batch, p, rng):
    """Dropout keep-masks for one window, one boolean (k x T*B) mask per size.

    The draws are step-major and size-minor, the order in which a stack
    run step by step would draw each step's (k x B) masks, so the rng
    stream does not depend on the window layout.
    """
    draw = T.dropout_mask((steps, sum(sizes), batch), p, rng)
    edges = np.cumsum([0] + list(sizes))
    return [draw[:, lo:hi].transpose(1, 0, 2).reshape(hi - lo, steps * batch)
            for lo, hi in zip(edges[:-1], edges[1:])]


def stack_forward(specs, pools, plans, x, states, dropout_p=0.0, rng=None, train=False):
    """Run a stack of layers over a window, layer by layer.

    x is the window's input, (k x T*B) step-major; the batch B is read
    from the states.  Dropout (when training) hits each layer's input,
    never the recurrence.  Returns ``(h, states, backward)``: the final
    layer's h for the window, (d x T*B) in the same column order, the new
    per-layer states and, when training, the stack's backward pass (None
    otherwise, and no layer keeps its steps' arrays for one).
    ``backward(g)`` runs the layers' backward passes in reverse, adding
    into every pool's gradient buffers, and returns the gradient at x.
    """
    for ell in range(1, len(specs)):
        if specs[ell].input_size != specs[ell - 1].hidden_size:
            raise ConfigError(
                f"layer {ell} input size {specs[ell].input_size} != "
                f"layer {ell - 1} hidden size {specs[ell - 1].hidden_size}")
    if dropout_p and train and rng is None:
        raise ConfigError("training with dropout requires an rng")

    batch = states[0].h.shape[1]
    if x.ndim != 2 or x.shape[1] % batch:
        raise ShapeError(f"window of shape {x.shape} is not whole steps of batch {batch}")
    masks = [None] * len(specs)
    if train and dropout_p:
        masks = dropout_masks([s.input_size for s in specs], x.shape[1] // batch, batch,
                              dropout_p, rng)
    new_states, backwards = [], []
    for ell, spec in enumerate(specs):
        x, state, layer_backward = layer_forward(spec, pools[ell], plans[ell], x, states[ell],
                                                 masks[ell], dropout_p, train)
        new_states.append(state)
        backwards.append(layer_backward)
    if not train:
        return x, new_states, None

    def backward(g):
        for ell in reversed(range(len(specs))):
            g = backwards[ell](g)
        return g

    return x, new_states, backward


@dataclass
class LMHead:
    """The embedding and the softmax decoder, held in the layout of the
    products that read them.

    ``out`` is one C-contiguous (features + 1) x vocab matrix [Wᵀ; b]: the
    decoder transposed, over the output bias as its last row.  The loss
    appends a ones row to a chunk of features, so one product with ``out``
    gives the logits with their bias, and one more gives the weight and
    bias gradients together.  ``embedding`` (vocab, emb), ``bias`` (vocab,)
    and, untied, ``decoder`` (vocab, features) are ``Parameter.rows_of``
    views in the shapes of the checkpoint: tied, the embedding is out's
    first emb rows; untied, it is held the same way, as its own emb x
    vocab matrix, so a token's embedding is a column either way.
    """

    out: T.Parameter
    embedding: T.Parameter
    bias: T.Parameter
    tied: bool
    decoder: T.Parameter = None

    def __post_init__(self):
        if self.tied and self.decoder is not None:
            raise ConfigError("tied head must not carry a second decoder matrix")
        if not self.tied and self.decoder is None:
            raise ConfigError("untied head requires a decoder matrix")

    def trainables(self):
        out = [self.embedding, self.bias]
        if not self.tied:
            out.append(self.decoder)
        return out


def head_trainable_count(vocab, emb, feature_size, tied):
    """Embedding, output bias and, when untied, the decoder over the features."""
    return vocab * emb + vocab + (0 if tied else vocab * feature_size)


def make_head(vocab, emb, feature_size, tied=True, seed=0):
    """The head over the stack's (feature_size x N) features: the embedding,
    the output bias and, when untied, a (vocab x feature_size) decoder.
    Tied, the embedding is the decoder, so the features must be emb wide."""
    if tied and feature_size != emb:
        raise ConfigError(f"tied embedding requires emb == hidden, got {emb} != {feature_size}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(emb)
    embedding = rng.uniform(-scale, scale, size=(vocab, emb))
    weight = embedding
    if not tied:
        scale = 1.0 / np.sqrt(feature_size)
        weight = rng.uniform(-scale, scale, size=(vocab, feature_size))
    out = np.zeros((feature_size + 1, vocab))
    out[:feature_size] = weight.T
    out = T.Parameter(out)
    table = out if tied else T.Parameter(np.ascontiguousarray(embedding.T))
    decoder = None if tied else T.Parameter.rows_of(out, slice(0, feature_size))
    return LMHead(out=out, embedding=T.Parameter.rows_of(table, slice(0, emb)),
                  bias=T.Parameter.rows_of(out, feature_size), tied=tied, decoder=decoder)


def embed_tokens(head, ids):
    """Token ids (T, batch) -> features (emb x T*batch), step-major columns.

    One column gather from the emb x vocab table for the whole window;
    (batch,) ids give (emb x batch).
    """
    rows = np.asarray(ids, dtype=np.intp).reshape(-1)
    vocab = head.embedding.data.shape[0]
    if rows.size and (rows.min() < 0 or rows.max() >= vocab):
        raise ShapeError(f"token id outside vocabulary of size {vocab}")
    return np.take(head.embedding.data.T, rows, axis=1)


def embed_backward(head, ids, g):
    """Add the gradient g at ``embed_tokens(head, ids)`` into the embedding's.

    A token seen several times in the window receives the sum of its
    columns, in window order from 0.0: one ``np.bincount`` per feature,
    added into that feature's row of the emb x vocab gradient.  Each sum
    is added after the loss's, so a tied embedding's gradient is the
    head's part plus this part, summed in that order.
    """
    rows = np.asarray(ids, dtype=np.intp).reshape(-1)
    grad = head.embedding.grad.T
    for k, gk in enumerate(g):
        grad[k] += np.bincount(rows, weights=gk, minlength=grad.shape[1])


@dataclass(frozen=True)
class HeadLogits:
    """The logits ``[Wᵀ; b]ᵀ @ [features; 1]`` of a window, left unevaluated.

    A (vocab x N) logits block is the largest array of a window, so the
    head is not a stage of its own: ``training.cross_entropy_loss`` takes
    the head and the features and evaluates the product in chunks of
    whole steps, each held position-major, fused with the loss and its
    gradient.  ``backward``, present for a training window only, takes
    the gradient at the features and carries it back to the model's
    parameters.
    """

    head: LMHead
    features: np.ndarray   # (features, N), step-major columns
    backward: object = None

    @property
    def weight(self):
        """The decoder, (vocab, features): the embedding when tied."""
        return self.head.embedding if self.head.tied else self.head.decoder

    @property
    def bias(self):
        return self.head.bias

    @property
    def shape(self):
        return self.head.out.data.shape[1], self.features.shape[1]


def lm_head_forward(head, features, backward=None):
    """Features (f x N) -> the head's logits (vocab x N), as ``HeadLogits``."""
    width = head.out.data.shape[0] - 1
    if features.shape[0] != width:
        raise ConfigError(f"feature size {features.shape[0]} != the head's width {width}")
    return HeadLogits(head, features, backward)
