"""Restricted recurrent layers, stacking, the embedding and the LM head.

A BPTT window of T steps over a batch of B travels as one step-major
matrix, rows x T*B with step t in columns [t*B, (t+1)*B), from the
embedding lookup to the head.  ``layer_forward`` runs one layer over a
window.  All gate views of an input share its pool prefix, so the layer
multiplies only the input's distinct rows, gathered once per window, and
expands their projections to the n gates; its hand-written BPTT sums the
gate gradients back onto those rows and hands back the input's gradient.
Training is truncated BPTT, so no gradient crosses a window boundary:
the state a layer starts a window from and the state it ends with are
plain arrays.  ``stack_forward`` runs the stack layer by layer and, when
training, chains the layers' backward passes in reverse.  The head is
held as one (features + 1) x vocab matrix [Wᵀ; b] and is no stage of its
own: ``lm_head_forward`` hands it and the features to the loss, which
evaluates the logits in chunks of whole steps, runs the softmax over
cache-sized blocks of positions and never holds the whole (vocab x T*B)
block.

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
    """Logistic function in tanh form: one ufunc pass, no overflow at any |x|."""
    out = np.tanh(x * 0.5)
    out += 1.0
    out *= 0.5
    return out


# Internal gate order, as pool gate indices: the LSTM is held as (i, f, o, g)
# so that one sigmoid covers three gates.  Pools and checkpoints keep GATE_ORDER.
_GATES = {"rnn": (0,), "gru": (0, 1, 2), "lstm": (0, 1, 3, 2)}

# Per-family step rules on raw arrays, gates in internal order.  A forward
# rule takes the step's input projection gx (n*d x B, bias included), the
# hidden projection gh (n*d x B, bias included, owned), h and c, and returns
# (h, c, saved), saved being exactly what the backward rule reads.  That
# takes dh, dc and saved and returns the gradients at the input-side and
# hidden-side pre-activations (lists of n d x B gate blocks), the part of
# dh_prev that bypasses Wh (or None) and dc_prev (or None).

def _rnn_forward(gx, gh, h, c, d):
    gh += gx
    h = np.tanh(gh)
    return h, None, (h,)


def _rnn_backward(dh, dc, saved):
    (h,) = saved
    da = [dh * (1.0 - h * h)]
    return da, da, None, None


def _lstm_forward(gx, gh, h, c, d):
    gh += gx
    ifo = _sigmoid(gh[:3 * d])
    i, f, o = ifo[:d], ifo[d:2 * d], ifo[2 * d:]
    g = np.tanh(gh[3 * d:])
    c_prev = c
    c = f * c + i * g
    tc = np.tanh(c)
    return o * tc, c, (c_prev, i, f, g, o, tc)


def _lstm_backward(dh, dc, saved):
    c_prev, i, f, g, o, tc = saved
    dc = dc + dh * o * (1.0 - tc * tc)
    da = [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
          dh * tc * o * (1.0 - o), dc * i * (1.0 - g * g)]
    return da, da, None, dc * f


def _gru_forward(gx, gh, h, c, d):
    rz = _sigmoid(gx[:2 * d] + gh[:2 * d])
    r, z = rz[:d], rz[d:]
    ghn = gh[2 * d:].copy()   # a view would keep all of gh alive until backward
    n = np.tanh(gx[2 * d:] + r * ghn)
    return (1.0 - z) * n + z * h, None, (h, r, z, n, ghn)


def _gru_backward(dh, dc, saved):
    h_prev, r, z, n, ghn = saved
    dn = dh * (1.0 - z) * (1.0 - n * n)
    dr = dn * ghn * r * (1.0 - r)
    dz = dh * (h_prev - n) * z * (1.0 - z)
    return [dr, dz, dn], [dr, dz, dn * r], dh * z, None


_RULES = {"rnn": (_rnn_forward, _rnn_backward),
          "lstm": (_lstm_forward, _lstm_backward),
          "gru": (_gru_forward, _gru_backward)}


def _check_finite(arr, spec, what):
    # a pre-activation that overflowed saturates its gate to a finite value,
    # so the layer's output alone would not show it
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite {what} in {spec.family} layer")


def _sum_views(blocks, views, out):
    """Sum gate blocks onto an input's zeroed distinct rows ``out``: a view
    (block, s, private start) adds to the shared prefix [0, s) and copies
    its private rows.  No row repeats within a view, so no ``np.add.at``."""
    for p, s, start in views:
        out[:s] += blocks[p][:s]
        out[start:start + len(blocks[p]) - s] = blocks[p][s:]


def layer_forward(spec, pool, plan, x, state, keep=None, dropout_p=0.0):
    """One restricted layer over a whole window.

    ``x`` holds the window's inputs side by side, (k x T*B) with step t in
    columns [t*B, (t+1)*B); with a keep-mask ``keep`` it is the input
    before dropout, which is redone where it is read rather than kept.
    Each input's distinct pool rows are gathered once, and the matmuls of
    the window's input projection and of each step's Wh @ h run over
    them; ``expand_index`` copies the projections out to the n gates.

    Returns ``(h, final_state, backward)``: the layer's h for every step,
    (d x T*B) in the same column order, the final CellState, and the BPTT
    over the window.  ``backward(g)`` takes the gradient at h, sums each
    step's gate gradients onto the distinct rows, so shared rows receive
    the sum of their view paths, runs the dh, dW, db and dx matmuls over
    them, adds into ``pool.W.grad`` and ``pool.b.grad`` and returns the
    gradient at x.  The final state shares no memory with h or ``backward``.
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

    rows = [plan.distinct_rows(0), plan.distinct_rows(1)]
    wx = pool.W.data[rows[0], :k]
    wh = pool.W.data[rows[1], :d]
    bh = pool.b.data[rows[1], None]
    gx = wx @ T.apply_dropout(x, keep, dropout_p)
    gx += pool.b.data[rows[0], None]
    _check_finite(gx, spec, "input projection")
    gx = gx[plan.expand_index(0, gates)]
    expand_h = plan.expand_index(1, gates)

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
        buf[:, (t + 1) * batch:(t + 2) * batch], c, keep_t = forward_rule(
            gx[:, cols], gh[expand_h], h, c, d)
        saved.append(keep_t)

    views = [[(p, plan.s[i][j], plan.private_start(i, j)) for p, j in enumerate(gates)]
             for i in range(2)]
    # LSTM and RNN inputs get the same gate gradient; equal rates, same layout
    same = spec.family != "gru" and plan.s[0] == plan.s[1]

    def backward(g):
        dax = np.zeros((len(rows[0]), steps * batch))
        dah = dax if same else np.zeros((len(rows[1]), steps * batch))
        dh_next = np.zeros((d, batch))
        dc = np.zeros((d, batch)) if lstm else None
        for t in reversed(range(steps)):
            cols = slice(t * batch, (t + 1) * batch)
            dh = g[:, cols] + dh_next
            dgx, dgh, dh_direct, dc = backward_rule(dh, dc, saved[t])
            _sum_views(dgh, views[1], dah[:, cols])
            if dah is not dax:
                _sum_views(dgx, views[0], dax[:, cols])
            if t:   # h_0 is data: no gradient flows past the first step
                dh_next = wh.T @ dah[:, cols]
                if dh_direct is not None:
                    dh_next += dh_direct
        inputs = (T.apply_dropout(x, keep, dropout_p), buf[:, :steps * batch])
        for i, (da, inp) in enumerate(zip((dax, dah), inputs)):
            pool.W.grad[rows[i], :plan.k_inputs[i]] += da @ inp.T   # distinct rows: no add.at
            pool.b.grad[rows[i]] += da.sum(axis=1)
        return T.apply_dropout(wx.T @ dax, keep, dropout_p)

    return buf[:, batch:], CellState(buf[:, steps * batch:].copy(), c), backward


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
    otherwise, so evaluation frees each layer's arrays as it goes).
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
                                                 masks[ell], dropout_p)
        new_states.append(state)
        if train:
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
