"""Restricted recurrent layers, stacking and the LM head.

A BPTT window of T steps over a batch of B travels as one step-major
matrix, rows x T*B with step t in columns [t*B, (t+1)*B), from the
embedding lookup to the head.  A layer over one window is a single
tape node (``layer_forward``): each input's matrix of all n gates is
gathered from the shared pool once per window, the input projection of
the whole window is one matmul, and the backward pass is a hand-written
BPTT that scatters into the pool rows of every view.  Training is
truncated BPTT, so no gradient crosses a window boundary: the state a
layer starts a window from is data, not a parent of the node, and the
state it ends with comes back as a constant off the tape.
``stack_forward`` runs the stack layer by layer.  The head is no node:
``lm_head_forward`` hands its operands to the loss, which evaluates the
logits in column chunks and never holds the whole (vocab x T*B) block.

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
from .tensor import Tensor

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

    h: Tensor
    c: Tensor = None


def zero_state(spec, batch_size):
    h = Tensor(np.zeros((spec.hidden_size, batch_size)))
    c = Tensor(np.zeros((spec.hidden_size, batch_size))) if spec.family == "lstm" else None
    return CellState(h, c)


def _sigmoid(x):
    """Logistic function in tanh form: one ufunc pass, no overflow at any |x|."""
    out = np.tanh(x * 0.5)
    out += 1.0
    out *= 0.5
    return out


# Per-family step rules on raw arrays.  A forward rule takes the step's
# input projection gx (n*d x B, bias included), the hidden projection gh
# (n*d x B, bias included, owned), h and c, and returns (h, c, saved).
# A backward rule takes dh, dc and saved and returns the gradients at the
# input-side and hidden-side pre-activations (n*d x B each), the part of
# dh_prev that bypasses Wh (or None) and dc_prev (or None).

def _rnn_forward(gx, gh, h, c, d):
    gh += gx
    h = np.tanh(gh)
    return h, None, (h,)


def _rnn_backward(dh, dc, saved, d):
    (h,) = saved
    da = dh * (1.0 - h * h)
    return da, da, None, None


def _lstm_forward(gx, gh, h, c, d):
    gh += gx
    i, f, o = _sigmoid(gh[:d]), _sigmoid(gh[d:2 * d]), _sigmoid(gh[3 * d:])
    g = np.tanh(gh[2 * d:3 * d])
    c_prev = c
    c = f * c + i * g
    tc = np.tanh(c)
    return o * tc, c, (c_prev, i, f, g, o, tc)


def _lstm_backward(dh, dc, saved, d):
    c_prev, i, f, g, o, tc = saved
    dc = dc + dh * o * (1.0 - tc * tc)
    da = np.concatenate([dc * g * i * (1.0 - i),
                         dc * c_prev * f * (1.0 - f),
                         dc * i * (1.0 - g * g),
                         dh * tc * o * (1.0 - o)])
    return da, da, None, dc * f


def _gru_forward(gx, gh, h, c, d):
    r = _sigmoid(gx[:d] + gh[:d])
    z = _sigmoid(gx[d:2 * d] + gh[d:2 * d])
    ghn = gh[2 * d:]
    n = np.tanh(gx[2 * d:] + r * ghn)
    return (1.0 - z) * n + z * h, None, (h, r, z, n, ghn)


def _gru_backward(dh, dc, saved, d):
    h_prev, r, z, n, ghn = saved
    dn = dh * (1.0 - z) * (1.0 - n * n)
    dr = dn * ghn * r * (1.0 - r)
    dz = dh * (h_prev - n) * z * (1.0 - z)
    return np.concatenate([dr, dz, dn]), np.concatenate([dr, dz, dn * r]), dh * z, None


_RULES = {"rnn": (_rnn_forward, _rnn_backward),
          "lstm": (_lstm_forward, _lstm_backward),
          "gru": (_gru_forward, _gru_backward)}


def _check_finite(arr, spec, what):
    # a pre-activation that overflowed saturates its gate to a finite value,
    # so the node's output alone would not show it
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite {what} in {spec.family} layer")


def layer_forward(spec, pool, plan, x, state):
    """One restricted layer over a whole window, as a single tape node.

    ``x`` holds the window's inputs side by side, (k x T*B) with step t in
    columns [t*B, (t+1)*B).  Each input's (n*d x k_i) matrix of all gates
    is gathered from the pool once, and the input projection of all T*B
    columns is one matmul; each step then runs only Wh @ h and the gate
    maths.  Backward is BPTT over the window: one matmul each for dWx, dWh
    and dx, then a scatter-add into the pool rows of every view, so shared
    rows receive the sum of their view paths.

    Returns the layer's h for every step, (d x T*B) in the same column
    order, and the final CellState.  The node's parents are x and the
    pool; the states in and out are constants, and the final one shares no
    memory with the node, so the window's arrays are freed with its graph.
    """
    d, k, n = spec.hidden_size, spec.input_size, plan.n
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

    rows = [plan.input_rows(0), plan.input_rows(1)]
    wx = pool.W.data[rows[0], :k]
    wh = pool.W.data[rows[1], :d]
    bh = pool.b.data[rows[1], None]
    gx = wx @ x.data
    gx += pool.b.data[rows[0], None]
    _check_finite(gx, spec, "input projection")

    # h_0 ... h_T in column blocks 0 ... T: the node's value is blocks 1
    # onward and the backward pass's h_prev blocks 0 ... T-1
    buf = np.empty((d, (steps + 1) * batch))
    buf[:, :batch] = state.h.data
    saved = []
    c = state.c.data if lstm else None
    for t in range(steps):
        cols = slice(t * batch, (t + 1) * batch)
        h = buf[:, cols]
        gh = wh @ h
        gh += bh
        _check_finite(gh, spec, f"hidden projection at step {t}")
        buf[:, (t + 1) * batch:(t + 2) * batch], c, keep = forward_rule(gx[:, cols], gh, h, c, d)
        saved.append(keep)

    def backprop(g):
        dax = np.empty((n * d, steps * batch))
        dah = np.empty_like(dax) if spec.family == "gru" else dax
        dh_next = np.zeros((d, batch))
        dc = np.zeros((d, batch)) if lstm else None
        for t in reversed(range(steps)):
            cols = slice(t * batch, (t + 1) * batch)
            dh = g[:, cols] + dh_next
            dax_t, dah_t, dh_direct, dc = backward_rule(dh, dc, saved[t], d)
            dax[:, cols] = dax_t
            if dah is not dax:
                dah[:, cols] = dah_t
            if t:   # h_0 is data: no gradient flows past the first step
                dh_next = wh.T @ dah_t
                if dh_direct is not None:
                    dh_next += dh_direct
        dW = np.zeros_like(pool.W.data)
        db = np.zeros_like(pool.b.data)
        for i, (da, inp) in enumerate(((dax, x.data), (dah, buf[:, :steps * batch]))):
            dwi, dbi = da @ inp.T, da.sum(axis=1)
            for j in range(n):
                view = plan.view_rows(i, j)   # unique within a view: no add.at
                dW[view, :plan.k_inputs[i]] += dwi[j * d:(j + 1) * d]
                db[view] += dbi[j * d:(j + 1) * d]
        dx = wx.T @ dax if x.requires_grad else None
        return dx, dW, db

    node = T.from_op(buf[:, batch:], (x, pool.W, pool.b), backprop, f"{spec.family}_layer")
    final = CellState(Tensor(buf[:, steps * batch:].copy()), Tensor(c) if lstm else None)
    return node, final


def dropout_masks(sizes, steps, batch, p, rng):
    """Inverted-dropout masks for one window, one (k x T*B) mask per size.

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
    never the recurrence.  Returns the final layer's h for the window,
    (d x T*B) in the same column order, plus the new per-layer states.
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
    masks = None
    if train and dropout_p:
        masks = dropout_masks([s.input_size for s in specs], x.shape[1] // batch, batch,
                              dropout_p, rng)
    new_states = []
    for ell, spec in enumerate(specs):
        if masks is not None:
            x = T.masked(x, masks[ell])
        x, state = layer_forward(spec, pools[ell], plans[ell], x, states[ell])
        new_states.append(state)
    return x, new_states


@dataclass
class LMHead:
    """Embedding plus softmax decoder; when tied they are the same storage."""

    embedding: Tensor       # (vocab, emb)
    bias: Tensor            # (vocab,)
    tied: bool
    decoder: Tensor = None  # (vocab, emb), only when untied

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

    def trainable_count(self):
        return head_trainable_count(*self.embedding.shape, self.tied)


def head_trainable_count(vocab, emb, tied):
    """Embedding, output bias and, when untied, the decoder."""
    return vocab * emb + vocab + (0 if tied else vocab * emb)


def make_head(vocab, emb, tied=True, feature_size=None, seed=0):
    if tied and feature_size is not None and feature_size != emb:
        raise ConfigError(f"tied head needs feature size {emb}, got {feature_size}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(emb)
    embedding = Tensor(rng.uniform(-scale, scale, size=(vocab, emb)), requires_grad=True)
    bias = Tensor(np.zeros(vocab), requires_grad=True)
    decoder = None
    if not tied:
        decoder = Tensor(rng.uniform(-scale, scale, size=(vocab, emb)), requires_grad=True)
    return LMHead(embedding=embedding, bias=bias, tied=tied, decoder=decoder)


def embed_tokens(head, ids):
    """Token ids (T, batch) -> features (emb x T*batch), step-major columns.

    One row gather for the whole window; (batch,) ids give (emb x batch).
    """
    return T.transpose(T.gather_rows(head.embedding, np.asarray(ids).reshape(-1)))


@dataclass(frozen=True)
class HeadLogits:
    """The logits ``weight @ features + bias`` of a window, left unevaluated.

    A (vocab x N) logits block is the largest array of a window, so the
    head is not a node of its own: ``training.cross_entropy_loss`` takes
    these operands and evaluates the product in column chunks, fused with
    the loss and its gradient.
    """

    weight: Tensor    # (vocab, emb): the embedding when tied, else the decoder
    bias: Tensor      # (vocab,)
    features: Tensor  # (emb, N), step-major columns

    @property
    def shape(self):
        return self.weight.shape[0], self.features.shape[1]


def lm_head_forward(head, features):
    """Features (emb x N) -> the head's logits (vocab x N), as ``HeadLogits``."""
    weight = head.embedding if head.tied else head.decoder
    if features.shape[0] != weight.shape[1]:
        raise ConfigError(f"feature size {features.shape[0]} != embedding size {weight.shape[1]}")
    return HeadLogits(weight, head.bias, features)
