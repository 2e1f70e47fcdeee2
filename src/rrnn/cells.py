"""Restricted recurrent layers, stacking, the embedding and the LM head.

A BPTT window of T steps over a batch of B travels as one step-major
matrix, rows x T*B with step t in columns [t*B, (t+1)*B), from the
embedding lookup to the head.  ``layer_forward`` runs one layer over a
window in the compact gate layout [S; R_1 ... R_n] of its ``CellSpec``:
the first s_min rows of every view are the same pool rows, whose
pre-activation S every gate shares, and gate j adds its own rows R_j, so
every matmul and nonlinearity runs once per compact row.  The window-wide
products run over blocks of whole steps (``step_blocks``).  Training is
truncated BPTT: a window starts from and ends with plain state arrays.
``stack_forward`` runs the layers in turn, dropping out each one's input.
``lm_head_forward`` hands the loss the head and the window array
[features; 1], from which it evaluates the logits in chunks of steps.

Window arrays: the contract every function here, the model's forward pass
and the loss keep.  ``training.train_epoch`` and ``training.evaluate`` run
their windows in the thread's ``tensor.Workspace`` (``Workspace.loop``).
In a loop every window-sized array comes from the workspace's slot for its
role (``window_array``; ``WINDOW_SLOTS`` says which roles share a slot)
and is valid until the loop's next window, which overwrites it; a backward
pass of an earlier window raises StateError.  Outside a loop every array
is fresh and no two share memory.  The states carried from window to
window are fresh copies either way.  A training window keeps one copy of
what its backward pass reads, each layer's h and step arrays, and
recomputes the rest, such as each layer's dropped-out input.  An LSTM
layer keeps its cell state c only at the start of each block of steps and
runs a block on all of its c when training, on two c in turn when
evaluating: c_t = f * c_{t-1} + i * g is a recurrence in the kept step
arrays, so the backward pass makes each block's c again, bit for bit,
before the block's reverse steps.

Gate ordering is fixed and recorded in checkpoints: LSTM gates are
(i, f, g, o) at j = 0..3, GRU gates are (r, z, n) at j = 0..2.  The GRU
reset gate multiplies the hidden pre-activation including its bias:
n = tanh(Wx x + bx + r * (Wh h + bh)).
"""

from dataclasses import dataclass, field

import numpy as np

from . import restriction as R
from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError, StateError, ValidationError

GATE_COUNT = {"rnn": 1, "gru": 3, "lstm": 4}
GATE_ORDER = {"rnn": "h", "gru": "rzn", "lstm": "ifgo"}


# Internal gate order, as pool gate indices: the LSTM is held as (i, f, o, g)
# so that one sigmoid covers three gates.  Pools and checkpoints keep GATE_ORDER.
_GATES = {"rnn": (0,), "gru": (0, 1, 2), "lstm": (0, 1, 3, 2)}


@dataclass(frozen=True)
class CellSpec:
    """One recurrent layer: family, channel sizes and a 2 x n rate matrix,
    and the restriction they fix, built once: ``plan``, the RestrictionPlan,
    and ``compact = (s, rows, blocks)``, the compact gate layout [S; R_1
    ... R_n].  S is the prefix [0, s), s = min s_ij, and R_j the other
    d - s rows of ``plan.view_rows(i, j)`` in the order of ``_GATES``;
    ``rows[i]`` is input i's pool rows in that layout and ``blocks`` the
    row slices S, R_1 ... R_n.  A row that two views of input i share past
    s is in both of their blocks; under a uniform rate matrix none is.
    """

    family: str
    input_size: int
    hidden_size: int
    rates: tuple  # 2 x n, row 0 = data input, row 1 = hidden state
    plan: R.RestrictionPlan = field(init=False, repr=False, compare=False)
    compact: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in GATE_COUNT:
            raise ValidationError(f"unknown cell family {self.family!r}")
        n = GATE_COUNT[self.family]
        if len(self.rates) != 2 or any(len(row) != n for row in self.rates):
            raise ValidationError(f"{self.family} needs a 2x{n} rate matrix, got {self.rates}")
        plan = R.plan_restriction(m=2, n=n, d=self.hidden_size,
                                  k_inputs=[self.input_size, self.hidden_size], rates=self.rates)
        s = min(min(row) for row in plan.s)
        q = self.hidden_size - s
        rows = tuple(np.concatenate([np.arange(s, dtype=np.intp)]
                                    + [plan.view_rows(i, j)[s:] for j in _GATES[self.family]])
                     for i in range(2))
        blocks = (slice(0, s),) + tuple(slice(s + p * q, s + (p + 1) * q) for p in range(n))
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "compact", (s, rows, blocks))


@dataclass
class CellState:
    """Hidden state h (d x batch); LSTM additionally carries the memory cell c."""

    h: np.ndarray
    c: np.ndarray = None


def zero_state(spec, batch_size):
    h = np.zeros((spec.hidden_size, batch_size))
    c = np.zeros((spec.hidden_size, batch_size)) if spec.family == "lstm" else None
    return CellState(h, c)


def _sigmoid(x, out):
    """Logistic function in tanh form, into ``out`` (which may be x): no
    overflow at any |x|."""
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


# Per-family step rules on raw arrays in the compact gate layout, gate j
# being S over R_j, with q = d - s rows in each R_j.  Both rules of a step
# take its step arrays: h_prev, h, the hidden projection gh (compact rows x
# B, bias included, a scratch the rule may overwrite: the LSTM's rules
# write tanh(c) into its first d rows) and the family's kept arrays, the
# LSTM's c_prev, c, sig and g, the GRU's rz and n.  rule(gx, s, h_prev, h,
# gh, *kept) adds the input projection gx into gh and writes h and the kept
# arrays; rule(dh, dc, s, dx, dg, h_prev, h, gh, *kept) recomputes what
# the forward did not keep, writes the gradients at the input-side and
# hidden-side compact pre-activations into dx and dg (one array where they
# are equal), S summed over the gates, and returns the part of dh_prev that
# bypasses Wh and dc_prev (each or None).

# The kept step arrays besides c, as name -> p for s + p*q rows: the LSTM's
# sigmoid block [S; R_i; R_f; R_o] and g, the GRU's [S; R_r; R_z] and n
_STEP_ARRAYS = {"rnn": {}, "lstm": {"sig": 3, "g": 1}, "gru": {"rz": 2, "n": 1}}


def _rnn_forward(gx, s, h_prev, h, gh):
    gh += gx
    np.tanh(gh, out=h)


def _rnn_backward(dh, dc, s, dx, dg, h_prev, h, gh):
    np.multiply(dh, 1.0 - h * h, out=dx)
    return None, None


def _lstm_cell(s, c_prev, c, sig, g):
    """c = i * g + f * c_prev from a step's sigmoid block and g: the forward
    rule's ops, so the backward pass makes c again bit for bit."""
    q = len(c) - s
    np.multiply(sig[:s + q], g, out=c)  # i * g, then + f * c_prev
    c[:s] += sig[:s] * c_prev[:s]
    c[s:] += sig[s + q:s + 2 * q] * c_prev[s:]


def _lstm_forward(gx, s, h_prev, h, gh, c_prev, c, sig, g):
    gh += gx
    q = len(h) - s
    np.tanh(gh[:s], out=g[:s])
    np.tanh(gh[s + 3 * q:], out=g[s:])
    _sigmoid(gh[:s + 3 * q], sig)       # S, R_i, R_f, R_o: i is sig[:d]
    _lstm_cell(s, c_prev, c, sig, g)
    tc = np.tanh(c, out=gh[:len(c)])    # over gh, which sig and g have read
    np.multiply(sig[:s], tc[:s], out=h[:s])
    np.multiply(sig[s + 2 * q:], tc[s:], out=h[s:])


def _lstm_backward(dh, dc, s, dx, dg, h_prev, h, gh, c_prev, c, sig, g):
    q = len(g) - s
    tc = np.tanh(c, out=gh[:len(c)])
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


def _gru_z(rz, s):
    """The update gate z, S over R_z, as a new array."""
    q = (len(rz) - s) // 2
    return np.concatenate((rz[:s], rz[s + q:]))


def _gru_forward(gx, s, h_prev, h, gh, rz, n):
    q = len(h) - s
    _sigmoid(np.add(gx[:s + 2 * q], gh[:s + 2 * q], out=rz), rz)   # S, R_r, R_z: r is rz[:d]
    r = rz[:s + q]
    z = _gru_z(rz, s)
    np.multiply(r[:s], gh[:s], out=n[:s])           # r * [gh_S; gh_Rn]
    np.multiply(r[s:], gh[s + 2 * q:], out=n[s:])
    n[:s] += gx[:s]
    n[s:] += gx[s + 2 * q:]
    np.tanh(n, out=n)
    np.add((1.0 - z) * n, z * h_prev, out=h)


def _gru_backward(dh, dc, s, dx, dg, h_prev, h, gh, rz, n):
    q = len(h_prev) - s
    r, z = rz[:s + q], _gru_z(rz, s)
    dn = dh * (1.0 - z) * (1.0 - n * n)
    np.multiply(dn[:s], gh[:s], out=dx[:s])          # dr = dn * [gh_S; gh_Rn]
    np.multiply(dn[s:], gh[s + 2 * q:], out=dx[s:s + q])
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


# Which window arrays share memory: role -> slot of the loop's workspace.
# A slot's roles are live at disjoint times; each row lists them in the
# order a training window takes them.
WINDOW_SLOTS = {
    # a step's dropout draws; a layer's input projection of a block of
    # steps; the loss's chunk logits; a layer's input-side gate gradients
    "draws": "a", "projection": "a", "logits": "a", "dax": "a",
    # the embedding and each later layer's dropped-out input; the head's
    # operand [f; 1]; the loss's feature gradient, written over it; the
    # gradient at each layer's input, written over the one at its output
    "dropped": "b", "features": "b", "df": "b", "dx": "b",
    # the loss's head-gradient product of a block of vocabulary columns; a
    # GRU layer's hidden-side gate gradients; clip_gradients' and sgd_step's
    "head product": "c", "dah": "c", "scratch": "c",
    # a layer's dropped-out input of a block of steps, made again
    "input block": "d",
}
# The other window arrays have a slot each, keyed (name, n): the n-th
# training layer's "h", its _STEP_ARRAYS and the LSTM's "c", which holds c
# at each block's start and c_T; keyed -1, the step scratch "gh" and the
# LSTM's "c" of a block's steps, one block's steps plus one when training
# and two c in turn when evaluating; the n-th dropout mask, "mask".

# The most compact-row entries of one block of whole steps, over which a
# layer runs its input projection and its backward's dW, db and dx products
WINDOW_BLOCK_ENTRIES = 1 << 18


def step_blocks(columns, batch, rows, entries):
    """Slices of ``columns`` step-major columns in blocks of whole steps of
    ``batch`` columns, each at most ``entries`` entries of a ``rows``-row
    array but at least one step."""
    span = batch * max(1, entries // (rows * batch))
    return [slice(lo, min(lo + span, columns)) for lo in range(0, columns, span)]


def window_array(workspace, role, shape, dtype=np.float64):
    """An uninitialized array for ``role`` (a key of WINDOW_SLOTS or a
    (name, n) key) from ``workspace``; see the module docstring."""
    return workspace.array(role if isinstance(role, tuple) else WINDOW_SLOTS[role], shape, dtype)


def _dropped(x, keep, p, ws, role):
    """x after dropout, in ``role``; x itself without a mask."""
    return x if keep is None else T.apply_dropout(x, keep, p, window_array(ws, role, x.shape))


def layer_forward(spec, pool, x, state, train=True):
    """One restricted layer over a whole window.

    ``x`` is the window's input, (k x T*B) step-major, dropout applied.
    Returns ``(h, final_state, backward)``: the layer's h, (d x T*B) in the
    same column order, the final CellState and, when ``train``, the
    window's BPTT (None otherwise).  ``backward(g, x)`` takes the gradient
    at h and a callback ``x(cols)`` that returns the input's columns
    ``cols`` (whole steps) again.  It runs the backward rules in reverse on
    the step arrays the forward rules were given, and after each block of
    steps adds its dW and db into the pool's gradients and writes its
    columns of the gradient at x, which it returns.

    Roles: "projection"; in the backward "dax", "dah" and "dx", which in a
    loop is g's own memory, each block's dx going over the columns of g
    that its steps have read.  Every window keeps an LSTM's c at each
    block's start and c_T in ("c", n) and runs a block's steps on ("c",
    -1), all of their c when training, two in turn when evaluating.  A
    training window keeps its "h" (h_0 ... h_T, whose columns from B on
    are the returned h) and step arrays until its backward pass; an
    evaluation window keeps one step's arrays in layer 0's slots and
    writes h over its input, once read.

    The hidden projection of each step is checked to be finite only when
    the window's weights could make it overflow: |h_t| <= max(1, |h_0|)
    in every family, so ``max(1, |h_0|) * (d max|Wh| + max|bh|)`` bounds
    every step's.
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
    ws = T.Workspace.current()
    window = ws.window
    # an evaluation window's layers take layer 0's slots in turn: a layer
    # reads its input only in its input projections
    key = ws.serial("layer") if train else 0

    s, rows, blocks = spec.compact
    q = d - s
    wx = pool.W.data[rows[0], :k]
    wh = pool.W.data[rows[1], :d]
    bx = pool.b.data[rows[0], None]
    bh = pool.b.data[rows[1], None]
    # the window-wide products run over blocks of whole steps
    spans = step_blocks(steps * batch, batch, len(rows[0]), WINDOW_BLOCK_ENTRIES)

    # |h_t| <= max(1, |h_0|): without a finite bound on gh, check each
    # step's.  np.max keeps a NaN, so a NaN in h_0, wh or bh checks too
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (np.max((1.0, state.h.max(), -state.h.min()))
                 * (d * np.max((wh.max(), -wh.min())) + np.max((bh.max(), -bh.min()))))
    check_steps = not bound < 1e300

    # h_0 ... h_T in column blocks 0 ... T
    buf = window_array(ws, ("h", key), (d, (steps + 1) * batch))
    buf[:, :batch] = state.h
    # step t's arrays are entry t of each (kept, rows, B) array
    kept = steps if train else 1
    gh = window_array(ws, ("gh", -1), (len(rows[1]), batch))
    arrays = [window_array(ws, (name, key), (kept, s + p * q, batch))
              for name, p in _STEP_ARRAYS[spec.family].items()]
    if lstm:
        # c at each block's start and c_T; a block's steps run on cs, all of
        # their c when training, two in turn when evaluating
        starts = window_array(ws, ("c", key), (len(spans) + 1, d, batch))
        starts[0] = state.c
        cs = window_array(ws, ("c", -1), ((spans[0].stop // batch if train else 1) + 1, d, batch))

    def step_arrays(t, first):
        """Step t's h_prev, h, gh and kept arrays, c_t being entry (t -
        first) % len(cs) of cs: the views both of its rules take."""
        step = [a[t % kept] for a in arrays]
        if lstm:
            i = t - first
            step = [cs[i % len(cs)], cs[(i + 1) % len(cs)]] + step
        return [buf[:, t * batch:(t + 1) * batch], buf[:, (t + 1) * batch:(t + 2) * batch],
                gh] + step

    for n, cols in enumerate(spans):
        lo, first, stop = cols.start, cols.start // batch, cols.stop // batch
        if lstm:
            cs[0] = starts[n]
        # read before an evaluation window's steps write h over the input
        gx = np.matmul(wx, x[:, cols],
                       out=window_array(ws, "projection", (len(rows[0]), cols.stop - lo)))
        gx += bx
        _check_finite(gx, spec, "input projection")
        for t in range(first, stop):
            step = step_arrays(t, first)
            np.matmul(wh, step[0], out=gh)
            gh += bh
            if check_steps:
                _check_finite(gh, spec, f"hidden projection at step {t}")
            forward_rule(gx[:, t * batch - lo:(t + 1) * batch - lo], s, *step)
        if lstm:
            starts[n + 1] = cs[(stop - first) % len(cs)]
    final = CellState(buf[:, steps * batch:].copy(), starts[-1].copy() if lstm else None)
    if not train:
        return buf[:, batch:], final, None

    # LSTM and RNN inputs get the same compact gradient, one buffer; the
    # GRU's differ, and its rule reads its step's hidden projection, not kept
    gru = spec.family == "gru"

    def backward(g, x):
        ws.check(window)
        dx = None
        # each step's compact gradients, held contiguous while the rule works on them
        comp_x = np.empty((len(rows[0]), batch))
        comp_h = np.empty((len(rows[1]), batch)) if gru else comp_x
        dh_next = np.zeros((d, batch))
        dc = np.zeros((d, batch)) if lstm else None
        for n, cols in reversed(list(enumerate(spans))):
            lo, first, stop = cols.start, cols.start // batch, cols.stop // batch
            if lstm:   # the block's c, made again from its start
                cs[0] = starts[n]
                for t in range(first, stop):
                    _lstm_cell(s, cs[t - first], cs[t - first + 1], *(a[t] for a in arrays))
            dax = window_array(ws, "dax", (len(rows[0]), cols.stop - lo))
            dah = window_array(ws, "dah", (len(rows[1]), cols.stop - lo)) if gru else dax
            for t in reversed(range(first, stop)):
                at = slice(t * batch - lo, (t + 1) * batch - lo)
                dh = g[:, t * batch:(t + 1) * batch] + dh_next
                step = step_arrays(t, first)
                if gru:   # the forward's call on the same operands: its bits
                    np.matmul(wh, step[0], out=gh)
                    np.add(gh, bh, out=gh)
                dh_bypass, dc = backward_rule(dh, dc, s, comp_x, comp_h, *step)
                dah[:, at] = comp_h
                if gru:
                    dax[:, at] = comp_x
                if t:   # h_0 is data: no gradient flows past the first step
                    dh_next = wh.T @ comp_h
                    if dh_bypass is not None:
                        dh_next += dh_bypass
            # the block's input, made again, and its h_prev
            _add_blocks(pool.W.grad[:, :k], rows[0], blocks, dax @ x(cols).T)
            _add_blocks(pool.W.grad[:, :d], rows[1], blocks, dah @ buf[:, cols].T)
            db = dax.sum(axis=1)
            _add_blocks(pool.b.grad, rows[0], blocks, db)
            _add_blocks(pool.b.grad, rows[1], blocks, dah.sum(axis=1) if gru else db)
            if dx is None:   # taken once the first block run has freed its input
                dx = window_array(ws, "dx", (k, steps * batch))
            np.matmul(wx.T, dax, out=dx[:, cols])
        return dx

    return buf[:, batch:], final, backward


def dropout_masks(sizes, steps, batch, p, rng):
    """Dropout keep-masks for one window, one boolean (k x T*B) mask per size.

    The draws are step-major and size-minor, as a stack run step by step
    would draw them, so the rng stream does not depend on the window
    layout.  Each step's uniforms go into one ("draws") scratch and are
    compared straight into that step's columns of every ("mask", n) mask.
    """
    T.check_dropout_rate(p, ShapeError)
    ws = T.Workspace.current()
    masks = [window_array(ws, ("mask", ws.serial("mask")), (k, steps * batch), bool)
             for k in sizes]
    draw = window_array(ws, "draws", (sum(sizes), batch))
    edges = np.cumsum([0] + list(sizes))
    for t in range(steps):
        rng.random(out=draw)
        for mask, lo, hi in zip(masks, edges[:-1], edges[1:]):
            np.greater_equal(draw[lo:hi], p, out=mask[:, t * batch:(t + 1) * batch])
    return masks


def stack_forward(specs, pools, x, states, dropout_p=0.0, rng=None, train=False):
    """Run a stack of layers over a window, layer by layer.

    x is the window's input, (k x T*B) step-major, in the "dropped" role
    when training drops it out in place.  Dropout hits each layer's input,
    never the recurrence.  Returns ``(h, states, backward)``: the final
    layer's h, the new per-layer states and, when training, the stack's
    backward pass (None otherwise).  ``backward(g, x)`` takes the gradient
    at h and a callback ``x(cols)`` that returns the input's columns
    ``cols`` again, and runs the layers' backward passes in reverse, each
    making its dropped-out input again ("input block"), from x(cols) or the
    kept h below; it returns the gradient at x.
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
    ws = T.Workspace.current()
    masks = [None] * len(specs)
    if train and dropout_p:
        masks = dropout_masks([s.input_size for s in specs], x.shape[1] // batch, batch,
                              dropout_p, rng)
    hs, new_states, backwards = [], [], []
    for ell, spec in enumerate(specs):
        x, state, layer_backward = layer_forward(spec, pools[ell],
                                                 _dropped(x, masks[ell], dropout_p, ws, "dropped"),
                                                 states[ell], train)
        hs.append(x)
        new_states.append(state)
        backwards.append(layer_backward)
    if not train:
        return x, new_states, None

    def backward(g, x):
        def dropped_input(cols):
            # layer ell's input is x(cols) for layer 0, the kept h below for the others
            keep = None if masks[ell] is None else masks[ell][:, cols]
            return _dropped(hs[ell - 1][:, cols] if ell else x(cols), keep, dropout_p, ws,
                            "input block")

        for ell in reversed(range(len(specs))):
            g = backwards[ell](g, dropped_input)
            T.apply_dropout(g, masks[ell], dropout_p, out=g)
        return g

    return x, new_states, backward


@dataclass
class LMHead:
    """The embedding and the softmax decoder, held in the layout of the
    products that read them.

    ``out`` is one C-contiguous (features + 1) x vocab matrix [Wᵀ; b], so
    one product with [f; 1] gives the logits with their bias, and one more
    the weight and bias gradients together.  ``embedding`` (vocab, emb),
    ``bias`` (vocab,) and, untied, ``decoder`` (vocab, features) are
    ``Parameter.rows_of`` views of it in the checkpoint's shapes; an untied
    embedding is its own emb x vocab matrix, so a token's embedding is a
    column either way.
    """

    out: T.Parameter
    embedding: T.Parameter
    bias: T.Parameter
    tied: bool
    decoder: T.Parameter = None

    def trainables(self):
        out = [self.embedding, self.bias]
        if not self.tied:
            out.append(self.decoder)
        return out


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


def embed_tokens(head, ids, role):
    """Token ids (T, batch) -> features (emb x T*batch), step-major columns,
    in ``role`` (a key of WINDOW_SLOTS): one column gather from the emb x
    vocab table.  (batch,) ids give (emb x batch).
    """
    rows = np.asarray(ids, dtype=np.intp).reshape(-1)
    vocab = head.embedding.data.shape[0]
    if rows.size and (rows.min() < 0 or rows.max() >= vocab):
        raise ShapeError(f"token id outside vocabulary of size {vocab}")
    table = head.embedding.data.T
    out = window_array(T.Workspace.current(), role, (table.shape[0], rows.size))
    # the ids are checked: "clip" gathers straight into out, "raise" would buffer
    return np.take(table, rows, axis=1, out=out, mode="clip")


def embed_backward(head, ids, g):
    """Add the gradient g at ``embed_tokens(head, ids)`` into the embedding's.

    A token seen several times in the window receives the sum of its
    columns, in window order from 0.0 (one ``np.bincount`` per feature),
    added after the loss's part of a tied embedding's gradient.
    """
    rows = np.asarray(ids, dtype=np.intp).reshape(-1)
    grad = head.embedding.grad.T
    for k, gk in enumerate(g):
        grad[k] += np.bincount(rows, weights=gk, minlength=grad.shape[1])


@dataclass(frozen=True)
class HeadLogits:
    """The logits ``[Wᵀ; b]ᵀ @ [features; 1]`` of a window, left unevaluated.

    The loss evaluates it from the head and ``operand``, the (features + 1)
    x N window array [f; 1], so no (vocab x N) block exists.  ``backward``,
    for a training window only, takes the gradient at the features, which
    it overwrites, and carries it back to the model's parameters.
    """

    head: LMHead
    operand: np.ndarray   # (features + 1, N), step-major columns, ones last
    backward: object = None

    @property
    def features(self):
        return self.operand[:-1]

    @property
    def shape(self):
        return self.head.out.data.shape[1], self.operand.shape[1]


def lm_head_forward(head, h, keep, p, backward=None):
    """The top layer's h (f x N) -> the head's logits (vocab x N), as
    ``HeadLogits``.

    The features, h dropped out by ``keep`` at rate p (h itself when
    ``keep`` is None), are written into the top rows of the operand [f; 1]
    ("features" role).  ``backward`` takes the gradient at the features.
    """
    width = head.out.data.shape[0] - 1
    if h.shape[0] != width:
        raise ConfigError(f"feature size {h.shape[0]} != the head's width {width}")
    operand = window_array(T.Workspace.current(), "features", (width + 1, h.shape[1]))
    if keep is None:
        operand[:width] = h
    else:
        T.apply_dropout(h, keep, p, out=operand[:width])
    operand[width] = 1.0
    return HeadLogits(head, operand, backward)
