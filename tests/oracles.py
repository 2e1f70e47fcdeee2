"""Independent reference implementations used to verify the library.

Everything here is plain numpy: classical dense cells whose weights are
copied (not viewed) out of the pool slices, the expanded-gate restricted
layer, central finite differences, a dense cross entropy with its head
gradients and a dropout keep-mask drawn whole.
"""

import numpy as np


def dropout_mask(shape, p, rng):
    """Dropout keep-mask drawn from rng: a boolean array, True where kept."""
    return rng.random(shape) >= p


def np_sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def assemble_dense_weights(pool_w, pool_b, plan):
    """Copy every gate's (Wx, bx, Wh, bh) out of the pool slices."""
    gates = []
    for j in range(plan.n):
        per_gate = []
        for i in (0, 1):
            rows = plan.view_rows(i, j)
            per_gate.append(pool_w[rows][:, :plan.k_inputs[i]].copy())
            per_gate.append(pool_b[rows].copy())
        gates.append(per_gate)  # [Wx, bx, Wh, bh]
    return gates


def dense_rnn_step(gates, x, h):
    wx, bx, wh, bh = gates[0]
    return np.tanh(wx @ x + bx[:, None] + wh @ h + bh[:, None])


def dense_lstm_step(gates, x, h, c):
    def pre(j):
        wx, bx, wh, bh = gates[j]
        return wx @ x + bx[:, None] + wh @ h + bh[:, None]

    i = np_sigmoid(pre(0))
    f = np_sigmoid(pre(1))
    g = np.tanh(pre(2))
    o = np_sigmoid(pre(3))
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def dense_gru_step(gates, x, h):
    def pre(j):
        wx, bx, wh, bh = gates[j]
        return wx @ x + bx[:, None] + wh @ h + bh[:, None]

    r = np_sigmoid(pre(0))
    z = np_sigmoid(pre(1))
    wx, bx, wh, bh = gates[2]
    n = np.tanh(wx @ x + bx[:, None] + r * (wh @ h + bh[:, None]))
    return (1.0 - z) * n + z * h


def dense_cell_step(family, gates, x, h, c=None):
    if family == "rnn":
        return dense_rnn_step(gates, x, h), None
    if family == "lstm":
        return dense_lstm_step(gates, x, h, c)
    if family == "gru":
        return dense_gru_step(gates, x, h), None
    raise ValueError(family)


def distinct_rows(plan, i):
    """Input i's pool rows, each once: the shared prefix [0, max_j s_ij),
    then its private blocks, which lie side by side in gate order."""
    return np.r_[0:max(plan.s[i]), plan.offsets[i][0]:plan.offsets[i][0] + sum(plan.q[i])]


def private_start(plan, i, j):
    """Where view (i, j)'s private rows start within ``distinct_rows(plan, i)``:
    after the shared prefix and the private blocks of gates 0 ... j-1."""
    return max(plan.s[i]) + sum(plan.q[i][:j])


def expand_index(plan, i, gates):
    """Positions in ``distinct_rows(plan, i)`` of the views' rows, gate by
    gate in ``gates`` order: ``plan.view_rows(i, j)`` for each j."""
    starts = [private_start(plan, i, j) for j in range(plan.n)]
    return np.concatenate([np.r_[0:plan.s[i][j], starts[j]:starts[j] + plan.q[i][j]]
                           for j in gates])


def tanh_sigmoid(x):
    """The library's logistic function, tanh(x / 2) / 2 + 1 / 2, bit for bit."""
    out = np.tanh(x * 0.5)
    out += 1.0
    out *= 0.5
    return out


# Expanded-gate step rules, gates in the internal order of EXPANDED_GATES:
# each gate holds all d of its rows, so a shared row is computed once per
# gate.  A forward rule takes gx and gh (n*d x B, gh owned), h, c and d
# and returns (h, c, saved); a backward rule takes dh, dc and saved and
# returns the input- and hidden-side gate gradients (lists of n d x B
# blocks), the part of dh_prev that bypasses Wh (or None) and dc_prev.

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
    ifo = tanh_sigmoid(gh[:3 * d])
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
    rz = tanh_sigmoid(gx[:2 * d] + gh[:2 * d])
    r, z = rz[:d], rz[d:]
    ghn = gh[2 * d:].copy()
    n = np.tanh(gx[2 * d:] + r * ghn)
    return (1.0 - z) * n + z * h, None, (h, r, z, n, ghn)


def _gru_backward(dh, dc, saved):
    h_prev, r, z, n, ghn = saved
    dn = dh * (1.0 - z) * (1.0 - n * n)
    dr = dn * ghn * r * (1.0 - r)
    dz = dh * (h_prev - n) * z * (1.0 - z)
    return [dr, dz, dn], [dr, dz, dn * r], dh * z, None


EXPANDED_GATES = {"rnn": (0,), "gru": (0, 1, 2), "lstm": (0, 1, 3, 2)}
EXPANDED_RULES = {"rnn": (_rnn_forward, _rnn_backward),
                  "lstm": (_lstm_forward, _lstm_backward),
                  "gru": (_gru_forward, _gru_backward)}


def sum_views(blocks, views, out):
    """Sum gate blocks onto an input's zeroed distinct rows ``out``: a view
    (block, s, private start) adds to the shared prefix [0, s) and copies
    its private rows."""
    for p, s, start in views:
        out[:s] += blocks[p][:s]
        out[start:start + len(blocks[p]) - s] = blocks[p][s:]


def expanded_layer_forward(spec, pool, x, h0, c0=None):
    """A restricted layer over a window with every gate's d rows expanded.

    The projections run over each input's distinct rows in
    ``distinct_rows`` order and are copied out to the n gates by
    ``expand_index``; each step's gate gradients are summed back onto the
    distinct rows by ``sum_views``.  ``x`` is (k x T*B) step-major.
    Returns ``(h, h_T, c_T, backward)``, ``backward(g)`` adding into
    ``pool.W.grad`` and ``pool.b.grad`` and returning the gradient at x.
    """
    d, k, plan = spec.hidden_size, spec.input_size, spec.plan
    batch = h0.shape[1]
    steps = x.shape[1] // batch
    forward_rule, backward_rule = EXPANDED_RULES[spec.family]
    gates = EXPANDED_GATES[spec.family]
    rows = [distinct_rows(plan, 0), distinct_rows(plan, 1)]
    wx = pool.W.data[rows[0], :k]
    wh = pool.W.data[rows[1], :d]
    bh = pool.b.data[rows[1], None]
    gx = wx @ x
    gx += pool.b.data[rows[0], None]
    gx = gx[expand_index(plan, 0, gates)]
    expand_h = expand_index(plan, 1, gates)
    buf = np.empty((d, (steps + 1) * batch))
    buf[:, :batch] = h0
    saved = []
    c = c0
    for t in range(steps):
        cols = slice(t * batch, (t + 1) * batch)
        h = buf[:, cols]
        gh = wh @ h
        gh += bh
        buf[:, (t + 1) * batch:(t + 2) * batch], c, keep_t = forward_rule(
            gx[:, cols], gh[expand_h], h, c, d)
        saved.append(keep_t)
    views = [[(p, plan.s[i][j], private_start(plan, i, j)) for p, j in enumerate(gates)]
             for i in range(2)]

    def backward(g):
        dax = np.zeros((len(rows[0]), steps * batch))
        dah = np.zeros((len(rows[1]), steps * batch))
        dh_next = np.zeros((d, batch))
        dc = np.zeros((d, batch)) if c0 is not None else None
        for t in reversed(range(steps)):
            cols = slice(t * batch, (t + 1) * batch)
            dh = g[:, cols] + dh_next
            dgx, dgh, dh_direct, dc = backward_rule(dh, dc, saved[t])
            sum_views(dgh, views[1], dah[:, cols])
            sum_views(dgx, views[0], dax[:, cols])
            if t:
                dh_next = wh.T @ dah[:, cols]
                if dh_direct is not None:
                    dh_next += dh_direct
        for i, (da, inp) in enumerate(zip((dax, dah), (x, buf[:, :steps * batch]))):
            pool.W.grad[rows[i], :plan.k_inputs[i]] += da @ inp.T
            pool.b.grad[rows[i]] += da.sum(axis=1)
        return wx.T @ dax

    return buf[:, batch:], buf[:, steps * batch:].copy(), c, backward


def central_diff(f, arr, idx, h=1e-5):
    """Central finite difference of scalar f() w.r.t. arr[idx], in place."""
    orig = arr[idx]
    arr[idx] = orig + h
    up = f()
    arr[idx] = orig - h
    down = f()
    arr[idx] = orig
    return (up - down) / (2 * h)


def softmax_ce_direct(logits, target):
    """-log softmax(logits)[target] by direct summation."""
    e = np.exp(logits - logits.max())
    p = e / e.sum()
    return -np.log(p[target])


def head_cross_entropy_dense(w, b, f, targets):
    """Loss and (dW, db, dF) of mean CE over w @ f + b, on whole float64 arrays."""
    z = w @ f + b[:, None]
    tgt, cols = targets.reshape(-1), np.arange(f.shape[1])
    m = z.max(axis=0)
    lse = m + np.log(np.exp(z - m).sum(axis=0))
    dz = np.exp(z - lse)
    dz[tgt, cols] -= 1.0
    dz /= tgt.size
    return (lse - z[tgt, cols]).mean(), (dz @ f.T, dz.sum(axis=1), w.T @ dz)
