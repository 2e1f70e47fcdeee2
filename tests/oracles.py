"""Independent reference implementations used to verify the library.

Everything here is plain numpy: classical dense cells whose weights are
copied (not viewed) out of the pool slices, central finite differences,
and a dense cross entropy with its head gradients.
"""

import numpy as np


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
