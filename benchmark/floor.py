"""Hand-fused numpy float64 floor: one training window with no tape.

The same maths as one ``training.train_epoch`` window of a tied
LSTM or GRU ``LanguageModel``: embedding lookup, inverted dropout on
every layer input and on the final features, the restricted recurrent
stack, the tied softmax head, mean cross entropy, the backward pass,
global-norm clipping and SGD with momentum and weight decay.

Each layer assembles its dense input-side and hidden-side matrices from
the pool with one gather per input per window, computes the input
projection of the whole window in one matmul, and scatters the dense
gradients back into the pool rows, so aliased rows receive the sum of
their gradient paths as they do on the tape.  Dropout masks are drawn
from the rng in the order the program draws them, so a window here and
a window in the program see the same masks.
"""

import math

import numpy as np

def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class _Layer:
    def __init__(self, spec, plan, pool):
        self.n = plan.n
        self.d = spec.hidden_size
        self.k = spec.input_size
        self.rows = [[plan.view_rows(i, j) for j in range(self.n)] for i in range(2)]
        self.rows_x = np.concatenate(self.rows[0])
        self.rows_h = np.concatenate(self.rows[1])
        self.W = pool.W.data.copy()
        self.b = pool.b.data.copy()


class Floor:
    """A copy of a tied LanguageModel's parameters, trained window by window."""

    def __init__(self, model, cfg):
        if model.family not in ("lstm", "gru") or not model.tied:
            raise ValueError("the floor covers tied LSTM and GRU models only")
        self.family = model.family
        self.dropout = model.dropout
        self.cfg = cfg
        self.layers = [_Layer(s, pl, po) for s, pl, po in
                       zip(model.specs, model.plans, model.pools)]
        self.E = model.head.embedding.data.copy()
        self.bias = model.head.bias.data.copy()
        self.velocities = [np.zeros_like(p) for p in self.parameters()]

    def parameters(self):
        """Same order as LanguageModel.parameters()."""
        out = []
        for layer in self.layers:
            out += [layer.W, layer.b]
        return out + [self.E, self.bias]

    def init_state(self, batch):
        zeros = np.zeros((self.layers[0].d, batch))
        return [(zeros, zeros) for _ in self.layers]

    def _masks(self, rng, steps, batch):
        """Per-layer input masks and the feature mask, (k, steps*batch) each."""
        p = self.dropout
        if not p:
            return None, None
        per_step = [[(rng.random((layer.k, batch)) >= p) / (1.0 - p) for layer in self.layers]
                    for _ in range(steps)]
        feat = [(rng.random((self.layers[-1].d, batch)) >= p) / (1.0 - p) for _ in range(steps)]
        inputs = [np.concatenate([per_step[t][ell] for t in range(steps)], axis=1)
                  for ell in range(len(self.layers))]
        return inputs, np.concatenate(feat, axis=1)

    def window(self, inputs, targets, states, rng, lr):
        """Train on one (T, batch) window; returns (mean loss, new states)."""
        steps, batch = inputs.shape
        ids = inputs.reshape(-1)
        masks, feat_mask = self._masks(rng, steps, batch)

        x = self.E[ids].T                       # (emb, T*B), column t*B + b
        caches = []
        new_states = []
        for ell, layer in enumerate(self.layers):
            xd = x * masks[ell] if masks is not None else x
            h, cache, state = self._layer_forward(layer, xd, states[ell], steps, batch)
            caches.append((xd, cache))
            new_states.append(state)
            x = h
        feats = x * feat_mask if feat_mask is not None else x

        logits = self.E @ feats + self.bias[:, None]
        cols = np.arange(steps * batch)
        tgt = targets.reshape(-1)
        m = logits.max(axis=0)
        lse = m + np.log(np.exp(logits - m).sum(axis=0))
        loss = float((lse - logits[tgt, cols]).sum()) / tgt.size

        dz = np.exp(logits - lse)
        dz[tgt, cols] -= 1.0
        dz /= tgt.size
        dE = dz @ feats.T
        dbias = dz.sum(axis=1)
        dx = self.E.T @ dz
        if feat_mask is not None:
            dx *= feat_mask
        grads = []
        for ell in reversed(range(len(self.layers))):
            layer = self.layers[ell]
            xd, cache = caches[ell]
            dW, db, dxd = self._layer_backward(layer, xd, cache, dx, steps, batch)
            grads = [dW, db] + grads
            dx = dxd * masks[ell] if masks is not None else dxd
        np.add.at(dE, ids, dx.T)
        grads += [dE, dbias]

        self._clip(grads)
        cfg = self.cfg
        for p, g, v in zip(self.parameters(), grads, self.velocities):
            g += cfg.weight_decay * p
            v *= cfg.momentum
            v += g
            p -= lr * v
        return loss, new_states

    def _clip(self, grads):
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
        if norm > self.cfg.clip_norm and norm != 0.0:
            for g in grads:
                g *= self.cfg.clip_norm / norm

    # ---------------- one layer over the whole window ----------------

    def _layer_forward(self, layer, xd, state, steps, batch):
        d = layer.d
        Wx = layer.W[layer.rows_x, :layer.k]
        Wh = layer.W[layer.rows_h, :d]
        bx = layer.b[layer.rows_x]
        bh = layer.b[layer.rows_h]
        gx = Wx @ xd + bx[:, None]              # hoisted input projection
        h, c = state
        hs = np.empty((d, steps * batch))
        acts = []
        for t in range(steps):
            cols = slice(t * batch, (t + 1) * batch)
            gh = Wh @ h + bh[:, None]
            h_prev = h
            if self.family == "lstm":
                a = gx[:, cols] + gh
                i, f, o = _sigmoid(a[:d]), _sigmoid(a[d:2 * d]), _sigmoid(a[3 * d:])
                g = np.tanh(a[2 * d:3 * d])
                c_prev = c
                c = f * c + i * g
                tc = np.tanh(c)
                h = o * tc
                acts.append((h_prev, c_prev, i, f, g, o, tc))
            else:
                r = _sigmoid(gx[:d, cols] + gh[:d])
                z = _sigmoid(gx[d:2 * d, cols] + gh[d:2 * d])
                ghn = gh[2 * d:]
                n = np.tanh(gx[2 * d:, cols] + r * ghn)
                h = (1.0 - z) * n + z * h
                acts.append((h_prev, r, z, n, ghn))
            hs[:, cols] = h
        return hs, (Wx, Wh, acts), (h, c)

    def _layer_backward(self, layer, xd, cache, dh_out, steps, batch):
        d = layer.d
        Wx, Wh, acts = cache
        n_rows = layer.n * d
        dax = np.empty((n_rows, steps * batch))  # gradient at the input-side pre-activation
        dah = np.empty((n_rows, steps * batch))  # ... and at the hidden-side one
        h_prevs = np.empty((d, steps * batch))
        dh_next = np.zeros((d, batch))
        dc_next = np.zeros((d, batch))
        for t in reversed(range(steps)):
            cols = slice(t * batch, (t + 1) * batch)
            dh = dh_out[:, cols] + dh_next
            if self.family == "lstm":
                h_prev, c_prev, i, f, g, o, tc = acts[t]
                dc = dc_next + dh * o * (1.0 - tc * tc)
                da = np.concatenate([dc * g * i * (1.0 - i),
                                     dc * c_prev * f * (1.0 - f),
                                     dc * i * (1.0 - g * g),
                                     dh * tc * o * (1.0 - o)])
                dc_next = dc * f
                dax[:, cols] = da
                dah[:, cols] = da
                dh_next = Wh.T @ da
            else:
                h_prev, r, z, n, ghn = acts[t]
                dn = dh * (1.0 - z) * (1.0 - n * n)
                dr = dn * ghn * r * (1.0 - r)
                dz = dh * (h_prev - n) * z * (1.0 - z)
                dax[:, cols] = np.concatenate([dr, dz, dn])
                dah[:, cols] = np.concatenate([dr, dz, dn * r])
                dh_next = dh * z + Wh.T @ dah[:, cols]
            h_prevs[:, cols] = h_prev
        dWx = dax @ xd.T
        dWh = dah @ h_prevs.T
        dbx = dax.sum(axis=1)
        dbh = dah.sum(axis=1)
        dxd = Wx.T @ dax

        dW = np.zeros_like(layer.W)
        db = np.zeros_like(layer.b)
        for i, (dWi, dbi, k) in enumerate(((dWx, dbx, layer.k), (dWh, dbh, d))):
            for j, rows in enumerate(layer.rows[i]):
                dW[rows, :k] += dWi[j * d:(j + 1) * d]
                db[rows] += dbi[j * d:(j + 1) * d]
        return dW, db, dxd
