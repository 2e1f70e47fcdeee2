"""Truncated-BPTT training: loss, clipping, SGD with momentum, cosine schedule.

A training window is an explicit pass: ``train_epoch`` zeroes one
gradient buffer per parameter, ``LanguageModel.forward`` runs the
embedding, the stack and the dropout masks and keeps their backward
passes, and ``cross_entropy_loss`` evaluates the head fused with the loss,
adds the head's gradients into their buffers chunk by chunk and then runs
the features' backward passes in reverse.  Hidden states
are carried across windows within an epoch as plain arrays (no gradient
crosses a window boundary) and reset at epoch start.  Because each pool
matrix is a single parameter whose view gradients scatter-add, an aliased
pool entry is updated exactly once per optimizer step with the summed
gradient.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, ValidationError


@dataclass
class TrainConfig:
    """Optimizer, schedule and batching; the dropout rate is the model's."""

    lr0: float = 1.0
    momentum: float = 0.9
    weight_decay: float = 1e-6
    clip_norm: float = 0.25
    epochs: int = 100
    batch_size: int = 80
    bptt_len: int = 35
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("lr0", "momentum", "weight_decay", "clip_norm"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(f"{name} must be finite and nonnegative, got {value}")


# Logits entries per chunk of the fused head and loss: 32 MB of float64.
CE_CHUNK_ENTRIES = 1 << 22
# Logits entries per block of a chunk's softmax passes: 1 MB, so that a
# block stays in L2 from the bias add to the gradient's one-hot.
CE_BLOCK_ENTRIES = 1 << 17


class Loss:
    """A window's mean cross entropy; ``requires_grad`` is True for a
    training window, whose gradients the loss has already added into the
    parameters' buffers."""

    __slots__ = ("value", "requires_grad")

    def __init__(self, value, requires_grad):
        self.value = value
        self.requires_grad = requires_grad

    def item(self):
        return self.value


def cross_entropy_loss(logits, targets):
    """Mean cross entropy over all (timestep, batch) positions, fused with
    the LM head; returns a ``Loss``.

    logits: the ``cells.HeadLogits`` the model returns, whose value is
    (vocab x T*batch) with step-major columns; targets: the (T, batch) ids
    (or (batch,) for a single step).  The columns are evaluated in chunks
    of whole steps, each at most ``CE_CHUNK_ENTRIES`` logits but at least
    one step, so the whole logits block never exists.  A chunk's features
    get a ones row appended, and one product with the head's [Wᵀ; b]
    gives its logits, bias included, position-major: one contiguous row
    per position.  The softmax passes run over blocks of at most
    ``CE_BLOCK_ENTRIES`` logits, which stay in cache from the row max to
    the gradient.  For a training window (``logits.backward`` set) each
    chunk also adds [f; 1] @ (softmax - onehot) / N, its share of the
    weight and bias gradients, into the head's buffer, which the caller
    has zeroed, and writes its columns of the feature gradient; that is
    then sent back through the features before the loss returns.
    """
    out, f = logits.head.out, logits.features
    width = f.shape[0]
    vocab, columns = logits.shape
    targets = np.asarray(targets)
    batch = targets.shape[-1] if targets.ndim > 1 else targets.size
    targets = targets.reshape(-1)
    if targets.size != columns:
        raise ShapeError(f"{targets.size} targets for {columns} logit columns")
    if targets.min() < 0 or targets.max() >= vocab:
        raise ValidationError(f"target id outside vocabulary of size {vocab}")
    record = logits.backward is not None
    if record:
        df = np.empty_like(f)
    scale = 1.0 / columns
    span = batch * max(1, CE_CHUNK_ENTRIES // (vocab * batch))
    rows = max(1, CE_BLOCK_ENTRIES // vocab)
    total = 0.0
    for lo in range(0, columns, span):
        tc = targets[lo:lo + span]
        fa = np.empty((width + 1, tc.size))
        fa[:width] = f[:, lo:lo + span]
        fa[width] = 1.0
        zt = fa.T @ out.data   # (positions x vocab), bias included
        nll = np.empty(tc.size)
        for r in range(0, tc.size, rows):
            zb, tb = zt[r:r + rows], tc[r:r + rows]
            at = np.arange(tb.size), tb
            m = zb.max(axis=1)
            # NaN and +inf show in the row max, -inf in the block's min
            if not (np.isfinite(m).all() and zb.min() > -np.inf):
                raise NumericError("non-finite logits in the LM head")
            picked = zb[at]
            zb -= m[:, None]
            np.exp(zb, out=zb)
            s = zb.sum(axis=1)
            nll[r:r + rows] = m + np.log(s) - picked
            if record:
                zb *= (scale / s)[:, None]   # zb is now (softmax - onehot) / N
                zb[at] -= scale
        total += nll.sum()
        if record:
            out.grad += fa @ zt
            np.matmul(out.data[:width], zt.T, out=df[:, lo:lo + span])
        del fa, zt, zb   # a block view would keep the chunk alive past its turn
    if record:
        logits.backward(df)
    return Loss(float(scale * total), record)


def perplexity(mean_loss):
    """exp(mean loss); inf for a finite loss too large to exponentiate."""
    if not math.isfinite(mean_loss):
        raise NumericError("perplexity of non-finite loss")
    try:
        return math.exp(mean_loss)
    except OverflowError:
        return math.inf


def _order(a):
    """The order, "C" or "F", in which ``a`` is contiguous: a scratch view
    in the same order keeps an elementwise pass over both in memory order
    (the head's parameters are transposed views)."""
    return "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"


def clip_gradients(params, max_norm):
    """Global-norm clipping over all trainable gradients; returns the factor."""
    grads = [p.grad for p in params]
    buf = np.empty(max((g.size for g in grads), default=0))
    sq = 0.0
    for g in grads:
        tmp = buf[:g.size].reshape(g.shape, order=_order(g))
        part = float(np.multiply(g, g, out=tmp).sum())
        # a finite sum of squares proves every entry finite
        if not math.isfinite(part) and not np.all(np.isfinite(g)):
            raise NumericError("NaN/Inf gradient before clipping")
        sq += part
    norm = math.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for g in grads:
        g *= factor
    return factor


@dataclass
class OptimizerState:
    """One velocity buffer per trainable tensor, zero-initialized."""

    velocities: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params):
        return cls([np.zeros_like(p.data) for p in params])


def sgd_step(params, opt, lr, cfg):
    """v <- mu*v + (grad + wd*param); param <- param - lr*v, in place."""
    buf = np.empty(max((p.data.size for p in params), default=0))
    for p, v in zip(params, opt.velocities):
        tmp = buf[:p.data.size].reshape(p.data.shape, order=_order(p.data))
        np.multiply(p.data, cfg.weight_decay, out=tmp)
        tmp += p.grad
        v *= cfg.momentum
        v += tmp
        p.data -= np.multiply(v, lr, out=tmp)


def cosine_lr(epoch, total_epochs, lr0):
    """Single half-cosine from lr0 down to 0, at epoch granularity."""
    if not 0 <= epoch <= total_epochs:
        raise ValidationError(f"epoch {epoch} outside [0, {total_epochs}]")
    return lr0 * (1.0 + math.cos(math.pi * epoch / total_epochs)) / 2.0


def zero_grads(params):
    """Zero each parameter's gradient buffer, allocating it on first use."""
    for p in params:
        p.zero_grad()


def train_epoch(model, batches, cfg, opt, lr, epoch=0):
    """One pass over the batches; states carried within the epoch.  Returns
    epoch metrics; a numeric failure aborts with the partial metrics under
    'aborted'."""
    params = model.parameters()
    rng = np.random.default_rng([cfg.seed, epoch, 0x5EED])
    states = model.init_state(batches[0].inputs.shape[1])
    loss_sum = 0.0
    positions = 0
    clipped = 0
    start = time.monotonic()
    for step, batch in enumerate(batches):
        try:
            zero_grads(params)
            logits, states = model.forward(batch.inputs, states, train=True, rng=rng)
            loss = cross_entropy_loss(logits, batch.targets)
            factor = clip_gradients(params, cfg.clip_norm)
            sgd_step(params, opt, lr, cfg)
        except NumericError as err:
            return _metrics(loss_sum, positions, clipped, step, start,
                            aborted=str(err))
        loss_sum += loss.item() * batch.targets.size
        positions += batch.targets.size
        clipped += factor < 1.0
        del logits, loss   # free this window's arrays before the next forward
    return _metrics(loss_sum, positions, clipped, len(batches), start)


def _metrics(loss_sum, positions, clipped, steps, start, aborted=None):
    loss = loss_sum / positions if positions else float("nan")
    out = {
        "loss": loss,
        "ppl": perplexity(loss) if positions else float("nan"),
        "clip_rate": clipped / steps if steps else 0.0,
        "seconds": time.monotonic() - start,
    }
    if aborted is not None:
        out["aborted"] = aborted
    return out


def evaluate(model, batches):
    """Mean loss and perplexity over all positions, no dropout, no gradients."""
    states = model.init_state(batches[0].inputs.shape[1])
    loss_sum = 0.0
    positions = 0
    for batch in batches:
        logits, states = model.forward(batch.inputs, states, train=False)
        loss = cross_entropy_loss(logits, batch.targets)
        loss_sum += loss.item() * batch.targets.size
        positions += batch.targets.size
        del logits, loss   # free this window's features before the next forward
    loss = loss_sum / positions
    return {"loss": loss, "perplexity": perplexity(loss)}


def fit(model, train_batches, valid_batches, cfg, metrics_sink=None,
        checkpoint_path=None, log=None):
    """Full training driver: cosine schedule, per-epoch metrics record,
    best checkpoint.  The best epoch is the one with the lowest validation
    loss, or the lowest training loss when there is no validation split.
    Returns the list of epoch records."""
    params = model.parameters()
    opt = OptimizerState.for_params(params)
    records = []
    best_loss = float("inf")
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr0)
        em = train_epoch(model, train_batches, cfg, opt, lr, epoch=epoch)
        if "aborted" in em:
            raise NumericError(f"epoch {epoch} aborted: {em['aborted']}")
        vm = evaluate(model, valid_batches) if valid_batches else {"loss": float("nan"),
                                                                   "perplexity": float("nan")}
        record = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": em["loss"],
            "train_ppl": em["ppl"],
            "valid_loss": vm["loss"],
            "valid_ppl": vm["perplexity"],
            "clip_rate": em["clip_rate"],
            "seconds": em["seconds"],
        }
        records.append(record)
        if metrics_sink is not None:
            metrics_sink(record)
        if log is not None:
            log(f"epoch {epoch:3d}  lr {lr:.4f}  train ppl {em['ppl']:.2f}  "
                f"valid ppl {vm['perplexity']:.2f}")
        selection_loss = vm["loss"] if valid_batches else em["loss"]
        if checkpoint_path is not None and selection_loss < best_loss:
            best_loss = selection_loss
            model.save(checkpoint_path)
    return records
