"""Truncated-BPTT training: loss, clipping, SGD with momentum, cosine schedule.

A training window is an explicit pass: ``train_epoch`` zeroes the
gradient buffers, ``LanguageModel.forward`` runs the model and keeps its
backward passes, and ``cross_entropy_loss`` evaluates the head fused with
the loss, adds the head's gradients and runs those backward passes.
Hidden states are carried across windows within an epoch as plain arrays
and reset at epoch start.  Each pool matrix is one parameter, so an
aliased pool entry is updated once per step with its summed gradient.
``train_epoch`` and ``evaluate`` run their windows in the thread's
``tensor.Workspace`` (see ``cells``).
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import cells as C
from . import tensor as T
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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for name in ("lr0", "momentum", "weight_decay", "clip_norm"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(f"{name} must be finite and nonnegative, got {value}")
        # clip_norm 0 zeroes every gradient, and momentum 1 never forgets one
        if self.clip_norm == 0 or self.momentum >= 1:
            raise ValidationError(f"need clip_norm > 0 and momentum < 1, got clip_norm "
                                  f"{self.clip_norm} and momentum {self.momentum}")


# Logits entries per chunk of the fused head and loss: 32 MB of float64.
CE_CHUNK_ENTRIES = 1 << 22
# Logits entries per block of a chunk's softmax passes: 1 MB, in L2.
CE_BLOCK_ENTRIES = 1 << 17
# Vocabulary columns per block of a chunk's head-gradient product.
HEAD_BLOCK_COLUMNS = 2048
# Entries per block of clip_gradients' and sgd_step's passes: 128 KB per
# operand, so that a block of a parameter, its gradient and velocity is in L2.
STEP_BLOCK_ENTRIES = 1 << 14


class Loss:
    """A window's mean cross entropy; ``requires_grad`` is True for a
    training window, whose gradients the loss has already added."""

    __slots__ = ("value", "requires_grad")

    def __init__(self, value, requires_grad):
        self.value = value
        self.requires_grad = requires_grad

    def item(self):
        return self.value


def cross_entropy_loss(logits, targets):
    """Mean cross entropy over all (timestep, batch) positions, fused with
    the LM head; returns a ``Loss``.

    logits: the ``cells.HeadLogits`` the model returns, (vocab x T*batch)
    with step-major columns; targets: the (T, batch) ids (or (batch,) for
    a single step).  The logits are made in chunks of whole steps of at
    most ``CE_CHUNK_ENTRIES`` ("logits"), one row per position, whose
    softmax passes run over blocks of ``CE_BLOCK_ENTRIES``.  For a training
    window each chunk adds [f; 1] @ (softmax - onehot) / N into the head's
    zeroed gradient, a block of ``HEAD_BLOCK_COLUMNS`` columns at a time
    ("head product"), and writes its columns of the feature gradient ("df",
    over the features once read), which is sent back through the features
    before the loss returns.
    """
    ws = T.Workspace.current()
    out, operand = logits.head.out, logits.operand
    width = operand.shape[0] - 1
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
        df = C.window_array(ws, "df", (width, columns))
    scale = 1.0 / columns
    rows = max(1, CE_BLOCK_ENTRIES // vocab)
    total = 0.0
    for chunk in C.step_blocks(columns, batch, vocab, CE_CHUNK_ENTRIES):
        tc = targets[chunk]
        fa = operand[:, chunk]
        # (positions x vocab), bias included
        zt = np.matmul(fa.T, out.data, out=C.window_array(ws, "logits", (tc.size, vocab)))
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
            for c in range(0, vocab, HEAD_BLOCK_COLUMNS):
                zc = zt[:, c:c + HEAD_BLOCK_COLUMNS]
                block = np.matmul(fa, zc, out=C.window_array(ws, "head product",
                                                             (width + 1, zc.shape[1])))
                # row by row: a strided 2-D += would allocate iterator buffers
                for grad, row in zip(out.grad[:, c:c + zc.shape[1]], block):
                    grad += row
                del zc, block, row   # freed before the next block's product
            # the chunk's features are read no more: its gradient may take them
            np.matmul(out.data[:width], zt.T, out=df[:, chunk])
        del zt, zb   # a block view would keep the chunk alive past its turn
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


def _step_scratch(arrays):
    """The block-sized scratch of clip_gradients and sgd_step over ``arrays``."""
    return C.window_array(T.Workspace.current(), "scratch",
                          min(STEP_BLOCK_ENTRIES, max((a.size for a in arrays), default=0)))


def _sum_of_squares(g, buf):
    """sum(g * g) over a 1-D g through a scratch ``buf`` of at least 128
    entries: g is split in halves as numpy's pairwise sum splits it, until
    a part fits the scratch, so the squares are added in the order of one
    numpy ``sum`` over all of them."""
    n = g.size
    if n <= buf.size:
        return float(np.multiply(g, g, out=buf[:n]).sum())
    half = n // 2 - n // 2 % 8
    return _sum_of_squares(g[:half], buf) + _sum_of_squares(g[half:], buf)


def clip_gradients(params, max_norm):
    """Global-norm clipping over all trainable gradients; returns the factor.

    The squares are summed through one block-sized ("scratch") buffer.
    Finite gradients whose sum of squares overflows are first divided by
    their largest magnitude and measured again, so they are still clipped
    to max_norm, not zeroed.
    """
    # 1-D views in memory order: the head's parameters are transposed views
    grads = [p.grad.reshape(-1, order="A") for p in params]
    buf = _step_scratch(grads)
    sq = 0.0
    with np.errstate(over="ignore"):   # an overflow is measured again below
        for g in grads:
            part = _sum_of_squares(g, buf)
            # a finite sum of squares proves every entry finite
            if not math.isfinite(part) and not np.all(np.isfinite(g)):
                raise NumericError("NaN/Inf gradient before clipping")
            sq += part
    norm = math.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = 1.0
    if math.isinf(norm):
        scale = max(max(float(g.max()), -float(g.min())) for g in grads if g.size)
        for g in grads:
            g /= scale
        norm = math.sqrt(sum(_sum_of_squares(g, buf) for g in grads))
    factor = max_norm / norm
    for g in grads:
        g *= factor
    return factor / scale


@dataclass
class OptimizerState:
    """One velocity buffer per trainable tensor, zero-initialized."""

    velocities: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params):
        return cls([np.zeros_like(p.data) for p in params])


def sgd_step(params, opt, lr, cfg):
    """v <- mu*v + (grad + wd*param); param <- param - lr*v, in place.

    Each parameter, its gradient and its velocity, which share a memory
    order, are walked together in blocks of ``STEP_BLOCK_ENTRIES`` through
    one block-sized ("scratch") buffer.
    """
    buf = _step_scratch([p.data for p in params])
    for p, v in zip(params, opt.velocities):
        data, grad, vel = (a.reshape(-1, order="A") for a in (p.data, p.grad, v))
        for lo in range(0, data.size, STEP_BLOCK_ENTRIES):
            d, vb = data[lo:lo + STEP_BLOCK_ENTRIES], vel[lo:lo + STEP_BLOCK_ENTRIES]
            tmp = buf[:d.size]
            np.multiply(d, cfg.weight_decay, out=tmp)
            tmp += grad[lo:lo + STEP_BLOCK_ENTRIES]
            vb *= cfg.momentum
            vb += tmp
            d -= np.multiply(vb, lr, out=tmp)


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
    epoch metrics; a numeric failure raises NumericError.  The windows run
    in the thread's workspace."""
    params = model.parameters()
    rng = np.random.default_rng([cfg.seed, epoch, 0x5EED])
    states = model.init_state(batches[0].inputs.shape[1])
    loss_sum = 0.0
    positions = 0
    clipped = 0
    start = time.monotonic()
    with T.Workspace.loop() as ws:
        for batch in batches:
            ws.begin()
            zero_grads(params)
            logits, states = model.forward(batch.inputs, states, train=True, rng=rng)
            loss = cross_entropy_loss(logits, batch.targets)
            factor = clip_gradients(params, cfg.clip_norm)
            sgd_step(params, opt, lr, cfg)
            loss_sum += loss.item() * batch.targets.size
            positions += batch.targets.size
            clipped += factor < 1.0
            del logits, loss   # so a slot that grows next window can free its old buffer
    loss = loss_sum / positions if positions else float("nan")
    return {
        "loss": loss,
        "ppl": perplexity(loss) if positions else float("nan"),
        "clip_rate": clipped / len(batches),
        "seconds": time.monotonic() - start,
    }


def evaluate(model, batches):
    """Mean loss and perplexity over all positions, no dropout, no gradients;
    the windows run in the thread's workspace."""
    states = model.init_state(batches[0].inputs.shape[1])
    loss_sum = 0.0
    positions = 0
    with T.Workspace.loop() as ws:
        for batch in batches:
            ws.begin()
            logits, states = model.forward(batch.inputs, states, train=False)
            loss = cross_entropy_loss(logits, batch.targets)
            loss_sum += loss.item() * batch.targets.size
            positions += batch.targets.size
            del logits, loss   # so a slot that grows next window can free its old buffer
    loss = loss_sum / positions
    return {"loss": loss, "perplexity": perplexity(loss)}


def fit(model, train_batches, valid_batches, cfg, checkpoint_path=None, on_epoch=None):
    """Full training driver: cosine schedule, per-epoch metrics record passed
    to ``on_epoch`` if given, best checkpoint.  The best epoch is the one
    with the lowest validation loss, or the lowest training loss when there
    is no validation split.  Returns the list of epoch records."""
    params = model.parameters()
    opt = OptimizerState.for_params(params)
    records = []
    best_loss = float("inf")
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr0)
        try:
            em = train_epoch(model, train_batches, cfg, opt, lr, epoch=epoch)
        except NumericError as err:
            raise NumericError(f"epoch {epoch} aborted: {err}") from None
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
        if on_epoch is not None:
            on_epoch(record)
        selection_loss = vm["loss"] if valid_batches else em["loss"]
        if checkpoint_path is not None and selection_loss < best_loss:
            best_loss = selection_loss
            model.save(checkpoint_path)
    return records
