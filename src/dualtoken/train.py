"""Toy supervised training: cross-entropy, AdamW, a deterministic
micro-batch step, and evaluation.

The optimizer step reads each parameter's accumulated gradient as it is and
updates the parameter and its AdamW moments in place, in blocks of 32,768
elements. The 1/micro_batch gradient scale, the bias corrections, the
learning rate and the decoupled weight decay are folded into scalars, so the
step makes no full-size temporary. A tensor of one block or more is updated
block by block where it lies. The smaller tensors are updated together: their
moments are views into one flat buffer per dtype, in parameter order, and
each run of them that fits in a block has its parameters and gradients
gathered into block scratch, is updated there against its moments, and has
its parameters scattered back. The flat buffers stay with the state from step
to step; a moment pair that a caller puts into `moments` is copied in.

`train_step` runs its micro-batch as one batched forward and one backward,
and updates the tensors of one block or more during that backward: each is
updated, and its gradient dropped, as soon as the backward has finished that
gradient, so finished gradients do not wait for the end of the step. The
small tensors are updated together once the backward is done. Either way
each tensor gets the same update, bit for bit."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .container import CheckpointError, Reader, write_tensors
from .model import Model, build_model, check_positive_int
from .tensor import GradTape, Tensor


class TrainingDiverged(RuntimeError):
    def __init__(self, step):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


def cross_entropy(logits, labels):
    """-log softmax(z)[label], differentiable: K logits and one label give
    a scalar, N x K logits and N labels the N per-sample losses. A label is
    an int or a numpy integer, not a bool."""
    z = logits.data
    k = z.shape[-1]
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"label must be an integer, got {labels!r}")
    if labels.shape != z.shape[:-1]:
        raise ValueError(f"{z.shape} logits need labels of shape {z.shape[:-1]}, "
                         f"got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label {labels} out of range [0, {k})")
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise FloatingPointError("cross_entropy received non-finite logits")
    picked = labels[..., None]
    m = np.maximum.reduce(z, axis=-1, keepdims=True)
    lse = m + np.log(np.add.reduce(np.exp(z - m), axis=-1, keepdims=True))
    out = Tensor((lse - np.take_along_axis(z, picked, axis=-1))[..., 0])
    if T._trace(logits):
        probs = np.exp(z - lse)
        def bwd(g, logits=T._slot(logits), probs=probs, picked=picked):
            gz = probs.copy()
            np.put_along_axis(gz, picked, np.take_along_axis(gz, picked, axis=-1) - 1.0,
                              axis=-1)
            T._accum(logits, g.reshape(probs.shape[:-1] + (1,)) * gz, True)
        T._emit(out, bwd)
    return out


@dataclass
class TrainState:
    model: Model
    optimizer: str
    lr: float
    step: int = 0
    loss_history: list = field(default_factory=list)
    moments: dict = field(default_factory=dict)   # AdamW first/second moments
    # (key, groups, views) of `_apply_update`'s small tensors, across steps
    _packed: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.optimizer != "adamw":
            raise ValueError(f"optimizer must be adamw, got {self.optimizer!r}")
        if (isinstance(self.lr, bool) or not isinstance(self.lr, numbers.Real)
                or not (math.isfinite(self.lr) and self.lr >= 0)):
            raise ValueError(f"lr must be a finite real number >= 0, got {self.lr!r}")


# elements per update block: 128 KB in f32, so a block's operands stay in L2
_BLOCK = 32768
# AdamW's moment decay rates, epsilon and decoupled weight decay
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
ADAMW_WEIGHT_DECAY = 4e-2


def _scalars(state, micro_batch):
    """The bias corrections, lr, decay and 1/micro_batch of the state's next
    step folded into the scalars of `_adamw`:
    p <- p (1 - lr wd) - lr/bc1 * m / (sqrt(v) / sqrt(bc2) + eps)."""
    b1, b2 = ADAMW_BETAS
    t = state.step + 1
    return ((1 - b1) / micro_batch,
            (1 - b2) / (micro_batch * micro_batch),
            1 / math.sqrt(1 - b2 ** t),
            state.lr / (1 - b1 ** t),
            1 - state.lr * ADAMW_WEIGHT_DECAY)


def _apply_update(state, params, micro_batch):
    """One AdamW step, in place, for every (name, p) of `params` that holds
    an accumulated `p.grad` (a sum over `micro_batch` samples)."""
    params = [(name, p) for name, p in params if p.grad is not None]
    scalars = _scalars(state, micro_batch)
    scratch = {dt: [np.empty(_BLOCK, dt) for _ in range(4)]
               for dt in {p.data.dtype for _, p in params}}

    # tensors under one block: batches gathered into scratch, moments in the
    # flat buffers of `_pack`, which the state keeps while its tensors stay
    small = [(name, p) for name, p in params if p.data.size < _BLOCK]
    key = [(name, p.data.dtype, p.data.shape) for name, p in small]
    if state._packed is None or state._packed[0] != key:
        state._packed = (key, *_pack(small))
    _, groups, views = state._packed
    for name, pair in views.items():
        given = state.moments.get(name)
        if given is not pair:
            # a pair that a caller put there is copied in; none is zero
            pair[0][...] = 0 if given is None else given[0]
            pair[1][...] = 0 if given is None else given[1]
            state.moments[name] = pair
    for dt, (m, v, batches) in groups.items():
        tensors = [p for _, p in small if p.data.dtype == dt]
        sp, sg, s1, s2 = scratch[dt]
        for first, last, bounds in batches:
            a, b = bounds[0], bounds[-1]
            n = b - a
            batch = tensors[first:last]
            np.concatenate([p.data for p in batch], axis=None, out=sp[:n])
            np.concatenate([p.grad for p in batch], axis=None, out=sg[:n])
            _adamw(sp[:n], sg[:n], m[a:b], v[a:b], s1[:n], s2[:n], scalars)
            for p, i, j in zip(batch, bounds, bounds[1:]):
                p.data[...] = sp[i - a:j - a].reshape(p.data.shape)

    # tensors of one block or more
    for name, p in params:
        if p.data.size >= _BLOCK:
            _update_large(state, name, p, scalars, *scratch[p.data.dtype][2:])


def _update_large(state, name, p, scalars, s1, s2):
    """The AdamW update of `p`, a tensor of one block or more, block by block
    where it lies, with scratch s1 and s2 of one block."""
    if name not in state.moments:
        state.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
    flat = [_flat(a) for a in (p.data, p.grad, *state.moments[name])]
    for i in range(0, p.data.size, _BLOCK):
        pb, gb, mb, vb = (a[i:i + _BLOCK] for a in flat)
        _adamw(pb, gb, mb, vb, s1[:pb.size], s2[:pb.size], scalars)


def _large_updater(state, params, micro_batch):
    """The `on_leaf_done` hook of a step's backward: it updates each
    parameter of one block or more whose gradient is complete, and drops
    that gradient. Other leaves are left as they are."""
    scalars = _scalars(state, micro_batch)
    large = {p: name for name, p in params if p.data.size >= _BLOCK}
    scratch = {dt: (np.empty(_BLOCK, dt), np.empty(_BLOCK, dt))
               for dt in {p.data.dtype for p in large}}

    def update(p):
        name = large.get(p)
        if name is not None and p.grad is not None:
            _update_large(state, name, p, scalars, *scratch[p.data.dtype])
            p.grad = None
    return update


def _adamw(pb, gb, mb, vb, s1, s2, scalars):
    """The AdamW update of one block, in place: parameters pb, gradients gb
    and moments mb and vb, with scratch s1 and s2 of the same size."""
    b1, b2 = ADAMW_BETAS
    g1, g2, inv_sqrt_bc2, step_size, decay = scalars
    mb *= b1
    np.multiply(gb, g1, out=s1)
    mb += s1
    vb *= b2
    np.multiply(gb, gb, out=s1)
    s1 *= g2
    vb += s1
    np.sqrt(vb, out=s1)
    s1 *= inv_sqrt_bc2
    s1 += ADAMW_EPS
    np.divide(mb, s1, out=s2)
    s2 *= step_size
    pb *= decay
    pb -= s2


def _pack(small):
    """Flat moment buffers for the (name, p) pairs of `small`, each under one
    block, as (groups, views).

    `groups[dt]` is (m, v, batches): the first and second moments of the
    tensors of dtype dt, one after another in parameter order, and their
    update batches. A batch (first, last, bounds) covers those tensors first
    to last - 1, tensor first + k at m[bounds[k]:bounds[k + 1]]; it holds at
    most one block. `views[name]` is the (m, v) pair of one tensor, shaped
    like it. The buffers are uninitialised."""
    members = {}
    for name, p in small:
        members.setdefault(p.data.dtype, []).append((name, p.data.shape, p.data.size))
    groups, views = {}, {}
    for dt, tensors in members.items():
        offsets = [0]
        for _, _, n in tensors:
            offsets.append(offsets[-1] + n)
        m, v = np.empty(offsets[-1], dt), np.empty(offsets[-1], dt)
        batches, first = [], 0
        for k in range(1, len(tensors) + 1):
            if k == len(tensors) or offsets[k + 1] - offsets[first] > _BLOCK:
                batches.append((first, k, offsets[first:k + 1]))
                first = k
        for (name, shape, _), a, b in zip(tensors, offsets, offsets[1:]):
            views[name] = (m[a:b].reshape(shape), v[a:b].reshape(shape))
        groups[dt] = (m, v, batches)
    return groups, views


def _flat(a):
    """A 1-d view of a C-contiguous array; in-place writes reach `a`."""
    if not a.flags.c_contiguous:
        raise ValueError("optimizer buffers must be C-contiguous")
    return a.reshape(-1)


def train_step(state, dataset, micro_batch=8):
    """One optimizer step on `micro_batch` consecutive samples
    (deterministic round-robin order), run as one batched forward on a view
    of the dataset's images, or on a copy where the samples wrap around its
    end: the loss is the sum of the samples' cross-entropies, and the
    1/micro_batch is folded into AdamW's scalars. A non-finite value in the forward pass or
    the loss raises `TrainingDiverged`, before any parameter or moment
    changes.

    The mean loss is checked before the step's one backward, which updates
    each tensor of one block or more as soon as its gradient is complete
    (`_large_updater`); the other tensors are updated after it. No
    parameter holds a .grad afterwards."""
    check_positive_int("micro_batch", micro_batch)
    model = state.model
    params = list(model.named_params())
    for _, p in params:
        p.zero_grad()
    start = state.step * micro_batch % len(dataset)
    if start + micro_batch <= len(dataset):
        # consecutive samples: a view of the dataset, not a copy
        idx = slice(start, start + micro_batch)
    else:
        idx = (start + np.arange(micro_batch)) % len(dataset)
    tape = GradTape()
    try:
        with tape:
            logits, _ = model.forward(Tensor(dataset.images[idx]), want_activations=False)
            loss = T.sum(cross_entropy(logits, dataset.labels[idx]))
    except FloatingPointError as exc:
        raise TrainingDiverged(state.step) from exc
    mean_loss = loss.item() / micro_batch
    if not np.isfinite(mean_loss):
        raise TrainingDiverged(state.step)
    T.backward(tape, loss, _large_updater(state, params, micro_batch))
    _apply_update(state, params, micro_batch)
    for _, p in params:
        p.zero_grad()
    state.step += 1
    state.loss_history.append(mean_loss)
    return mean_loss


def train_toy(cfg, dataset, steps=200, lr=1e-3, seed=42, state=None, log=None):
    """Run `steps` AdamW steps of `train_step`'s default micro-batch on the
    dataset; resumable via `state`."""
    check_positive_int("steps", steps)
    if state is None:
        model = cfg if isinstance(cfg, Model) else build_model(cfg, seed=seed)
        state = TrainState(model=model, optimizer="adamw", lr=lr)
    for _ in range(steps):
        loss = train_step(state, dataset)
        if log is not None and state.step % 50 == 0:
            log(f"step {state.step}: loss {loss:.4f}")
    return state


# image elements per batched forward of `evaluate`: 4 MB of float32 input,
# 341 images at 32^2 and 6 at 224^2
_EVAL_ELEMENTS = 1 << 20


def evaluate(model, dataset):
    """Argmax accuracy; ties resolve to the lowest class index. The images
    go through the model in batches of `_EVAL_ELEMENTS` input elements."""
    n = len(dataset)
    batch = max(1, _EVAL_ELEMENTS // dataset.images[0].size)
    hits = 0
    for i in range(0, n, batch):
        logits, _ = model.forward(Tensor(dataset.images[i:i + batch]), want_activations=False)
        hits += int(np.count_nonzero(np.argmax(logits.data, axis=-1)
                                     == dataset.labels[i:i + batch]))
    return hits / n


# ---------------------------------------------------------------------------
# state round-trips
# ---------------------------------------------------------------------------

def save_state(state, path):
    named = {f"param.{n}": p.data for n, p in state.model.named_params()}
    for name, (m, v) in state.moments.items():
        named[f"adam.m.{name}"] = m
        named[f"adam.v.{name}"] = v
    named["meta.step"] = np.asarray([state.step], dtype=np.float64)
    named["meta.loss_history"] = np.asarray(state.loss_history, dtype=np.float64)
    write_tensors(path, named)


def load_state(path, cfg, seed=42):
    """Resume a state written by `save_state` into a model built from `cfg`,
    as AdamW at the learning rate `train_toy` defaults to.

    The container must hold exactly one `param.<name>` per model parameter,
    an `adam.m.<name>` and `adam.v.<name>` pair per AdamW moment it stores,
    whose values fit the parameter's dtype, `meta.step` (one whole number
    >= 0) and a 1-d `meta.loss_history`; anything else raises
    `CheckpointError` naming the tensor."""
    with Reader(path) as reader:
        model = build_model(cfg, seed=seed)
        state = TrainState(model=model, optimizer="adamw", lr=1e-3)
        params = model.param_dict()
        expected = {f"param.{name}": p.shape for name, p in params.items()}
        for name, p in params.items():
            if f"adam.m.{name}" in reader.shapes:
                expected[f"adam.m.{name}"] = expected[f"adam.v.{name}"] = p.shape
        expected["meta.step"] = (1,)
        expected["meta.loss_history"] = (None,)
        reader.expect(expected)
        for name, p in params.items():
            # parameters keep their saved precision, so an f64 run resumes in f64
            p.data = reader.read(f"param.{name}", reader.dtypes[f"param.{name}"])
            if f"adam.m.{name}" in reader.shapes:
                state.moments[name] = tuple(
                    reader.read(key, p.data.dtype)
                    for key in (f"adam.m.{name}", f"adam.v.{name}"))
        step = float(reader.read("meta.step", np.float64)[0])
        history = reader.read("meta.loss_history", np.float64)
    if not (step.is_integer() and step >= 0):
        raise CheckpointError(f"{path}: meta.step must be a whole number >= 0, got {step}")
    state.step = int(step)
    state.loss_history = [float(v) for v in history]
    return state
