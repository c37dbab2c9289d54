"""Toy supervised training: cross-entropy, AdamW, a deterministic
micro-batch step, and evaluation.

The optimizer step reads each parameter's accumulated gradient as it is and
updates the parameter and its AdamW moments in place, in blocks of 32,768
elements. The 1/micro_batch gradient scale, the bias corrections, the
learning rate and the decoupled weight decay are folded into scalars, so the
step makes no full-size temporary. A tensor of one block or more is updated
block by block where it lies. The smaller tensors live in the state's flat
buffers: one per dtype for their data, and one each for their first and
second moments, in parameter order, with each tensor's .data and moments
views into them. Their gradients are gathered into block scratch, a run of
tensors that fits in a block at a time, and the update runs on the flat
ranges in place, so nothing is scattered back. A new state adopts a data
buffer that the tensors' data already lie in back to back, and copies the
data into a new one otherwise. The state re-packs only when the set of small
tensors holding a gradient changes, or when a small tensor's .data is no
longer its view (after `cast_model`, or after a caller assigns `p.data`).
A value written into `p.data[...]` lands in the buffer, and a moment pair
that a caller puts into `moments` is copied in.

`train_step` walks the model's parameters once per state, and runs its
micro-batch as one batched forward and one backward. When the model has a
tensor of one block or more, that backward gets an `on_leaf_done` hook that
updates each such tensor, and drops its gradient, as soon as the backward
has finished that gradient, so finished gradients do not wait for the end of
the step; a model without one gets no hook. The small tensors are updated
together once the backward is done. Either way each tensor gets the same
update, bit for bit."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate

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
    # `train_step`'s walk of the model, (model, params, large), where large
    # maps each tensor of one block or more to its name
    _walk: tuple = field(default=None, init=False, repr=False, compare=False)
    # `_buffers`'s (small, datas, groups, views), kept from step to step
    _packed: tuple = field(default=None, init=False, repr=False, compare=False)
    # three blocks of update scratch per dtype
    _scratch: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    # tensors under one block: data and moments in the flat buffers of
    # `_pack`, which the state keeps while its tensors and their data stay
    groups = _buffers(state, [(name, p) for name, p in params
                              if p.data.size < _BLOCK])
    for dt, (d, m, v, tensors, batches) in groups.items():
        grads = [p.grad for p in tensors]
        sg, s1, s2 = _scratch(state, dt)
        for first, last, bounds in batches:
            a, b = bounds[0], bounds[-1]
            n = b - a
            np.concatenate(grads[first:last], axis=None, out=sg[:n])
            _adamw(d[a:b], sg[:n], m[a:b], v[a:b], s1[:n], s2[:n], scalars)

    # tensors of one block or more
    for name, p in params:
        if p.data.size >= _BLOCK:
            _update_large(state, name, p, scalars)


def _buffers(state, small):
    """`_pack`'s groups for the (name, p) pairs of `small`: the state's own
    while those pairs and their .data arrays stay, else new. Each tensor's
    entry in `state.moments` becomes its pair of views into the buffers."""
    packed = state._packed
    if (packed is None or packed[0] != small
            or any(p.data is not d for (_, p), d in zip(small, packed[1]))):
        groups, views = _pack(small)
        packed = state._packed = (small, [p.data for _, p in small], groups, views)
    for name, pair in packed[3].items():
        given = state.moments.get(name)
        if given is not pair:
            # a pair that a caller put there is copied in; none is zero
            pair[0][...] = 0 if given is None else given[0]
            pair[1][...] = 0 if given is None else given[1]
            state.moments[name] = pair
    return packed[2]


def _scratch(state, dt):
    """The state's three blocks of update scratch of dtype dt."""
    if dt not in state._scratch:
        state._scratch[dt] = [np.empty(_BLOCK, dt) for _ in range(3)]
    return state._scratch[dt]


def _update_large(state, name, p, scalars):
    """The AdamW update of `p`, a tensor of one block or more, block by block
    where it lies."""
    if name not in state.moments:
        state.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
    flat = [_flat(a) for a in (p.data, p.grad, *state.moments[name])]
    _, s1, s2 = _scratch(state, p.data.dtype)
    for i in range(0, p.data.size, _BLOCK):
        pb, gb, mb, vb = (a[i:i + _BLOCK] for a in flat)
        _adamw(pb, gb, mb, vb, s1[:pb.size], s2[:pb.size], scalars)


def _large_updater(state, large, micro_batch):
    """The `on_leaf_done` hook of a step's backward: it updates each leaf of
    `large`, which maps the parameters of one block or more to their names,
    once its gradient is complete, and drops that gradient. Other leaves are
    left as they are."""
    scalars = _scalars(state, micro_batch)

    def update(p):
        name = large.get(p)
        if name is not None and p.grad is not None:
            _update_large(state, name, p, scalars)
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
    """Flat buffers for the (name, p) pairs of `small`, each under one
    block, as (groups, views).

    `groups[dt]` is (d, m, v, tensors, batches): the data, first moments and
    second moments of the tensors of dtype dt, one after another in
    parameter order, those tensors, and their update batches. A batch
    (first, last, bounds) covers those tensors first to last - 1, tensor
    first + k at d[bounds[k]:bounds[k + 1]]; it holds at most one block.
    `views[name]` is the (m, v) pair of one tensor, shaped like it; the
    moment buffers are uninitialised. If the tensors' data already tile one
    buffer in that order, d is that buffer; otherwise d is new, holds a copy,
    and each tensor's .data becomes a view into it."""
    members = {}
    for name, p in small:
        members.setdefault(p.data.dtype, []).append((name, p))
    groups, views = {}, {}
    for dt, tensors in members.items():
        datas = [p.data for _, p in tensors]
        offsets = list(accumulate((a.size for a in datas), initial=0))
        d = _tiled(datas, offsets)
        if d is None:
            d = np.concatenate(datas, axis=None)
            for (_, p), a, b in zip(tensors, offsets, offsets[1:]):
                p.data = d[a:b].reshape(p.data.shape)
        m, v = np.empty(offsets[-1], dt), np.empty(offsets[-1], dt)
        batches, first = [], 0
        for k in range(1, len(tensors) + 1):
            if k == len(tensors) or offsets[k + 1] - offsets[first] > _BLOCK:
                batches.append((first, k, offsets[first:k + 1]))
                first = k
        for (name, p), a, b in zip(tensors, offsets, offsets[1:]):
            views[name] = (m[a:b].reshape(p.data.shape), v[a:b].reshape(p.data.shape))
        groups[dt] = (d, m, v, [p for _, p in tensors], batches)
    return groups, views


def _tiled(datas, offsets):
    """The writable 1-d array whose slices at `offsets`, shaped like the
    arrays `datas`, are those arrays; None if there is none."""
    base = datas[0].base
    tiled = (isinstance(base, np.ndarray) and base.shape == (offsets[-1],)
             and base.flags.writeable
             and all(a.__array_interface__ == base[i:j].reshape(a.shape).__array_interface__
                     for a, i, j in zip(datas, offsets, offsets[1:])))
    return base if tiled else None


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

    The model's parameters are walked, and the small tensors packed, on a
    state's first step only. The mean loss is checked before the step's one
    backward, which updates each tensor of one block or more as soon as its
    gradient is complete (`_large_updater`, passed only when there is such
    a tensor); the other tensors are updated after it. No parameter holds a
    .grad afterwards."""
    check_positive_int("micro_batch", micro_batch)
    model = state.model
    if state._walk is None or state._walk[0] is not model:
        params = list(model.named_params())
        state._walk = (model, params,
                       {p: name for name, p in params if p.data.size >= _BLOCK})
        # pack before the forward: the data arrays and moment pairs that
        # the buffers replace are then free for the step's gradients
        _buffers(state, [(name, p) for name, p in params if p.data.size < _BLOCK])
    _, params, large = state._walk
    for _, p in params:
        p.grad = None
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
    T.backward(tape, loss, _large_updater(state, large, micro_batch) if large else None)
    _apply_update(state, params, micro_batch)
    for _, p in params:
        p.grad = None
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
    named["meta.lr"] = np.asarray([state.lr], dtype=np.float64)
    named["meta.step"] = np.asarray([state.step], dtype=np.float64)
    named["meta.loss_history"] = np.asarray(state.loss_history, dtype=np.float64)
    write_tensors(path, named)


def load_state(path, cfg, seed=42):
    """Resume a state written by `save_state` into a model built from `cfg`,
    as AdamW at the saved learning rate; a file without one resumes at the
    learning rate `train_toy` defaults to.

    The container must hold exactly one `param.<name>` per model parameter,
    an `adam.m.<name>` and `adam.v.<name>` pair per AdamW moment it stores,
    whose values fit the parameter's dtype, `meta.step` (one whole number
    >= 0), a 1-d `meta.loss_history` and at most one `meta.lr` (one finite
    number >= 0); anything else raises `CheckpointError` naming the
    tensor."""
    with Reader(path) as reader:
        model = build_model(cfg, seed=seed)
        params = model.param_dict()
        expected = {f"param.{name}": p.shape for name, p in params.items()}
        for name, p in params.items():
            if f"adam.m.{name}" in reader.shapes:
                expected[f"adam.m.{name}"] = expected[f"adam.v.{name}"] = p.shape
        has_lr = "meta.lr" in reader.shapes
        if has_lr:
            expected["meta.lr"] = (1,)
        expected["meta.step"] = (1,)
        expected["meta.loss_history"] = (None,)
        reader.expect(expected)
        moments = {}
        for name, p in params.items():
            # parameters keep their saved precision, so an f64 run resumes in f64
            p.data = reader.read(f"param.{name}", reader.dtypes[f"param.{name}"])
            if f"adam.m.{name}" in reader.shapes:
                moments[name] = tuple(reader.read(key, p.data.dtype)
                                      for key in (f"adam.m.{name}", f"adam.v.{name}"))
        lr = float(reader.read("meta.lr", np.float64)[0]) if has_lr else 1e-3
        step = float(reader.read("meta.step", np.float64)[0])
        history = reader.read("meta.loss_history", np.float64)
    if not (math.isfinite(lr) and lr >= 0):
        raise CheckpointError(f"{path}: meta.lr must be a finite number >= 0, got {lr}")
    if not (step.is_integer() and step >= 0):
        raise CheckpointError(f"{path}: meta.step must be a whole number >= 0, got {step}")
    return TrainState(model=model, optimizer="adamw", lr=lr, step=int(step),
                      loss_history=[float(v) for v in history], moments=moments)
