"""Toy supervised training: cross-entropy, SGD/AdamW, a deterministic
single-sample accumulation loop, and evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .model import CheckpointError, Model, build_model, read_tensors, write_tensors
from .tensor import GradTape, Tensor


class TrainingDiverged(RuntimeError):
    def __init__(self, step):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


def cross_entropy(logits, label):
    """-log softmax(logits)[label] as a differentiable scalar."""
    k = logits.shape[-1]
    if not 0 <= int(label) < k:
        raise ValueError(f"label {label} out of range [0, {k})")
    z = logits.data
    if not np.isfinite(z).all():
        raise FloatingPointError("cross_entropy received non-finite logits")
    m = z.max()
    lse = m + np.log(np.exp(z - m).sum())
    out = Tensor(np.asarray(lse - z[int(label)], dtype=z.dtype))
    if T._trace(logits):
        probs = np.exp(z - lse)
        def bwd(g, logits=logits, probs=probs, label=int(label)):
            gz = probs.copy()
            gz[label] -= 1.0
            T._accum(logits, g * gz)
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
    weight_decay: float = 4e-2
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8


def _apply_update(state, grads):
    lr = state.lr
    if state.optimizer == "sgd":
        for name, p in state.model.named_params():
            g = grads.get(name)
            if g is not None:
                p.data -= (lr * g).astype(p.data.dtype)
        return
    b1, b2 = state.betas
    t = state.step + 1
    for name, p in state.model.named_params():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = state.moments[name]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        state.moments[name] = (m, v)
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p.data -= (lr * (mhat / (np.sqrt(vhat) + state.eps)
                         + state.weight_decay * p.data)).astype(p.data.dtype)


def train_step(state, dataset, micro_batch=8):
    """One optimizer step: gradient accumulation over `micro_batch`
    consecutive samples (deterministic round-robin order)."""
    model = state.model
    params = model.param_dict()
    for p in params.values():
        p.zero_grad()
    n = len(dataset)
    total = 0.0
    for j in range(micro_batch):
        idx = (state.step * micro_batch + j) % n
        image = Tensor(dataset.images[idx])
        tape = GradTape()
        with tape:
            logits, _ = model.forward(image, want_activations=False)
            loss = cross_entropy(logits, dataset.labels[idx])
        T.backward(tape, loss)
        total += loss.item()
    mean_loss = total / micro_batch
    if not np.isfinite(mean_loss):
        raise TrainingDiverged(state.step)
    grads = {name: p.grad / micro_batch for name, p in params.items()
             if p.grad is not None}
    _apply_update(state, grads)
    state.step += 1
    state.loss_history.append(mean_loss)
    return mean_loss


def train_toy(cfg, dataset, steps=200, lr=1e-3, optimizer="adamw", seed=42,
              micro_batch=8, state=None, log=None):
    """Run `steps` optimizer steps on the dataset; resumable via `state`."""
    if state is None:
        model = cfg if isinstance(cfg, Model) else build_model(cfg, seed=seed)
        state = TrainState(model=model, optimizer=optimizer, lr=lr)
    for _ in range(steps):
        loss = train_step(state, dataset, micro_batch=micro_batch)
        if log is not None and state.step % 50 == 0:
            log(f"step {state.step}: loss {loss:.4f}")
    return state


def evaluate(model, dataset):
    """Argmax accuracy; ties resolve to the lowest class index."""
    hits = 0
    for i in range(len(dataset)):
        logits, _ = model.forward(Tensor(dataset.images[i]), want_activations=False)
        if int(np.argmax(logits.data)) == int(dataset.labels[i]):
            hits += 1
    return hits / len(dataset)


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


def load_state(path, cfg, optimizer="adamw", lr=1e-3, seed=42):
    tensors = read_tensors(path)

    def need(key, shape=None):
        if key not in tensors:
            raise CheckpointError(f"{path}: missing tensor {key}")
        if shape is not None and tensors[key].shape != tuple(shape):
            raise CheckpointError(f"{path}: shape mismatch for {key}: "
                                  f"state {tensors[key].shape} vs {tuple(shape)}")
        return tensors[key]

    model = build_model(cfg, seed=seed)
    state = TrainState(model=model, optimizer=optimizer, lr=lr)
    params = model.param_dict()
    for name, p in params.items():
        # parameters keep their saved precision, so an f64 run resumes in f64
        p.data = np.ascontiguousarray(need(f"param.{name}", p.shape))
    for key in tensors:
        if key.startswith("adam.m."):
            name = key[len("adam.m."):]
            if name not in params:
                raise CheckpointError(f"{path}: moments for unknown parameter {name}")
            p = params[name]
            state.moments[name] = (need(key, p.shape).astype(p.data.dtype),
                                   need(f"adam.v.{name}", p.shape).astype(p.data.dtype))
    state.step = int(need("meta.step", (1,))[0])
    state.loss_history = [float(v) for v in need("meta.loss_history")]
    return state
