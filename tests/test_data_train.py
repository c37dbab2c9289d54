"""Synthetic data generation and the toy training loop."""

import numpy as np
import pytest

from dualtoken.checks import cast_model
from dualtoken.data import (SyntheticDataset, gen_synthetic, load_dataset,
                            save_dataset)
from dualtoken.model import (CheckpointError, build_model, preset,
                             read_tensors, write_tensors)
from dualtoken.tensor import Tensor
from dualtoken.train import (TrainState, TrainingDiverged, _apply_update,
                             cross_entropy, evaluate, load_state, save_state,
                             train_step, train_toy)


def small_dataset(n=64, seed=42):
    return gen_synthetic(seed=seed, n=n, classes=8, side=32)


def grad_dataset(n=16, seed=42):
    # matches the 4-class toy_grad preset
    return gen_synthetic(seed=seed, n=n, classes=4, side=32)


def test_dataset_is_deterministic_and_balanced():
    a = small_dataset(n=800)
    b = small_dataset(n=800)
    assert (a.images == b.images).all()
    assert (a.labels == b.labels).all()
    counts = np.bincount(a.labels, minlength=8)
    assert (counts == 100).all()
    c = small_dataset(n=800, seed=7)
    assert not (a.images == c.images).all()


def test_dataset_validation():
    with pytest.raises(ValueError):
        gen_synthetic(side=30)
    with pytest.raises(ValueError):
        gen_synthetic(classes=1)
    for n in (0, -3, 2.0):
        with pytest.raises(ValueError, match="n must be a positive int"):
            gen_synthetic(n=n)


def test_dataset_round_trip(tmp_path):
    ds = small_dataset(n=16)
    path = tmp_path / "data.dtvt"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert (back.images == ds.images).all()
    assert (back.labels == ds.labels).all()
    assert back.classes == 8


def test_cross_entropy_reference_values():
    uniform = Tensor(np.zeros(8, np.float32))
    assert abs(cross_entropy(uniform, 3).item() - np.log(8.0)) <= 1e-6
    confident = Tensor(np.array([20.0] + [0.0] * 7, np.float32))
    assert cross_entropy(confident, 0).item() <= 1e-6
    with pytest.raises(ValueError):
        cross_entropy(uniform, 8)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    from dualtoken.tensor import GradTape, backward
    rng = np.random.default_rng(60)
    z = Tensor(rng.standard_normal(6), requires_grad=True)
    tape = GradTape()
    with tape:
        loss = cross_entropy(z, 2)
    backward(tape, loss)
    e = np.exp(z.data - z.data.max())
    want = e / e.sum()
    want[2] -= 1.0
    assert np.abs(z.grad - want).max() <= 1e-12


def test_zero_learning_rate_changes_nothing():
    model = build_model("toy_grad", seed=1)
    # n equals the micro-batch so every step sees the same samples
    ds = grad_dataset(n=8)
    before = {n: p.data.copy() for n, p in model.named_params()}
    state = train_toy(model, ds, steps=3, lr=0.0, optimizer="sgd")
    assert max(state.loss_history) - min(state.loss_history) == 0.0
    for n, p in model.named_params():
        assert (p.data == before[n]).all()


def test_training_is_bitwise_deterministic():
    ds = grad_dataset(n=32)
    s1 = train_toy(preset("toy_grad"), ds, steps=4, lr=1e-3, seed=5)
    s2 = train_toy(preset("toy_grad"), ds, steps=4, lr=1e-3, seed=5)
    assert s1.loss_history == s2.loss_history
    for (na, pa), (_, pb) in zip(s1.model.named_params(),
                                 s2.model.named_params()):
        assert (pa.data == pb.data).all(), na


def test_resume_replays_bitwise(tmp_path):
    ds = grad_dataset(n=32)
    straight = train_toy(preset("toy_grad"), ds, steps=6, lr=1e-3, seed=5)
    half = train_toy(preset("toy_grad"), ds, steps=3, lr=1e-3, seed=5)
    path = tmp_path / "state.dtvt"
    save_state(half, path)
    resumed = load_state(path, preset("toy_grad"), lr=1e-3, seed=5)
    assert resumed.step == 3
    train_toy(None, ds, steps=3, state=resumed)
    assert resumed.loss_history == straight.loss_history
    for (na, pa), (_, pb) in zip(straight.model.named_params(),
                                 resumed.model.named_params()):
        assert (pa.data == pb.data).all(), na


def test_float64_state_round_trips_moments(tmp_path):
    model = cast_model(build_model("toy_grad", seed=5), np.float64)
    state = train_toy(model, grad_dataset(n=16), steps=2, lr=1e-3)
    path = tmp_path / "state.dtvt"
    save_state(state, path)
    loaded = load_state(path, preset("toy_grad"), lr=1e-3, seed=5)
    saved = state.model.param_dict()
    for name, p in loaded.model.named_params():
        assert p.data.dtype == np.float64, name
        assert (p.data == saved[name].data).all(), name
    assert loaded.moments.keys() == state.moments.keys()
    for name, (m, v) in state.moments.items():
        lm, lv = loaded.moments[name]
        assert lm.dtype == lv.dtype == np.float64, name
        assert (lm == m).all() and (lv == v).all(), name


@pytest.mark.parametrize("key", ["meta.step", "meta.loss_history",
                                 "param.head.lin2.bias"])
def test_state_without_a_key_raises_checkpoint_error(tmp_path, key):
    state = train_toy(preset("toy_grad"), grad_dataset(n=8), steps=1, lr=1e-3)
    path = tmp_path / "state.dtvt"
    save_state(state, path)
    named = read_tensors(path)
    del named[key]
    write_tensors(path, named)
    with pytest.raises(CheckpointError, match=key):
        load_state(path, preset("toy_grad"), lr=1e-3)


def test_one_adamw_step_touches_nearly_all_parameters():
    model = build_model("toy_grad", seed=2)
    before = np.concatenate([p.data.reshape(-1).copy()
                             for _, p in model.named_params()])
    state = TrainState(model=model, optimizer="adamw", lr=1e-3)
    train_step(state, grad_dataset(n=16))
    after = np.concatenate([p.data.reshape(-1)
                            for _, p in model.named_params()])
    changed = np.mean(before != after)
    assert changed >= 0.99


def test_evaluate_tie_rule_with_constant_logits():
    model = build_model("toy_grad", seed=3)
    # zero the classifier so every sample yields identical logits
    model.head_lin2.weight.data[:] = 0.0
    model.head_lin2.bias.data[:] = 0.0
    ds = gen_synthetic(seed=1, n=16, classes=4, side=32)
    acc = evaluate(model, ds)
    assert acc == np.mean(ds.labels == 0)


def test_evaluate_is_order_invariant():
    model = build_model("toy_grad", seed=4)
    ds = gen_synthetic(seed=2, n=12, classes=4, side=32)
    perm = np.random.default_rng(0).permutation(len(ds))
    shuffled = SyntheticDataset(ds.images[perm], ds.labels[perm],
                                ds.classes, ds.seed)
    assert evaluate(model, ds) == evaluate(model, shuffled)


def _reference_update(state, grads):
    """The optimizer step as first written, one full-size array per term;
    `grads` are already divided by the micro-batch."""
    lr = state.lr
    if state.optimizer == "sgd":
        for name, p in state.model.named_params():
            p.data -= (lr * grads[name]).astype(p.data.dtype)
        return
    b1, b2 = state.betas
    t = state.step + 1
    for name, p in state.model.named_params():
        g = grads[name]
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


class _Params:
    """Stands in for a model: the optimizer needs only `named_params`."""

    def __init__(self, rng, dtype):
        # one shape under a block, one of exactly two blocks, and one larger
        # than a block whose size is not a multiple of it
        shapes = {"small": (5, 3), "two_blocks": (2, 32768), "ragged": (300, 250)}
        self.params = {n: Tensor(rng.standard_normal(s).astype(dtype))
                       for n, s in shapes.items()}

    def named_params(self):
        return iter(self.params.items())


@pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_in_place_update_matches_the_reference(optimizer, dtype, tol):
    micro_batch = 8
    fast = TrainState(model=_Params(np.random.default_rng(0), dtype),
                      optimizer=optimizer, lr=1e-2)
    slow = TrainState(model=_Params(np.random.default_rng(0), dtype),
                      optimizer=optimizer, lr=1e-2)
    rng = np.random.default_rng(1)
    for _ in range(3):
        for name, p in fast.model.named_params():
            p.grad = (micro_batch * rng.standard_normal(p.shape)).astype(dtype)
        _apply_update(fast, micro_batch)
        _reference_update(slow, {n: p.grad / micro_batch
                                 for n, p in fast.model.named_params()})
        fast.step += 1
        slow.step += 1

    def close(got, want):
        assert got.dtype == want.dtype == dtype
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    for name, p in fast.model.named_params():
        close(p.data, slow.model.params[name].data)
    assert fast.moments.keys() == slow.moments.keys()
    for name, (m, v) in fast.moments.items():
        close(m, slow.moments[name][0])
        close(v, slow.moments[name][1])


@pytest.mark.parametrize("kwargs", [
    dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-1e-3),
    dict(weight_decay=float("nan")), dict(weight_decay=-0.1),
    dict(betas=(1.0, 0.999)), dict(betas=(0.9, -0.1)), dict(eps=0.0),
    dict(optimizer="adam"),
])
def test_train_state_rejects_bad_hyperparameters(kwargs):
    args = dict(model=build_model("toy_grad", seed=1), optimizer="adamw", lr=1e-3)
    with pytest.raises(ValueError):
        TrainState(**{**args, **kwargs})


def test_non_finite_parameters_raise_training_diverged():
    model = build_model("toy_grad", seed=1)
    model.param_dict()["stem.conv0.weight"].data[...] = np.nan
    state = TrainState(model=model, optimizer="adamw", lr=1e-3)
    with pytest.raises(TrainingDiverged) as info:
        train_step(state, grad_dataset(n=8))
    assert info.value.step == 0
