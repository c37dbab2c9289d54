"""Synthetic data generation and the toy training loop."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from dualtoken import tensor as T
from dualtoken import train as train_mod
from dualtoken.checks import cast_model
from dualtoken.data import (SyntheticDataset, gen_synthetic, load_dataset,
                            save_dataset)
from dualtoken.container import CheckpointError, Reader, write_tensors
from dualtoken.model import build_model, preset
from dualtoken.tensor import GradTape, Tensor
from dualtoken.train import (ADAMW_BETAS, ADAMW_EPS, ADAMW_WEIGHT_DECAY,
                             TrainState, TrainingDiverged, _apply_update,
                             cross_entropy, evaluate, load_state, save_state,
                             train_step, train_toy)


def read_tensors(path):
    """Every tensor of the DTVT file at `path`, in its stored dtype."""
    with Reader(path) as reader:
        return {name: reader.read(name, reader.dtypes[name]) for name in reader.shapes}


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
    for side in (0, -8):
        with pytest.raises(ValueError, match="side must be a positive int"):
            gen_synthetic(side=side)


def test_dataset_round_trip(tmp_path):
    ds = small_dataset(n=16)
    path = tmp_path / "data.dtvt"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert (back.images == ds.images).all()
    assert (back.labels == ds.labels).all()
    assert back.classes == 8
    for name in ("images", "labels"):
        a, b = getattr(ds, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_save_dataset_refuses_a_label_float32_cannot_hold(tmp_path):
    # 2**24 + 1 would be stored as 2**24 and load back wrong, with no error
    path = tmp_path / "data.dtvt"
    save_dataset(small_dataset(n=4), path)
    before = path.read_bytes()
    for label in (2 ** 24, 2 ** 24 + 1):
        ds = SyntheticDataset(_images(), np.array([0, label]), 2 ** 25, 0)
        with pytest.raises(ValueError, match=f"labels must lie below {2 ** 24}, got {label}"):
            save_dataset(ds, path)
        assert path.read_bytes() == before
    save_dataset(SyntheticDataset(_images(), np.array([0, 2 ** 24 - 1]), 2 ** 25, 0), path)
    assert load_dataset(path, classes=2 ** 25).labels.tolist() == [0, 2 ** 24 - 1]


@pytest.mark.parametrize("classes", [2.5, 0, -1, True])
def test_dataset_refuses_a_class_count_that_is_not_a_positive_int(classes):
    with pytest.raises(ValueError, match="classes must be a positive int"):
        gen_synthetic(n=4, classes=classes)


def _images(n=2, side=8, channels=3):
    return np.zeros((n, side, side, channels), np.float32)


@pytest.mark.parametrize("images, labels, classes, match", [
    (_images(n=0), np.zeros(0, np.int64), 4, "n x S x S x 3 with n, S >= 1"),
    (np.zeros((2, 8, 8), np.float32), np.zeros(2, np.int64), 4, "n x S x S x 3"),
    (np.zeros((2, 8, 4, 3), np.float32), np.zeros(2, np.int64), 4, "n x S x S x 3"),
    (_images(channels=4), np.zeros(2, np.int64), 4, "n x S x S x 3"),
    (_images(), np.zeros(3, np.int64), 4, "labels must be"),
    (_images(), np.zeros((2, 1), np.int64), 4, "labels must be"),
    (_images(), np.zeros(2, np.float64), 4, "labels must be"),
    (_images(), [0, 1], 4, "labels must be"),
    (_images(), np.array([0, 4]), 4, r"labels must lie in \[0, 4\)"),
    (_images(), np.array([-1, 0]), 4, r"labels must lie in \[0, 4\)"),
    (_images(), np.zeros(2, np.int64), 0, "classes must be a positive int"),
    (_images(), np.zeros(2, np.int64), 2.5, "classes must be a positive int"),
    (_images(), np.zeros(2, np.int64), True, "classes must be a positive int"),
], ids=["no_images", "rank_3", "not_square", "four_channels", "three_labels",
        "labels_2d", "float_labels", "list_labels", "label_too_large",
        "label_negative", "zero_classes", "fractional_classes", "bool_classes"])
def test_dataset_refuses_what_evaluation_and_training_cannot_use(images, labels,
                                                                 classes, match):
    with pytest.raises(ValueError, match=match):
        SyntheticDataset(images, labels, classes, 0)


def test_dataset_of_one_class_is_accepted():
    # load_dataset infers one class from all-zero labels
    ds = SyntheticDataset(_images(), np.zeros(2, np.int64), 1, 0)
    assert len(ds) == 2 and ds.classes == 1


@pytest.mark.parametrize("label", [1.7, 1.0, True, np.bool_(True), "1", np.float64(1.0)],
                         ids=["float", "whole_float", "bool", "numpy_bool", "str",
                              "numpy_float"])
def test_cross_entropy_refuses_a_label_that_is_not_an_integer(label):
    with pytest.raises(ValueError, match="label must be an integer"):
        cross_entropy(Tensor(np.zeros(4, np.float32)), label)


def test_cross_entropy_reference_values():
    uniform = Tensor(np.zeros(8, np.float32))
    assert abs(cross_entropy(uniform, 3).item() - np.log(8.0)) <= 1e-6
    assert cross_entropy(uniform, np.uint8(3)).item() == cross_entropy(uniform, 3).item()
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


def test_cross_entropy_of_a_batch_is_each_rows_loss():
    rng = np.random.default_rng(61)
    z = rng.standard_normal((3, 5))
    labels = np.array([4, 0, 2])
    losses = cross_entropy(Tensor(z), labels).data
    per_row = [cross_entropy(Tensor(row), label).item() for row, label in zip(z, labels)]
    assert losses.shape == (3,) and losses == pytest.approx(per_row, rel=1e-14)
    with pytest.raises(ValueError, match="labels of shape"):
        cross_entropy(Tensor(z), labels[:2])
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy(Tensor(z), np.array([4, 0, 5]))


def test_zero_learning_rate_changes_nothing():
    model = build_model("toy_grad", seed=1)
    # n equals the micro-batch so every step sees the same samples
    ds = grad_dataset(n=8)
    before = {n: p.data.copy() for n, p in model.named_params()}
    state = train_toy(model, ds, steps=3, lr=0.0)
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
    resumed = load_state(path, preset("toy_grad"), seed=5)
    assert resumed.step == 3
    train_toy(None, ds, steps=3, state=resumed)
    assert resumed.loss_history == straight.loss_history
    for (na, pa), (_, pb) in zip(straight.model.named_params(),
                                 resumed.model.named_params()):
        assert (pa.data == pb.data).all(), na


def test_resume_continues_at_the_saved_learning_rate(tmp_path):
    ds = grad_dataset(n=32)
    straight = train_toy(preset("toy_grad"), ds, steps=6, lr=5e-3, seed=5)
    half = train_toy(preset("toy_grad"), ds, steps=3, lr=5e-3, seed=5)
    path = tmp_path / "state.dtvt"
    save_state(half, path)
    resumed = load_state(path, preset("toy_grad"), seed=5)
    assert resumed.lr == 5e-3
    train_toy(None, ds, steps=3, state=resumed)
    assert resumed.loss_history == straight.loss_history
    for (na, pa), (_, pb) in zip(straight.model.named_params(),
                                 resumed.model.named_params()):
        assert pa.data.tobytes() == pb.data.tobytes(), na


def test_a_state_without_a_learning_rate_resumes_at_the_default(tmp_path):
    state = train_toy(preset("toy_grad"), grad_dataset(n=8), steps=1, lr=5e-3)
    path = tmp_path / "state.dtvt"
    save_state(state, path)
    named = read_tensors(path)
    del named["meta.lr"]
    write_tensors(path, named)
    assert load_state(path, preset("toy_grad")).lr == 1e-3


def test_float64_state_round_trips_moments(tmp_path):
    model = cast_model(build_model("toy_grad", seed=5), np.float64)
    state = train_toy(model, grad_dataset(n=16), steps=2, lr=1e-3)
    path = tmp_path / "state.dtvt"
    save_state(state, path)
    loaded = load_state(path, preset("toy_grad"), seed=5)
    saved = state.model.param_dict()
    for name, p in loaded.model.named_params():
        assert p.data.dtype == np.float64, name
        assert (p.data == saved[name].data).all(), name
    assert loaded.moments.keys() == state.moments.keys()
    for name, (m, v) in state.moments.items():
        lm, lv = loaded.moments[name]
        assert lm.dtype == lv.dtype == np.float64, name
        assert (lm == m).all() and (lv == v).all(), name


def test_float32_state_round_trips_bit_for_bit(tmp_path):
    state = TrainState(model=build_model("toy", seed=0), optimizer="adamw", lr=1e-3)
    train_step(state, gen_synthetic(seed=0, n=2), micro_batch=2)
    path = tmp_path / "state.dtvt"
    save_state(state, path)
    back = load_state(path, "toy", seed=1)
    assert back.step == state.step and back.loss_history == state.loss_history
    for (na, a), (nb, b) in zip(state.model.named_params(), back.model.named_params()):
        assert na == nb and a.data.dtype == b.data.dtype == np.float32, na
        assert a.data.tobytes() == b.data.tobytes(), na
    assert back.moments.keys() == state.moments.keys()
    for name, pair in state.moments.items():
        for a, b in zip(pair, back.moments[name]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


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
        load_state(path, preset("toy_grad"))


def _set(key, value):
    def edit(named):
        named[key] = np.asarray(value, dtype=np.float64)
    return edit


def _orphan_second_moment(named):
    del named["adam.m.head.lin2.bias"]


@pytest.mark.parametrize("key, edit", [
    ("meta.step", _set("meta.step", [np.nan])),
    ("meta.step", _set("meta.step", [np.inf])),
    ("meta.step", _set("meta.step", [3.7])),
    ("meta.step", _set("meta.step", [-5.0])),
    ("meta.loss_history", _set("meta.loss_history", [[1.0, 2.0]])),
    ("meta.lr", _set("meta.lr", [np.nan])),
    ("meta.lr", _set("meta.lr", [np.inf])),
    ("meta.lr", _set("meta.lr", [-1e-3])),
    ("meta.lr", _set("meta.lr", [1e-3, 1e-3])),
    ("junk", _set("junk", [0.0])),
    ("adam.v.head.lin2.bias", _orphan_second_moment),
    ("adam.v.head.lin2.bias", _set("adam.v.head.lin2.bias", [1e300] * 4)),
], ids=["step_nan", "step_inf", "step_fraction", "step_negative",
        "history_2d", "lr_nan", "lr_inf", "lr_negative", "lr_two_values",
        "unknown_tensor", "orphan_second_moment", "moment_beyond_float32"])
def test_malformed_state_raises_checkpoint_error_naming_the_tensor(tmp_path, key, edit):
    state = train_toy(preset("toy_grad"), grad_dataset(n=8), steps=1, lr=1e-3)
    path = tmp_path / "state.dtvt"
    save_state(state, path)
    named = read_tensors(path)
    edit(named)
    write_tensors(path, named)
    with pytest.raises(CheckpointError, match=key):
        load_state(path, preset("toy_grad"))


def _dataset_with(**changes):
    ds = gen_synthetic(seed=0, n=2, classes=4, side=8)
    named = {"images": ds.images, "labels": ds.labels.astype(np.float32)}
    for key, value in changes.items():
        if value is None:
            del named[key]
        else:
            named[key] = np.asarray(value, dtype=np.float64)
    return named


@pytest.mark.parametrize("named, classes", [
    (_dataset_with(images=None), None),
    (_dataset_with(junk=[0.0]), None),
    (_dataset_with(images=np.zeros((2, 8, 4, 3))), None),
    (_dataset_with(images=np.zeros((2, 8, 8))), None),
    (_dataset_with(images=np.zeros((0, 8, 8, 3)), labels=np.zeros(0)), None),
    (_dataset_with(labels=[0.0, 1.0, 2.0]), None),
    (_dataset_with(labels=[[0.0, 1.0]]), None),
    (_dataset_with(labels=[np.nan, 1.0]), None),
    (_dataset_with(labels=[np.inf, 1.0]), None),
    (_dataset_with(labels=[0.5, 1.0]), None),
    (_dataset_with(labels=[-1.0, 1.0]), None),
    (_dataset_with(labels=[0.0, 4.0]), 4),
    (_dataset_with(images=np.full((2, 8, 8, 3), 1e300)), None),
], ids=["no_images", "unknown_tensor", "images_not_square", "images_rank_3",
        "zero_images", "three_labels_two_images", "labels_2d", "label_nan",
        "label_inf", "label_fraction", "label_negative", "label_out_of_range",
        "images_beyond_float32"])
def test_malformed_dataset_raises_checkpoint_error(tmp_path, named, classes):
    path = tmp_path / "data.dtvt"
    write_tensors(path, named)
    with pytest.raises(CheckpointError):
        load_dataset(path, classes=classes)


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
    b1, b2 = ADAMW_BETAS
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
        p.data -= (lr * (mhat / (np.sqrt(vhat) + ADAMW_EPS)
                         + ADAMW_WEIGHT_DECAY * p.data)).astype(p.data.dtype)


class _Params:
    """Stands in for a model: the optimizer needs only `named_params`."""

    def __init__(self, rng, dtype):
        # shapes under a block, one of exactly two blocks, one of exactly one
        # block, and one larger than a block whose size is not a multiple of
        # it; the small ones, 1 to 32,767 elements, add up to more than four
        # blocks and sit between the large ones
        shapes = {"small": (5, 3), "two_blocks": (2, 32768)}
        shapes.update({f"tiny{i}": (i + 1, 1000 + 97 * i) for i in range(6)})
        shapes.update({"ragged": (300, 250), "one": (1,)})
        shapes.update({f"tiny{i}": (i + 1, 1000 + 97 * i) for i in range(6, 12)})
        shapes.update({"just_under": (32767,), "one_block": (32768,)})
        self.params = {n: Tensor(rng.standard_normal(s).astype(dtype))
                       for n, s in shapes.items()}

    def named_params(self):
        return iter(self.params.items())


def _check_against_the_reference(dtype, tol, replaced=()):
    """Three `_apply_update`s on the `_Params` stand-in against three
    `_reference_update`s on a copy, with the same seeded gradients; after
    the first step, the tensors named in `replaced` get new `.data` arrays
    of the same shape and dtype, with the same values on both."""
    micro_batch = 8
    fast = TrainState(model=_Params(np.random.default_rng(0), dtype),
                      optimizer="adamw", lr=1e-2)
    slow = TrainState(model=_Params(np.random.default_rng(0), dtype),
                      optimizer="adamw", lr=1e-2)
    rng = np.random.default_rng(1)
    for step in range(3):
        for name in replaced if step == 1 else ():
            new = rng.standard_normal(fast.model.params[name].shape).astype(dtype)
            fast.model.params[name].data = new
            slow.model.params[name].data = new.copy()
        for name, p in fast.model.named_params():
            p.grad = (micro_batch * rng.standard_normal(p.shape)).astype(dtype)
        _apply_update(fast, fast.model.named_params(), micro_batch)
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


# explicit ids keep each case's id from when an SGD case ran beside each
@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)],
                         ids=["float32-1e-06-adamw", "float64-1e-12-adamw"])
def test_in_place_update_matches_the_reference(dtype, tol):
    _check_against_the_reference(dtype, tol)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_small_data_a_caller_replaces_between_steps_is_updated_from_its_new_values(
        dtype, tol):
    # the first step moved every small tensor's data into a flat buffer, so
    # the arrays replaced here are views into it
    _check_against_the_reference(dtype, tol, replaced=("small", "tiny3"))


def test_values_written_into_the_data_between_states_are_trained_on():
    # the benchmark's reset: the initial weights written back in place, then
    # a new state with zero moments
    ds = gen_synthetic(seed=8, n=16)
    model = build_model("toy", seed=0)
    initial = [(p, p.data.copy()) for _, p in model.named_params()]
    first = TrainState(model=model, optimizer="adamw", lr=1e-3)
    for _ in range(2):
        train_step(first, ds)
    want = {name: (p.data.copy(), *(a.copy() for a in first.moments[name]))
            for name, p in model.named_params()}
    for p, init in initial:
        p.data[...] = init
    again = TrainState(model=model, optimizer="adamw", lr=1e-3)
    again.moments = {n: (np.zeros_like(p.data), np.zeros_like(p.data))
                     for n, p in model.named_params()}
    for _ in range(2):
        train_step(again, ds)
    assert again.loss_history == first.loss_history
    for name, p in model.named_params():
        for got, ref in zip((p.data, *again.moments[name]), want[name]):
            assert got.tobytes() == ref.tobytes(), name


def test_a_new_state_trains_in_the_buffer_an_earlier_state_packed():
    ds = gen_synthetic(seed=8, n=16)
    model = build_model("toy", seed=0)
    assert all(p.data.size < train_mod._BLOCK for _, p in model.named_params())
    train_step(TrainState(model=model, optimizer="adamw", lr=1e-3), ds)
    datas = [p.data for _, p in model.named_params()]
    buffer = datas[0].base
    assert buffer.ndim == 1 and buffer.size == sum(a.size for a in datas)
    assert all(a.base is buffer for a in datas)
    before = buffer.copy()
    train_step(TrainState(model=model, optimizer="adamw", lr=1e-3), ds)
    for (name, p), a in zip(model.named_params(), datas):
        assert p.data is a and np.shares_memory(p.data, buffer), name
    assert not np.array_equal(buffer, before)


def test_a_step_passes_backward_a_hook_only_for_a_tensor_of_one_block_or_more(
        monkeypatch):
    hooks = []
    backward = T.backward

    def spy(tape, loss, on_leaf_done=None):
        hooks.append(on_leaf_done)
        return backward(tape, loss, on_leaf_done)

    monkeypatch.setattr(T, "backward", spy)
    ds = gen_synthetic(seed=8, n=16)
    train_step(TrainState(model=build_model("toy", seed=0), optimizer="adamw",
                          lr=1e-3), ds)
    train_step(_wide_head_toy(np.float32), ds)
    assert hooks[0] is None and callable(hooks[1])


# explicit ids keep each case's id from when the list also held the
# weight_decay, betas and eps cases (ids kwargs3-kwargs7), which are now
# module constants rather than TrainState fields
@pytest.mark.parametrize("kwargs", [
    dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-1e-3),
    dict(optimizer="adam"), dict(optimizer="sgd"),
], ids=["kwargs0", "kwargs1", "kwargs2", "kwargs8", "sgd"])
def test_train_state_rejects_bad_hyperparameters(kwargs):
    args = dict(model=build_model("toy_grad", seed=1), optimizer="adamw", lr=1e-3)
    with pytest.raises(ValueError):
        TrainState(**{**args, **kwargs})


@pytest.mark.parametrize("lr", [True, "0.1", 1j])
def test_train_state_refuses_an_lr_that_is_not_a_real_number(lr):
    with pytest.raises(ValueError, match="lr must be a finite real number"):
        TrainState(model=build_model("toy_grad", seed=1), optimizer="adamw", lr=lr)


@pytest.mark.parametrize("micro_batch", [-1, 0, 2.5, True])
def test_train_step_refuses_a_micro_batch_that_is_not_a_positive_int(micro_batch):
    state = TrainState(model=build_model("toy_grad", seed=1), optimizer="adamw", lr=1e-3)
    with pytest.raises(ValueError, match="micro_batch must be a positive int"):
        train_step(state, grad_dataset(n=4), micro_batch=micro_batch)
    assert state.step == 0 and state.loss_history == [] and not state.moments


def test_non_finite_parameters_raise_training_diverged():
    model = build_model("toy_grad", seed=1)
    model.param_dict()["stem.conv0.weight"].data[...] = np.nan
    state = TrainState(model=model, optimizer="adamw", lr=1e-3)
    with pytest.raises(TrainingDiverged) as info:
        train_step(state, grad_dataset(n=8))
    assert info.value.step == 0


def _wide_head_toy(dtype):
    """`toy` with a head of 1,100 hidden units and 40 classes: head.lin1
    (35,200 elements) and head.lin2 (44,000) are over one update block and
    not a multiple of it."""
    cfg = replace(preset("toy"), head_hidden=1100, num_classes=40)
    model = cast_model(build_model(cfg, seed=7), dtype)
    sizes = {name: p.data.size for name, p in model.named_params()}
    assert sizes["head.lin1.weight"] == 35_200 and sizes["head.lin2.weight"] == 44_000
    return TrainState(model=model, optimizer="adamw", lr=1e-2)


def _step_updating_at_the_end(state, dataset, micro_batch):
    """`train_step` with every tensor updated once the backward is done: the
    same batched forward and summed loss, then one backward with no hook."""
    params = list(state.model.named_params())
    for _, p in params:
        p.zero_grad()
    idx = (state.step * micro_batch + np.arange(micro_batch)) % len(dataset)
    tape = GradTape()
    with tape:
        logits, _ = state.model.forward(Tensor(dataset.images[idx]),
                                        want_activations=False)
        loss = T.sum(cross_entropy(logits, dataset.labels[idx]))
    T.backward(tape, loss)
    _apply_update(state, params, micro_batch)
    state.step += 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("micro_batch", [1, 2, 8])
def test_updates_during_the_last_backward_match_an_update_at_the_end(micro_batch, dtype):
    ds = gen_synthetic(seed=8, n=16)
    state, ref = _wide_head_toy(dtype), _wide_head_toy(dtype)
    for _ in range(3):
        train_step(state, ds, micro_batch=micro_batch)
        _step_updating_at_the_end(ref, ds, micro_batch)
        assert all(p.grad is None for _, p in state.model.named_params())
    want = ref.model.param_dict()
    for name, p in state.model.named_params():
        assert p.data.dtype == dtype and p.data.tobytes() == want[name].data.tobytes(), name
        for got, ref_moment in zip(state.moments[name], ref.moments[name]):
            assert got.tobytes() == ref_moment.tobytes(), name


def test_a_non_finite_last_loss_changes_no_parameter_or_moment(monkeypatch):
    micro_batch = 2
    ds = gen_synthetic(seed=8, n=16)
    state = _wide_head_toy(np.float32)
    train_step(state, ds, micro_batch=micro_batch)
    before = {name: (p.data.copy(), *(a.copy() for a in state.moments[name]))
              for name, p in state.model.named_params()}
    calls = []

    def last_sample_inf(logits, labels):
        # the batch's losses, the last sample's made infinite
        calls.append(len(labels))
        losses = cross_entropy(logits, labels)
        factor = np.ones(losses.shape, losses.dtype)
        factor[-1] = math.inf
        return T.mul(losses, Tensor(factor))

    monkeypatch.setattr(train_mod, "cross_entropy", last_sample_inf)
    with pytest.raises(TrainingDiverged):
        train_step(state, ds, micro_batch=micro_batch)
    assert calls == [micro_batch] and state.step == 1
    for name, p in state.model.named_params():
        m, v = state.moments[name]
        for got, want in zip((p.data, m, v), before[name]):
            assert got.tobytes() == want.tobytes(), name


def test_a_step_reads_its_images_in_place_unless_they_wrap(monkeypatch):
    ds = gen_synthetic(seed=8, n=12)
    state = TrainState(model=build_model("toy", seed=0), optimizer="adamw", lr=1e-3)
    forward = state.model.forward
    inputs = []

    def keeping(images, want_activations=True):
        inputs.append(images.data)
        return forward(images, want_activations)

    monkeypatch.setattr(state.model, "forward", keeping)
    train_step(state, ds, micro_batch=8)
    assert np.shares_memory(inputs[0], ds.images)
    assert inputs[0].tobytes() == ds.images[:8].tobytes()
    # the second step takes samples 8-11 and 0-3: the loss of that gather
    idx = np.arange(8, 16) % 12
    logits, _ = forward(Tensor(ds.images[idx]), want_activations=False)
    want = T.sum(cross_entropy(logits, ds.labels[idx])).item() / 8
    assert train_step(state, ds, micro_batch=8) == want
    assert not np.shares_memory(inputs[1], ds.images)
    assert inputs[1].tobytes() == ds.images[idx].tobytes()


# -- pinned results of three optimizer steps -----------------------------------

def _digests(state):
    """sha256 of the parameters, the first moments and the second moments,
    each over the name, dtype, shape and bytes of every tensor in parameter
    order."""
    names = [name for name, _ in state.model.named_params()]
    arrays = ({n: p.data for n, p in state.model.named_params()},
              {n: state.moments[n][0] for n in names},
              {n: state.moments[n][1] for n in names})
    out = []
    for named in arrays:
        h = hashlib.sha256()
        for name in names:
            a = named[name]
            h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
            h.update(a.tobytes())
        out.append(h.hexdigest())
    return out


def _params_steps(dtype, replace=False):
    """Three `_apply_update`s on the `_Params` stand-in with seeded
    gradients; with `replace`, the moments are replaced from outside after
    the first step (the whole dict) and the second (one entry)."""
    micro_batch = 4
    state = TrainState(model=_Params(np.random.default_rng(0), dtype),
                       optimizer="adamw", lr=1e-2)
    rng = np.random.default_rng(1)
    for step in range(3):
        for _, p in state.model.named_params():
            p.grad = (micro_batch * rng.standard_normal(p.shape)).astype(dtype)
        _apply_update(state, state.model.named_params(), micro_batch)
        state.step += 1
        if replace and step == 0:
            state.moments = {n: (0.5 * m, np.zeros_like(v))
                             for n, (m, v) in state.moments.items()}
        if replace and step == 1:
            for name in ("tiny3", "ragged"):
                m, v = state.moments[name]
                state.moments[name] = (np.full_like(m, 0.25), 2.0 * v)
    return state


def _toy_steps(tmp_path, resume=False):
    """Three toy `train_step`s; with `resume`, the state is saved after the
    first and the last two run on the state `load_state` reads back."""
    ds = gen_synthetic(seed=5, n=16)
    state = TrainState(model=build_model("toy", seed=3), optimizer="adamw", lr=1e-3)
    for step in range(3):
        train_step(state, ds)
        if resume and step == 0:
            path = tmp_path / "state.dtvt"
            save_state(state, path)
            state = load_state(path, "toy", seed=3)
    return state


_TRAINING_CASES = {
    "toy": lambda tmp_path: _toy_steps(tmp_path),
    "toy_resumed": lambda tmp_path: _toy_steps(tmp_path, resume=True),
    "params_f32": lambda tmp_path: _params_steps(np.float32),
    "params_f64": lambda tmp_path: _params_steps(np.float64),
    "params_f32_moments_replaced": lambda tmp_path: _params_steps(np.float32, replace=True),
}

# (parameters, first moments, second moments) of each case, from the
# optimizer that updated every tensor on its own; the toy steps run each
# micro-batch as one batched forward, and a resumed run is bitwise the
# straight one
_TOY_DIGESTS = ["d4654f49ae1316197c61c6d90059886dad962352dddccf53a021303d19beadbb",
                "83fcffb4aad6344cb6b6e30434e0a4a5fadb5bbd96a22f1a2e1cbfd4b60adee1",
                "29e492cf7d0e7a4b0f244caf0f025bb362cb1549be7d96df46c03eef3d5139ea"]
_TRAINING_DIGESTS = {
    "toy": _TOY_DIGESTS,
    "toy_resumed": _TOY_DIGESTS,
    "params_f32": ["f06cb19e2b1c3d2bd7d83c2012ea9021491889b3969b674c3bc7e70f5f8f70f7",
                   "b5035cf75e7c9d37c760de559ca779ac0526c8bdba612125620eeda38288e4d4",
                   "394f8b0e81d7ee5e0f3513747d4f6203d47ae04aaaf6c2b3b4c6fe822c18bd1e"],
    "params_f64": ["4338928edb7e212c35c3b598f11a92560db6e788bd82b8967196fd2fbc48196e",
                   "43e892d417a9b3eeb3847bc0533f755c8b5c4f05fcd12dfc8a73393e5fa8bfcf",
                   "ad9077b37a299c9ce9475ca1395fe2474c256f9dddac2a929ed4982bba06e47d"],
    "params_f32_moments_replaced": [
        "66a91eb9350ab7fdfcf2ec295669e2d9e7a634cddc1a9acec05fb2e03a44a7e4",
        "91a0684ad05a4328172459a026e44362df60b5f1ff52e019cc6569329064ebc7",
        "6a9b4ab06bfe3c9388699b157439dfd9d495e80a095dad28846aebe716b18815"],
}


# the toy cases hash the bits of the default GEMM and exp kernels, so other
# kernels fail them on any change at all
@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.kernel_bits) if case.startswith("toy") else case
    for case in _TRAINING_CASES])
def test_three_steps_match_the_pinned_digests(tmp_path, case):
    assert _digests(_TRAINING_CASES[case](tmp_path)) == _TRAINING_DIGESTS[case]
