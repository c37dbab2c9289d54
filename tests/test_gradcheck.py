"""The finite-difference checker itself: accepts correct gradients and flags
broken ones; the gradients that no suite probes; the model suite's probes,
which rerun only the trunk steps after the probed tensor, against a full
forward per probe; and one directional probe of every tensor of the model
and of each block variant."""

import math
from collections import Counter

import numpy as np
import pytest

from dualtoken import checks, tensor as T
from dualtoken.analysis import count_flops
from dualtoken.gradcheck import central_differences, grad_check
from dualtoken.model import build_model, preset
from dualtoken.tensor import GradTape, Tensor
from dualtoken.train import cross_entropy

from test_acceptance import criterion_7_variants
from test_model import _BLOCK_VARIANTS


def test_accepts_a_correct_gradient():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)),
               requires_grad=True)
    report = grad_check(lambda t: T.sum(T.gelu(t)), x)
    assert report.passed
    assert report.checked == 12
    assert report.max_rel_err <= 1e-4


def test_flags_a_broken_gradient():
    def wrong(t):
        # correct forward value, deliberately doubled backward
        out = Tensor(t.data.sum())
        if T._trace(t):
            def bwd(g, t=t):
                T._accum(t, 2.0 * g * np.ones_like(t.data), True)
            T._emit(out, bwd)
        return out

    x = Tensor(np.ones((2, 3)), requires_grad=True)
    report = grad_check(wrong, x)
    assert not report.passed
    assert report.max_rel_err > 0.4


def test_rejects_non_scalar_objective():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda t: T.add(t, t), x)


def test_report_is_truthy_iff_passed():
    x = Tensor(np.ones(3), requires_grad=True)
    report = grad_check(lambda t: T.mean(t), x)
    assert bool(report) is report.passed is True


def test_model_suite_flags_a_wrong_backward(monkeypatch):
    # the erf GELU with its backward scaled by 1.01
    def gelu_off_by_one_percent(x):
        erf = np.array([math.erf(v / math.sqrt(2.0)) for v in x.data.ravel().tolist()],
                       dtype=x.data.dtype)
        phi = 0.5 * (1.0 + erf.reshape(x.shape))
        out = Tensor(x.data * phi)
        if T._trace(x):
            def bwd(g, x=x, phi=phi):
                pdf = np.exp(-0.5 * x.data * x.data) / np.sqrt(2.0 * np.pi)
                T._accum(x, 1.01 * g * (phi + x.data * pdf), True)
            T._emit(out, bwd)
        return out

    monkeypatch.setattr(T, "gelu", gelu_off_by_one_percent)
    reports = dict(checks.gradcheck_model())
    assert not reports["model.input"].passed
    # the last linear layer sits after every GELU, so its bias is unaffected
    assert reports["model.head.lin2.bias"].passed


# The conv bias and the layernorm beta: each f weights the output by factors
# in [1, 2), so every bias or beta gradient sums at least as many terms of at
# least 1 as the map has positions (5 to 36 here), far above the 1e-2 floor
# of the relative error, and a backward off by 1% errs by about 1e-2.

@pytest.mark.parametrize("groups, stride, padding", [(1, 2, 1), (1, 1, 0), (4, 1, "same")],
                         ids=["dense_3x3_stride2", "dense_3x3_valid", "depthwise_3x3"])
def test_conv2d_bias_gradient(groups, stride, padding):
    rng = np.random.default_rng(40)
    x = Tensor(rng.standard_normal((6, 6, 4)))
    w = Tensor(rng.standard_normal((3, 3, 4 // groups, 4)))
    out_shape = T.conv2d(x, w, Tensor(np.zeros(4)), stride=stride, padding=padding,
                         groups=groups).shape
    weight = Tensor(1.0 + rng.random(out_shape))
    report = grad_check(
        lambda b: T.sum(T.mul(T.conv2d(x, w, b, stride=stride, padding=padding,
                                       groups=groups), weight)),
        Tensor(rng.standard_normal(4), requires_grad=True))
    assert report.passed and report.checked == 4


@pytest.mark.parametrize("shape", [(5, 3), (4, 4, 6)])
def test_layernorm_beta_gradient(shape):
    rng = np.random.default_rng(41)
    x = Tensor(rng.standard_normal(shape))
    gamma = Tensor(rng.standard_normal(shape[-1]))
    weight = Tensor(1.0 + rng.random(shape))
    report = grad_check(lambda b: T.sum(T.mul(T.layernorm(x, gamma, b), weight)),
                        Tensor(rng.standard_normal(shape[-1]), requires_grad=True))
    assert report.passed and report.checked == shape[-1]


# -- the model suite's resumed probes -----------------------------------------

def full_forward_gradcheck(max_coords=16, preset_name="toy"):
    """`checks.gradcheck_model` with a full `Model.forward` for every probe:
    the reference that the resumed probes must match bit for bit."""
    rng = np.random.default_rng(7)
    cfg = preset(preset_name) if isinstance(preset_name, str) else preset_name
    model = checks.cast_model(build_model(cfg, seed=5), np.float64)
    res = model.cfg.input_resolution
    image = Tensor(rng.standard_normal((res, res, 3)), requires_grad=True)

    def loss_value():
        logits, _ = model.forward(image, want_activations=False)
        return cross_entropy(logits, 1)

    tape = GradTape()
    with tape:
        loss = loss_value()
    T.backward(tape, loss)

    params = model.param_dict()
    targets = [("model.input", image)]
    for name in checks.MODEL_CHECK_PARAMS:
        if name in params:
            targets.append((f"model.{name}", params[name]))

    results = []
    sampler = np.random.default_rng(11)
    for name, t in targets:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        n = flat.size
        coords = (sampler.choice(n, size=max_coords, replace=False)
                  if n > max_coords else np.arange(n))
        results.append((name, central_differences(loss_value, flat, analytic, coords)))
    return results


def _fields(results):
    return [(name, r.max_rel_err, r.passed, r.checked) for name, r in results]


def _config(name):
    if name == "toy":
        return preset("toy")
    return next(cfg for cfg in criterion_7_variants() if cfg.name == name)


@pytest.mark.parametrize("name, max_coords",
                         [("toy", 16), ("normal_tokens", 4), ("window2", 4)])
def test_resumed_probes_match_a_full_forward_per_probe(name, max_coords):
    got = _fields(checks.gradcheck_model(max_coords, _config(name)))
    want = _fields(full_forward_gradcheck(max_coords, _config(name)))
    assert [n for n, *_ in got] == [n for n, *_ in want]
    assert got == want


@pytest.mark.parametrize("cfg", [preset("toy")] + criterion_7_variants(),
                         ids=lambda cfg: cfg.name)
def test_each_parameter_belongs_to_one_part_of_the_forward(cfg):
    model = build_model(cfg, seed=0)
    parts = [list(model.stem.named_params()), [("init", model.g_init)]]
    parts += [list(step.named_params()) for _, step in model.trunk()]
    parts.append([named for layer in (model.head_norm, model.head_lin1, model.head_lin2)
                  for named in layer.named_params()])
    owners = Counter(id(p) for part in parts for _, p in part)
    assert set(owners.values()) == {1}
    assert sorted(owners) == sorted(id(p) for _, p in model.named_params())


@pytest.mark.parametrize("name", ["toy", "dualtoken_t"])
def test_trunk_paths_are_the_count_flops_paths_in_order(name):
    model = build_model(name, seed=0)
    want = []
    for e in count_flops(model.cfg).entries:
        path = e.path if e.path.startswith("merge") else ".".join(e.path.split(".")[:2])
        if path.startswith(("merge", "stage")) and path not in want:
            want.append(path)
    assert [path for path, _ in model.trunk()] == want


def test_forward_is_stem_then_trunk_then_head():
    model = build_model("toy", seed=3)
    image = Tensor(np.random.default_rng(4).standard_normal((32, 32, 3)).astype(np.float32))
    logits, attention = model.forward(image)
    x, g = model.stem(image), model.g_init
    blocks = []
    for path, step in model.trunk():
        x, g, attn = step(x, g)
        if attn is not None:
            blocks.append(path)
            assert np.array_equal(attention[path].data, attn.data), path
    assert list(attention) == blocks
    assert blocks == [path for path, _ in model.trunk() if path.startswith("stage")]
    assert np.array_equal(model.head(x).data, logits.data)


def test_resuming_twice_from_one_kept_state_gives_the_same_loss():
    model = checks.cast_model(build_model("toy", seed=5), np.float64)
    image = Tensor(np.random.default_rng(7).standard_normal((32, 32, 3)))
    trunk = model.trunk()
    logits, _ = model.forward(image, want_activations=False)
    full = cross_entropy(logits, 1).item()
    x, g = model.stem(image), model.g_init
    states = []
    for _, step in trunk:
        states.append((x, g))
        x, g, _ = step(x, g)
    states.append((x, g))
    kept = [(x.data.copy(), g.data.copy()) for x, g in states]

    def resume(k):
        x, g = states[k]
        for _, step in trunk[k:]:
            x, g, _ = step(x, g)
        return cross_entropy(model.head(x), 1).item()

    for k in range(len(states)):
        assert resume(k) == resume(k) == full, k
    for (x, g), (xd, gd) in zip(states, kept):
        assert np.array_equal(x.data, xd) and np.array_equal(g.data, gd)


# -- one directional probe of every tensor ------------------------------------

@pytest.mark.parametrize("cfg", [preset("toy")] + criterion_7_variants(),
                         ids=lambda cfg: cfg.name)
def test_every_tensor_passes_a_directional_probe(cfg):
    # the image and every parameter tensor, each along its own seeded unit
    # direction, rerunning from the trunk step that owns the tensor
    model, image, loss_from = checks._model_under_check(cfg)
    rng = np.random.default_rng(13)
    failed = []
    for name, t in [("input", image)] + list(model.named_params()):
        v = rng.standard_normal(t.size)
        v /= np.linalg.norm(v)
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        report = central_differences(loss_from(t), t.data.reshape(-1), analytic, [v])
        assert report.checked == 1
        if not report.passed:
            failed.append(f"{name}: {report.max_rel_err:.2e}")
    assert not failed


@pytest.mark.parametrize("name", list(_BLOCK_VARIANTS))
def test_every_block_tensor_passes_a_directional_probe(name):
    # the map, the global tokens and every parameter of the block, in f64,
    # each along its own seeded unit direction, on mean(map) + mean(tokens)
    overrides = _BLOCK_VARIANTS[name]
    cfg, block = checks._tiny_block(np.random.default_rng(0), **overrides)
    checks.cast_model(block, np.float64)
    side = overrides.get("resolution", 4)
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((side, side, 4)), requires_grad=True)
    g = Tensor(rng.standard_normal((cfg.global_token_count, 4)), requires_grad=True)

    def loss():
        out, g_out, _ = block(x, g)
        return T.add(T.mean(out), T.mean(g_out))

    tape = GradTape()
    with tape:
        value = loss()
    T.backward(tape, value)
    failed = []
    for tname, t in [("map", x), ("tokens", g)] + list(block.named_params()):
        v = rng.standard_normal(t.size)
        v /= np.linalg.norm(v)
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        report = central_differences(loss, t.data.reshape(-1), analytic, [v])
        if not report.passed:
            failed.append(f"{tname}: {report.max_rel_err:.2e}")
    assert not failed
