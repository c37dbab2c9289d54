"""Gradient-check suites over primitives, block sub-operations, and the full
toy model. Shared by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .block import DualTokenBlock
from .gradcheck import central_differences, grad_check
from .model import STRIDES, ModelConfig, StageConfig, build_model, preset
from .tensor import GradTape, Tensor


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def gradcheck_primitives():
    """Every tensor-core primitive against central differences, three random
    shapes each."""
    rng = np.random.default_rng(0)
    results = []

    def run(name, f, x):
        results.append((name, grad_check(f, x)))

    for i, (h, w, c) in enumerate([(3, 4, 2), (5, 5, 3), (2, 6, 4)]):
        other = Tensor(rng.standard_normal((h, w, c)))
        run(f"add[{i}]", lambda x, o=other: T.sum(T.add(x, o)), _rand(rng, h, w, c))
        run(f"sub[{i}]", lambda x, o=other: T.sum(T.sub(o, x)), _rand(rng, h, w, c))
        run(f"mul[{i}]", lambda x, o=other: T.sum(T.mul(x, o)), _rand(rng, h, w, c))
        run(f"scale[{i}]", lambda x: T.sum(T.scale(x, -1.7)), _rand(rng, h, w, c))
        run(f"gelu[{i}]", lambda x: T.sum(T.gelu(x)), _rand(rng, h, w, c))
        run(f"sigmoid[{i}]", lambda x: T.sum(T.sigmoid(x)), _rand(rng, h, w, c))

    for i, (m, k, n) in enumerate([(3, 4, 5), (1, 7, 2), (6, 2, 3)]):
        b = Tensor(rng.standard_normal((k, n)))
        run(f"matmul.a[{i}]", lambda x, b=b: T.sum(T.matmul(x, b)), _rand(rng, m, k))
        a = Tensor(rng.standard_normal((m, k)))
        run(f"matmul.b[{i}]", lambda x, a=a: T.sum(T.matmul(a, x)), _rand(rng, k, n))

    conv_cases = [  # (h, w, cin, k, groups, cout, stride, pad)
        (5, 5, 3, 3, 1, 4, 1, 1),
        (6, 6, 4, 3, 4, 4, 1, 1),
        (8, 8, 2, 3, 1, 3, 2, 1),
    ]
    for i, (h, w, cin, k, g, cout, st, pad) in enumerate(conv_cases):
        wt = Tensor(rng.standard_normal((k, k, cin // g, cout)))
        bias = Tensor(rng.standard_normal((cout,)))
        run(f"conv2d.x[{i}]",
            lambda x, wt=wt, bias=bias, st=st, pad=pad, g=g:
                T.sum(T.conv2d(x, wt, bias, stride=st, padding=pad, groups=g)),
            _rand(rng, h, w, cin))
        xin = Tensor(rng.standard_normal((h, w, cin)))
        run(f"conv2d.w[{i}]",
            lambda wv, xin=xin, bias=bias, st=st, pad=pad, g=g:
                T.sum(T.conv2d(xin, wv, bias, stride=st, padding=pad, groups=g)),
            _rand(rng, k, k, cin // g, cout))

    for i, (h, w, c) in enumerate([(4, 4, 2), (6, 6, 3), (8, 4, 1)]):
        run(f"avgpool2d[{i}]", lambda x: T.sum(T.avgpool2d(x, 2)), _rand(rng, h, w, c))

    for i, (n, c) in enumerate([(3, 4), (1, 6), (5, 2)]):
        gamma = Tensor(rng.standard_normal((c,)))
        beta = Tensor(rng.standard_normal((c,)))
        weight = Tensor(rng.standard_normal((n, c)))
        run(f"layernorm.x[{i}]",
            lambda x, gamma=gamma, beta=beta, weight=weight:
                T.sum(T.mul(T.layernorm(x, gamma, beta), weight)),
            _rand(rng, n, c))
        xin = Tensor(rng.standard_normal((n, c)))
        run(f"layernorm.gamma[{i}]",
            lambda gv, xin=xin, beta=beta, weight=weight:
                T.sum(T.mul(T.layernorm(xin, gv, beta), weight)),
            _rand(rng, c))

    for i, (n, c) in enumerate([(2, 3), (4, 5), (1, 7)]):
        weight = Tensor(rng.standard_normal((n, c)))
        run(f"softmax[{i}]",
            lambda x, weight=weight: T.sum(T.mul(T.softmax(x), weight)),
            _rand(rng, n, c))

    for i, (h, w, oh, ow) in enumerate([(4, 4, 7, 7), (6, 8, 3, 3), (5, 5, 5, 9)]):
        weight = Tensor(rng.standard_normal((oh, ow, 2)))
        run(f"bilinear[{i}]",
            lambda x, weight=weight, oh=oh, ow=ow:
                T.sum(T.mul(T.bilinear_resize(x, oh, ow), weight)),
            _rand(rng, h, w, 2))

    return results


def _tiny_block(rng, resolution=4, **overrides):
    """A block 4 wide with 2 heads, depthwise kernel 3, grid 2 and FFN ratio 2,
    built for a `resolution`-sided map, with `overrides` to its `ModelConfig`:
    a stage-0 block for side 4 or 8, a stage-1 block of a 224² config for
    side 14."""
    stage = 0 if resolution * STRIDES[0] % 32 == 0 else 1
    cfg = ModelConfig(stages=[StageConfig(1, 4, 2, 3)] * 3, token_grid=2, ffn_ratio=2,
                      input_resolution=resolution * STRIDES[stage], **overrides)
    return cfg, DualTokenBlock(rng, cfg, stage)


def gradcheck_blocks():
    """Each dual-token sub-operation plus the assembled block, tiny shapes."""
    rng = np.random.default_rng(1)
    results = []
    cfg, block = _tiny_block(rng)

    def run(name, f, x):
        results.append((name, grad_check(f, x)))

    run("conv_encoder", lambda x: T.mean(block.local(x)), _rand(rng, 4, 4, 4))
    # resolution 8 -> grid 2 exercises the conv-then-pool repetitions
    _, ds_block = _tiny_block(rng, resolution=8)
    run("stepwise_downsample", lambda x: T.mean(ds_block.ds(x)),
        _rand(rng, 8, 8, 4))
    run("global_aggregate", lambda x: T.mean(block.aggregate(x)), _rand(rng, 4, 4))
    run("token_mlp", lambda x: T.mean(block.fuse_mlp(x)), _rand(rng, 4, 4))
    xga = Tensor(rng.standard_normal((4, 4)))
    run("fuse_global_tokens",
        lambda g, xga=xga: T.mean(block.fuse_global_tokens(g, xga)),
        _rand(rng, 4, 4))
    gnew = Tensor(rng.standard_normal((4, 4)))
    run("global_broadcast",
        lambda x, gnew=gnew: T.mean(block.global_broadcast(x, gnew)[0]),
        _rand(rng, 16, 4))
    run("ffn", lambda x: T.mean(block.ffn(x)), _rand(rng, 6, 4))
    run("bidim_attn", lambda x: T.mean(block.bidim(x)), _rand(rng, 6, 4))

    _, mix_block = _tiny_block(rng, mlp_kind="mix")
    run("token_mlp.mix", lambda x: T.mean(mix_block.fuse_mlp(x)), _rand(rng, 4, 4))

    _, win_block = _tiny_block(rng, local_kind="window_msa", resolution=14, window=7)
    run("window_msa_local", lambda x: T.mean(win_block.local(x)), _rand(rng, 14, 7, 4))

    _, onestep_block = _tiny_block(rng, ds_kind="one_step", resolution=8)
    run("one_step_downsample", lambda x: T.mean(onestep_block.ds(x)),
        _rand(rng, 8, 8, 4))

    for mode in ("normal_msa", "position_aware_msa"):
        _, m_block = _tiny_block(rng, global_mode=mode)
        n_g = m_block.cfg.global_token_count
        xga2 = Tensor(rng.standard_normal((4, 4)))
        run(f"fuse.{mode}",
            lambda g, b=m_block, xga2=xga2: T.mean(b.fuse_global_tokens(g, xga2)),
            _rand(rng, n_g, 4))

    g0 = Tensor(rng.standard_normal((4, 4)))
    def full_block(x, block=block, g0=g0):
        out, g_out, _ = block(x, g0)
        return T.add(T.mean(out), T.mean(g_out))
    run("dual_token_block.x", full_block, _rand(rng, 4, 4, 4))

    x0 = Tensor(rng.standard_normal((4, 4, 4)))
    def full_block_g(g, block=block, x0=x0):
        out, g_out, _ = block(x0, g)
        return T.add(T.mean(out), T.mean(g_out))
    run("dual_token_block.g", full_block_g, _rand(rng, 4, 4))

    from .train import cross_entropy
    x = Tensor(np.random.default_rng(3).standard_normal(6), requires_grad=True)
    run("cross_entropy", lambda z: cross_entropy(z, 2), x)
    return results


def cast_model(model, dtype):
    for _, p in model.named_params():
        p.data = p.data.astype(dtype)
    return model


# Parameter tensors probed in the full-model check; one of each layer kind.
MODEL_CHECK_PARAMS = (
    "stem.conv0.weight",
    "global_tokens.init",
    "global_tokens.proj0.weight",
    "stage1.block0.conv_encoder.dw.weight",
    "stage1.block0.conv_encoder.pw1.weight",
    "stage2.block0.aggregate.q_proj.weight",
    "stage2.block0.fuse.norm.gamma",
    "stage2.block0.fuse.mlp.lin1.weight",
    "stage3.block0.broadcast.out_proj.weight",
    "stage3.block0.ffn.lin2.weight",
    "stage1.block0.bidim.channel.weight",
    "merge1.proj.weight",
    "head.lin1.weight",
    "head.lin2.bias",
)


def _model_under_check(preset_name):
    """The f64 model of `gradcheck_model` and its image, after one analytic
    backward pass of the loss, and `loss_from(t)`: a closure that recomputes
    the loss after a change to tensor t, rerunning only what t can change."""
    from .train import cross_entropy
    rng = np.random.default_rng(7)
    cfg = preset(preset_name) if isinstance(preset_name, str) else preset_name
    model = cast_model(build_model(cfg, seed=5), np.float64)
    res = model.cfg.input_resolution
    image = Tensor(rng.standard_normal((res, res, 3)), requires_grad=True)
    trunk = model.trunk()

    def loss_value():
        logits, _ = model.forward(image, want_activations=False)
        return cross_entropy(logits, 1)

    def resume(k):
        """The loss from trunk step k on (the head alone when k is
        len(trunk)), given the kept input state of step k."""
        x, g = states[k]
        for _, step in trunk[k:]:
            x, g, _ = step(x, g)
        return cross_entropy(model.head(x), 1)

    # one analytic backward pass gives gradients for the image and all
    # params; it keeps the input state of each trunk step, then the head's
    states = []
    tape = GradTape()
    with tape:
        x, g = model.stem(image), model.g_init
        for _, step in trunk:
            states.append((x, g))
            x, g, _ = step(x, g)
        states.append((x, g))
        loss = cross_entropy(model.head(x), 1)
    T.backward(tape, loss)

    resume_at = {}  # id of a parameter -> the trunk index its probes rerun from
    for k, (_, step) in enumerate(trunk):
        for _, p in step.named_params():
            resume_at.setdefault(id(p), k)
    for layer in (model.head_norm, model.head_lin1, model.head_lin2):
        for _, p in layer.named_params():
            resume_at[id(p)] = len(trunk)

    def loss_from(t):
        k = resume_at.get(id(t))
        return loss_value if k is None else lambda: resume(k)

    return model, image, loss_from


def gradcheck_model(max_coords=16, preset_name="toy"):
    """Full toy model in f64 (weights from seed 5, class label 1): loss
    gradient wrt the input image and a sampled set of at most `max_coords`
    coordinates of representative parameter tensors, against central finite
    differences. `preset_name` is a preset name or a `ModelConfig`.

    The analytic pass runs the stem, the trunk and the head once and keeps
    the input state of every trunk step. A probe then reruns only what its
    tensor can change: a parameter of a trunk step reruns from the first
    step whose parameters include it (matched by identity) through the
    head, from that step's kept input; a head parameter reruns the head
    alone; the image, the stem and the initial global tokens rerun the full
    `Model.forward`. Each rerun step sees the same inputs as in a full
    forward, so every report is the one a full forward per probe gives."""
    model, image, loss_from = _model_under_check(preset_name)
    params = model.param_dict()
    targets = [("model.input", image)]
    for name in MODEL_CHECK_PARAMS:
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
        results.append((name, central_differences(loss_from(t), flat, analytic, coords)))
    return results
