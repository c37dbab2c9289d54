"""Acceptance gate: one test per published criterion, each printing a single
machine-readable PASS/FAIL line (visible with `pytest -s` or on failure)."""

import time
from dataclasses import replace

import numpy as np

from dualtoken import checks
from dualtoken.analysis import (PARAM_TOL, FLOP_TOL, TABLE_TARGETS,
                                count_flops, count_params, export_heatmap,
                                extract_attention_map, instrumented_macs,
                                read_heatmap_csv, top_cells)
from dualtoken.block import Downsampler, DualTokenBlock, ds_conv_count
from dualtoken.data import SyntheticDataset, gen_synthetic
from dualtoken.gradcheck import grad_check
from dualtoken.layers import MultiHeadAttention
from dualtoken.model import build_model, load_checkpoint, preset, \
    save_checkpoint
from dualtoken.tensor import Tensor
from dualtoken.train import evaluate, load_state, save_state, train_toy

import test_layers
import test_tensor_ops
from test_block import build_block


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_parameter_counts():
    lines = []
    ok = True
    for name, (p_target, _) in sorted(TABLE_TARGETS.items()):
        model = build_model(name, seed=0)
        rep = count_params(model)
        assert len(rep.lines()) > 10    # per-layer breakdown exists
        rel = abs(rep.total_params - p_target) / p_target
        ok &= rel <= PARAM_TOL
        lines.append(f"{name} {rep.total_params / 1e6:.3f}M "
                     f"(target {p_target / 1e6:.1f}M, {rel:+.1%})")
    report(1, ok, "params " + "; ".join(lines))


def test_criterion_2_flop_counts():
    lines = []
    ok = True
    for name, (_, f_target) in sorted(TABLE_TARGETS.items()):
        cfg = preset(name)
        analytic = count_flops(cfg, 224).total_macs
        executed = instrumented_macs(build_model(cfg, seed=0), 224)
        rel = abs(analytic - f_target) / f_target
        ok &= rel <= FLOP_TOL and analytic == executed
        lines.append(f"{name} {analytic / 1e9:.3f}G "
                     f"(target {f_target / 1e9:.1f}G, {rel:+.1%}, "
                     f"instrumented {'==' if analytic == executed else '!='})")
    report(2, ok, "macs " + "; ".join(lines))


def test_criterion_3_accuracy_out_of_scope():
    # published dataset accuracies are not reproducible at this scale; the
    # remaining criteria substitute property-based checks
    report(3, True, "accuracy reproduction explicitly out of scope; "
                    "property-based substitutes follow")


def test_criterion_4_oracle_equivalence():
    start = time.time()
    test_tensor_ops.test_matmul_matches_naive_oracle(np.float64)
    test_tensor_ops.test_matmul_matches_naive_oracle(np.float32)
    test_tensor_ops.test_conv2d_matches_naive_oracle(np.float64)
    test_tensor_ops.test_conv2d_matches_naive_oracle(np.float32)
    test_tensor_ops.test_avgpool2d_matches_naive_oracle(np.float64)
    test_tensor_ops.test_bilinear_resize_matches_naive_oracle(np.float64)
    for heads in (1, 2, 4):
        test_layers.test_mhsa_matches_brute_force_oracle(heads)
    elapsed = time.time() - start
    report(4, elapsed < 60.0,
           f"conv2d/avgpool2d/matmul/mhsa/bilinear match naive oracles "
           f"(>=20 instances each) in {elapsed:.1f}s")


def test_criterion_5_gradient_suite():
    start = time.time()
    failures = []
    worst = 0.0
    for suite in (checks.gradcheck_primitives, checks.gradcheck_blocks,
                  checks.gradcheck_model):
        for name, rep in suite():
            worst = max(worst, rep.max_rel_err)
            if not rep.passed:
                failures.append(f"{name}={rep.max_rel_err:.2e}")
    elapsed = time.time() - start
    report(5, not failures and elapsed < 600.0,
           f"primitives+blocks+model finite differences, max rel err "
           f"{worst:.2e} (tol 1e-4) in {elapsed:.1f}s"
           + (f"; failed: {failures}" if failures else ""))


def test_criterion_6_shape_invariants(bilinear_calls):
    problems = []
    # stride ladder and downsampling schedule at 224^2
    cfg = preset("dualtoken_t_mix")
    if [cfg.stage_resolution(i) for i in range(3)] != [28, 14, 7]:
        problems.append("stride ladder")
    if (ds_conv_count(28, 7), ds_conv_count(14, 7)) != (1, 0):
        problems.append("downsample schedule")
    last = DualTokenBlock(np.random.default_rng(0), cfg, 2)
    if last.local is not None or last.ds.kind != "skip":
        problems.append("stage-3 skip")
    # interpolation fallback preserves constants exactly (256^2 stage 1: 32 -> 7)
    ds = Downsampler(np.random.default_rng(0), 4, "step_wise", 7, 32)
    ds.conv = []      # pooling-only path isolates the interpolation step
    y = ds(Tensor(np.full((32, 32, 4), 0.625, np.float32)))
    if not (bilinear_calls == [(16, 16)] and (y.data == np.float32(0.625)).all()):
        problems.append("constant preservation under interpolation")
    # attention rows sum to 1
    model = build_model("toy", seed=1)
    img = np.random.default_rng(2).standard_normal((32, 32, 3)).astype(np.float32)
    _, attention = model.forward(Tensor(img))
    for path, attn in attention.items():
        if np.abs(attn.sum(axis=-1) - 1.0).max() > 1e-6:
            problems.append(f"attention rows ({path})")
    # global-token residual identity with the fused update forced to zero
    _, block = build_block(seed=3, alpha=1.0)
    block.fuse_mlp.lin2.weight.data[:] = 0.0
    block.fuse_mlp.lin2.bias.data[:] = 0.0
    g0 = np.random.default_rng(4).standard_normal((4, 8)).astype(np.float32)
    x = Tensor(np.random.default_rng(5).standard_normal((4, 4, 8)).astype(np.float32))
    _, g_out, _ = block(x, Tensor(g0))
    if not (g_out.data == g0).all():
        problems.append("residual identity")
    # alpha degeneracies
    for alpha in (0.0, 1.0):
        _, b = build_block(seed=6, alpha=alpha)
        g = Tensor(np.random.default_rng(7).standard_normal((4, 8)).astype(np.float32))
        xga = Tensor(np.random.default_rng(8).standard_normal((4, 8)).astype(np.float32))
        fused = b.fuse_global_tokens(g, xga).data
        want = xga.data if alpha == 0.0 else b.fuse_mlp(b.fuse_norm(g)).data
        if not (fused == want).all():
            problems.append(f"alpha={alpha} degeneracy")
    report(6, not problems,
           "stride ladder, grid schedule, interpolation constancy, attention "
           "row sums, residual identity, alpha degeneracies"
           + (f"; failed: {problems}" if problems else ""))


def _variant(name, **overrides):
    # the toy preset is wide enough that finite differences at the pinned
    # 1e-5 step stay below tolerance (toy_grad's curvature is too sharp)
    return replace(preset("toy"), name=name, **overrides)


def criterion_7_variants():
    """The 11 toy ablation variants of criterion 7, freshly built."""
    return [
        _variant("window2", local_kind="window_msa", window=2),
        _variant("mix_mlp", mlp_kind="mix"),
        _variant("one_step", ds_kind="one_step"),
        _variant("normal_tokens", global_mode="normal_msa"),
        _variant("posaware_msa", global_mode="position_aware_msa"),
    ] + [_variant(f"grid{g}", token_grid=g) for g in range(3, 9)]


def test_criterion_7_ablation_parity():
    start = time.time()
    variants = criterion_7_variants()
    problems = []
    rng = np.random.default_rng(70)
    for cfg in variants:
        try:
            model = build_model(cfg, seed=1)
            img = rng.standard_normal((32, 32, 3)).astype(np.float32)
            logits, _ = model.forward(Tensor(img))
            if not np.isfinite(logits.data).all():
                problems.append(f"{cfg.name}: non-finite forward")
                continue
            for pname, rep in checks.gradcheck_model(preset_name=cfg,
                                                     max_coords=4):
                if not rep.passed:
                    problems.append(f"{cfg.name}/{pname}={rep.max_rel_err:.2e}")
        except Exception as exc:
            problems.append(f"{cfg.name}: {type(exc).__name__} {exc}")
    # window size 7 at the published resolution (stage maps 28/14 divisible)
    big = replace(preset("dualtoken_t_mix"), local_kind="window_msa")
    logits, _ = build_model(big, seed=1).forward(
        Tensor(rng.standard_normal((224, 224, 3)).astype(np.float32)),
        want_activations=False)
    if not np.isfinite(logits.data).all():
        problems.append("window7@224: non-finite forward")
    elapsed = time.time() - start
    report(7, not problems,
           f"{len(variants)} toy ablation variants plus window-7 at 224^2 "
           f"build/forward/gradcheck in {elapsed:.1f}s"
           + (f"; failed: {problems}" if problems else ""))


def test_criterion_8_toy_learning():
    start = time.time()
    ds = gen_synthetic(seed=42, n=800, classes=8, side=32)
    state = train_toy(preset("toy"), ds, steps=200, lr=1e-3, seed=42)
    first = float(np.mean(state.loss_history[:10]))
    last = float(np.mean(state.loss_history[-10:]))
    subset = SyntheticDataset(ds.images[:160], ds.labels[:160], 8, 42)
    acc = evaluate(state.model, subset)
    replay = train_toy(preset("toy"), ds, steps=20, lr=1e-3, seed=42)
    deterministic = replay.loss_history == state.loss_history[:20]
    elapsed = time.time() - start
    report(8, last <= 0.5 * first and acc >= 0.9 and deterministic
           and elapsed < 600.0,
           f"200 steps: loss {first:.3f} -> {last:.3f} "
           f"({last / first:.1%} of start, need <=50%), train accuracy "
           f"{acc:.1%} (need >=90% within 2000 steps), "
           f"deterministic={deterministic}, {elapsed:.0f}s")


def test_criterion_9_artifact_round_trips(tmp_path):
    problems = []
    model = build_model("toy_grad", seed=11)
    ckpt = tmp_path / "model.dtvt"
    save_checkpoint(model, ckpt)
    clone = load_checkpoint(build_model("toy_grad", seed=99), ckpt)
    for (n, a), (_, b) in zip(model.named_params(), clone.named_params()):
        if not (a.data == b.data).all():
            problems.append(f"checkpoint {n}")
    ds = gen_synthetic(seed=1, n=32, classes=4, side=32)
    straight = train_toy(preset("toy_grad"), ds, steps=6, lr=1e-3, seed=5)
    half = train_toy(preset("toy_grad"), ds, steps=3, lr=1e-3, seed=5)
    state_path = tmp_path / "state.dtvt"
    save_state(half, state_path)
    resumed = load_state(state_path, preset("toy_grad"), seed=5)
    train_toy(None, ds, steps=3, state=resumed)
    if resumed.loss_history != straight.loss_history:
        problems.append("resume loss history")
    for (n, a), (_, b) in zip(straight.model.named_params(),
                              resumed.model.named_params()):
        if not (a.data == b.data).all():
            problems.append(f"resume {n}")
            break
    m = np.random.default_rng(12).random((7, 7))
    m /= m.sum()
    csv_path = tmp_path / "map.csv"
    export_heatmap(m, csv_path, fmt="csv")
    if np.abs(read_heatmap_csv(csv_path) - m).max() > 1e-9:
        problems.append("csv round trip")
    report(9, not problems,
           "checkpoint bit-identical, training resume bitwise-replayable, "
           "attention CSV within 1e-9"
           + (f"; failed: {problems}" if problems else ""))


def test_criterion_10_attention_map_pipeline():
    # the published aggregation grid
    cfg = replace(preset("toy"), input_resolution=64, token_grid=7)
    model = build_model(cfg, seed=13)
    img = np.random.default_rng(14).standard_normal((64, 64, 3)).astype(np.float32)
    problems = []
    full = extract_attention_map(model, img, query="all")
    mean = extract_attention_map(model, img, query="mean")
    for q, m in zip(full.queries, full.maps):
        if m.shape != (7, 7):
            problems.append(f"query {q} shape {m.shape}")
        if abs(m.sum() - 1.0) > 1e-6:
            problems.append(f"query {q} sum {m.sum():.8f}")
    if np.abs(mean.maps[0] - np.mean(full.maps, axis=0)).max() > 1e-7:
        problems.append("mean map mismatch")
    m = mean.maps[0]
    got = top_cells(m)
    order = sorted(((m[r, c], (r, c)) for r in range(7) for c in range(7)),
                   key=lambda t: -t[0])
    if got != [rc for _, rc in order[:8]]:
        problems.append("top-8 sort oracle")
    report(10, not problems,
           f"last-block broadcast maps: {len(full.maps)} per-query + mean 7x7 "
           "maps sum to 1, top-8 matches the sort oracle"
           + (f"; failed: {problems}" if problems else ""))
