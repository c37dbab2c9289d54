"""Block-level invariants: residual identities, fusion degeneracies,
downsampling schedules, and the ablation variants."""

import numpy as np
import pytest

from dualtoken import tensor as T
from dualtoken.block import (ConvEncoder, DualTokenBlock, Downsampler,
                             WindowAttentionLocal, ds_conv_count, ds_plan)
from dualtoken.layers import MultiHeadAttention
from dualtoken.model import ModelConfig, StageConfig
from dualtoken.tensor import Tensor


def build_block(seed=0, resolution=4, **overrides):
    """A stage-0 block 8 wide with 2 heads, kernel 3, grid 2 and FFN ratio 2,
    on a `resolution`-sided map."""
    cfg = ModelConfig(stages=[StageConfig(1, 8, 2, 3)] * 3, token_grid=2, ffn_ratio=2,
                      input_resolution=8 * resolution, **overrides)
    return cfg, DualTokenBlock(np.random.default_rng(seed), cfg, 0)


def test_ds_plan_hits_the_grid_at_default_resolutions():
    # stage map 28 -> pool 14 -> conv+pool 7; map 14 -> pool 7; map 7 -> done
    assert ds_plan(28, 7, 10) == ([14], 7)
    assert ds_plan(14, 7, 10) == ([], 7)
    assert ds_plan(7, 7, 10) == ([], 7)
    assert ds_conv_count(28, 7) == 1
    assert ds_conv_count(14, 7) == 0


def test_ds_plan_falls_short_at_off_grid_resolutions():
    # 32 -> 16 -> conv+pool 8; 8 halves below the 7-grid, so 8 stays
    sizes, final = ds_plan(32, 7, 10)
    assert sizes == [16] and final == 8


def test_stepwise_downsampler_interpolates_only_off_grid(bilinear_calls):
    rng = np.random.default_rng(40)
    ds28 = Downsampler(np.random.default_rng(41), 4, "step_wise", 7, 28)
    y = ds28(Tensor(rng.standard_normal((28, 28, 4)).astype(np.float32)))
    assert y.shape == (7, 7, 4) and bilinear_calls == []
    # the schedule follows the map it gets: 14 -> pool 7, the conv unused
    x14 = rng.standard_normal((14, 14, 4)).astype(np.float32)
    y = ds28(Tensor(x14))
    want = x14.reshape(7, 2, 7, 2, 4).mean(axis=(1, 3))
    assert np.abs(y.data - want).max() <= 1e-6 and bilinear_calls == []
    ds32 = Downsampler(np.random.default_rng(42), 4, "step_wise", 7, 32)
    y = ds32(Tensor(rng.standard_normal((32, 32, 4)).astype(np.float32)))
    # 32 -> pool 16 -> conv+pool 8, then resampled to the 7-grid
    assert y.shape == (7, 7, 4) and bilinear_calls == [(8, 8)]


def test_one_step_downsampler_is_a_single_pool(bilinear_calls):
    rng = np.random.default_rng(43)
    ds = Downsampler(np.random.default_rng(0), 3, "one_step", 7, 28)
    x = rng.standard_normal((28, 28, 3)).astype(np.float32)
    y = ds(Tensor(x))
    assert bilinear_calls == []
    want = x.reshape(7, 4, 7, 4, 3).mean(axis=(1, 3))
    assert np.abs(y.data - want).max() <= 1e-6


def test_conv_encoder_residual_identity_with_zeroed_projection():
    enc = ConvEncoder(np.random.default_rng(44), 6, 3)
    enc.pw2.weight.data[:] = 0.0
    enc.pw2.bias.data[:] = 0.0
    x = np.random.default_rng(45).standard_normal((5, 5, 6)).astype(np.float32)
    y = enc(Tensor(x)).data
    assert np.abs(y - x).max() == 0.0


def test_window_attention_single_window_equals_plain_attention():
    rng = np.random.default_rng(46)
    local = WindowAttentionLocal(np.random.default_rng(47), 8, 2, window=4)
    x = rng.standard_normal((4, 4, 8)).astype(np.float32)
    got = local(Tensor(x)).data
    tokens = Tensor(x.reshape(16, 8))
    want = (tokens.data + local.attn(tokens).data).reshape(4, 4, 8)
    assert np.abs(got - want).max() <= 1e-6


def test_window_attention_windows_do_not_interact():
    local = WindowAttentionLocal(np.random.default_rng(48), 8, 2, window=2)
    rng = np.random.default_rng(49)
    x = rng.standard_normal((4, 4, 8)).astype(np.float32)
    base = local(Tensor(x)).data
    x2 = x.copy()
    x2[2:, 2:] += 1.0     # touch only the lower-right window
    bumped = local(Tensor(x2)).data
    assert (base[:2, :2] == bumped[:2, :2]).all()
    assert not (base[2:, 2:] == bumped[2:, 2:]).all()


def test_fusion_alpha_zero_passes_the_aggregated_map_through():
    _, block = build_block(alpha=0.0)
    rng = np.random.default_rng(50)
    g = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    x_ga = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    out = block.fuse_global_tokens(g, x_ga).data
    assert (out == x_ga.data).all()


def test_fusion_alpha_one_ignores_the_aggregated_map():
    _, block = build_block(alpha=1.0)
    rng = np.random.default_rng(51)
    g = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    a = block.fuse_global_tokens(g, Tensor(np.zeros((4, 8), np.float32))).data
    b = block.fuse_global_tokens(g, Tensor(np.ones((4, 8), np.float32))).data
    assert (a == b).all()
    want = block.fuse_mlp(block.fuse_norm(g)).data
    assert (a == want).all()


def test_global_tokens_residual_identity_when_fusion_is_zero():
    # force the fused update to zero: alpha=1 routes everything through the
    # MLP, whose second linear we zero out
    _, block = build_block(alpha=1.0)
    block.fuse_mlp.lin2.weight.data[:] = 0.0
    block.fuse_mlp.lin2.bias.data[:] = 0.0
    rng = np.random.default_rng(52)
    g0 = rng.standard_normal((4, 8)).astype(np.float32)
    x = Tensor(rng.standard_normal((4, 4, 8)).astype(np.float32))
    x_ga = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    assert (block.fuse_global_tokens(Tensor(g0), x_ga).data == 0.0).all()
    _, g_out, _ = block(x, Tensor(g0))
    assert (g_out.data == g0).all()


def test_broadcast_attention_rows_sum_to_one():
    _, block = build_block()
    rng = np.random.default_rng(53)
    x = Tensor(rng.standard_normal((4, 4, 8)).astype(np.float32))
    g = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    _, _, attn = block(x, g)
    assert attn.shape == (16, 4)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() <= 1e-6


def test_block_shape_contract_and_activation_shapes():
    cfg, block = build_block(resolution=8)
    rng = np.random.default_rng(54)
    x = Tensor(rng.standard_normal((8, 8, 8)).astype(np.float32))
    g = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    x_out, g_out, attn = block(x, g)
    assert x_out.shape == (8, 8, 8)
    assert g_out.shape == (4, 8)
    # one broadcast-attention row per image token, one column per global token
    assert attn.shape == (64, 4)
    # the stages __call__ runs in turn: the map pools to the 2x2 grid,
    # whose 4 tokens the aggregation keeps
    x_ds = block.downsample(block.local_branch(x))
    assert x_ds.shape == (2, 2, 8)
    assert block.global_aggregate(T.reshape(x_ds, (4, 8))).shape == (4, 8)


def test_normal_token_mode_uses_a_flat_token_list():
    cfg, block = build_block(global_mode="normal_msa", num_global_tokens=5)
    assert cfg.global_token_count == 5
    rng = np.random.default_rng(55)
    x = Tensor(rng.standard_normal((4, 4, 8)).astype(np.float32))
    g = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
    x_out, g_out, attn = block(x, g)
    assert g_out.shape == (5, 8)
    assert attn.shape == (16, 5)


def test_mix_mlp_is_bound_to_its_token_count():
    _, block = build_block(mlp_kind="mix")
    with pytest.raises(ValueError):
        block.fuse_mlp(Tensor(np.zeros((3, 8), np.float32)))


def test_block_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        build_block(alpha=1.5)
    with pytest.raises(ValueError, match=r"side \(4\) divisible by the window \(3\)"):
        build_block(local_kind="window_msa", window=3)
