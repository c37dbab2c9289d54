"""The dual-token block: convolutional local branch, step-wise downsampling,
global aggregation, fusion with the position-aware global token grid, global
broadcast, FFN, and the gated bi-dimensional attention, plus the ablation
variants (window self-attention local branch, normal 1-d global tokens,
one-step downsampling)."""

from __future__ import annotations

import math

from . import tensor as T
from .layers import Conv2d, Layer, LayerNorm, Linear, MultiHeadAttention, prefixed


def ds_plan(resolution, grid):
    """Pooling/conv schedule of the step-wise downsampler for a map of side
    `resolution`.

    Returns (conv_input_sizes, final_size): one avgpool first, then a
    conv-then-avgpool for every further halving that stays on or above the
    grid. A final_size != grid means the bilinear fallback kicks in.
    """
    sizes = []
    cur = resolution
    while cur % 2 == 0 and cur // 2 >= grid:
        sizes.append(cur)
        cur //= 2
    return sizes[1:], cur


class ConvEncoder(Layer):
    """Residual depthwise/pointwise convolution block:
    x + PW2(GELU(PW1(LN(DW(x)))))."""

    EXPANSION = 4  # pointwise hidden width / channels

    def __init__(self, rng, channels, kernel):
        c, e = channels, channels * self.EXPANSION
        self.dw = Conv2d(rng, kernel, c, c, stride=1, padding="same", groups=c)
        self.norm = LayerNorm(rng, c)
        self.pw1 = Conv2d(rng, 1, c, e, stride=1, padding=0, groups=1)
        self.pw2 = Conv2d(rng, 1, e, c, stride=1, padding=0, groups=1)

    def __call__(self, x):
        return T.add(x, self.pw2(T.gelu(self.pw1(self.norm(self.dw(x))))))


class WindowAttentionLocal(Layer):
    """Multi-head self-attention inside non-overlapping windows, plus the
    residual; the ablation alternative to the conv encoder. Every window of
    every sample of a stack of maps attends as one stack of win² tokens."""

    def __init__(self, rng, channels, heads, window):
        self.attn = MultiHeadAttention(rng, channels, heads)
        self.window = window

    def __call__(self, x):
        *lead, h, w, c = x.shape
        win = self.window
        if h % win or w % win:
            raise ValueError(f"feature map {h}x{w} not divisible by window {win}")
        nh, nw = h // win, w // win
        samples = math.prod(lead)
        # (sample, window row, window column) x win² tokens x C; the
        # permutation is its own inverse
        perm = (0, 1, 3, 2, 4, 5)
        y = T.transpose(T.reshape(x, (samples, nh, win, nw, win, c)), perm)
        y = T.reshape(y, (samples * nh * nw, win * win, c))
        y = T.reshape(T.add(y, self.attn(y)), (samples, nh, nw, win, win, c))
        return T.reshape(T.transpose(y, perm), x.shape)


class Downsampler(Layer):
    """Reduce the `resolution`-sided local feature map to the g x g grid on a
    schedule fixed when it is built: an avgpool by `pool` unless it is 1, a
    conv+avgpool by 2 per conv, then bilinear resampling if the grid is missed.
    'step_wise' follows ds_plan; 'one_step' pools once by resolution // grid
    when the grid divides the side; 'skip' neither pools nor convolves.
    """

    def __init__(self, rng, channels, kind, grid, resolution):
        self.grid = grid
        sizes, self.pool = [], 1
        if kind == "step_wise":
            sizes, final = ds_plan(resolution, grid)
            self.pool = 2 if final < resolution else 1
        elif kind == "one_step" and resolution % grid == 0:
            self.pool = resolution // grid
        self.conv = [Conv2d(rng, 3, channels, channels, stride=1, padding="same", groups=1)
                     for _ in sizes]

    def __call__(self, x):
        g = self.grid
        y = x if self.pool == 1 else T.avgpool2d(x, self.pool)
        for conv in self.conv:
            y = T.avgpool2d(conv(y), 2)
        if y.shape[-3] != g or y.shape[-2] != g:
            y = T.bilinear_resize(y, g, g)
        return y


class TokenMLP(Layer):
    """MLP on global tokens: channel-only (Linear-GELU-Linear, hidden = C) or
    the token-mixing variant (channel linear, transpose, token linear), on
    n x C tokens or on each sample's of a stack."""

    def __init__(self, rng, channels, kind, n_tokens):
        self.kind = kind
        self.lin1 = Linear(rng, channels, channels)
        width = channels if kind == "normal" else n_tokens
        self.lin2 = Linear(rng, width, width)

    def __call__(self, g):
        if self.kind == "normal":
            return self.lin2(T.gelu(self.lin1(g)))
        if g.shape[-2] != self.lin2.cin:
            raise ValueError(
                f"mix MLP is bound to {self.lin2.cin} tokens, got {g.shape[-2]}")
        # each sample's last two axes swapped
        swap = tuple(range(g.data.ndim - 2)) + (g.data.ndim - 1, g.data.ndim - 2)
        y = T.transpose(self.lin1(g), swap)   # C x n
        y = self.lin2(y)                      # token-axis linear
        return T.transpose(y, swap)


class FFN(Layer):
    """Pre-norm residual feed-forward on flattened tokens."""

    def __init__(self, rng, channels, ratio):
        hidden = channels * ratio
        self.norm = LayerNorm(rng, channels)
        self.lin1 = Linear(rng, channels, hidden)
        self.lin2 = Linear(rng, hidden, channels)

    def __call__(self, x):
        y = self.lin2(T.gelu(self.lin1(self.norm(x))))
        return T.add(x, y)


class BiDimAttention(Layer):
    """Gated spatial x channel reweighting with a residual:
    x + x * sigmoid(spatial gate) * sigmoid(channel gate)."""

    def __init__(self, rng, channels):
        self.spatial = Linear(rng, channels, 1)
        self.channel = Linear(rng, channels, channels)  # on the token mean

    def __call__(self, x):
        s = T.sigmoid(self.spatial(x))                           # N x 1
        pooled = T.mean(x, axis=-2)                              # 1 x C
        c = T.sigmoid(self.channel(pooled))                      # 1 x C
        return T.add(x, T.mul(T.mul(x, s), c))


class DualTokenBlock(Layer):
    """One block: local branch, token module (downsample, aggregate, fuse,
    broadcast), dual-token fusion, FFN, bi-dimensional attention, and the
    residual global-token update."""

    def __init__(self, rng, cfg, stage):
        """A block of stage `stage` (0, 1 or 2) of the `ModelConfig` `cfg`: its
        width, heads and depthwise kernel are the stage's, and its map side is
        `cfg.stage_resolution(stage)`. The last stage has no local branch and
        no downsampler."""
        self.cfg = cfg
        s = cfg.stages[stage]
        c, h = s.channels, s.heads
        last = stage == 2
        if last:
            self.local = None
        elif cfg.local_kind == "conv_encoder":
            self.local = ConvEncoder(rng, c, s.dw_kernel)
        else:
            self.local = WindowAttentionLocal(rng, c, h, cfg.window)
        self.ds = Downsampler(rng, c, "skip" if last else cfg.ds_kind,
                              cfg.token_grid, cfg.stage_resolution(stage))
        self.aggregate = MultiHeadAttention(rng, c, h)
        self.fuse_norm = self.fuse_mlp = self.fuse_attn = None
        if cfg.global_mode == "position_aware_sum":
            self.fuse_norm = LayerNorm(rng, c)
            self.fuse_mlp = TokenMLP(rng, c, cfg.mlp_kind, cfg.token_grid ** 2)
        else:
            self.fuse_attn = MultiHeadAttention(rng, c, h)
        self.broadcast = MultiHeadAttention(rng, c, h)
        self.ffn = FFN(rng, c, cfg.ffn_ratio)
        self.bidim = BiDimAttention(rng, c) if cfg.bidim else None

    # pipeline stages, called by name from __call__ (perfbench/tracing.py
    # wraps each of them as a block.* span) ---------------------------------

    def local_branch(self, x):
        return x if self.local is None else self.local(x)

    def downsample(self, x_local):
        return self.ds(x_local)

    def global_aggregate(self, x_ds_tokens):
        return self.aggregate(x_ds_tokens)

    def fuse_global_tokens(self, g_tokens, x_ga):
        cfg = self.cfg
        if cfg.global_mode == "position_aware_sum":
            if g_tokens.shape[-2] != x_ga.shape[-2]:
                raise ValueError(
                    f"token counts disagree: G has {g_tokens.shape[-2]}, "
                    f"aggregated map has {x_ga.shape[-2]}")
            mlp_path = self.fuse_mlp(self.fuse_norm(g_tokens))
            return T.add(T.scale(mlp_path, cfg.alpha),
                         T.scale(x_ga, 1.0 - cfg.alpha))
        kv = T.concat([g_tokens, x_ga], axis=-2)
        return self.fuse_attn(g_tokens, kv)

    def global_broadcast(self, image_tokens, g_new):
        return self.broadcast(image_tokens, g_new, need_weights=True)

    # full pipeline ---------------------------------------------------------

    def __call__(self, x, g):
        """x: h x w x C map, g: n_g x C global tokens, or a stack of each
        (N x h x w x C and N x n_g x C). Returns the updated map, the updated
        global tokens, and the head-averaged broadcast attention (h*w x n_g,
        post-softmax; N x h*w x n_g for a stack)."""
        *lead, h, w, c = x.shape
        lead = tuple(lead)
        x_local = self.local_branch(x)
        grid = self.cfg.token_grid
        x_ds_tokens = T.reshape(self.downsample(x_local), lead + (grid * grid, c))
        g_new = self.fuse_global_tokens(g, self.global_aggregate(x_ds_tokens))
        x_local_tokens = T.reshape(x_local, lead + (h * w, c))
        x_global, attn = self.global_broadcast(x_local_tokens, g_new)
        y = self.ffn(T.add(x_local_tokens, x_global))
        if self.bidim is not None:
            y = self.bidim(y)
        return T.reshape(y, x.shape), T.add(g, g_new), attn

    # the checkpoint names the local branch by its kind and nests the fusion
    # layers under "fuse", so this walk is not the Layer one
    def named_params(self):
        if self.local is not None:
            kind = "conv_encoder" if isinstance(self.local, ConvEncoder) else "window_local"
            yield from prefixed(kind, self.local.named_params())
        yield from prefixed("downsample", self.ds.named_params())
        yield from prefixed("aggregate", self.aggregate.named_params())
        if self.fuse_norm is not None:
            yield from prefixed("fuse.norm", self.fuse_norm.named_params())
        if self.fuse_mlp is not None:
            yield from prefixed("fuse.mlp", self.fuse_mlp.named_params())
        if self.fuse_attn is not None:
            yield from prefixed("fuse.attn", self.fuse_attn.named_params())
        yield from prefixed("broadcast", self.broadcast.named_params())
        yield from prefixed("ffn", self.ffn.named_params())
        if self.bidim is not None:
            yield from prefixed("bidim", self.bidim.named_params())

