"""The dual-token block: convolutional local branch, step-wise downsampling,
global aggregation, fusion with the position-aware global token grid, global
broadcast, FFN, and the gated bi-dimensional attention, plus the ablation
variants (window self-attention local branch, normal 1-d global tokens,
one-step downsampling)."""

from __future__ import annotations

from . import tensor as T
from .layers import LayerNorm, Linear, MultiHeadAttention, init_params, prefixed


def ds_plan(resolution, grid, n_convs):
    """Pooling/conv schedule of the step-wise downsampler.

    Returns (conv_input_sizes, final_size): one avgpool first, then up to
    n_convs repetitions of conv-then-avgpool while halving stays on or above
    the grid. A final_size != grid means the bilinear fallback kicks in.
    """
    sizes = []
    cur = resolution
    first = True
    while cur > grid and cur % 2 == 0 and cur // 2 >= grid:
        if not first:
            if len(sizes) >= n_convs:
                break
            sizes.append(cur)
        cur //= 2
        first = False
    return sizes, cur


def ds_conv_count(resolution, grid):
    """Number of 3x3 convs the step-wise downsampler needs for a stage."""
    sizes, _ = ds_plan(resolution, grid, 10**9)
    return len(sizes)


class ConvEncoder:
    """Residual depthwise/pointwise convolution block:
    x + PW2(GELU(PW1(LN(DW(x)))))."""

    EXPANSION = 4  # pointwise hidden width / channels

    def __init__(self, rng, channels, kernel):
        c, e = channels, channels * self.EXPANSION
        self.dw_w = init_params(rng, (kernel, kernel, 1, c), "trunc_normal")
        self.dw_b = init_params(rng, (c,), "zeros")
        self.ln = LayerNorm(rng, c)
        self.pw1_w = init_params(rng, (1, 1, c, e), "trunc_normal")
        self.pw1_b = init_params(rng, (e,), "zeros")
        self.pw2_w = init_params(rng, (1, 1, e, c), "trunc_normal")
        self.pw2_b = init_params(rng, (c,), "zeros")

    def __call__(self, x):
        c = x.shape[-1]
        y = T.conv2d(x, self.dw_w, self.dw_b, padding="same", groups=c)
        y = self.ln(y)
        y = T.conv2d(y, self.pw1_w, self.pw1_b)
        y = T.gelu(y)
        y = T.conv2d(y, self.pw2_w, self.pw2_b)
        return T.add(x, y)

    def named_params(self):
        yield "dw.weight", self.dw_w
        yield "dw.bias", self.dw_b
        yield from prefixed("norm", self.ln.named_params())
        yield "pw1.weight", self.pw1_w
        yield "pw1.bias", self.pw1_b
        yield "pw2.weight", self.pw2_w
        yield "pw2.bias", self.pw2_b


class WindowAttentionLocal:
    """Multi-head self-attention inside non-overlapping windows, plus the
    residual; the ablation alternative to the conv encoder."""

    def __init__(self, rng, channels, heads, window):
        self.attn = MultiHeadAttention(rng, channels, heads)
        self.window = window

    def __call__(self, x):
        h, w, c = x.shape
        win = self.window
        if h % win or w % win:
            raise ValueError(f"feature map {h}x{w} not divisible by window {win}")
        row_tensors = []
        for wi in range(h // win):
            rows = T.slice_axis(x, 0, wi * win, (wi + 1) * win)
            col_outs = []
            for wj in range(w // win):
                block = T.slice_axis(rows, 1, wj * win, (wj + 1) * win)
                tokens = T.reshape(block, (win * win, c))
                out = T.add(tokens, self.attn(tokens))
                col_outs.append(T.reshape(out, (win, win, c)))
            row_tensors.append(T.concat(col_outs, axis=1))
        return T.concat(row_tensors, axis=0)

    def named_params(self):
        yield from prefixed("attn", self.attn.named_params())


class Downsampler:
    """Reduce the local feature map to the g x g aggregation grid.

    kind 'step_wise': the ds_plan schedule (one avgpool, then conv+avgpool
    repetitions); 'one_step': a single pooling; 'skip': identity. Whenever
    the result misses the grid, bilinear resampling makes up the difference.
    """

    def __init__(self, rng, channels, kind, grid, resolution):
        self.kind = kind
        self.grid = grid
        self.convs = []  # (weight, bias) of each 3x3 same-padding conv
        if kind == "step_wise":
            for _ in range(ds_conv_count(resolution, grid)):
                w = init_params(rng, (3, 3, channels, channels), "trunc_normal")
                b = init_params(rng, (channels,), "zeros")
                self.convs.append((w, b))

    def __call__(self, x):
        g = self.grid
        y = x
        if self.kind == "one_step":
            h = y.shape[0]
            if h > g and h % g == 0:
                y = T.avgpool2d(y, h // g)
        elif self.kind == "step_wise":
            sizes, final = ds_plan(y.shape[0], g, len(self.convs))
            if final < y.shape[0]:
                y = T.avgpool2d(y, 2)
            for w, b in self.convs[:len(sizes)]:
                y = T.avgpool2d(T.conv2d(y, w, b, padding="same"), 2)
        if y.shape[0] != g or y.shape[1] != g:
            y = T.bilinear_resize(y, g, g)
        return y

    def named_params(self):
        for i, (w, b) in enumerate(self.convs):
            yield f"conv{i}.weight", w
            yield f"conv{i}.bias", b


class TokenMLP:
    """MLP on global tokens: channel-only (Linear-GELU-Linear, hidden = C) or
    the token-mixing variant (channel linear, transpose, token linear)."""

    def __init__(self, rng, channels, kind, n_tokens):
        self.kind = kind
        self.lin1 = Linear(rng, channels, channels)
        width = channels if kind == "normal" else n_tokens
        self.lin2 = Linear(rng, width, width)

    def __call__(self, g):
        if self.kind == "normal":
            return self.lin2(T.gelu(self.lin1(g)))
        if g.shape[0] != self.lin2.cin:
            raise ValueError(
                f"mix MLP is bound to {self.lin2.cin} tokens, got {g.shape[0]}")
        y = T.transpose(self.lin1(g))      # C x n
        y = self.lin2(y)                   # token-axis linear
        return T.transpose(y)

    def named_params(self):
        yield from prefixed("lin1", self.lin1.named_params())
        yield from prefixed("lin2", self.lin2.named_params())


class FFN:
    """Pre-norm residual feed-forward on flattened tokens."""

    def __init__(self, rng, channels, ratio):
        hidden = channels * ratio
        self.ln = LayerNorm(rng, channels)
        self.lin1 = Linear(rng, channels, hidden)
        self.lin2 = Linear(rng, hidden, channels)

    def __call__(self, x):
        y = self.lin2(T.gelu(self.lin1(self.ln(x))))
        return T.add(x, y)

    def named_params(self):
        yield from prefixed("norm", self.ln.named_params())
        yield from prefixed("lin1", self.lin1.named_params())
        yield from prefixed("lin2", self.lin2.named_params())


class BiDimAttention:
    """Gated spatial x channel reweighting with a residual:
    x + x * sigmoid(spatial gate) * sigmoid(channel gate)."""

    def __init__(self, rng, channels):
        self.spatial_gate = Linear(rng, channels, 1)
        self.channel_gate = Linear(rng, channels, channels)  # on the token mean

    def __call__(self, x):
        s = T.sigmoid(self.spatial_gate(x))                      # N x 1
        pooled = T.mean(x, axis=0)                               # 1 x C
        c = T.sigmoid(self.channel_gate(pooled))                 # 1 x C
        return T.add(x, T.mul(T.mul(x, s), c))

    def named_params(self):
        yield from prefixed("spatial", self.spatial_gate.named_params())
        yield from prefixed("channel", self.channel_gate.named_params())


class DualTokenBlock:
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
            if g_tokens.shape[0] != x_ga.shape[0]:
                raise ValueError(
                    f"token counts disagree: G has {g_tokens.shape[0]}, "
                    f"aggregated map has {x_ga.shape[0]}")
            mlp_path = self.fuse_mlp(self.fuse_norm(g_tokens))
            return T.add(T.scale(mlp_path, cfg.alpha),
                         T.scale(x_ga, 1.0 - cfg.alpha))
        kv = T.concat([g_tokens, x_ga], axis=0)
        return self.fuse_attn(g_tokens, kv)

    def global_broadcast(self, image_tokens, g_new):
        return self.broadcast(image_tokens, g_new, need_weights=True)

    # full pipeline ---------------------------------------------------------

    def __call__(self, x, g):
        """x: h x w x C map, g: n_g x C global tokens. Returns the updated map,
        the updated global tokens, and the head-averaged broadcast attention
        (h*w x n_g, post-softmax)."""
        h, w, c = x.shape
        x_local = self.local_branch(x)
        grid = self.cfg.token_grid
        x_ds_tokens = T.reshape(self.downsample(x_local), (grid * grid, c))
        g_new = self.fuse_global_tokens(g, self.global_aggregate(x_ds_tokens))
        x_local_tokens = T.reshape(x_local, (h * w, c))
        x_global, attn = self.global_broadcast(x_local_tokens, g_new)
        y = self.ffn(T.add(x_local_tokens, x_global))
        if self.bidim is not None:
            y = self.bidim(y)
        return T.reshape(y, (h, w, c)), T.add(g, g_new), attn

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

