"""Full model assembly: stem, three stages of dual-token blocks, merge-patch
transitions, global-token propagation, classifier head, presets, and
checkpoint / config serialization."""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, dataclass, asdict

import numpy as np

from . import tensor as T
from .block import DualTokenBlock
from .container import Reader, write_tensors
from .layers import Conv2d, Layer, LayerNorm, Linear, init_params, prefixed


def check_positive_int(name, value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")


@dataclass(frozen=True)
class StageConfig:
    blocks: int
    channels: int
    heads: int
    dw_kernel: int | None = None  # None on the stage that skips the local branch

    def __post_init__(self):
        for name in ("blocks", "channels", "heads"):
            check_positive_int(f"stage {name}", getattr(self, name))
        if self.dw_kernel is not None:
            check_positive_int("stage dw_kernel", self.dw_kernel)
            if self.dw_kernel % 2 == 0:
                # a "same" convolution centres an odd kernel only
                raise ValueError(f"stage dw_kernel must be odd, got {self.dw_kernel}")

    @classmethod
    def from_dict(cls, d):
        return cls(**_known_fields(cls, d))


def _known_fields(cls, d):
    """Return `d` once it is known to be a dict that names only fields of the
    dataclass `cls`, and every field that has no default."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {d!r}")
    fields = cls.__dataclass_fields__
    unknown = set(d) - set(fields)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    missing = [n for n, f in fields.items()
               if n not in d and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {cls.__name__} fields: {missing}")
    return d


STRIDES = (8, 16, 32)

# the values each string-valued ModelConfig field may take
_KINDS = {
    "mlp_kind": ("normal", "mix"),
    "local_kind": ("conv_encoder", "window_msa"),
    "ds_kind": ("step_wise", "one_step"),
    "global_mode": ("position_aware_sum", "normal_msa", "position_aware_msa"),
}


@dataclass(frozen=True)
class ModelConfig:
    """A model's architecture, checked once when it is made. It is frozen:
    `dataclasses.replace` makes a changed copy, which is checked in turn."""

    name: str = "custom"
    stages: tuple = ()  # exactly 3 StageConfigs, or dicts of their fields
    token_grid: int = 7
    alpha: float = 0.1
    mlp_kind: str = "normal"
    local_kind: str = "conv_encoder"
    ds_kind: str = "step_wise"
    global_mode: str = "position_aware_sum"
    ffn_ratio: int = 4
    bidim: bool = True
    window: int = 7
    num_global_tokens: int = 8        # token count for normal_msa mode
    num_classes: int = 1000
    input_resolution: int = 224
    head_hidden: int = 1280

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not isinstance(self.stages, (list, tuple)):
            raise ValueError(f"stages must be a list of 3 stage configs, got {self.stages!r}")
        object.__setattr__(self, "stages", tuple(
            s if isinstance(s, StageConfig) else StageConfig.from_dict(s)
            for s in self.stages))
        if len(self.stages) != 3:
            raise ValueError(f"expected exactly 3 stages, got {len(self.stages)}")
        for name in ("input_resolution", "num_classes", "head_hidden", "token_grid",
                     "ffn_ratio", "window", "num_global_tokens"):
            check_positive_int(name, getattr(self, name))
        if self.input_resolution % 32 != 0:
            # stride-8 stem plus two 2x2 merges need five halvings in total
            raise ValueError("input resolution must be divisible by 32")
        if (isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real)
                or not 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be a real number in [0, 1], got {self.alpha!r}")
        for name, values in _KINDS.items():
            if getattr(self, name) not in values:
                raise ValueError(f"{name} must be one of {values}, got {getattr(self, name)!r}")
        if not isinstance(self.bidim, bool):
            raise ValueError(f"bidim must be true or false, got {self.bidim!r}")
        for s in self.stages:
            if s.channels % s.heads != 0:
                raise ValueError(f"channels {s.channels} not divisible by heads {s.heads}")
        for i in range(2):  # the last stage has no local branch
            if self.local_kind == "conv_encoder" and self.stages[i].dw_kernel is None:
                raise ValueError("a block with the conv encoder needs a dw_kernel")
            side = self.stage_resolution(i)
            if self.local_kind == "window_msa" and side % self.window != 0:
                raise ValueError(
                    f"window_msa needs the feature map side ({side}) "
                    f"divisible by the window ({self.window})")

    def stage_resolution(self, i):
        return self.input_resolution // STRIDES[i]

    @property
    def global_token_count(self):
        if self.global_mode == "normal_msa":
            return self.num_global_tokens
        return self.token_grid * self.token_grid

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d):
        return cls(**_known_fields(cls, d))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


_TINY = (StageConfig(2, 48, 2, 5), StageConfig(6, 96, 4, 7), StageConfig(4, 192, 8, None))
_SMALL = (StageConfig(2, 64, 2, 5), StageConfig(6, 128, 4, 7), StageConfig(6, 256, 8, None))

# the named architectures: the paper's Tiny and Small, each with either MLP,
# and two toy scales for the tests
PRESETS = {cfg.name: cfg for cfg in (
    ModelConfig("dualtoken_t", _TINY),
    ModelConfig("dualtoken_t_mix", _TINY, mlp_kind="mix"),
    ModelConfig("dualtoken_s", _SMALL),
    ModelConfig("dualtoken_s_mix", _SMALL, mlp_kind="mix"),
    ModelConfig("toy", (StageConfig(1, 8, 2, 3), StageConfig(1, 16, 4, 3),
                        StageConfig(1, 32, 8, None)),
                token_grid=2, num_classes=8, input_resolution=32, head_hidden=64),
    # small enough for finite-difference checking
    ModelConfig("toy_grad", (StageConfig(1, 4, 2, 3), StageConfig(1, 4, 2, 3),
                             StageConfig(1, 4, 2, None)),
                token_grid=2, num_classes=4, input_resolution=32, head_hidden=8),
)}
PRESET_NAMES = tuple(PRESETS)


def preset(name):
    """The preset config named `name`; configs are frozen, so it is shared."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    return PRESETS[name]


class Stem(Layer):
    """Three stride-2 3x3 convolutions (3 -> C1/2 -> C1/2 -> C1) with
    LN + GELU between; total stride 8."""

    def __init__(self, rng, out_channels):
        mid = max(out_channels // 2, 1)
        plan = [(3, mid), (mid, mid), (mid, out_channels)]
        # a LayerNorm draws nothing, so where the norms are built moves no
        # drawn weight
        self.conv = [Conv2d(rng, 3, cin, cout, stride=2, padding=1, groups=1)
                     for cin, cout in plan]
        self.norm = [LayerNorm(rng, mid) for _ in range(2)]

    def __call__(self, x):
        for conv, norm in zip(self.conv, self.norm):
            x = T.gelu(norm(conv(x)))
        return self.conv[2](x)


class MergePatch(Layer):
    """2x2 neighborhood concatenation (4C channels), LN, linear to the next
    stage's width."""

    def __init__(self, rng, cin, cout):
        self.norm = LayerNorm(rng, 4 * cin)
        self.proj = Linear(rng, 4 * cin, cout)

    def __call__(self, x):
        *lead, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"merge_patch needs even extents, got {h}x{w}")
        lead, axes = tuple(lead), tuple(range(len(lead)))
        y = T.reshape(x, lead + (h // 2, 2, w // 2, 2, c))
        y = T.transpose(y, axes + tuple(len(axes) + a for a in (0, 2, 1, 3, 4)))
        y = T.reshape(y, lead + (h // 2 * (w // 2), 4 * c))
        y = self.proj(self.norm(y))
        return T.reshape(y, lead + (h // 2, w // 2, self.proj.cout))


class StageTransition(Layer):
    """The trunk step between two stages: a merge-patch on the map and a
    bias-free per-token linear on the global tokens."""

    def __init__(self, rng, cin, cout):
        self.merge = MergePatch(rng, cin, cout)
        self.proj = Linear(rng, cin, cout, bias=False)

    def __call__(self, x, g):
        return self.merge(x), self.proj(g), None


class Model(Layer):
    def __init__(self, rng, cfg):
        self.cfg = cfg
        c1 = cfg.stages[0].channels
        self.stem = Stem(rng, c1)
        n_g = cfg.global_token_count
        # learnable initial global tokens
        self.g_init = init_params(rng, (n_g, c1), "trunc_normal")
        self.stages = []   # list of list of DualTokenBlock
        self.transitions = []  # the StageTransition into stages 2 and 3
        for si in range(3):
            if si > 0:
                self.transitions.append(StageTransition(
                    rng, cfg.stages[si - 1].channels, cfg.stages[si].channels))
            self.stages.append([DualTokenBlock(rng, cfg, si)
                                for _ in range(cfg.stages[si].blocks)])
        c3 = cfg.stages[2].channels
        self.head_norm = LayerNorm(rng, c3)
        self.head_lin1 = Linear(rng, c3, cfg.head_hidden)
        self.head_lin2 = Linear(rng, cfg.head_hidden, cfg.num_classes)

    def forward(self, images, want_activations=True):
        """Classify one S x S x 3 image, or each of N x S x S x 3 images, S
        the config's `input_resolution`: `stem`, then every step of `trunk()`
        in order, then `head`. A batch is one pass: every layer takes the
        images together, with the initial global tokens tiled to one copy
        per image.

        Returns (logits, attention): the `num_classes` logits (N x
        `num_classes` for a batch), and a dict in block order from each
        block's path ("stage1.block0", ...) to its head-averaged broadcast
        attention, a T x n_g array over the block's T image tokens and n_g
        global tokens (N x T x n_g for a batch). The dict is empty when
        `want_activations` is False.
        """
        if not isinstance(images, T.Tensor):
            raise ValueError(f"expected the image as a Tensor, got {type(images).__name__}")
        s = self.cfg.input_resolution
        if images.shape[-3:] != (s, s, 3) or images.data.ndim not in (3, 4) or not images.size:
            raise ValueError(f"expected a {s} x {s} x 3 image or N x {s} x {s} x 3 images, "
                             f"got {images.shape}")
        x, g = self.stem(images), self.g_init
        if images.data.ndim == 4:
            g = T.concat([T.reshape(g, (1,) + g.shape)] * images.shape[0], axis=0)
        attention = {}
        for path, step in self.trunk():
            x, g, attn = step(x, g)
            if want_activations and attn is not None:
                attention[path] = attn
        return self.head(x), attention

    def trunk(self):
        """The ordered (path, step) pairs between the stem and the head: each
        stage's blocks ("stage1.block0", ...), with the `StageTransition`
        ("merge1", "merge2") before stages 2 and 3. A step maps the state
        (map, global tokens) to (map, global tokens, attention), where the
        attention is None for a transition. A step reads only its own
        parameters and its input state, so a finite-difference probe of a
        parameter of step k reruns steps k onward and the head from the
        input state that step k had (`checks.gradcheck_model`)."""
        steps = []
        for si, blocks in enumerate(self.stages):
            if si > 0:
                steps.append((f"merge{si}", self.transitions[si - 1]))
            steps += [(f"stage{si + 1}.block{bi}", block) for bi, block in enumerate(blocks)]
        return steps

    def head(self, x):
        """The logits of the last stage's h x w x C map, or of each map of a
        stack: LN, mean over the tokens, linear, GELU, linear. It reads no
        state but `x`, so a probe of a head parameter reruns the head alone.
        `head_norm` and `head_lin2` are looked up at each call: a tracer may
        stand in for them."""
        *lead, h, w, c = x.shape
        lead = tuple(lead)
        tokens = T.reshape(x, lead + (h * w, c))
        pooled = T.mean(self.head_norm(tokens), axis=-2)
        y = T.gelu(self.head_lin1(pooled))
        return T.reshape(self.head_lin2(y), lead + (self.cfg.num_classes,))

    # the checkpoint puts every transition's token projection before the
    # stages, and names the head layers under "head"
    def named_params(self):
        yield from prefixed("stem", self.stem.named_params())
        yield "global_tokens.init", self.g_init
        for i, t in enumerate(self.transitions):
            yield from prefixed(f"global_tokens.proj{i}", t.proj.named_params())
        for si, blocks in enumerate(self.stages):
            if si > 0:
                yield from prefixed(f"merge{si}", self.transitions[si - 1].merge.named_params())
            for bi, block in enumerate(blocks):
                yield from prefixed(f"stage{si + 1}.block{bi}", block.named_params())
        yield from prefixed("head.norm", self.head_norm.named_params())
        yield from prefixed("head.lin1", self.head_lin1.named_params())
        yield from prefixed("head.lin2", self.head_lin2.named_params())

    def param_dict(self):
        d = {}
        for name, p in self.named_params():
            if name in d:
                raise ValueError(f"duplicate parameter name {name}")
            d[name] = p
        return d


def build_model(cfg, seed=42):
    """Deterministically initialize a model from its configuration or the
    name of a preset."""
    if isinstance(cfg, str):
        cfg = preset(cfg)
    return Model(np.random.default_rng(seed), cfg)


def save_checkpoint(model, path):
    write_tensors(path, {n: p.data for n, p in model.named_params()})


def load_checkpoint(model, path):
    """Load parameters in place; names and shapes must match the model's
    config. Every name and shape is checked before the first payload is
    read, and every payload stored in another dtype is cast, with its range
    checked, before the first parameter is written; so a container that is
    refused leaves the model unchanged."""
    params = model.param_dict()
    with Reader(path) as reader:
        reader.expect({n: p.shape for n, p in params.items()})
        reader.read_into({n: p.data for n, p in params.items()})
    return model
