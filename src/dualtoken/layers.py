"""Parameterized layers: linear projections, multi-head attention, and
parameter initialization.

Each layer draws its own parameters from the generator its constructor is
given, in a fixed order, so one seed always yields the same weights."""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor


# float64 draws per trunc_normal chunk: 512 KB of scratch, whatever the shape
_INIT_CHUNK = 65536
_INIT_STD = 0.02  # standard deviation of the trunc_normal draws


def init_params(rng, shape, scheme="trunc_normal"):
    """Parameter initialization drawn from the generator `rng`.

    trunc_normal samples N(0, 0.02^2) clipped to +-0.04; zeros/ones are what
    they say and draw nothing. The same rng state always yields bit-identical
    data. The normal draws are made in float64 chunks of `_INIT_CHUNK`, each
    clipped in place and written into the float32 result: the generator
    yields the same values, and ends in the same state, as one draw of the
    whole shape would.
    """
    if scheme == "zeros":
        data = np.zeros(shape, dtype=np.float32)
    elif scheme == "ones":
        data = np.ones(shape, dtype=np.float32)
    elif scheme == "trunc_normal":
        data = np.empty(shape, dtype=np.float32)
        flat = data.reshape(-1)
        for i in range(0, flat.size, _INIT_CHUNK):
            chunk = rng.normal(0.0, _INIT_STD, size=min(_INIT_CHUNK, flat.size - i))
            np.clip(chunk, -2.0 * _INIT_STD, 2.0 * _INIT_STD, out=chunk)
            flat[i:i + chunk.size] = chunk
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    return Tensor(data, requires_grad=True)


class Linear:
    """x @ W + b with W of shape Cin x Cout."""

    def __init__(self, rng, cin, cout, bias=True):
        self.weight = init_params(rng, (cin, cout), "trunc_normal")
        self.bias = init_params(rng, (cout,), "zeros") if bias else None

    @property
    def cin(self):
        return self.weight.shape[0]

    @property
    def cout(self):
        return self.weight.shape[1]

    def __call__(self, x):
        if x.shape[-1] != self.cin:
            raise ValueError(f"linear expects {self.cin} input channels, got {x.shape}")
        y = T.matmul(x, self.weight)
        if self.bias is not None:
            y = T.add(y, self.bias)
        return y

    def named_params(self):
        yield "weight", self.weight
        if self.bias is not None:
            yield "bias", self.bias


class LayerNorm:
    def __init__(self, rng, channels):
        self.gamma = init_params(rng, (channels,), "ones")
        self.beta = init_params(rng, (channels,), "zeros")

    def __call__(self, x):
        return T.layernorm(x, self.gamma, self.beta)

    def named_params(self):
        yield "gamma", self.gamma
        yield "beta", self.beta


class MultiHeadAttention:
    """Scaled dot-product attention with separate Q/K/V/out projections."""

    def __init__(self, rng, channels, heads):
        if channels % heads != 0:
            raise ValueError(f"channels {channels} not divisible by heads {heads}")
        self.heads = heads
        self.head_dim = channels // heads
        self.q_proj = Linear(rng, channels, channels)
        self.k_proj = Linear(rng, channels, channels)
        self.v_proj = Linear(rng, channels, channels)
        self.out_proj = Linear(rng, channels, channels)

    def __call__(self, q_src, kv_src=None, need_weights=False):
        if kv_src is None:
            kv_src = q_src
        d = self.head_dim
        # scale Q and transpose K once; each head slices its rows/columns
        q = T.scale(self.q_proj(q_src), 1.0 / math.sqrt(d))
        kt = T.transpose(self.k_proj(kv_src))
        v = self.v_proj(kv_src)
        outs = []
        weights = []
        for h in range(self.heads):
            qh = T.slice_axis(q, 1, h * d, (h + 1) * d)
            kth = T.slice_axis(kt, 0, h * d, (h + 1) * d)
            vh = T.slice_axis(v, 1, h * d, (h + 1) * d)
            attn = T.softmax(T.matmul(qh, kth))
            outs.append(T.matmul(attn, vh))
            if need_weights:
                weights.append(attn.data)
        out = self.out_proj(T.concat(outs, axis=1))
        if need_weights:
            return out, np.mean(weights, axis=0)
        return out

    def named_params(self):
        for name, sub in (("q_proj", self.q_proj), ("k_proj", self.k_proj),
                          ("v_proj", self.v_proj), ("out_proj", self.out_proj)):
            for n, p in sub.named_params():
                yield f"{name}.{n}", p


def prefixed(prefix, items):
    for name, p in items:
        yield f"{prefix}.{name}", p
