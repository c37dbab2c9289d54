"""Parameterized layers: linear projections, convolutions, layer norm,
multi-head attention, and parameter initialization.

Each layer draws its own parameters from the generator its constructor is
given, in a fixed order, so one seed always yields the same weights."""

from __future__ import annotations

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


class Layer:
    """A layer whose parameters are its attributes, listed by `named_params`
    in the order its constructor set them: a `Tensor` under its own name, a
    `Layer` under its name as a prefix, and item i of a list of layers under
    its name and i ("conv0"). Every other attribute (a size, a kind, None,
    the config) holds no parameter."""

    def named_params(self):
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                yield name, value
            elif isinstance(value, Layer):
                yield from prefixed(name, value.named_params())
            elif isinstance(value, list):
                for i, layer in enumerate(value):
                    yield from prefixed(f"{name}{i}", layer.named_params())


class Linear(Layer):
    """x @ W + b with W of shape Cin x Cout, over the last axis of x."""

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
        return T.linear(x, self.weight, self.bias)


class Conv2d(Layer):
    """Cross-correlation of an H x W x Cin map with kernel x kernel x
    Cin/groups x Cout weights, plus a bias. `padding` is a width or
    "same"; `groups` is 1 (dense) or Cin = Cout (depthwise)."""

    def __init__(self, rng, kernel, cin, cout, stride, padding, groups):
        self.weight = init_params(rng, (kernel, kernel, cin // groups, cout), "trunc_normal")
        self.bias = init_params(rng, (cout,), "zeros")
        self.stride, self.padding, self.groups = stride, padding, groups

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, groups=self.groups)


class LayerNorm(Layer):
    def __init__(self, rng, channels):
        self.gamma = init_params(rng, (channels,), "ones")
        self.beta = init_params(rng, (channels,), "zeros")

    def __call__(self, x):
        return T.layernorm(x, self.gamma, self.beta)


class MultiHeadAttention(Layer):
    """Scaled dot-product attention with separate Q/K/V/out projections, on
    T x C tokens or on a stack of them (see `tensor.attention`); with
    `need_weights`, also the heads' maps averaged (... x Tq x Tk)."""

    def __init__(self, rng, channels, heads):
        if channels % heads != 0:
            raise ValueError(f"channels {channels} not divisible by heads {heads}")
        self.heads = heads
        self.q_proj = Linear(rng, channels, channels)
        self.k_proj = Linear(rng, channels, channels)
        self.v_proj = Linear(rng, channels, channels)
        self.out_proj = Linear(rng, channels, channels)

    def __call__(self, q_src, kv_src=None, need_weights=False):
        if kv_src is None:
            kv_src = q_src
        y, maps = T.attention(self.q_proj(q_src), self.k_proj(kv_src),
                              self.v_proj(kv_src), self.heads)
        out = self.out_proj(y)
        if need_weights:
            # a sum over an outer axis adds the heads in order: np.mean's bits
            avg = np.add.reduce(maps, axis=-3)
            avg /= self.heads
            return out, avg
        return out


def prefixed(prefix, items):
    for name, p in items:
        yield f"{prefix}.{name}", p
