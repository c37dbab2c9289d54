"""Dense tensors, primitive numeric ops, and a recording tape for
reverse-mode gradients.

Tensors wrap a contiguous numpy array (f32 or f64, channel-last for spatial
data). Ops are plain functions of `Tensor`s, which they do not convert; while
a GradTape is active and an input carries `requires_grad`, each op appends a
backward closure to the tape.
`backward()` replays the tape in reverse and consumes it: each record, with
the arrays its closure saved, is released as soon as it has run.

A module-level MAC counter (see `count_macs`) instruments matmul and conv2d
so analytic cost models can be checked against an executed forward pass.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from . import kernels

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Eigen's float erf (generic_fast_erf_float): numerator coefficients of
# z^13, z^11, ..., z^1 and denominator coefficients of z^8, z^6, ..., z^0
_ERF_NUM = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF_DEN = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)
# below this many elements the table lookup of `_phi_table_f32` beats the
# ~25 numpy calls of the rational erf
_RATIONAL_ERF_MIN_SIZE = 4096
# for |x| >= 40, Phi(x) is exactly 0 or 1 and the normal pdf exactly 0, in
# float32 and float64 alike; GELU clamps x there so that +-inf * 0 never
# happens and gelu(-inf) is 0
_GELU_TAIL = 40.0
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
_LN_EPS = 1e-6  # added to the variance under layernorm's square root


class Tensor:
    """A dense n-d array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        # fast path: ops hand over fresh C-contiguous float arrays (a 0-d
        # array still goes the long way, where it becomes shape (1,))
        if (type(data) is np.ndarray and data.ndim
                and data.dtype in _FLOATS and data.flags.c_contiguous):
            self.data = data
        else:
            arr = np.asarray(data)
            if arr.dtype not in _FLOATS:
                arr = arr.astype(np.float32)
            self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE = None


class GradTape:
    """Ordered record of executed ops; replayed in reverse by backward()."""

    def __init__(self):
        self._records = []
        self._consumed = False

    def __enter__(self):
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        return False

    def record(self, out, fn):
        self._records.append((out, fn))

    def __len__(self):
        return len(self._records)


def backward(tape, loss):
    """Populate .grad of every leaf tensor (one no op produced) that the loss
    depends on with d(loss)/d(tensor).

    The tape is consumed: each record is popped as it is replayed, and its
    output's .grad is dropped before its closure runs, so the saved arrays
    and the gradients of intermediate tensors die during the pass. Afterwards
    the tape is empty, and only leaves hold a .grad. A second call on the
    same tape raises ValueError."""
    if tape._consumed:
        raise ValueError("backward was already run on this tape")
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not participate in gradient computation")
    tape._consumed = True
    loss.grad = np.ones_like(loss.data)
    records = tape._records
    while records:
        out, fn = records.pop()
        g, out.grad = out.grad, None
        if g is not None:
            fn(g)


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _accum(t, g, owned):
    """Add the gradient g into t.grad.

    Every .grad is C-contiguous, writable and its tensor's alone: no other
    .grad and no array a closure saved shares its memory. So a closure owns
    the output gradient it receives, and may write to it. The first gradient
    a tensor receives is stored, not added, and g itself is stored only when
    the call site owns it (`owned`): a fresh, C-contiguous, writable array
    that it gives to no other input. Any other g is copied: a read-only
    broadcast view (the backward of `sum`), the one array that `add` gives
    both inputs, and slices and transposes of an output gradient. A g that
    is reduced to t's shape or cast to its dtype is a fresh array."""
    if g.shape != t.data.shape or g.dtype != t.data.dtype:
        reduced = _unbroadcast(g.astype(t.data.dtype, copy=False), t.data.shape)
        owned = owned or not np.may_share_memory(reduced, g)
        g = reduced
    if t.grad is None:
        if owned and g.flags.c_contiguous and g.flags.writeable:
            t.grad = g
        else:
            t.grad = np.array(g, order="C")
    else:
        t.grad += g


def _trace(*tensors):
    if _ACTIVE_TAPE is None:
        return False
    for t in tensors:
        if t.requires_grad:
            return True
    return False


def _emit(out, bwd):
    out.requires_grad = True
    _ACTIVE_TAPE.record(out, bwd)


# ---------------------------------------------------------------------------
# MAC counting
# ---------------------------------------------------------------------------

class MacCounter:
    def __init__(self):
        self.total = 0

    def add(self, n):
        self.total += int(n)


_MAC_COUNTER = None


@contextmanager
def count_macs():
    """Count multiply-accumulates of matmul/conv2d executed in the block."""
    global _MAC_COUNTER
    prev = _MAC_COUNTER
    counter = MacCounter()
    _MAC_COUNTER = counter
    try:
        yield counter
    finally:
        _MAC_COUNTER = prev


def _count(n):
    if _MAC_COUNTER is not None:
        _MAC_COUNTER.add(n)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b):
    out = Tensor(a.data + b.data)
    if _trace(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g, True)
            if b.requires_grad:
                # a may have kept g as its gradient
                _accum(b, g, not a.requires_grad)
        _emit(out, bwd)
    return out


def sub(a, b):
    out = Tensor(a.data - b.data)
    if _trace(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g, True)
            if b.requires_grad:
                _accum(b, -g, True)
        _emit(out, bwd)
    return out


def mul(a, b):
    out = Tensor(a.data * b.data)
    if _trace(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g * b.data, True)
            if b.requires_grad:
                _accum(b, g * a.data, True)
        _emit(out, bwd)
    return out


def scale(a, s):
    s = float(s)
    out = Tensor(a.data * s)
    if _trace(a):
        def bwd(g, a=a, s=s):
            _accum(a, g * s, True)
        _emit(out, bwd)
    return out


def _phi_rational_f32(x):
    """Phi(x) = (1 + erf(x / sqrt(2))) / 2 for a float32 array, with Eigen's
    float erf: the argument clamped to [-4, 4] (erf is +-1 in f32 beyond),
    then an odd degree-13 numerator over an even degree-8 denominator, both
    by Horner in place. NaN stays NaN."""
    z = x * _INV_SQRT2
    np.clip(z, -4.0, 4.0, out=z)
    z2 = z * z
    p = z2 * _ERF_NUM[0]
    for c in _ERF_NUM[1:-1]:
        p += c
        p *= z2
    p += _ERF_NUM[-1]
    p *= z
    q = np.multiply(z2, _ERF_DEN[0], out=z)
    for c in _ERF_DEN[1:-1]:
        q += c
        q *= z2
    q += _ERF_DEN[-1]
    p /= q
    p += 1.0
    p *= 0.5
    return p


def _phi_exact_f64(x):
    """Phi(x) for a float64 array through libm's erf, one Python call per
    element (math.erf is exact to about an ulp; NaN stays NaN, and erf(+-inf)
    is +-1)."""
    z = x / _SQRT2
    e = np.fromiter(map(math.erf, z.ravel().tolist()), np.float64, z.size)
    e += 1.0
    e *= 0.5
    return e.reshape(x.shape)


# Phi at every multiple of 1/512 in [-6, 6], with Phi(-6) (1e-9) set to 0
# so that gelu(-inf) is 0; as float32 bases and the slopes to the next entry
# (a last slope of 0 covers x >= 6, where Phi is 1 in float32)
_PHI_STEPS = 512
_PHI_MAX = 6.0
_PHI_END = int(2 * _PHI_MAX * _PHI_STEPS)
_phi_grid = _phi_exact_f64(np.arange(_PHI_END + 1) / _PHI_STEPS - _PHI_MAX)
_phi_grid[0] = 0.0
_PHI_BASE = _phi_grid.astype(np.float32)
_PHI_SLOPE = np.append(np.diff(_phi_grid), 0.0).astype(np.float32)
del _phi_grid


def _phi_table_f32(x):
    """Phi(x) for a float32 array, interpolated linearly in the 1/512 table
    `_PHI_BASE`/`_PHI_SLOPE`: about ten numpy calls, the cheapest vectorised
    form for a small array. x is clamped to [-6, 6] by fmax/fmin, which map
    NaN to an end of the table without a cast warning (gelu's product with
    x brings the NaN back); Phi(-inf) is 0 and Phi(inf) is 1."""
    t = x * float(_PHI_STEPS)
    t += _PHI_MAX * _PHI_STEPS
    np.fmax(t, 0.0, out=t)
    np.fmin(t, float(_PHI_END), out=t)
    i = t.astype(np.intp)
    t -= i
    p = _PHI_SLOPE[i]
    p *= t
    p += _PHI_BASE[i]
    return p


def gelu(x):
    """GELU, x * Phi(x), with Phi the normal CDF written through erf.

    Phi depends on the dtype and size of x:
    - float32, at least 4,096 elements: the vectorised rational erf of
      `_phi_rational_f32`;
    - float32, fewer elements: linear interpolation in a table of Phi at
      steps of 1/512 on [-6, 6] (`_phi_table_f32`), about ten numpy calls
      where the rational erf makes ~25;
    - float64 (every gradient check): `math.erf` per element, exact to about
      an ulp. One Python call per element makes that ~0.11 us an element,
      about 4x a vectorised erf: a 2^20-element float64 array takes ~0.12 s.
    Both float32 paths keep GELU within 2e-6 * max(1, |x|) of the exact one
    (measured: at most 1.4e-6 absolute for |x| <= 12 on the rational path,
    and 0.13 of the bound on the table).
    The backward uses the saved Phi and the exact normal pdf either way. x is
    clamped at -40 (and at +40 for the pdf), where the tails are exactly 0 or
    1, so gelu(-inf) is 0 with gradient 0, and gelu(inf) is inf with
    gradient 1; NaN stays NaN."""
    if x.data.dtype == np.float64:
        phi = _phi_exact_f64(x.data)
    elif x.data.size >= _RATIONAL_ERF_MIN_SIZE:
        phi = _phi_rational_f32(x.data)
    else:
        phi = _phi_table_f32(x.data)
    y = np.maximum(x.data, -_GELU_TAIL)
    y *= phi
    out = Tensor(y)
    if _trace(x):
        def bwd(g, x=x, phi=phi):
            # g * (phi + t * pdf(t)), in place in one buffer
            t = np.clip(x.data, -_GELU_TAIL, _GELU_TAIL)
            d = -0.5 * t
            d *= t
            np.exp(d, out=d)
            d *= _INV_SQRT_2PI
            d *= t
            d += phi
            d *= g
            _accum(x, d, True)
        _emit(out, bwd)
    return out


def sigmoid(x):
    """1 / (1 + exp(-x)), written as 1 / (1 + e) for x >= 0 and e / (1 + e)
    below, with e = exp(-|x|) <= 1: nothing overflows, both tails keep full
    relative accuracy, sigmoid(+-inf) is exactly 1 and 0, and NaN stays NaN."""
    e = np.abs(x.data)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.where(x.data >= 0, 1.0, e)
    e += 1.0
    s /= e
    out = Tensor(s)
    if _trace(x):
        def bwd(g, x=x, s=s):
            _accum(x, g * s * (1.0 - s), True)
        _emit(out, bwd)
    return out


# ---------------------------------------------------------------------------
# linear algebra and convolution
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    _count(m * k * n)
    out = Tensor(a.data @ b.data)
    if _trace(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g @ b.data.T, True)
            if b.requires_grad:
                _accum(b, a.data.T @ g, True)
        _emit(out, bwd)
    return out


def conv2d(x, w, bias, stride=1, padding=0, groups=1):
    """Cross-correlation on an H x W x Cin map with kh x kw x Cin/g x Cout
    weights plus a bias; a depthwise one (groups=cin=cout) is stride 1."""
    kh, kw, cig, cout = w.shape
    h, wdt, cin = x.shape
    if padding == "same":
        if stride != 1:
            raise ValueError("'same' padding requires stride 1")
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
    else:
        ph = pw = int(padding)
    if not (groups == 1 or groups == cin == cout):
        raise ValueError(
            f"conv2d is dense (groups=1) or depthwise (groups=cin=cout): "
            f"cin={cin} cout={cout} groups={groups}")
    if cig != cin // groups:
        raise ValueError(
            f"weight per-group cin={cig} does not match cin={cin} groups={groups}")
    if groups != 1 and stride != 1:
        raise ValueError(f"a depthwise conv2d is stride 1, got stride={stride}")
    if ph or pw:
        # a zero buffer and one slice assignment: np.pad costs ~10x more
        xp = np.zeros((h + 2 * ph, wdt + 2 * pw, cin), dtype=x.data.dtype)
        xp[ph:ph + h, pw:pw + wdt] = x.data
    else:
        xp = x.data
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (wdt + 2 * pw - kw) // stride + 1
    _count(ho * wo * kh * kw * cig * cout)
    y = kernels.conv_forward(xp, w.data, stride, groups)
    y += bias.data
    out = Tensor(y)
    if _trace(x, w, bias):
        def bwd(g, x=x, w=w, bias=bias, xp=xp, ph=ph, pw=pw, stride=stride, groups=groups):
            g = np.ascontiguousarray(g)
            # no input gradient for an input that takes none, such as an image
            dxp, dw = kernels.conv_backward(xp, w.data, g, x.requires_grad, stride, groups)
            if x.requires_grad:
                h, wdt = x.shape[:2]
                # a padded map's interior is a strided slice, and is copied
                _accum(x, dxp[ph:ph + h, pw:pw + wdt, :], True)
            if w.requires_grad:
                _accum(w, dw, True)
            if bias.requires_grad:
                _accum(bias, g.sum(axis=(0, 1)), True)
        _emit(out, bwd)
    return out


def avgpool2d(x, k=2):
    h, w, c = x.shape
    if h % k or w % k:
        raise ValueError(f"avgpool2d: spatial extents {h}x{w} not divisible by {k}")
    y = x.data.reshape(h // k, k, w // k, k, c).mean(axis=(1, 3))
    out = Tensor(y)
    if _trace(x):
        def bwd(g, x=x, k=k):
            gx = np.repeat(np.repeat(g, k, axis=0), k, axis=1) / (k * k)
            _accum(x, gx, True)
        _emit(out, bwd)
    return out


def layernorm(x, gamma, beta):
    """Normalize over the last (channel) axis with a learned affine."""
    c = x.shape[-1]
    if c < 1:
        raise ValueError("layernorm needs at least one channel")
    inv_c = 1.0 / c
    # two full-size buffers: xc, which becomes xhat in place, and y, which
    # holds xc * xc until the output overwrites it
    mu = x.data.sum(axis=-1, keepdims=True)
    mu *= inv_c
    xc = x.data - mu
    y = xc * xc
    inv = y.sum(axis=-1, keepdims=True)
    inv *= inv_c
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat = xc
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = Tensor(y)
    if _trace(x, gamma, beta):
        def bwd(g, x=x, gamma=gamma, beta=beta, xhat=xhat, inv=inv, c=c, inv_c=inv_c):
            if gamma.requires_grad:
                _accum(gamma, (g * xhat).reshape(-1, c).sum(axis=0), True)
            if beta.requires_grad:
                _accum(beta, g.reshape(-1, c).sum(axis=0), True)
            if x.requires_grad:
                # (g gamma - m1 - xhat m2) * inv, in g and one temporary
                gx = g
                gx *= gamma.data
                m1 = gx.sum(axis=-1, keepdims=True)
                m1 *= inv_c
                t = gx * xhat
                m2 = t.sum(axis=-1, keepdims=True)
                m2 *= inv_c
                gx -= m1
                np.multiply(xhat, m2, out=t)
                gx -= t
                gx *= inv
                _accum(x, gx, True)
        _emit(out, bwd)
    return out


def softmax(x):
    """Row softmax over the last axis, with max-subtraction."""
    if not np.isfinite(x.data).all():
        raise FloatingPointError("softmax received non-finite input")
    s = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = Tensor(s)
    if _trace(x):
        def bwd(g, x=x, s=s):
            # s * (g - dot), in g
            dot = (g * s).sum(axis=-1, keepdims=True)
            g -= dot
            g *= s
            _accum(x, g, True)
        _emit(out, bwd)
    return out


def _interp_indices(n_in, n_out, dtype):
    # align-corners-false source coordinates, clamped to the edge
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * n_in / n_out - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    f = (src - i0).astype(dtype)
    return i0, i1, f


def bilinear_resize(x, out_h, out_w):
    """Separable bilinear resampling; constant fields are preserved exactly
    (lerp form x0 + f*(x1-x0))."""
    if out_h < 1 or out_w < 1:
        raise ValueError("bilinear_resize output extents must be positive")
    h, w, c = x.shape
    r0, r1, rf = _interp_indices(h, out_h, x.dtype)
    c0, c1, cf = _interp_indices(w, out_w, x.dtype)
    rfc = rf[:, None, None]
    cfc = cf[None, :, None]
    tmp = x.data[r0] + rfc * (x.data[r1] - x.data[r0])
    y = tmp[:, c0] + cfc * (tmp[:, c1] - tmp[:, c0])
    out = Tensor(y)
    if _trace(x):
        def bwd(g, x=x, r0=r0, r1=r1, rfc=rfc, c0=c0, c1=c1, cfc=cfc, h=h, w=w):
            dtmp = np.zeros((len(r0), w, g.shape[2]), dtype=g.dtype)
            np.add.at(dtmp, (slice(None), c0), g * (1.0 - cfc))
            np.add.at(dtmp, (slice(None), c1), g * cfc)
            dx = np.zeros((h, w, g.shape[2]), dtype=g.dtype)
            np.add.at(dx, r0, dtmp * (1.0 - rfc))
            np.add.at(dx, r1, dtmp * rfc)
            _accum(x, dx, True)
        _emit(out, bwd)
    return out


# ---------------------------------------------------------------------------
# shape ops and reductions
# ---------------------------------------------------------------------------

def reshape(x, shape):
    out = Tensor(x.data.reshape(shape))
    if _trace(x):
        def bwd(g, x=x):
            _accum(x, g.reshape(x.data.shape), True)
        _emit(out, bwd)
    return out


def transpose(x, axes=None):
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))
    if _trace(x):
        def bwd(g, x=x, axes=axes):
            inv = None if axes is None else np.argsort(axes)
            _accum(x, g.transpose(inv), False)
        _emit(out, bwd)
    return out


def concat(xs, axis=0):
    out = Tensor(np.concatenate([x.data for x in xs], axis=axis))
    if _ACTIVE_TAPE is not None and any(x.requires_grad for x in xs):
        sizes = [x.shape[axis] for x in xs]
        def bwd(g, xs=xs, sizes=sizes, axis=axis):
            offs = np.cumsum([0] + sizes)
            for x, a, b in zip(xs, offs[:-1], offs[1:]):
                if x.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(a, b)
                    _accum(x, g[tuple(idx)], False)
        _emit(out, bwd)
    return out


def slice_axis(x, axis, start, stop):
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(np.ascontiguousarray(x.data[idx]))
    if _trace(x):
        def bwd(g, x=x, idx=idx):
            # add into the slice: several slices of one tensor share a buffer
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[idx] += g
        _emit(out, bwd)
    return out


def sum(x):  # noqa: A001 - deliberate op name
    """The sum of every element of x."""
    out = Tensor(x.data.sum())
    if _trace(x):
        def bwd(g, x=x):
            _accum(x, np.broadcast_to(g, x.data.shape), False)
        _emit(out, bwd)
    return out


def mean(x, axis=None):
    """The mean over `axis`, which is kept with size 1, or over every
    element when `axis` is None."""
    out = Tensor(x.data.mean(axis=axis, keepdims=axis is not None))
    if _trace(x):
        n = x.data.size if axis is None else x.data.shape[axis]
        def bwd(g, x=x, n=n):
            _accum(x, np.broadcast_to(g, x.data.shape) / n, True)
        _emit(out, bwd)
    return out
