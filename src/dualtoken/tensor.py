"""Dense tensors, primitive numeric ops, and a recording tape for
reverse-mode gradients.

Tensors wrap a contiguous numpy array (f32 or f64, channel-last for spatial
data). Ops are plain functions; while a GradTape is active and an input
carries `requires_grad`, each op appends a backward closure to the tape.
`backward()` replays the tape in reverse.

A module-level MAC counter (see `count_macs`) instruments matmul and conv2d
so analytic cost models can be checked against an executed forward pass.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf, expit

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
# below this many elements one scipy.special.erf call beats ~25 numpy calls
_RATIONAL_ERF_MIN_SIZE = 4096
# for |x| >= 40, Phi(x) is exactly 0 or 1 and the normal pdf exactly 0, in
# float32 and float64 alike; GELU clamps x there so that +-inf * 0 never
# happens and gelu(-inf) is 0
_GELU_TAIL = 40.0
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense n-d array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad=False):
        # fast path: ops hand over fresh C-contiguous float arrays (a 0-d
        # array still goes the long way, where it becomes shape (1,))
        if (dtype is None and type(data) is np.ndarray and data.ndim
                and data.dtype in _FLOATS and data.flags.c_contiguous):
            self.data = data
        else:
            arr = np.asarray(data, dtype=dtype)
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


def as_tensor(x, dtype=None):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE = None


class GradTape:
    """Ordered record of executed ops; replayed in reverse by backward()."""

    def __init__(self):
        self._records = []

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
    """Populate .grad of every participating tensor with d(loss)/d(tensor)."""
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not participate in gradient computation")
    loss.grad = np.ones_like(loss.data)
    for out, fn in reversed(tape._records):
        if out.grad is not None:
            fn(out.grad)


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _accum(t, g):
    g = _unbroadcast(np.asarray(g, dtype=t.data.dtype), t.data.shape)
    if t.grad is None:
        # an owned, writable copy: g may be a read-only broadcast view or the
        # very array another input receives
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
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    if _trace(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g)
        _emit(out, bwd)
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)
    if _trace(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, -g)
        _emit(out, bwd)
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)
    if _trace(a, b):
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g * b.data)
            if b.requires_grad:
                _accum(b, g * a.data)
        _emit(out, bwd)
    return out


def scale(a, s):
    a = as_tensor(a)
    s = float(s)
    out = Tensor(a.data * s)
    if _trace(a):
        def bwd(g, a=a, s=s):
            _accum(a, g * s)
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
    q = z2 * _ERF_DEN[0]
    for c in _ERF_DEN[1:-1]:
        q += c
        q *= z2
    q += _ERF_DEN[-1]
    p /= q
    p += 1.0
    p *= 0.5
    return p


def gelu(x):
    """GELU, x * Phi(x), with Phi the normal CDF written through erf.

    A float32 input of at least 4,096 elements takes the vectorised rational
    erf of `_phi_rational_f32`: its GELU stays within 2e-6 * max(1, |x|) of
    the exact one (at most 1.4e-6 absolute for |x| <= 12, measured). Every
    other input, every float64 one and a smaller float32 one, takes
    `scipy.special.erf`, which is exact to the dtype; for a small array it
    is also the cheaper call. The backward uses the saved Phi and the exact
    normal pdf either way. x is clamped at -40 (and at +40 for the pdf), where
    the tails are exactly 0 or 1, so gelu(-inf) is 0 with gradient 0, and
    gelu(inf) is inf with gradient 1."""
    x = as_tensor(x)
    if x.data.dtype == np.float32 and x.data.size >= _RATIONAL_ERF_MIN_SIZE:
        phi = _phi_rational_f32(x.data)
    else:
        phi = 0.5 * (1.0 + erf(x.data / _SQRT2))
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
            _accum(x, d)
        _emit(out, bwd)
    return out


def sigmoid(x):
    x = as_tensor(x)
    s = expit(x.data)
    out = Tensor(s)
    if _trace(x):
        def bwd(g, x=x, s=s):
            _accum(x, g * s * (1.0 - s))
        _emit(out, bwd)
    return out


# ---------------------------------------------------------------------------
# linear algebra and convolution
# ---------------------------------------------------------------------------

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
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
                _accum(a, g @ b.data.T)
            if b.requires_grad:
                _accum(b, a.data.T @ g)
        _emit(out, bwd)
    return out


def conv2d(x, w, bias=None, stride=1, padding=0, groups=1):
    """Cross-correlation on an H x W x Cin map with kh x kw x Cin/g x Cout weights."""
    x, w = as_tensor(x), as_tensor(w)
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
    xp = np.pad(x.data, ((ph, ph), (pw, pw), (0, 0))) if (ph or pw) else x.data
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (wdt + 2 * pw - kw) // stride + 1
    _count(ho * wo * kh * kw * cig * cout)
    y = kernels.conv_forward(xp, w.data, stride, groups)
    if bias is not None:
        bias = as_tensor(bias)
        y = y + bias.data
    out = Tensor(y)
    if _trace(x, w) or (bias is not None and _trace(bias)):
        def bwd(g, x=x, w=w, bias=bias, xp=xp, ph=ph, pw=pw, stride=stride, groups=groups):
            g = np.ascontiguousarray(g)
            dxp, dw = kernels.conv_backward(xp, w.data, g, stride, groups)
            if x.requires_grad:
                h, wdt = x.shape[:2]
                _accum(x, dxp[ph:ph + h, pw:pw + wdt, :])
            if w.requires_grad:
                _accum(w, dw)
            if bias is not None and bias.requires_grad:
                _accum(bias, g.sum(axis=(0, 1)))
        _emit(out, bwd)
    return out


def avgpool2d(x, k=2, stride=None):
    x = as_tensor(x)
    if stride is not None and stride != k:
        raise ValueError("avgpool2d only supports stride == kernel")
    h, w, c = x.shape
    if h % k or w % k:
        raise ValueError(f"avgpool2d: spatial extents {h}x{w} not divisible by {k}")
    y = x.data.reshape(h // k, k, w // k, k, c).mean(axis=(1, 3))
    out = Tensor(y)
    if _trace(x):
        def bwd(g, x=x, k=k):
            gx = np.repeat(np.repeat(g, k, axis=0), k, axis=1) / (k * k)
            _accum(x, gx)
        _emit(out, bwd)
    return out


def layernorm(x, gamma, beta, eps=1e-6):
    """Normalize over the last (channel) axis with a learned affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    c = x.shape[-1]
    if c < 1:
        raise ValueError("layernorm needs at least one channel")
    inv_c = 1.0 / c
    mu = x.data.sum(axis=-1, keepdims=True) * inv_c
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) * inv_c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gamma.data + beta.data)
    if _trace(x, gamma, beta):
        def bwd(g, x=x, gamma=gamma, beta=beta, xhat=xhat, inv=inv, c=c, inv_c=inv_c):
            if gamma.requires_grad:
                _accum(gamma, (g * xhat).reshape(-1, c).sum(axis=0))
            if beta.requires_grad:
                _accum(beta, g.reshape(-1, c).sum(axis=0))
            if x.requires_grad:
                gx = g * gamma.data
                m1 = gx.sum(axis=-1, keepdims=True) * inv_c
                m2 = (gx * xhat).sum(axis=-1, keepdims=True) * inv_c
                _accum(x, (gx - m1 - xhat * m2) * inv)
        _emit(out, bwd)
    return out


def softmax(x):
    """Row softmax over the last axis, with max-subtraction."""
    x = as_tensor(x)
    if not np.isfinite(x.data).all():
        raise FloatingPointError("softmax received non-finite input")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)
    if _trace(x):
        def bwd(g, x=x, s=s):
            dot = (g * s).sum(axis=-1, keepdims=True)
            _accum(x, s * (g - dot))
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
    x = as_tensor(x)
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
            _accum(x, dx)
        _emit(out, bwd)
    return out


# ---------------------------------------------------------------------------
# shape ops and reductions
# ---------------------------------------------------------------------------

def reshape(x, shape):
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    if _trace(x):
        def bwd(g, x=x):
            _accum(x, g.reshape(x.data.shape))
        _emit(out, bwd)
    return out


def transpose(x, axes=None):
    x = as_tensor(x)
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))
    if _trace(x):
        def bwd(g, x=x, axes=axes):
            inv = None if axes is None else np.argsort(axes)
            _accum(x, g.transpose(inv))
        _emit(out, bwd)
    return out


def concat(xs, axis=0):
    xs = [as_tensor(x) for x in xs]
    out = Tensor(np.concatenate([x.data for x in xs], axis=axis))
    if _ACTIVE_TAPE is not None and any(x.requires_grad for x in xs):
        sizes = [x.shape[axis] for x in xs]
        def bwd(g, xs=xs, sizes=sizes, axis=axis):
            offs = np.cumsum([0] + sizes)
            for x, a, b in zip(xs, offs[:-1], offs[1:]):
                if x.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(a, b)
                    _accum(x, g[tuple(idx)])
        _emit(out, bwd)
    return out


def slice_axis(x, axis, start, stop):
    x = as_tensor(x)
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


def sum(x, axis=None, keepdims=False):  # noqa: A001 - deliberate op name
    x = as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))
    if _trace(x):
        def bwd(g, x=x, axis=axis, keepdims=keepdims):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(x, np.broadcast_to(g, x.data.shape))
        _emit(out, bwd)
    return out


def mean(x, axis=None, keepdims=False):
    x = as_tensor(x)
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))
    if _trace(x):
        n = x.data.size if axis is None else x.data.shape[axis]
        def bwd(g, x=x, axis=axis, keepdims=keepdims, n=n):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(x, np.broadcast_to(g, x.data.shape) / n)
        _emit(out, bwd)
    return out
