"""Dense tensors, primitive numeric ops, and a recording tape for
reverse-mode gradients.

Tensors wrap a contiguous numpy array (f32 or f64, channel-last for spatial
data). Ops are plain functions of `Tensor`s, which they do not convert; while
a GradTape is active and an input carries `requires_grad`, each op appends a
backward closure to the tape.
A record keeps no op output: the output's gradient lives in a `_Slot`
(shape, dtype and `.grad`, no data), and the closure keeps the slots of the
inputs that ops produced, the leaf inputs themselves, and only the arrays
its backward reads, such as the other operand of a product. So an
activation that no backward reads dies with its tensor.
`backward()` replays the tape in reverse and consumes it: each record, with
the arrays its closure saved, is released as soon as it has run. The tape
also notes the record of each leaf's first use, so that `backward` can tell
a caller the moment a leaf's gradient is complete (`on_leaf_done`).
Two ops stand for a chain of others: `linear` (a product, then a bias
add) and `attention` (multi-head attention). Each runs its chain through
`matmul` (and `softmax`) on untaped tensors and records a single closure
that replays the chain's backward, bit for bit. `sub` is no op of its
own: it records a `scale` by -1 and an `add`.

Ops take a leading batch axis where the model has one: any axes before a
token matrix's last two, or before a map's H x W x C, stack samples. A
product takes the samples' rows as the rows of one 2-d `matmul`, and so
does a dense convolution's forward, over every map's receptive fields; its
backward takes each product once over every map. A depthwise convolution
calls each of its kernels once, on the maps side by side on the channel
axis. Attention's forward takes its products once per sample and head,
with one softmax over them all; its backward takes each product once over
every sample and head. What reduces over tokens or pixels does so per
sample.

A module-level MAC counter (see `count_macs`) instruments matmul, which
counts every product of the forward (those of `linear`, `attention` and a
dense conv2d among them), and a depthwise conv2d, so analytic cost models
can be checked against an executed forward pass.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager

import numpy as np

from . import kernels

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# P of `_phi_tanh_f32`, coefficients of z^12, z^10, ..., z^0, and the clamp
# R; tanh(R * P(R^2)) is exactly 1 in float32 (R * P(R^2) = 12.1, and numpy's
# SIMD tanh returns 1 from 10 on)
_PHI_TANH_P = (1.8466618284307259e-09, -1.3573044272117547e-07,
               4.012601079049741e-06, -5.560395215728516e-05,
               -3.174147285991323e-05, 0.036332064851374773,
               0.7978853075682942)
_PHI_TANH_CLAMP = 6.0
# below this many elements the table lookup of `_phi_table_f32` beats the
# ~18 numpy calls of the tanh form
_PHI_TANH_MIN_SIZE = 4096
# for |x| >= 40, Phi(x) is exactly 0 or 1 and the normal pdf exactly 0, in
# float32 and float64 alike; GELU clamps x there so that +-inf * 0 never
# happens and gelu(-inf) is 0
_GELU_TAIL = 40.0
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
_LN_EPS = 1e-6  # added to the variance under layernorm's square root


class Tensor:
    """A dense n-d array with an optional gradient buffer. The gradient of a
    tensor that an op recorded on a tape lives in its slot (see `_Slot`),
    and its .grad stays None. `Tensor(data)` refuses complex data, casts
    float32 and float64 data of the other byte order to the native dtype of
    the same width and any other real data to float32, and keeps a
    C-contiguous array of at least one dim, the same object if it is one
    already."""

    __slots__ = ("data", "grad", "requires_grad", "_slot")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind == "c":
            raise ValueError(f"Tensor data must be real, got {arr.dtype}")
        if arr.dtype not in _FLOATS:
            native = arr.dtype.newbyteorder("=")
            arr = arr.astype(native if native in _FLOATS else np.float32)
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = requires_grad
        self._slot = None

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


def _result(data):
    """The Tensor of an op's output, without the checks and conversions of
    `Tensor(...)`: `data` must be a C-contiguous float32 or float64 array
    with ndim >= 1 that the op made (`reshape` and `slice_axis` may hand
    over a view of their input's data). A 0-d result (`sum`, `mean` over
    every element, `cross_entropy`) and any data from outside an op go
    through `Tensor(...)`."""
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._slot = None
    return out


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE = None


class GradTape:
    """Ordered record of executed ops; replayed in reverse by backward()."""

    def __init__(self):
        self._records = []
        self._first_use = {}    # leaf that takes gradients -> its first record
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
        """Append `fn`, the backward closure of the op whose output's
        gradient `out` holds (a `_Slot`)."""
        self._records.append((out, fn))

    def __len__(self):
        return len(self._records)


def backward(tape, loss, on_leaf_done=None):
    """Populate .grad of every leaf tensor (one no op produced) that the loss
    depends on with d(loss)/d(tensor).

    Closures write the gradients of intermediate tensors into their slots.
    The tape is consumed: each record is popped as it is replayed, and its
    slot's .grad is dropped before its closure runs, so the saved arrays and
    the gradients of intermediate tensors die during the pass. Afterwards
    the tape is empty, and only leaves hold a .grad. A second call on the
    same tape raises ValueError.

    `on_leaf_done(leaf)` is called once for every leaf that takes gradients
    on the tape, right after the record of its first use has replayed (and
    whether or not its records received a gradient): from then on no record
    adds to its .grad, and none reads its .data. So leaves are handed over in
    reverse order of first use, those of one record in the order the op took
    them, and the hook may update a leaf in place or drop its .grad."""
    if tape._consumed:
        raise ValueError("backward was already run on this tape")
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not participate in gradient computation")
    tape._consumed = True
    # record index -> the leaves first used there
    done = {}
    if on_leaf_done is not None:
        for leaf, i in tape._first_use.items():
            done.setdefault(i, []).append(leaf)
    tape._first_use = {}
    (loss if loss._slot is None else loss._slot).grad = np.ones_like(loss.data)
    records = tape._records
    while records:
        slot, fn = records.pop()
        g, slot.grad = slot.grad, None
        if g is not None:
            fn(g)
        if done and len(records) in done:
            for leaf in done.pop(len(records)):
                on_leaf_done(leaf)


def _unbroadcast(g, shape):
    """g summed over the axes that broadcasting added or stretched to give
    `shape`; a g that does not broadcast from `shape` raises ValueError."""
    if g.shape == shape:
        return g
    g_shape = g.shape
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for ax, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = np.add.reduce(g, axis=ax, keepdims=True)
    if g.shape != shape:
        raise ValueError(f"a gradient of shape {g_shape} does not reduce to "
                         f"the shape {shape} of its tensor")
    return g


def _accum(t, g, owned):
    """Add the gradient g into t.grad, where t is what a closure keeps of an
    input (`_slot`): a leaf tensor or the slot of an op's output. Shape and
    dtype are read from t when the gradient arrives, so a leaf whose .data
    was replaced gets gradients of its new dtype.

    Every .grad is C-contiguous, writable and its tensor's alone: no other
    .grad and no array a closure saved shares its memory. So a closure owns
    the output gradient it receives, and may write to it. The first gradient
    a tensor receives is stored, not added, and g itself is stored only when
    the call site owns it (`owned`): a fresh, C-contiguous, writable array
    that it gives to no other input. Any other g is copied: a read-only
    broadcast view (the backward of `sum`), the one array that `add` gives
    both inputs, and slices and transposes of an output gradient. A g that
    is reduced to t's shape or cast to its dtype is a fresh array."""
    dtype = t.dtype
    if g.shape != t.shape or g.dtype != dtype:
        reduced = _unbroadcast(g if g.dtype == dtype else g.astype(dtype), t.shape)
        owned = owned or not np.may_share_memory(reduced, g)
        g = reduced
    if t.grad is None:
        if owned:
            flags = g.flags
            if flags.c_contiguous and flags.writeable:
                t.grad = g
                return
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


class _Slot:
    """The gradient of an op's output on a tape: its shape and dtype and the
    .grad that backward closures accumulate, but not its data."""

    __slots__ = ("shape", "dtype", "grad")
    requires_grad = True

    def __init__(self, shape, dtype):
        self.shape = shape
        self.dtype = dtype
        self.grad = None


def _slot(t):
    """What a closure keeps of an input: the slot of an op's output, or a
    leaf itself (its data outlives the tape anyway).

    Every op takes its inputs here just before it records, so a leaf that
    takes gradients is noted with the index of the record about to be
    appended, if it has none yet: its first use, where `backward` finishes
    its gradient. The inputs that ops produced cost nothing more."""
    s = t._slot
    if s is not None:
        return s
    if t.requires_grad:
        tape = _ACTIVE_TAPE
        tape._first_use.setdefault(t, len(tape._records))
    return t


def _emit(out, bwd):
    data = out.data
    out.requires_grad = True
    out._slot = slot = _Slot(data.shape, data.dtype)
    _ACTIVE_TAPE.record(slot, bwd)


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
    """Count multiply-accumulates of the matmuls (a dense conv2d's among
    them) and depthwise conv2ds executed in the block."""
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
    out = _result(a.data + b.data)
    if _trace(a, b):
        def bwd(g, a=_slot(a), b=_slot(b)):
            if a.requires_grad:
                _accum(a, g, True)
            if b.requires_grad:
                # a may have kept g as its gradient
                _accum(b, g, not a.requires_grad)
        _emit(out, bwd)
    return out


def sub(a, b):
    """a - b, and its gradients, bit for bit: in IEEE arithmetic a + (-b)
    is a - b, and g * -1 is -g."""
    return add(a, scale(b, -1.0))


def mul(a, b):
    out = _result(a.data * b.data)
    if _trace(a, b):
        # each input's gradient reads the other operand
        def bwd(g, a=_slot(a), b=_slot(b), ad=a.data, bd=b.data):
            if a.requires_grad:
                _accum(a, g * bd, True)
            if b.requires_grad:
                _accum(b, g * ad, True)
        _emit(out, bwd)
    return out


def scale(a, s):
    s = float(s)
    out = _result(a.data * s)
    if _trace(a):
        def bwd(g, a=_slot(a), s=s):
            _accum(a, g * s, True)
        _emit(out, bwd)
    return out


def _phi_tanh_f32(x):
    """Phi(x) for a float32 array as (1 + tanh(x * P(z^2))) / 2, with z = x
    clamped to [-R, R] and P by Horner in place: about 18 numpy calls, one of
    them numpy's SIMD tanh. Multiplying by x rather than z saves a third
    array: beyond the clamp |x * P(R^2)| exceeds R * P(R^2), so tanh is +-1
    as at the clamp, and the product overflows to +-inf only past 1.68e38,
    where tanh is +-1 too. Phi(+-inf) is exactly 1 and 0, and NaN stays NaN.
    Returns Phi and the array that held z^2, for the caller's output."""
    s = np.clip(x, -_PHI_TANH_CLAMP, _PHI_TANH_CLAMP)
    s *= s
    p = s * _PHI_TANH_P[0]
    for c in _PHI_TANH_P[1:-1]:
        p += c
        p *= s
    p += _PHI_TANH_P[-1]
    with np.errstate(over="ignore"):
        p *= x
    np.tanh(p, out=p)
    p += 1.0
    p *= 0.5
    return p, s


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
    """GELU, x * Phi(x), with Phi the normal CDF.

    Phi depends on the dtype and size of x:
    - float32, at least 4,096 elements: (1 + tanh(x * P(z^2))) / 2 with z = x
      clamped to [-6, 6] (`_phi_tanh_f32`), since tanh(atanh(erf(x / sqrt 2)))
      is 2 Phi - 1. P has degree 6 in z^2 and was fitted offline to
      atanh(erf(z / sqrt 2)) / z on (0, 6] by iteratively reweighted least
      squares (Lawson's minimax), weighted so that it minimises the largest
      GELU error relative to max(1, |x|). Its two lowest coefficients are
      close to Hendrycks & Gimpel's sqrt(2 / pi) and 0.044715 sqrt(2 / pi).
      From the clamp on, tanh is exactly +-1 in float32, so Phi is 0 or 1.
      numpy's SIMD float32 tanh makes this the cheapest form on large arrays;
    - float32, fewer elements: linear interpolation in a table of Phi at
      steps of 1/512 on [-6, 6] (`_phi_table_f32`), about ten numpy calls
      where the tanh form makes ~18;
    - float64 (every gradient check): `math.erf` per element, exact to about
      an ulp. One Python call per element makes that ~0.11 us an element,
      about 4x a vectorised erf: a 2^20-element float64 array takes ~0.12 s.
    Both float32 paths keep GELU within 2e-6 * max(1, |x|) of the exact one
    (measured at 2^21 points on [-12, 12] and on [-40, 40]: at most 0.062 of
    the bound on the tanh path with numpy's default tanh kernel, 0.072 with
    its baseline (X86_V2) kernel, and 0.13 on the table).
    The derivative is Phi plus t times the exact normal pdf of t, x clamped
    to [-40, 40]; a recording forward computes it, and its record keeps
    that one array rather than x and Phi, for the backward to multiply into
    g. The tails are exactly 0 or 1 beyond the clamp, so gelu(-inf) is 0
    with gradient 0, and gelu(inf) is inf with gradient 1; NaN stays NaN."""
    spare = None
    if x.data.dtype == np.float64:
        phi = _phi_exact_f64(x.data)
    elif x.data.size >= _PHI_TANH_MIN_SIZE:
        phi, spare = _phi_tanh_f32(x.data)
    else:
        phi = _phi_table_f32(x.data)
    y = np.maximum(x.data, -_GELU_TAIL, out=spare)
    y *= phi
    out = _result(y)
    if _trace(x):
        # phi + t * pdf(t), in phi
        t = np.clip(x.data, -_GELU_TAIL, _GELU_TAIL)
        d = -0.5 * t
        d *= t
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= t
        phi += d
        def bwd(g, x=_slot(x), dy=phi):
            dy *= g
            _accum(x, dy, True)
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
    out = _result(s)
    if _trace(x):
        def bwd(g, x=_slot(x), s=s):
            _accum(x, g * s * (1.0 - s), True)
        _emit(out, bwd)
    return out


# ---------------------------------------------------------------------------
# linear algebra and convolution
# ---------------------------------------------------------------------------

def matmul(a, b):
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {ad.shape} and {bd.shape}")
    m, k = ad.shape
    if k != bd.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {ad.shape} vs {bd.shape}")
    n = bd.shape[1]
    _count(m * k * n)
    # every 2-d product goes through np.dot: the bits of `@` without the
    # matmul ufunc's dispatch (a tier-1 test checks each shape the model
    # multiplies)
    out = _result(np.dot(ad, bd))
    if _trace(a, b):
        # each input's gradient reads the other operand
        def bwd(g, a=_slot(a), b=_slot(b), ad=ad, bd=bd):
            if a.requires_grad:
                _accum(a, np.dot(g, bd.T), True)
            if b.requires_grad:
                _accum(b, np.dot(ad.T, g), True)
        _emit(out, bwd)
    return out


def linear(x, w, b=None):
    """x @ w + b over the last axis of x, with w of shape Cin x Cout and an
    optional bias b of Cout. Every row of x, whatever its leading axes, is a
    row of one 2-d `matmul` (on untaped tensors, so it is counted as one
    product); the bias is added in place. The op records one closure, which
    replays the chain matmul-then-add backwards: the bias's gradient first,
    then the input's and the weight's."""
    xd, wd = x.data, w.data
    cin, cout = wd.shape
    if xd.shape[-1] != cin:
        raise ValueError(f"linear expects {cin} input channels, got {xd.shape}")
    rows = xd.reshape(-1, cin)
    y = matmul(_result(rows), _result(wd)).data
    if b is not None:
        y += b.data
    out = _result(y.reshape(xd.shape[:-1] + (cout,)))
    if _trace(x, w) or (b is not None and _trace(b)):
        def bwd(g, x=_slot(x), w=_slot(w), b=None if b is None else _slot(b),
                rows=rows, wd=wd):
            g = g.reshape(-1, g.shape[-1])
            if b is not None and b.requires_grad:
                _accum(b, g, False)
            if x.requires_grad:
                _accum(x, np.dot(g, wd.T).reshape(x.shape), True)
            if w.requires_grad:
                _accum(w, np.dot(rows.T, g), True)
        _emit(out, bwd)
    return out


def _im2col(xp, kh, kw, stride):
    """The receptive fields of each map of an n x Hp x Wp x C stack as the
    rows of an n x (Ho*Wo) x (kh*kw*C) array, columns in the weights' (kh,
    kw, C) order: one copy through a strided view of the C-contiguous xp
    (made with the ndarray constructor, as the kernels' are). A 1 x 1
    stride-1 conv's is xp itself, reshaped without a copy."""
    n, hp, wp, c = xp.shape
    if kh == kw == stride == 1:
        return xp.reshape(n, hp * wp, c)
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    sn, sh, sw, sc = xp.strides
    win = np.ndarray((n, ho, wo, kh, kw, c), xp.dtype, xp, 0,
                     (sn, sh * stride, sw * stride, sh, sw, sc))
    return win.reshape(n, ho * wo, kh * kw * c)


def _dense_conv_backward(xp, wd, g, need_dx, stride):
    """(dxp, dw) of the dense correlation of the n x Hp x Wp x Cin stack xp
    with kh x kw x Cin x Cout weights wd, given the n x Ho x Wo x Cout
    gradient g; dxp is None unless `need_dx`.

    Each product runs per map, as one `np.matmul` over the maps' blocks,
    which gives each block the bits of `np.dot` on it: dW = cols^T g, whose
    blocks `np.add.reduce` then sums in map order (its inner loop runs over
    dW's elements; one map's block is its dW), and dcols = g W^T. One
    strided add per tap takes dcols into dxp for the whole stack."""
    n, ho, wo, cout = g.shape
    kh, kw, cin = wd.shape[:3]
    g = g.reshape(n, ho * wo, cout)
    # the columns die before dcols is made, which can then reuse their
    # pages: kept alive, they cost a large map's dcols a page fault a page
    dw = np.matmul(_im2col(xp, kh, kw, stride).swapaxes(1, 2), g)
    dw = np.add.reduce(dw, axis=0).reshape(wd.shape)
    if not need_dx:
        return None, dw
    dcols = np.matmul(g, wd.reshape(-1, cout).T)
    if kh == kw == stride == 1:
        return dcols.reshape(xp.shape), dw
    dcols = dcols.reshape(n, ho, wo, kh, kw, cin)
    dxp = np.zeros_like(xp)
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, ki:ki + ho * stride:stride, kj:kj + wo * stride:stride] += dcols[:, :, :, ki, kj]
    return dxp, dw


def conv2d(x, w, bias, stride=1, padding=0, groups=1):
    """Cross-correlation of an H x W x Cin map, or of each map of a stack
    (... x H x W x Cin), with kh x kw x Cin/g x Cout weights plus a bias; a
    depthwise one (groups=cin=cout) is stride 1.

    A dense conv (groups=1) runs over the whole stack: its forward is one
    2-d `matmul` of every map's receptive fields (`_im2col`) against the
    weights, on untaped tensors as in `linear`, so it is counted as one
    product; its backward is `_dense_conv_backward`. A depthwise conv lays
    the padded maps side by side as one Hp x Wp x (n*C) map, whose channels
    the kernels compute independently, each with its map's taps: one
    forward and one backward kernel call per conv, each channel with the
    bits of its map run alone. The maps' tap gradients are summed in map
    order."""
    xd, wd = x.data, w.data
    kh, kw, cig, cout = wd.shape
    h, wdt, cin = xd.shape[-3:]
    lead = xd.shape[:-3]
    if padding == "same":
        if stride != 1:
            raise ValueError("'same' padding requires stride 1")
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"'same' padding requires an odd kernel, got {kh}x{kw}")
        ph, pw = kh // 2, kw // 2
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
    maps = xd.reshape(-1, h, wdt, cin)
    n = maps.shape[0]
    if ph or pw:
        # a zero buffer and one slice assignment: np.pad costs ~10x more
        xp = np.zeros((n, h + 2 * ph, wdt + 2 * pw, cin), dtype=xd.dtype)
        xp[:, ph:ph + h, pw:pw + wdt] = maps
    else:
        xp = maps
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (wdt + 2 * pw - kw) // stride + 1
    if groups == 1:
        cols = _im2col(xp, kh, kw, stride)
        y = matmul(_result(cols.reshape(-1, cols.shape[2])), _result(wd.reshape(-1, cout))).data
    else:
        _count(n * ho * wo * kh * kw * cout)
        # the maps side by side on the channel axis, each with its own taps
        xp = xp.transpose(1, 2, 0, 3).reshape(xp.shape[1], xp.shape[2], n * cin)
        wd = np.tile(wd, n)
        y = kernels.conv_forward(xp, wd, stride, n * cin)
        y = y.reshape(ho, wo, n, cout).transpose(2, 0, 1, 3)
    y += bias.data
    out = _result(y.reshape(lead + (ho, wo, cout)))
    if _trace(x, w, bias):
        def bwd(g, x=_slot(x), w=_slot(w), bias=_slot(bias), xp=xp, wd=wd,
                ph=ph, pw=pw, stride=stride, groups=groups):
            g = np.ascontiguousarray(g)
            gs = g.reshape((-1,) + g.shape[-3:])
            # no input gradient for an input that takes none, such as an image
            if groups == 1:
                dxp, dw = _dense_conv_backward(xp, wd, gs, x.requires_grad, stride)
            else:
                n, ho, wo, c = gs.shape
                gs = gs.transpose(1, 2, 0, 3).reshape(ho, wo, n * c)
                dxp, dw = kernels.conv_backward(xp, wd, gs, x.requires_grad, stride, n * c)
                # the maps' taps, summed in map order
                dw = np.add.reduce(dw.reshape(wd.shape[:3] + (n, c)), axis=3)
                if x.requires_grad:
                    dxp = dxp.reshape(dxp.shape[:2] + (n, c)).transpose(2, 0, 1, 3)
            if x.requires_grad:
                h, wdt = x.shape[-3:-1]
                # a padded map's interior is a strided slice, and is copied
                _accum(x, dxp[:, ph:ph + h, pw:pw + wdt].reshape(x.shape), True)
            if w.requires_grad:
                _accum(w, dw, True)
            if bias.requires_grad:
                _accum(bias, np.add.reduce(g, axis=tuple(range(g.ndim - 1))), True)
        _emit(out, bwd)
    return out


def avgpool2d(x, k=2):
    """k x k average pooling of an H x W x C map, or of each map of a stack."""
    *lead, h, w, c = x.shape
    if h % k or w % k:
        raise ValueError(f"avgpool2d: spatial extents {h}x{w} not divisible by {k}")
    # the sum, then one division, as in `mean`
    y = np.add.reduce(x.data.reshape(tuple(lead) + (h // k, k, w // k, k, c)), axis=(-4, -2))
    y /= k * k
    out = _result(y)
    if _trace(x):
        def bwd(g, x=_slot(x), k=k):
            gx = np.repeat(np.repeat(g, k, axis=-3), k, axis=-2) / (k * k)
            _accum(x, gx, True)
        _emit(out, bwd)
    return out


def layernorm(x, gamma, beta):
    """Normalize over the last (channel) axis with a learned affine."""
    xd = x.data
    c = xd.shape[-1]
    if c < 1:
        raise ValueError("layernorm needs at least one channel")
    inv_c = 1.0 / c
    # two full-size buffers: xc, which becomes xhat in place, and y, which
    # holds xc * xc until the output overwrites it
    mu = np.add.reduce(xd, axis=-1, keepdims=True)
    mu *= inv_c
    xc = xd - mu
    y = xc * xc
    inv = np.add.reduce(y, axis=-1, keepdims=True)
    inv *= inv_c
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat = xc
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = _result(y)
    if _trace(x, gamma, beta):
        def bwd(g, x=_slot(x), gamma=_slot(gamma), beta=_slot(beta), gd=gamma.data,
                xhat=xhat, inv=inv, c=c, inv_c=inv_c):
            if gamma.requires_grad:
                _accum(gamma, np.add.reduce((g * xhat).reshape(-1, c), axis=0), True)
            if beta.requires_grad:
                _accum(beta, np.add.reduce(g.reshape(-1, c), axis=0), True)
            if x.requires_grad:
                # (g gamma - m1 - xhat m2) * inv, in g and one temporary
                gx = g
                gx *= gd
                m1 = np.add.reduce(gx, axis=-1, keepdims=True)
                m1 *= inv_c
                t = gx * xhat
                m2 = np.add.reduce(t, axis=-1, keepdims=True)
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
    xd = x.data
    if not np.logical_and.reduce(np.isfinite(xd), axis=None):
        raise FloatingPointError("softmax received non-finite input")
    s = xd - np.maximum.reduce(xd, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    out = _result(s)
    if _trace(x):
        def bwd(g, x=_slot(x), s=s):
            _accum(x, _softmax_grad(g, s), True)
        _emit(out, bwd)
    return out


def _softmax_grad(g, s):
    """The gradient of a row softmax whose output is s, s * (g - dot) with
    dot the row sums of g * s, written into g and returned."""
    dot = np.add.reduce(g * s, axis=-1, keepdims=True)
    g -= dot
    g *= s
    return g


def attention(q, k, v, heads):
    """Multi-head scaled dot-product attention of Tq x C queries over Tk x C
    keys and values, for one sample or for each of a stack (... x Tq x C
    over ... x Tk x C). Head h takes the h-th block of d = C / heads columns
    of each: softmax(q_h k_h^T / sqrt(d)) v_h. Returns the output, shaped
    like q (the heads' outputs side by side), and the heads' maps as one
    ... x heads x Tq x Tk array.

    The forward is the chain scale, transpose, per head the three inputs'
    slices, `matmul`, `softmax` and `matmul`, then a concat, run on untaped
    tensors. Each input's blocks, for every sample and head, are gathered
    by one copy; every product still goes through `matmul`, one per sample
    and head, and is counted. One `softmax` over the samples x heads stack
    of logits checks them and gives every map, and the maps returned are
    a view of it. The op records one closure, which computes the chain's
    backward products as one `np.matmul` each over the stacked blocks,
    giving each block the bits of `np.dot` on it, and one softmax gradient
    over all heads. It adds the blocks into zeroed q, k and v gradients in
    their layout: the chain's adding into zeroed buffers, so its gradients
    are the chain's bits. The 1/sqrt(d) scale comes last."""
    qd, kd, vd = q.data, k.data, v.data
    if (qd.ndim < 2 or kd.shape != vd.shape or qd.shape[:-2] != kd.shape[:-2]
            or qd.shape[-1] != kd.shape[-1]):
        raise ValueError(f"attention expects Tq x C queries and Tk x C keys and values, "
                         f"got {qd.shape}, {kd.shape} and {vd.shape}")
    tq, c = qd.shape[-2:]
    tk = kd.shape[-2]
    if heads < 1 or c % heads:
        raise ValueError(f"attention: {c} channels do not split into {heads} heads")
    d = c // heads
    s = 1.0 / math.sqrt(d)
    # sample i's head h: queries qs[i, h] (Tq x d), keys kt[i, h] (d x Tk,
    # transposed) and values vs[i, h] (Tk x d), each a C-contiguous block
    qs = qd.reshape(-1, tq, heads, d) * s
    n = qs.shape[0]
    qs = np.ascontiguousarray(qs.transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray(kd.reshape(n, tk, heads, d).transpose(0, 2, 3, 1))
    vs = np.ascontiguousarray(vd.reshape(n, tk, heads, d).transpose(0, 2, 1, 3))
    logits = np.empty((n, heads, tq, tk), qd.dtype)
    for i in range(n):
        for h in range(heads):
            logits[i, h] = matmul(_result(qs[i, h]), _result(kt[i, h])).data
    a = softmax(_result(logits)).data
    out = np.empty(qd.shape, qd.dtype)
    heads_out = out.reshape(n, tq, heads, d)
    for i in range(n):
        for h in range(heads):
            heads_out[i, :, h] = matmul(_result(a[i, h]), _result(vs[i, h])).data
    maps = a.reshape(qd.shape[:-2] + (heads, tq, tk))
    out = _result(out)
    if _trace(q, k, v):
        def bwd(g, q=_slot(q), k=_slot(k), v=_slot(v), qs=qs, kt=kt, vs=vs, a=a, s=s):
            # every array below is samples x heads x rows x columns
            g = np.ascontiguousarray(g.reshape(n, tq, heads, d).transpose(0, 2, 1, 3))
            if q.requires_grad or k.requires_grad:
                da = _softmax_grad(np.matmul(g, vs.swapaxes(2, 3)), a)
            if v.requires_grad:
                _accum(v, _heads_into_zeros(v.shape, np.matmul(a.swapaxes(2, 3), g),
                                            (0, 2, 1, 3)), True)
            if k.requires_grad:
                _accum(k, _heads_into_zeros(k.shape, np.matmul(qs.swapaxes(2, 3), da),
                                            (0, 2, 3, 1)), True)
            if q.requires_grad:
                dq = _heads_into_zeros(q.shape, np.matmul(da, kt.swapaxes(2, 3)), (0, 2, 1, 3))
                dq *= s
                _accum(q, dq, True)
        _emit(out, bwd)
    return out, maps


def _heads_into_zeros(shape, blocks, axes):
    """A gradient of `shape` (... x T x C) from its blocks, one per sample
    and head, each added into zeros: `axes` permutes the samples x T x
    heads x d view of the gradient to the blocks' layout."""
    grad = np.zeros(shape, blocks.dtype)
    n, heads = blocks.shape[:2]
    view = grad.reshape(n, -1, heads, shape[-1] // heads).transpose(axes)
    view += blocks
    return grad


@functools.lru_cache(maxsize=None)
def _interp_indices(n_in, n_out, dtype):
    """Source indices and weights of a resize from n_in to n_out, made once per
    (n_in, n_out, dtype) and shared, so read-only."""
    # align-corners-false source coordinates, clamped to the edge
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * n_in / n_out - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    f = (src - i0).astype(dtype)
    for arr in (i0, i1, f):
        arr.flags.writeable = False
    return i0, i1, f


def bilinear_resize(x, out_h, out_w):
    """Separable bilinear resampling of an H x W x C map, or of each map of a
    stack; constant fields are preserved exactly (lerp form x0 + f*(x1-x0))."""
    if out_h < 1 or out_w < 1:
        raise ValueError("bilinear_resize output extents must be positive")
    *lead, h, w, c = x.shape
    r0, r1, rf = _interp_indices(h, out_h, x.dtype)
    c0, c1, cf = _interp_indices(w, out_w, x.dtype)
    rfc = rf[:, None, None]
    cfc = cf[None, :, None]
    xd = x.data
    # the index of the rows (then of the columns) behind any stacking axes
    rows = (slice(None),) * len(lead)
    cols = rows + (slice(None),)
    tmp = xd[rows + (r0,)] + rfc * (xd[rows + (r1,)] - xd[rows + (r0,)])
    # np.take gives C order, where the fancy index tmp[:, c0] would not
    t0 = np.take(tmp, c0, axis=-2)
    y = t0 + cfc * (np.take(tmp, c1, axis=-2) - t0)
    out = _result(y)
    if _trace(x):
        def bwd(g, x=_slot(x), r0=r0, r1=r1, rfc=rfc, c0=c0, c1=c1, cfc=cfc,
                rows=rows, cols=cols):
            dtmp = np.zeros(g.shape[:-2] + x.shape[-2:], dtype=g.dtype)
            np.add.at(dtmp, cols + (c0,), g * (1.0 - cfc))
            np.add.at(dtmp, cols + (c1,), g * cfc)
            dx = np.zeros(x.shape, dtype=g.dtype)
            np.add.at(dx, rows + (r0,), dtmp * (1.0 - rfc))
            np.add.at(dx, rows + (r1,), dtmp * rfc)
            _accum(x, dx, True)
        _emit(out, bwd)
    return out


# ---------------------------------------------------------------------------
# shape ops and reductions
# ---------------------------------------------------------------------------

def reshape(x, shape):
    out = _result(x.data.reshape(shape))
    if _trace(x):
        def bwd(g, x=_slot(x)):
            _accum(x, g.reshape(x.shape), True)
        _emit(out, bwd)
    return out


def transpose(x, axes=None):
    out = _result(np.ascontiguousarray(x.data.transpose(axes)))
    if _trace(x):
        inv = None
        if axes is not None:
            # the inverse permutation; a negative axis counts from the end
            inv = [0] * len(axes)
            for i, a in enumerate(axes):
                inv[a] = i
            inv = tuple(inv)
        def bwd(g, x=_slot(x), inv=inv):
            _accum(x, g.transpose(inv), False)
        _emit(out, bwd)
    return out


def concat(xs, axis=0):
    out = _result(np.concatenate([x.data for x in xs], axis=axis))
    if _ACTIVE_TAPE is not None and any(x.requires_grad for x in xs):
        # each input's part of the output, as an index
        lead = (slice(None),) * (axis % out.data.ndim)
        idxs, start = [], 0
        for x in xs:
            stop = start + x.data.shape[axis]
            idxs.append(lead + (slice(start, stop),))
            start = stop
        def bwd(g, xs=[_slot(x) for x in xs], idxs=idxs):
            for x, idx in zip(xs, idxs):
                if x.requires_grad:
                    _accum(x, g[idx], False)
        _emit(out, bwd)
    return out


def slice_axis(x, axis, start, stop):
    """Elements start to stop - 1 of x along `axis`, which may be negative:
    a non-empty range inside the axis."""
    xd = x.data
    ndim = xd.ndim
    if not -ndim <= axis < ndim:
        raise ValueError(f"slice_axis: axis {axis} is out of range for {ndim} dimensions")
    size = xd.shape[axis]
    if not 0 <= start < stop <= size:
        raise ValueError(f"slice_axis: [{start}, {stop}) is not a non-empty range "
                         f"inside an axis of size {size}")
    idx = (slice(None),) * (axis % ndim) + (slice(start, stop),)
    out = _result(np.ascontiguousarray(xd[idx]))
    if _trace(x):
        def bwd(g, x=_slot(x), idx=idx):
            gx = np.zeros(x.shape, x.dtype)
            gx[idx] += g
            _accum(x, gx, True)
        _emit(out, bwd)
    return out


def sum(x):  # noqa: A001 - deliberate op name
    """The sum of every element of x."""
    out = Tensor(np.add.reduce(x.data, axis=None))
    if _trace(x):
        def bwd(g, x=_slot(x)):
            _accum(x, np.broadcast_to(g, x.shape), False)
        _emit(out, bwd)
    return out


def mean(x, axis=None):
    """The mean over `axis`, which is kept with size 1, or over every
    element when `axis` is None."""
    xd = x.data
    # the sum, then one division: ndarray.mean's bits (its float32
    # quotient, taken in float64 and rounded once, is the same)
    n = xd.size if axis is None else xd.shape[axis]
    y = np.add.reduce(xd, axis=axis, keepdims=True)
    y /= n
    out = Tensor(y.reshape(())) if axis is None else _result(y)
    if _trace(x):
        def bwd(g, x=_slot(x), n=n):
            _accum(x, np.broadcast_to(g, x.shape) / n, True)
        _emit(out, bwd)
    return out
