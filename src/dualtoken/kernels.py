"""Depthwise convolution kernels in numpy: one einsum per contraction.

`tensor.conv2d` runs a dense convolution (groups == 1) itself, as products
over the whole stack of maps, and calls each of these kernels once per
depthwise convolution (groups == Cin == Cout), the only other grouping the
model uses: a stack's maps arrive side by side on the channel axis, as one
map whose channels are computed independently. Inputs are read through
strided window views, and no kernel loops over taps through a matmul or a
per-tap temporary.

Depthwise convolutions are stride 1; both kernels, like `tensor.conv2d`,
raise `ValueError` on any other stride, and on any grouping but depthwise.
The forward is one `np.einsum` over a window view of the input rows
flattened to W*C, so that each output row is a run of Wo*C contiguous
elements. dW contracts the (Ho, Wo, C, kh, kw) window view with dy. dx is
the full correlation of dy, padded by the kernel extent, with the flipped
taps: the forward's contraction again.

Layout conventions: feature maps are H x W x C (channel-last), weights are
kh x kw x 1 x C. Inputs arrive already padded; `stride` and `groups` are
plain ints. Outputs keep the input dtype. The backward skips dx when asked
to (an input that takes no gradient needs none).
"""

import numpy as np


def use_numba():
    """Always False: there is no jitted path."""
    return False


def _view(x, shape, strides):
    """A read-only view of C-contiguous x with the given byte strides. The
    ndarray constructor checks that it stays inside x's buffer, at a small
    fraction of the per-call cost of `sliding_window_view`, which shows on
    the small maps of a toy model."""
    v = np.ndarray(shape, x.dtype, x, 0, strides)
    v.flags.writeable = False
    return v


def _windows(xp, kh, kw):
    """The (Ho, Wo, C, kh, kw) view of every stride-1 receptive field."""
    hp, wp, c = xp.shape
    sh, sw, sc = xp.strides
    return _view(xp, (hp - kh + 1, wp - kw + 1, c, kh, kw), (sh, sw, sc, sh, sw))


def _depthwise(xp, taps):
    """Stride-1 depthwise cross-correlation of xp with kh x kw x C `taps`.

    Output row h, flattened to Wo*C, is the sum over taps (k, l) of input
    row h+k from element l*C on, times the taps' channel values tiled Wo
    times. The window view over the flattened rows gives einsum an inner
    loop of Wo*C contiguous elements rather than C."""
    kh, kw, c = taps.shape
    hp, wp = xp.shape[:2]
    wo = wp - kw + 1
    sh, _, sc = xp.strides
    rows = _view(xp, (hp - kh + 1, kw, kh, wo * c), (sh, c * sc, sh, sc))
    tiled = np.empty((kh, kw, wo, c), dtype=taps.dtype)
    tiled[...] = taps[:, :, None, :]
    return np.einsum("hlkj,klj->hj", rows, tiled.reshape(kh, kw, wo * c)).reshape(-1, wo, c)


def _check_depthwise(xp, w, stride, groups):
    cin, cout = xp.shape[2], w.shape[3]
    if not groups == cin == cout:
        raise ValueError(f"the kernels are depthwise (groups=cin=cout): "
                         f"cin={cin} cout={cout} groups={groups}")
    if stride != 1:
        raise ValueError(f"a depthwise conv is stride 1, got stride={stride}")


def conv_forward(xp, w, stride, groups):
    _check_depthwise(xp, w, stride, groups)
    return _depthwise(np.ascontiguousarray(xp), w[:, :, 0, :])


def conv_backward(xp, w, dy, need_dx, stride, groups):
    """(dxp, dw) of the depthwise correlation of xp with w, given dy; dxp is
    None unless `need_dx`."""
    _check_depthwise(xp, w, stride, groups)
    xp = np.ascontiguousarray(xp)
    kh, kw, _, c = w.shape
    ho, wo = dy.shape[:2]
    dw = np.einsum("hwckl,hwc->klc", _windows(xp, kh, kw), dy)[:, :, None, :]
    if not need_dx:
        return None, dw
    # dy inside a border of kh-1 (kw-1) zeros
    dyp = np.zeros((ho + 2 * (kh - 1), wo + 2 * (kw - 1), c), dtype=dy.dtype)
    dyp[kh - 1:kh - 1 + ho, kw - 1:kw - 1 + wo] = dy
    return _depthwise(dyp, w[::-1, ::-1, 0, :]), dw
