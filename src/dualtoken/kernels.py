"""Convolution kernels in numpy: one GEMM or one einsum per contraction.

Two groupings are supported, the two the model uses; `tensor.conv2d`
rejects every other grouping before it gets here. Inputs are read through
strided window views, and no kernel loops over taps through a matmul or a
per-tap temporary.

- Dense convolutions (groups == 1) gather every receptive field once into
  an (Ho*Wo) x (kh*kw*Cin) matrix (a 1 x 1 stride-1 conv's is the input
  itself, with no copy), so the forward is one GEMM against the weights as
  a (kh*kw*Cin) x Cout matrix. The backward is two GEMMs, dW = cols^T dy
  and dcols = dy W^T, then one strided in-place add per tap into dx.
- Depthwise convolutions (groups == Cin == Cout) are stride 1; both kernels,
  like `tensor.conv2d`, raise `ValueError` on any other stride. The forward
  is one `np.einsum` over a window view of the input rows flattened to W*C,
  so that each output row is a run of Wo*C contiguous elements. dW
  contracts the (Ho, Wo, C, kh, kw) window view with dy. dx is the full
  correlation of dy, padded by the kernel extent, with the flipped taps:
  the forward's contraction again.

Layout conventions: feature maps are H x W x C (channel-last), weights are
kh x kw x (Cin/groups) x Cout. Inputs arrive already padded; `stride` and
`groups` are plain ints, and `stride` must be 1 whenever `groups` is not.
Outputs keep the input dtype. The backward skips dx when asked to (the image
entering the stem needs none).
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


def _windows(xp, kh, kw, stride):
    """The (Ho, Wo, C, kh, kw) view of every receptive field."""
    hp, wp, c = xp.shape
    sh, sw, sc = xp.strides
    return _view(xp, ((hp - kh) // stride + 1, (wp - kw) // stride + 1, c, kh, kw),
                 (sh * stride, sw * stride, sc, sh, sw))


def _im2col(xp, kh, kw, stride):
    """The receptive fields as the rows of an (Ho*Wo) x (kh*kw*C) matrix,
    columns in the weights' (kh, kw, C) order. A 1 x 1 stride-1 conv's is
    xp itself, reshaped without a copy or a window view."""
    if kh == kw == stride == 1:
        return xp.reshape(-1, xp.shape[2])
    win = _windows(xp, kh, kw, stride).transpose(0, 1, 3, 4, 2)
    return win.reshape(win.shape[0] * win.shape[1], -1)


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


def _check_depthwise_stride(stride):
    if stride != 1:
        raise ValueError(f"a depthwise conv is stride 1, got stride={stride}")


def conv_forward(xp, w, stride, groups):
    xp = np.ascontiguousarray(xp)
    kh, kw, _, cout = w.shape
    if groups != 1:
        _check_depthwise_stride(stride)
        return _depthwise(xp, w[:, :, 0, :])
    ho = (xp.shape[0] - kh) // stride + 1
    wo = (xp.shape[1] - kw) // stride + 1
    return (_im2col(xp, kh, kw, stride) @ w.reshape(-1, cout)).reshape(ho, wo, cout)


def conv_backward(xp, w, dy, need_dx, stride, groups):
    """(dxp, dw) of the correlation of xp with w, given dy; dxp is None
    unless `need_dx`."""
    xp = np.ascontiguousarray(xp)
    hp, wp, cin = xp.shape
    kh, kw, _, cout = w.shape
    ho, wo = dy.shape[:2]
    if groups != 1:
        _check_depthwise_stride(stride)
        dw = np.einsum("hwckl,hwc->klc", _windows(xp, kh, kw, 1), dy)[:, :, None, :]
        if not need_dx:
            return None, dw
        # dy inside a border of kh-1 (kw-1) zeros
        dyp = np.zeros((ho + 2 * (kh - 1), wo + 2 * (kw - 1), cout), dtype=dy.dtype)
        dyp[kh - 1:kh - 1 + ho, kw - 1:kw - 1 + wo] = dy
        return _depthwise(dyp, w[::-1, ::-1, 0, :]), dw
    dy2 = dy.reshape(-1, cout)
    dw = (_im2col(xp, kh, kw, stride).T @ dy2).reshape(w.shape)
    if not need_dx:
        return None, dw
    dcols = (dy2 @ w.reshape(-1, cout).T).reshape(ho, wo, kh, kw, cin)
    if kh == kw == stride == 1:
        return dcols.reshape(hp, wp, cin), dw
    dxp = np.zeros_like(xp)
    for ki in range(kh):
        for kj in range(kw):
            dxp[ki:ki + ho * stride:stride, kj:kj + wo * stride:stride] += dcols[:, :, ki, kj]
    return dxp, dw
