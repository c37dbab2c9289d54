"""Convolution loops in numpy, one pass per kernel tap.

Two groupings are supported, the two the model uses. Dense convolutions
(groups == 1) are one BLAS matmul per tap. Depthwise convolutions
(groups == Cin == Cout) are one broadcast multiply per tap. `tensor.conv2d`
rejects every other grouping before it gets here.

Layout conventions: feature maps are H x W x C (channel-last), weights are
kh x kw x (Cin/groups) x Cout. Inputs arrive already padded; `stride` and
`groups` are plain ints.
"""

import numpy as np


def use_numba():
    """Always False: there is no jitted path."""
    return False


def conv_forward(xp, w, stride, groups):
    hp, wp = xp.shape[:2]
    kh, kw, _, cout = w.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((ho, wo, cout), dtype=xp.dtype)
    for ki in range(kh):
        for kj in range(kw):
            xs = xp[ki:ki + ho * stride:stride, kj:kj + wo * stride:stride, :]
            if groups == 1:
                out += xs @ w[ki, kj]
            else:  # depthwise: one input channel per output channel
                out += xs * w[ki, kj, 0, :]
    return out


def conv_backward(xp, w, dy, stride, groups):
    cin = xp.shape[2]
    kh, kw, _, cout = w.shape
    ho, wo = dy.shape[:2]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    dy2 = dy.reshape(-1, cout)
    for ki in range(kh):
        for kj in range(kw):
            rows = slice(ki, ki + ho * stride, stride)
            cols = slice(kj, kj + wo * stride, stride)
            xs = xp[rows, cols, :]
            if groups == 1:
                dw[ki, kj] = xs.reshape(-1, cin).T @ dy2
                dxp[rows, cols, :] += dy @ w[ki, kj].T
            else:
                dw[ki, kj, 0, :] = (xs * dy).sum(axis=(0, 1))
                dxp[rows, cols, :] += dy * w[ki, kj, 0, :]
    return dxp, dw
