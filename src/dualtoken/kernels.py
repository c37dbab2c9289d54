"""Hot convolution loops: numba-jitted with a pure-numpy fallback.

The numba path runs when numba can be imported; without numba the numpy
path runs. Set ``DUALTOKEN_NUMBA=0`` in the environment (before import) to
force the numpy path, e.g. when benchmarking the fallback.

Dispatch: dense convolutions (groups == 1) reduce to large matrix products,
which BLAS already does better than a jitted loop, so both paths delegate
them to numpy. The jitted kernels cover the depthwise and grouped cases,
where the numpy path degrades to many small slice operations; the depthwise
kernel keeps the channel axis innermost so the loop stays contiguous
(channel-last layout).

Layout conventions: feature maps are H x W x C (channel-last), weights are
kh x kw x (Cin/groups) x Cout. Inputs arrive already padded; `stride` and
`groups` are plain ints.
"""

import os

import numpy as np

_FLAG = os.environ.get("DUALTOKEN_NUMBA", "1").strip().lower()
_WANT_NUMBA = _FLAG not in ("0", "false", "off", "no")

if _WANT_NUMBA:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False


def use_numba():
    """True when the jitted kernels are active."""
    return HAVE_NUMBA


# ---------------------------------------------------------------------------
# pure-numpy path
# ---------------------------------------------------------------------------

def conv_forward_np(xp, w, stride, groups):
    hp, wp, cin = xp.shape
    kh, kw, cig, cout = w.shape
    cog = cout // groups
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((ho, wo, cout), dtype=xp.dtype)
    for ki in range(kh):
        for kj in range(kw):
            xs = xp[ki:ki + ho * stride:stride, kj:kj + wo * stride:stride, :]
            if groups == 1:
                out += xs @ w[ki, kj]
            elif groups == cin and cout == cin:
                # depthwise: one input channel per output channel
                out += xs * w[ki, kj, 0, :]
            else:
                for g in range(groups):
                    xg = xs[..., g * cig:(g + 1) * cig]
                    out[..., g * cog:(g + 1) * cog] += xg @ w[ki, kj, :, g * cog:(g + 1) * cog]
    return out


def conv_backward_np(xp, w, dy, stride, groups):
    hp, wp, cin = xp.shape
    kh, kw, cig, cout = w.shape
    cog = cout // groups
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
            elif groups == cin and cout == cin:
                dw[ki, kj, 0, :] = (xs * dy).sum(axis=(0, 1))
                dxp[rows, cols, :] += dy * w[ki, kj, 0, :]
            else:
                for g in range(groups):
                    xg = xs[..., g * cig:(g + 1) * cig]
                    dyg = dy[..., g * cog:(g + 1) * cog]
                    dw[ki, kj, :, g * cog:(g + 1) * cog] = np.tensordot(
                        xg, dyg, axes=([0, 1], [0, 1]))
                    dxp[rows, cols, g * cig:(g + 1) * cig] += dyg @ w[ki, kj, :, g * cog:(g + 1) * cog].T
    return dxp, dw


# ---------------------------------------------------------------------------
# numba path
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def _dw_forward_nb(xp, w, stride):
        hp, wp, c = xp.shape
        kh, kw = w.shape[0], w.shape[1]
        ho = (hp - kh) // stride + 1
        wo = (wp - kw) // stride + 1
        out = np.zeros((ho, wo, c), dtype=xp.dtype)
        for i in range(ho):
            for j in range(wo):
                for ki in range(kh):
                    for kj in range(kw):
                        for cc in range(c):
                            out[i, j, cc] += xp[i * stride + ki, j * stride + kj, cc] * w[ki, kj, 0, cc]
        return out

    @njit(cache=True)
    def _dw_backward_nb(xp, w, dy, stride):
        kh, kw = w.shape[0], w.shape[1]
        ho, wo, c = dy.shape
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(w)
        for i in range(ho):
            for j in range(wo):
                for ki in range(kh):
                    for kj in range(kw):
                        for cc in range(c):
                            d = dy[i, j, cc]
                            dxp[i * stride + ki, j * stride + kj, cc] += d * w[ki, kj, 0, cc]
                            dw[ki, kj, 0, cc] += d * xp[i * stride + ki, j * stride + kj, cc]
        return dxp, dw

    @njit(cache=True)
    def _grouped_forward_nb(xp, w, stride, groups):
        hp, wp, cin = xp.shape
        kh, kw, cig, cout = w.shape
        cog = cout // groups
        ho = (hp - kh) // stride + 1
        wo = (wp - kw) // stride + 1
        out = np.zeros((ho, wo, cout), dtype=xp.dtype)
        for i in range(ho):
            for j in range(wo):
                for ki in range(kh):
                    for kj in range(kw):
                        for g in range(groups):
                            for ic in range(cig):
                                xv = xp[i * stride + ki, j * stride + kj, g * cig + ic]
                                for oc in range(cog):
                                    out[i, j, g * cog + oc] += xv * w[ki, kj, ic, g * cog + oc]
        return out

    @njit(cache=True)
    def _grouped_backward_nb(xp, w, dy, stride, groups):
        kh, kw, cig, cout = w.shape
        cog = cout // groups
        ho, wo = dy.shape[0], dy.shape[1]
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(w)
        for i in range(ho):
            for j in range(wo):
                for ki in range(kh):
                    for kj in range(kw):
                        for g in range(groups):
                            for ic in range(cig):
                                acc = 0.0
                                for oc in range(cog):
                                    d = dy[i, j, g * cog + oc]
                                    acc += d * w[ki, kj, ic, g * cog + oc]
                                    dw[ki, kj, ic, g * cog + oc] += d * xp[i * stride + ki, j * stride + kj, g * cig + ic]
                                dxp[i * stride + ki, j * stride + kj, g * cig + ic] += acc
        return dxp, dw

    def conv_forward(xp, w, stride, groups):
        if groups == 1:
            return conv_forward_np(xp, w, stride, groups)
        cin = xp.shape[2]
        if groups == cin and w.shape[3] == cin:
            return _dw_forward_nb(xp, w, stride)
        return _grouped_forward_nb(xp, w, stride, groups)

    def conv_backward(xp, w, dy, stride, groups):
        if groups == 1:
            return conv_backward_np(xp, w, dy, stride, groups)
        cin = xp.shape[2]
        if groups == cin and w.shape[3] == cin:
            return _dw_backward_nb(xp, w, dy, stride)
        return _grouped_backward_nb(xp, w, dy, stride, groups)

else:
    conv_forward = conv_forward_np
    conv_backward = conv_backward_np
