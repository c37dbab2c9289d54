"""The convolution kernels against a naive float64 loop, their precision, and
the autodiff path through them."""

import numpy as np
import pytest

from dualtoken import kernels
from dualtoken import tensor as T
from dualtoken.tensor import GradTape, Tensor


def tol_for(dtype):
    return 1e-12 if dtype == np.float64 else 1e-6


def naive_conv_backward(xp, w, dy, stride, groups):
    """d(sum(y * dy))/dxp and /dw of the cross-correlation y, in float64."""
    xp, w, dy = (a.astype(np.float64) for a in (xp, w, dy))
    kh, kw, cig, cout = w.shape
    ho, wo = dy.shape[:2]
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(ho):
        for j in range(wo):
            for ki in range(kh):
                for kj in range(kw):
                    r, c = i * stride + ki, j * stride + kj
                    for co in range(cout):
                        g = dy[i, j, co]
                        if groups == 1:
                            dxp[r, c, :] += g * w[ki, kj, :, co]
                            dw[ki, kj, :, co] += g * xp[r, c, :]
                        else:  # depthwise: input channel co only
                            dxp[r, c, co] += g * w[ki, kj, 0, co]
                            dw[ki, kj, 0, co] += g * xp[r, c, co]
    return dxp, dw


def _dense_conv2d_grads(x, w, dy, stride, padding):
    """The gradients of x and w through a dense `T.conv2d` of x (one map or
    a stack), given the output's gradient dy."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    tape = GradTape()
    with tape:
        y = T.conv2d(xt, wt, Tensor(np.zeros(w.shape[3], x.dtype)),
                     stride=stride, padding=padding)
        loss = T.sum(T.mul(y, Tensor(dy)))
    T.backward(tape, loss)
    return xt.grad, wt.grad


# (padded side, cin, cout, kernel, stride, groups)
BACKWARD_CASES = {
    "dense_1x1_wide": (5, 64, 96, 1, 1, 1),
    "dense_3x3_stride2_ragged": (8, 5, 6, 3, 2, 1),     # (8 - 3) % 2 == 1
    "depthwise_5x5": (9, 6, 6, 5, 1, 6),
    "depthwise_7x7": (11, 4, 4, 7, 1, 4),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(BACKWARD_CASES))
def test_conv_backward_matches_naive_loop(case, dtype):
    side, cin, cout, k, stride, groups = BACKWARD_CASES[case]
    # a depthwise conv runs in the kernels, one map at a time; a dense one
    # runs in `T.conv2d`, here over a stack of three maps
    n = 3 if groups == 1 else 1
    rng = np.random.default_rng(23)
    ho = (side - k) // stride + 1
    # scaled so every gradient entry stays O(1), as the f32 bound is
    # absolute: dw sums n * ho^2 terms, dx up to k^2 * cout (dense) or k^2
    fan_out = cout if groups == 1 else 1
    xp = (rng.standard_normal((n, side, side, cin)) / (ho * np.sqrt(n))).astype(dtype)
    w = (rng.standard_normal((k, k, cin // groups, cout))
         / (k * np.sqrt(fan_out))).astype(dtype)
    dy = (0.5 * rng.standard_normal((n, ho, ho, cout))).astype(dtype)
    if groups == 1:
        dxp, dw = _dense_conv2d_grads(xp, w, dy, stride, 0)
    else:
        dxp, dw = kernels.conv_backward(xp[0], w, dy[0], True, stride, groups)
        dxp = dxp[None]
    want = [naive_conv_backward(xp[i], w, dy[i], stride, groups) for i in range(n)]
    want_dxp = np.stack([dxp_i for dxp_i, _ in want])
    want_dw = np.add.reduce([dw_i for _, dw_i in want])
    assert dxp.shape == xp.shape and dw.shape == w.shape
    assert dxp.dtype == dtype and dw.dtype == dtype
    assert np.abs(dxp - want_dxp).max() <= tol_for(dtype)
    assert np.abs(dw - want_dw).max() <= tol_for(dtype)
    # no window reaches the last row and column of a ragged extent
    if (side - k) % stride:
        assert not dxp[:, -1].any() and not dxp[:, :, -1].any()


# (side, cin, cout, kernel, stride, padding)
STACK_CASES = {
    "1x1": (5, 16, 24, 1, 1, 0),
    "3x3_stride2_ragged": (8, 5, 6, 3, 2, 1),     # (8 + 2 - 3) % 2 == 1
    "3x3_same": (6, 4, 8, 3, 1, "same"),
}


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_dense_conv2d_on_a_stack_is_bitwise_its_maps_run_alone(case, dtype, n):
    side, cin, cout, k, stride, padding = STACK_CASES[case]
    pad = k // 2 if padding == "same" else padding
    ho = (side + 2 * pad - k) // stride + 1
    rng = np.random.default_rng(28)
    xs = rng.standard_normal((n, side, side, cin)).astype(dtype)
    w = rng.standard_normal((k, k, cin, cout)).astype(dtype)
    dys = rng.standard_normal((n, ho, ho, cout)).astype(dtype)
    # (the forward, like `linear`'s, takes every map's rows in one product,
    # which a GEMM kernel may round differently from a map's rows alone)
    dx, dw = _dense_conv2d_grads(xs, w, dys, stride, padding)
    want_dw = None
    for i in range(n):
        dx_i, dw_i = _dense_conv2d_grads(xs[i].copy(), w, dys[i].copy(), stride, padding)
        assert dx.dtype == dtype and dx[i].tobytes() == dx_i.tobytes(), i
        # the maps' weight gradients, summed in map order
        if want_dw is None:
            want_dw = dw_i
        else:
            want_dw += dw_i
    assert dw.dtype == dtype and dw.tobytes() == want_dw.tobytes()


def test_float32_inputs_stay_float32():
    rng = np.random.default_rng(22)
    xp = rng.standard_normal((6, 6, 3)).astype(np.float32)
    dy = rng.standard_normal((4, 4, 3)).astype(np.float32)
    w = rng.standard_normal((3, 3, 1, 3)).astype(np.float32)
    y = kernels.conv_forward(xp, w, 1, 3)
    assert y.dtype == np.float32
    dxp, dw = kernels.conv_backward(xp, w, dy, True, 1, 3)
    assert dxp.dtype == np.float32 and dw.dtype == np.float32


@pytest.mark.parametrize("groups", [1, 4])
def test_conv2d_backward_runs_no_forward_kernel(monkeypatch, groups):
    # a dense conv's forward is one `T.matmul`, a depthwise one's one kernel
    # call per map; the backward takes neither
    stride = 2 if groups == 1 else 1  # a depthwise conv is stride 1
    module, name = (T, "matmul") if groups == 1 else (kernels, "conv_forward")
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((7, 7, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 4 // groups, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    tape = GradTape()
    with tape:
        loss = T.sum(T.conv2d(x, w, b, stride=stride, padding=1, groups=groups))
    assert len(calls) == 1
    T.backward(tape, loss)
    assert len(calls) == 1
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_non_contiguous_input_matches_its_contiguous_copy():
    rng = np.random.default_rng(25)
    xp = rng.standard_normal((7, 6, 4)).transpose(1, 0, 2)  # a 6 x 7 x 4 view
    w = rng.standard_normal((3, 3, 1, 4))
    dy = rng.standard_normal((4, 5, 4))
    want = kernels.conv_backward(np.ascontiguousarray(xp), w, dy, True, 1, 4)
    got = kernels.conv_backward(xp, w, dy, True, 1, 4)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(kernels.conv_forward(xp, w, 1, 4),
                          kernels.conv_forward(np.ascontiguousarray(xp), w, 1, 4))


@pytest.mark.parametrize("groups", [1, 3])
def test_conv2d_computes_no_gradient_for_an_input_without_one(monkeypatch, groups):
    # a dense conv's backward is `T._dense_conv_backward`, a depthwise one's
    # a kernel call per map
    stride = 2 if groups == 1 else 1  # a depthwise conv is stride 1
    module, name = (T, "_dense_conv_backward") if groups == 1 else (kernels, "conv_backward")
    returned = []
    real = getattr(module, name)

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(module, name, spy)
    rng = np.random.default_rng(26)
    image = Tensor(rng.standard_normal((8, 8, 3)))
    w = Tensor(rng.standard_normal((3, 3, 3 // groups, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3))
    tape = GradTape()
    with tape:
        loss = T.sum(T.conv2d(image, w, b, stride=stride, padding=1, groups=groups))
    T.backward(tape, loss)
    (dxp, dw), = returned
    assert dxp is None and image.grad is None
    # the weight gradient is the one an input with a gradient gets
    x = Tensor(image.data, requires_grad=True)
    w2 = Tensor(w.data, requires_grad=True)
    tape = GradTape()
    with tape:
        loss = T.sum(T.conv2d(x, w2, b, stride=stride, padding=1, groups=groups))
    T.backward(tape, loss)
    assert np.array_equal(w.grad, w2.grad) and x.grad.shape == x.shape


def test_kernels_refuse_a_strided_depthwise_conv():
    rng = np.random.default_rng(27)
    xp = rng.standard_normal((9, 9, 4))
    w = rng.standard_normal((3, 3, 1, 4))
    dy = rng.standard_normal((4, 4, 4))
    with pytest.raises(ValueError, match="stride=2"):
        kernels.conv_forward(xp, w, 2, 4)
    for need_dx in (True, False):
        with pytest.raises(ValueError, match="stride=2"):
            kernels.conv_backward(xp, w, dy, need_dx, 2, 4)


def test_kernels_refuse_a_dense_conv():
    # a dense conv runs in `T.conv2d`; the kernels are depthwise only
    rng = np.random.default_rng(29)
    xp = rng.standard_normal((6, 6, 4))
    w = rng.standard_normal((3, 3, 4, 4))
    with pytest.raises(ValueError, match="depthwise"):
        kernels.conv_forward(xp, w, 1, 1)
    with pytest.raises(ValueError, match="depthwise"):
        kernels.conv_backward(xp, w, rng.standard_normal((4, 4, 4)), True, 1, 1)
