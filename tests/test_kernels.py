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


def _conv2d_grads(x, w, dy, stride, padding, groups=1):
    """The output of `T.conv2d` of x (one map or a stack) with w, and the
    gradients of x and w given the output's gradient dy."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    tape = GradTape()
    with tape:
        y = T.conv2d(xt, wt, Tensor(np.zeros(w.shape[3], x.dtype)),
                     stride=stride, padding=padding, groups=groups)
        loss = T.sum(T.mul(y, Tensor(dy)))
    T.backward(tape, loss)
    return y.data, xt.grad, wt.grad


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
    n = 3  # a stack of maps through `T.conv2d`
    rng = np.random.default_rng(23)
    ho = (side - k) // stride + 1
    # scaled so every gradient entry stays O(1), as the f32 bound is
    # absolute: dw sums n * ho^2 terms, dx up to k^2 * cout (dense) or k^2
    fan_out = cout if groups == 1 else 1
    xp = (rng.standard_normal((n, side, side, cin)) / (ho * np.sqrt(n))).astype(dtype)
    w = (rng.standard_normal((k, k, cin // groups, cout))
         / (k * np.sqrt(fan_out))).astype(dtype)
    dy = (0.5 * rng.standard_normal((n, ho, ho, cout))).astype(dtype)
    _, dxp, dw = _conv2d_grads(xp, w, dy, stride, 0, groups)
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


def _assert_stack_is_its_maps_alone(case, dtype, n, compare_y):
    """A conv2d over a stack of n maps against each map run alone: dx bit
    for bit, dW bit for bit the maps' own summed in map order, and y bit for
    bit if `compare_y`."""
    side, cin, cout, k, stride, padding, groups = case
    pad = k // 2 if padding == "same" else padding
    ho = (side + 2 * pad - k) // stride + 1
    rng = np.random.default_rng(28)
    xs = rng.standard_normal((n, side, side, cin)).astype(dtype)
    w = rng.standard_normal((k, k, cin // groups, cout)).astype(dtype)
    dys = rng.standard_normal((n, ho, ho, cout)).astype(dtype)
    y, dx, dw = _conv2d_grads(xs, w, dys, stride, padding, groups)
    want_dw = None
    for i in range(n):
        y_i, dx_i, dw_i = _conv2d_grads(xs[i].copy(), w, dys[i].copy(), stride,
                                        padding, groups)
        assert not compare_y or y[i].tobytes() == y_i.tobytes(), i
        assert dx.dtype == dtype and dx[i].tobytes() == dx_i.tobytes(), i
        if want_dw is None:
            want_dw = dw_i
        else:
            want_dw += dw_i
    assert dw.dtype == dtype and dw.tobytes() == want_dw.tobytes()


# (side, cin, cout, kernel, stride, padding, groups)
STACK_CASES = {
    "1x1": (5, 16, 24, 1, 1, 0, 1),
    "3x3_stride2_ragged": (8, 5, 6, 3, 2, 1, 1),     # (8 + 2 - 3) % 2 == 1
    "3x3_same": (6, 4, 8, 3, 1, "same", 1),
}
DEPTHWISE_STACK_CASES = {
    "3x3_same": (6, 4, 4, 3, 1, "same", 4),
    "5x5_same": (9, 6, 6, 5, 1, "same", 6),
    "7x7_valid": (11, 3, 3, 7, 1, 0, 3),
}


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_dense_conv2d_on_a_stack_is_bitwise_its_maps_run_alone(case, dtype, n):
    # y is not compared: the forward, like `linear`'s, takes every map's
    # rows in one product, which a GEMM kernel may round differently from a
    # map's rows alone
    _assert_stack_is_its_maps_alone(STACK_CASES[case], dtype, n, compare_y=False)


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(DEPTHWISE_STACK_CASES))
def test_depthwise_conv2d_on_a_stack_is_bitwise_its_maps_run_alone(case, dtype, n):
    # the kernels take the maps side by side on the channel axis, where each
    # channel is computed as it is in a map alone
    _assert_stack_is_its_maps_alone(DEPTHWISE_STACK_CASES[case], dtype, n, compare_y=True)


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
    # call on the padded maps side by side; the backward takes neither
    stride = 2 if groups == 1 else 1  # a depthwise conv is stride 1
    module, name = (T, "matmul") if groups == 1 else (kernels, "conv_forward")
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    rng = np.random.default_rng(24)
    for n, lead in ((1, ()), (3, (3,))):  # one map, and a stack of three
        calls.clear()
        x = Tensor(rng.standard_normal(lead + (7, 7, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 4 // groups, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        tape = GradTape()
        with tape:
            loss = T.sum(T.conv2d(x, w, b, stride=stride, padding=1, groups=groups))
        assert len(calls) == 1
        if groups != 1:
            assert calls[0][0].shape == (9, 9, n * 4)
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
    # one kernel call on the padded maps side by side
    stride = 2 if groups == 1 else 1  # a depthwise conv is stride 1
    module, name = (T, "_dense_conv_backward") if groups == 1 else (kernels, "conv_backward")
    calls, returned = [], []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(module, name, spy)
    rng = np.random.default_rng(26)
    for n, lead in ((1, ()), (3, (3,))):  # one map, and a stack of three
        calls.clear()
        returned.clear()
        image = Tensor(rng.standard_normal(lead + (8, 8, 3)))
        w = Tensor(rng.standard_normal((3, 3, 3 // groups, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3))
        tape = GradTape()
        with tape:
            loss = T.sum(T.conv2d(image, w, b, stride=stride, padding=1, groups=groups))
        T.backward(tape, loss)
        (dxp, dw), = returned
        assert dxp is None and image.grad is None
        if groups != 1:
            assert calls[0][0].shape == (10, 10, n * 3)
        # the weight gradient is the one an input with a gradient gets
        x = Tensor(image.data, requires_grad=True)
        w2 = Tensor(w.data, requires_grad=True)
        tape = GradTape()
        with tape:
            loss = T.sum(T.conv2d(x, w2, b, stride=stride, padding=1, groups=groups))
        T.backward(tape, loss)
        assert np.array_equal(w.grad, w2.grad) and x.grad.shape == x.shape
        assert len(calls) == 2 and calls[1][0].shape == calls[0][0].shape


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
