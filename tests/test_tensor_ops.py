"""Oracle-equivalence and property tests for the tensor primitives."""

import decimal
import math

import numpy as np
import pytest

from dualtoken import tensor as T
from dualtoken.tensor import GradTape, Tensor


def naive_matmul(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for p in range(k):
                s += float(a[i, p]) * float(b[p, j])
            out[i, j] = s
    return out


def naive_conv2d(x, w, bias, stride, pad, groups):
    kh, kw, cig, cout = w.shape
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    hp, wp, cin = xp.shape
    cog = cout // groups
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((ho, wo, cout), dtype=np.float64)
    for i in range(ho):
        for j in range(wo):
            for co in range(cout):
                g = co // cog
                s = 0.0
                for ki in range(kh):
                    for kj in range(kw):
                        for ic in range(cig):
                            s += float(xp[i * stride + ki, j * stride + kj, g * cig + ic]) \
                                * float(w[ki, kj, ic, co])
                out[i, j, co] = s + float(bias[co])
    return out


def tol_for(dtype):
    return 1e-12 if dtype == np.float64 else 1e-6


def exact_gelu(x):
    """x * Phi(x) in float64 through libm's erf, for any float array."""
    return np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                     for v in np.asarray(x, dtype=np.float64).ravel().tolist()])


def exact_sigmoid(x):
    """1 / (1 + exp(-x)) in 40-digit decimal arithmetic, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return np.array([float(1 / (1 + (-decimal.Decimal(v)).exp()))
                         for v in np.asarray(x, dtype=np.float64).ravel().tolist()])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_matmul_matches_naive_oracle(dtype):
    rng = np.random.default_rng(10)
    for _ in range(20):
        m, k, n = rng.integers(1, 9, size=3)
        a = rng.standard_normal((m, k)).astype(dtype)
        b = rng.standard_normal((k, n)).astype(dtype)
        got = T.matmul(Tensor(a), Tensor(b)).data
        want = naive_matmul(a.astype(np.float64), b.astype(np.float64))
        assert np.abs(got - want).max() <= tol_for(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv2d_matches_naive_oracle(dtype):
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(14):
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cases.append((int(rng.integers(4, 9)), int(rng.integers(4, 9)),
                      cin, cout, int(rng.choice([1, 3])),
                      int(rng.choice([1, 2])), int(rng.choice([0, 1])), 1))
    # depthwise cases, and one wider dense one
    cases += [(6, 6, 4, 4, 3, 1, 1, 4), (5, 7, 4, 4, 3, 1, 1, 4),
              (8, 8, 6, 6, 3, 1, 1, 6), (6, 6, 4, 8, 3, 1, 0, 1),
              (7, 7, 3, 3, 5, 1, 2, 3), (9, 9, 2, 2, 3, 1, 1, 2)]
    assert len(cases) >= 20
    for h, w, cin, cout, k, stride, pad, g in cases:
        # scaled so outputs stay O(1); the 1e-6 f32 bound is absolute
        x = (0.5 * rng.standard_normal((h, w, cin))).astype(dtype)
        wt = (0.5 * rng.standard_normal((k, k, cin // g, cout))).astype(dtype)
        b = rng.standard_normal((cout,)).astype(dtype)
        got = T.conv2d(Tensor(x), Tensor(wt), Tensor(b),
                       stride=stride, padding=pad, groups=g).data
        want = naive_conv2d(x.astype(np.float64), wt.astype(np.float64),
                            b.astype(np.float64), stride, pad, g)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol_for(dtype)


def test_conv2d_rejects_groupings_other_than_dense_and_depthwise():
    x = Tensor(np.zeros((5, 5, 4)))
    with pytest.raises(ValueError, match="depthwise"):
        T.conv2d(x, Tensor(np.zeros((3, 3, 2, 4))), Tensor(np.zeros(4)), groups=2)


def test_conv2d_rejects_a_strided_depthwise_conv():
    x = Tensor(np.zeros((6, 6, 4)))
    w, b = Tensor(np.zeros((3, 3, 1, 4))), Tensor(np.zeros(4))
    with pytest.raises(ValueError, match="stride 1"):
        T.conv2d(x, w, b, stride=2, padding=1, groups=4)
    assert T.conv2d(x, w, b, padding=1, groups=4).shape == (6, 6, 4)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_avgpool2d_matches_naive_oracle(dtype):
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.choice([2, 3, 4]))
        h = k * int(rng.integers(1, 4))
        w = k * int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        x = rng.standard_normal((h, w, c)).astype(dtype)
        got = T.avgpool2d(Tensor(x), k).data
        want = np.zeros((h // k, w // k, c), dtype=np.float64)
        for i in range(h // k):
            for j in range(w // k):
                want[i, j] = x[i * k:(i + 1) * k, j * k:(j + 1) * k].astype(
                    np.float64).mean(axis=(0, 1))
        assert np.abs(got - want).max() <= tol_for(dtype)


def test_avgpool2d_rejects_ragged_extent():
    with pytest.raises(ValueError):
        T.avgpool2d(Tensor(np.zeros((5, 4, 1))), 2)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bilinear_resize_matches_naive_oracle(dtype):
    rng = np.random.default_rng(13)
    for _ in range(20):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        oh, ow = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        c = int(rng.integers(1, 4))
        x = rng.standard_normal((h, w, c)).astype(dtype)
        got = T.bilinear_resize(Tensor(x), oh, ow).data
        xd = x.astype(np.float64)
        want = np.zeros((oh, ow, c), dtype=np.float64)
        for i in range(oh):
            for j in range(ow):
                sy = min(max((i + 0.5) * h / oh - 0.5, 0.0), h - 1.0)
                sx = min(max((j + 0.5) * w / ow - 0.5, 0.0), w - 1.0)
                y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                fy, fx = sy - y0, sx - x0
                top = xd[y0, x0] + fx * (xd[y0, x1] - xd[y0, x0])
                bot = xd[y1, x0] + fx * (xd[y1, x1] - xd[y1, x0])
                want[i, j] = top + fy * (bot - top)
        assert np.abs(got - want).max() <= tol_for(dtype)


def test_bilinear_resize_preserves_constants_exactly():
    for value in (0.0, 1.0, -3.25, 0.1):
        x = Tensor(np.full((5, 3, 2), value, dtype=np.float32))
        y = T.bilinear_resize(x, 7, 7).data
        assert (y == np.float32(value)).all()


def test_layernorm_matches_direct_formula():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((6, 5))
    gamma = rng.standard_normal(5)
    beta = rng.standard_normal(5)
    got = T.layernorm(Tensor(x), Tensor(gamma), Tensor(beta)).data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-6) * gamma + beta
    assert np.abs(got - want).max() < 1e-12


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, 7))
    s = T.softmax(Tensor(x)).data
    assert np.abs(s.sum(axis=-1) - 1.0).max() < 1e-12
    assert (s > 0).all()
    shifted = T.softmax(Tensor(x + 100.0)).data
    assert np.abs(s - shifted).max() < 1e-12


def test_softmax_rejects_non_finite_input():
    bad = np.array([[0.0, np.inf]])
    with pytest.raises(FloatingPointError):
        T.softmax(Tensor(bad))


def test_gelu_and_sigmoid_reference_points():
    x = Tensor(np.array([0.0, 1.0, -1.0]))
    g = T.gelu(x).data
    assert abs(g[0]) < 1e-12
    assert abs(g[1] - 0.8413447460685429) < 1e-6
    s = T.sigmoid(Tensor(np.array([0.0]))).data
    assert abs(s[0] - 0.5) < 1e-12


@pytest.mark.parametrize("n", [1, 31, 4095, 4096])
def test_float32_gelu_matches_the_float64_erf_gelu(n):
    # below 4,096 elements Phi comes from the table, from 4,096 on from the
    # rational erf; each array also carries one point at or next to the table's
    # ends at +-6, where the interpolation meets the clamp
    grid = np.linspace(-12.0, 12.0, n).astype(np.float32)
    for edge in (None, -6.0001, -6.0, -5.9999, 5.9999, 6.0, 6.0001):
        x = grid.copy()
        if edge is not None:
            x[n // 2] = edge
        got = T.gelu(Tensor(x)).data
        assert got.dtype == np.float32 and got.shape == x.shape
        x64 = x.astype(np.float64)
        want = exact_gelu(x64)
        assert (np.abs(got - want) <= 2e-6 * np.maximum(1.0, np.abs(x64))).all()

    # the limits: gelu(inf) = inf with slope 1, gelu(-inf) = 0 with slope 0,
    # and NaN stays NaN, on each path and in float64
    special = np.full(max(n, 3), 0.5, np.float32)
    special[:3] = [np.inf, -np.inf, np.nan]
    for dtype in (np.float32, np.float64):
        x = Tensor(special.astype(dtype), requires_grad=True)
        tape = GradTape()
        with tape:
            y = T.gelu(x)
            loss = T.sum(T.slice_axis(y, 0, 0, 2))
        T.backward(tape, loss)
        assert y.data[0] == np.inf and y.data[1] == 0.0 and np.isnan(y.data[2])
        assert x.grad[0] == 1.0 and x.grad[1] == 0.0


def test_float64_gelu_is_the_libm_erf_gelu():
    x = np.concatenate([np.linspace(-40.0, 40.0, 2001),
                        np.random.default_rng(30).standard_normal(500)])
    got = T.gelu(Tensor(x)).data
    assert got.dtype == np.float64
    ulp = np.finfo(np.float64).eps
    assert (np.abs(got - exact_gelu(x)) <= 4 * ulp * np.maximum(1.0, np.abs(x))).all()


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-15)])
def test_sigmoid_keeps_full_relative_accuracy_in_both_tails(dtype, rtol):
    x = np.linspace(-80.0, 80.0, 1601).astype(dtype)
    got = T.sigmoid(Tensor(x)).data
    assert got.dtype == dtype
    want = exact_sigmoid(x)
    assert (np.abs(got - want) <= rtol * want).all()

    # the limits, and inputs whose exp(-x) would overflow
    s = T.sigmoid(Tensor(np.array([np.inf, -np.inf, np.nan, 1e3, -1e3], dtype))).data
    assert s[0] == 1.0 and s[1] == 0.0 and np.isnan(s[2])
    assert s[3] == 1.0 and s[4] == 0.0


def test_broadcast_gradient_unbroadcasts_to_parameter_shape():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones((4,)), requires_grad=True)
    tape = GradTape()
    with tape:
        loss = T.sum(T.add(x, b))
    T.backward(tape, loss)
    assert x.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert (b.grad == 3.0).all()


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    tape = GradTape()
    with tape:
        y = T.add(x, x)
    with pytest.raises(ValueError):
        T.backward(tape, y)


def test_ops_are_deterministic():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((8, 8, 3)).astype(np.float32)
    w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    a = T.conv2d(Tensor(x), Tensor(w), Tensor(bias), stride=2, padding=1).data
    b = T.conv2d(Tensor(x), Tensor(w), Tensor(bias), stride=2, padding=1).data
    assert (a == b).all()


def test_mac_counter_counts_matmul_and_conv():
    with T.count_macs() as counter:
        T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))))
        T.conv2d(Tensor(np.zeros((6, 6, 2))), Tensor(np.zeros((3, 3, 2, 4))),
                 Tensor(np.zeros(4)), padding=1)
    assert counter.total == 3 * 4 * 5 + 6 * 6 * 9 * 2 * 4


def test_reshape_transpose_concat_slice_round_trip():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 6, 2))
    t = Tensor(x)
    back = T.transpose(T.transpose(t, (2, 0, 1)), (1, 2, 0)).data
    assert (back == x).all()
    flat = T.reshape(t, (24, 2))
    a = T.slice_axis(flat, 0, 0, 10)
    b = T.slice_axis(flat, 0, 10, 24)
    rejoined = T.concat([a, b], axis=0).data
    assert (rejoined == flat.data).all()


def test_inputs_of_one_op_get_separate_gradient_buffers():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    tape = GradTape()
    with tape:
        loss = T.sum(T.add(a, b))
    T.backward(tape, loss)
    before = b.grad.copy()
    a.grad += 5.0
    assert (b.grad == before).all()


def test_gradient_from_a_broadcast_view_is_writable():
    # sum's backward hands a read-only np.broadcast_to view to _accum
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    tape = GradTape()
    with tape:
        loss = T.sum(x)
    T.backward(tape, loss)
    assert x.grad.flags.writeable and x.grad.flags.c_contiguous
    x.grad *= 2.0
    assert (x.grad == 2.0).all()


def test_overlapping_slices_accumulate_like_a_zero_initialised_oracle():
    rng = np.random.default_rng(18)
    x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    spans = [(0, 5), (3, 8), (2, 6)]
    # integer weights keep every partial sum exact, whatever the order
    weights = [rng.integers(-3, 4, size=(3, b - a)).astype(np.float64)
               for a, b in spans]
    tape = GradTape()
    with tape:
        terms = [T.sum(T.mul(T.slice_axis(x, 1, a, b), Tensor(w)))
                 for (a, b), w in zip(spans, weights)]
        loss = T.add(T.add(terms[0], terms[1]), terms[2])
    T.backward(tape, loss)
    want = np.zeros_like(x.data)
    for (a, b), w in zip(spans, weights):
        want[:, a:b] += w
    assert (x.grad == want).all()


def test_backward_on_a_consumed_tape_raises():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    tape = GradTape()
    with tape:
        loss = T.sum(T.mul(x, x))
    T.backward(tape, loss)
    assert len(tape) == 0
    before = x.grad.copy()
    # a second replay would add the gradient twice; it must not pass silently
    with pytest.raises(ValueError, match="already"):
        T.backward(tape, loss)
    assert (x.grad == before).all()
