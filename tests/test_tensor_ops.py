"""Oracle-equivalence and property tests for the tensor primitives."""

import decimal
import math
import re
import tracemalloc

import numpy as np
import pytest

from dualtoken import tensor as T
from dualtoken.model import build_model
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


def exact_gelu_grad(x):
    """Phi(x) + x * pdf(x) in float64 through libm's erf, for any float array."""
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                     + v * math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
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


def _model_product_shapes():
    """(m, k, n) of every 2-d product that a toy and a dualtoken_t_mix 224^2
    forward take through `T.matmul`: a dense conv's among them, whose
    backward multiplies the same layouts per map (cols^T @ dy and
    dy @ W^T)."""
    shapes = set()
    matmul = T.matmul

    def caught_matmul(a, b):
        shapes.add(a.shape + b.shape[1:])
        return matmul(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "matmul", caught_matmul)
        for name in ("toy", "dualtoken_t_mix"):
            model = build_model(name, seed=0)
            side = model.cfg.input_resolution
            image = np.random.default_rng(1).standard_normal((side, side, 3))
            model.forward(Tensor(image.astype(np.float32)), want_activations=False)
    return sorted(shapes)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_matmul_and_its_gradients_are_bitwise_np_matmul(dtype):
    # products go through np.dot, which picks its BLAS call by the operands'
    # shapes, as `@` does: a row, a column or an inner dimension of 1 is
    # where the two could part, so those cases come first
    shapes = [(1, 7, 5), (1, 1280, 1000), (6, 9, 1), (1, 8, 1), (1, 1, 3), (9, 1, 7)]
    shapes += _model_product_shapes()
    rng = np.random.default_rng(13)
    for m, k, n in shapes:
        a = Tensor(rng.standard_normal((m, k)).astype(dtype), requires_grad=True)
        b = Tensor(rng.standard_normal((k, n)).astype(dtype), requires_grad=True)
        g = rng.standard_normal((m, n)).astype(dtype)
        tape = GradTape()
        with tape:
            out = T.matmul(a, b)
            loss = T.sum(T.mul(out, Tensor(g)))
        T.backward(tape, loss)
        for got, want in ((out.data, np.matmul(a.data, b.data)),
                          (a.grad, np.matmul(g, b.data.T)),
                          (b.grad, np.matmul(a.data.T, g))):
            assert got.dtype == dtype and got.flags.c_contiguous, (m, k, n)
            assert got.shape == want.shape, (m, k, n)
            assert got.tobytes() == want.tobytes(), (m, k, n)


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


@pytest.mark.parametrize("kh, kw", [(2, 2), (4, 4), (3, 2), (4, 3)])
def test_conv2d_refuses_same_padding_with_an_even_kernel(kh, kw):
    # an even kernel has no centre: "same" would return a smaller map
    x = Tensor(np.zeros((5, 5, 4)))
    w, b = Tensor(np.zeros((kh, kw, 1, 4))), Tensor(np.zeros(4))
    with pytest.raises(ValueError, match="odd kernel"):
        T.conv2d(x, w, b, padding="same", groups=4)


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


def composed_attention(q, k, v, heads):
    """The chain of primitives that `T.attention` runs as one op: Q scaled,
    K transposed, per head three slices, two products and a softmax, then
    a concat."""
    d = q.shape[1] // heads
    qs = T.scale(q, 1.0 / math.sqrt(d))
    kt = T.transpose(k)
    outs, maps = [], []
    for h in range(heads):
        qh = T.slice_axis(qs, 1, h * d, (h + 1) * d)
        kth = T.slice_axis(kt, 0, h * d, (h + 1) * d)
        vh = T.slice_axis(v, 1, h * d, (h + 1) * d)
        a = T.softmax(T.matmul(qh, kth))
        outs.append(T.matmul(a, vh))
        maps.append(a.data)
    return T.concat(outs, axis=1), maps


# (Tq, Tk, C, heads, inputs that take gradients, samples stacked or None)
_ATTENTION_CASES = {
    "one_head": (5, 5, 4, 1, "qkv", None),
    "one_key": (4, 1, 8, 2, "qkv", None),
    "tq_ne_tk": (3, 7, 12, 3, "qkv", None),
    "eight_heads": (4, 12, 32, 8, "qkv", None),
    "v_only": (4, 6, 8, 2, "v", None),
    # a stack of three samples, each compared with the chain run on it alone
    "one_key_stacked": (4, 1, 8, 2, "qkv", 3),
    "eight_heads_stacked": (4, 12, 32, 8, "qkv", 3),
    "v_only_stacked": (4, 6, 8, 2, "v", 3),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", list(_ATTENTION_CASES))
def test_attention_is_bitwise_the_composed_chain(case, dtype):
    tq, tk, c, heads, grads, n = _ATTENTION_CASES[case]
    rng = np.random.default_rng(42)
    lead = () if n is None else (n,)
    arrays = [rng.standard_normal(lead + shape).astype(dtype)
              for shape in ((tq, c), (tk, c), (tk, c))]
    weight = rng.standard_normal(lead + (tq, c)).astype(dtype)

    def run(attention, arrays, weight):
        q, k, v = (Tensor(a.copy(), requires_grad=name in grads)
                   for name, a in zip("qkv", arrays))
        tape = GradTape()
        with tape:
            out, maps = attention(q, k, v, heads)
            records = len(tape)
            loss = T.sum(T.mul(out, Tensor(weight)))
        T.backward(tape, loss)
        return out.data, maps, [t.grad for t in (q, k, v)], records

    out, maps, grads_got, records = run(T.attention, arrays, weight)
    assert records == 1
    if n is None:
        got = [(out, maps, grads_got)]
        want = [run(composed_attention, arrays, weight)]
    else:
        assert out.shape == (n, tq, c)
        assert maps.shape == (n, heads, tq, tk)
        got = [(out[i], maps[i], [None if g is None else g[i] for g in grads_got])
               for i in range(n)]
        want = [run(composed_attention, [a[i] for a in arrays], weight[i]) for i in range(n)]
    for (out, maps, grads_got), (want_out, want_maps, grads_want, _) in zip(got, want):
        assert out.dtype == dtype and out.tobytes() == want_out.tobytes()
        assert [m.tobytes() for m in maps] == [m.tobytes() for m in want_maps]
        for name, g, w in zip("qkv", grads_got, grads_want):
            assert (g is None) == (name not in grads), name
            if g is not None:
                assert g.dtype == dtype and g.tobytes() == w.tobytes(), name
        if tk == 1:
            # one key: every softmax row is exactly 1, whatever the queries
            assert not np.any(grads_got[0]) and not np.any(grads_got[1])


def test_attention_refuses_inputs_that_do_not_fit():
    x = Tensor(np.zeros((3, 8)))
    with pytest.raises(ValueError, match="heads"):
        T.attention(x, x, x, 3)
    with pytest.raises(ValueError, match="keys and values"):
        T.attention(x, x, Tensor(np.zeros((2, 8))), 2)
    with pytest.raises(ValueError, match="keys and values"):
        T.attention(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))), 2)


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
    # tanh form; each array also carries one point at or next to +-6, where
    # the table's interpolation and the tanh form's argument meet their clamp
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


def test_float32_gelu_tanh_path_holds_the_bound_densely():
    # 2^20 points on [-12, 12], the 16 float32 neighbours on each side of
    # both ends of the tanh form's clamp, points 1e-4 to 1e-1 either side of
    # them, and finite values large enough to overflow x * P(R^2)
    big = float(np.finfo(np.float32).max)
    pts = [1e30, -1e30, 1.7e38, -1.7e38, big, -big]
    for edge in (-T._PHI_TANH_CLAMP, T._PHI_TANH_CLAMP):
        up = down = np.float32(edge)
        pts.append(up)
        for _ in range(16):
            up = np.nextafter(up, np.float32(np.inf))
            down = np.nextafter(down, np.float32(-np.inf))
            pts += [up, down]
        pts += [edge + d for d in (-1e-1, -1e-2, -1e-3, -1e-4, 1e-4, 1e-3, 1e-2, 1e-1)]
    x = np.concatenate([np.linspace(-12.0, 12.0, 1 << 20), pts]).astype(np.float32)
    assert x.size >= T._PHI_TANH_MIN_SIZE
    got = T.gelu(Tensor(x)).data
    x64 = x.astype(np.float64)
    err = np.abs(got - exact_gelu(x64))
    assert (err <= 2e-6 * np.maximum(1.0, np.abs(x64))).all()


@pytest.mark.parametrize("n", [4095, 1 << 16], ids=["table", "tanh"])
def test_a_taped_gelu_keeps_one_array_and_its_gradient_keeps_its_bits(n):
    # the record keeps Phi + t pdf(t), which the forward computes; the
    # backward multiplies it into g, so the gradient has the bits of
    # g * (Phi + t pdf(t)) evaluated step by step below (products commute)
    rng = np.random.default_rng(31)
    xd = np.concatenate([np.linspace(-12.0, 12.0, n - 4), [-50.0, -40.0, 40.0, 50.0]])
    rng.shuffle(xd)
    x = Tensor(xd.astype(np.float32), requires_grad=True)
    gd = rng.standard_normal(n).astype(np.float32)
    tracemalloc.start()
    try:
        tape = GradTape()
        with tape:
            # GELU's input is an activation, which no other record keeps
            y = T.gelu(T.scale(x, 1.0))
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    finally:
        tracemalloc.stop()
    # numpy's buffers alive after the forward: the output and one array
    held = sum(trace.size for trace in held.traces)
    assert 2 * x.data.nbytes <= held < 2 * x.data.nbytes + 1024
    with tape:
        loss = T.sum(T.mul(y, Tensor(gd)))
    T.backward(tape, loss)

    if n >= T._PHI_TANH_MIN_SIZE:
        phi = T._phi_tanh_f32(x.data)[0]
    else:
        phi = T._phi_table_f32(x.data)
    t = np.clip(x.data, -T._GELU_TAIL, T._GELU_TAIL)
    d = -0.5 * t
    d *= t
    np.exp(d, out=d)
    d *= T._INV_SQRT_2PI
    d *= t
    d += phi
    d *= gd
    assert x.grad.dtype == np.float32 and x.grad.tobytes() == d.tobytes()


@pytest.mark.parametrize("n", [31, 4095, 4096, 1 << 20])
def test_float32_gelu_gradient_matches_the_float64_erf_derivative(n):
    # the float32 backward, g * (Phi + x pdf(x)) with the saved Phi of either
    # path, against the float64 derivative; the gradient lies in [-0.17, 1.13],
    # so an absolute bound: 5e-7, about twice the worst measured on [-12, 12]
    # and [-40, 40] (2.4e-7 on the table path at n = 4,095, 1.7e-7 on the
    # tanh form at n = 2^21, with numpy's default and baseline tanh kernels)
    x = Tensor(np.linspace(-12.0, 12.0, n).astype(np.float32), requires_grad=True)
    tape = GradTape()
    with tape:
        loss = T.sum(T.gelu(x))
    T.backward(tape, loss)
    assert x.grad.dtype == np.float32
    assert (np.abs(x.grad - exact_gelu_grad(x.data)) <= 5e-7).all()


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["one_map", "stack_of_3"])
def test_sub_and_both_its_gradients_are_bitwise_a_subtraction(lead, dtype):
    rng = np.random.default_rng(17)
    a, b, g = (rng.standard_normal(lead + (4, 5, 3)).astype(dtype) for _ in range(3))
    # signed zeros: 0 - -0, -0 - 0 and a zero gradient keep their signs
    a.flat[:2], b.flat[:2], g.flat[2] = (0.0, -0.0), (-0.0, 0.0), 0.0
    ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    tape = GradTape()
    with tape:
        out = T.sub(ta, tb)
        loss = T.sum(T.mul(out, Tensor(g)))
    T.backward(tape, loss)
    assert out.data.dtype == dtype and out.data.tobytes() == (a - b).tobytes()
    assert ta.grad.dtype == dtype and ta.grad.tobytes() == g.tobytes()
    assert tb.grad.dtype == dtype and tb.grad.tobytes() == (-g).tobytes()


def test_a_gradient_that_does_not_reduce_to_its_tensors_shape_is_refused():
    # same size, other shape: a reshape would pass it on without an error
    x = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    with pytest.raises(ValueError, match=r"\(4, 2, 3\).*\(2, 3, 4\)"):
        T._accum(x, np.ones((4, 2, 3)), True)
    assert x.grad is None


@pytest.mark.parametrize("data", [np.array([1 + 2j]), [0.5j, 1.0], np.zeros((2, 2), np.complex64)],
                         ids=["complex128", "list", "complex64"])
def test_tensor_refuses_complex_data(data):
    # a cast to float would drop the imaginary part with only a warning
    with pytest.raises(ValueError, match=np.asarray(data).dtype.name):
        Tensor(data)


def test_tensor_copies_a_strided_view_and_casts_other_real_data():
    # ops hand their own arrays to a private constructor; data from outside
    # still goes through every check and conversion
    base = np.arange(12.0).reshape(3, 4)
    t = Tensor(base[:, ::2])
    assert t.data.flags.c_contiguous and not np.shares_memory(t.data, base)
    assert t.data.tobytes() == base[:, ::2].copy().tobytes()
    assert Tensor(np.arange(3)).data.dtype == np.float32
    kept = np.zeros((2, 3), np.float32)
    assert Tensor(kept).data is kept
    assert Tensor(np.float64(2.5)).data.shape == (1,)


@pytest.mark.parametrize("dtype", [">f8", "<f8", ">f4", "<f4"])
def test_tensor_keeps_the_width_of_floats_in_either_byte_order(dtype):
    # 1e300 is beyond float32: a cast to it would give inf with a warning
    values = [1 / 3, 1e300] if dtype.endswith("8") else [1 / 3, 3e38]
    data = np.array(values, dtype=dtype)
    t = Tensor(data)
    native = np.dtype(dtype).newbyteorder("=")
    assert t.data.dtype == native and t.data.dtype.isnative
    assert t.data.tobytes() == data.astype(native).tobytes()


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


@pytest.mark.parametrize("axis, start, stop, bad", [
    (2, 0, 1, "2"), (-3, 0, 1, "-3"), (99, 0, 1, "99"),
    (1, -1, 4, "-1"), (1, 2, 99, "99"), (1, 4, 4, "[4, 4)"), (1, 5, 3, "[5, 3)"),
], ids=["axis2", "axis-3", "axis99", "start-1", "stop99", "empty", "reversed"])
def test_slice_axis_refuses_an_axis_or_range_outside_the_tensor(axis, start, stop, bad):
    x = Tensor(np.zeros((3, 8)))
    with pytest.raises(ValueError, match=re.escape(bad)):
        T.slice_axis(x, axis, start, stop)


def test_slice_axis_takes_a_negative_axis():
    x = np.arange(24.0).reshape(3, 8)
    assert T.slice_axis(Tensor(x), -1, 2, 5).data.tobytes() == x[:, 2:5].copy().tobytes()
    assert T.slice_axis(Tensor(x), -2, 1, 3).data.tobytes() == x[1:3].tobytes()


@pytest.mark.parametrize("axes", [(2, 0, 1), (-1, 0, 1), (-1, -3, -2), (1, -1, 0)])
def test_transpose_gradient_undoes_the_permutation(axes):
    # a negative axis counts from the end, in the backward as in np.transpose
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    g = rng.standard_normal(np.transpose(x.data, axes).shape)
    tape = GradTape()
    with tape:
        loss = T.sum(T.mul(T.transpose(x, axes), Tensor(g)))
    T.backward(tape, loss)
    want = np.transpose(g, np.argsort([a % 3 for a in axes]))
    assert x.grad.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("axis", [0, 1, -1, -2])
def test_concat_gradient_splits_along_the_axis(axis):
    rng = np.random.default_rng(20)
    shapes = [(3, 2), (3, 4), (3, 1)] if axis % 2 else [(2, 3), (4, 3), (1, 3)]
    xs = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    g = rng.standard_normal(np.concatenate([x.data for x in xs], axis=axis).shape)
    tape = GradTape()
    with tape:
        loss = T.sum(T.mul(T.concat(xs, axis=axis), Tensor(g)))
    T.backward(tape, loss)
    parts = np.split(g, np.cumsum([x.shape[axis] for x in xs])[:-1], axis=axis)
    for x, want in zip(xs, parts):
        assert x.grad.tobytes() == np.ascontiguousarray(want).tobytes()


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


def test_backward_hands_over_each_leaf_once_its_gradient_is_complete():
    def run(*hook):
        # x is read by three ops; z's only record is cut off from the loss;
        # the image takes no gradient
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        z = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        image = Tensor(rng.standard_normal((3, 4)))
        tape = GradTape()
        with tape:
            h = T.mul(x, image)
            u = T.matmul(h, w)
            v = T.add(T.scale(x, 2.0), h)
            T.mul(z, x)
            loss = T.add(T.sum(u), T.sum(T.mul(v, v)))
        T.backward(tape, loss, *hook)
        return x, w, z, image

    seen = []

    def on_leaf_done(leaf):
        seen.append((leaf, None if leaf.grad is None else leaf.grad.copy()))

    x, w, z, image = run(on_leaf_done)
    # once per leaf that takes gradients, in reverse order of first use,
    # each gradient complete when it is handed over
    assert [leaf for leaf, _ in seen] == [z, w, x]
    for leaf, grad in seen:
        if leaf is z:
            assert grad is None and z.grad is None
        else:
            assert grad.tobytes() == leaf.grad.tobytes()
    assert image.grad is None
    v = 2 * x.data + x.data * image.data
    want_x = image.data * w.data.sum(axis=1) + 2 * v * (2 + image.data)
    assert np.allclose(x.grad, want_x, rtol=1e-12, atol=1e-12)

    # without the hook, the same gradients
    for got, ref in zip((x, w, z, image), run()):
        assert (got.grad is None) == (ref.grad is None)
        if got.grad is not None:
            assert got.grad.tobytes() == ref.grad.tobytes()
