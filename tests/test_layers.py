"""Linear, layer norm, attention, and initialization."""

import numpy as np
import pytest

from dualtoken import layers

from dualtoken.layers import LayerNorm, Linear, MultiHeadAttention, init_params
from dualtoken.tensor import Tensor


def reference_mhsa(attn, q_src, kv_src):
    """Brute-force per-query attention in plain float64 numpy."""
    q = q_src @ attn.q_proj.weight.data + attn.q_proj.bias.data
    k = kv_src @ attn.k_proj.weight.data + attn.k_proj.bias.data
    v = kv_src @ attn.v_proj.weight.data + attn.v_proj.bias.data
    d = attn.head_dim
    heads = []
    for h in range(attn.heads):
        qh, kh, vh = (m[:, h * d:(h + 1) * d] for m in (q, k, v))
        out = np.zeros_like(qh)
        for i in range(qh.shape[0]):
            logits = np.array([qh[i] @ kh[j] / np.sqrt(d)
                               for j in range(kh.shape[0])])
            w = np.exp(logits - logits.max())
            w /= w.sum()
            out[i] = sum(w[j] * vh[j] for j in range(vh.shape[0]))
        heads.append(out)
    cat = np.concatenate(heads, axis=1)
    return cat @ attn.out_proj.weight.data + attn.out_proj.bias.data


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_mhsa_matches_brute_force_oracle(heads):
    rng = np.random.default_rng(30)
    for _ in range(7):
        n = int(rng.integers(1, 9))
        c = heads * int(rng.integers(1, 17 // heads))
        attn = MultiHeadAttention(np.random.default_rng(31), c, heads)
        x = rng.standard_normal((n, c)).astype(np.float32)
        got = attn(Tensor(x)).data
        want = reference_mhsa(attn, x.astype(np.float64), x.astype(np.float64))
        assert np.abs(got - want).max() <= 1e-5


def test_cross_attention_matches_oracle():
    rng = np.random.default_rng(32)
    attn = MultiHeadAttention(np.random.default_rng(33), 8, 2)
    q_src = rng.standard_normal((5, 8)).astype(np.float32)
    kv_src = rng.standard_normal((3, 8)).astype(np.float32)
    got = attn(Tensor(q_src), Tensor(kv_src)).data
    want = reference_mhsa(attn, q_src.astype(np.float64),
                          kv_src.astype(np.float64))
    assert np.abs(got - want).max() <= 1e-5


def test_single_key_attention_ignores_the_queries():
    # with one key/value the softmax weight is 1 for every query
    rng = np.random.default_rng(34)
    attn = MultiHeadAttention(np.random.default_rng(35), 8, 2)
    kv = Tensor(rng.standard_normal((1, 8)).astype(np.float32))
    out = attn(Tensor(rng.standard_normal((6, 8)).astype(np.float32)), kv).data
    assert np.abs(out - out[0]).max() <= 1e-6


def test_attention_weights_are_row_stochastic():
    rng = np.random.default_rng(36)
    attn = MultiHeadAttention(np.random.default_rng(37), 8, 4)
    x = Tensor(rng.standard_normal((9, 8)).astype(np.float32))
    _, w = attn(x, need_weights=True)
    assert w.shape == (9, 9)
    assert np.abs(w.sum(axis=-1) - 1.0).max() <= 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_head_average_is_bitwise_the_mean_of_the_stacked_maps(monkeypatch, heads, dtype):
    attn = MultiHeadAttention(np.random.default_rng(38), 4 * heads, heads)
    for _, p in attn.named_params():
        p.data = p.data.astype(dtype)
    maps = []
    softmax = layers.T.softmax

    def keeping(x):
        out = softmax(x)
        maps.append(out.data.copy())
        return out

    monkeypatch.setattr(layers.T, "softmax", keeping)
    rng = np.random.default_rng(39)
    for n, m in [(16, 4), (37, 11)]:
        maps.clear()
        q = Tensor(rng.standard_normal((n, 4 * heads)).astype(dtype))
        kv = Tensor(rng.standard_normal((m, 4 * heads)).astype(dtype))
        _, avg = attn(q, kv, need_weights=True)
        assert len(maps) == heads
        want = np.mean(np.stack(maps), axis=0)
        assert avg.dtype == want.dtype and avg.shape == want.shape == (n, m)
        assert avg.tobytes() == want.tobytes()


def test_attention_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        MultiHeadAttention(np.random.default_rng(0), 6, 4)


def test_linear_shape_validation():
    lin = Linear(np.random.default_rng(1), 4, 3)
    with pytest.raises(ValueError):
        lin(Tensor(np.zeros((2, 5))))


def test_init_is_deterministic_and_truncated():
    a = init_params(np.random.default_rng(9), (100, 100), "trunc_normal")
    b = init_params(np.random.default_rng(9), (100, 100), "trunc_normal")
    assert (a.data == b.data).all()
    assert np.abs(a.data).max() <= 0.04 + 1e-7   # clipped at 2 std
    assert abs(a.data.mean()) < 0.001
    assert 0.01 < a.data.std() < 0.03
    c = init_params(np.random.default_rng(10), (100, 100), "trunc_normal")
    assert not (a.data == c.data).all()


def test_init_schemes():
    rng = np.random.default_rng(0)
    assert (init_params(rng, (3,), "zeros").data == 0).all()
    assert (init_params(rng, (3,), "ones").data == 1).all()
    with pytest.raises(ValueError):
        init_params(rng, (3,), "uniform")


def test_layernorm_layer_normalizes_rows():
    rng = np.random.default_rng(38)
    ln = LayerNorm(np.random.default_rng(39), 16)
    y = ln(Tensor(rng.standard_normal((4, 16)).astype(np.float32))).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-5
    assert np.abs(y.std(axis=-1) - 1.0).max() < 1e-3


# one element, a chunk less one, one chunk, a chunk plus one, and the
# 1,000 x 1,280 classifier weight of the full-size presets
@pytest.mark.parametrize("shape", [(1,), (65535,), (65536,), (65537,), (1000, 1280)])
def test_chunked_trunc_normal_matches_the_one_shot_draw(shape):
    assert layers._INIT_CHUNK == 65536
    oracle_rng = np.random.default_rng(21)
    chunked_rng = np.random.default_rng(21)
    # the one-shot formula: one float64 draw of the whole shape, clipped
    want = np.clip(oracle_rng.normal(0.0, 0.02, size=shape), -0.04, 0.04).astype(np.float32)
    got = init_params(chunked_rng, shape, "trunc_normal").data
    assert got.dtype == np.float32 and got.shape == shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    assert chunked_rng.bit_generator.state == oracle_rng.bit_generator.state
