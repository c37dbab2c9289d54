import pytest

from dualtoken import tensor as T


@pytest.fixture
def bilinear_calls(monkeypatch):
    """The (h, w) of every map handed to `tensor.bilinear_resize`, the
    downsampler's fallback when its pooling misses the token grid."""
    calls = []
    real = T.bilinear_resize

    def spy(x, out_h, out_w):
        calls.append(tuple(x.shape[:2]))
        return real(x, out_h, out_w)

    monkeypatch.setattr(T, "bilinear_resize", spy)
    return calls
