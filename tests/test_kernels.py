"""The convolution kernels keep the input precision."""

import numpy as np

from dualtoken import kernels


def test_float32_inputs_stay_float32():
    rng = np.random.default_rng(22)
    xp = rng.standard_normal((6, 6, 3)).astype(np.float32)
    w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
    dy = rng.standard_normal((4, 4, 4)).astype(np.float32)
    y = kernels.conv_forward(xp, w, 1, 1)
    assert y.dtype == np.float32
    dxp, dw = kernels.conv_backward(xp, w, dy, 1, 1)
    assert dxp.dtype == np.float32 and dw.dtype == np.float32
