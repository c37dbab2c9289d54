"""The finite-difference checker itself: accepts correct gradients and flags
broken ones."""

import math

import numpy as np
import pytest

from dualtoken import checks, tensor as T
from dualtoken.gradcheck import grad_check
from dualtoken.tensor import Tensor


def test_accepts_a_correct_gradient():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)),
               requires_grad=True)
    report = grad_check(lambda t: T.sum(T.gelu(t)), x)
    assert report.passed
    assert report.checked == 12
    assert report.max_rel_err <= 1e-4


def test_flags_a_broken_gradient():
    def wrong(t):
        # correct forward value, deliberately doubled backward
        out = Tensor(t.data.sum())
        if T._trace(t):
            def bwd(g, t=t):
                T._accum(t, 2.0 * g * np.ones_like(t.data))
            T._emit(out, bwd)
        return out

    x = Tensor(np.ones((2, 3)), requires_grad=True)
    report = grad_check(wrong, x)
    assert not report.passed
    assert report.max_rel_err > 0.4


def test_rejects_non_scalar_objective():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda t: T.add(t, t), x)


def test_report_is_truthy_iff_passed():
    x = Tensor(np.ones(3), requires_grad=True)
    report = grad_check(lambda t: T.mean(t), x)
    assert bool(report) is report.passed is True


def test_model_suite_flags_a_wrong_backward(monkeypatch):
    # the erf GELU with its backward scaled by 1.01
    def gelu_off_by_one_percent(x):
        erf = np.array([math.erf(v / math.sqrt(2.0)) for v in x.data.ravel().tolist()],
                       dtype=x.data.dtype)
        phi = 0.5 * (1.0 + erf.reshape(x.shape))
        out = Tensor(x.data * phi)
        if T._trace(x):
            def bwd(g, x=x, phi=phi):
                pdf = np.exp(-0.5 * x.data * x.data) / np.sqrt(2.0 * np.pi)
                T._accum(x, 1.01 * g * (phi + x.data * pdf))
            T._emit(out, bwd)
        return out

    monkeypatch.setattr(T, "gelu", gelu_off_by_one_percent)
    reports = dict(checks.gradcheck_model())
    assert not reports["model.input"].passed
    # the last linear layer sits after every GELU, so its bias is unaffected
    assert reports["model.head.lin2.bias"].passed
