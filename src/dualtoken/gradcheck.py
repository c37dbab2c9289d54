"""Central finite-difference gradient checking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import GradTape, Tensor, backward

GRADCHECK_TOL = 1e-4  # the largest relative error a gradient check passes


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    checked: int

    def __bool__(self):
        return self.passed


def grad_check(f, x):
    """Compare the analytic gradient of scalar-valued f at x against central
    finite differences with step 1e-5 * max(1, |x_i|), in f64, at every
    coordinate of x."""
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    tape = GradTape()
    with tape:
        y = f(x64)
    if y.size != 1:
        raise ValueError(f"grad_check expects a scalar-valued f, got shape {y.shape}")
    backward(tape, y)
    analytic = np.zeros_like(x64.data) if x64.grad is None else x64.grad

    flat = x64.data.reshape(-1)
    return central_differences(lambda: f(Tensor(x64.data.copy())), flat,
                               analytic, np.arange(flat.size))


def central_differences(value, flat, analytic, coords):
    """Probe each coordinate i of `flat` (a view into the inputs of the
    scalar-valued closure `value`) with step 1e-5 * max(1, |flat[i]|) and
    compare the central difference against `analytic` (same size as flat);
    the check passes when no relative error exceeds `GRADCHECK_TOL`. Every
    coordinate is restored after its probe."""
    aflat = analytic.reshape(-1)
    max_rel = 0.0
    for i in coords:
        old = flat[i]
        h = 1e-5 * max(1.0, abs(old))
        flat[i] = old + h
        fp = value().item()
        flat[i] = old - h
        fm = value().item()
        flat[i] = old
        num = (fp - fm) / (2.0 * h)
        a = aflat[i]
        rel = abs(a - num) / max(abs(a), abs(num), 1e-2)
        if rel > max_rel:
            max_rel = rel
    return GradCheckReport(max_rel_err=float(max_rel),
                           passed=bool(max_rel <= GRADCHECK_TOL), checked=len(coords))
