"""Central finite-difference gradient checking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import GradTape, Tensor, backward

GRADCHECK_TOL = 1e-4  # the largest relative error a gradient check passes
# Floors under the denominator of the relative error, so that a derivative
# near 0 is judged by its absolute error. A coordinate's is 1e-2. Along unit
# directions, the loss derivatives of the f64 `toy` model and the 11
# criterion-7 variants of `gradcheck_model` run from 0 to 0.58 (median
# 1.6e-5); their absolute errors at step 1e-5 reach 1.0e-7. Under a floor of
# 1e-6 the worst relative error is 5.1e-5, while 1e-7 fails 170 of the 1,692
# tensors, and 1e-2 would pass a 1% error in any derivative below 1e-4.
_COORDINATE_FLOOR = 1e-2
_DIRECTION_FLOOR = 1e-6


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


def central_differences(value, flat, analytic, directions):
    """Probe the scalar-valued closure `value` along each direction of
    `directions` and compare the central difference against `analytic`, the
    gradient with respect to `flat` (a view into the inputs of `value`).

    A direction is a coordinate i, the unit vector e_i, or a unit vector of
    flat's size. Along v the step is h = 1e-5 * max(1, |<flat, v>|) (for e_i,
    1e-5 * max(1, |flat[i]|)) and the analytic value is <analytic, v>. The
    relative error divides by the larger magnitude, floored at
    `_COORDINATE_FLOOR` for a coordinate and at `_DIRECTION_FLOOR` for a unit
    vector; the check passes when no error exceeds `GRADCHECK_TOL`. `flat`
    is restored after every probe."""
    aflat = analytic.reshape(-1)
    max_rel = 0.0
    for d in directions:
        # x: flat's component along the direction; a: the analytic value
        if isinstance(d, np.ndarray):
            idx, v, floor = slice(None), d, _DIRECTION_FLOOR
            old = flat.copy()
            x, a = np.dot(old, v), np.dot(aflat, v)
        else:
            idx, v, floor = d, 1.0, _COORDINATE_FLOOR
            old = x = flat[d]
            a = aflat[d]
        h = 1e-5 * max(1.0, abs(x))
        flat[idx] = old + h * v
        fp = value().item()
        flat[idx] = old - h * v
        fm = value().item()
        flat[idx] = old
        num = (fp - fm) / (2.0 * h)
        rel = abs(a - num) / max(abs(a), abs(num), floor)
        if rel > max_rel:
            max_rel = rel
    return GradCheckReport(max_rel_err=float(max_rel),
                           passed=bool(max_rel <= GRADCHECK_TOL), checked=len(directions))
