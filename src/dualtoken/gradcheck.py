"""Central finite-difference gradient checking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import GradTape, Tensor, backward


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    checked: int

    def __bool__(self):
        return self.passed


def grad_check(f, x, tol=1e-4, max_coords=None, seed=0):
    """Compare the analytic gradient of scalar-valued f at x against central
    finite differences with step 1e-5 * max(1, |x_i|), in f64.

    `max_coords` caps the number of coordinates probed (a deterministic
    random sample) so large tensors stay tractable.
    """
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    tape = GradTape()
    with tape:
        y = f(x64)
    if y.size != 1:
        raise ValueError(f"grad_check expects a scalar-valued f, got shape {y.shape}")
    backward(tape, y)
    analytic = np.zeros_like(x64.data) if x64.grad is None else x64.grad

    flat = x64.data.reshape(-1)
    n = flat.size
    if max_coords is not None and max_coords < n:
        rng = np.random.default_rng(seed)
        coords = rng.choice(n, size=max_coords, replace=False)
    else:
        coords = np.arange(n)

    return central_differences(lambda: f(Tensor(x64.data.copy())), flat,
                               analytic, coords, tol)


def central_differences(value, flat, analytic, coords, tol):
    """Probe each coordinate i of `flat` (a view into the inputs of the
    scalar-valued closure `value`) with step 1e-5 * max(1, |flat[i]|) and
    compare the central difference against `analytic` (same size as flat).
    Every coordinate is restored after its probe."""
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
    return GradCheckReport(max_rel_err=float(max_rel), passed=bool(max_rel <= tol),
                           checked=len(coords))
