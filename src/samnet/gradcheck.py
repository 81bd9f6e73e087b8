"""Central-difference verification of tape gradients."""

from __future__ import annotations

import numpy as np

from .params import Parameter
from .tensor import NonFiniteError


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    f is a zero-argument callable that rebuilds its graph from the current
    parameter values and returns a scalar Tensor. Returns the maximum over
    all parameter entries of |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not 1e-7 <= eps <= 1e-2:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-2]")
    params = list(params)
    for p in params:
        if not isinstance(p, Parameter):
            raise TypeError(f"expected Parameter, got {type(p)!r}")
        p.grad = None

    out = f()
    if out.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    max_rel = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NonFiniteError(
                    f"non-finite value while perturbing parameter {p.name!r}"
                )
            num = (hi - lo) / (2.0 * eps)
            denom = max(1.0, abs(float(ana_flat[i])), abs(num))
            rel = abs(float(ana_flat[i]) - num) / denom
            if rel > max_rel:
                max_rel = rel
    return max_rel
