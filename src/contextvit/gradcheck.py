"""Finite-difference oracle for the reverse-mode gradients.

The checker re-evaluates a scalar-valued closure with each parameter
coordinate nudged by ±step and compares the central difference against
what ``backward`` produced.  Paths through ``stop_gradient`` are *meant*
to disagree with a naive full-graph difference; callers verifying such
graphs must freeze the detached inputs to constants so the closure only
exercises the declared-differentiable subgraph.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from .rng import child_seed, generator
from .tensor import Tape, Tensor, backward

__all__ = ["finite_diff_errors", "finite_diff_check"]


def _evaluate(f: Callable[[], Tensor]) -> float:
    """Forward value of ``f``; outside any tape nothing is recorded."""
    return float(f().data)


def finite_diff_errors(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    step: float = 1e-4,
    max_coords: Optional[int] = None,
    seed: int = 0,
) -> dict[str, float]:
    """Per-parameter worst relative error of ``backward`` vs central differences.

    ``f`` must be deterministic and read each parameter's current ``.data``.
    With ``max_coords`` set, at most that many coordinates per parameter are
    probed (chosen by a seeded draw) instead of all of them.  Every parameter
    must be float64: at float32's ~1e-7 resolution a central difference at a
    step near 1e-4 measures rounding, not the gradient.
    """
    if step <= 0:
        raise ValueError(f"finite_diff step must be > 0, got {step}")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise TypeError(f"parameter {name!r} is {p.data.dtype}; finite differences need float64")
        p.grad = None  # backward keeps the old .grad of a leaf the loss does not reach

    with Tape() as tape:
        loss = f()
        backward(loss, tape)
    analytic = {}
    for name, p in params.items():
        if not p.requires_grad:
            raise ValueError(f"parameter {name!r} does not require gradients")
        if p.grad is None:
            # the loss does not reach the parameter: analytic gradient is zero
            analytic[name] = np.zeros_like(p.data)
        else:
            analytic[name] = p.grad.copy()

    errors: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            rng = generator(child_seed(seed, "fdcheck", name))
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = np.arange(n)
        an_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in coords:
            i = int(i)
            saved = flat[i]
            flat[i] = saved + step
            plus = _evaluate(f)
            flat[i] = saved - step
            minus = _evaluate(f)
            flat[i] = saved
            fd = (plus - minus) / (2.0 * step)
            an = an_flat[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            if rel > worst:
                worst = rel
        errors[name] = worst
    return errors


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    step: float = 1e-4,
    max_coords: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Worst relative error across all parameters (see finite_diff_errors)."""
    errors = finite_diff_errors(f, params, step=step, max_coords=max_coords, seed=seed)
    return max(errors.values()) if errors else 0.0
