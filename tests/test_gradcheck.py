"""Finite-difference oracle: exactness classes and the detached-subgraph rule."""

import numpy as np
import pytest

from contextvit import tensor as T
from contextvit.gradcheck import finite_diff_check, finite_diff_errors
from contextvit.tensor import Tape, backward, constant, stop_gradient, tensor

from conftest import dot


def test_linear_function_is_nearly_exact():
    # central differences are exact for linear maps up to rounding; the map
    # must have no exactly-zero gradient entries or the check measures only
    # cancellation noise over the denominator floor
    w = constant(np.arange(1.0, 7.0).reshape(2, 3))
    x = tensor(np.ones((3, 4)), requires_grad=True)
    err = finite_diff_check(lambda: dot(T.matmul(w, x)), {"x": x}, step=1e-4)
    assert err <= 1e-10


def test_quadratic_function_within_1e6():
    x = tensor([0.7, -1.2, 0.4], requires_grad=True)
    err = finite_diff_check(lambda: dot(x, x), {"x": x}, step=1e-4)
    assert err <= 1e-6


def test_step_must_be_positive():
    x = tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        finite_diff_check(lambda: dot(x), {"x": x}, step=0.0)


def test_detached_path_needs_subgraph_comparison():
    """f(x) = x . stop_gradient(x): the analytic gradient is x (the
    detached factor is a constant), while a naive directional difference sees
    d/dx[x^2] = 2x.  Checking f directly must therefore fail, and checking
    the declared-differentiable subgraph (detached branch frozen to an equal
    constant) must pass."""
    x_val = np.array([0.8, -0.5, 1.3])

    x = tensor(x_val.copy(), requires_grad=True)
    naive = finite_diff_check(lambda: dot(x, stop_gradient(x)), {"x": x}, step=1e-4)
    assert naive > 0.3  # relative error ~0.5: FD sees 2x against analytic x

    x2 = tensor(x_val.copy(), requires_grad=True)
    frozen = constant(x_val.copy())
    declared = finite_diff_check(lambda: dot(x2, frozen), {"x": x2}, step=1e-4)
    assert declared <= 1e-10

    # and the analytic gradients of the two formulations agree exactly
    with Tape() as tape:
        backward(dot(x, stop_gradient(x)), tape)
    with Tape() as tape:
        backward(dot(x2, frozen), tape)
    assert np.array_equal(x.grad, x2.grad)


def test_per_parameter_errors_reported():
    a = tensor([1.0, 2.0], requires_grad=True)
    b = tensor([[3.0], [4.0]], requires_grad=True)
    errs = finite_diff_errors(lambda: dot(T.matmul(T.reshape(a, (1, 2)), b)), {"a": a, "b": b})
    assert set(errs) == {"a", "b"}
    assert all(e <= 1e-8 for e in errs.values())


def test_untouched_parameter_reports_zero_error():
    x = tensor([1.0], requires_grad=True)
    unused = tensor([5.0], requires_grad=True)
    errs = finite_diff_errors(lambda: dot(x, x), {"x": x, "unused": unused})
    assert errs["unused"] == 0.0


def test_coordinate_sampling_is_deterministic():
    x = tensor(np.linspace(0.1, 1.0, 30), requires_grad=True)

    def f():
        return dot(T.gelu(x), x)

    e1 = finite_diff_errors(f, {"x": x}, max_coords=5, seed=9)
    e2 = finite_diff_errors(f, {"x": x}, max_coords=5, seed=9)
    assert e1 == e2
    full = finite_diff_errors(f, {"x": x})
    assert e1["x"] <= full["x"] * (1 + 1e-12)  # sample err never exceeds the full sweep
