"""Autodiff core: forward values against hand oracles, reverse-mode gradients
against closed forms, tape discipline, and stop-gradient semantics."""

import math
import re

import numpy as np
import pytest

from contextvit import tensor as T
from contextvit.tensor import Tape, backward, constant, stop_gradient, tensor
from contextvit.verify import TOLERANCE, op_gradient_checks

from conftest import dot


# ---------------------------------------------------------------- construction


def test_tensor_is_double_precision_row_major():
    t = tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.data.shape == (2, 2)


def test_tensor_keeps_float32_and_makes_everything_else_float64():
    assert tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    for data in ([1, 2], np.arange(2), np.ones(2, dtype=np.float16), 3.0):
        assert tensor(data).data.dtype == np.float64


@pytest.mark.parametrize("key", [
    [1, 1, 2],
    np.array([1, 1, 2]),
    np.array([True, False, True, False]),
    (slice(None), [0, 0]),
    True,
])
def test_getitem_rejects_keys_that_can_repeat_elements(key):
    """x[[1, 1, 2]] would need the gradient of row 1 counted twice; the
    buffered ``ga[key] += g`` counts it once, so such keys are refused."""
    x = tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    with pytest.raises(TypeError, match="index_rows"):
        x[key]


def test_getitem_basic_keys_route_gradient_to_their_elements():
    x = tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    with Tape() as tape:
        picked = T.concat([x[:, 0], x[np.int64(1)], x[1:3, 2], x[..., -1]], axis=0)
        backward(dot(picked), tape)
    want = np.zeros((4, 3))
    want[:, 0] += 1
    want[1] += 1
    want[1:3, 2] += 1
    want[:, -1] += 1
    assert np.array_equal(x.grad, want)


def test_grad_buffer_matches_shape_after_backward():
    x = tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        loss = dot(x, x)
        backward(loss, tape)
    assert x.grad is not None and x.grad.shape == (2, 3)


# -------------------------------------------------------------------- linear


def test_linear_no_bias_identity():
    eye = constant(np.eye(2))
    m = constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.linear(eye, m).data, m.data)


def test_linear_no_bias_hand_example():
    out = T.linear(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_linear_no_bias_dimension_mismatch():
    with pytest.raises(ValueError):
        T.linear(constant(np.ones((2, 3))), constant(np.ones((2, 3))))


def test_linear_takes_a_matrix_on_the_right_with_or_without_a_bias():
    x, w = constant(np.ones((2, 3, 4))), constant(np.ones((2, 4, 5)))
    for op in (lambda: T.linear(x, w), lambda: T.linear(x, w, constant(np.zeros(5)))):
        with pytest.raises(ValueError, match=r"\(2, 3, 4\) @ \(2, 4, 5\)"):
            op()


@pytest.mark.parametrize("bias", [(), (1,), (4,), (1, 5), (3, 5)])
def test_linear_and_norm_linear_take_a_bias_of_the_output_width_only(bias):
    """A bias must be [n]: one that would broadcast over the rows ([1, n],
    [m, n]) or that could not ([k], a scalar) is rejected by both ops."""
    x, w, b = constant(np.ones((3, 4))), constant(np.ones((4, 5))), constant(np.zeros(bias))
    ones = constant(np.ones(4))
    for op in (lambda: T.linear(x, w, b), lambda: T.norm_linear(x, ones, ones, w, b)):
        with pytest.raises(ValueError, match=r"bias must be \[5\], got " + re.escape(str(bias))):
            op()


def test_linear_no_bias_gradient_closed_form():
    a = tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        loss = dot(T.linear(a, b))
        backward(loss, tape)
    g = np.ones((2, 4))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)


# ------------------------------------------------- attention-core softmax


def _softmax_rows(scores) -> np.ndarray:
    """Softmax of each row of ``scores`` as attention_core computes it: one
    head of width 1 (so the scale is 1), one query with unit features, keys
    carrying the scores, identity values."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    rows, n = scores.shape
    q = constant(np.ones((rows, 1, 1)))
    k = constant(scores[:, :, None])
    v = constant(np.broadcast_to(np.eye(n), (rows, n, n)).copy())
    return T.attention_core(q, k, v, 1).data[:, 0, :]


def test_softmax_symmetry():
    assert np.allclose(_softmax_rows([0.0, 0.0]), [0.5, 0.5])


def test_softmax_analytic():
    assert np.allclose(_softmax_rows([0.0, math.log(2.0)]), [1.0 / 3.0, 2.0 / 3.0])


def test_softmax_large_values_no_overflow():
    out = _softmax_rows([1000.0, 1000.0])
    assert np.allclose(out, [0.5, 0.5])
    assert np.isfinite(out).all()


def test_softmax_rows_sum_to_one_up_to_1e3():
    rng = np.random.default_rng(0)
    for _ in range(20):
        out = _softmax_rows(rng.uniform(-1e3, 1e3, size=(5, 7)))
        assert np.all(out >= 0)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12


def test_softmax_rejects_non_finite():
    with pytest.raises(T.NonFiniteError, match="attention_core"):
        _softmax_rows([np.inf, 0.0])


@pytest.mark.parametrize("heads, q_width, v_width", [(3, 4, 6), (2, 4, 3), (0, 4, 4)])
def test_attention_core_rejects_widths_heads_do_not_divide(heads, q_width, v_width):
    q, k = constant(np.ones((1, 2, q_width))), constant(np.ones((1, 3, q_width)))
    with pytest.raises(ValueError, match="not divisible"):
        T.attention_core(q, k, constant(np.ones((1, 3, v_width))), heads)


def test_attention_core_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shapes disagree"):
        T.attention_core(constant(np.ones((1, 2, 4))), constant(np.ones((1, 3, 4))), constant(np.ones((1, 2, 4))), 2)


# ----------------------------------------------------------------- layer_norm


def test_layer_norm_constant_row_is_zero():
    x = constant([[3.0, 3.0, 3.0]])
    out = T.layer_norm(x)
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized_row():
    x = constant([1.0, -1.0])
    out = T.layer_norm(x)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-6)


def test_layer_norm_vjp_at_a_zero_row_is_the_centred_gradient_over_sqrt_eps():
    """At an exact zero row (a zero-initialised context token) xhat = 0, so the
    vjp is (g - mean(g)) / sqrt(1e-6): a Jacobian of 1000 (I - 11^T / d)."""
    g = np.random.default_rng(0).standard_normal((2, 1, 5))
    x = tensor(np.zeros((2, 1, 5)), requires_grad=True)
    with Tape() as tape:
        backward(dot(T.layer_norm(x), g), tape)
    np.testing.assert_allclose(x.grad, (g - g.mean(axis=-1, keepdims=True)) / math.sqrt(1e-6), rtol=1e-12)


def test_norm_gain_scales_the_zero_row_gradient_through_norm_linear():
    """Through ``norm_linear`` the gain enters the zero row's gradient as
    gain * (the xhat-gradient g @ w^T), before the centring and the 1000."""
    rng = np.random.default_rng(1)
    gain, shift, w, c = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal((4, 3)), rng.standard_normal((2, 1, 3))
    x = tensor(np.zeros((2, 1, 4)), requires_grad=True)
    with Tape() as tape:
        backward(dot(T.norm_linear(T.layer_norm(x), tensor(gain), tensor(shift), tensor(w)), c), tape)
    gxhat = gain * (c @ w.T)
    np.testing.assert_allclose(x.grad, (gxhat - gxhat.mean(axis=-1, keepdims=True)) / math.sqrt(1e-6), rtol=1e-12)


# ---------------------------------------------------------------- activations


def test_relu_values():
    assert np.array_equal(T.relu(constant([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_gelu_zero_at_origin():
    assert T.gelu(constant([0.0])).data[0] == 0.0


def _gelu_left_to_right(x, g):
    """gelu 0.5 x (1 + t), t = tanh(c (x + 0.044715 x^3)), and its vjp, in
    the formula's left-to-right order: the form computed before the gate."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x * x * x))
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x * x))


def test_gelu_from_its_gate_matches_the_left_to_right_formula():
    """Value and vjp equal the left-to-right formula to 1e-12 of their
    largest magnitude, in float64 on [-8, 8]."""
    x = np.linspace(-8.0, 8.0, 4001)
    g = np.random.default_rng(2).standard_normal(x.shape)
    a = tensor(x, requires_grad=True)
    with Tape() as tape:
        out = T.gelu(a)
        backward(dot(out, g), tape)
    want, want_grad = _gelu_left_to_right(x, g)
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(a.grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


def test_gelu_value_and_vjp_stay_finite_at_large_float32_inputs():
    x = np.array([-1e4, -30.0, 30.0, 1e4], dtype=np.float32)
    a = tensor(x, requires_grad=True)
    with Tape() as tape:
        out = T.gelu(a)
        backward(dot(out, np.ones(4, np.float32)), tape)
    assert out.data.dtype == a.grad.dtype == np.float32
    assert np.array_equal(out.data, [0.0, 0.0, 30.0, 1e4])
    assert np.array_equal(a.grad, [0.0, 0.0, 1.0, 1.0])


# -------------------------------------------------------------- cross_entropy


@pytest.mark.parametrize("logits, labels, error", [
    (np.zeros(3), [0], ValueError),  # not [B, K]
    (np.zeros((2, 3, 1)), [0, 1], ValueError),
    (np.zeros((0, 3)), [], ValueError),  # empty batch
    (np.zeros((2, 3)), [0], ValueError),  # one label short
    (np.zeros((2, 3)), [[0, 1]], ValueError),
    (np.zeros((2, 3)), [0, 3], IndexError),
    (np.zeros((2, 3)), [-1, 0], IndexError),
    (np.array([[0.0, np.nan], [0.0, 0.0]]), [0, 1], T.NonFiniteError),
    (np.array([[0.0, 0.0], [np.inf, 0.0]]), [0, 1], T.NonFiniteError),
])
def test_cross_entropy_rejects_what_it_cannot_index(logits, labels, error):
    with pytest.raises(error, match="cross_entropy" if error is not IndexError else "out of range"):
        T.cross_entropy(constant(logits), labels)


# -------------------------------------------------------------- stop_gradient


def test_stop_gradient_forward_bit_identical():
    x = tensor(np.random.default_rng(1).normal(size=(3, 3)), requires_grad=True)
    with Tape():
        y = stop_gradient(x)
    assert y.data is x.data  # shares storage: identity, not a copy
    assert not y.requires_grad


def test_stop_gradient_blocks_all_flow():
    # stop_gradient records no node, so a leaf read only through it is no
    # input of the tape and gets no .grad at all
    x = tensor([1.0, 2.0, 3.0], requires_grad=True)
    w = tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        backward(dot(stop_gradient(x), w), tape)
    assert x.grad is None
    assert np.array_equal(w.grad, x.data)


def test_stop_gradient_only_live_edge_contributes():
    x = tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        backward(dot(T.add(x, stop_gradient(x))), tape)
    assert np.array_equal(x.grad, np.ones(3))


def test_stop_gradient_cut_is_exact_not_small():
    # zeroing the detached edge must be exact: compare against a graph where
    # the detached branch is replaced by an equal constant
    x_val = np.array([0.3, -1.7, 2.2])
    x1 = tensor(x_val.copy(), requires_grad=True)
    with Tape() as tape:
        backward(dot(x1, stop_gradient(x1)), tape)
    x2 = tensor(x_val.copy(), requires_grad=True)
    with Tape() as tape:
        backward(dot(x2, constant(x_val.copy())), tape)
    assert np.array_equal(x1.grad, x2.grad)


# ------------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    x = tensor([5.0, 6.0, 7.0], requires_grad=True)
    with Tape() as tape:
        backward(dot(x), tape)
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_elementwise_square():
    x = tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        backward(dot(x, x), tape)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.add(x, x)
        with pytest.raises(ValueError):
            backward(y, tape)


def test_backward_accumulates_over_fanout():
    x = tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        backward(dot(T.add(x, x)), tape)
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_unreached_tensor_keeps_no_grad():
    x = tensor([1.0], requires_grad=True)
    y = tensor([2.0], requires_grad=True)
    with Tape() as tape:
        T.add(y, y)  # on tape but not part of the loss
        backward(dot(x, x), tape)
    assert y.grad is None


def test_loss_that_needs_no_gradient_reaches_no_leaf():
    x = tensor([1.0], requires_grad=True)
    c = constant([3.0])
    with Tape() as tape:
        T.add(x, c)  # the constant loss is itself an input of a recorded node
        backward(c, tape)
    assert x.grad is None and c.grad is None


# ------------------------------------------------------------ tape discipline


def test_backward_of_loss_computed_outside_tape_raises():
    x = tensor([1.0], requires_grad=True)
    loss = dot(x, x)  # no active tape: computed, not recorded
    assert loss.requires_grad
    with Tape() as tape:
        with pytest.raises(RuntimeError, match="not the output of an op on this tape"):
            backward(loss, tape)
    # an explicitly passed empty tape is used as given, not swapped for the active one
    with Tape():
        recorded = dot(x, x)
        with pytest.raises(RuntimeError, match="not the output of an op on this tape"):
            backward(recorded, Tape())


def test_forward_outside_tape_matches_inside_bitwise(toy_model, train_batch):
    _, outside = toy_model.forward(train_batch)
    with Tape() as tape:
        _, inside = toy_model.forward(train_batch)
    assert len(tape) > 0
    assert outside.data.tobytes() == inside.data.tobytes()


def test_constant_ops_run_without_tape():
    out = T.add(constant([2.0]), constant([3.0]))
    assert out.data[0] == 5.0


def test_broadcasting_backward_unbroadcasts():
    a = tensor(np.ones((2, 3)), requires_grad=True)
    b = tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        backward(dot(T.add(a, b)), tape)
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.full(3, 2.0))


@pytest.mark.parametrize("left, right", [((2, 3), (1, 3)), ((2, 3), (2, 1)), ((3,), (2, 3)), ((2, 3), (2,))])
def test_add_rejects_pairs_other_than_equal_or_trailing_shapes(left, right):
    """Only a right operand of the left's trailing shape is broadcast, along
    the leading axes; size-1 axes and a smaller left operand are refused."""
    with pytest.raises(ValueError, match="add takes") as err:
        T.add(constant(np.ones(left)), constant(np.ones(right)))
    assert str(left) in str(err.value) and str(right) in str(err.value)


def test_index_rows_keeps_the_index_shape_bitwise():
    rng = np.random.default_rng(0)
    a = tensor(rng.standard_normal((4, 3)), requires_grad=True)
    idx = np.array([[0, 2], [2, 2], [3, 0]])  # duplicates accumulate
    c = rng.standard_normal((3, 2, 3))
    with Tape() as tape:
        out = T.index_rows(a, idx)
        backward(dot(out, c), tape)
    assert out.shape == (3, 2, 3)
    assert out.data.tobytes() == a.data[idx].tobytes()
    want = np.zeros((4, 3))
    for row, g in zip(idx.ravel(), c.reshape(-1, 3)):  # in index order, as the vjp adds
        want[row] += g
    assert a.grad.tobytes() == want.tobytes()


def test_forward_replay_bitwise_deterministic():
    def build():
        x = tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            h = T.gelu(T.linear(x, tensor(np.arange(8.0).reshape(4, 2))))
            loss = T.cross_entropy(h, [0, 1, 1])
            backward(loss, tape)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = build()
    l2, g2 = build()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


# ------------------------------------------------- finite-difference invariant

# names in ``tensor.__all__`` that are not ops with a vjp to check;
# stop_gradient records no node
_NOT_OPS = {"Tensor", "Tape", "active_tape", "tensor", "constant", "backward", "stop_gradient"}


def test_op_checks_cover_exactly_the_differentiable_ops():
    ops = set(T.__all__) - _NOT_OPS
    checks = set(op_gradient_checks(seed=0))
    assert not ops - checks, f"ops without a finite-difference check: {sorted(ops - checks)}"
    # the extra checks probe linear with no bias (on 2-D and on batched rows),
    # Tensor indexing and norm_linear with no bias
    assert checks - ops == {"linear_no_bias", "linear_no_bias_batched", "getitem", "norm_linear_no_bias"}



@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_finite_difference_check(seed):
    # randomized small shapes, central differences at step 1e-4
    results = op_gradient_checks(seed=seed)
    bad = {name: err for name, err in results.items() if not err < TOLERANCE}
    assert not bad, f"ops outside tolerance: {bad}"
