"""Autodiff core: forward values against hand oracles, reverse-mode gradients
against closed forms, tape discipline, and stop-gradient semantics."""

import math

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


def test_grad_buffer_matches_shape_after_backward():
    x = tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        loss = dot(x, x)
        backward(loss, tape)
    assert x.grad is not None and x.grad.shape == (2, 3)


# -------------------------------------------------------------------- matmul


def test_matmul_identity():
    eye = constant(np.eye(2))
    m = constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_hand_example():
    out = T.matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        T.matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))


def test_matmul_gradient_closed_form():
    a = tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        loss = dot(T.matmul(a, b))
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
    out = T.layer_norm(x, constant(np.ones(3)), constant(np.zeros(3)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized_row():
    x = constant([1.0, -1.0])
    out = T.layer_norm(x, constant(np.ones(2)), constant(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-6)


def test_layer_norm_rejects_bad_eps():
    x = constant([1.0, 2.0])
    for eps in (0.0, -1e-6):
        with pytest.raises(ValueError):
            T.layer_norm(x, constant(np.ones(2)), constant(np.zeros(2)), eps=eps)


# ---------------------------------------------------------------- activations


def test_relu_values():
    assert np.array_equal(T.relu(constant([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_gelu_zero_at_origin():
    assert T.gelu(constant([0.0])).data[0] == 0.0


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


# ----------------------------------------------------------------- reductions


@pytest.mark.parametrize("members", [[[4, 0], [1], [5, 2, 3]], [[0, 1], [2, 3, 4], [5]]])
def test_group_pool_matches_per_group_reductions_bitwise(members):
    x = np.random.default_rng(7).normal(size=(6, 6, 3))[:, 1:5]  # a strided view
    means = T.group_pool(constant(x), members).data
    sums = T.group_pool(constant(x), members, mean=False).data
    for g, rows in enumerate(members):
        assert np.array_equal(means[g], x[rows].mean(axis=(0, 1)))
        assert np.array_equal(sums[g], x[rows].sum(axis=(0, 1)))


def test_group_pool_gradient_reaches_members_only():
    x = tensor(np.ones((4, 2, 3)), requires_grad=True)
    with Tape() as tape:
        backward(dot(T.group_pool(x, [[2], [0, 3]])), tape)
    assert np.array_equal(x.grad[1], np.zeros((2, 3)))
    assert np.array_equal(x.grad[2], np.full((2, 3), 1 / 2))
    assert np.array_equal(x.grad[0], np.full((2, 3), 1 / 4))


def test_group_pool_rejects_empty_and_overlapping_groups():
    x = constant(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        T.group_pool(x, [[0], []])
    with pytest.raises(ValueError):
        T.group_pool(x, [[0, 1], [1]])
    with pytest.raises(IndexError):
        T.group_pool(x, [[3]])


# -------------------------------------------------------------- stop_gradient


def test_stop_gradient_forward_bit_identical():
    x = tensor(np.random.default_rng(1).normal(size=(3, 3)), requires_grad=True)
    with Tape():
        y = stop_gradient(x)
    assert y.data is x.data  # shares storage: identity, not a copy
    assert not y.requires_grad


def test_stop_gradient_blocks_all_flow():
    x = tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        backward(dot(stop_gradient(x)), tape)
    assert np.array_equal(x.grad, np.zeros(3))


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


def test_unreached_tensor_gets_zero_grad_buffer():
    x = tensor([1.0], requires_grad=True)
    y = tensor([2.0], requires_grad=True)
    with Tape() as tape:
        T.add(y, y)  # on tape but not part of the loss
        backward(dot(x, x), tape)
    assert np.array_equal(y.grad, [0.0])


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


def test_forward_replay_bitwise_deterministic():
    def build():
        x = tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
        with Tape() as tape:
            h = T.gelu(T.matmul(x, tensor(np.arange(8.0).reshape(4, 2))))
            loss = T.cross_entropy(h, [0, 1, 1])
            backward(loss, tape)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = build()
    l2, g2 = build()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


# ------------------------------------------------- finite-difference invariant

# names in ``tensor.__all__`` that are not ops with a vjp to check;
# stop_gradient sends exactly zero by construction
_NOT_OPS = {"Tensor", "Tape", "active_tape", "tensor", "constant", "backward", "stop_gradient"}


def test_op_checks_cover_exactly_the_differentiable_ops():
    ops = set(T.__all__) - _NOT_OPS
    checks = set(op_gradient_checks(seed=0))
    assert not ops - checks, f"ops without a finite-difference check: {sorted(ops - checks)}"
    # the two extra checks probe batched matmul and Tensor indexing
    assert checks - ops == {"matmul_batched", "getitem"}



@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_finite_difference_check(seed):
    # randomized small shapes, central differences at step 1e-4
    results = op_gradient_checks(seed=seed)
    bad = {name: err for name, err in results.items() if not err < TOLERANCE}
    assert not bad, f"ops outside tolerance: {bad}"
