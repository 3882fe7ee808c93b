"""Property tests for gradient accumulation on the tape: ``_unbroadcast`` is
the adjoint of broadcasting, fan-in through views sums to a dense reference,
only leaves carry ``.grad``, and the fused ops are bitwise the unfused ones."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contextvit import tensor as T
from contextvit.tensor import Tape, backward, constant, tensor

from conftest import dot

SEEDS = st.integers(0, 2**16)


@st.composite
def broadcast_pairs(draw):
    """(shape, full): ``shape`` broadcasts to ``full`` by numpy's rules."""
    full = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    kept = draw(st.integers(0, len(full)))
    shape = [1 if draw(st.booleans()) else s for s in full[len(full) - kept:]]
    return tuple(shape), tuple(full)


@settings(max_examples=100, deadline=None)
@given(pair=broadcast_pairs(), seed=SEEDS)
def test_unbroadcast_is_adjoint_of_broadcasting(pair, seed):
    shape, full = pair
    rng = np.random.default_rng(seed)
    x, g = rng.standard_normal(shape), rng.standard_normal(full)
    reduced = T._unbroadcast(g, shape)
    assert reduced.shape == shape
    lhs = float(np.sum(g * np.broadcast_to(x, full)))
    rhs = float(np.sum(reduced * x))
    assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 4), picks=st.integers(1, 12), seed=SEEDS)
def test_index_rows_with_duplicates_matches_dense_reference(rows, cols, picks, seed):
    rng = np.random.default_rng(seed)
    a = tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    idx = rng.integers(0, rows, size=picks)
    c = rng.standard_normal((picks, cols))
    with Tape() as tape:
        backward(dot(T.index_rows(a, idx), c), tape)
    want = np.zeros((rows, cols))
    for i, r in enumerate(idx):
        want[r] += c[i]
    assert np.allclose(a.grad, want, rtol=1e-12, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 4), axis=st.integers(0, 1), seed=SEEDS)
def test_concat_of_one_tensor_twice_sums_both_slices(rows, cols, axis, seed):
    rng = np.random.default_rng(seed)
    a = tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    c = rng.standard_normal((2 * rows, cols) if axis == 0 else (rows, 2 * cols))
    with Tape() as tape:
        backward(dot(T.concat([a, a], axis=axis), c), tape)
    first, second = np.split(c, 2, axis=axis)
    assert np.array_equal(a.grad, first + second)


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 4), seed=SEEDS)
def test_fan_in_through_views_and_add_matches_dense_reference(rows, cols, seed):
    """x is read through a reshape view and through ``add(x, x')``, where x'
    is x reshaped to [cols, rows] and back.  The add's vjp hands one array to
    both inputs, and the reshape's vjp passes a view of it on; the other
    reshape's contribution reaches x while that view is still pending, so
    accumulating into the array in place would corrupt it."""
    rng = np.random.default_rng(seed)
    x = tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    c_r = rng.standard_normal(rows * cols)
    c_a = rng.standard_normal((rows, cols))
    with Tape() as tape:
        t = T.reshape(x, (cols, rows))
        r = T.reshape(x, (rows * cols,))
        z = T.add(x, T.reshape(t, (rows, cols)))
        backward(T.add(dot(r, c_r), dot(z, c_a)), tape)
    want = c_r.reshape(rows, cols) + 2.0 * c_a
    assert np.allclose(x.grad, want, rtol=1e-12, atol=1e-15)


_UNARY = {
    "gelu": T.gelu,
    "relu": T.relu,
    "reshape": lambda h: T.reshape(h, h.shape[::-1]),
    "double": lambda h: T.add(h, h),
    "scale": lambda h: T.matmul(h, constant(0.5 * np.eye(h.shape[-1]))),
}


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.sampled_from(sorted(_UNARY)), max_size=6), seed=SEEDS)
def test_only_leaves_carry_grad(ops, seed):
    rng = np.random.default_rng(seed)
    x = tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = tensor(rng.standard_normal((4, 4)), requires_grad=True)
    b = tensor(rng.standard_normal(4), requires_grad=True)
    unused = tensor(rng.standard_normal(2), requires_grad=True)
    with Tape() as tape:
        T.add(unused, unused)  # recorded, but the loss never reads it
        h = T.linear(x, w, b)
        for name in ops:
            h = _UNARY[name](h)
        backward(dot(h), tape)
    outputs = [node.output for node in tape.nodes]
    assert all(t.grad is None for t in outputs)
    for leaf in (x, w, b, unused):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
    assert np.array_equal(unused.grad, np.zeros(2))


@settings(max_examples=50, deadline=None)
@given(lead=st.lists(st.integers(1, 3), max_size=2), m=st.integers(1, 5), k=st.integers(1, 5),
       n=st.integers(1, 5), seed=SEEDS)
def test_linear_is_bitwise_matmul_plus_bias(lead, m, k, n, seed):
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal((*lead, m, k)), rng.standard_normal((k, n)), rng.standard_normal(n))
    c = rng.standard_normal((*lead, m, n))
    results = []
    for fused in (True, False):
        x, w, b = (tensor(v, requires_grad=True) for v in values)
        with Tape() as tape:
            out = T.linear(x, w, b) if fused else T.add(T.matmul(x, w), b)
            backward(dot(out, c), tape)
        results.append([out.data, x.grad, w.grad, b.grad])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def _heads(x, heads):
    """[B, S, heads * w] -> [B, heads, S, w]."""
    return np.transpose(x.reshape(x.shape[0], x.shape[1], heads, -1), (0, 2, 1, 3))


def _joined(x):
    """[B, heads, S, w] -> [B, S, heads * w]: the inverse of ``_heads``."""
    return np.transpose(x, (0, 2, 1, 3)).reshape(x.shape[0], x.shape[2], -1)


def _unfused_attention(q, k, v, heads, g):
    """The op sequence the attention core replaced: head split, matmul,
    scale, softmax, matmul, head merge, and the reverse of each; returns
    (out, gq, gk, gv)."""
    scale = (q.shape[-1] // heads) ** -0.5
    q, k, v, g = _heads(q, heads), _heads(k, heads), _heads(v, heads), _heads(g, heads)
    scores = q @ np.transpose(k, (0, 1, 3, 2)) * np.asarray(scale)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = p @ v
    gp = g @ v.swapaxes(-1, -2)
    gv = p.swapaxes(-1, -2) @ g
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
    gs = gs * np.asarray(scale)
    gq = gs @ np.transpose(k, (0, 1, 3, 2)).swapaxes(-1, -2)
    gk = np.transpose(q.swapaxes(-1, -2) @ gs, (0, 1, 3, 2))
    return _joined(out), _joined(gq), _joined(gk), _joined(gv)


@settings(max_examples=50, deadline=None)
@given(b=st.integers(1, 3), sq=st.integers(1, 6), sk=st.integers(1, 6), heads=st.integers(1, 3),
       dh=st.integers(1, 4), dv=st.integers(1, 4), seed=SEEDS)
def test_attention_core_is_bitwise_the_unfused_composition(b, sq, sk, heads, dh, dv, seed):
    rng = np.random.default_rng(seed)
    q = tensor(rng.standard_normal((b, sq, heads * dh)), requires_grad=True)
    k = tensor(rng.standard_normal((b, sk, heads * dh)), requires_grad=True)
    v = tensor(rng.standard_normal((b, sk, heads * dv)), requires_grad=True)
    c = rng.standard_normal((b, sq, heads * dv))
    with Tape() as tape:
        out = T.attention_core(q, k, v, heads)
        backward(dot(out, c), tape)
    want = _unfused_attention(q.data, k.data, v.data, heads, c)
    for got, ref in zip((out.data, q.grad, k.grad, v.grad), want):
        assert got.tobytes() == ref.tobytes()


def _unfused_cross_entropy(x, labels):
    """The four nodes cross_entropy replaced, logsumexp, select_columns, sub
    and mean, forward and reverse at unit upstream gradient; returns (loss, gx)."""
    rows = np.arange(x.shape[0])
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=-1, keepdims=True)
    loss = (np.squeeze(m + np.log(s), axis=-1) - x[rows, labels]).mean(axis=(0,))
    g = np.broadcast_to(np.expand_dims(np.ones(()), (0,)) / x.shape[0], (x.shape[0],)).copy()
    g_picked = np.zeros_like(x)
    np.add.at(g_picked, (rows, labels), -g)
    g_lse = np.expand_dims(g, -1) * (e / s)
    return loss, g_picked + g_lse


@settings(max_examples=50, deadline=None)
@given(b=st.integers(1, 9), k=st.integers(1, 6), scale=st.sampled_from([1.0, 30.0, 1e3]), seed=SEEDS)
def test_cross_entropy_is_bitwise_the_unfused_composition(b, k, scale, seed):
    rng = np.random.default_rng(seed)
    x = tensor(scale * rng.standard_normal((b, k)), requires_grad=True)
    labels = rng.integers(0, k, size=b)  # repeats exercise the scatter-add
    with Tape() as tape:
        loss = T.cross_entropy(x, labels)
        backward(loss, tape)
    assert len(tape) == 1
    want_loss, want_gx = _unfused_cross_entropy(x.data, labels)
    assert loss.data.tobytes() == np.asarray(want_loss).tobytes()
    assert x.grad.tobytes() == want_gx.tobytes()
