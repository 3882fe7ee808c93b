"""Property tests for the ops whose reductions run as BLAS products: each
matches a float64 numpy reference to its dtype's rounding, on random leading
dims and strided views, and float32 inputs stay float32 through the forward
and every gradient (a float64 ones vector would silently upcast the step)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contextvit import tensor as T
from contextvit.context import deep_sets_infer, infer_context_mean
from contextvit.tensor import Tape, backward, tensor

from conftest import dot, summing_deep_sets_params

SEEDS = st.integers(0, 2**16)
DTYPES = st.sampled_from([np.float32, np.float64])
LEAD = st.lists(st.integers(0, 3), max_size=2)  # 0-2 leading dims, an empty batch included
# largest error allowed, relative to the reference's largest magnitude
TOL = {np.float32: 2e-5, np.float64: 1e-13}


def _array(rng, shape, dtype, strided):
    """Standard normal values of ``shape``; ``strided`` makes a transposed
    view of the last two axes, as a head split or merge leaves them."""
    if strided and len(shape) >= 2:
        full = rng.standard_normal((*shape[:-2], shape[-1], shape[-2])).astype(dtype)
        return np.swapaxes(full, -1, -2)
    return rng.standard_normal(shape).astype(dtype)


def _leaf(rng, shape, dtype, strided=False):
    return tensor(_array(rng, shape, dtype, strided), requires_grad=True)


def _run(make, rng, dtype):
    """Forward ``make()`` on a tape and back-propagate a random cotangent;
    returns (output, cotangent)."""
    with Tape() as tape:
        out = make()
        c = rng.standard_normal(out.shape).astype(dtype)
        backward(dot(out, c), tape)
    return out, c


def _close(got, want, dtype):
    assert got.dtype == dtype
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max(initial=0.0)), 1.0)
    assert float(np.abs(got.astype(np.float64) - want).max(initial=0.0)) <= TOL[dtype] * scale


def _f64(t):
    return t.data.astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(lead=LEAD, m=st.integers(1, 5), k=st.integers(1, 6), n=st.integers(1, 6),
       strided=st.booleans(), w_strided=st.booleans(), dtype=DTYPES, seed=SEEDS)
def test_linear_matches_reference(lead, m, k, n, strided, w_strided, dtype, seed):
    """The weight gradient of a [..., m, k] input is one GEMM over every
    leading row, the bias gradient one GEMV; both equal sums over rows.  The
    input gradient copies the weight contiguous first, a view included."""
    rng = np.random.default_rng(seed)
    x, w = _leaf(rng, (*lead, m, k), dtype, strided), _leaf(rng, (k, n), dtype, w_strided)
    b = _leaf(rng, (n,), dtype)
    out, c = _run(lambda: T.linear(x, w, b), rng, dtype)
    xs, ws, c64 = _f64(x), _f64(w), c.astype(np.float64)
    _close(out.data, xs @ ws + _f64(b), dtype)
    _close(x.grad, c64 @ ws.T, dtype)
    _close(w.grad, (np.swapaxes(xs, -1, -2) @ c64).reshape(-1, k, n).sum(axis=0), dtype)
    _close(b.grad, c64.reshape(-1, n).sum(axis=0), dtype)


@settings(max_examples=60, deadline=None)
@given(lead=LEAD, rows=st.integers(1, 5), d=st.integers(4, 12),
       strided=st.booleans(), dtype=DTYPES, seed=SEEDS)
def test_layer_norm_matches_reference(lead, rows, d, strided, dtype, seed):
    """The affine-free norm: its row means and the vjp's are GEMVs."""
    rng = np.random.default_rng(seed)
    x = _leaf(rng, (*lead, rows, d), dtype, strided)
    out, c = _run(lambda: T.layer_norm(x), rng, dtype)
    x64, c64 = _f64(x), c.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(((x64 - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-6)
    xhat = (x64 - mu) * inv
    gx = inv * (c64 - c64.mean(axis=-1, keepdims=True) - xhat * (c64 * xhat).mean(axis=-1, keepdims=True))
    _close(out.data, xhat, dtype)
    _close(x.grad, gx, dtype)


@settings(max_examples=60, deadline=None)
@given(lead=LEAD, m=st.integers(1, 5), k=st.integers(1, 6), n=st.integers(1, 6), bias=st.booleans(),
       strided=st.booleans(), dtype=DTYPES, seed=SEEDS)
def test_norm_linear_matches_reference(lead, m, k, n, bias, strided, dtype, seed):
    """``(gain * x + shift) @ w + b`` and its gradients, with the affine
    folded into [k, n] products; m == 1 takes the one-row product path."""
    rng = np.random.default_rng(seed)
    x = _leaf(rng, (*lead, m, k), dtype, strided)
    gain, shift, w = _leaf(rng, (k,), dtype), _leaf(rng, (k,), dtype), _leaf(rng, (k, n), dtype)
    b = _leaf(rng, (n,), dtype) if bias else None
    out, c = _run(lambda: T.norm_linear(x, gain, shift, w, b), rng, dtype)
    g64, w64, c64 = _f64(gain), _f64(w), c.astype(np.float64)
    y = g64 * _f64(x) + _f64(shift)  # the affine's output, which the map reads
    gy = c64 @ w64.T
    _close(out.data, y @ w64 + (_f64(b) if bias else 0.0), dtype)
    _close(x.grad, gy * g64, dtype)
    _close(gain.grad, (gy * _f64(x)).reshape(-1, k).sum(axis=0), dtype)
    _close(shift.grad, gy.reshape(-1, k).sum(axis=0), dtype)
    _close(w.grad, (np.swapaxes(y, -1, -2) @ c64).reshape(-1, k, n).sum(axis=0), dtype)
    if bias:
        _close(b.grad, c64.reshape(-1, n).sum(axis=0), dtype)


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), sq=st.integers(1, 6), sk=st.integers(1, 6), heads=st.integers(1, 3),
       dh=st.integers(1, 4), dv=st.integers(1, 4), strided=st.booleans(), dtype=DTYPES, seed=SEEDS)
def test_attention_core_matches_reference(b, sq, sk, heads, dh, dv, strided, dtype, seed):
    rng = np.random.default_rng(seed)
    q = _leaf(rng, (b, sq, heads * dh), dtype, strided)
    k = _leaf(rng, (b, sk, heads * dh), dtype, strided)
    v = _leaf(rng, (b, sk, heads * dv), dtype, strided)
    out, c = _run(lambda: T.attention_core(q, k, v, heads), rng, dtype)

    def split(x):
        return np.transpose(x.reshape(b, x.shape[1], heads, -1), (0, 2, 1, 3))

    def merge(x):
        return np.transpose(x, (0, 2, 1, 3)).reshape(b, x.shape[2], -1)

    qh, kh, vh, gh = split(_f64(q)), split(_f64(k)), split(_f64(v)), split(c.astype(np.float64))
    scale = dh ** -0.5
    s = qh @ np.swapaxes(kh, -1, -2) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    gp = gh @ np.swapaxes(vh, -1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    _close(out.data, merge(p @ vh), dtype)
    _close(q.grad, merge(gs @ kh), dtype)
    _close(k.grad, merge(np.swapaxes(gs, -1, -2) @ qh), dtype)
    _close(v.grad, merge(np.swapaxes(p, -1, -2) @ gh), dtype)


@st.composite
def slot_vectors(draw) -> np.ndarray:
    """Each row's group slot for 1-9 rows: every group non-empty, members
    unsorted, singletons included."""
    rows = draw(st.integers(1, 9))
    order = draw(st.permutations(range(rows)))
    cuts = sorted(draw(st.sets(st.integers(1, rows - 1), max_size=rows - 1))) if rows > 1 else []
    slots = np.empty(rows, np.int64)
    for g, (start, stop) in enumerate(zip([0, *cuts], [*cuts, rows])):
        slots[list(order[start:stop])] = g
    return slots


@settings(max_examples=80, deadline=None)
@given(slots=slot_vectors(), inner=st.lists(st.integers(1, 3), max_size=2), d=st.integers(1, 4),
       mean=st.booleans(), strided=st.booleans(), dtype=DTYPES, seed=SEEDS)
def test_pooled_context_matches_reference(slots, inner, d, mean, strided, dtype, seed):
    """One product with the pooling matrix equals each group's own numpy
    reduction, and the vjp spreads each group's gradient over its members
    only: means through ``infer_context_mean``, sums (``mean=False``) through
    ``deep_sets_infer`` with identity networks over the flattened rows."""
    rows, count = slots.size, int(np.prod(inner, dtype=np.int64))
    rng = np.random.default_rng(seed)
    a = _leaf(rng, (rows, *inner, d), dtype, strided)
    if mean:
        out, c = _run(lambda: infer_context_mean(a, slots), rng, dtype)
    else:
        params = summing_deep_sets_params(d, dtype)
        out, c = _run(lambda: deep_sets_infer(T.reshape(a, (rows * count, d)), params,
                                              np.repeat(slots, count)), rng, dtype)
    a64, c64 = _f64(a), c.astype(np.float64)
    axes = tuple(range(a64.ndim - 1))
    groups = [np.flatnonzero(slots == g) for g in range(slots.max() + 1)]
    want = np.stack([(a64[m].mean if mean else a64[m].sum)(axis=axes) for m in groups])
    want_grad = np.zeros_like(a64)
    for g, m in enumerate(groups):
        want_grad[m] = c64[g] / (len(m) * count) if mean else c64[g]
    _close(out.data, want, dtype)
    _close(a.grad, want_grad, dtype)


@settings(max_examples=40, deadline=None)
@given(lead=LEAD, m=st.integers(1, 5), k=st.integers(1, 5), n=st.integers(1, 5),
       strided=st.booleans(), w_strided=st.booleans(), dtype=DTYPES, seed=SEEDS)
def test_linear_with_bias_is_bitwise_linear_then_add_in_both_dtypes(lead, m, k, n, strided, w_strided, dtype, seed):
    """``linear(x, w, b)`` and ``add(linear(x, w), b)`` share ``_affine_vjp`` and
    ``_unbroadcast``, so every output and gradient has the same bytes."""
    rng = np.random.default_rng(seed)
    values = (_array(rng, (*lead, m, k), dtype, strided), _array(rng, (k, n), dtype, w_strided),
              _array(rng, (n,), dtype, False))
    results = []
    for fused in (True, False):
        x, w, b = (tensor(v, requires_grad=True) for v in values)
        out, _ = _run(lambda: T.linear(x, w, b) if fused else T.add(T.linear(x, w), b),
                      np.random.default_rng(seed + 1), dtype)
        results.append([out.data, x.grad, w.grad, b.grad])
    for got, want in zip(*results):
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

