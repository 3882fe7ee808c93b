"""The parameter arena under AdamW and SGD: bitwise equal to the per-tensor
loops it replaced, nothing moves when a step raises, a parameter without a
gradient or rebound after the state was built is caught, and leaves whose
``.grad``s share one array step as if they held separate copies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextvit import tensor as T
from contextvit.checkpoint import load_checkpoint, restore_into, save_checkpoint
from contextvit.tensor import NonFiniteError, Tape, Tensor, backward
from contextvit.train import (
    AdamWState,
    MissingGradientError,
    SGDState,
    StaleParameterError,
    adamw_step,
    is_decay_exempt,
    sgd_momentum_step,
)

from conftest import dot

# ----------------------------------------------------- per-tensor reference


def reference_adamw_step(params, m, v, step, lr, wd):
    """One AdamW step as a loop over tensors, with moments ``m``/``v`` as
    name -> array dicts and ``step`` the count after this update: the update
    ``adamw_step`` made before it ran over one flat arena."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for name, p in params.items():
        g = p.grad
        if not np.isfinite(g).all():
            raise NonFiniteError("adamw_step", g.shape, f"gradient of parameter {name!r}")
        mn = m[name]
        vn = v[name]
        mn *= beta1
        mn += (1.0 - beta1) * g
        vn *= beta2
        vn += (1.0 - beta2) * g * g
        update = (mn / bc1) / (np.sqrt(vn / bc2) + eps)
        if not is_decay_exempt(name):
            update = update + wd * p.data
        p.data = p.data - lr * update


def reference_sgd_momentum_step(params, velocity, lr, momentum):
    """SGD with momentum as a loop over tensors (``velocity``: name -> array)."""
    for name, p in params.items():
        g = p.grad
        if not np.isfinite(g).all():
            raise NonFiniteError("sgd_momentum_step", g.shape, f"gradient of parameter {name!r}")
        vel = velocity[name]
        vel *= momentum
        vel += g
        p.data = p.data - lr * vel


# ------------------------------------------------------------- properties

NAMES = ("patch_projection", "layer0.attn.wq", "layer1.ffn.w1", "head.w", "context.ctx_head0.w",  # decayed
         "cls_token", "layer0.attn.bq", "layer1.norm1.gain", "head.b", "context.oracle_table")  # exempt


@st.composite
def runs(draw):
    """A parameter set (a random mix and order of decayed and exempt names,
    any shapes, one dtype) and a few steps of (lr, wd)."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=len(NAMES), unique=True))
    shapes = [tuple(draw(st.lists(st.integers(1, 4), max_size=3))) for _ in names]
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rates = st.floats(0.0, 0.1, allow_subnormal=False)
    steps = draw(st.lists(st.tuples(rates, rates), min_size=1, max_size=4))
    return dict(zip(names, shapes)), dtype, steps, draw(st.integers(0, 2 ** 32 - 1))


def _twins(shapes, dtype, rng):
    values = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    make = lambda: {name: Tensor(v.copy(), requires_grad=True) for name, v in values.items()}
    return make(), make()


def _set_grads(pairs, rng):
    for _, (a, b) in pairs:
        a.grad = rng.standard_normal(a.data.shape).astype(a.data.dtype)
        b.grad = a.grad.copy()


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(run=runs())
def test_adamw_arena_is_bitwise_the_per_tensor_loop(run):
    shapes, dtype, steps, seed = run
    rng = np.random.default_rng(seed)
    arena_params, loop_params = _twins(shapes, dtype, rng)
    state = AdamWState.init(arena_params)
    # start from non-zero moments, written through the per-name views
    m = {name: np.array(0.01 * rng.standard_normal(s), dtype) for name, s in shapes.items()}
    v = {name: np.array(1e-4 * rng.random(s), dtype) for name, s in shapes.items()}
    for name in shapes:
        state.m[name][...] = m[name]
        state.v[name][...] = v[name]
    pairs = [(name, (arena_params[name], loop_params[name])) for name in shapes]
    for t, (lr, wd) in enumerate(steps, start=1):
        _set_grads(pairs, rng)
        adamw_step(arena_params, state, lr, wd)
        reference_adamw_step(loop_params, m, v, t, lr, wd)
        assert state.step == t
        for name in shapes:
            assert arena_params[name].data.dtype == dtype
            assert _bits(arena_params[name].data) == _bits(loop_params[name].data), name
            assert _bits(state.m[name]) == _bits(m[name]) and _bits(state.v[name]) == _bits(v[name]), name


@settings(max_examples=40, deadline=None)
@given(run=runs(), momentum=st.floats(0.0, 0.99))
def test_sgd_arena_is_bitwise_the_per_tensor_loop(run, momentum):
    shapes, dtype, steps, seed = run
    rng = np.random.default_rng(seed)
    arena_params, loop_params = _twins(shapes, dtype, rng)
    state = SGDState.init(arena_params)
    velocity = {name: np.zeros(s, dtype) for name, s in shapes.items()}
    pairs = [(name, (arena_params[name], loop_params[name])) for name in shapes]
    for lr, _ in steps:
        _set_grads(pairs, rng)
        sgd_momentum_step(arena_params, state, lr, momentum)
        reference_sgd_momentum_step(loop_params, velocity, lr, momentum)
        for name in shapes:
            assert _bits(arena_params[name].data) == _bits(loop_params[name].data), name


# ------------------------------------------------------------------ layout


def _params(dtype=np.float64):
    rng = np.random.default_rng(0)
    return {name: Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
            for name, shape in (("layer0.attn.bq", (3,)), ("head.w", (2, 3)), ("cls_token", (1, 2)),
                                ("layer0.attn.wq", (3, 3)))}


def test_arena_lays_parameters_out_decayed_first_as_views():
    params = _params()
    before = {name: p.data.copy() for name, p in params.items()}
    state = AdamWState.init(params)
    values = state.values
    assert state.decayed == 6 + 9
    assert np.array_equal(values[:6], before["head.w"].ravel())
    assert np.array_equal(values[6:15], before["layer0.attn.wq"].ravel())
    for name, p in params.items():
        assert np.shares_memory(p.data, values) and np.array_equal(p.data, before[name])


def test_mixed_dtypes_are_a_type_error_naming_the_parameter():
    params = _params()
    params["cls_token"] = Tensor(params["cls_token"].data.astype(np.float32), requires_grad=True)
    for init in (AdamWState.init, SGDState.init):
        with pytest.raises(TypeError, match="cls_token"):
            init(params)


# -------------------------------------------------------- nothing moves on error


def _snapshot(params, *vectors):
    return [p.data.tobytes() for p in params.values()] + [v.tobytes() for v in vectors]


def _optimizer(optimizer, params):
    """A fresh state of ``optimizer`` over ``params``, a step function, and
    the state's vectors."""
    if optimizer == "adamw":
        state = AdamWState.init(params)
        return state, lambda: adamw_step(params, state, 0.1, 0.05), (state.moments,)
    state = SGDState.init(params)
    return state, lambda: sgd_momentum_step(params, state, 0.1, 0.9), (state.velocity,)


def _ones_grads(params):
    for p in params.values():
        p.grad = np.ones_like(p.data)


def _stepped(optimizer):
    """Parameters, their state after one step (moments or velocity away from
    zero) with every gradient set again (the step consumed them), a step
    function, and the state's vectors."""
    params = _params()
    state, step, vectors = _optimizer(optimizer, params)
    _ones_grads(params)
    step()
    _ones_grads(params)
    return params, state, step, vectors


@pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
def test_non_finite_last_gradient_moves_nothing(optimizer):
    params, state, step, vectors = _stepped(optimizer)
    last = list(params)[-1]
    params[last].grad = np.full_like(params[last].data, np.nan)
    before = _snapshot(params, *vectors)
    steps_before = getattr(state, "step", None)
    with pytest.raises(NonFiniteError, match=last):
        step()
    assert _snapshot(params, *vectors) == before
    assert getattr(state, "step", None) == steps_before


@pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
def test_missing_gradient_is_named_and_moves_nothing(optimizer):
    """A parameter the forward never read has no ``.grad``: the step raises
    naming it instead of reading zeros, and no value, moment, velocity or
    step count moves."""
    params, state, step, vectors = _stepped(optimizer)
    last = list(params)[-1]
    params[last].grad = None
    before = _snapshot(params, *vectors)
    steps_before = getattr(state, "step", None)
    with pytest.raises(MissingGradientError, match=repr(last)) as err:
        step()
    assert err.value.name == last
    assert _snapshot(params, *vectors) == before
    assert getattr(state, "step", None) == steps_before


@pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
def test_parameter_the_loss_ignores_gets_no_gradient_and_stops_the_step(optimizer):
    """The forward records ``cls_token`` in a node whose output the loss
    ignores: ``backward`` leaves its ``.grad`` None, so the step raises
    naming it, and no value, moment, velocity or step count moves."""
    params = _params()
    state, step, vectors = _optimizer(optimizer, params)
    cls, read = params["cls_token"], ("head.w", "layer0.attn.wq", "layer0.attn.bq")
    with Tape() as tape:
        T.add(cls, cls)  # recorded, but the loss never reads it
        backward(dot(T.linear(*(params[name] for name in read))), tape)
    assert any(t is cls for node in tape.nodes for t in node.inputs)
    assert cls.grad is None and all(params[name].grad is not None for name in read)
    before = _snapshot(params, *vectors)
    steps_before = getattr(state, "step", None)
    with pytest.raises(MissingGradientError, match="'cls_token'") as err:
        step()
    assert err.value.name == "cls_token"
    assert _snapshot(params, *vectors) == before
    assert getattr(state, "step", None) == steps_before


@pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
def test_a_step_consumes_its_gradients_so_the_next_cannot_reuse_them(optimizer):
    """Step 1's loss reaches ``cls_token``; step 2's records it in a node the
    loss ignores.  Step 1 set every ``.grad`` to None, so step 2 raises
    naming ``cls_token`` instead of stepping it with step 1's gradient, and
    no value, moment, velocity or step count moves."""
    params = _params()
    state, step, vectors = _optimizer(optimizer, params)
    cls, read = params["cls_token"], ("head.w", "layer0.attn.wq", "layer0.attn.bq")
    with Tape() as tape:
        backward(dot(T.linear(T.linear(cls, params["head.w"]), params["layer0.attn.wq"],
                              params["layer0.attn.bq"])), tape)
    assert all(p.grad is not None for p in params.values())
    step()
    assert all(p.grad is None for p in params.values())
    with Tape() as tape:
        T.add(cls, cls)  # recorded, but the loss never reads it
        backward(dot(T.linear(*(params[name] for name in read))), tape)
    assert cls.grad is None
    before = _snapshot(params, *vectors)
    steps_before = getattr(state, "step", None)
    with pytest.raises(MissingGradientError, match="'cls_token'") as err:
        step()
    assert err.value.name == "cls_token"
    assert _snapshot(params, *vectors) == before
    assert getattr(state, "step", None) == steps_before


def test_non_finite_gradient_is_named_in_dict_order():
    params = _params()
    state = AdamWState.init(params)
    for p in params.values():
        p.grad = np.full_like(p.data, np.inf)
    with pytest.raises(NonFiniteError, match="layer0.attn.bq"):  # first in the dict, not in the arena
        adamw_step(params, state, 0.1, 0.0)


# ------------------------------------------------- shared leaf gradients


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("optimizer", ["adamw", "sgd"])
def test_leaves_sharing_one_gradient_array_step_as_separate_copies(optimizer, dtype):
    """``backward`` gives both operands of an equal-shape ``add`` the one
    upstream array as ``.grad``.  A step over them is bitwise the same step
    over twins whose ``.grad``s are separate copies of those arrays."""
    rng = np.random.default_rng(0)
    values = {name: rng.standard_normal((3, 3)).astype(dtype) for name in ("layer0.attn.wq", "cls_token")}
    shared, separate = ({name: Tensor(v.copy(), requires_grad=True) for name, v in values.items()}
                        for _ in range(2))
    with Tape() as tape:
        backward(dot(T.add(*shared.values()), rng.standard_normal(9).astype(dtype)), tape)
    assert np.shares_memory(shared["layer0.attn.wq"].grad, shared["cls_token"].grad)
    for name, p in separate.items():
        p.grad = shared[name].grad.copy()
    snapshots = []
    for params in (shared, separate):
        _, step, vectors = _optimizer(optimizer, params)
        step()
        snapshots.append(_snapshot(params, *vectors))
    assert snapshots[0] == snapshots[1]


# ------------------------------------------------------ rebound parameters


@pytest.mark.parametrize("init, step", [(AdamWState.init, lambda ps, s: adamw_step(ps, s, 0.1, 0.0)),
                                        (SGDState.init, lambda ps, s: sgd_momentum_step(ps, s, 0.1))])
def test_rebound_parameter_raises_before_any_update(init, step):
    params = _params()
    state = init(params)
    for p in params.values():
        p.grad = np.ones_like(p.data)
    params["head.w"].data = params["head.w"].data.copy()  # what a rebinding restore does
    before = _snapshot(params, state.values)
    with pytest.raises(StaleParameterError, match="head.w") as err:
        step(params, state)
    assert err.value.name == "head.w"
    assert _snapshot(params, state.values) == before


def test_checkpoint_restore_after_init_is_caught(tmp_path, toy_model):
    params = toy_model.trainable_parameters()
    path = tmp_path / "m.cvck"
    save_checkpoint(str(path), toy_model.parameters(), "hash")
    state = AdamWState.init(params)
    restore_into(toy_model.parameters(), load_checkpoint(str(path)))
    with pytest.raises(StaleParameterError, match=repr(next(iter(params)))):
        adamw_step(params, state, 0.1, 0.0)
