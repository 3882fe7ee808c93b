"""Context-token machinery: partitioning, every inference kind, the grouped
forward pass layout, detach semantics, and unseen-group behavior."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextvit import context as ctx_mod
from contextvit import tensor as T
from contextvit.context import (
    CONTEXT_KIND_NAMES,
    ContextKind,
    ContextViT,
    GroupedBatch,
    UnknownGroupError,
    deep_sets_infer,
    ema_update,
    group_partition,
    infer_context_mean,
    init_context_params,
    oracle_lookup,
    sample_context_patches,
)
from contextvit.rng import child_seed, generator
from contextvit.tensor import Tape, Tensor, backward, constant, tensor
from contextvit.train import batch_cross_entropy
from contextvit.vit import patchify_batch

from conftest import dot, full_sequence_encode, make_batch, summing_deep_sets_params, vit_forward

AMORTIZED = [n for n in CONTEXT_KIND_NAMES if ContextKind.from_name(n).amortized]
TOKEN_KINDS = [n for n in CONTEXT_KIND_NAMES if ContextKind.from_name(n).has_token_slot]


# ------------------------------------------------------------------ partition


def test_partition_first_occurrence_order():
    assert group_partition([7, 7, 3]) == {7: [0, 1], 3: [2]}
    assert list(group_partition([7, 7, 3])) == [7, 3]


def test_partition_empty():
    assert group_partition([]) == {}


def test_partition_all_distinct():
    part = group_partition([4, 2, 9])
    assert part == {4: [0], 2: [1], 9: [2]}


def test_partition_disjoint_cover_property():
    rng = np.random.default_rng(0)
    for _ in range(25):
        groups = rng.integers(0, 5, size=rng.integers(1, 30)).tolist()
        part = group_partition(groups)
        flat = sorted(i for idxs in part.values() for i in idxs)
        assert flat == list(range(len(groups)))


# ----------------------------------------------------------------- mean pool


def _one_group(rows: int) -> np.ndarray:
    """Slot vector of a single group that owns all ``rows`` rows."""
    return np.zeros(rows, dtype=np.int64)


def test_mean_two_single_patch_members():
    embeds = constant(np.array([[[1.0, 2.0]], [[3.0, 4.0]]]))  # [2, 1, 2]
    assert np.array_equal(infer_context_mean(embeds, _one_group(2)).data[0], [2.0, 3.0])


def test_mean_single_member_is_own_patch_mean():
    member = generator(1).normal(size=(1, 5, 3))
    out = infer_context_mean(constant(member), _one_group(1))
    assert np.allclose(out.data[0], member[0].mean(axis=0))


def test_mean_permutation_invariant():
    embeds = generator(2).normal(size=(4, 6, 3))
    base = infer_context_mean(constant(embeds), _one_group(4)).data[0]
    scrambled = embeds[np.random.default_rng(3).permutation(4)][:, np.random.default_rng(4).permutation(6)]
    assert np.allclose(infer_context_mean(constant(scrambled), _one_group(4)).data[0], base, atol=1e-12)


def test_mean_empty_member_set_rejected():
    with pytest.raises(ValueError):
        infer_context_mean(constant(np.zeros((0, 4, 3))), _one_group(0))


@pytest.mark.parametrize("slots", [[0, 1, 2, 2, 0, 2], [0, 0, 1, 1, 1, 2]])
def test_pooling_matches_per_group_reductions(slots):
    """One product with the pooling matrix equals reducing each group on its
    own to float64 rounding: means by ``infer_context_mean``, sums by the
    pooling of ``deep_sets_infer`` (with identity networks)."""
    x = np.random.default_rng(7).normal(size=(6, 6, 3))[:, 1:5]  # a strided view
    means = infer_context_mean(constant(x), slots).data
    sums = deep_sets_infer(constant(x.reshape(24, 3)), summing_deep_sets_params(3), np.repeat(slots, 4)).data
    for g in range(3):
        rows = np.flatnonzero(np.asarray(slots) == g)
        np.testing.assert_allclose(means[g], x[rows].mean(axis=(0, 1)), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(sums[g], x[rows].sum(axis=(0, 1)), rtol=1e-13, atol=1e-14)


def test_pooling_gradient_reaches_members_only():
    """A group whose output the loss ignores sends its members nothing; the
    others' members get 1 / (|g| * patches) of a mean and all of a sum."""
    slots, c = [1, 2, 0, 1], np.array([[1.0] * 3, [1.0] * 3, [0.0] * 3])
    x = tensor(np.ones((4, 2, 3)), requires_grad=True)
    with Tape() as tape:
        backward(dot(infer_context_mean(x, slots), c), tape)
    assert np.array_equal(x.grad[1], np.zeros((2, 3)))
    assert np.array_equal(x.grad[2], np.full((2, 3), 1 / 2))
    assert np.array_equal(x.grad[0], np.full((2, 3), 1 / 4))
    rows = tensor(np.ones((4, 3)), requires_grad=True)
    with Tape() as tape:
        backward(dot(deep_sets_infer(rows, summing_deep_sets_params(3), slots), c), tape)
    assert np.array_equal(rows.grad, c[slots])


def test_pooling_rejects_malformed_slot_vectors():
    """Four rows each need one slot, and every slot up to the largest needs a member."""
    for slots, problem in [([], "non-empty"), ([[0, 0], [0, 1]], "1-D"), ([0, -1, 0, 1], "negative"),
                           ([0, 2, 0, 2], r"groups \[1\] empty"), ([0, 0, 1], "3 entries for 4 rows")]:
        with pytest.raises(ValueError, match=problem):
            infer_context_mean(constant(np.zeros((4, 2, 3))), slots)
        with pytest.raises(ValueError, match=problem):
            deep_sets_infer(constant(np.zeros((4, 3))), summing_deep_sets_params(3), slots)


# ------------------------------------------------------------ detached input


def _patch_token_grad(toy_config, name, seed):
    """``.grad`` of a leaf of patch tokens [3, N, d] after the sum of the
    group tokens ``_group_tokens`` infers from it (groups 0, 0, 1), and the
    model, whose context parameters are nudged off their init so that the
    zero-initialized output layers do not make the live gradient zero too."""
    model = _model(toy_config, name)
    for p in model.context.values():
        p.data = p.data + generator(seed).normal(size=p.data.shape) * 0.1
    batch = GroupedBatch(np.zeros((3, 1, 1, 1)), [0, 0, 0], [0, 0, 1])
    x = tensor(generator(9).normal(size=(3, toy_config.num_patches, toy_config.dim)), requires_grad=True)
    with Tape() as tape:
        backward(dot(ctx_mod._group_tokens(x, batch, 0, model, False, None)), tape)
    return x.grad, model


def test_linear_head_detach_blocks_upstream(toy_config):
    """A detached kind reads the patch tokens through ``stop_gradient``, so
    they get no gradient; the live kind passes it on.  The head learns in
    both."""
    for name in ("mean_linear_detach", "mean_linear"):
        grad, model = _patch_token_grad(toy_config, name, seed=18)
        assert (grad is None) == model.kind.detach, name
        assert grad is None or np.abs(grad).max() > 0, name
        assert np.array_equal(model.context["ctx_head0.b"].grad, np.full(toy_config.dim, 2.0)), name


# -------------------------------------------------------------------- oracle


def _oracle_params(config):
    return init_context_params(config, ContextKind.from_name("oracle"), seed=0, group_ids=[0, 1, 2, 3])


def test_oracle_lookup_returns_stored_vector(toy_config):
    params = _oracle_params(toy_config)
    params["oracle_table"].data[3, :] = 7.0  # row g is group g
    with Tape():
        out = oracle_lookup([3], params)
    assert np.array_equal(out.data, np.full((1, toy_config.dim), 7.0))


@pytest.mark.parametrize("unknown", [5, -1, 4, 2 ** 53 + 1])  # 4 is the table's row count
def test_oracle_lookup_unknown_group_errors(toy_config, unknown):
    params = _oracle_params(toy_config)
    with pytest.raises(UnknownGroupError):
        with Tape():
            oracle_lookup([0, unknown], params)


@pytest.mark.parametrize("ids", [[0, 3], [1, 2], [-1, 0], []])
def test_oracle_ids_other_than_a_range_from_zero_rejected(toy_config, ids):
    with pytest.raises(ValueError, match=re.escape(str(ids))):
        init_context_params(toy_config, ContextKind.from_name("oracle"), seed=0, group_ids=ids)


def test_oracle_ids_register_in_any_order_with_repeats(toy_config):
    params = init_context_params(toy_config, ContextKind.from_name("oracle"), seed=0, group_ids=[2, 0, 1, 0])
    assert params["oracle_table"].shape == (3, toy_config.dim)


def test_oracle_entry_moves_against_gradient(toy_config):
    params = _oracle_params(toy_config)
    with Tape() as tape:
        token = oracle_lookup([0], params)
        backward(token[0, 0], tape)  # loss increases with component 0
    before = params["oracle_table"].data[0, 0]
    params["oracle_table"].data -= 0.1 * params["oracle_table"].grad
    assert params["oracle_table"].data[0, 0] < before


# ----------------------------------------------------------------------- ema


def test_ema_midpoint():
    state = {5: np.array([0.0])}
    ema_update(state, 5, np.array([2.0]), lam=0.5)
    assert np.array_equal(state[5], [1.0])


def test_ema_geometric_halving():
    state = {0: np.array([0.0])}
    target = np.array([8.0])
    gaps = []
    for _ in range(4):
        ema_update(state, 0, target, lam=0.5)
        gaps.append(abs(state[0][0] - target[0]))
    assert gaps == [4.0, 2.0, 1.0, 0.5]


def test_ema_first_update_adopts_mean():
    state = {}
    ema_update(state, 9, np.array([3.0, 4.0]), lam=0.9)
    assert np.array_equal(state[9], [3.0, 4.0])


def test_ema_lambda_range_enforced():
    for lam in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            ema_update({}, 0, np.zeros(2), lam=lam)
    with pytest.raises(ValueError):
        ContextKind.from_name("ema", ema_lambda=1.0)


# ----------------------------------------------------------------- deep sets


def _deep_sets_params(config, seed=0):
    return init_context_params(config, ContextKind.from_name("deep_sets"), seed=seed)


def test_deep_sets_permutation_invariant(toy_config):
    params = _deep_sets_params(toy_config)
    rows = generator(5).normal(size=(3, 4, toy_config.dim)).reshape(12, toy_config.dim)
    base = deep_sets_infer(constant(rows), params, _one_group(12)).data[0]
    perm = rows[np.random.default_rng(6).permutation(12)]
    scrambled = deep_sets_infer(constant(perm), params, _one_group(12)).data[0]
    assert np.allclose(scrambled, base, atol=1e-12)


def test_deep_sets_zero_networks_give_zero_token(toy_config):
    params = _deep_sets_params(toy_config)
    for name, p in params.items():
        p.data = np.zeros_like(p.data)  # phi becomes identity (residuals), rho becomes 0
    rows = generator(7).normal(size=(6, toy_config.dim))
    out = deep_sets_infer(constant(rows), params, _one_group(6))
    assert np.array_equal(out.data, np.zeros((1, toy_config.dim)))


def test_deep_sets_duplicating_patches_doubles_sum(toy_config):
    d = toy_config.dim
    params = _deep_sets_params(toy_config)
    for name, p in params.items():
        p.data = np.zeros_like(p.data)
    params["ctx_rho.w3"].data = np.eye(d)  # phi identity, rho linear-identity
    embeds = generator(8).normal(size=(6, d))
    once = deep_sets_infer(constant(embeds), params, _one_group(6)).data
    twice = deep_sets_infer(constant(np.concatenate([embeds, embeds])), params, _one_group(12)).data
    assert np.allclose(twice, 2.0 * once, atol=1e-12)


def test_deep_sets_detach_blocks_inputs(toy_config):
    detached, _ = _patch_token_grad(toy_config, "deep_sets_detach", seed=19)
    live, _ = _patch_token_grad(toy_config, "deep_sets", seed=19)
    assert detached is None
    assert np.abs(live).max() > 0


def test_deep_sets_empty_set_rejected(toy_config):
    params = _deep_sets_params(toy_config)
    with pytest.raises(ValueError):
        deep_sets_infer(constant(np.zeros((0, toy_config.dim))), params, _one_group(0))


# ------------------------------------------------------------ patch sampling


def test_sample_patches_default_k_is_256():
    assert ContextKind.from_name("in_context_patches").patches == 256


def test_sample_patches_single_pool_repeats():
    out = sample_context_patches(np.array([5]), 3, seed=0)
    assert np.array_equal(out, [5, 5, 5])


def test_sample_patches_deterministic_and_validated():
    pool = np.arange(10, 17)
    a = sample_context_patches(pool, 5, seed=4)
    b = sample_context_patches(pool, 5, seed=4)
    assert np.array_equal(a, b)
    assert set(a.tolist()) <= set(pool.tolist())
    with pytest.raises(ValueError):
        sample_context_patches(pool, 0, seed=0)
    with pytest.raises(ValueError):
        sample_context_patches(np.zeros(0, dtype=int), 2, seed=0)


# --------------------------------------------------------- forward: layouts


def _model(toy_config, name, seed=0, group_ids=(0, 1, 2)):
    kind = ContextKind.from_name(name, patches=6)
    ids = list(group_ids) if kind.base == "oracle" else None
    return ContextViT.create(toy_config, kind, seed=seed, group_ids=ids)


@pytest.mark.parametrize("name", TOKEN_KINDS)
def test_forward_shapes_all_token_kinds(small_data, toy_config, name):
    model = _model(toy_config, name)
    batch = make_batch(small_data.train, np.arange(6))
    with Tape():
        cls_out, logits = model.forward(batch, train=name == "ema")
    assert cls_out.data.shape == (6, toy_config.dim)
    assert logits.data.shape == (6, toy_config.num_classes)


def test_kind_none_bitwise_matches_plain_vit(small_data, toy_config):
    model = _model(toy_config, "none")
    batch = make_batch(small_data.train, np.arange(5))
    with Tape():
        _, ctx_logits = model.forward(batch)
    with Tape():
        _, plain_logits = vit_forward(batch.images, model.backbone, toy_config)
    assert np.array_equal(ctx_logits.data, plain_logits.data)


def test_sequence_length_with_context_is_n_plus_two(small_data, toy_config):
    model = _model(toy_config, "mean")
    batch = make_batch(small_data.train, np.arange(4))
    lengths = []
    from contextvit import context as ctx_mod

    real_encode = ctx_mod.encode_tokens

    def spy_encode(tokens, params, config, layer_hook=None):
        lengths.append(tokens.shape[-2])
        return real_encode(tokens, params, config, layer_hook=layer_hook)

    ctx_mod.encode_tokens = spy_encode
    try:
        with Tape():
            model.forward(batch)
    finally:
        ctx_mod.encode_tokens = real_encode
    assert lengths == [toy_config.num_patches + 2]


def test_sequence_length_in_context_mode(small_data, toy_config):
    k = 6
    model = _model(toy_config, "in_context_patches")
    batch = make_batch(small_data.train, np.arange(4))
    lengths = []
    from contextvit import context as ctx_mod

    real_encode = ctx_mod.encode_tokens

    def spy_encode(tokens, params, config, layer_hook=None):
        lengths.append(tokens.shape[-2])
        return real_encode(tokens, params, config, layer_hook=layer_hook)

    ctx_mod.encode_tokens = spy_encode
    try:
        with Tape():
            model.forward(batch)
    finally:
        ctx_mod.encode_tokens = real_encode
    assert lengths == [toy_config.num_patches + 1 + k]


def test_same_group_same_token_distinct_groups_differ(small_data, toy_config):
    model = _model(toy_config, "mean")
    idx_g0 = np.nonzero(small_data.train.groups == 0)[0][:3]
    idx_g1 = np.nonzero(small_data.train.groups == 1)[0][:3]
    batch = make_batch(small_data.train, np.concatenate([idx_g0, idx_g1]))
    sink = {}
    with Tape():
        model.forward(batch, capture_context_tokens=sink)
    tok0 = sink[(0, 0)]
    tok1 = sink[(0, 1)]
    assert tok0.shape == (toy_config.dim,)
    assert not np.array_equal(tok0, tok1)


@pytest.mark.parametrize("name", sorted(set(AMORTIZED) & set(TOKEN_KINDS)))
def test_member_and_patch_permutation_invariance(small_data, toy_config, name):
    """Amortized kinds: permuting member images within a group (and patches
    within the pooled set) leaves each inferred token unchanged within 1e-12."""
    model = _model(toy_config, name)
    for p in model.context.values():
        p.data = p.data + generator(20).normal(size=p.data.shape) * 0.2
    idx = np.concatenate([
        np.nonzero(small_data.train.groups == 0)[0][:4],
        np.nonzero(small_data.train.groups == 1)[0][:2],
    ])
    batch = make_batch(small_data.train, idx)
    sink = {}
    with Tape():
        model.forward(batch, capture_context_tokens=sink)

    perm = np.concatenate([np.random.default_rng(21).permutation(4), 4 + np.random.default_rng(22).permutation(2)])
    batch_p = make_batch(small_data.train, idx[perm])
    sink_p = {}
    with Tape():
        model.forward(batch_p, capture_context_tokens=sink_p)

    assert set(sink) == set(sink_p)
    for key in sink:
        assert np.max(np.abs(sink[key] - sink_p[key])) <= 1e-12


def test_oracle_vs_amortized_unseen_group(small_data, toy_config):
    ood = make_batch(small_data.ood_test, np.arange(3))
    oracle = _model(toy_config, "oracle")
    with pytest.raises(UnknownGroupError):
        with Tape():
            oracle.forward(ood)
    for name in AMORTIZED:
        model = _model(toy_config, name)
        with Tape():
            _, logits = model.forward(ood)
        assert np.isfinite(logits.data).all()


@pytest.mark.parametrize("name", AMORTIZED)
def test_amortized_kinds_handle_batch_size_one(small_data, toy_config, name):
    model = _model(toy_config, name)
    batch = make_batch(small_data.ood_test, [0])
    with Tape():
        cls_out, logits = model.forward(batch)
    assert cls_out.data.shape == (1, toy_config.dim)
    assert logits.data.shape == (1, toy_config.num_classes)


# ------------------------------------------------------- batched inference


@pytest.mark.parametrize("name", [n for n in CONTEXT_KIND_NAMES if n != "none"])
def test_tape_node_count_does_not_grow_with_groups(toy_config, name):
    """All groups are inferred at once: one group or sixteen record the same nodes."""
    model = _model(toy_config, name, group_ids=range(16))
    images = generator(30).random((16, 16, 16, 3))
    counts = []
    for groups in (np.zeros(16, dtype=int), np.arange(16)):
        with Tape() as tape:
            model.forward(GroupedBatch(images, np.zeros(16, dtype=int), groups))
        counts.append(len(tape))
    assert counts[0] == counts[1]


def _slot_one(model, batch):
    """The context slot of the sequence that enters the encoder."""
    seen = []
    real_encode = ctx_mod.encode_tokens

    def spy_encode(tokens, params, config, layer_hook=None):
        seen.append(tokens.data[:, 1].copy())
        return real_encode(tokens, params, config, layer_hook=layer_hook)

    ctx_mod.encode_tokens = spy_encode
    try:
        with Tape():
            model.forward(batch)
    finally:
        ctx_mod.encode_tokens = real_encode
    return seen[0]


@pytest.mark.parametrize("name", ["mean", "mean_linear", "mean_linear_detach", "ema", "oracle"])
def test_batched_context_column_matches_per_group_loop(toy_config, name):
    """The batched column equals a per-group loop of numpy reductions: the
    oracle's gather bitwise, the pooled kinds to float64 rounding (their
    pooling is one GEMM)."""
    model = _model(toy_config, name, group_ids=range(12))
    for p in model.context.values():
        p.data = p.data + generator(31).normal(size=p.data.shape) * 0.3
    rng = np.random.default_rng(32)
    for groups in (np.zeros(20, dtype=int), rng.integers(0, 2, size=20), rng.integers(0, 12, size=20)):
        images = rng.random((20, 16, 16, 3))
        got = _slot_one(model, GroupedBatch(images, np.zeros(20, dtype=int), groups))

        patch_tokens = patchify_batch(images, toy_config.patch) @ model.backbone["patch_projection"].data
        ctx = {k: p.data for k, p in model.context.items()}
        want = np.empty((20, toy_config.dim))
        for gid in np.unique(groups):
            members = np.nonzero(groups == gid)[0]
            pooled = patch_tokens[members].mean(axis=(0, 1))
            if name == "mean":
                token = pooled
            elif name == "oracle":
                token = ctx["oracle_table"][gid]
            else:
                token = (pooled[None] @ ctx["ctx_head0.w"] + ctx["ctx_head0.b"])[0]
            want[members] = token
        if name == "oracle":
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


_PERMUTATION_MODELS: dict = {}


@settings(max_examples=25, deadline=None)
@given(
    groups=st.lists(st.integers(0, 4), min_size=1, max_size=10),
    seed=st.integers(0, 2**16),
)
def test_member_permutation_invariance_property(toy_config, groups, seed):
    """Any group layout: shuffling the batch leaves every group's token
    unchanged and moves each image's logits with the image (within 1e-12)."""
    groups = np.asarray(groups)
    rng = np.random.default_rng(seed)
    images = rng.random((groups.size, 16, 16, 3))
    perm = rng.permutation(groups.size)
    for name in sorted(set(AMORTIZED) & set(TOKEN_KINDS)):
        if name not in _PERMUTATION_MODELS:
            model = _model(toy_config, name)
            for p in model.context.values():
                p.data = p.data + generator(33).normal(size=p.data.shape) * 0.2
            _PERMUTATION_MODELS[name] = model
        model = _PERMUTATION_MODELS[name]
        runs = []
        for order in (np.arange(groups.size), perm):
            sink: dict = {}
            with Tape():
                _, logits = model.forward(GroupedBatch(images[order], groups[order], groups[order]),
                                          capture_context_tokens=sink)
            runs.append((sink, logits.data))
        (sink, logits), (sink_p, logits_p) = runs
        assert set(sink) == set(sink_p)
        for key in sink:
            assert np.max(np.abs(sink[key] - sink_p[key])) <= 1e-12
        assert np.max(np.abs(logits[perm] - logits_p)) <= 1e-12


# ----------------------------------------------------- layerwise specificity


@pytest.mark.parametrize("name", ["mean_linear", "mean_linear_detach", "ema", "layerwise_mean_linear_detach"])
def test_a_kind_holds_one_head_per_layer_that_infers_its_token(toy_config, name):
    """A single-shot kind infers its token once, before layer 0, so it has
    exactly one head; a layerwise kind has one for every layer."""
    assert toy_config.depth >= 2
    model = _model(toy_config, name)
    layers = toy_config.depth if model.kind.layerwise else 1
    assert list(model.context) == [f"ctx_head{l}.{p}" for l in range(layers) for p in ("w", "b")]


def test_layerwise_changes_outputs_preserves_shapes(small_data, toy_config):
    batch = make_batch(small_data.train, np.arange(6))
    single = _model(toy_config, "mean_linear_detach", seed=5)
    layered = _model(toy_config, "layerwise_mean_linear_detach", seed=5)
    # give the heads nonzero weights so the layerwise rewrite actually differs
    for model in (single, layered):
        for name, p in model.context.items():
            p.data = p.data + generator(23).normal(size=p.data.shape) * 0.3
    with Tape():
        _, l_single = single.forward(batch)
    with Tape():
        _, l_layer = layered.forward(batch)
    assert l_single.data.shape == l_layer.data.shape
    assert not np.array_equal(l_single.data, l_layer.data)


# ------------------------------------------------------------ detach contract


def test_detach_gradients_match_frozen_constant_exactly(small_data, toy_config):
    """mean_linear_detach backbone gradients equal those with the pooled
    context input frozen to a constant of the same value (exact, zero
    tolerance); mean_linear differs."""
    batch = make_batch(small_data.train, np.arange(6))

    def run(name, frozen):
        model = _model(toy_config, name, seed=2)
        for p in model.context.values():
            p.data = p.data + generator(24).normal(size=p.data.shape) * 0.25
        with Tape() as tape:
            _, logits = model.forward(batch, frozen_context_inputs=frozen)
            backward(batch_cross_entropy(logits, batch.labels), tape)
        return {k: v.grad.copy() for k, v in model.backbone.items() if v.grad is not None}

    captured = {}
    detached = run("mean_linear_detach", captured)  # records the boundary
    frozen = run("mean_linear_detach", captured)  # replays it as a constant
    assert set(detached) == set(frozen)
    for key in detached:
        assert np.array_equal(detached[key], frozen[key]), key

    captured_live = {}
    live = run("mean_linear", captured_live)
    frozen_live = run("mean_linear", captured_live)
    assert any(not np.array_equal(live[k], frozen_live[k]) for k in live)


def _frozen_layers(name, depth):
    kind = ContextKind.from_name(name)
    if kind.layerwise:
        return set(range(depth))
    return {0} if kind.base in ("mean", "mean_linear", "deep_sets", "ema") else set()


@pytest.mark.parametrize("name", CONTEXT_KIND_NAMES)
def test_captured_context_inputs_are_keyed_by_frozen_layer(small_data, toy_config, name):
    """One whole array per layer with a frozen boundary: the pooled [G, d]
    stack or ema state, or deep sets' [B*N, d] patch rows."""
    model = _model(toy_config, name)
    batch = make_batch(small_data.train, [0, 1, 40, 2, 41])  # groups 0, 0, 1, 0, 1
    assert len(batch.partition) == 2
    captured = {}
    with Tape():
        model.forward(batch, frozen_context_inputs=captured)
    assert set(captured) == _frozen_layers(name, toy_config.depth)
    rows = batch.size * toy_config.num_patches if model.kind.base == "deep_sets" else 2
    for value in captured.values():
        assert value.shape == (rows, toy_config.dim)


@pytest.mark.parametrize("name", ["mean_linear_detach", "layerwise_mean_linear_detach", "deep_sets_detach", "ema"])
def test_context_input_override_of_wrong_shape_names_the_layer(small_data, toy_config, name):
    model = _model(toy_config, name)
    captured = {}
    with Tape():
        model.forward(make_batch(small_data.train, np.arange(4)), frozen_context_inputs=captured)
    layer = max(captured)
    wrong = {**captured, layer: captured[layer][:-1]}
    with pytest.raises(ValueError, match=f"layer {layer}"):
        with Tape():
            model.forward(make_batch(small_data.train, np.arange(4)), frozen_context_inputs=wrong)


def test_partly_filled_frozen_inputs_record_missing_layers_and_replay_held_ones(small_data, toy_config):
    model = _model(toy_config, "layerwise_mean_linear_detach")
    for p in model.context.values():
        p.data = p.data + generator(25).normal(size=p.data.shape) * 0.3
    batch = make_batch(small_data.train, [0, 1, 40, 2, 41])

    def logits(frozen):
        with Tape():
            return model.forward(batch, frozen_context_inputs=frozen)[1].data

    full = {}
    recorded = logits(full)
    assert set(full) == {0, 1}
    partial = {0: full[0]}
    assert np.array_equal(logits(partial), recorded)
    assert partial[0] is full[0]  # replayed, not re-recorded
    assert np.array_equal(partial[1], full[1])  # recorded, as the full forward did
    shifted = {0: full[0] + 1.0}
    assert not np.array_equal(logits(shifted), recorded)  # layer 0 came from the dict
    assert not np.array_equal(shifted[1], full[1])  # layer 1 recorded from the shifted run


@pytest.mark.parametrize("name", ["mean", "layerwise_mean_linear_detach", "deep_sets_detach", "ema"])
def test_forward_with_filled_frozen_inputs_replays_bitwise(small_data, toy_config, name):
    """Recording the boundary and replaying it give the same logits bit for
    bit, and a detached kind the same backbone gradients too: its boundary
    is a constant either way, while a live kind's replay cuts the path
    through the pooling."""
    model = _model(toy_config, name)
    for p in model.context.values():
        p.data = p.data + generator(26).normal(size=p.data.shape) * 0.3
    batch = make_batch(small_data.train, [0, 1, 40, 2, 41, 80])

    def step(frozen):
        with Tape() as tape:
            _, logits = model.forward(batch, train=True, frozen_context_inputs=frozen)
            backward(batch_cross_entropy(logits, batch.labels), tape)
        return logits.data, {k: p.grad.copy() for k, p in model.backbone.items()}

    frozen = {}
    first_logits, first_grads = step(frozen)
    assert set(frozen) == _frozen_layers(name, toy_config.depth)
    held = {k: v.copy() for k, v in frozen.items()}
    logits, grads = step(frozen)
    assert np.array_equal(logits, first_logits)
    assert all(np.array_equal(grads[k], first_grads[k]) for k in first_grads) == model.kind.detach
    assert all(np.array_equal(frozen[k], held[k]) for k in held)  # replayed, not overwritten


def _unreached_nodes(tape, loss) -> list:
    """Nodes of ``tape`` whose output ``backward`` never reaches from
    ``loss``: a walk of the tape in reverse from the loss."""
    reached, unreached = {id(loss)}, []
    for node in reversed(tape.nodes):
        if id(node.output) in reached:
            reached.update(id(t) for t in node.inputs if t.requires_grad)
        else:
            unreached.append(node)
    return unreached


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", CONTEXT_KIND_NAMES)
def test_training_step_records_only_what_backward_reads(small_data, toy_config, name, dtype):
    """Every node a training step records on a mixed-group batch feeds the
    loss: a detached kind's token inference leaves nothing on the tape.  So
    ``backward`` skips no node of a training step, and every leaf a step
    records gets ``.grad``."""
    assert toy_config.depth >= 2  # so layerwise kinds infer past layer 0
    model = _model(toy_config, name)
    if dtype == "float32":
        model.to_float32()
    batch = make_batch(small_data.train, [0, 1, 40, 2, 41, 80])  # groups 0, 0, 1, 0, 1, 2
    with Tape() as tape:
        _, logits = model.forward(batch, train=True)
        loss = batch_cross_entropy(logits, batch.labels)
    assert len(tape) > 0
    assert _unreached_nodes(tape, loss) == []


@pytest.mark.parametrize("name", CONTEXT_KIND_NAMES)
def test_training_step_reaches_every_trainable_parameter(small_data, toy_config, name):
    """One training forward and backward on a mixed-group batch leaves a
    non-zero gradient on every trainable parameter: the model holds none
    that its forward does not read.  The context parameters are nudged off
    their init, so zero-initialized heads pass gradient on."""
    model = _model(toy_config, name)
    for key, p in model.context.items():
        p.data = p.data + 0.3 * generator(child_seed(0, "nudge", key)).standard_normal(p.data.shape)
    batch = make_batch(small_data.train, [0, 1, 40, 2, 41, 80])  # groups 0, 0, 1, 0, 1, 2
    with Tape() as tape:
        _, logits = model.forward(batch, train=True)
        backward(batch_cross_entropy(logits, batch.labels), tape)
    for key, p in model.trainable_parameters().items():
        assert p.grad is not None and np.any(p.grad), key


def _relative_gap(a: np.ndarray, ref: np.ndarray) -> float:
    """max |a - ref| over max |ref|; 0 when both are all zeros."""
    scale = np.max(np.abs(ref))
    gap = np.max(np.abs(a - ref))
    return float(gap / scale) if scale else float(gap)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", CONTEXT_KIND_NAMES)
def test_cls_only_last_layer_matches_the_full_sequence_encoder(small_data, toy_config, monkeypatch, name, depth):
    """The encoder computes only the CLS row in its last layer; the logits
    and every parameter gradient of a training step equal those of the
    encoder that runs every layer on all rows, to rounding in float64.  At
    depth 1 the one layer is the CLS-only one and no hook runs."""
    config = replace(toy_config, depth=depth)
    batch = make_batch(small_data.train, [0, 1, 40, 2, 41, 80])  # groups 0, 0, 1, 0, 1, 2

    def step():
        model = _model(config, name)
        with Tape() as tape:
            cls_out, logits = model.forward(batch, train=True)
            backward(batch_cross_entropy(logits, batch.labels), tape)
        assert cls_out.data.shape == (batch.size, config.dim)
        return logits.data, {k: p.grad for k, p in model.trainable_parameters().items()}

    logits, grads = step()
    monkeypatch.setattr(ctx_mod, "encode_tokens", full_sequence_encode)
    ref_logits, ref_grads = step()
    assert _relative_gap(logits, ref_logits) <= 1e-12
    assert {k for k, g in grads.items() if g is None} == {k for k, g in ref_grads.items() if g is None}
    for key, ref in ref_grads.items():
        if ref is not None:
            assert _relative_gap(grads[key], ref) <= 1e-12, key


def _affine(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """``gain * x + shift`` over the last axis as its own node: a layer norm's
    affine as the model computed it before the fold."""
    d = gain.shape[0]

    def vjp(g):
        rows = g.reshape(-1, d)
        return g * gain.data, (rows * x.data.reshape(-1, d)).sum(axis=0), rows.sum(axis=0)

    return T._record(x.data * gain.data + shift.data, (x, gain, shift), vjp)


def _unfolded_norm_linear(xhat, gain, shift, w, b=None):
    return T.linear(_affine(xhat, gain, shift), w, b)


@pytest.mark.parametrize("name", CONTEXT_KIND_NAMES)
def test_norm_fold_matches_the_unfolded_composition(small_data, toy_config, monkeypatch, name):
    """Each norm's affine folded into the maps that read it (``norm_linear``)
    gives the logits and every parameter gradient of a training step of the
    affine node followed by the plain map, to 1e-12 relative in float64.
    Every parameter is moved off its init, so no gain is 1 and no shift 0."""
    batch = make_batch(small_data.train, [0, 1, 40, 2, 41, 80])  # groups 0, 0, 1, 0, 1, 2

    def step():
        model = _model(toy_config, name)
        for key, p in model.trainable_parameters().items():
            p.data = p.data + 0.3 * generator(child_seed(0, "nudge", key)).standard_normal(p.data.shape)
        with Tape() as tape:
            _, logits = model.forward(batch, train=True, sample_seed=4)
            backward(batch_cross_entropy(logits, batch.labels), tape)
        return logits.data, {k: p.grad for k, p in model.trainable_parameters().items()}

    logits, grads = step()
    monkeypatch.setattr(T, "norm_linear", _unfolded_norm_linear)
    ref_logits, ref_grads = step()
    assert _relative_gap(logits, ref_logits) <= 1e-12
    assert {k for k, g in grads.items() if g is None} == {k for k, g in ref_grads.items() if g is None}
    for key, ref in ref_grads.items():
        if ref is not None:
            assert _relative_gap(grads[key], ref) <= 1e-12, key


def test_kind_none_records_the_plain_vit_tape_and_gradients(small_data, toy_config):
    model = _model(toy_config, "none")
    batch = make_batch(small_data.train, np.arange(5))

    def step(forward):
        with Tape() as tape:
            _, logits = forward()
            backward(batch_cross_entropy(logits, batch.labels), tape)
        grads = {k: p.grad for k, p in model.backbone.items()}
        for p in model.backbone.values():
            p.grad = None
        return len(tape), grads

    nodes, grads = step(lambda: model.forward(batch, train=True))
    plain_nodes, plain_grads = step(lambda: vit_forward(batch.images, model.backbone, toy_config))
    assert nodes == plain_nodes
    assert all(np.array_equal(grads[k], plain_grads[k]) for k in plain_grads)


# ------------------------------------------------------------------ kinds API


def test_kind_vocabulary_round_trips():
    for name in CONTEXT_KIND_NAMES:
        assert ContextKind.from_name(name).name == name
        # only the kinds that read patches or ema_lambda keep them
        kind = ContextKind.from_name(name, patches=8, ema_lambda=0.5)
        assert (kind == ContextKind(name)) == (kind.base not in ("in_context_patches", "ema"))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ContextKind.from_name("transformer_pool")


def test_grouped_batch_partition_auto_property(small_data):
    batch = make_batch(small_data.train, [0, 5, 1])
    assert "partition" not in vars(batch)  # derived on first read, not at construction
    flat = sorted(i for idxs in batch.partition.values() for i in idxs)
    assert flat == [0, 1, 2]
    # the partition is always derived from ``groups``; it cannot be passed in
    with pytest.raises(TypeError):
        GroupedBatch(batch.images, batch.labels, batch.groups, partition={0: [0, 1, 2]})


def _indexed_record(groups) -> GroupedBatch:
    """A record whose image and label values name their own row."""
    n = len(groups)
    return GroupedBatch(np.arange(float(n)).reshape(n, 1, 1, 1), np.arange(n), groups)


@settings(max_examples=100, deadline=None)
@given(groups=st.lists(st.integers(-3, 5), min_size=1, max_size=24), data=st.data())
def test_grouped_batch_partition_take_and_concat_property(groups, data):
    x = _indexed_record(groups)
    ids = x.groups
    members = [i for part in x.partition.values() for i in part]
    assert sorted(members) == list(range(x.size))  # disjoint, and covering every row
    assert list(x.partition) == list(dict.fromkeys(groups))  # first-occurrence order
    for gid, part in x.partition.items():
        assert all(ids[i] == gid for i in part)
    assert x.contexts == list(x.partition.items())  # with no sets, one context per group
    slots = x.slots
    for slot, part in enumerate(x.partition.values()):
        assert all(slots[i] == slot for i in part)  # slots inverts the partition

    rows = st.lists(st.integers(0, x.size - 1), max_size=12)
    a, b = data.draw(rows), data.draw(rows)
    assert x.take(a).partition == group_partition(ids[np.asarray(a, dtype=np.int64)])
    joined, want = GroupedBatch.concat([x.take(a), x.take(b)]), x.take(a + b)
    for name in ("images", "labels", "groups"):
        assert getattr(joined, name).tobytes() == getattr(want, name).tobytes()
    assert joined.partition == want.partition


# ------------------------------------------------------------ packed batches


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 4)), min_size=1, max_size=24), data=st.data())
def test_packed_contexts_are_one_per_set_and_group_property(pairs, data):
    """With ``sets``, a context is a (set, group) pair's members, keyed by
    first occurrence; ``slots`` inverts the contexts, and ``take`` carries
    the sets."""
    sets, groups = (list(column) for column in zip(*pairs))
    x = GroupedBatch(_indexed_record(groups).images, np.arange(len(groups)), groups, sets)
    keys = list(dict.fromkeys(pairs))
    assert [gid for gid, _ in x.contexts] == [g for _, g in keys]
    for (gid, members), key in zip(x.contexts, keys):
        assert members == [i for i, pair in enumerate(pairs) if pair == key]
    for slot, (_, members) in enumerate(x.contexts):
        assert all(x.slots[i] == slot for i in members)
    assert x.partition == group_partition(groups)  # the partition keeps its meaning
    rows = data.draw(st.lists(st.integers(0, x.size - 1), max_size=12))
    assert x.take(rows).sets.tolist() == [sets[i] for i in rows]


def test_sets_need_one_entry_per_image(small_data):
    batch = make_batch(small_data.train, [0, 1, 2])
    with pytest.raises(ValueError):
        GroupedBatch(batch.images, batch.labels, batch.groups, sets=[0, 1])
    assert make_batch(small_data.train, [0, 1]).take([1, 0]).sets is None


def _packed(images, groups, sets) -> GroupedBatch:
    return GroupedBatch(images, np.zeros(len(groups), dtype=int), groups, sets)


def _sets_alone(images, groups, sets) -> list:
    """Each set of a packed batch as a batch of its own, in set order."""
    sets = np.asarray(sets)
    return [GroupedBatch(images[sets == j], np.zeros(int((sets == j).sum()), dtype=int), np.asarray(groups)[sets == j])
            for j in np.unique(sets)]


def test_packed_ema_infers_each_sets_mean_for_a_group_without_state(toy_config):
    """Group 3 has no state and appears in both sets: each set's images get
    their own set's mean, as in their own batch.  Group 0 has state: every
    one of its images reads it.  Evaluation leaves the state alone."""
    model = _model(toy_config, "ema")
    for p in model.context.values():
        p.data = p.data + generator(34).normal(size=p.data.shape) * 0.3
    state = generator(35).normal(size=toy_config.dim)
    model.ema_state = {0: state.copy()}
    images = np.random.default_rng(36).random((6, 16, 16, 3))
    groups, sets = [0, 3, 3, 3, 0, 3], [0, 0, 0, 1, 1, 1]
    got = _slot_one(model, _packed(images, groups, sets))
    want = np.concatenate([_slot_one(model, batch) for batch in _sets_alone(images, groups, sets)])
    assert _relative_gap(got, want) <= 1e-12
    head = state @ model.context["ctx_head0.w"].data + model.context["ctx_head0.b"].data
    np.testing.assert_allclose(got[[0, 4]], [head, head], rtol=1e-12)
    assert np.max(np.abs(got[1] - got[3])) > 1e-3  # group 3's two sets have their own means
    assert list(model.ema_state) == [0] and np.array_equal(model.ema_state[0], state)


def test_packed_in_context_patch_draws_equal_each_sets_own_draws(toy_config, monkeypatch):
    """Each context draws with its group's seed from its own members, so a
    set's draws are its own batch's, shifted by the rows before it."""
    model = _model(toy_config, "in_context_patches")
    draws = []
    real = ctx_mod.sample_context_patches

    def spy(rows, k, seed):
        draws.append(real(rows, k, seed))
        return draws[-1]

    monkeypatch.setattr(ctx_mod, "sample_context_patches", spy)
    images = np.random.default_rng(37).random((7, 16, 16, 3))
    groups, sets = [0, 1, 0, 1, 1, 0, 2], [0, 0, 0, 1, 1, 1, 1]
    n = (16 // toy_config.patch) ** 2
    with Tape():
        model.forward(_packed(images, groups, sets))
        packed, alone, offset = list(draws), [], 0
        for batch in _sets_alone(images, groups, sets):
            draws.clear()
            model.forward(batch)
            alone += [d + offset * n for d in draws]
            offset += batch.size
    assert len(packed) == len(alone) == 5  # (0, 0), (0, 1), (1, 1), (1, 0), (1, 2)
    for got, want in zip(packed, alone):
        assert np.array_equal(got, want)


def test_capturing_tokens_of_a_packed_batch_is_rejected(small_data, toy_config):
    """Captured tokens are keyed by (layer, group), and a packed batch can
    hold one group in two contexts."""
    model = _model(toy_config, "mean_linear_detach")
    batch = make_batch(small_data.train, [0, 1, 2, 3])
    with Tape(), pytest.raises(ValueError):
        model.forward(GroupedBatch(batch.images, batch.labels, batch.groups, [0, 0, 1, 1]),
                      capture_context_tokens={})
