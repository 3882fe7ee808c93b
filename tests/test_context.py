"""Context-token machinery: partitioning, every inference kind, the grouped
forward pass layout, detach semantics, and unseen-group behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextvit import context as ctx_mod
from contextvit.context import (
    CONTEXT_KIND_NAMES,
    ContextKind,
    ContextViT,
    GroupedBatch,
    UnknownGroupError,
    apply_linear_head,
    deep_sets_infer,
    ema_update,
    group_partition,
    infer_context_mean,
    init_context_params,
    oracle_lookup,
    sample_context_patches,
)
from contextvit.rng import generator
from contextvit.tensor import Tape, backward, constant, tensor
from contextvit.train import batch_cross_entropy
from contextvit.vit import patchify_batch, vit_forward

from conftest import dot, make_batch

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


def _one_group(rows: int) -> list:
    """Member list of a single group that owns all ``rows`` rows."""
    return [np.arange(rows)]


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


# ---------------------------------------------------------------- linear head


def test_linear_head_identity():
    t = constant([1.0, -2.0, 3.0])
    out = apply_linear_head(t, constant(np.eye(3)), constant(np.zeros(3)), detach=False)
    assert np.array_equal(out.data, t.data)


def test_linear_head_zero_weight_returns_bias():
    t = constant([1.0, -2.0])
    beta = np.array([0.5, 0.7])
    out = apply_linear_head(t, constant(np.zeros((2, 2))), constant(beta), detach=False)
    assert np.array_equal(out.data, beta)


def test_linear_head_detach_blocks_upstream():
    src = tensor([1.0, 2.0], requires_grad=True)
    w = tensor(np.eye(2), requires_grad=True)
    b = tensor(np.zeros(2), requires_grad=True)
    with Tape() as tape:
        backward(dot(apply_linear_head(src, w, b, detach=True)), tape)
    assert np.array_equal(src.grad, np.zeros(2))
    assert np.array_equal(b.grad, np.ones(2))
    with Tape() as tape:
        backward(dot(apply_linear_head(src, w, b, detach=False)), tape)
    assert np.array_equal(src.grad, np.ones(2))


# -------------------------------------------------------------------- oracle


def _oracle_params(config):
    return init_context_params(config, ContextKind.from_name("oracle"), seed=0, group_ids=[0, 3])


def test_oracle_lookup_returns_stored_vector(toy_config):
    params = _oracle_params(toy_config)
    params["oracle_table"].data[1, :] = 7.0  # group 3 sorts second
    with Tape():
        out = oracle_lookup([3], params)
    assert np.array_equal(out.data, np.full((1, toy_config.dim), 7.0))


def test_oracle_lookup_unknown_group_errors(toy_config):
    params = _oracle_params(toy_config)
    with pytest.raises(UnknownGroupError):
        with Tape():
            oracle_lookup([0, 5], params)


def test_oracle_ids_beyond_float64_precision_rejected(toy_config):
    with pytest.raises(ValueError, match=str(2 ** 53 + 1)):
        init_context_params(toy_config, ContextKind.from_name("oracle"), seed=0, group_ids=[0, 2 ** 53 + 1])
    with pytest.raises(ValueError, match=str(-(2 ** 53) - 1)):
        init_context_params(toy_config, ContextKind.from_name("oracle"), seed=0, group_ids=[-(2 ** 53) - 1])
    # 2**53 itself is exact and registers
    init_context_params(toy_config, ContextKind.from_name("oracle"), seed=0, group_ids=[2 ** 53])


def test_oracle_lookup_of_unstorable_id_is_unknown(toy_config):
    params = init_context_params(toy_config, ContextKind.from_name("oracle"), seed=0, group_ids=[0, 2 ** 53])
    params["oracle_table"].data[1, :] = 7.0
    assert np.array_equal(oracle_lookup([2 ** 53], params).data, np.full((1, toy_config.dim), 7.0))
    # float(2**53 + 1) == 2**53: without the bound this returned group 2**53's token
    with pytest.raises(UnknownGroupError):
        oracle_lookup([2 ** 53 + 1], params)


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
    base = deep_sets_infer(constant(rows), params, False, _one_group(12)).data[0]
    perm = rows[np.random.default_rng(6).permutation(12)]
    scrambled = deep_sets_infer(constant(perm), params, False, _one_group(12)).data[0]
    assert np.allclose(scrambled, base, atol=1e-12)


def test_deep_sets_zero_networks_give_zero_token(toy_config):
    params = _deep_sets_params(toy_config)
    for name, p in params.items():
        p.data = np.zeros_like(p.data)  # phi becomes identity (residuals), rho becomes 0
    rows = generator(7).normal(size=(6, toy_config.dim))
    out = deep_sets_infer(constant(rows), params, False, _one_group(6))
    assert np.array_equal(out.data, np.zeros((1, toy_config.dim)))


def test_deep_sets_duplicating_patches_doubles_sum(toy_config):
    d = toy_config.dim
    params = _deep_sets_params(toy_config)
    for name, p in params.items():
        p.data = np.zeros_like(p.data)
    params["ctx_rho.w3"].data = np.eye(d)  # phi identity, rho linear-identity
    embeds = generator(8).normal(size=(6, d))
    once = deep_sets_infer(constant(embeds), params, False, _one_group(6)).data
    twice = deep_sets_infer(constant(np.concatenate([embeds, embeds])), params, False, _one_group(12)).data
    assert np.allclose(twice, 2.0 * once, atol=1e-12)


def test_deep_sets_detach_blocks_inputs(toy_config):
    params = _deep_sets_params(toy_config)
    # rho's output layer is zero-initialized, which would make the live
    # gradient legitimately zero too; nudge everything off that point
    for p in params.values():
        p.data = p.data + generator(19).normal(size=p.data.shape) * 0.1
    src = tensor(generator(9).normal(size=(6, toy_config.dim)), requires_grad=True)
    with Tape() as tape:
        backward(dot(deep_sets_infer(src, params, True, _one_group(6))), tape)
    assert np.array_equal(src.grad, np.zeros_like(src.data))
    with Tape() as tape:
        backward(dot(deep_sets_infer(src, params, False, _one_group(6))), tape)
    assert np.abs(src.grad).max() > 0


def test_deep_sets_empty_set_rejected(toy_config):
    params = _deep_sets_params(toy_config)
    with pytest.raises(ValueError):
        deep_sets_infer(constant(np.zeros((0, toy_config.dim))), params, False, _one_group(0))


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
def test_batched_context_column_matches_per_group_loop_bitwise(toy_config, name):
    model = _model(toy_config, name, group_ids=range(12))
    for p in model.context.values():
        if p.requires_grad:  # the oracle's id column stays as registered
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
                token = ctx["oracle_table"][int(np.nonzero(ctx["oracle_groups"] == gid)[0][0])]
            else:
                token = (pooled[None] @ ctx["ctx_head0.w"] + ctx["ctx_head0.b"])[0]
            want[members] = token
        assert np.array_equal(got, want)


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


def test_layerwise_heads_silent_when_disabled(small_data, toy_config):
    model = _model(toy_config, "mean_linear_detach")
    batch = make_batch(small_data.train, np.arange(6))
    with Tape() as tape:
        _, logits = model.forward(batch)
        loss = batch_cross_entropy(logits, batch.labels)
        backward(loss, tape)
    def grad_is_zero(p):
        # parameters never touched by the forward have no grad buffer at all;
        # the optimizer reads that as zero
        return p.grad is None or not np.any(p.grad)

    for l in range(1, toy_config.depth):
        assert grad_is_zero(model.context[f"ctx_head{l}.w"])
        assert grad_is_zero(model.context[f"ctx_head{l}.b"])
    assert model.context["ctx_head0.b"].grad is not None  # head 0 participates
    assert np.any(model.context["ctx_head0.b"].grad)


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

    def run(name, override=None, capture=None):
        model = _model(toy_config, name, seed=2)
        for p in model.context.values():
            p.data = p.data + generator(24).normal(size=p.data.shape) * 0.25
        with Tape() as tape:
            _, logits = model.forward(
                batch, capture_context_inputs=capture, context_input_override=override
            )
            backward(batch_cross_entropy(logits, batch.labels), tape)
        return {k: v.grad.copy() for k, v in model.backbone.items() if v.grad is not None}

    captured = {}
    detached = run("mean_linear_detach", capture=captured)
    frozen = run("mean_linear_detach", override=captured)
    assert set(detached) == set(frozen)
    for key in detached:
        assert np.array_equal(detached[key], frozen[key]), key

    captured_live = {}
    live = run("mean_linear", capture=captured_live)
    frozen_live = run("mean_linear", override=captured_live)
    assert any(not np.array_equal(live[k], frozen_live[k]) for k in live)


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
