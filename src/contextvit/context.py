"""Context tokens inferred per group, plus the one conditioned forward pass.

Every kind runs the same shared ViT through ``contextvit_forward``; a kind
changes only what joins CLS and the patch tokens, and kind ``none`` adds
nothing, which makes it the plain ViT.  A context token occupies slot 1
of the sequence (slot 0 is CLS, patch tokens start at slot 2).  It can
come from a trainable per-group table (``oracle``), from mean-pooled
patch embeddings of the group's batch members with an optional linear
head and optional stop-gradient (``mean``, ``mean_linear``,
``mean_linear_detach``, also per-layer), from a deep-sets network over
member patches, from an exponential moving average of batch means, or
the sequence can instead be extended with raw patches sampled from the
group (``in_context_patches``).

Every kind infers all of a batch's G contexts at once, so a forward
records the same tape nodes for one context as for sixteen: one product
with the batch's pooling matrix (built from ``GroupedBatch.slots``) pools
each context's member rows into a [G, d] stack, the kind maps that stack
to the [G, d] tokens (a table gather, a linear head, the deep-sets
networks), and one ``index_rows`` with a [B, 1] index hands every image
its context's token.  A context is one group of the batch
(``GroupedBatch.contexts``); a packed batch, which holds several
evaluation batches (``GroupedBatch.sets``), has one per (set, group), so
each image sees the context it would see in its own batch.
``in_context_patches`` draws each context's rows with its group's seed
and gathers every image's draws in one ``index_rows``.

A forward writes nothing outside its outputs: the logits and a
``ForwardRecord``, which holds the ema kind's new running means for the
training loop to commit.  Replaying a record's ``inputs`` at their
record/replay boundaries gives its logits bit for bit.

The pooled kinds work for any group, including ones never seen in
training and groups with a single member; the oracle table raises for
unknown groups.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .rng import child_seed, generator, randn
from .tensor import Tensor, as_float_array
from .vit import (
    ViTConfig,
    _assemble,
    embed_patches,
    encode_tokens,
    init_backbone_params,
    patchify_batch,
)

__all__ = [
    "CONTEXT_KIND_NAMES",
    "ContextKind",
    "UnknownGroupError",
    "GroupedBatch",
    "group_partition",
    "init_context_params",
    "infer_context_mean",
    "oracle_lookup",
    "ema_update",
    "deep_sets_infer",
    "sample_context_patches",
    "ForwardRecord",
    "contextvit_forward",
    "ContextViT",
]

# kind name -> (base, detach, layerwise), the properties of ``ContextKind``
_NAMED_KINDS = {
    "none": ("none", False, False),
    "mean": ("mean", False, False),
    "mean_linear": ("mean_linear", False, False),
    "mean_linear_detach": ("mean_linear", True, False),
    "layerwise_mean_linear_detach": ("mean_linear", True, True),
    "deep_sets": ("deep_sets", False, False),
    "deep_sets_detach": ("deep_sets", True, False),
    "oracle": ("oracle", False, False),
    "ema": ("ema", True, False),
    "in_context_patches": ("in_context_patches", False, False),
}

CONTEXT_KIND_NAMES = tuple(_NAMED_KINDS)

_AMORTIZED_BASES = ("mean", "mean_linear", "deep_sets", "ema", "in_context_patches")


class UnknownGroupError(KeyError):
    """Raised when a kind that memorizes groups meets an unregistered one."""


@dataclass(frozen=True)
class ContextKind:
    """One of the named context mechanisms in ``CONTEXT_KIND_NAMES``.

    name: the kind, which fixes the read-only properties
      base: none | mean | mean_linear | deep_sets | oracle | ema | in_context_patches
      detach: the patch tokens enter the context path detached
        (``stop_gradient``), so no gradient flows back through the token's
        inference and none of it is recorded; ``ema`` is such a kind, since
        its token reads the running state, never the live pool
      layerwise: re-infer the context token after every layer (mean family only)
    patches: K for in_context_patches
    ema_lambda: decay for the ema kind
    """

    name: str
    patches: int = 256
    ema_lambda: float = 0.99

    def __post_init__(self):
        if self.name not in _NAMED_KINDS:
            raise ValueError(f"unknown context kind {self.name!r}; expected one of {CONTEXT_KIND_NAMES}")
        if self.base == "in_context_patches" and self.patches < 1:
            raise ValueError("in_context_patches requires K >= 1")
        if self.base == "ema" and not (0.0 < self.ema_lambda < 1.0):
            raise ValueError(f"ema lambda must lie in (0,1), got {self.ema_lambda}")

    @property
    def base(self) -> str:
        return _NAMED_KINDS[self.name][0]

    @property
    def detach(self) -> bool:
        return _NAMED_KINDS[self.name][1]

    @property
    def layerwise(self) -> bool:
        return _NAMED_KINDS[self.name][2]

    @property
    def amortized(self) -> bool:
        """True when the token is computed from batch content, so unseen
        groups are fine."""
        return self.base in _AMORTIZED_BASES

    @property
    def has_token_slot(self) -> bool:
        return self.base not in ("none", "in_context_patches")

    @classmethod
    def from_name(cls, name: str, patches: Optional[int] = None, ema_lambda: Optional[float] = None) -> "ContextKind":
        """The kind ``name``; ``patches`` and ``ema_lambda`` (None: the
        field's default, their one spelling) are kept only by the kinds that
        read them, so equal kinds compare equal."""
        kind = cls(name)
        if kind.base == "in_context_patches" and patches is not None:
            return cls(name, patches=patches)
        if kind.base == "ema" and ema_lambda is not None:
            return cls(name, ema_lambda=ema_lambda)
        return kind


@dataclass
class GroupedBatch:
    """Images with their labels and group ids, index-aligned: a model batch
    and equally a whole dataset split.  The partition, derived from
    ``groups`` on first read, maps each group to the member indices in input
    order, groups keyed by first occurrence.

    ``sets``, when given, names each image's evaluation batch: the batch
    then packs several of them into one forward, and the forward infers
    one context per (set, group) instead of one per group (``contexts``).
    Training batches leave it None.
    """

    images: np.ndarray  # [B, H, W, C]
    labels: np.ndarray  # [B] int
    groups: np.ndarray  # [B] int group ids
    sets: Optional[np.ndarray] = None  # [B] int evaluation batch of each image, or None: one batch

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.groups = np.asarray(self.groups, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be [B,H,W,C], got {self.images.shape}")
        b = self.images.shape[0]
        if self.labels.shape != (b,) or self.groups.shape != (b,):
            raise ValueError("labels/groups must have one entry per image")
        if self.sets is not None:
            self.sets = np.asarray(self.sets, dtype=np.int64)
            if self.sets.shape != (b,):
                raise ValueError(f"sets must have one entry per image, got shape {self.sets.shape} for {b} images")

    @functools.cached_property
    def partition(self) -> dict[int, list[int]]:
        return group_partition(self.groups)

    @functools.cached_property
    def contexts(self) -> list[tuple[int, list[int]]]:
        """(group id, member indices) of each context the forward infers, in
        first-occurrence order: ``partition``'s items, or with ``sets`` one
        entry per (set, group), so a group in two sets has two contexts."""
        if self.sets is None:
            return list(self.partition.items())
        out: dict[tuple[int, int], list[int]] = {}
        for i, key in enumerate(zip(self.sets.tolist(), self.groups.tolist())):
            out.setdefault(key, []).append(i)
        return [(gid, members) for (_, gid), members in out.items()]

    @property
    def size(self) -> int:
        return int(self.images.shape[0])

    def take(self, idx) -> "GroupedBatch":
        """The records at integer positions ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        sets = None if self.sets is None else self.sets[idx]
        return GroupedBatch(self.images[idx], self.labels[idx], self.groups[idx], sets)

    @classmethod
    def concat(cls, parts: Sequence["GroupedBatch"]) -> "GroupedBatch":
        """``parts`` joined end to end."""
        return cls(
            np.concatenate([p.images for p in parts]),
            np.concatenate([p.labels for p in parts]),
            np.concatenate([p.groups for p in parts]),
        )

    @functools.cached_property
    def slots(self) -> np.ndarray:
        """Each image's context slot: its context's position in ``contexts``."""
        out = np.empty(self.size, dtype=np.int64)
        for slot, (_, members) in enumerate(self.contexts):
            out[members] = slot
        return out


def group_partition(groups: Sequence[int]) -> dict[int, list[int]]:
    """Group ids -> member index lists, keyed in first-occurrence order."""
    out: dict[int, list[int]] = {}
    for i, g in enumerate(groups):
        out.setdefault(int(g), []).append(i)
    return out


def init_context_params(
    config: ViTConfig,
    kind: ContextKind,
    seed: int,
    group_ids: Optional[Sequence[int]] = None,
) -> dict[str, Tensor]:
    """Trainable context parameters for the chosen kind.

    The oracle table's row g is group g's token, so the set of ``group_ids``
    must be ``{0, ..., n-1}``; any other is a ``ValueError`` naming it.
    A kind with a linear head has one for each layer that infers its token:
    every layer for a layerwise kind, layer 0 otherwise.  So the forward
    reads every parameter made here.
    """
    d = config.dim
    params: dict[str, Tensor] = {}
    if kind.base in ("mean_linear", "ema"):
        for l in range(config.depth if kind.layerwise else 1):
            params[f"ctx_head{l}.w"] = Tensor(np.zeros((d, d)), requires_grad=True)
            params[f"ctx_head{l}.b"] = Tensor(np.zeros(d), requires_grad=True)
    elif kind.base == "oracle":
        ids = sorted({int(g) for g in group_ids or ()})
        if not ids or ids != list(range(len(ids))):
            raise ValueError(f"oracle kind needs the training group ids 0..n-1, one table row each, got {ids}")
        params["oracle_table"] = Tensor(np.zeros((len(ids), d)), requires_grad=True)
    elif kind.base == "deep_sets":
        for net in ("phi", "rho"):
            for layer in ("w1", "w2", "w3"):
                scale = d ** -0.5
                if net == "rho" and layer == "w3":
                    # zero output layer: context starts as the zero vector
                    params[f"ctx_{net}.{layer}"] = Tensor(np.zeros((d, d)), requires_grad=True)
                else:
                    params[f"ctx_{net}.{layer}"] = Tensor(
                        randn((d, d), child_seed(seed, "ctx", net, layer), scale=scale),
                        requires_grad=True,
                    )
            for bias in ("b1", "b2", "b3"):
                params[f"ctx_{net}.{bias}"] = Tensor(np.zeros(d), requires_grad=True)
    # mean / none / in_context_patches carry no parameters
    return params


def _pooling_weights(slots, rows: int, inner: int, dtype, mean: bool = True) -> np.ndarray:
    """[G, rows * inner] pooling matrix: ``slots[r]`` is row r's group g,
    and row g of the matrix holds 1 / (|g| * inner) (1 for sums,
    ``mean=False``) at each of row r's ``inner`` positions, 0 elsewhere.
    Built in ``dtype``, so the product stays in the pooled input's dtype."""
    slots = np.asarray(slots, dtype=np.int64)
    if slots.ndim != 1 or slots.size == 0:
        raise ValueError(f"pooling needs a non-empty 1-D slot vector, got shape {slots.shape}")
    if slots.size != rows:
        raise ValueError(f"slot vector has {slots.size} entries for {rows} rows")
    if slots.min() < 0:
        raise ValueError(f"slot vector holds a negative slot {slots.min()}")
    sizes = np.bincount(slots)
    if not sizes.all():
        raise ValueError(f"slot vector leaves groups {np.flatnonzero(sizes == 0).tolist()} empty")
    w = np.zeros((sizes.size, rows, inner), dtype)
    w[slots, np.arange(rows)] = (1.0 / (sizes * inner))[slots, None] if mean else 1.0
    return w.reshape(sizes.size, rows * inner)


def infer_context_mean(patch_embeds: Tensor, slots) -> Tensor:
    """Mean over each group's member images and patches: [B, N, d] -> [G, d],
    where ``slots[i]`` is image i's group; one product with the pooling matrix."""
    b, d = patch_embeds.shape[0], patch_embeds.shape[-1]
    w = _pooling_weights(slots, b, math.prod(patch_embeds.shape[1:-1]), patch_embeds.data.dtype)
    return T.linear(T.constant(w), T.reshape(patch_embeds, (w.shape[1], d)))


def _unregistered(groups, table: Tensor) -> list:
    """The ``groups`` the oracle table has no row for: row g is group g's token."""
    return [g for g in groups if not 0 <= int(g) < table.shape[0]]


def oracle_lookup(groups: Sequence[int], params: dict[str, Tensor]) -> Tensor:
    """Trainable tokens [G, d] of ``groups``, row g for group g; an unregistered group is an error."""
    table = params["oracle_table"]
    unknown = _unregistered(groups, table)
    if unknown:
        raise UnknownGroupError(
            f"unknown context: group {unknown[0]} was never registered with the oracle table"
        )
    return T.index_rows(table, [int(g) for g in groups])


def ema_update(previous: Optional[np.ndarray], batch_mean: np.ndarray, lam: float) -> np.ndarray:
    """lam*previous + (1-lam)*batch_mean, or a copy of ``batch_mean`` when
    ``previous`` is None; a float32 mean stays float32 (``as_float_array``)."""
    if not (0.0 < lam < 1.0):
        raise ValueError(f"ema lambda must lie in (0,1), got {lam}")
    mean = as_float_array(batch_mean)
    return mean.copy() if previous is None else lam * previous + (1.0 - lam) * mean


def _mlp_residual(x: Tensor, params: dict[str, Tensor], net: str, final_residual: bool) -> Tensor:
    """Two relu hidden layers with residual adds; final affine, residual optional."""
    p = lambda k: params[f"ctx_{net}.{k}"]
    h = T.relu(T.linear(x, p("w1"), p("b1"))) + x
    h = T.relu(T.linear(h, p("w2"), p("b2"))) + h
    out = T.linear(h, p("w3"), p("b3"))
    return out + h if final_residual else out


def deep_sets_infer(patch_embeds: Tensor, params: dict[str, Tensor], slots) -> Tensor:
    """rho(sum_i phi(t_i)) over each group's patch rows: [R, d] -> [G, d],
    where ``slots[r]`` is row r's group."""
    if patch_embeds.ndim != 2:
        raise ValueError(f"expected [rows, d] patch tokens, got {patch_embeds.shape}")
    phi = _mlp_residual(patch_embeds, params, "phi", final_residual=True)
    w = _pooling_weights(slots, phi.shape[0], 1, phi.data.dtype, mean=False)
    return _mlp_residual(T.linear(T.constant(w), phi), params, "rho", final_residual=False)


def sample_context_patches(rows: np.ndarray, k: int, seed: int) -> np.ndarray:
    """K of a group's pooled patch rows, drawn uniformly with replacement."""
    if k < 1:
        raise ValueError(f"need K >= 1 context patches, got {k}")
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or rows.size == 0:
        raise ValueError("patch pool must be a non-empty 1-D list of rows")
    return rows[generator(seed).integers(0, rows.size, size=k)]


def _patch_rows(members, n: int) -> np.ndarray:
    """Rows of the flattened [B*N, d] patch tokens that belong to ``members``."""
    return (np.asarray(members, dtype=np.int64)[:, None] * n + np.arange(n)).ravel()


@dataclass
class ForwardRecord:
    """What a forward computed besides its logits."""

    cls: Optional[Tensor] = None  # [B, d] CLS rows, normalized, before the final norm's affine
    inputs: dict[int, np.ndarray] = field(default_factory=dict)  # layer -> array at its boundary (_frozen_input)
    tokens: dict[int, np.ndarray] = field(default_factory=dict)  # layer -> [C, d] tokens, in batch.contexts order
    ema_means: dict[int, np.ndarray] = field(default_factory=dict)  # group -> mean after this training batch


def _frozen_input(layer: int, computed: Tensor, frozen: dict, record: ForwardRecord) -> Tensor:
    """The array at layer ``layer``'s record/replay boundary, the input of
    every pooled kind's token map: the pooled [G, d] stack, the [B*N, d]
    patch rows or the [G, d] ema means.  It goes to ``record.inputs``.

    A layer that ``frozen`` holds is replayed as a constant of that value:
    gradient verification freezes the boundary of a detached kind this way,
    so finite differences see only the declared-differentiable subgraph.
    """
    if layer in frozen:
        value = frozen[layer]
        if np.shape(value) != computed.shape:
            raise ValueError(f"frozen context input for layer {layer} has shape {np.shape(value)}, "
                             f"the boundary has {computed.shape}")
        computed = T.constant(np.array(value, dtype=computed.data.dtype))
    record.inputs[layer] = computed.data
    return computed


def _group_tokens(patch_tokens: Tensor, batch: GroupedBatch, layer: int, model: "ContextViT", train: bool,
                  frozen: dict, record: ForwardRecord) -> Tensor:
    """Context tokens [G, d] of the batch's contexts, in ``contexts``
    order, from patch tokens [B, N, d].  Training puts each group's new ema
    mean in ``record.ema_means``; at evaluation a context whose group has no
    state adopts its own pooled mean, as a first sighting would.

    A detached kind reads the patch tokens through ``stop_gradient``, so its
    pooling records nothing.
    """
    kind, params = model.kind, model.context
    if kind.detach:
        patch_tokens = T.stop_gradient(patch_tokens)
    groups = [gid for gid, _ in batch.contexts]
    b, n, d = patch_tokens.shape
    if kind.base == "oracle":
        return oracle_lookup(groups, params)
    if kind.base == "deep_sets":
        rows = _frozen_input(layer, T.reshape(patch_tokens, (b * n, d)), frozen, record)
        return deep_sets_infer(rows, params, np.repeat(batch.slots, n))
    pooled = infer_context_mean(patch_tokens, batch.slots)
    if kind.base == "ema":
        state = model.ema_state
        if train:
            for gid, batch_mean in zip(groups, pooled.data):
                record.ema_means[gid] = ema_update(state.get(gid), batch_mean, kind.ema_lambda)
            means = [record.ema_means[g] for g in groups]
        else:
            means = [state.get(g, batch_mean) for g, batch_mean in zip(groups, pooled.data)]
        pooled = T.constant(np.stack(means))
    src = _frozen_input(layer, pooled, frozen, record)
    if kind.base == "mean":
        return src
    return T.linear(src, params[f"ctx_head{layer}.w"], params[f"ctx_head{layer}.b"])


def contextvit_forward(
    batch: GroupedBatch,
    model: "ContextViT",
    train: bool = False,
    sample_seed: int = 0,
    frozen_context_inputs: Optional[dict] = None,
) -> tuple[ForwardRecord, Tensor]:
    """Group-conditioned forward pass of ``model``: batch -> (``ForwardRecord``,
    logits [B, num_classes]), and it writes nothing else.

    Sequence layout per image: [CLS, context, patch+pos ...] (length N+2)
    for token-producing kinds; [CLS, patch+pos ..., K sampled patches]
    (length N+1+K) for in_context_patches; and plain [CLS, patch+pos ...]
    for kind none, which is the plain ViT bit for bit (the tests' reference
    ``vit_forward`` in ``tests/conftest.py`` checks this).  The encoder
    returns only the CLS read-out, which feeds the head; a layerwise kind
    rewrites its slot through the encoder's hook, after every layer but
    the last.

    ``train`` lets the ema kind move its running means, into
    ``ForwardRecord.ema_means``; ``sample_seed`` seeds the in-context patch
    draws.  ``frozen_context_inputs`` maps a layer to the array to replay at
    its record/replay boundary (``_frozen_input``), which every pooled
    kind, ``mean`` included, passes its token map's input through.
    """
    record = ForwardRecord()
    backbone, config, kind = model.backbone, model.config, model.kind
    patches = T.constant(patchify_batch(batch.images, config.patch, backbone["patch_projection"].data.dtype))
    patch_tokens = embed_patches(patches, backbone)  # pre-positional, pooled from
    b, n, d = patch_tokens.shape
    prefix, suffix, layer_hook = (), (), None

    if kind.base == "in_context_patches":
        drawn = [
            sample_context_patches(_patch_rows(members, n), kind.patches, child_seed(sample_seed, "in_context", gid))
            for gid, members in batch.contexts
        ]
        suffix = (T.index_rows(T.reshape(patch_tokens, (b * n, d)), np.stack(drawn)[batch.slots]),)  # [B, K, d]
    elif kind.has_token_slot:
        slots = batch.slots[:, None]

        def column(x: Tensor, layer: int) -> Tensor:
            """[B, 1, d] context slot contents: each image gets its context's token."""
            group_tokens = _group_tokens(x, batch, layer, model, train, frozen_context_inputs or {}, record)
            record.tokens[layer] = group_tokens.data
            return T.index_rows(group_tokens, slots)

        prefix = (column(patch_tokens, 0),)
        if kind.layerwise:

            def layer_hook(l: int, x: Tensor) -> Tensor:
                hidden = x[:, 2:]
                return T.concat([x[:, 0:1], column(hidden, l + 1), hidden], axis=1)

    tokens = _assemble(patch_tokens, backbone, prefix_tokens=prefix, suffix_tokens=suffix)
    record.cls = encode_tokens(tokens, backbone, config, layer_hook=layer_hook)
    logits = T.norm_linear(record.cls, backbone["final_norm.gain"], backbone["final_norm.bias"],
                           backbone["head.w"], backbone["head.b"])
    return record, logits


@dataclass
class ContextViT:
    """Bundle of config, kind, parameters, and ema state with a forward method."""

    config: ViTConfig
    kind: ContextKind
    backbone: dict[str, Tensor]
    context: dict[str, Tensor]
    ema_state: dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        config: ViTConfig,
        kind: ContextKind,
        seed: int,
        group_ids: Optional[Sequence[int]] = None,
    ) -> "ContextViT":
        return cls(
            config=config,
            kind=kind,
            backbone=init_backbone_params(config, child_seed(seed, "backbone")),
            context=init_context_params(config, kind, child_seed(seed, "context"), group_ids),
        )

    def parameters(self) -> dict[str, Tensor]:
        merged = dict(self.backbone)
        for name, p in self.context.items():
            merged["context." + name] = p
        return merged

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if v.requires_grad}

    def can_evaluate(self, subset: GroupedBatch) -> bool:
        """Whether this model infers a context for every group of ``subset``:
        every kind does, except the oracle for groups its table has no row
        for (held-out groups, by design), the ones ``oracle_lookup`` rejects."""
        return self.kind.base != "oracle" or not _unregistered(subset.partition, self.context["oracle_table"])

    def to_float32(self) -> None:
        """Cast every parameter and the ema state to float32, in place: the
        one place that sets the dtype fine-tuning computes in.

        Every op follows its inputs' dtype, so the forward, the backward and
        the optimizer state of this model then run in float32.
        """
        for p in self.parameters().values():
            p.data = p.data.astype(np.float32)
        for gid, value in self.ema_state.items():
            self.ema_state[gid] = value.astype(np.float32)

    def forward(self, batch: GroupedBatch, train: bool = False, sample_seed: int = 0, frozen_context_inputs=None):
        """``contextvit_forward`` of this model."""
        return contextvit_forward(batch, self, train, sample_seed, frozen_context_inputs)
