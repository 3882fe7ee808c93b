"""Context tokens inferred per group, plus the conditioned forward pass.

A context token occupies slot 1 of the sequence (slot 0 is CLS, patch
tokens start at slot 2).  It can come from a trainable per-group table
(``oracle``), from mean-pooled patch embeddings of the group's batch
members with an optional linear head and optional stop-gradient
(``mean``, ``mean_linear``, ``mean_linear_detach``, also per-layer), from
a deep-sets network over member patches, from an exponential moving
average of batch means, or the sequence can instead be extended with
raw patches sampled from the group (``in_context_patches``).

Every kind infers the tokens of all of a batch's G groups at once, so a
forward records the same tape nodes for one group as for sixteen: one
``group_pool`` pools each group's member rows into a [G, d] stack, the
kind maps that stack to G tokens (a table gather, a [G, 1, d] head, the
deep-sets networks), and one ``index_rows`` hands every image its
group's token.  ``in_context_patches`` draws each group's rows with its
own seed and gathers every image's draws in one ``index_rows``.

The pooled kinds work for any group, including ones never seen in
training and groups with a single member; the oracle table raises for
unknown groups.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .rng import child_seed, generator, randn
from .tensor import Tensor
from .vit import (
    ViTConfig,
    _assemble,
    embed_patches,
    encode_tokens,
    init_backbone_params,
    patchify_batch,
    vit_forward,
)

__all__ = [
    "CONTEXT_KIND_NAMES",
    "ContextKind",
    "UnknownGroupError",
    "GroupedBatch",
    "group_partition",
    "init_context_params",
    "infer_context_mean",
    "apply_linear_head",
    "oracle_lookup",
    "ema_update",
    "deep_sets_infer",
    "sample_context_patches",
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
    "ema": ("ema", False, False),
    "in_context_patches": ("in_context_patches", False, False),
}

CONTEXT_KIND_NAMES = tuple(_NAMED_KINDS)

_AMORTIZED_BASES = ("mean", "mean_linear", "deep_sets", "ema", "in_context_patches")


class UnknownGroupError(KeyError):
    """Raised when a kind that memorizes groups meets an unregistered one."""


# oracle ids are stored as float64, which holds every integer up to 2**53 exactly
_MAX_ORACLE_ID = 2 ** 53


@dataclass(frozen=True)
class ContextKind:
    """One of the named context mechanisms in ``CONTEXT_KIND_NAMES``.

    name: the kind, which fixes the read-only properties
      base: none | mean | mean_linear | deep_sets | oracle | ema | in_context_patches
      detach: pass pooled inputs through stop_gradient (mean_linear, deep_sets)
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
    def from_name(cls, name: str, patches: int = 256, ema_lambda: float = 0.99) -> "ContextKind":
        """The kind ``name``; ``patches`` and ``ema_lambda`` are kept only by
        the kinds that read them, so equal kinds compare equal."""
        kind = cls(name)
        if kind.base == "in_context_patches":
            return cls(name, patches=patches)
        if kind.base == "ema":
            return cls(name, ema_lambda=ema_lambda)
        return kind


@dataclass
class GroupedBatch:
    """Images with their labels and group ids, index-aligned: a model batch
    and equally a whole dataset split.  The partition, derived from
    ``groups`` on first read, maps each group to the member indices in input
    order, groups keyed by first occurrence."""

    images: np.ndarray  # [B, H, W, C]
    labels: np.ndarray  # [B] int
    groups: np.ndarray  # [B] int group ids

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.groups = np.asarray(self.groups, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be [B,H,W,C], got {self.images.shape}")
        b = self.images.shape[0]
        if self.labels.shape != (b,) or self.groups.shape != (b,):
            raise ValueError("labels/groups must have one entry per image")

    @functools.cached_property
    def partition(self) -> dict[int, list[int]]:
        return group_partition(self.groups)

    @property
    def size(self) -> int:
        return int(self.images.shape[0])

    def take(self, idx) -> "GroupedBatch":
        """The records at integer positions ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        return GroupedBatch(self.images[idx], self.labels[idx], self.groups[idx])

    @classmethod
    def concat(cls, parts: Sequence["GroupedBatch"]) -> "GroupedBatch":
        """``parts`` joined end to end."""
        return cls(
            np.concatenate([p.images for p in parts]),
            np.concatenate([p.labels for p in parts]),
            np.concatenate([p.groups for p in parts]),
        )

    @property
    def slots(self) -> np.ndarray:
        """Each image's group slot: its group's position in ``partition``."""
        out = np.empty(self.size, dtype=np.int64)
        for slot, members in enumerate(self.partition.values()):
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

    Linear heads exist for every layer whenever the kind has heads at all,
    so the same parameter set serves layerwise and single-shot variants
    (the unused heads simply keep zero gradients).
    """
    d = config.dim
    params: dict[str, Tensor] = {}
    if kind.base == "oracle":
        if not group_ids:
            raise ValueError("oracle kind needs the training group ids at init time")
        unstorable = sorted(int(g) for g in set(group_ids) if abs(int(g)) > _MAX_ORACLE_ID)
        if unstorable:
            raise ValueError(f"oracle group ids {unstorable} exceed 2**53 and cannot be stored exactly as float64")
        ids = np.asarray(sorted(int(g) for g in set(group_ids)), dtype=np.float64)
        params["oracle_groups"] = Tensor(ids, requires_grad=False)
        params["oracle_table"] = Tensor(np.zeros((ids.size, d)), requires_grad=True)
    elif kind.base == "mean_linear":
        for l in range(config.depth):
            params[f"ctx_head{l}.w"] = Tensor(np.zeros((d, d)), requires_grad=True)
            params[f"ctx_head{l}.b"] = Tensor(np.zeros(d), requires_grad=True)
    elif kind.base == "ema":
        params["ctx_head0.w"] = Tensor(np.zeros((d, d)), requires_grad=True)
        params["ctx_head0.b"] = Tensor(np.zeros(d), requires_grad=True)
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


def infer_context_mean(patch_embeds: Tensor, members: Sequence) -> Tensor:
    """Mean over each group's member images and patches: [B, N, d] -> [G, d],
    where ``members[g]`` lists the batch rows of group g."""
    return T.group_pool(patch_embeds, members)


def apply_linear_head(pooled: Tensor, w: Tensor, b: Tensor, detach: bool = False) -> Tensor:
    """Affine head b + row @ w for each [d] row of ``pooled`` ([d] or [G, d]),
    optionally detaching the input.

    Rows are multiplied as a [G, 1, d] stack, which gives each row the same
    bits as multiplying it on its own.
    """
    src = T.stop_gradient(pooled) if detach else pooled
    lead = src.shape[:-1]
    out = T.linear(T.reshape(src, lead + (1, src.shape[-1])), w, b)
    return T.reshape(out, lead + (w.shape[1],))


def oracle_lookup(groups: Sequence[int], params: dict[str, Tensor]) -> Tensor:
    """Trainable tokens [G, d] of registered groups; an unknown group is an error."""
    ids = params["oracle_groups"].data
    rows = []
    for group in groups:
        # beyond 2**53 float(group) rounds onto a neighbouring id
        hits = np.nonzero(ids == float(int(group)))[0] if abs(int(group)) <= _MAX_ORACLE_ID else ()
        if len(hits) == 0:
            raise UnknownGroupError(
                f"unknown context: group {group} was never registered with the oracle table"
            )
        rows.append(int(hits[0]))
    return T.index_rows(params["oracle_table"], rows)


def ema_update(state: dict[int, np.ndarray], group: int, batch_mean: np.ndarray, lam: float) -> np.ndarray:
    """state <- lam*state + (1-lam)*batch_mean; first sighting adopts the mean."""
    if not (0.0 < lam < 1.0):
        raise ValueError(f"ema lambda must lie in (0,1), got {lam}")
    g = int(group)
    mean = np.asarray(batch_mean, dtype=np.float64)
    if g in state:
        state[g] = lam * state[g] + (1.0 - lam) * mean
    else:
        state[g] = mean.copy()
    return state[g]


def _mlp_residual(x: Tensor, params: dict[str, Tensor], net: str, final_residual: bool) -> Tensor:
    """Two relu hidden layers with residual adds; final affine, residual optional."""
    p = lambda k: params[f"ctx_{net}.{k}"]
    h = T.relu(T.linear(x, p("w1"), p("b1"))) + x
    h = T.relu(T.linear(h, p("w2"), p("b2"))) + h
    out = T.linear(h, p("w3"), p("b3"))
    return out + h if final_residual else out


def deep_sets_infer(patch_embeds: Tensor, params: dict[str, Tensor], detach: bool, parts: Sequence) -> Tensor:
    """rho(sum_i phi(t_i)) over each group's patch rows: [R, d] -> [G, d],
    where ``parts[g]`` lists the rows of group g."""
    if patch_embeds.ndim != 2:
        raise ValueError(f"expected [rows, d] patch tokens, got {patch_embeds.shape}")
    if detach:
        patch_embeds = T.stop_gradient(patch_embeds)
    phi = _mlp_residual(patch_embeds, params, "phi", final_residual=True)
    summed = T.group_pool(phi, parts, mean=False)
    g, d = summed.shape
    # rho runs on [G, 1, d] so each group's products match a lone [1, d] row
    out = _mlp_residual(T.reshape(summed, (g, 1, d)), params, "rho", final_residual=False)
    return T.reshape(out, (g, d))


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


class _ContextIO:
    """Plumbing for gradient verification of the non-differentiable paths.

    ``capture`` records the value entering each frozen boundary (detached
    pooled vector, detached patch rows, or ema state), keyed by
    (head_layer, group).  ``override`` replays recorded values as constants
    so finite differences only see the declared-differentiable subgraph.
    """

    def __init__(self, capture: Optional[dict] = None, override: Optional[dict] = None):
        self.capture = capture
        self.override = override

    def boundary(self, layer: int, groups, computed: Tensor, parts) -> Tensor:
        """``parts[i]`` indexes the rows of ``computed`` that belong to ``groups[i]``."""
        keys = [(layer, gid) for gid in groups]
        out = computed
        if self.override is not None:
            found = [key in self.override for key in keys]
            if all(found):
                data = computed.data.copy()
                for key, part in zip(keys, parts):
                    data[part] = self.override[key]
                out = T.constant(data)
            elif any(found):
                raise KeyError(f"context override covers only some of the groups at layer {layer}")
        if self.capture is not None:
            for key, part in zip(keys, parts):
                self.capture[key] = np.array(out.data[part], copy=True)
        return out


def _group_tokens(
    patch_tokens: Tensor,
    batch: GroupedBatch,
    layer: int,
    kind: ContextKind,
    ctx_params: dict[str, Tensor],
    ema_state: Optional[dict[int, np.ndarray]],
    train: bool,
    io: _ContextIO,
) -> Tensor:
    """Context tokens [G, d] of the batch's groups, in partition order, from
    patch tokens [B, N, d]."""
    groups = list(batch.partition)
    members = list(batch.partition.values())
    if kind.base == "oracle":
        return oracle_lookup(groups, ctx_params)
    if kind.base == "deep_sets":
        b, n, d = patch_tokens.shape
        parts = [_patch_rows(m, n) for m in members]
        rows = io.boundary(layer, groups, T.reshape(patch_tokens, (b * n, d)), parts)
        return deep_sets_infer(rows, ctx_params, kind.detach, parts)
    pooled = infer_context_mean(patch_tokens, members)
    if kind.base == "mean":
        return pooled
    slots = range(len(groups))
    if kind.base == "ema":
        if ema_state is None:
            raise ValueError("ema kind requires an ema_state dict")
        for gid, batch_mean in zip(groups, pooled.data):
            if train or gid not in ema_state:
                ema_update(ema_state, gid, batch_mean, kind.ema_lambda)
        src = io.boundary(layer, groups, T.constant(np.stack([ema_state[g] for g in groups])), slots)
        return apply_linear_head(src, ctx_params["ctx_head0.w"], ctx_params["ctx_head0.b"])
    if kind.base == "mean_linear":
        src = io.boundary(layer, groups, pooled, slots)
        w, b = ctx_params[f"ctx_head{layer}.w"], ctx_params[f"ctx_head{layer}.b"]
        return apply_linear_head(src, w, b, detach=kind.detach)
    raise ValueError(f"kind {kind.base!r} does not produce a context token")


def contextvit_forward(
    batch: GroupedBatch,
    backbone: dict[str, Tensor],
    ctx_params: dict[str, Tensor],
    config: ViTConfig,
    kind: ContextKind,
    ema_state: Optional[dict[int, np.ndarray]] = None,
    train: bool = False,
    sample_seed: int = 0,
    capture_context_inputs: Optional[dict] = None,
    context_input_override: Optional[dict] = None,
    capture_context_tokens: Optional[dict] = None,
):
    """Group-conditioned forward pass: batch -> (CLS embeddings, logits).

    Sequence layout per image: [CLS, context, patch+pos ...] (length N+2)
    for token-producing kinds; [CLS, patch+pos ..., K sampled patches]
    (length N+1+K) for in_context_patches; and plain [CLS, patch+pos ...]
    for kind none, which routes through the unconditioned forward and is
    bit-identical to it.
    """
    if kind.base == "none":
        return vit_forward(batch.images, backbone, config)

    io = _ContextIO(capture=capture_context_inputs, override=context_input_override)
    patches = T.constant(patchify_batch(batch.images, config.patch))
    patch_tokens = embed_patches(patches, backbone)  # pre-positional, pooled from
    b, n, d = patch_tokens.shape
    slots = batch.slots
    layer_hook = None

    if kind.base == "in_context_patches":
        drawn = [
            sample_context_patches(_patch_rows(members, n), kind.patches, child_seed(sample_seed, "in_context", gid))
            for gid, members in batch.partition.items()
        ]
        picked = T.index_rows(T.reshape(patch_tokens, (b * n, d)), np.stack(drawn)[slots].ravel())
        tokens = _assemble(patch_tokens, backbone, suffix_tokens=(T.reshape(picked, (b, kind.patches, d)),))
    else:

        def column(x: Tensor, layer: int) -> Tensor:
            """[B, 1, d] context slot contents: each image gets its group's token."""
            group_tokens = _group_tokens(x, batch, layer, kind, ctx_params, ema_state, train, io)
            if capture_context_tokens is not None:
                for gid, token in zip(batch.partition, group_tokens.data):
                    capture_context_tokens[(layer, gid)] = token.copy()
            return T.reshape(T.index_rows(group_tokens, slots), (b, 1, d))

        tokens = _assemble(patch_tokens, backbone, prefix_tokens=(column(patch_tokens, 0),))
        if kind.layerwise:

            def layer_hook(l: int, x: Tensor) -> Tensor:
                if l >= config.depth - 1:
                    # no head exists past the last layer; the final slot-1
                    # output is never read by the CLS head anyway
                    return x
                hidden = x[:, 2:]
                return T.concat([x[:, 0:1], column(hidden, l + 1), hidden], axis=1)

    encoded = encode_tokens(tokens, backbone, config, layer_hook=layer_hook)
    cls_out = encoded[:, 0]
    logits = T.linear(cls_out, backbone["head.w"], backbone["head.b"])
    return cls_out, logits


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

    def forward(
        self,
        batch: GroupedBatch,
        train: bool = False,
        sample_seed: int = 0,
        capture_context_inputs: Optional[dict] = None,
        context_input_override: Optional[dict] = None,
        capture_context_tokens: Optional[dict] = None,
    ):
        state = self.ema_state if train else dict(self.ema_state)
        return contextvit_forward(
            batch,
            self.backbone,
            self.context,
            self.config,
            self.kind,
            ema_state=state if self.kind.base == "ema" else None,
            train=train,
            sample_seed=sample_seed,
            capture_context_inputs=capture_context_inputs,
            context_input_override=context_input_override,
            capture_context_tokens=capture_context_tokens,
        )
