"""Pre-norm Vision Transformer backbone.

Images are cut into non-overlapping patches (row-major grid order),
linearly projected, given learned position embeddings, and prepended
with a trainable CLS token that carries no positional term.  Each layer
is x + attn(norm(x)) followed by + ffn(norm(.)).  Only the CLS row is read
out, so the last layer updates only that row (every row still serves as
its key and value), and the final layer norm and the affine classifier
head see only the CLS embedding.

Each layer norm is read only by linear maps, so ``T.layer_norm`` returns
the normalized rows alone, and each norm's gain and bias are applied by the
maps that read it, folded into their weights (``T.norm_linear``): norm1's
by the q, k and v projections, norm2's by the FFN's first layer, and the
final norm's by the classifier head.  The parameters are the usual ones;
only where the affine is computed moves.  Attention is
the q, k, v and output projections around one ``T.attention_core`` node,
which owns the multi-head layout: the split into heads, the dh^-0.5
scale and the merge back to [B, S, d].

Every entry point takes batched input only: [B, H, W, C] images, [B, N, pd]
patch rows, [B, S, d] token sequences.  One image is a batch of one.  A
``layer_hook`` lets a caller rewrite the token sequence between layers,
which is how context conditioning plugs in without forking this code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .rng import child_seed, randn
from .tensor import Tensor

__all__ = [
    "ViTConfig",
    "init_backbone_params",
    "patchify_batch",
    "embed_patches",
    "attention",
    "transformer_layer",
    "encode_tokens",
]


@dataclass(frozen=True)
class ViTConfig:
    image_h: int = 16
    image_w: int = 16
    channels: int = 3
    patch: int = 4
    dim: int = 32
    depth: int = 4
    heads: int = 4
    mlp_ratio: float = 4.0
    num_classes: int = 8

    def __post_init__(self):
        for name in ("image_h", "image_w", "channels", "patch", "dim", "depth", "heads", "num_classes"):
            if getattr(self, name) <= 0:  # before the divisions below
                raise ValueError(f"{name} must be positive")
        if self.image_h % self.patch or self.image_w % self.patch:
            raise ValueError(
                f"image {self.image_h}x{self.image_w} not divisible by patch {self.patch}"
            )
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if not (math.isfinite(self.mlp_ratio) and self.ffn_hidden >= 1):
            raise ValueError(f"mlp_ratio must be finite and give an FFN width >= 1, got {self.mlp_ratio}")

    @property
    def num_patches(self) -> int:
        return (self.image_h // self.patch) * (self.image_w // self.patch)

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * self.channels

    @property
    def ffn_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.dim))


def init_backbone_params(config: ViTConfig, seed: int) -> dict[str, Tensor]:
    """Fresh trainable backbone parameters as a flat name -> Tensor dict."""
    d = config.dim
    params: dict[str, Tensor] = {}

    def trainable(name: str, value: np.ndarray) -> None:
        params[name] = Tensor(value, requires_grad=True)

    trainable(
        "patch_projection",
        randn((config.patch_dim, d), child_seed(seed, "patch_projection"), scale=config.patch_dim ** -0.5),
    )
    trainable("cls_token", randn((1, d), child_seed(seed, "cls_token"), scale=0.02))
    trainable("pos_embed", np.zeros((config.num_patches, d)))
    for l in range(config.depth):
        pre = f"layer{l}."
        trainable(pre + "norm1.gain", np.ones(d))
        trainable(pre + "norm1.bias", np.zeros(d))
        for mat in ("wq", "wk", "wv", "wo"):
            trainable(pre + "attn." + mat, randn((d, d), child_seed(seed, l, "attn", mat), scale=d ** -0.5))
        # no key bias: softmax is invariant to a per-query constant, so a
        # k-bias would be a dead parameter with an exactly-zero gradient
        for vec in ("bq", "bv", "bo"):
            trainable(pre + "attn." + vec, np.zeros(d))
        trainable(pre + "norm2.gain", np.ones(d))
        trainable(pre + "norm2.bias", np.zeros(d))
        hidden = config.ffn_hidden
        trainable(pre + "ffn.w1", randn((d, hidden), child_seed(seed, l, "ffn", "w1"), scale=d ** -0.5))
        trainable(pre + "ffn.b1", np.zeros(hidden))
        trainable(pre + "ffn.w2", randn((hidden, d), child_seed(seed, l, "ffn", "w2"), scale=hidden ** -0.5))
        trainable(pre + "ffn.b2", np.zeros(d))
    trainable("final_norm.gain", np.ones(d))
    trainable("final_norm.bias", np.zeros(d))
    trainable("head.w", randn((d, config.num_classes), child_seed(seed, "head"), scale=d ** -0.5))
    trainable("head.b", np.zeros(config.num_classes))
    return params


def patchify_batch(images: np.ndarray, patch: int, dtype=np.float64) -> np.ndarray:
    """[B, H, W, C] -> [B, N, patch*patch*C] rows of ``dtype`` in row-major
    grid order; pure data prep, no gradients.  The forward passes
    ``patch_projection``'s dtype, so the patches meet the model in the dtype
    it computes in."""
    images = np.asarray(images, dtype=dtype)
    if images.ndim != 4:
        raise ValueError(f"expected [B, H, W, C] images, got shape {images.shape}")
    b, h, w, c = images.shape
    if h % patch or w % patch:
        raise ValueError(f"image {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    tiles = images.reshape(b, gh, patch, gw, patch, c)
    tiles = tiles.transpose(0, 1, 3, 2, 4, 5)  # [B, gh, gw, patch, patch, C]
    return np.ascontiguousarray(tiles.reshape(b, gh * gw, patch * patch * c))


def embed_patches(patches: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Project flattened patches to token space: [B, N, pd] -> [B, N, d]."""
    return T.linear(patches, params["patch_projection"])


def _assemble(patch_tokens: Tensor, params: dict[str, Tensor], prefix_tokens=(), suffix_tokens=()) -> Tensor:
    """CLS + optional slots + (patch tokens + positions) + optional slots, along axis 1.

    Each image's CLS row is a [B, 1]-index ``index_rows`` gather of the one-row
    ``cls_token``, the gather that hands each image its group's context token.
    """
    b, n = patch_tokens.shape[:2]
    pos = params["pos_embed"]
    if pos.shape[0] != n:
        raise ValueError(f"pos_embed has {pos.shape[0]} rows, batch has {n} patches")
    cls = T.index_rows(params["cls_token"], np.zeros((b, 1), dtype=np.int64))
    return T.concat([cls, *prefix_tokens, patch_tokens + pos, *suffix_tokens], axis=1)


def attention(
    x: Tensor, params: dict[str, Tensor], layer: int, heads: int, queries: Optional[Tensor] = None
) -> Tensor:
    """Multi-head scaled dot-product attention of the [B, Sq, d] ``queries``
    (all of ``x`` by default) over the [B, S, d] sequence ``x``.  Both are
    rows of ``layer``'s norm1 before its affine: the q, k and v projections
    apply norm1's gain and bias (``T.norm_linear``)."""
    norm = params[f"layer{layer}.norm1.gain"], params[f"layer{layer}.norm1.bias"]
    pre = f"layer{layer}.attn."
    q = T.norm_linear(x if queries is None else queries, *norm, params[pre + "wq"], params[pre + "bq"])
    k = T.norm_linear(x, *norm, params[pre + "wk"])
    v = T.norm_linear(x, *norm, params[pre + "wv"], params[pre + "bv"])
    return T.linear(T.attention_core(q, k, v, heads), params[pre + "wo"], params[pre + "bo"])


def _ffn(x: Tensor, params: dict[str, Tensor], layer: int) -> Tensor:
    """The FFN over rows of ``layer``'s norm2 before its affine, which ``w1`` applies."""
    pre = f"layer{layer}."
    h = T.gelu(T.norm_linear(x, params[pre + "norm2.gain"], params[pre + "norm2.bias"],
                             params[pre + "ffn.w1"], params[pre + "ffn.b1"]))
    return T.linear(h, params[pre + "ffn.w2"], params[pre + "ffn.b2"])


def transformer_layer(
    x: Tensor, params: dict[str, Tensor], layer: int, config: ViTConfig, cls_only: bool = False
) -> Tensor:
    """One pre-norm layer over [B, S, d].  With ``cls_only`` it updates and
    returns only the CLS row, [B, 1, d], which attends over all S rows."""
    normed = T.layer_norm(x)
    queries = None
    if cls_only:
        x, queries = x[:, :1], normed[:, :1]
    x = x + attention(normed, params, layer, config.heads, queries)
    return x + _ffn(T.layer_norm(x), params, layer)


def encode_tokens(
    tokens: Tensor,
    params: dict[str, Tensor],
    config: ViTConfig,
    layer_hook: Optional[Callable[[int, Tensor], Tensor]] = None,
) -> Tensor:
    """[B, S, d] tokens -> the [B, d] read-out: the CLS row after every
    layer and the final norm, before that norm's affine, which the
    classifier head applies (``context.contextvit_forward``).

    Only the CLS row leaves the encoder, so the last layer computes only
    that row, with every row as its keys and values.  ``layer_hook(l, x)``
    is called after every layer ``l`` (0-indexed) but the last, and the
    sequence it returns replaces ``x`` (context conditioning uses this to
    overwrite the context slot).
    """
    x = tokens
    for l in range(config.depth - 1):
        x = transformer_layer(x, params, l, config)
        if layer_hook is not None:
            x = layer_hook(l, x)
    cls = transformer_layer(x, params, config.depth - 1, config, cls_only=True)
    return T.layer_norm(cls)[:, 0]

