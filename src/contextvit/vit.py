"""Pre-norm Vision Transformer backbone.

Images are cut into non-overlapping patches (row-major grid order),
linearly projected, given learned position embeddings, and prepended
with a trainable CLS token that carries no positional term.  Each layer
is x + attn(norm(x)) followed by + ffn(norm(.)); a final layer norm
precedes the CLS read-out and the affine classifier head.

All forwards run batched on [B, S, d] tensors.  A ``layer_hook`` lets a
caller rewrite the token sequence between layers, which is how context
conditioning plugs in without forking this code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .rng import child_seed, randn
from .tensor import Tensor

__all__ = [
    "ViTConfig",
    "init_backbone_params",
    "patchify",
    "patchify_batch",
    "embed_patches",
    "embed_and_assemble",
    "attention",
    "transformer_layer",
    "encode_tokens",
    "vit_forward",
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
    ffn_activation: str = "gelu"

    def __post_init__(self):
        if self.image_h % self.patch or self.image_w % self.patch:
            raise ValueError(
                f"image {self.image_h}x{self.image_w} not divisible by patch {self.patch}"
            )
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        for name in ("image_h", "image_w", "channels", "patch", "dim", "depth", "heads", "num_classes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

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


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """[H, W, C] image -> [N, patch*patch*C] rows in row-major grid order."""
    out = patchify_batch(image[None], patch)
    return out[0]


def patchify_batch(images: np.ndarray, patch: int) -> np.ndarray:
    """[B, H, W, C] -> [B, N, patch*patch*C]; pure data prep, no gradients."""
    images = np.asarray(images, dtype=np.float64)
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
    return T.matmul(patches, params["patch_projection"])


def _assemble(patch_tokens: Tensor, params: dict[str, Tensor], prefix_tokens=(), suffix_tokens=()) -> Tensor:
    """CLS + optional slots + (patch tokens + positions) + optional slots, along axis 1."""
    b, n, d = patch_tokens.shape
    pos = params["pos_embed"]
    if pos.shape[0] != n:
        raise ValueError(f"pos_embed has {pos.shape[0]} rows, batch has {n} patches")
    cls = T.broadcast_to(T.reshape(params["cls_token"], (1, 1, d)), (b, 1, d))
    return T.concat([cls, *prefix_tokens, patch_tokens + pos, *suffix_tokens], axis=1)


def embed_and_assemble(patches, params: dict[str, Tensor]) -> Tensor:
    """Patch rows -> token sequence [CLS, p1+pos1, ..., pN+posN].

    Accepts one image's [N, pd] rows or a batch [B, N, pd]; the result has
    a matching [N+1, d] or [B, N+1, d] shape.
    """
    single = not isinstance(patches, Tensor) and np.asarray(patches).ndim == 2
    if isinstance(patches, Tensor):
        single = patches.ndim == 2
        pt = patches if not single else T.reshape(patches, (1,) + patches.shape)
    else:
        arr = np.asarray(patches, dtype=np.float64)
        pt = T.constant(arr[None] if single else arr)
    tokens = _assemble(embed_patches(pt, params), params)
    return tokens[0] if single else tokens


def attention(x: Tensor, params: dict[str, Tensor], layer: int, heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention over [B, S, d] (or [S, d])."""
    single = x.ndim == 2
    if single:
        x = T.reshape(x, (1,) + x.shape)
    b, s, d = x.shape
    if d % heads:
        raise ValueError(f"dim {d} not divisible by heads {heads}")
    dh = d // heads
    pre = f"layer{layer}.attn."

    def split(name_w: str, name_b: Optional[str]) -> Tensor:
        proj = T.matmul(x, params[pre + name_w])
        if name_b is not None:
            proj = proj + params[pre + name_b]
        return T.transpose(T.reshape(proj, (b, s, heads, dh)), (0, 2, 1, 3))

    q = split("wq", "bq")
    k = split("wk", None)
    v = split("wv", "bv")
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (dh ** -0.5)
    weights = T.softmax(scores, axis=-1)
    ctx = T.matmul(weights, v)  # [B, heads, S, dh]
    merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, s, d))
    out = T.matmul(merged, params[pre + "wo"]) + params[pre + "bo"]
    return out[0] if single else out


def _ffn(x: Tensor, params: dict[str, Tensor], layer: int, kind: str) -> Tensor:
    pre = f"layer{layer}.ffn."
    h = T.activation(T.matmul(x, params[pre + "w1"]) + params[pre + "b1"], kind)
    return T.matmul(h, params[pre + "w2"]) + params[pre + "b2"]


def transformer_layer(x: Tensor, params: dict[str, Tensor], layer: int, config: ViTConfig) -> Tensor:
    pre = f"layer{layer}."
    normed = T.layer_norm(x, params[pre + "norm1.gain"], params[pre + "norm1.bias"])
    x = x + attention(normed, params, layer, config.heads)
    normed = T.layer_norm(x, params[pre + "norm2.gain"], params[pre + "norm2.bias"])
    return x + _ffn(normed, params, layer, config.ffn_activation)


def encode_tokens(
    tokens: Tensor,
    params: dict[str, Tensor],
    config: ViTConfig,
    layer_hook: Optional[Callable[[int, Tensor], Tensor]] = None,
) -> Tensor:
    """Run all transformer layers plus the final norm.

    ``layer_hook(l, x)`` is called after layer ``l`` (0-indexed); if it
    returns a tensor that sequence replaces ``x`` (context conditioning uses
    this to overwrite the context slot), and a ``None`` return observes only.
    """
    x = tokens
    for l in range(config.depth):
        x = transformer_layer(x, params, l, config)
        if layer_hook is not None:
            replaced = layer_hook(l, x)
            if replaced is not None:
                x = replaced
    return T.layer_norm(x, params["final_norm.gain"], params["final_norm.bias"])


def vit_forward(images: np.ndarray, params: dict[str, Tensor], config: ViTConfig):
    """Plain ViT: images -> (CLS embedding, logits).

    Accepts one [H, W, C] image or a batch [B, H, W, C]; outputs are [d] /
    [num_classes] for a single image, [B, d] / [B, num_classes] batched.
    """
    images = np.asarray(images, dtype=np.float64)
    single = images.ndim == 3
    if single:
        images = images[None]
    patches = T.constant(patchify_batch(images, config.patch))
    tokens = _assemble(embed_patches(patches, params), params)
    encoded = encode_tokens(tokens, params, config)
    cls = encoded[:, 0]
    logits = T.matmul(cls, params["head.w"]) + params["head.b"]
    if single:
        return cls[0], logits[0]
    return cls, logits
