"""Plain-numpy computations the benchmark checks the program against.

Nothing here imports ``contextvit``: the forward pass, the context
column and the AdamW update are written out again from their textbook
definitions, so a wrong result in the package cannot also be the
expected value.
"""

from __future__ import annotations

import math

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
LN_EPS = 1e-6


def tolerance(dtype) -> float:
    """Largest accepted |program - reference| relative to max(1, |reference|).

    Same arithmetic in another summation order differs by a few ulps per
    op; ~10^4 ulps leaves room for a depth-4 network at any compute dtype
    (2.2e-12 at float64, 1.2e-3 at float32).
    """
    return 1e4 * float(np.finfo(np.dtype(dtype)).eps)


def patch_rows(images: np.ndarray, patch: int) -> np.ndarray:
    """[B, H, W, C] -> [B, N, patch*patch*C]; patches row-major over the
    grid, pixels row-major inside a patch, channels fastest."""
    b, h, w, c = images.shape
    rows = []
    for gy in range(h // patch):
        for gx in range(w // patch):
            tile = images[:, gy * patch:(gy + 1) * patch, gx * patch:(gx + 1) * patch, :]
            rows.append(tile.reshape(b, patch * patch * c))
    return np.stack(rows, axis=1)


def layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + LN_EPS) + bias


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention(x, p, layer, heads):
    b, s, d = x.shape
    dh = d // heads
    pre = f"layer{layer}.attn."
    out = np.zeros_like(x)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        q = x @ p[pre + "wq"][:, cols] + p[pre + "bq"][cols]
        k = x @ p[pre + "wk"][:, cols]
        v = x @ p[pre + "wv"][:, cols] + p[pre + "bv"][cols]
        weights = softmax(np.einsum("bqe,bke->bqk", q, k) / math.sqrt(dh))
        out += np.einsum("bqk,bke->bqe", weights, v) @ p[pre + "wo"][cols, :]
    return out + p[pre + "bo"]


def context_column(patch_tokens, groups, head_w, head_b):
    """Each image's slot holds head(mean over its group's members and patches)."""
    column = np.empty((patch_tokens.shape[0], patch_tokens.shape[-1]))
    for g in np.unique(groups):
        members = groups == g
        column[members] = patch_tokens[members].mean(axis=(0, 1)) @ head_w + head_b
    return column[:, None, :]


def contextvit_logits(images, groups, p, patch, heads, depth, layerwise):
    """Logits of a mean-pooled linear-head ContextViT.

    ``p`` maps parameter names to arrays (backbone names plus
    ``context.ctx_head<l>.w`` / ``.b``).  Token layout per image is
    [CLS, context, patch + position]; with ``layerwise`` the context slot
    is re-inferred from the hidden patch tokens after every layer but the
    last, with that layer's head.
    """
    tokens = patch_rows(images, patch) @ p["patch_projection"]
    b, n, d = tokens.shape
    cls = np.broadcast_to(p["cls_token"].reshape(1, 1, d), (b, 1, d))
    ctx = context_column(tokens, groups, p["context.ctx_head0.w"], p["context.ctx_head0.b"])
    x = np.concatenate([cls, ctx, tokens + p["pos_embed"]], axis=1)
    for l in range(depth):
        pre = f"layer{l}."
        x = x + attention(layer_norm(x, p[pre + "norm1.gain"], p[pre + "norm1.bias"]), p, l, heads)
        hidden = layer_norm(x, p[pre + "norm2.gain"], p[pre + "norm2.bias"]) @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]
        x = x + gelu(hidden) @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
        if layerwise and l < depth - 1:
            w, bias = p[f"context.ctx_head{l + 1}.w"], p[f"context.ctx_head{l + 1}.b"]
            x = np.concatenate([x[:, :1], context_column(x[:, 2:], groups, w, bias), x[:, 2:]], axis=1)
    cls_out = layer_norm(x, p["final_norm.gain"], p["final_norm.bias"])[:, 0]
    return cls_out @ p["head.w"] + p["head.b"]


def adamw_update(param, grad, m, v, step, lr, wd, decay):
    """One AdamW step (Loshchilov & Hutter) from moments after ``step - 1`` updates."""
    m = BETA1 * m + (1 - BETA1) * grad
    v = BETA2 * v + (1 - BETA2) * grad ** 2
    m_hat = m / (1 - BETA1 ** step)
    v_hat = v / (1 - BETA2 ** step)
    update = m_hat / (np.sqrt(v_hat) + EPS)
    if decay:
        update = update + wd * param
    return param - lr * update


def decays(name: str, shape: tuple) -> bool:
    """Weight matrices and the position table decay; vectors (biases, norm
    gains and offsets) and the CLS token do not."""
    return len(shape) >= 2 and name != "cls_token"
