"""Shared fixtures: a toy model configuration and a small synthetic dataset.

Everything here is deliberately tiny so the per-module tests run in seconds;
the acceptance tests build their own full-size runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from contextvit import tensor as T
from contextvit.context import ContextKind, ContextViT, GroupedBatch
from contextvit.data import SyntheticShiftSpec, generate_dataset
from contextvit.tensor import Tensor, constant
from contextvit.vit import ViTConfig, _assemble, embed_patches, encode_tokens, patchify_batch, transformer_layer


def dot(a: Tensor, b=None) -> Tensor:
    """The scalar sum(a * b) over every element, recorded as reshape, one
    [1, n] @ [n, 1] ``linear`` with no bias and reshape; ``b`` is a tensor of
    a's size, an array (a constant), or None for all ones (the plain sum of
    ``a``)."""
    n = a.size
    b = constant(np.ones(n)) if b is None else b if isinstance(b, Tensor) else constant(b)
    return T.reshape(T.linear(T.reshape(a, (1, n)), T.reshape(b, (n, 1))), ())


def vit_forward(images: np.ndarray, params: dict, config: ViTConfig):
    """Plain ViT: [B, H, W, C] images -> (normalized CLS rows [B, d], logits [B, num_classes]).
    The reference that ``context.contextvit_forward`` of kind none matches bit for bit."""
    patches = constant(patchify_batch(images, config.patch, params["patch_projection"].data.dtype))
    tokens = _assemble(embed_patches(patches, params), params)
    cls = encode_tokens(tokens, params, config)
    logits = T.norm_linear(cls, params["final_norm.gain"], params["final_norm.bias"], params["head.w"], params["head.b"])
    return cls, logits


def full_sequence_encode(tokens: Tensor, params: dict, config: ViTConfig, layer_hook=None) -> Tensor:
    """``vit.encode_tokens`` with every layer on all rows: the hook after
    layers 0 .. L-2, then the final norm (before its affine, which the head
    applies) and the CLS row [B, d].  The reference for the encoder's
    CLS-only last layer."""
    x = tokens
    for l in range(config.depth):
        x = transformer_layer(x, params, l, config)
        if layer_hook is not None and l < config.depth - 1:
            x = layer_hook(l, x)
    return T.layer_norm(x)[:, 0]


def summing_deep_sets_params(d: int, dtype=np.float64) -> dict:
    """Deep-sets parameters of width ``d`` under which phi and rho are both
    the identity, so ``deep_sets_infer`` returns each group's plain sum."""
    params = {f"ctx_{net}.{k}": constant(np.zeros((d, d) if k[0] == "w" else d, dtype))
              for net in ("phi", "rho") for k in ("w1", "w2", "w3", "b1", "b2", "b3")}
    params["ctx_rho.w3"] = constant(np.eye(d, dtype=dtype))
    return params


@pytest.fixture(scope="session")
def toy_config() -> ViTConfig:
    return ViTConfig(image_h=16, image_w=16, channels=3, patch=4, dim=16, depth=2, heads=2, num_classes=4)


@pytest.fixture(scope="session")
def small_spec() -> SyntheticShiftSpec:
    return SyntheticShiftSpec(num_classes=4, train_groups=3, ood_groups=2, images_per_group=40)


@pytest.fixture(scope="session")
def small_data(small_spec):
    return generate_dataset(small_spec, seed=11)


@pytest.fixture()
def toy_model(toy_config):
    kind = ContextKind.from_name("mean_linear_detach")
    return ContextViT.create(toy_config, kind, seed=3)


def make_batch(data, indices) -> GroupedBatch:
    idx = np.asarray(indices)
    return GroupedBatch(data.images[idx], data.labels[idx], data.groups[idx])


@pytest.fixture(scope="session")
def train_batch(small_data):
    return make_batch(small_data.train, np.arange(8))
