"""Backbone: patch extraction layout, token assembly, attention, layer
residual structure, and the end-to-end gradient oracle at toy scale."""

import numpy as np
import pytest

from contextvit import tensor as T
from contextvit.gradcheck import finite_diff_check
from contextvit.rng import generator
from contextvit.tensor import Tape, constant
from contextvit.train import batch_cross_entropy
from contextvit.vit import (
    ViTConfig,
    _assemble,
    attention,
    embed_patches,
    encode_tokens,
    init_backbone_params,
    patchify_batch,
    transformer_layer,
    vit_forward,
)

from conftest import dot


# ------------------------------------------------------------------- patchify


def test_patch_count_96x96_patch8():
    images = np.zeros((1, 96, 96, 3))
    assert patchify_batch(images, 8).shape == (1, 144, 8 * 8 * 3)


def test_single_patch_is_flattened_image():
    image = np.arange(2 * 2 * 3, dtype=float).reshape(2, 2, 3)
    rows = patchify_batch(image[None], 2)[0]
    assert rows.shape == (1, 12)
    assert np.array_equal(rows[0], image.reshape(-1))


def test_patch_layout_row_major():
    image = np.arange(16, dtype=float).reshape(4, 4, 1)
    rows = patchify_batch(image[None], 2)[0]
    assert rows.shape == (4, 4)
    # top-left patch: pixels (0,0), (0,1), (1,0), (1,1)
    assert np.array_equal(rows[0], [0.0, 1.0, 4.0, 5.0])
    # patch grid is row-major: next patch is the top-right one
    assert np.array_equal(rows[1], [2.0, 3.0, 6.0, 7.0])


def test_non_divisible_rejected():
    with pytest.raises(ValueError):
        patchify_batch(np.zeros((1, 5, 4, 1)), 2)


# ------------------------------------------------------------------- assembly


def _params(config, seed=0):
    return init_backbone_params(config, seed=seed)


def _tokens(image, params, config):
    """[1, N+1, d] sequence [CLS, p1+pos1, ..., pN+posN] of one image."""
    patches = constant(patchify_batch(image[None], config.patch))
    return _assemble(embed_patches(patches, params), params)


def test_zero_projection_assembly(toy_config):
    params = _params(toy_config)
    params["patch_projection"].data[:] = 0.0
    image = generator(4).uniform(size=(16, 16, 3))
    tokens = _tokens(image, params, toy_config).data
    n = toy_config.num_patches
    assert tokens.shape == (1, n + 1, toy_config.dim)
    assert np.array_equal(tokens[0, 0], params["cls_token"].data[0])
    assert np.array_equal(tokens[0, 1:], np.zeros((n, toy_config.dim)))


def test_row_count_is_n_plus_one(toy_config):
    params = _params(toy_config)
    image = generator(5).uniform(size=(16, 16, 3))
    tokens = _tokens(image, params, toy_config)
    assert tokens.data.shape[1] == toy_config.num_patches + 1


def test_permuting_patches_and_pos_together_permutes_tokens(toy_config):
    params = _params(toy_config)
    params["pos_embed"].data[:] = generator(6).normal(size=params["pos_embed"].data.shape)
    image = generator(7).uniform(size=(16, 16, 3))
    base = _tokens(image, params, toy_config).data[0]

    perm = generator(8).permutation(toy_config.num_patches)
    patches = patchify_batch(image[None], toy_config.patch)[0]
    proj = patches @ params["patch_projection"].data
    permuted_tokens = proj[perm] + params["pos_embed"].data[perm]
    assert np.allclose(base[1:][perm], permuted_tokens)


# ------------------------------------------------------------------ attention


def test_single_token_attention_ignores_query_key(toy_config):
    params = _params(toy_config, seed=1)
    x = constant(generator(9).normal(size=(1, 1, toy_config.dim)))
    with Tape():
        base = attention(x, params, layer=0, heads=toy_config.heads).data.copy()
    # with one token the softmax weight is exactly 1 whatever q/k produce
    params["layer0.attn.wq"].data[:] = generator(10).normal(size=params["layer0.attn.wq"].data.shape)
    params["layer0.attn.wk"].data[:] = generator(11).normal(size=params["layer0.attn.wk"].data.shape)
    with Tape():
        again = attention(x, params, layer=0, heads=toy_config.heads).data
    assert np.array_equal(base, again)


def test_identical_rows_give_identical_outputs(toy_config):
    params = _params(toy_config, seed=2)
    row = generator(12).normal(size=toy_config.dim)
    x = constant(np.broadcast_to(row, (1, 5, toy_config.dim)).copy())
    with Tape():
        out = attention(x, params, layer=0, heads=toy_config.heads).data[0]
    assert np.allclose(out, out[0])


def test_two_token_attention_gradient():
    config = ViTConfig(image_h=4, image_w=4, channels=1, patch=2, dim=8, depth=1, heads=2, num_classes=2)
    params = _params(config, seed=3)
    for name, p in params.items():
        if name.startswith("layer0.attn"):
            p.data = p.data + generator(13).normal(size=p.data.shape) * 0.3
    x = constant(generator(14).normal(size=(1, 2, config.dim)))
    coeff = constant(generator(15).normal(size=(1, 2, config.dim)))
    attn_params = {k: v for k, v in params.items() if k.startswith("layer0.attn")}

    err = finite_diff_check(
        lambda: dot(attention(x, params, 0, config.heads), coeff),
        attn_params,
        step=1e-4,
    )
    assert err < 1e-4


# ---------------------------------------------------------- transformer layer


def test_zero_weights_layer_is_identity(toy_config):
    params = _params(toy_config, seed=4)
    for name, p in params.items():
        if name.startswith("layer0.attn") or name.startswith("layer0.ffn"):
            p.data = np.zeros_like(p.data)
    x = constant(generator(16).normal(size=(2, 7, toy_config.dim)))
    with Tape():
        out = transformer_layer(x, params, 0, toy_config)
    assert np.array_equal(out.data, x.data)


def test_layer_preserves_shape_any_length(toy_config):
    params = _params(toy_config, seed=5)
    for s in (1, 3, 17):
        x = constant(generator(17 + s).normal(size=(2, s, toy_config.dim)))
        with Tape():
            assert transformer_layer(x, params, 1, toy_config).data.shape == (2, s, toy_config.dim)


def test_encode_is_layer_composition(toy_config):
    params = _params(toy_config, seed=6)
    x = constant(generator(30).normal(size=(1, 5, toy_config.dim)))
    with Tape():
        manual = x
        for layer in range(toy_config.depth):
            manual = transformer_layer(manual, params, layer, toy_config)
        manual = T.layer_norm(manual, params["final_norm.gain"], params["final_norm.bias"])
        encoded = encode_tokens(x, params, toy_config)
    assert np.array_equal(encoded.data, manual.data)


# -------------------------------------------------------------------- forward


def test_identical_images_identical_logits(toy_config):
    params = _params(toy_config, seed=7)
    image = generator(31).uniform(size=(16, 16, 3))
    _, l1 = vit_forward(image[None], params, toy_config)
    _, l2 = vit_forward(image[None], params, toy_config)
    assert l1.data.shape == (1, toy_config.num_classes)
    assert np.array_equal(l1.data, l2.data)


def test_sequence_length_processed_is_n_plus_one(toy_config):
    params = _params(toy_config, seed=8)
    seen = []
    image = generator(32).uniform(size=(16, 16, 3))
    tokens = _tokens(image, params, toy_config)
    encode_tokens(tokens, params, toy_config, layer_hook=lambda layer, x: seen.append(x.data.shape))
    assert all(s[-2] == toy_config.num_patches + 1 for s in seen)
    assert len(seen) == toy_config.depth


def test_end_to_end_gradient_oracle_4x4():
    config = ViTConfig(image_h=4, image_w=4, channels=1, patch=2, dim=8, depth=2, heads=2, num_classes=3)
    params = _params(config, seed=9)
    # nudge so zero-initialized paths (pos embed, biases) carry signal
    g = generator(33)
    for p in params.values():
        p.data = p.data + g.normal(size=p.data.shape) * 0.05
    images = generator(34).uniform(size=(1, 4, 4, 1))

    def f():
        _, logits = vit_forward(images, params, config)
        return batch_cross_entropy(logits, [1])

    err = finite_diff_check(f, params, step=1e-4, max_coords=6, seed=0)
    assert err < 1e-4


def test_config_invariants_enforced():
    with pytest.raises(ValueError):
        ViTConfig(image_h=15, image_w=16, channels=3, patch=4, dim=16, depth=1, heads=2, num_classes=2)
    with pytest.raises(ValueError):
        ViTConfig(image_h=16, image_w=16, channels=3, patch=4, dim=15, depth=1, heads=2, num_classes=2)
