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
from contextvit.vit import ViTConfig


def dot(a: Tensor, b=None) -> Tensor:
    """The scalar sum(a * b) over every element, recorded as reshape, one
    [1, n] @ [n, 1] matmul and reshape; ``b`` is a tensor of a's size, an
    array (a constant), or None for all ones (the plain sum of ``a``)."""
    n = a.size
    b = constant(np.ones(n)) if b is None else b if isinstance(b, Tensor) else constant(b)
    return T.reshape(T.matmul(T.reshape(a, (1, n)), T.reshape(b, (n, 1))), ())


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
