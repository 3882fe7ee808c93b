"""Synthetic grouped-shift benchmark: determinism, shift structure, sampler
contracts, and the binary dataset format."""

import json
import re

import numpy as np
import pytest

from contextvit.data import (
    SyntheticShiftSpec,
    class_templates,
    context_sampler,
    generate_dataset,
    load_dataset,
    make_batches,
    save_dataset,
    uniform_sampler,
)


def _spec(**kw):
    base = dict(num_classes=4, train_groups=3, ood_groups=2, images_per_group=40)
    base.update(kw)
    return SyntheticShiftSpec(**base)


# ---------------------------------------------------------------- generation


def test_generation_is_bitwise_deterministic():
    a = generate_dataset(_spec(), seed=3)
    b = generate_dataset(_spec(), seed=3)
    for name in ("train", "val", "id_test", "ood_test"):
        sa, sb = getattr(a, name), getattr(b, name)
        assert np.array_equal(sa.images, sb.images)
        assert np.array_equal(sa.labels, sb.labels)
        assert np.array_equal(sa.groups, sb.groups)


def test_no_group_variation_means_identical_class_images():
    spec = _spec(noise_std=0.0, bias_max=0.0, contrast_jitter=0.0, texture_std=0.0)
    data = generate_dataset(spec, seed=5)
    images = np.concatenate([data.train.images, data.val.images, data.id_test.images, data.ood_test.images])
    labels = np.concatenate([data.train.labels, data.val.labels, data.id_test.labels, data.ood_test.labels])
    for cls in range(spec.num_classes):
        members = images[labels == cls]
        assert len(members) > 1
        assert np.array_equal(members, np.broadcast_to(members[0], members.shape))


def test_pixel_probe_separates_groups_better_than_classes():
    """With a strong group shift and weak class signal, a least-squares probe
    on raw pixels predicts the group better than the class: the shift is real."""
    spec = _spec(bias_max=0.4, signal_amplitude=0.02, noise_std=0.3, images_per_group=60)
    data = generate_dataset(spec, seed=7)
    x = np.concatenate([data.train.images.reshape(data.train.size, -1), np.ones((data.train.size, 1))], axis=1)
    xt = np.concatenate([data.id_test.images.reshape(data.id_test.size, -1), np.ones((data.id_test.size, 1))], axis=1)

    def probe_accuracy(train_targets, test_targets, num_targets):
        w, *_ = np.linalg.lstsq(x, np.eye(num_targets)[train_targets], rcond=None)
        return float(np.mean(np.argmax(xt @ w, axis=1) == test_targets))

    group_acc = probe_accuracy(data.train.groups, data.id_test.groups, spec.train_groups)
    class_acc = probe_accuracy(data.train.labels, data.id_test.labels, spec.num_classes)
    assert group_acc > class_acc + 0.2


def _template_reader_accuracy(split, templates, centre) -> float:
    """Accuracy of a reader that centres each image with ``centre(images,
    group_images)``, averages it over channels and picks the class template
    with the largest inner product (the templates share one norm)."""
    hits = []
    for g in np.unique(split.groups):
        members = split.groups == g
        centred = centre(split.images[members], split.images[members][:32])
        scores = np.einsum("bhw,khw->bk", centred.mean(axis=-1), templates)
        hits.append(np.argmax(scores, axis=1) == split.labels[members])
    return float(np.mean(np.concatenate(hits)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_held_out_class_is_read_from_the_group_mean_not_from_one_image(seed):
    """The benchmark's premise (``class_templates``), on the default spec's
    held-out groups: minus its group's channel means (from 32 group-mates) an
    image names its class; minus its own it names only the class pair."""
    spec = SyntheticShiftSpec()
    ood, templates = generate_dataset(spec, seed).ood_test, class_templates(spec)
    group_mean = _template_reader_accuracy(ood, templates, lambda x, mates: x - mates.mean(axis=(0, 1, 2)))
    own_mean = _template_reader_accuracy(ood, templates, lambda x, _: x - x.mean(axis=(1, 2), keepdims=True))
    assert group_mean >= 0.99
    assert own_mean <= 0.55


def test_labels_balanced_within_groups():
    data = generate_dataset(_spec(), seed=1)
    all_labels = np.concatenate([data.train.labels, data.val.labels, data.id_test.labels])
    counts = np.bincount(all_labels, minlength=4)
    assert counts.max() - counts.min() <= 1 * 3  # round-robin per group, three groups


def test_splits_disjoint_and_ood_isolated():
    data = generate_dataset(_spec(), seed=2)
    train_groups = set(data.train.groups) | set(data.val.groups) | set(data.id_test.groups)
    assert train_groups == {0, 1, 2}
    assert set(data.ood_test.groups) == {3, 4}
    total = data.train.size + data.val.size + data.id_test.size
    assert total == 3 * 40


def test_images_clipped_to_unit_range():
    data = generate_dataset(_spec(bias_max=0.9, noise_std=0.4), seed=4)
    for sub in (data.train, data.ood_test):
        assert sub.images.min() >= 0.0
        assert sub.images.max() <= 1.0


def test_shift_monotonicity_in_bias_max():
    """Group centroids move further apart in pixel space as bias_max grows."""

    def centroid_spread(bias):
        data = generate_dataset(_spec(bias_max=bias, images_per_group=30), seed=6)
        images = np.concatenate([data.train.images, data.val.images, data.id_test.images])
        groups = np.concatenate([data.train.groups, data.val.groups, data.id_test.groups])
        centroids = np.stack([images[groups == g].mean(axis=0).ravel() for g in range(3)])
        dists = [np.linalg.norm(centroids[i] - centroids[j]) for i in range(3) for j in range(i + 1, 3)]
        return float(np.mean(dists))

    spreads = [centroid_spread(b) for b in (0.05, 0.2, 0.5)]
    assert spreads[0] < spreads[1] < spreads[2]


def test_impossible_spec_rejected():
    with pytest.raises(ValueError):
        _spec(num_classes=0)
    with pytest.raises(ValueError):
        _spec(train_groups=0)
    with pytest.raises(ValueError):
        _spec(train_fraction=0.9, val_fraction=0.2)


def test_class_templates_distinct_and_unit_scale():
    spec = _spec()
    t = class_templates(spec)
    assert t.shape == (4, 16, 16)
    for i in range(4):
        assert np.sqrt(np.mean(t[i] ** 2)) == pytest.approx(1.0)
        for j in range(i + 1, 4):
            assert not np.allclose(t[i], t[j])


# ------------------------------------------------------------------- samplers


def test_context_sampler_batches_are_single_group():
    data = generate_dataset(_spec(), seed=8)
    for batch in make_batches(data.train, batch_size=8, sampler="context", seed=0):
        assert len(batch.partition) == 1


def test_context_sampler_covers_epoch_exactly_once():
    data = generate_dataset(_spec(), seed=8)
    seen = np.concatenate(list(context_sampler(data.train, batch_size=8, seed=1)))
    assert sorted(seen.tolist()) == list(range(data.train.size))


def test_uniform_sampler_mixes_groups():
    data = generate_dataset(_spec(), seed=8)
    multi = [len(b.partition) > 1 for b in make_batches(data.train, batch_size=16, sampler="uniform", seed=0)]
    assert any(multi)


def test_uniform_sampler_covers_epoch_exactly_once():
    data = generate_dataset(_spec(), seed=8)
    seen = np.concatenate(list(uniform_sampler(data.train, batch_size=8, seed=1)))
    assert sorted(seen.tolist()) == list(range(data.train.size))


def test_make_batches_sizes_and_final_short_batch():
    data = generate_dataset(_spec(images_per_group=5), seed=9)
    sub = data.train.take(np.arange(10))
    sizes = [b.size for b in make_batches(sub, batch_size=4, sampler="uniform", seed=0)]
    assert sizes == [4, 4, 2]


def test_partition_invariant_on_every_batch():
    data = generate_dataset(_spec(), seed=8)
    for batch in make_batches(data.train, batch_size=7, sampler="uniform", seed=2):
        flat = sorted(i for idxs in batch.partition.values() for i in idxs)
        assert flat == list(range(batch.size))


def test_shuffle_seed_changes_order_not_multiset():
    data = generate_dataset(_spec(), seed=8)
    a = np.concatenate(list(uniform_sampler(data.train, batch_size=8, seed=1)))
    b = np.concatenate(list(uniform_sampler(data.train, batch_size=8, seed=2)))
    assert not np.array_equal(a, b)
    assert sorted(a.tolist()) == sorted(b.tolist())


def test_ood_groups_never_sampled_in_training():
    data = generate_dataset(_spec(), seed=8)
    ood = set(data.ood_test.groups.tolist())
    for sampler in ("uniform", "context"):
        for batch in make_batches(data.train, batch_size=8, sampler=sampler, seed=3):
            assert not (set(batch.groups.tolist()) & ood)


# ------------------------------------------------------------ serialization


def test_dataset_round_trip_bitwise(tmp_path):
    data = generate_dataset(_spec(), seed=10)
    path = str(tmp_path / "set.cvds")
    manifest = save_dataset(data, path)
    loaded = load_dataset(path)
    for name in ("train", "val", "id_test", "ood_test"):
        assert np.array_equal(getattr(loaded, name).images, getattr(data, name).images)
        assert np.array_equal(getattr(loaded, name).labels, getattr(data, name).labels)
        assert np.array_equal(getattr(loaded, name).groups, getattr(data, name).groups)
    import json

    meta = json.loads(open(manifest).read())
    assert meta["splits"]["train"]["size"] == data.train.size
    assert meta["splits"]["ood_test"]["group_ids"] == sorted(set(int(g) for g in data.ood_test.groups))
    assert "sha256" in meta


def test_dataset_file_rejects_corruption(tmp_path):
    data = generate_dataset(_spec(images_per_group=8), seed=11)
    path = str(tmp_path / "set.cvds")
    save_dataset(data, path)
    raw = bytearray(open(path, "rb").read())

    bad_magic = tmp_path / "magic.cvds"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError):
        load_dataset(str(bad_magic))

    truncated = tmp_path / "trunc.cvds"
    truncated.write_bytes(bytes(raw[: len(raw) - 16]))
    with pytest.raises(ValueError):
        load_dataset(str(truncated))

    padded = tmp_path / "padded.cvds"
    padded.write_bytes(bytes(raw) + b"\x00" * 8)
    with pytest.raises(ValueError, match=f"trailing bytes .* in {re.escape(str(padded))}"):
        load_dataset(str(padded))

    def offset(split, part):  # of the first value of ``part`` of ``split`` in the file
        pos = _header_end(raw)
        for name, sub in data.splits().items():
            for key, nbytes in (("images", sub.images.size * 8), ("labels", sub.size * 8), ("groups", sub.size * 8)):
                if (name, key) == (split, part):
                    return pos
                pos += nbytes

    # each payload value once loaded, then failed in training, or trained and reported on the wrong group
    for file, split, part, value, named in [
        ("label.cvds", "train", "labels", np.int64(99).tobytes(), "label 99, outside"),
        ("pixel.cvds", "val", "images", np.float64(np.nan).tobytes(), "a pixel that is not finite"),
        ("group.cvds", "ood_test", "groups", np.int64(0).tobytes(), "group id 0, not one of"),
    ]:
        corrupt = bytearray(raw)
        corrupt[offset(split, part):offset(split, part) + 8] = value
        (tmp_path / file).write_bytes(bytes(corrupt))
        with pytest.raises(ValueError, match=f"split '{split}' in .*{file} has {named}"):
            load_dataset(str(tmp_path / file))


def _saved_dataset(tmp_path):
    data = generate_dataset(_spec(images_per_group=8), seed=11)
    path = str(tmp_path / "set.cvds")
    save_dataset(data, path)
    return path, open(path, "rb").read()


def _header_end(raw: bytes) -> int:
    return 12 + int.from_bytes(raw[8:12], "little")


@pytest.mark.parametrize(
    "cut, named",
    [
        (lambda raw: 6, "version"),
        (lambda raw: 10, "header length"),
        (lambda raw: 20, "header"),
        (lambda raw: _header_end(raw) + 100, "split 'train' images"),
        (lambda raw: len(raw) - 8, "split 'ood_test' groups"),
    ],
)
def test_truncated_dataset_names_the_missing_part(tmp_path, cut, named):
    path, raw = _saved_dataset(tmp_path)
    open(path, "wb").write(raw[: cut(raw)])
    with pytest.raises(ValueError, match=f"file {re.escape(path)}: .*{named}"):
        load_dataset(path)


@pytest.mark.parametrize("size", [10**12, -1])
def test_corrupt_split_size_names_the_split(tmp_path, size):
    path, raw = _saved_dataset(tmp_path)
    header = json.loads(raw[12:_header_end(raw)])
    header["splits"]["val"] = size
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    open(path, "wb").write(raw[:8] + len(text).to_bytes(4, "little") + text + raw[_header_end(raw):])
    with pytest.raises(ValueError, match="split 'val' images"):
        load_dataset(path)


def test_corrupt_header_is_a_named_value_error(tmp_path):
    path, raw = _saved_dataset(tmp_path)
    broken = bytearray(raw)
    broken[12] = ord("]")  # the JSON header no longer parses
    open(path, "wb").write(bytes(broken))
    with pytest.raises(ValueError, match="corrupt dataset header"):
        load_dataset(path)
