"""Evaluation stack: metric definitions, the ablation table, the evaluation
batch-size sweep, PCA, and the group-separation score."""

import math

import numpy as np
import pytest

from contextvit.context import CONTEXT_KIND_NAMES, ContextKind, ContextViT
from contextvit.data import SyntheticShiftSpec, generate_dataset
from contextvit.evaluation import (
    batch_size_sweep,
    collect_context_tokens,
    compute_metrics,
    compute_report,
    pca_project,
    run_ablation,
    separation_score,
)
from contextvit.tensor import constant
from contextvit.rng import generator
from contextvit.train import EVAL_IMAGES_PER_FORWARD, TrainConfig, fine_tune, predictions
from contextvit.vit import ViTConfig


class _FakeModel:
    """Duck-typed stand-in whose logits are a fixed function of the labels."""

    def __init__(self, num_classes, predict):
        self.num_classes = num_classes
        self._predict = predict

    def can_evaluate(self, subset):
        return True

    def forward(self, batch, train=False, **kw):
        preds = self._predict(batch)
        logits = np.eye(self.num_classes)[preds] * 10.0
        return constant(np.zeros((batch.size, 4))), constant(logits)


def test_perfect_predictor_scores_one(small_data):
    model = _FakeModel(4, lambda b: b.labels)
    m = compute_metrics(model, small_data.id_test, eval_batch_size=8)
    assert m.accuracy == 1.0
    assert m.worst_group == 1.0
    assert all(v == 1.0 for v in m.per_group.values())


def test_constant_predictor_hits_class_frequency(small_data):
    model = _FakeModel(4, lambda b: np.zeros(b.size, dtype=int))
    m = compute_metrics(model, small_data.train, eval_batch_size=16)
    freq = float(np.mean(small_data.train.labels == 0))
    assert m.accuracy == pytest.approx(freq, abs=1e-12)
    assert abs(m.accuracy - 0.25) < 0.05  # balanced 4-class data


def test_worst_group_is_min_over_groups(small_data):
    # predictor that is right only on group 0
    model = _FakeModel(4, lambda b: np.where(b.groups == 0, b.labels, (b.labels + 1) % 4))
    m = compute_metrics(model, small_data.id_test, eval_batch_size=8)
    assert m.worst_group == min(m.per_group.values()) == 0.0
    assert m.per_group[0] == 1.0
    assert m.worst_group <= m.accuracy


def test_report_contains_ood_gap(small_data):
    model = _FakeModel(4, lambda b: np.where(b.groups < 3, b.labels, (b.labels + 1) % 4))
    report = compute_report(model, small_data, eval_batch_size=8)
    assert report.splits["id_test"].accuracy == 1.0
    assert report.splits["ood_test"].accuracy == 0.0
    assert report.ood_gap == 1.0


def test_metric_determinism(small_data, toy_model):
    a = compute_metrics(toy_model, small_data.id_test, eval_batch_size=8)
    b = compute_metrics(toy_model, small_data.id_test, eval_batch_size=8)
    assert a.accuracy == b.accuracy
    assert a.per_group == b.per_group


def test_oracle_report_marks_held_out_split_not_applicable(small_data, toy_config):
    """The oracle table registers only the training groups, so the held-out
    split reads NaN, flagged, where evaluating it would raise."""
    model = ContextViT.create(toy_config, ContextKind.from_name("oracle"), seed=0,
                              group_ids=sorted(small_data.train.partition))
    assert model.can_evaluate(small_data.id_test) and not model.can_evaluate(small_data.ood_test)
    report = compute_report(model, small_data, eval_batch_size=16)
    assert report.splits["id_test"].applicable and 0.0 <= report.splits["id_test"].accuracy <= 1.0
    ood = report.splits["ood_test"]
    assert not ood.applicable and math.isnan(ood.accuracy) and math.isnan(ood.worst_group)
    assert math.isnan(report.ood_gap)


def test_empty_split_rejected(small_data, toy_model):
    with pytest.raises(ValueError):
        compute_metrics(toy_model, small_data.train.take(np.array([], dtype=int)), eval_batch_size=4)


# ------------------------------------------------------------------ ablation


def _tiny_data_and_config():
    spec = SyntheticShiftSpec(num_classes=2, train_groups=2, ood_groups=1, images_per_group=16)
    data = generate_dataset(spec, seed=31)
    vit = ViTConfig(image_h=16, image_w=16, channels=3, patch=4, dim=16, depth=2, heads=2, num_classes=2)
    tc = TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, seed=0)
    return data, vit, tc


def test_ablation_rejects_an_empty_seed_list():
    data, vit, tc = _tiny_data_and_config()
    with pytest.raises(ValueError, match="at least one seed"):
        run_ablation(data, vit, tc, kinds=[ContextKind("none")], seeds=[])


def test_ablation_rows_aggregate_kinds():
    data, vit, tc = _tiny_data_and_config()
    rows = run_ablation(data, vit, tc, kinds=[ContextKind("none"), ContextKind("mean")], seeds=[0, 1])
    assert [r.kind for r in rows] == ["none", "mean"]
    for r in rows:
        assert len(r.per_seed_ood) == 2
        assert r.error is None
        assert r.seconds > 0


def test_ablation_none_row_matches_plain_run():
    data, vit, tc = _tiny_data_and_config()
    rows = run_ablation(data, vit, tc, kinds=[ContextKind("none")], seeds=[0])
    model = ContextViT.create(vit, ContextKind.from_name("none"), seed=0)
    result = fine_tune(model, data, TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, seed=0, context_kind="none"))
    direct = compute_metrics(result.model, data.id_test, eval_batch_size=tc.batch_size)
    assert rows[0].id_accuracy == direct.accuracy


def test_ablation_records_failures_and_continues(monkeypatch):
    data, vit, tc = _tiny_data_and_config()
    import contextvit.evaluation as ev

    real = ev.fine_tune

    def exploding(model, d, cfg):
        if model.kind.name == "mean":
            raise FloatingPointError("training diverged (simulated)")
        return real(model, d, cfg)

    monkeypatch.setattr(ev, "fine_tune", exploding)
    rows = run_ablation(data, vit, tc, kinds=[ContextKind("mean"), ContextKind("none")], seeds=[0])
    assert rows[0].kind == "mean" and rows[0].error is not None
    assert "diverged" in rows[0].error
    assert rows[1].kind == "none" and rows[1].error is None


def test_ablation_oracle_ood_reported_nan():
    data, vit, tc = _tiny_data_and_config()
    rows = run_ablation(data, vit, tc, kinds=[ContextKind("oracle")], seeds=[0])
    assert math.isnan(rows[0].ood_accuracy)
    assert not math.isnan(rows[0].id_accuracy)


# --------------------------------------------------------------------- sweep


def test_sweep_runs_all_sizes_including_one(small_data, toy_model):
    accs = batch_size_sweep(toy_model, small_data.ood_test, [1, 8, 64])
    assert set(accs) == {1, 8, 64}
    assert all(0.0 <= v <= 1.0 for v in accs.values())


def test_sweep_rejects_bad_sizes(small_data, toy_model):
    with pytest.raises(ValueError):
        batch_size_sweep(toy_model, small_data.ood_test, [0, 8])


def test_sweep_requires_amortized_kind(small_data, toy_config):
    plain = ContextViT.create(toy_config, ContextKind.from_name("none"), seed=0)
    with pytest.raises(ValueError):
        batch_size_sweep(plain, small_data.ood_test, [1, 8])


# ----------------------------------------------------------------------- pca


def test_pca_collinear_first_component_explains_all():
    t = np.linspace(-2, 2, 9)[:, None] * np.array([1.0, 2.0, -1.0])[None, :]
    res = pca_project(t, k=3)
    assert res.explained_ratio[0] == pytest.approx(1.0, abs=1e-12)
    assert res.explained_ratio[1:] == pytest.approx(0.0, abs=1e-12)
    assert res.zero_variance_components == 2


def test_pca_projections_zero_mean():
    rng = np.random.default_rng(2)
    res = pca_project(rng.normal(size=(40, 6)), k=4)
    assert np.allclose(res.projections.mean(axis=0), 0.0, atol=1e-12)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 5))
    res = pca_project(x, k=5)
    recon = res.projections @ res.components + res.mean
    assert np.max(np.abs(recon - x)) < 1e-9


def test_pca_components_orthonormal():
    rng = np.random.default_rng(4)
    res = pca_project(rng.normal(size=(30, 7)), k=7)
    gram = res.components @ res.components.T
    assert np.max(np.abs(gram - np.eye(7))) < 1e-9


def test_pca_sign_convention_first_nonzero_loading_positive():
    rng = np.random.default_rng(5)
    res = pca_project(rng.normal(size=(20, 4)), k=4)
    for row in res.components:
        nz = np.nonzero(row)[0]
        assert row[nz[0]] > 0


def test_pca_input_validation():
    with pytest.raises(ValueError):
        pca_project(np.zeros((1, 3)), k=1)  # needs at least 2 points
    with pytest.raises(ValueError):
        pca_project(np.zeros((5, 3)), k=4)  # k > d


# ---------------------------------------------------------------- separation


def test_separation_infinite_when_groups_collapse():
    tokens = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    res = separation_score(tokens, [0, 0, 1, 1])
    assert res.infinite and math.isinf(res.score)


def test_separation_degenerate_when_everything_identical():
    tokens = np.ones((6, 3))
    res = separation_score(tokens, [0, 0, 0, 1, 1, 1])
    assert res.degenerate and math.isnan(res.score)


def test_separation_clustered_groups_exceed_one():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(50, 4)) * 0.1
    b = rng.normal(size=(50, 4)) * 0.1 + 3.0
    res = separation_score(np.concatenate([a, b]), [0] * 50 + [1] * 50)
    assert res.score > 1.0
    assert not res.infinite and not res.degenerate


def test_separation_preconditions():
    with pytest.raises(ValueError):
        separation_score(np.zeros((4, 2)), [0, 0, 0, 0])  # one group
    with pytest.raises(ValueError):
        separation_score(np.zeros((3, 2)), [0, 0, 1])  # singleton group


# ---------------------------------------------------------- packed evaluation


def _nudged_model(config, name, dtype):
    """A model of ``name`` off its zero init, so every context head shapes
    the logits; an ema model holds state for group 0 only."""
    model = ContextViT.create(config, ContextKind.from_name(name, patches=6), seed=3, group_ids=[0, 1, 2])
    for key, p in sorted(model.trainable_parameters().items()):
        p.data = p.data + 0.05 * generator(len(key)).normal(size=p.data.shape)
    if name == "ema":
        model.ema_state = {0: generator(5).normal(size=config.dim)}
    if dtype == "float32":
        model.to_float32()
    return model


@pytest.mark.parametrize("dtype, rtol", [("float64", 1e-12), ("float32", 1e-5)])
@pytest.mark.parametrize("name", CONTEXT_KIND_NAMES)
def test_packed_predictions_match_one_forward_per_batch(small_data, toy_config, monkeypatch, name, dtype, rtol):
    """``predictions`` packs consecutive batches into forwards of at most
    ``EVAL_IMAGES_PER_FORWARD`` images; its logits equal those of one forward
    per batch to rounding, and its predictions are theirs.  The subset is
    group-shuffled, so batches mix the training groups (which the oracle
    has rows for)."""
    model = _nudged_model(toy_config, name, dtype)
    subset = small_data.train.take(np.random.default_rng(7).permutation(small_data.train.size))
    real_forward = ContextViT.forward
    for size in (1, 3, 8, 64):
        packed = []

        def spy(self, batch, *args, **kwargs):
            out = real_forward(self, batch, *args, **kwargs)
            packed.append((batch.size, out[1].data))
            return out

        monkeypatch.setattr(ContextViT, "forward", spy)
        preds = predictions(model, subset, size)
        monkeypatch.setattr(ContextViT, "forward", real_forward)
        per_batch = np.concatenate([model.forward(subset.take(np.arange(start, min(start + size, subset.size))))[1].data
                                    for start in range(0, subset.size, size)])
        assert max(b for b, _ in packed) == min(max(EVAL_IMAGES_PER_FORWARD // size, 1) * size, subset.size)
        got = np.concatenate([logits for _, logits in packed])
        assert got.dtype == per_batch.dtype == np.dtype(dtype)
        assert np.max(np.abs(got - per_batch)) <= rtol * np.max(np.abs(per_batch)), size
        assert np.array_equal(preds, np.argmax(per_batch, axis=1)), size


# ---------------------------------------------------------- token collection


def test_collect_context_tokens_shapes_and_groups(small_data, toy_model):
    tokens, gids = collect_context_tokens(toy_model, small_data.id_test, batches_per_group=4, batch_size=4, seed=0)
    assert tokens.shape[1] == toy_model.config.dim
    assert tokens.shape[0] == len(gids)
    assert set(gids) == set(int(g) for g in np.unique(small_data.id_test.groups))
    # several token samples per group
    for g in set(gids):
        assert int((gids == g).sum()) == 4


def test_collect_context_tokens_deterministic(small_data, toy_model):
    a, ga = collect_context_tokens(toy_model, small_data.id_test, batches_per_group=3, batch_size=4, seed=5)
    b, gb = collect_context_tokens(toy_model, small_data.id_test, batches_per_group=3, batch_size=4, seed=5)
    assert np.array_equal(a, b)
    assert np.array_equal(ga, gb)
