"""Training stack: loss oracles, optimizer update rules, schedule endpoints,
overfit sanity, frozen-backbone probing, and metric serialization."""

import csv
import math

import numpy as np
import pytest

from contextvit import tensor as T
from contextvit.context import CONTEXT_KIND_NAMES, ContextKind, ContextViT, GroupedBatch
from contextvit.data import DatasetSplit, SyntheticShiftSpec, generate_dataset
from contextvit.tensor import Tape, Tensor, backward, constant, tensor
from contextvit.train import (
    AdamWState,
    SGDState,
    TrainConfig,
    adamw_step,
    batch_cross_entropy,
    cross_entropy,
    fine_tune,
    is_decay_exempt,
    linear_probe,
    schedules,
    sgd_momentum_step,
    write_metrics_csv,
)
from contextvit.vit import ViTConfig, vit_forward

from conftest import make_batch


# ------------------------------------------------------------- cross entropy


def test_uniform_logits_loss_is_log_k():
    for k in (2, 5, 8):
        loss = cross_entropy(constant(np.zeros(k)), 0)
        assert loss.data == pytest.approx(math.log(k), abs=1e-12)


def test_confident_correct_loss_analytic():
    # -log softmax([10,-10])[0] = log(1 + e^-20)
    loss = cross_entropy(constant([10.0, -10.0]), 0)
    assert loss.data == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)
    # the same closed form at margin 10 (a common spot-check value)
    loss10 = cross_entropy(constant([10.0, 0.0]), 0)
    assert loss10.data == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-9)
    assert loss10.data == pytest.approx(4.5398e-5, rel=1e-3)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = tensor([0.3, -1.2, 0.8], requires_grad=True)
    with Tape() as tape:
        backward(cross_entropy(logits, 2), tape)
    p = np.exp(logits.data) / np.exp(logits.data).sum()
    expected = p - np.eye(3)[2]
    assert np.allclose(logits.grad, expected, atol=1e-12)


def test_label_out_of_range_rejected():
    with pytest.raises((IndexError, ValueError)):
        cross_entropy(constant([0.0, 0.0]), 2)
    with pytest.raises((IndexError, ValueError)):
        batch_cross_entropy(constant(np.zeros((2, 3))), [0, 3])


def test_batch_cross_entropy_is_mean_of_rows():
    logits = constant(np.array([[2.0, -1.0], [0.5, 0.5]]))
    total = batch_cross_entropy(logits, [0, 1])
    row0 = cross_entropy(constant([2.0, -1.0]), 0)
    row1 = cross_entropy(constant([0.5, 0.5]), 1)
    assert total.data == pytest.approx((row0.data + row1.data) / 2, rel=1e-12)


# -------------------------------------------------------------------- adamw


def _single_param(value, name="w"):
    p = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
    return {name: p}


def test_adamw_zero_grad_zero_wd_is_identity():
    params = _single_param([1.0, -2.0])
    params["w"].grad = np.zeros(2)
    state = AdamWState.init(params)
    adamw_step(params, state, lr=0.1, wd=0.0)
    assert np.array_equal(params["w"].data, [1.0, -2.0])


def test_adamw_constant_gradient_descends_monotonically():
    params = _single_param([5.0])
    state = AdamWState.init(params)
    values = [params["w"].data[0]]
    for _ in range(10):
        params["w"].grad = np.array([1.0])
        adamw_step(params, state, lr=0.05, wd=0.0)
        values.append(params["w"].data[0])
    assert all(b < a for a, b in zip(values, values[1:]))


def test_decay_separates_parameters_by_exact_decay_term():
    decayed = _single_param([2.0], name="w")  # decayed
    exempt = _single_param([2.0], name="b")  # bias: exempt
    sd, se = AdamWState.init(decayed), AdamWState.init(exempt)
    decayed["w"].grad = np.array([0.3])
    exempt["b"].grad = np.array([0.3])
    lr, wd = 0.01, 0.5
    adamw_step(decayed, sd, lr=lr, wd=wd)
    adamw_step(exempt, se, lr=lr, wd=wd)
    gap = exempt["b"].data[0] - decayed["w"].data[0]
    assert gap == pytest.approx(lr * wd * 2.0, rel=1e-12)


def test_decay_exemption_rules():
    assert is_decay_exempt("layer0.attn.bq")
    assert is_decay_exempt("layer2.norm1.gain")
    assert is_decay_exempt("cls_token")
    assert is_decay_exempt("context.oracle_table")
    assert is_decay_exempt("context.ctx_head0.b")
    assert not is_decay_exempt("patch_projection")
    assert not is_decay_exempt("layer0.attn.wq")
    assert not is_decay_exempt("context.ctx_head0.w")
    assert not is_decay_exempt("head.w")


def test_non_finite_gradient_names_parameter():
    params = _single_param([1.0], name="layer3.ffn.w1")
    state = AdamWState.init(params)
    params["layer3.ffn.w1"].grad = np.array([np.nan])
    with pytest.raises(FloatingPointError, match="layer3.ffn.w1"):
        adamw_step(params, state, lr=0.1, wd=0.0)


def test_missing_gradient_treated_as_zero():
    params = _single_param([1.5])
    state = AdamWState.init(params)
    adamw_step(params, state, lr=0.1, wd=0.0)
    assert np.array_equal(params["w"].data, [1.5])


def test_sgd_momentum_accumulates_velocity():
    params = _single_param([0.0])
    state = SGDState.init(params)
    params["w"].grad = np.array([1.0])
    sgd_momentum_step(params, state, lr=0.1, momentum=0.9)
    first = params["w"].data[0]
    params["w"].grad = np.array([1.0])
    sgd_momentum_step(params, state, lr=0.1, momentum=0.9)
    second = params["w"].data[0] - first
    assert first == pytest.approx(-0.1)
    assert second == pytest.approx(-0.1 * 1.9)  # velocity compounds


# ---------------------------------------------------------------- schedules


def _tc(**kw):
    base = dict(epochs=10, batch_size=4, base_lr=1e-3, final_lr=1e-5, warmup_epochs=2)
    base.update(kw)
    return TrainConfig(**base)


def test_schedule_warmup_starts_at_zero():
    lr, _ = schedules(0, total_steps=100, warmup_steps=20, config=_tc())
    assert lr == 0.0


def test_schedule_warmup_end_hits_base_lr():
    lr, _ = schedules(20, total_steps=100, warmup_steps=20, config=_tc())
    assert lr == pytest.approx(1e-3, abs=1e-15)


def test_schedule_final_step_exact_endpoints():
    lr, wd = schedules(99, total_steps=100, warmup_steps=20, config=_tc())
    assert abs(lr - 1e-5) < 1e-9
    assert abs(wd - _tc().weight_decay_end) < 1e-9


def test_schedule_wd_starts_at_start_value():
    _, wd = schedules(0, total_steps=100, warmup_steps=20, config=_tc())
    assert wd == pytest.approx(_tc().weight_decay_start, abs=1e-15)


def test_schedule_step_bounds_checked():
    with pytest.raises(ValueError):
        schedules(100, total_steps=100, warmup_steps=10, config=_tc())
    with pytest.raises(ValueError):
        schedules(5, total_steps=100, warmup_steps=100, config=_tc())


def test_train_config_validation():
    with pytest.raises(ValueError):
        _tc(warmup_epochs=10)
    with pytest.raises(ValueError):
        _tc(base_lr=0.0)
    with pytest.raises(ValueError):
        _tc(context_kind="bogus")
    with pytest.raises(ValueError):
        _tc(sampler="bogus")


# ------------------------------------------------------------- training runs


def _tiny_setup(kind="none", images_per_group=16, num_classes=2, seed=0):
    spec = SyntheticShiftSpec(
        num_classes=num_classes, train_groups=2, ood_groups=1, images_per_group=images_per_group
    )
    data = generate_dataset(spec, seed=13)
    config = ViTConfig(image_h=16, image_w=16, channels=3, patch=4, dim=16, depth=2, heads=2, num_classes=num_classes)
    model = ContextViT.create(
        config,
        ContextKind.from_name(kind, patches=8),
        seed=seed,
        group_ids=[0, 1] if kind == "oracle" else None,
    )
    return data, config, model


def test_one_batch_overfit_reaches_full_accuracy():
    data, config, model = _tiny_setup()
    batch = make_batch(data.train, np.arange(8))
    params = model.trainable_parameters()
    state = AdamWState.init(params)
    hit = None
    for step in range(200):
        with Tape() as tape:
            _, logits = model.forward(batch, train=True)
            loss = batch_cross_entropy(logits, batch.labels)
            backward(loss, tape)
        adamw_step(params, state, lr=3e-3, wd=0.0)
        if np.all(np.argmax(logits.data, axis=1) == batch.labels):
            hit = step
            break
    assert hit is not None, "failed to overfit 8 samples in 200 steps"


def test_kind_none_trajectory_matches_plain_vit():
    """Three optimizer steps through the contextual forward with kind none
    produce bitwise the same parameters as stepping vit_forward directly."""
    data, config, model = _tiny_setup()
    twin_backbone = {k: Tensor(p.data.copy(), requires_grad=p.requires_grad) for k, p in model.backbone.items()}

    params_a = model.trainable_parameters()
    params_b = {k: p for k, p in twin_backbone.items() if p.requires_grad}
    state_a, state_b = AdamWState.init(params_a), AdamWState.init(params_b)

    for step in range(3):
        batch = make_batch(data.train, np.arange(step * 4, step * 4 + 4))
        with Tape() as tape:
            _, logits = model.forward(batch, train=True)
            backward(batch_cross_entropy(logits, batch.labels), tape)
        adamw_step(params_a, state_a, lr=1e-3, wd=0.1)
        with Tape() as tape:
            _, logits_b = vit_forward(batch.images, twin_backbone, config)
            backward(batch_cross_entropy(logits_b, batch.labels), tape)
        adamw_step(params_b, state_b, lr=1e-3, wd=0.1)

    for k in params_a:
        assert np.array_equal(params_a[k].data, params_b[k].data), k


def test_fine_tune_runs_and_reports(toy_config):
    data, config, model = _tiny_setup(kind="mean_linear_detach")
    result = fine_tune(model, data, TrainConfig(epochs=2, batch_size=8, warmup_epochs=1, seed=0,
                                                context_kind="mean_linear_detach"))
    assert 0.0 <= result.best_val_accuracy <= 1.0
    assert result.best_epoch >= 0
    epochs = {r[0] for r in result.metrics_rows}
    split_metric = {(r[1], r[2]) for r in result.metrics_rows}
    assert epochs == {0, 1}
    assert {("train", "loss"), ("val", "accuracy")} <= split_metric


def test_seed_changes_trajectory():
    data, _, model_a = _tiny_setup(kind="mean", seed=1)
    _, _, model_b = _tiny_setup(kind="mean", seed=1)
    cfg_a = TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, seed=0, context_kind="mean")
    cfg_b = TrainConfig(epochs=1, batch_size=8, warmup_epochs=0, seed=1, context_kind="mean")
    ra = fine_tune(model_a, data, cfg_a)
    rb = fine_tune(model_b, data, cfg_b)
    assert ra.final_train_loss != rb.final_train_loss


def test_divergence_aborts_with_diagnostics():
    data, _, model = _tiny_setup()
    model.backbone["patch_projection"].data[0, 0] = np.nan  # simulated blow-up
    with pytest.raises(FloatingPointError, match="epoch 0"):
        fine_tune(model, data, TrainConfig(epochs=3, batch_size=8, warmup_epochs=0, seed=0))


def test_probe_leaves_backbone_bitwise_identical():
    data, _, model = _tiny_setup(kind="mean_linear_detach")
    before = {k: p.data.copy() for k, p in model.parameters().items()}
    result = linear_probe(model, data, TrainConfig(epochs=2, batch_size=8, warmup_epochs=0, seed=0,
                                                   context_kind="mean_linear_detach"))
    after = model.parameters()
    for k in before:
        assert np.array_equal(before[k], after[k].data), k
    # probe model reuses the frozen feature weights but trains a fresh head
    probe_params = result.model.parameters()
    for k in before:
        if not k.startswith("head."):
            assert np.array_equal(probe_params[k].data, before[k]), k


def test_probe_on_random_backbone_beats_chance():
    data, _, model = _tiny_setup(images_per_group=48)
    result = linear_probe(model, data, TrainConfig(epochs=12, batch_size=8, warmup_epochs=0, seed=0,
                                                   base_lr=0.05, final_lr=0.001))
    assert result.best_val_accuracy > 0.5  # chance is 1/2 with 2 classes; random features retain signal


def test_probe_insensitive_to_stream_composition():
    data, _, model = _tiny_setup(images_per_group=128)
    accs = []
    for stream_seed in (0, 1):
        res = linear_probe(model, data, TrainConfig(epochs=12, batch_size=8, warmup_epochs=0, seed=stream_seed,
                                                    base_lr=0.05, final_lr=0.001))
        accs.append(res.best_val_accuracy)
    # the convex probe objective has one optimum; stream order only perturbs the path there
    assert abs(accs[0] - accs[1]) <= 0.04


@pytest.mark.slow
def test_first_epoch_loss_decreases_for_every_kind():
    """Median over 3 seeds: mean loss of the last quarter of the first epoch
    is below the mean of the first quarter, for every context kind."""
    spec = SyntheticShiftSpec(num_classes=4, train_groups=3, ood_groups=1, images_per_group=64)
    data = generate_dataset(spec, seed=21)
    config = ViTConfig(image_h=16, image_w=16, channels=3, patch=4, dim=16, depth=2, heads=2, num_classes=4)
    for kind_name in CONTEXT_KIND_NAMES:
        drops = []
        for seed in (0, 1, 2):
            model = ContextViT.create(
                config,
                ContextKind.from_name(kind_name, patches=8),
                seed=seed,
                group_ids=[0, 1, 2] if kind_name == "oracle" else None,
            )
            result = fine_tune(
                model,
                data,
                TrainConfig(epochs=1, batch_size=16, warmup_epochs=0, seed=seed, context_kind=kind_name),
            )
            losses = result.step_losses
            q = max(len(losses) // 4, 1)
            drops.append(np.mean(losses[-q:]) - np.mean(losses[:q]))
        assert np.median(drops) < 0, f"loss did not decrease for kind {kind_name}"


# ------------------------------------------------------------------- metrics


def test_metrics_csv_round_trip(tmp_path):
    rows = [(0, "train", "train_loss", 1.2345678901234567, 0, "mean"),
            (0, "val", "val_accuracy", 0.75, 0, "mean")]
    path = str(tmp_path / "metrics.csv")
    write_metrics_csv(rows, path)
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        parsed = list(reader)
    assert header == ["epoch", "split", "metric", "value", "seed", "kind"]
    assert float(parsed[0][3]) == 1.2345678901234567  # repr round-trips exactly
