"""End-to-end acceptance gate.

One test per shipped guarantee, run in numeric order; each prints a single
summary line (visible with ``pytest -v -s`` or in captured output) carrying
the measured values behind the verdict.  The slow directional-benchmark
criterion trains 15 models and is budgeted separately; everything else runs
at toy scale in seconds.
"""

import dataclasses
import time

import numpy as np
import pytest

import contextvit.context as context_mod
import contextvit.evaluation as evaluation_mod
from contextvit import tensor as T
from contextvit.checkpoint import load_checkpoint, save_checkpoint
from contextvit.config import RunConfig
from contextvit.context import (
    CONTEXT_KIND_NAMES,
    ContextKind,
    ContextViT,
    GroupedBatch,
    UnknownGroupError,
    deep_sets_infer,
    infer_context_mean,
)
from contextvit.data import generate_dataset
from contextvit.evaluation import (
    collect_context_tokens,
    pca_project,
    run_ablation,
    separation_score,
)
from contextvit.rng import generator
from contextvit.tensor import Tape, backward
from contextvit.train import (
    TrainConfig,
    batch_cross_entropy,
    fine_tune,
    schedules,
    write_metrics_csv,
)
from contextvit.verify import TOLERANCE, run_gradient_suite
from contextvit.vit import ViTConfig

from conftest import vit_forward

# ---------------------------------------------------------------------------
# shared scaffolding

TOY = ViTConfig(image_h=16, image_w=16, channels=3, patch=4, dim=16, depth=2,
                heads=2, num_classes=4)

# benchmark recipe: default data and model, grouped batches, 3 seeds,
# 30 epochs; batch size chosen so the run fits the wall-clock budget
BENCH_KINDS = ["none", "mean", "mean_linear", "mean_linear_detach",
               "layerwise_mean_linear_detach"]
BENCH_SEEDS = [0, 1, 2]
BENCH_EPOCHS = 30
BENCH_BATCH = 32
BENCH_WARMUP = 2


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion:02d} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion:02d}: {detail}"


def _toy_batch(n=6, groups=(0, 0, 0, 1, 1, 1), seed=3) -> GroupedBatch:
    rng = generator(seed)
    return GroupedBatch(
        images=rng.random((n, TOY.image_h, TOY.image_w, TOY.channels)),
        labels=rng.integers(0, TOY.num_classes, size=n),
        groups=np.asarray(groups),
    )


def _randomize_context_heads(model: ContextViT, seed=17) -> None:
    """Context heads init at zero; give them weight so the pooled path
    actually reaches the loss in gradient-flow comparisons."""
    rng = generator(seed)
    for name in sorted(model.context):
        p = model.context[name]
        p.data[...] = rng.normal(0.0, 0.3, size=p.data.shape)


def _make_model(kind_name: str, seed=11, **kind_kw) -> ContextViT:
    model = ContextViT.create(TOY, ContextKind.from_name(kind_name, **kind_kw), seed=seed)
    if model.context:
        _randomize_context_heads(model)
    return model


def _eval_logits(model: ContextViT, batch: GroupedBatch) -> np.ndarray:
    with Tape():
        return np.array(model.forward(batch)[1].data, copy=True)


def _backbone_grads(model: ContextViT, batch: GroupedBatch, frozen=None):
    with Tape() as tape:
        _, logits = model.forward(batch, train=True, frozen_context_inputs=frozen)
        loss = batch_cross_entropy(logits, batch.labels)
        backward(loss, tape)
    return {k: np.array(p.grad, copy=True)
            for k, p in model.parameters().items()
            if p.requires_grad and not k.startswith("context.")}


@pytest.fixture(scope="session")
def default_data():
    cfg = RunConfig()
    return cfg, generate_dataset(cfg.shift_spec(), seed=0)


@pytest.fixture(scope="session")
def ablation_outcome(default_data):
    """The ablation's rows and seconds, plus each trained model keyed by
    (kind, seed), captured as ``run_ablation`` hands it back."""
    cfg, data = default_data
    train_config = dataclasses.replace(
        cfg.train_config(), epochs=BENCH_EPOCHS, warmup_epochs=BENCH_WARMUP,
        batch_size=BENCH_BATCH, sampler="context",
    )
    models = {}

    def keep_model(model, data, config):
        result = fine_tune(model, data, config)
        models[(model.kind.name, config.seed)] = result.model
        return result

    start = time.monotonic()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation_mod, "fine_tune", keep_model)
        rows = run_ablation(data, cfg.vit_config(), train_config,
                            kinds=[ContextKind(k) for k in BENCH_KINDS], seeds=BENCH_SEEDS,
                            eval_batch_size=64)
    return rows, time.monotonic() - start, models


@pytest.fixture(scope="session")
def trained_context_model(default_data, ablation_outcome):
    """The ablation's seed-0 ``mean_linear_detach`` model: the same data,
    init and TrainConfig as a fresh run, so it is reused, not retrained."""
    _, data = default_data
    return ablation_outcome[2][("mean_linear_detach", 0)], data


# ---------------------------------------------------------------------------
# 1. gradient oracle suite


def test_criterion_01_gradient_suite():
    start = time.monotonic()
    results = run_gradient_suite()
    elapsed = time.monotonic() - start
    worst_name = max(results, key=results.get)
    worst = results[worst_name]
    ok = worst < TOLERANCE and elapsed < 120.0
    _report(1, ok, f"{len(results)} finite-difference checks, worst {worst:.3e} "
                   f"({worst_name}), tolerance {TOLERANCE:g}, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 2. detach semantics: frozen-input gradients match exactly


def test_criterion_02_detach_gradient_semantics():
    batch = _toy_batch()
    frozen: dict = {}  # recorded by the detached model, replayed into mean_linear
    g_detach = _backbone_grads(_make_model("mean_linear_detach"), batch, frozen=frozen)
    g_frozen = _backbone_grads(_make_model("mean_linear"), batch, frozen=frozen)
    g_flow = _backbone_grads(_make_model("mean_linear"), batch)

    exact = all(np.array_equal(g_detach[k], g_frozen[k]) for k in g_detach)
    differs = any(not np.array_equal(g_flow[k], g_detach[k]) for k in g_detach)
    _report(2, exact and differs,
            f"detached grads == frozen-constant grads for all {len(g_detach)} backbone "
            f"params (exact), and full-flow grads differ: {differs}")


# ---------------------------------------------------------------------------
# 3. sequence layout and plain-path equivalence


def test_criterion_03_sequence_layout(monkeypatch):
    shapes = []
    real = context_mod.encode_tokens

    def spy(tokens, params, config, layer_hook=None):
        shapes.append(tuple(tokens.shape))
        return real(tokens, params, config, layer_hook=layer_hook)

    import contextvit.vit as vit_mod

    monkeypatch.setattr(context_mod, "encode_tokens", spy)
    monkeypatch.setattr(vit_mod, "encode_tokens", spy)
    batch = _toy_batch()
    n_patches = (TOY.image_h // TOY.patch) * (TOY.image_w // TOY.patch)

    _eval_logits(_make_model("mean"), batch)
    with_context = shapes[-1]
    model_none = ContextViT.create(TOY, ContextKind.from_name("none"), seed=11)
    with Tape():
        cls_none, logits_none = model_none.forward(batch)
        cls_none, logits_none = np.array(cls_none.data), np.array(logits_none.data)
    without_context = shapes[-1]
    monkeypatch.setattr(context_mod, "encode_tokens", real)
    monkeypatch.setattr(vit_mod, "encode_tokens", real)

    with Tape():
        cls_plain, logits_plain = vit_forward(batch.images, model_none.backbone, TOY)
        cls_plain, logits_plain = np.array(cls_plain.data), np.array(logits_plain.data)
    bitwise = (np.array_equal(logits_none, logits_plain)
               and np.array_equal(cls_none, cls_plain))
    ok = (with_context == (batch.size, n_patches + 2, TOY.dim)
          and without_context == (batch.size, n_patches + 1, TOY.dim)
          and bitwise)
    _report(3, ok, f"context sequence {with_context} == (B, N+2, d); plain {without_context}; "
                   f"kind none bitwise-identical to plain path: {bitwise}")


# ---------------------------------------------------------------------------
# 4. permutation invariance of amortized inference


def test_criterion_04_permutation_invariance():
    amortized = ["mean", "mean_linear", "mean_linear_detach",
                 "layerwise_mean_linear_detach", "deep_sets", "deep_sets_detach", "ema"]
    batch = _toy_batch(n=8, groups=(0, 0, 0, 0, 1, 1, 1, 1))
    rng = generator(23)
    perm = rng.permutation(batch.size)
    permuted = GroupedBatch(batch.images[perm], batch.labels[perm], batch.groups[perm])
    inv = np.argsort(perm)

    worst = 0.0
    for kind_name in amortized:
        base = _eval_logits(_make_model(kind_name), batch)
        shuffled = _eval_logits(_make_model(kind_name), permuted)[inv]
        worst = max(worst, float(np.max(np.abs(base - shuffled))))

    # patch-order invariance, asserted on the pooling functions themselves
    # (one group owning every row; row 0 of the [G, d] result is its token)
    member = rng.normal(size=(3, 8, TOY.dim))
    patch_perm, member_perm = rng.permutation(8), rng.permutation(3)
    mean_a = infer_context_mean(T.constant(member), np.zeros(3, np.int64)).data[0]
    mean_b = infer_context_mean(T.constant(member[member_perm][:, patch_perm]), np.zeros(3, np.int64)).data[0]
    worst = max(worst, float(np.max(np.abs(mean_a - mean_b))))

    ds_model = _make_model("deep_sets")
    flat = member.reshape(-1, TOY.dim)
    rows = np.zeros(flat.shape[0], np.int64)
    ds_a = deep_sets_infer(T.constant(flat), ds_model.context, rows).data[0]
    ds_b = deep_sets_infer(T.constant(flat[rng.permutation(flat.shape[0])]),
                           ds_model.context, rows).data[0]
    worst = max(worst, float(np.max(np.abs(ds_a - ds_b))))

    _report(4, worst <= 1e-12,
            f"{len(amortized)} amortized kinds + pooling functions, worst deviation "
            f"{worst:.2e} <= 1e-12 under member and patch permutations")


# ---------------------------------------------------------------------------
# 5. oracle-vs-amortized contract


def test_criterion_05_oracle_vs_amortized():
    oracle = ContextViT.create(TOY, ContextKind.from_name("oracle"), seed=11, group_ids=[0, 1])
    unseen = _toy_batch(n=2, groups=(7, 7))
    with pytest.raises(UnknownGroupError), Tape():
        oracle.forward(unseen)

    single = _toy_batch(n=1, groups=(9,))
    amortized = [k for k in CONTEXT_KIND_NAMES if k not in ("oracle", "none")]
    for kind_name in amortized:
        kw = {"patches": 4} if kind_name == "in_context_patches" else {}
        logits = _eval_logits(_make_model(kind_name, **kw), single)
        assert logits.shape == (1, TOY.num_classes), kind_name
        assert np.all(np.isfinite(logits)), kind_name
    _report(5, True, f"oracle raises UnknownGroupError on unseen group; "
                     f"{len(amortized)} amortized kinds run at batch size 1")


# ---------------------------------------------------------------------------
# 6. directional benchmark: context ordering on the default data


@pytest.mark.slow
def test_criterion_06_ood_ordering(ablation_outcome):
    rows, elapsed, _ = ablation_outcome
    med = {row.kind: row.ood_accuracy for row in rows}
    errors = [f"{row.kind}: {row.error}" for row in rows if row.error]
    ordering = (med["none"] < med["mean"] <= med["mean_linear"]
                < med["mean_linear_detach"] <= med["layerwise_mean_linear_detach"])
    gap = med["mean_linear_detach"] - med["none"]
    ok = not errors and ordering and gap >= 0.05 and elapsed < 1800.0
    table = "  ".join(f"{k}={med[k]:.3f}" for k in BENCH_KINDS)
    _report(6, ok, f"median OOD over {len(BENCH_SEEDS)} seeds: {table}; "
                   f"detach-none gap {gap*100:.1f}pts >= 5; {elapsed/60:.1f}min < 30min"
                   + (f"; errors: {errors}" if errors else ""))


# ---------------------------------------------------------------------------
# 7. layerwise mechanism


def _training_step(model: ContextViT, batch: GroupedBatch):
    """Each context parameter's gradient (None if it has none) after one
    training forward and backward, and the step's logits."""
    with Tape() as tape:
        _, logits = model.forward(batch, train=True)
        backward(batch_cross_entropy(logits, batch.labels), tape)
    return {name: p.grad for name, p in model.context.items()}, logits.data


def test_criterion_07_layerwise_heads():
    batch = _toy_batch()
    heads = lambda layers: {f"ctx_head{l}.{p}" for l in range(layers) for p in ("w", "b")}
    live = lambda grads: all(g is not None and np.any(g) for g in grads.values())
    grads_plain, logits_plain = _training_step(_make_model("mean_linear_detach"), batch)
    grads_lw, logits_lw = _training_step(_make_model("layerwise_mean_linear_detach"), batch)
    single_head = set(grads_plain) == heads(1) and live(grads_plain)
    layer_heads = TOY.depth >= 2 and set(grads_lw) == heads(TOY.depth) and live(grads_lw)
    shapes_keep = logits_lw.shape == logits_plain.shape
    outputs_change = not np.array_equal(logits_lw, logits_plain)

    ok = single_head and layer_heads and shapes_keep and outputs_change
    _report(7, ok, f"single-shot holds ctx_head0 only, with a live gradient: {single_head}; "
                   f"layerwise holds ctx_head0..{TOY.depth - 1}, each with a live gradient: {layer_heads}; "
                   f"enabling layerwise changes logits ({outputs_change}) at unchanged shape {logits_lw.shape}")


# ---------------------------------------------------------------------------
# 8. trained context tokens cluster by group


@pytest.mark.slow
def test_criterion_08_context_token_structure(trained_context_model):
    model, data = trained_context_model
    tokens, groups = collect_context_tokens(model, data.train, batches_per_group=8,
                                            batch_size=BENCH_BATCH, seed=0)
    n_groups = len(set(int(g) for g in groups))
    sep = separation_score(tokens, groups)
    pca = pca_project(tokens, k=2)
    explained = float(np.sum(pca.explained_ratio))
    gram_err = float(np.max(np.abs(pca.components @ pca.components.T - np.eye(2))))
    ok = n_groups >= 4 and sep.score > 1.0 and explained >= 0.5 and gram_err <= 1e-9
    _report(8, ok, f"{n_groups} training groups: separation {sep.score:.2f} > 1, "
                   f"2-component PCA explains {explained*100:.1f}% >= 50%, "
                   f"component orthonormality error {gram_err:.1e} <= 1e-9")


# ---------------------------------------------------------------------------
# 9. schedule endpoints


def test_criterion_09_schedule_endpoints():
    tc = TrainConfig()
    total, warmup = 300, 20
    lr0, wd0 = schedules(0, total, warmup, tc)
    lr_w, _ = schedules(warmup, total, warmup, tc)
    lr_end, wd_end = schedules(total - 1, total, warmup, tc)
    ok = (lr0 == 0.0 and lr_w == tc.base_lr
          and abs(lr_end - tc.final_lr) <= 1e-9
          and abs(wd0 - tc.weight_decay_start) <= 1e-9
          and abs(wd_end - tc.weight_decay_end) <= 1e-9)
    _report(9, ok, f"lr: 0.0 -> {lr_w} (== base_lr at warmup end, exact) -> "
                   f"{lr_end} (final, err {abs(lr_end - tc.final_lr):.1e}); "
                   f"wd: {wd0} -> {wd_end} (errs {abs(wd0 - tc.weight_decay_start):.1e}, "
                   f"{abs(wd_end - tc.weight_decay_end):.1e})")


# ---------------------------------------------------------------------------
# 10. bitwise reproducibility


def test_criterion_10_reproducibility(tmp_path):
    from contextvit.data import SyntheticShiftSpec

    spec = SyntheticShiftSpec(num_classes=2, train_groups=2, ood_groups=1,
                              images_per_group=32)
    data = generate_dataset(spec, seed=5)
    tc = TrainConfig(epochs=3, warmup_epochs=1, batch_size=8, seed=3,
                     context_kind="mean_linear_detach", sampler="context")
    kind = ContextKind.from_name("mean_linear_detach")

    csv_bytes = []
    last_model = None
    for run in range(2):
        model = ContextViT.create(TOY, kind, seed=3)
        result = fine_tune(model, data, tc)
        path = tmp_path / f"metrics_{run}.csv"
        write_metrics_csv(result.metrics_rows, str(path))
        csv_bytes.append(path.read_bytes())
        last_model = result.model
    csv_identical = csv_bytes[0] == csv_bytes[1]

    ck1 = tmp_path / "model.cvck"
    ck2 = tmp_path / "model_again.cvck"
    params = last_model.parameters()
    save_checkpoint(str(ck1), params, config_hash="f" * 64)
    loaded = load_checkpoint(str(ck1))
    save_checkpoint(str(ck2), loaded.params, config_hash=loaded.config_hash)
    ck_identical = ck1.read_bytes() == ck2.read_bytes()

    ok = csv_identical and ck_identical
    _report(10, ok, f"two identically-seeded runs: metrics CSV byte-identical "
                    f"({len(csv_bytes[0])} bytes); checkpoint save->load->save "
                    f"byte-identical ({ck1.stat().st_size} bytes)")
