"""Per-layer metrics computed from a traced run's spans.

"Per step" means: summed over the spans that lie inside the workload's
step scope, divided by the number of steps.  On the fine-tunes the scope
is the training steps (batch request to the end of the AdamW update) and
a step is one training step.  On ``gradcheck`` the scope is the whole
gradient suite and a step is one finite-difference forward of a model
check, so per-step figures there are the suite's cost per model forward.

Self times follow one rule: a span's duration minus the durations of the
direct child spans named in the metric (README.md lists them).
"""

from __future__ import annotations

import numpy as np

from .trace import SpanTable

TENSOR_OPS = (
    "matmul", "add", "gelu", "layer_norm", "softmax", "transpose", "reshape", "getitem",
    "concat", "index_rows", "broadcast_to", "logsumexp", "select_columns", "mean_axis",
)
SWEEP_SIZES = (1, 8, 64, 256)
CONTEXT_KINDS = (
    "none", "mean", "mean_linear", "mean_linear_detach", "layerwise_mean_linear_detach",
    "deep_sets", "deep_sets_detach", "oracle", "ema", "in_context_patches",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units: dict[str, str] = {}
    for op in TENSOR_OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms"
        units[f"tensor.{op}.bwd_ms"] = "ms"
        units[f"tensor.{op}.calls"] = "count"
    units["tensor.nodes_per_step"] = "count"
    units["tensor.backward_ms"] = "ms"
    for name in ("embed_patches_ms", "attention_ms", "transformer_layer_self_ms", "encode_tokens_ms"):
        units[f"vit.{name}"] = "ms"
    units["context.self_ms"] = "ms"
    units["context.groups_per_batch"] = "count"
    units["context.infer_context_mean.calls"] = "count"
    for name in ("forward_ms", "loss_ms", "adamw_step_ms"):
        units[f"train.{name}"] = "ms"
    for size in SWEEP_SIZES:
        units[f"evaluation.batch_ms.b{size}"] = "ms"
    units["evaluation.compute_metrics_s"] = "s"
    units["data.generate_dataset_s"] = "s"
    units["data.make_batches_ms"] = "ms"
    units["checkpoint.save_ms"] = "ms"
    units["checkpoint.load_ms"] = "ms"
    units["checkpoint.bytes"] = "bytes"
    units["verify.op_checks_s"] = "s"
    for kind in CONTEXT_KINDS:
        units[f"verify.model_check_s.{kind}"] = "s"
    units["gradcheck.forward_calls"] = "count"
    units["gradcheck.forward_ms"] = "ms"
    units["trace.round_s"] = "s"
    return units


def compute(table: SpanTable, scope: str, steps: int, rounds: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer values; ``extra`` supplies the ones measured outside the spans."""
    out = dict.fromkeys(metric_units(), 0.0)
    in_scope = table.inside(scope)
    per_step = 1.0 / max(steps, 1)
    ms = 1000.0

    def total(*names: str, mask=None) -> float:
        sel = table.is_name(*names) & (in_scope if mask is None else mask)
        return float(table.dur[sel].sum())

    def count(*names: str) -> int:
        return int((table.is_name(*names) & in_scope).sum())

    for op in TENSOR_OPS:
        out[f"tensor.{op}.fwd_ms"] = total(f"tensor.{op}") * ms * per_step
        out[f"tensor.{op}.bwd_ms"] = total(f"tensor.{op}.vjp") * ms * per_step
        out[f"tensor.{op}.calls"] = count(f"tensor.{op}") * per_step
    # only op spans carry a node count; vjp and tape spans hold NO_ARG
    ops_with_nodes = in_scope & (table.module == "tensor") & (table.arg > 0)
    out["tensor.nodes_per_step"] = float(table.arg[ops_with_nodes].sum()) * per_step
    out["tensor.backward_ms"] = total("tensor.backward") * ms * per_step

    out["vit.embed_patches_ms"] = total("vit.embed_patches") * ms * per_step
    out["vit.attention_ms"] = total("vit.attention") * ms * per_step
    out["vit.encode_tokens_ms"] = total("vit.encode_tokens") * ms * per_step
    layer = table.is_name("vit.transformer_layer") & in_scope
    not_tensor = table.module != "tensor"
    out["vit.transformer_layer_self_ms"] = float(
        (table.dur - table.child_time(not_tensor))[layer].sum()) * ms * per_step

    fwd = table.is_name("context.contextvit_forward") & in_scope
    out["context.self_ms"] = float(
        (table.dur - table.child_time(table.module == "vit"))[fwd].sum()) * ms * per_step
    if fwd.any():
        out["context.groups_per_batch"] = float(table.arg[fwd].mean())
    out["context.infer_context_mean.calls"] = count("context.infer_context_mean") * per_step

    out["train.forward_ms"] = total("context.ContextViT.forward") * ms * per_step
    out["train.loss_ms"] = total("train.batch_cross_entropy") * ms * per_step
    out["train.adamw_step_ms"] = total("train.adamw_step") * ms * per_step

    everywhere = np.ones(table.name.size, dtype=bool)
    in_eval = table.inside("evaluation.compute_metrics")
    forward = table.is_name("context.ContextViT.forward")
    for size in SWEEP_SIZES:
        sel = in_eval & forward & (table.arg == size)
        if sel.any():
            out[f"evaluation.batch_ms.b{size}"] = float(table.dur[sel].mean()) * ms
    out["evaluation.compute_metrics_s"] = total("evaluation.compute_metrics", mask=everywhere) / rounds

    out["data.make_batches_ms"] = total("data.make_batches") * ms * per_step

    out["verify.op_checks_s"] = total("verify.op_gradient_checks", mask=everywhere) / rounds
    evaluate = table.is_name("gradcheck.evaluate")
    out["gradcheck.forward_calls"] = float(evaluate.sum()) / rounds
    out["gradcheck.forward_ms"] = float(table.dur[evaluate].sum()) * ms / rounds

    unknown = set(extra) - set(out)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    out.update(extra)
    return out
