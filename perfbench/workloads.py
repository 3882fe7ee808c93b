"""The three workloads: how each sets up, what one round does, and what it reports.

Every workload is a closed loop with one caller.  A run is split over a
few fresh processes (``PROCESSES``), one after another.  Each sets up
several times, repeats whole rounds of identical work until its share of
``seconds`` has passed (at least one round), and sets up again; the first
then checks the outputs.  Rounds restart from the same seeded inputs, so
every round does the same work.

End-to-end figures come from a few clocks hooked onto the boundaries of a
training step or a gradient check; with ``trace`` on, every layer is
wrapped as well (``trace.py``) and the run reports per-layer figures.

End-to-end times are CPU seconds of the process (``time.process_time``).
The process computes on one thread and never waits on I/O inside a timed
region, so its CPU time is the time its work ran; on a shared virtual
machine, wall time adds whatever the host takes away from the vCPU.  CPU
time still follows the host's load, so a host probe (``hostprobe.py``) runs
between the units of a run, and every unit time is scaled by the probe
times around it.  Units of one kind do the same work (train steps of one
batch size, evaluation forwards of one batch size, finite-difference
forwards of one context kind, set-ups); a metric takes each kind's median
scaled time, counted once per unit of that kind.  The run length
(``seconds``) and the spans of a traced run are wall time.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import checks, perlayer
from .hostprobe import LARGE, SMALL, HostProbe
from .trace import Patches, Recorder, SpanTable, install_tracing

_now = time.process_time
_wall = time.perf_counter

# set-up repeats in each process, before and again after its rounds: at least
# this many, and more until this much CPU time has gone into them (a 15 ms
# set-up is too short for a steady median of three)
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
EVAL_BATCH = 64


def median_total(samples: dict) -> float:
    """Summed time of every unit in ``samples`` (kind -> scaled unit times),
    each unit counted at its kind's median."""
    return sum(len(times) * statistics.median(times) for times in samples.values())


class StepClock:
    """Times training steps, from the request for a batch to the end of its
    AdamW update, by hooking ``train``'s names, and forward-only evaluation
    batches, by hooking ``ContextViT.forward``."""

    def __init__(self, cv, rec: Recorder | None):
        self.cv, self.rec = cv, rec
        self._start = 0.0
        self._span = -1
        self._size = 0
        self.steps: dict[int, list] = {}  # batch size -> [(end, CPU seconds)]
        self.evals: dict[int, list] = {}  # batch size -> [(end, CPU seconds)] of forwards

    def install(self, patches: Patches, probe: HostProbe) -> None:
        train, rec = self.cv.train, self.rec
        make_batches, adamw_step = train.make_batches, train.adamw_step
        cvit = self.cv.context.ContextViT
        forward = cvit.forward
        if rec is not None:
            step_id, batches_id = rec.intern("bench.step"), rec.intern("data.make_batches")

        def timed_batches(*args, **kwargs):
            it = make_batches(*args, **kwargs)
            while True:
                t0, w0 = _now(), _wall()
                try:
                    batch = next(it)
                except StopIteration:
                    return
                if rec is not None:
                    self._span = rec.open(step_id, batch.size, start=w0)
                    rec.record(batches_id, w0, _wall())
                self._start, self._size = t0, batch.size
                yield batch

        def timed_adamw(*args, **kwargs):
            adamw_step(*args, **kwargs)
            if rec is not None:
                rec.close(self._span)
            end = _now()
            self.steps.setdefault(self._size, []).append((end, end - self._start))
            probe.tick()

        def timed_forward(model, batch, train=False, *args, **kwargs):
            if train:
                return forward(model, batch, train, *args, **kwargs)
            t0 = _now()
            out = forward(model, batch, train, *args, **kwargs)
            end = _now()
            self.evals.setdefault(batch.size, []).append((end, end - t0))
            probe.tick()
            return out

        patches.set(train, "make_batches", timed_batches)
        patches.set(train, "adamw_step", timed_adamw)
        patches.set(cvit, "forward", timed_forward)


@dataclass(frozen=True)
class FinetuneRecipe:
    spec: dict  # SyntheticShiftSpec overrides
    kind: str
    sampler: str
    batch_size: int
    epochs: int
    sweep_sizes: tuple = ()  # empty: finish with compute_report instead
    check_ood_above_chance: bool = True


# Epochs are set so that every seed tried had left chance level with room to
# spare: single-group batches need 8 at some seeds (at 6, seed 11 still
# predicted one class); with 256-image groups at B=64, seed 11 sat at
# ln(8) - 0.01 after 3 epochs and ln(8) - 0.1 after 4.  With the default
# data, held-out accuracy is not checked: at seed 15 both held-out groups
# draw channel biases above the training groups' and the trained model
# predicts one class for all of them (0.125), so the check would fail on
# some seeds only.  The mixed workload checks it.
GROUPED = FinetuneRecipe(spec={}, kind="mean_linear_detach", sampler="context", batch_size=32, epochs=8,
                         check_ood_above_chance=False)
MIXED = FinetuneRecipe(
    spec={"train_groups": 16, "ood_groups": 4, "images_per_group": 256},
    kind="layerwise_mean_linear_detach", sampler="uniform", batch_size=64, epochs=5,
    sweep_sizes=perlayer.SWEEP_SIZES,
)
SWEEP_IMAGES = 256  # of the 1024 held-out images; keeps the sweep near 2 s


class Finetune:
    """Fine-tune from a fresh seeded model, then evaluate forward-only."""

    scope = "bench.step"
    probe_shape = LARGE

    def __init__(self, cv, recipe: FinetuneRecipe, seed: int, rec: Recorder | None):
        self.cv, self.recipe, self.seed = cv, recipe, seed
        self.clock = StepClock(cv, rec)
        self.generate_s: list[float] = []
        self.first = None
        self.rounds_s: list[float] = []

    def _model(self):
        cv = self.cv
        return cv.context.ContextViT.create(cv.vit.ViTConfig(), cv.context.ContextKind.from_name(self.recipe.kind),
                                            seed=self.seed)

    def setup(self) -> float:
        cv, r = self.cv, self.recipe
        t0 = _now()
        self.data = cv.data.generate_dataset(cv.data.SyntheticShiftSpec(**r.spec), self.seed)
        t1 = _now()
        self._model()
        elapsed = _now() - t0
        self.generate_s.append(t1 - t0)
        ood = self.data.ood_test
        # group-shuffled so that every evaluation batch mixes held-out groups
        self.ood = ood.take(np.random.default_rng(self.seed).permutation(ood.size)[:SWEEP_IMAGES])
        self.train_config = cv.train.TrainConfig(
            epochs=r.epochs, warmup_epochs=1, batch_size=r.batch_size, sampler=r.sampler,
            seed=self.seed, context_kind=r.kind,
        )
        return elapsed

    def install(self, patches: Patches, probe: HostProbe) -> None:
        self.clock.install(patches, probe)

    def round(self) -> None:
        cv, r = self.cv, self.recipe
        model = self._model()
        t0 = _now()
        result = cv.train.fine_tune(model, self.data, self.train_config)
        t1 = _now()
        if r.sweep_sizes:
            outcome = cv.evaluation.batch_size_sweep(result.model, self.ood, r.sweep_sizes)
        else:
            outcome = cv.evaluation.compute_report(result.model, self.data, EVAL_BATCH)
        self.rounds_s.append(t1 - t0)
        if self.first is None:
            self.first = (result, outcome)

    def attempted(self) -> tuple[int, int]:
        return self.steps() + sum(len(t) for t in self.clock.evals.values()), 0

    def units(self) -> dict:
        return {"steps": self.clock.steps, "evals": self.clock.evals}

    def info(self) -> dict:
        return {}

    @staticmethod
    def end_to_end(units: dict, info: dict) -> dict[str, float]:
        steps, evals = units["steps"], units["evals"]
        eval_images = sum(int(size) * len(times) for size, times in evals.items())
        return {
            "step_ms": median_total(steps) / sum(len(t) for t in steps.values()) * 1000.0,
            "eval_images_per_s": eval_images / median_total(evals),
        }

    def check(self, out_dir: str) -> tuple[dict, dict]:
        """Correctness checks on the first round's model; returns (summary, extra per-layer values)."""
        cv = self.cv
        result, outcome = self.first
        model, k = result.model, result.model.config.num_classes
        first_loss, last_loss = checks.loss_decreases(result, k)
        if self.recipe.sweep_sizes:
            accuracy = {f"ood_b{s}": a for s, a in outcome.items()}
            held_out = [(self.ood, 1, 2), (self.ood, self.recipe.batch_size, 2)]
        else:
            accuracy = {f"{name}": m.accuracy for name, m in outcome.splits.items()}
            held_out = [(self.data.id_test, self.recipe.batch_size, 2), (self.data.ood_test, self.recipe.batch_size, 2)]
        if self.recipe.check_ood_above_chance:
            for name in accuracy:
                if name.startswith("ood"):
                    checks.above_chance(accuracy[name], k, f"{name} accuracy")
        ref_err = max(checks.reference_logits(cv, model, sub, bs, n) for sub, bs, n in held_out)
        perm_err = checks.permutation_invariance(cv, model, self.ood, self.recipe.batch_size, self.seed)
        batch = next(cv.data.make_batches(self.data.train, self.recipe.batch_size, self.recipe.sampler, self.seed))
        adamw_err = checks.adamw_matches_formula(cv, model, batch, self.seed)
        save_s, load_s, size = checks.checkpoint_round_trip(
            cv, model, batch, os.path.join(out_dir, f"roundtrip-{os.getpid()}.cvck"))
        summary = {
            "first_epoch_loss": first_loss, "final_train_loss": last_loss, "accuracy": accuracy,
            "reference_max_rel_err": ref_err, "permutation_max_rel_err": perm_err,
            "adamw_max_rel_err": adamw_err, "best_epoch": result.best_epoch,
        }
        extra = {"checkpoint.save_ms": save_s * 1000.0, "checkpoint.load_ms": load_s * 1000.0,
                 "checkpoint.bytes": float(size), "data.generate_dataset_s": statistics.median(self.generate_s)}
        return summary, extra

    def steps(self) -> int:
        return sum(len(t) for t in self.clock.steps.values())


class GradCheck:
    """``verify.run_gradient_suite``: every op check, then one model check per kind.

    The suite runs as the ``grad-check`` command runs it: at its own seeds
    and in the order of ``CONTEXT_KIND_NAMES``, whatever the workload seed.
    At other seeds some checks exceed the tolerance (finite differences
    across a ReLU kink, or logsumexp at step 1e-4; see the FOUND lines in
    CHANGES.md), which would make the failure count depend on the seed.  The
    order moves the suite's speed: with the model checks shuffled by the
    seed, the mean finite-difference forward of some orders ran 15-20%
    faster than that of others, in every repeat (the heap the earlier checks
    leave behind differs).
    """

    scope = "verify.run_gradient_suite"
    probe_shape = SMALL

    def __init__(self, cv, recipe: None, seed: int, rec: Recorder | None):
        self.cv = cv
        self.kinds = list(cv.context.CONTEXT_KIND_NAMES)
        self._kind = None  # the model check running, if any
        self.rounds_s: list[float] = []
        self.model_evals: dict[str, list] = {}  # kind -> [(end, CPU seconds)] of finite-difference forwards
        self.model_check_s: dict[str, float] = {}
        self.results: list[dict] = []

    def setup(self) -> float:
        t0 = _now()
        batch_sizes = {self.cv.verify._toy_setup(kind, 0)[1].size for kind in self.kinds}
        elapsed = _now() - t0
        (self.batch_size,) = batch_sizes
        return elapsed

    def install(self, patches: Patches, probe: HostProbe) -> None:
        gc, verify = self.cv.gradcheck, self.cv.verify
        evaluate, model_check = gc._evaluate, verify.toy_model_gradient_check

        def timed_evaluate(f):
            t0 = _now()
            out = evaluate(f)
            if self._kind is not None:
                end = _now()
                self.model_evals.setdefault(self._kind, []).append((end, end - t0))
                probe.tick()
            return out

        def timed_model_check(kind_name, *args, **kwargs):
            self._kind = kind_name
            t0 = _now()
            try:
                return model_check(kind_name, *args, **kwargs)
            finally:
                self._kind = None
                self.model_check_s[kind_name] = self.model_check_s.get(kind_name, 0.0) + _now() - t0

        patches.set(gc, "_evaluate", timed_evaluate)
        patches.set(verify, "toy_model_gradient_check", timed_model_check)

    def round(self) -> None:
        t0 = _now()
        results = self.cv.verify.run_gradient_suite(kinds=self.kinds)
        self.rounds_s.append(_now() - t0)
        self.results.append(results)

    def attempted(self) -> tuple[int, int]:
        tolerance = self.cv.verify.TOLERANCE
        failed = sum(1 for r in self.results for v in r.values() if not v < tolerance)
        return sum(len(r) for r in self.results), failed

    def units(self) -> dict:
        return {"evals": self.model_evals}

    def info(self) -> dict:
        return {"batch_size": self.batch_size}

    @staticmethod
    def end_to_end(units: dict, info: dict) -> dict[str, float]:
        evals = units["evals"]
        forwards = sum(len(t) for t in evals.values())
        forward_s = median_total(evals)
        return {
            "step_ms": forward_s / forwards * 1000.0,
            "eval_images_per_s": info["batch_size"] * forwards / forward_s,
        }

    def check(self, out_dir: str) -> tuple[dict, dict]:
        for results in self.results:
            checks.gradient_coverage(self.cv, results)
        tolerance = self.cv.verify.TOLERANCE
        last = self.results[-1]
        worst = max(last, key=last.get)
        summary = {"checks": len(last), "worst": worst, "worst_error": last[worst], "tolerance": tolerance,
                   "over_tolerance": sorted(n for n, v in last.items() if not v < tolerance)}
        rounds = len(self.rounds_s)
        extra = {f"verify.model_check_s.{k}": v / rounds for k, v in self.model_check_s.items()}
        return summary, extra

    def steps(self) -> int:
        return sum(len(t) for t in self.model_evals.values())


WORKLOADS = {
    "finetune_grouped": (Finetune, GROUPED),
    "finetune_mixed": (Finetune, MIXED),
    "gradcheck": (GradCheck, None),
}
# fresh processes an untraced run is split over; a fine-tune round takes
# 12-20 s, a gradient suite 5-8 s, and every process does at least one
PROCESSES = {"finetune_grouped": 2, "finetune_mixed": 1, "gradcheck": 3}


def package():
    """The package's layer modules, imported through the caller's ``sys.path``."""
    from contextvit import checkpoint, context, data, evaluation, gradcheck, tensor, train, verify, vit

    return SimpleNamespace(
        checkpoint=checkpoint, context=context, data=data, evaluation=evaluation, gradcheck=gradcheck,
        tensor=tensor, train=train, verify=verify, vit=vit,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(work, probe: HostProbe) -> list:
    """Set up at least ``SETUP_REPEATS`` times and for ``SETUP_SECONDS``, with
    a probe before and after each; returns [(end, CPU seconds)]."""
    units: list = []
    probe.tick(force=True)
    while len(units) < SETUP_REPEATS or sum(secs for _, secs in units) < SETUP_SECONDS:
        secs = work.setup()
        units.append((_now(), secs))
        probe.tick(force=True)
    return units


def run_process(workload: str, seed: int, seconds: float, trace: bool, check: bool, out_dir: str) -> dict:
    """One process's share of a run: set up, whole rounds for ``seconds`` of
    wall time, set up again, then (with ``check``) the correctness checks.

    Returns what the process measured, as plain JSON values: unit times
    already scaled by this process's probe (``scaled``), or, traced, the
    per-layer metrics.
    """
    cv = package()
    rec = Recorder() if trace else None
    patches = Patches()
    if rec is not None:
        install_tracing(vars(cv), rec, patches)
    cls, recipe = WORKLOADS[workload]
    work = cls(cv, recipe, seed, rec)
    # a traced run reports no end-to-end times, and its spans would hold the probes
    probe = HostProbe(work.probe_shape, active=not trace)
    setups = set_up(work, probe)
    work.install(patches, probe)
    t0 = _wall()
    try:
        # the first round is measured too: it grows the heap and faults in
        # fresh pages, as a one-off ``contextvit train`` process does
        while True:
            work.round()
            if _wall() - t0 >= seconds:
                break
    finally:
        patches.undo()
    measured_s = _wall() - t0
    rss = peak_rss_mb()
    # set up again after the rounds, so that the set-ups sample the host's
    # speed at both ends of the process
    setups += set_up(work, probe)
    attempted, failed = work.attempted()
    part = {"attempted": attempted, "failed": failed, "rounds_s": work.rounds_s, "measured_s": measured_s,
            "steps": work.steps(), "rss_mb": rss, "correct": None, "checks": None}
    extra = {}
    if check:
        try:
            part["checks"], extra = work.check(out_dir)
            part["correct"] = True
        except checks.CheckFailed as exc:
            part["checks"], part["correct"] = {"failed_check": str(exc)}, False
    if rec is None:
        part["scaled"] = {
            "setup": probe.scaled(setups).tolist(),
            "units": {group: {str(kind): probe.scaled(units).tolist() for kind, units in kinds.items()}
                      for group, kinds in work.units().items()},
        }
        part["info"] = work.info()
        part["probe"] = {"shape": vars(probe.shape), "median_ms": probe.median_ms(), "ends": probe.ends,
                         "times": probe.times}
        part["raw"] = {"setup": setups, "units": {group: {str(kind): units for kind, units in kinds.items()}
                                                  for group, kinds in work.units().items()}}
    else:
        extra["trace.round_s"] = statistics.median(work.rounds_s)
        table = SpanTable(rec)
        values = perlayer.compute(table, work.scope, work.steps(), len(work.rounds_s), extra)
        part["metrics"] = {name: {"value": values[name], "unit": unit}
                           for name, unit in perlayer.metric_units().items()}
        part["spans"] = int(table.name.size)
        rec.save(os.path.join(out_dir, f"{workload}-seed{seed}.spans.npz"))
    return part


def combine(workload: str, trace: bool, parts: list[dict]) -> dict:
    """The result object of a run from its processes' parts: unit times of
    each kind pooled over the processes, attempts and failures summed, the
    correctness checks of the process that made them."""
    result = {
        "correct": all(p["correct"] for p in parts if p["correct"] is not None),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
    }
    if trace:
        result["metrics"] = parts[0]["metrics"]
        return result
    units: dict = {}
    for p in parts:
        for group, kinds in p["scaled"]["units"].items():
            for kind, times in kinds.items():
                units.setdefault(group, {}).setdefault(kind, []).extend(times)
    setups = [t for p in parts for t in p["scaled"]["setup"]]
    cls, _ = WORKLOADS[workload]
    e2e = {"setup_s": statistics.median(setups), **cls.end_to_end(units, parts[0]["info"]),
           "peak_rss_mb": max(p["rss_mb"] for p in parts)}
    result["metrics"] = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return result


END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms": "ms",
    "eval_images_per_s": "images/s",
    "peak_rss_mb": "MB",
}
