"""Deterministic training loop binding problems, optimizers, and schedules.

A run is a pure function of its :class:`RunConfig`: weight init and batch
sampling derive from the config seed (batch indices are a function of
(seed, step) only, so checkpoint/resume replays them exactly), and two
runs with the same config serialize to byte-identical logs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import problems as problems_mod
from .optim import OptimizerDriver, make_config
from .params import ModelParams, ParameterLayer, l2_norm_sq
from .problems import GradientScaledProblem, Problem, finite_diff_grad
from .schedule import LarcConfig, ScheduleSpec, larc_scale, lr_at

__all__ = [
    "ProblemSpec",
    "RunConfig",
    "MetricsRecord",
    "TrajectoryLog",
    "Checkpoint",
    "GradCheckReport",
    "ComparisonRow",
    "SweepRow",
    "build_problem",
    "train",
    "grad_check",
    "compare_runs",
    "lr_sweep",
    "log_to_jsonl",
    "log_to_csv",
    "comparison_to_csv",
    "sweep_to_csv",
    "checkpoint_to_dict",
    "checkpoint_from_dict",
]

CHECKPOINT_FORMAT_VERSION = 1

# sub-stream tags so weight init and batch sampling never share a stream
_INIT_STREAM = 0
_BATCH_STREAM = 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class ProblemSpec:
    """Declarative problem description; ``gradient_scale`` wraps the built
    problem so its gradient stream is multiplied by a constant."""

    kind: str
    options: dict = field(default_factory=dict)
    gradient_scale: float = 1.0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "options": dict(self.options), "gradient_scale": self.gradient_scale}


def build_problem(spec: ProblemSpec) -> Problem:
    problem = problems_mod.build(spec.kind, spec.options)
    if spec.gradient_scale != 1.0:
        problem = GradientScaledProblem(problem, spec.gradient_scale)
    return problem


@dataclass
class RunConfig:
    problem: ProblemSpec
    algorithm: str
    schedule: ScheduleSpec
    hyperparams: dict = field(default_factory=dict)
    larc: LarcConfig | None = None
    batch_size: int = 32
    accumulation_factor: int = 1
    total_steps: int = 100
    seed: int = 0
    log_every: int = 10

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "optimizer": {"algorithm": self.algorithm, **self.hyperparams},
            "schedule": asdict(self.schedule),
            "larc": None if self.larc is None else asdict(self.larc),
            "batch_size": self.batch_size,
            "accumulation_factor": self.accumulation_factor,
            "total_steps": self.total_steps,
            "seed": self.seed,
            "log_every": self.log_every,
        }


@dataclass
class MetricsRecord:
    step: int
    lr_effective: float
    loss: float
    grad_norms: dict[str, float]
    second_moments: dict[str, float] | None
    wall_time_ns: int


@dataclass
class Checkpoint:
    step: int
    weights: dict[str, np.ndarray]
    optimizer: dict


@dataclass
class TrajectoryLog:
    config: RunConfig
    records: list[MetricsRecord]
    final_weights: dict[str, np.ndarray]
    termination: str  # completed | diverged | checkpoint
    checkpoint: Checkpoint | None = None
    weight_trace: list[dict[str, np.ndarray]] | None = None


def _validate_config(cfg: RunConfig) -> None:
    if cfg.total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {cfg.total_steps}")
    if cfg.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.accumulation_factor < 1:
        raise ValueError(f"accumulation_factor must be >= 1, got {cfg.accumulation_factor}")
    if cfg.log_every < 1:
        raise ValueError(f"log_every must be >= 1, got {cfg.log_every}")
    if cfg.schedule.total_steps != cfg.total_steps:
        raise ValueError("schedule.total_steps must equal the run's total_steps")


def _batch_indices(seed: int, step: int, n: int | None, count: int) -> np.ndarray | None:
    if n is None:
        return None
    rng = np.random.default_rng([seed, _BATCH_STREAM, step])
    return rng.integers(0, n, size=count)


def train(
    cfg: RunConfig,
    *,
    stop_after: int | None = None,
    resume_from: Checkpoint | None = None,
    record_weight_trace: bool = False,
) -> TrajectoryLog:
    """Run exactly ``total_steps`` optimizer updates (unless diverging).

    Each update averages the gradients of ``accumulation_factor``
    micro-batches of ``batch_size`` examples, applies the optional LARC
    pre-scale per layer, and steps the optimizer at the scheduled rate.
    A non-finite loss or gradient terminates the run with reason
    "diverged" and a valid partial log.  ``stop_after=s`` stops before
    step ``s`` and attaches a resumable checkpoint; ``record_weight_trace``
    keeps a post-update weights snapshot per step (testing aid).
    """
    _validate_config(cfg)
    return _train(
        cfg,
        build_problem(cfg.problem),
        stop_after=stop_after,
        resume_from=resume_from,
        record_weight_trace=record_weight_trace,
    )


def _train(
    cfg: RunConfig,
    problem: Problem,
    *,
    stop_after: int | None = None,
    resume_from: Checkpoint | None = None,
    record_weight_trace: bool = False,
) -> TrajectoryLog:
    """:func:`train` on ``problem``, already built from ``cfg.problem``."""
    params = problem.init_params(np.random.default_rng([cfg.seed, _INIT_STREAM, 0]))
    if resume_from is not None:
        driver = OptimizerDriver.from_state_dict(resume_from.optimizer)
        if driver.algorithm != cfg.algorithm:
            raise ValueError("checkpoint algorithm does not match config")
        for layer in params:
            saved = resume_from.weights[layer.id]
            if saved.shape != layer.weights.shape:
                raise ValueError(f"checkpoint layer '{layer.id}' has the wrong shape")
            layer.weights[...] = saved
        start = resume_from.step
    else:
        driver = OptimizerDriver(cfg.algorithm, make_config(cfg.algorithm, cfg.hyperparams))
        start = 0

    k = cfg.accumulation_factor
    layer_ids = params.layer_ids
    records: list[MetricsRecord] = []
    trace: list[dict[str, np.ndarray]] | None = [] if record_weight_trace else None
    termination = "completed"
    start_ns = time.monotonic_ns()
    accum = np.zeros_like(params.grad) if k > 1 else None

    t = start
    for t in range(start, cfg.total_steps):
        if stop_after is not None and t >= stop_after:
            termination = "checkpoint"
            break
        indices = _batch_indices(cfg.seed, t, problem.n_examples, cfg.batch_size * k)
        # overflow to inf/nan is the divergence signal, not an anomaly
        with np.errstate(over="ignore", invalid="ignore"):
            if k == 1:
                loss = problem.eval_grad(params, indices)
            else:
                loss_sum = 0.0
                accum[...] = 0.0
                for j in range(k):
                    batch = None if indices is None else indices[j * cfg.batch_size : (j + 1) * cfg.batch_size]
                    loss_sum += problem.eval_grad(params, batch)
                    accum += params.grad
                np.divide(accum, k, out=params.grad)
                loss = loss_sum / k
        if not (math.isfinite(loss) and np.isfinite(params.grad).all()):
            termination = "diverged"
            break

        lr_t = lr_at(cfg.schedule, t)
        will_log = (t % cfg.log_every == 0) or (t == cfg.total_steps - 1)
        if will_log or cfg.larc is not None:
            grad_norms = np.sqrt(l2_norm_sq(params.grad, params.offsets)).tolist()
        if cfg.larc is not None:
            w_norms = np.sqrt(l2_norm_sq(params.weights, params.offsets)).tolist()
            scales = [larc_scale(w_n, g_n, lr_t, cfg.larc) for w_n, g_n in zip(w_norms, grad_norms)]
            if any(scale != 1.0 for scale in scales):
                params.grad *= params.broadcast(scales, params.grad.dtype)

        driver.step(params, lr_t)

        if will_log:
            records.append(
                MetricsRecord(
                    step=t,
                    lr_effective=lr_t,
                    loss=loss,
                    grad_norms=dict(zip(layer_ids, grad_norms)),
                    second_moments=driver.second_moments(params),
                    wall_time_ns=time.monotonic_ns() - start_ns,
                )
            )
        if trace is not None:
            trace.append({layer.id: layer.weights.copy() for layer in params})

    final_weights = {layer.id: layer.weights.copy() for layer in params}
    checkpoint = None
    if termination == "checkpoint":
        checkpoint = Checkpoint(step=t, weights=final_weights, optimizer=driver.state_dict())
    return TrajectoryLog(
        config=cfg,
        records=records,
        final_weights=final_weights,
        termination=termination,
        checkpoint=checkpoint,
        weight_trace=trace,
    )


@dataclass
class GradCheckReport:
    problem_kind: str
    trials: int
    tolerance: float
    max_rel_error: dict[str, float]
    passed: bool


def grad_check(problem: Problem, seed: int, trials: int) -> GradCheckReport:
    """Compare analytic gradients against central finite differences at
    random parameter/batch draws; report the worst relative error per layer."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name, _ in problem.layer_layout()}
    for _ in range(trials):
        params = ModelParams(
            [ParameterLayer(name, rng.standard_normal(size)) for name, size in problem.layer_layout()]
        )
        if problem.n_examples is None:
            batch = None
        else:
            batch = rng.integers(0, problem.n_examples, size=min(16, problem.n_examples))
        problem.eval_grad(params, batch)
        analytic = {layer.id: layer.grad.copy() for layer in params}
        numeric = finite_diff_grad(problem, params, batch)
        for layer_id, approx in numeric.items():
            diff = math.sqrt(l2_norm_sq(analytic[layer_id] - approx))
            denom = max(math.sqrt(l2_norm_sq(approx)), 1e-12)
            worst[layer_id] = max(worst[layer_id], diff / denom)
    passed = all(err <= problem.fd_rtol for err in worst.values())
    return GradCheckReport(problem.kind, trials, problem.fd_rtol, worst, passed)


@dataclass
class ComparisonRow:
    label: str
    algorithm: str
    final_loss: float
    best_loss: float
    steps_to_threshold: int | None
    diverged: bool


def _dedupe_labels(labels: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for label in labels:
        seen[label] = seen.get(label, 0) + 1
        out.append(label if seen[label] == 1 else f"{label}#{seen[label]}")
    return out


def compare_runs(
    cfgs: list[RunConfig],
    labels: list[str] | None = None,
    loss_threshold: float | None = None,
) -> tuple[list[ComparisonRow], list[TrajectoryLog]]:
    """Train each config and tabulate final/best loss and steps-to-threshold.

    All configs must share the same problem and seed so rows are comparable;
    the problem is built once for all of them.  Row order follows the input
    order; duplicate optimizer tags get distinguishing labels.
    """
    if not cfgs:
        raise ValueError("no configs to compare")
    base = cfgs[0]
    for other in cfgs[1:]:
        if other.problem != base.problem or other.seed != base.seed:
            raise ValueError("mismatched problems: compared runs must share problem and seed")
    if labels is None:
        labels = [cfg.algorithm for cfg in cfgs]
    labels = _dedupe_labels(list(labels))
    for cfg in cfgs:
        _validate_config(cfg)
    problem = build_problem(base.problem)
    rows = []
    logs = []
    for label, cfg in zip(labels, cfgs):
        log = _train(cfg, problem)
        losses = [rec.loss for rec in log.records]
        final_loss = losses[-1] if losses else float("nan")
        best_loss = min(losses) if losses else float("nan")
        steps = None
        if loss_threshold is not None:
            for rec in log.records:
                if rec.loss <= loss_threshold:
                    steps = rec.step
                    break
        rows.append(
            ComparisonRow(label, cfg.algorithm, final_loss, best_loss, steps, log.termination == "diverged")
        )
        logs.append(log)
    return rows, logs


@dataclass
class SweepRow:
    lr: float
    final_loss: float
    best_loss: float
    diverged: bool


def lr_sweep(cfg: RunConfig, lrs: list[float]) -> tuple[list[SweepRow], list[TrajectoryLog]]:
    """Train one run per base learning rate on one built problem;
    divergence is a row flag, not an error, so sweeps can map the stable
    region."""
    if not lrs:
        raise ValueError("empty learning-rate grid")
    _validate_config(cfg)
    problem = build_problem(cfg.problem)
    rows = []
    logs = []
    for lr in lrs:
        sched = replace(cfg.schedule, base_lr=lr)
        log = _train(replace(cfg, schedule=sched), problem)
        losses = [rec.loss for rec in log.records]
        rows.append(
            SweepRow(
                lr=lr,
                final_loss=losses[-1] if losses else float("nan"),
                best_loss=min(losses) if losses else float("nan"),
                diverged=log.termination == "diverged",
            )
        )
        logs.append(log)
    return rows, logs


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def log_to_jsonl(log: TrajectoryLog, include_timing: bool = False) -> str:
    """One JSON object per line: config header, then records, then the
    final-weights/termination footer.

    ``wall_time_ns`` is emitted only when ``include_timing`` is set, so the
    default serialization is byte-reproducible for identical configs.
    """
    lines = [_dumps({"config": log.config.to_dict()})]
    for rec in log.records:
        doc = {
            "step": rec.step,
            "lr_effective": rec.lr_effective,
            "loss": rec.loss,
            "grad_norms": rec.grad_norms,
            "second_moments": rec.second_moments,
        }
        if include_timing:
            doc["wall_time_ns"] = rec.wall_time_ns
        lines.append(_dumps(doc))
    lines.append(
        _dumps(
            {
                "final_weights": {k: v.tolist() for k, v in log.final_weights.items()},
                "termination": log.termination,
            }
        )
    )
    return "\n".join(lines) + "\n"


def log_to_csv(log: TrajectoryLog, include_timing: bool = False) -> str:
    """Flat CSV: a ``# config:`` echo line, then columns
    step,lr_effective,loss,grad_norm_<layer>...,v_<layer>... in layer order.

    Second-moment columns appear only for optimizers that track one; cells
    for layers not yet initialized are empty.
    """
    layer_ids = list(log.final_weights.keys())
    has_v = any(rec.second_moments is not None for rec in log.records)
    header = ["step", "lr_effective", "loss"]
    header += [f"grad_norm_{lid}" for lid in layer_ids]
    if has_v:
        header += [f"v_{lid}" for lid in layer_ids]
    if include_timing:
        header.append("wall_time_ns")
    lines = ["# config: " + _dumps(log.config.to_dict()), ",".join(header)]
    for rec in log.records:
        row = [str(rec.step), repr(rec.lr_effective), repr(rec.loss)]
        row += [_fmt(rec.grad_norms.get(lid)) for lid in layer_ids]
        if has_v:
            sm = rec.second_moments or {}
            row += [_fmt(sm.get(lid)) for lid in layer_ids]
        if include_timing:
            row.append(str(rec.wall_time_ns))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def comparison_to_csv(rows: list[ComparisonRow]) -> str:
    lines = ["label,algorithm,final_loss,best_loss,steps_to_threshold,diverged"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row.label,
                    row.algorithm,
                    _fmt(row.final_loss),
                    _fmt(row.best_loss),
                    _fmt(row.steps_to_threshold),
                    _fmt(row.diverged),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = ["lr,final_loss,best_loss,diverged"]
    for row in rows:
        lines.append(
            ",".join([_fmt(row.lr), _fmt(row.final_loss), _fmt(row.best_loss), _fmt(row.diverged)])
        )
    return "\n".join(lines) + "\n"


def checkpoint_to_dict(ckpt: Checkpoint) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "step": ckpt.step,
        "weights": {k: v.tolist() for k, v in ckpt.weights.items()},
        "optimizer": ckpt.optimizer,
    }


def checkpoint_from_dict(doc: dict) -> Checkpoint:
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {doc.get('format_version')}")
    return Checkpoint(
        step=doc["step"],
        weights={k: np.asarray(v, dtype=np.float64) for k, v in doc["weights"].items()},
        optimizer=doc["optimizer"],
    )
