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
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from . import problems as problems_mod
from .optim import OptimizerDriver, _bind, make_config
from .params import Config, ModelParams, ParameterLayer, checked, checked_keys, checked_vector, l2_norm_sq
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


# one encoder for every document; json.dumps would build one per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass
class ProblemSpec(Config):
    """Declarative problem description; ``gradient_scale`` wraps the built
    problem so its gradient stream is multiplied by a positive constant."""

    kind: str
    options: dict = field(default_factory=dict)
    gradient_scale: float = field(default=1.0, metadata={"above": 0})

    def __post_init__(self):
        super().__post_init__()
        self.options = problems_mod.validate_options(self.kind, self.options)


def build_problem(spec: ProblemSpec) -> Problem:
    problem = problems_mod.build(spec.kind, spec.options)
    if spec.gradient_scale != 1.0:
        problem = GradientScaledProblem(problem, spec.gradient_scale)
    return problem


@dataclass
class RunConfig(Config):
    """One training run; ``hyperparams`` are checked as the algorithm's
    config (see :func:`~novobench.optim.make_config`) and kept as checked."""

    problem: ProblemSpec
    algorithm: str
    schedule: ScheduleSpec
    hyperparams: dict = field(default_factory=dict)
    larc: LarcConfig | None = None
    batch_size: int = field(default=32, metadata={"min": 1})
    accumulation_factor: int = field(default=1, metadata={"min": 1})
    total_steps: int = field(default=100, metadata={"min": 1})
    seed: int = field(default=0, metadata={"min": 0})
    log_every: int = field(default=10, metadata={"min": 1})

    def __post_init__(self):
        super().__post_init__()
        if self.schedule.total_steps != self.total_steps:
            raise ValueError("schedule.total_steps must equal the run's total_steps")
        optimizer = make_config(self.algorithm, self.hyperparams)
        self.hyperparams = {key: getattr(optimizer, key) for key in self.hyperparams}

    def to_dict(self) -> dict:
        """The run's fields as a tree, ``algorithm`` and ``hyperparams`` joined in one ``optimizer``."""
        tree = asdict(self)
        tree["optimizer"] = {"algorithm": tree.pop("algorithm"), **tree.pop("hyperparams")}
        return tree


@dataclass
class MetricsRecord:
    """One logged step; its fields, in order, are both trajectory writers'
    schema.  A ``prefix`` field maps layer ids to values (one CSV column per
    layer), an ``optional`` one has columns only when some record holds it,
    and a ``timing`` one is written only with ``include_timing``."""

    step: int
    lr_effective: float
    loss: float
    grad_norms: dict[str, float] = field(metadata={"prefix": "grad_norm_"})
    second_moments: dict[str, float] | None = field(metadata={"prefix": "v_", "optional": True})
    wall_time_ns: int = field(metadata={"timing": True})


@dataclass
class Checkpoint(Config):
    step: int = field(metadata={"min": 0})
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
    stop_after = checked("stop_after", int | None, stop_after, {"min": 0})
    resume_from = checked("resume_from", Checkpoint | None, resume_from)
    record_weight_trace = checked("record_weight_trace", bool, record_weight_trace)
    if resume_from is not None and resume_from.step >= cfg.total_steps:
        raise ValueError(f"checkpoint step {resume_from.step} is not below total_steps {cfg.total_steps}")
    problem = build_problem(cfg.problem)
    row = _Row(cfg, problem, stop_after, resume_from, record_weight_trace)
    return _run_grid(problem, [row])[0]


class _Row:
    """One run of a grid: its config, model, optimizer and log so far."""

    def __init__(self, cfg, problem, stop_after=None, resume_from=None, record_weight_trace=False):
        self.cfg = cfg
        self.stop_after = stop_after
        self.params = problem.init_params(np.random.default_rng([cfg.seed, _INIT_STREAM, 0]))
        self.driver = OptimizerDriver(cfg.algorithm, make_config(cfg.algorithm, cfg.hyperparams))
        self.start = 0
        if resume_from is not None:
            resumed = OptimizerDriver.from_state_dict(resume_from.optimizer)
            config, saved = ({"algorithm": d.algorithm, **asdict(d.cfg)} for d in (self.driver, resumed))
            if differ := [(key, saved.get(key), value) for key, value in config.items() if value != saved.get(key)]:
                raise ValueError("checkpoint optimizer %s %r does not match the config's %r" % differ[0])
            self.driver, self.start = resumed, resume_from.step
            self.params.weights[...] = self.params.flatten(resume_from.weights)
            _bind(self.driver.state, self.params)  # the state's layout is checked here, not at its first step
        self.records: list[MetricsRecord] = []
        self.trace: list[dict[str, np.ndarray]] | None = [] if record_weight_trace else None
        self.termination: str | None = None  # set when the row stops
        self.lr_t = 0.0  # the rate of the step being taken
        self.checkpoint_step: int | None = None

    def ends_before(self, t: int) -> bool:
        """Ends the row before step ``t`` if it is complete or due for its
        checkpoint; returns whether it ended."""
        if t >= self.cfg.total_steps:
            self.termination = "completed"
        elif self.stop_after is not None and t >= self.stop_after:
            self.termination, self.checkpoint_step = "checkpoint", t
        return self.termination is not None

    def prepare(self, t: int, loss: float, grad_norms: list[float], w_norms, sums, squares) -> None:
        """Set ``lr_t``, step ``t``'s rate, and apply LARC to the averaged gradient in
        ``params.grad`` (layer norms ``grad_norms``; the weights' ``w_norms`` for LARC),
        which its row ``sums`` of the step's sums of squares prove finite by a finite
        total; a LARC change squares it into ``squares`` (the row of their buffer) and
        writes its sums over ``sums``.  A non-finite loss, gradient, rate (warmup's can
        overflow) or LARC-scaled gradient ends the row "diverged" instead."""
        cfg, params = self.cfg, self.params
        finite = math.isfinite(sum(sums.tolist())) or np.isfinite(params.grad).all()  # squares may overflow
        if not (finite and math.isfinite(loss) and (lr_t := lr_at(cfg.schedule, t)) < math.inf):
            self.termination = "diverged"
            return
        self.lr_t = lr_t
        if cfg.larc is not None:
            scales = [larc_scale(w_n, g_n, lr_t, cfg.larc) for w_n, g_n in zip(w_norms, grad_norms)]
            if any(scale != 1.0 for scale in scales):
                params.grad *= params.broadcast(scales, params.grad.dtype)
                sums[...] = l2_norm_sq(params.grad, params.offsets, out=squares)
                if not (math.isfinite(sum(sums.tolist())) or np.isfinite(params.grad).all()):  # the trust ratio overflowed
                    self.termination = "diverged"

    def record(self, t: int, loss: float, grad_norms: list[float], start_ns: int) -> None:
        """Log step ``t``, once it is taken, if due (``grad_norms`` holds the
        gradient's layer norms), and keep its weights when traced."""
        if t % self.cfg.log_every == 0 or t == self.cfg.total_steps - 1:
            self.records.append(
                MetricsRecord(
                    step=t,
                    lr_effective=self.lr_t,
                    loss=loss,
                    grad_norms=dict(zip(self.params.layer_ids, grad_norms)),
                    second_moments=self.driver.second_moments(self.params),
                    wall_time_ns=time.monotonic_ns() - start_ns,
                )
            )
        if self.trace is not None:
            self.trace.append({layer.id: layer.weights.copy() for layer in self.params})

    def log(self) -> TrajectoryLog:
        final_weights = {layer.id: layer.weights.copy() for layer in self.params}
        checkpoint = None
        if self.termination == "checkpoint":
            checkpoint = Checkpoint(step=self.checkpoint_step, weights=final_weights, optimizer=self.driver.state_dict())
        return TrajectoryLog(
            config=self.cfg,
            records=self.records,
            final_weights=final_weights,
            termination=self.termination,
            checkpoint=checkpoint,
            weight_trace=self.trace,
        )


def _run_grid(problem: Problem, rows: list[_Row]) -> list[TrajectoryLog]:
    """Train ``rows`` on ``problem`` (built from their shared spec) and
    return their logs in order.

    Rows that share seed, batch size and accumulation factor form a group
    that runs in lockstep from its first row's start step (only a one-row
    grid resumes), in one row-stacked model.  Each step takes one batch
    draw and one ``eval_grad`` over all of the step's micro-batches and the
    group's rows, and one ``l2_norm_sq`` call whose layer sums give every
    row's finiteness, logged norms and step (LARC adds one for the weights
    and, per row whose gradient it changed, one that replaces the row's
    sums; all square into one float64 buffer, made for the group's first
    stack, whose leading rows the later ones use); then each row's
    divergence check, schedule and LARC, one optimizer step per stack of
    rows that share an algorithm and optimizer config, and each row's
    record.  A row that stops (completed, checkpointed or diverged) leaves
    the stack; the others go on.  Every row's log is bit for bit that of
    its run alone; ``wall_time_ns`` counts from the grid's start.
    """
    start_ns = time.monotonic_ns()
    groups: dict[tuple, list[_Row]] = {}
    for row in rows:
        groups.setdefault((row.cfg.seed, row.cfg.batch_size, row.cfg.accumulation_factor), []).append(row)
    # an overflow to inf or NaN in a loss, a gradient, a LARC scale or a float32
    # step signals divergence, and the next finiteness check acts on it
    with np.errstate(over="ignore", invalid="ignore"):
        for group in groups.values():
            _run_group(problem, group, start_ns)
    return [row.log() for row in rows]


def _run_group(problem: Problem, rows: list[_Row], start_ns: int) -> None:
    cfg = rows[0].cfg
    size, k = cfg.batch_size, cfg.accumulation_factor
    # a batchless problem is evaluated once per step, and its loss and gradient
    # added k times: the sums of k evaluations, since eval is deterministic
    slots = k if problem.n_examples is not None else 1
    active: list[_Row] = []
    t = rows[0].start
    while True:
        running = [row for row in rows if row.termination is None and not row.ends_before(t)]
        if not running:
            break
        if len(running) != len(active):  # the stack holds exactly the running rows
            model, stacks = _stack_group(running)
            squares = squares[: len(running)] if active else np.empty(model.grad.shape)  # the norms' squares
            active = [row for members, _, _, _ in stacks for row in members]
            larc = any(row.cfg.larc is not None for row in active)
            # what the eval sees: weights (R, 1, N) and one gradient slot per
            # micro-batch, (R, slots, N); with k == 1 that slot is model.grad
            shape = (len(active), slots, model.grad.shape[-1])
            view = model.view(model.weights[:, None], model.grad[:, None] if k == 1 else np.empty(shape, model.grad.dtype))
        indices = _batch_indices(cfg.seed, t, problem.n_examples, size * k)
        losses = problem.eval_grad(view, None if indices is None else indices.reshape(k, size))
        if k == 1:
            losses = losses[:, 0]
        else:
            # summed from zero in micro-batch order, as k separate evals were
            total = 0.0
            model.grad[...] = 0.0
            for j in range(k):
                total += losses[:, j % slots]
                model.grad += view.grad[:, j % slots]
            model.grad /= k
            losses = total / k
        sums = l2_norm_sq(model.grad, model.offsets, out=squares)
        grad_norms = np.sqrt(sums).tolist()
        if larc:
            w_norms = np.sqrt(l2_norm_sq(model.weights, model.offsets, out=squares)).tolist()
        losses = losses.tolist()
        for i, (row, loss, layer_norms) in enumerate(zip(active, losses, grad_norms)):
            row.prepare(t, loss, layer_norms, w_norms[i] if larc else None, sums[i], squares[i])
        for members, at, part, driver in stacks:
            if driver is not None and all(row.termination is None for row in members):
                driver.step(part, [row.lr_t for row in members], sums[at])
            else:  # one row, or diverged rows, which leave the stack at the next step
                for row, row_sums in zip(members, sums[at]):
                    if row.termination is None:
                        row.driver.step(row.params, row.lr_t, row_sums)
        for row, loss, layer_norms in zip(active, losses, grad_norms):
            if row.termination is None:
                row.record(t, loss, layer_norms, start_ns)
        t += 1


def _stack_group(rows: list[_Row]):
    """A group's running ``rows`` as its row-stacked model, in which rows that
    share an algorithm and an optimizer config sit together, and for each
    such stack its rows, their slice of the model's rows and, for more than
    one row, a view of that slice and their stacked driver."""
    same: dict[tuple, list[_Row]] = {}
    for row in rows:
        same.setdefault((row.driver.algorithm, row.driver.cfg), []).append(row)
    model = ModelParams.stack([row.params for members in same.values() for row in members])
    stacks, start = [], 0
    for members in same.values():
        at, part, driver = slice(start, start + len(members)), None, None
        if len(members) > 1:
            part = model.view(model.weights[at], model.grad[at])
            driver = OptimizerDriver.stack([row.driver for row in members], [row.params for row in members], part)
        stacks.append((members, at, part, driver))
        start += len(members)
    return model, stacks


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
    trials = checked("trials", int, trials, {"min": 1})
    rng = np.random.default_rng(checked("seed", int, seed, {"min": 0}))
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


def _loss_summary(log: TrajectoryLog) -> tuple[float, float]:
    """Final and best logged loss of a run; NaN for both when nothing was logged."""
    losses = [rec.loss for rec in log.records]
    if not losses:
        return float("nan"), float("nan")
    return losses[-1], min(losses)


def _dedupe_labels(labels: list[str]) -> list[str]:
    """``labels`` with each repeat renamed ``label#n``, n = 2, 3, ..., skipping
    any name another label already has, so every label is unique."""
    taken = set(labels)
    seen = set()
    out = []
    for label in labels:
        if label in seen:
            n = 2
            while f"{label}#{n}" in taken:
                n += 1
            label = f"{label}#{n}"
            taken.add(label)
        seen.add(label)
        out.append(label)
    return out


def compare_runs(
    cfgs: list[RunConfig],
    labels: list[str] | None = None,
    loss_threshold: float | None = None,
) -> tuple[list[ComparisonRow], list[TrajectoryLog]]:
    """Train each config and tabulate final/best loss and steps-to-threshold.

    All configs must share the same problem and seed so rows are comparable;
    the problem is built once for all of them.  Row order follows the input
    order; ``labels``, if given, holds one label per config, and duplicate
    optimizer tags get distinguishing labels.
    """
    if not cfgs:
        raise ValueError("no configs to compare")
    base = cfgs[0]
    for other in cfgs[1:]:
        if other.problem != base.problem or other.seed != base.seed:
            raise ValueError("mismatched problems: compared runs must share problem and seed")
    if labels is None:
        labels = [cfg.algorithm for cfg in cfgs]
    elif len(labels) != len(cfgs):
        raise ValueError(f"labels has {len(labels)} entries for {len(cfgs)} configs")
    labels = _dedupe_labels([checked("label", str, label) for label in labels])
    loss_threshold = checked("loss_threshold", float | None, loss_threshold)
    problem = build_problem(base.problem)
    logs = _run_grid(problem, [_Row(cfg, problem) for cfg in cfgs])
    rows = []
    for label, cfg, log in zip(labels, cfgs, logs):
        final_loss, best_loss = _loss_summary(log)
        steps = None
        if loss_threshold is not None:
            for rec in log.records:
                if rec.loss <= loss_threshold:
                    steps = rec.step
                    break
        rows.append(
            ComparisonRow(label, cfg.algorithm, final_loss, best_loss, steps, log.termination == "diverged")
        )
    return rows, logs


@dataclass
class SweepRow:
    lr: float
    final_loss: float
    best_loss: float
    diverged: bool


def lr_sweep(cfg: RunConfig, lrs) -> tuple[list[SweepRow], list[TrajectoryLog]]:
    """Train one run per base learning rate of ``lrs`` (any sequence of
    reals), in lockstep on one built problem; divergence is a row flag, not
    an error, so sweeps can map the stable region."""
    lrs = checked("lrs", list, lrs)
    if not lrs:
        raise ValueError("empty learning-rate grid")
    cfgs = [replace(cfg, schedule=replace(cfg.schedule, base_lr=lr)) for lr in lrs]
    problem = build_problem(cfg.problem)
    logs = _run_grid(problem, [_Row(run, problem) for run in cfgs])
    rows = [SweepRow(lr, *_loss_summary(log), diverged=log.termination == "diverged") for lr, log in zip(lrs, logs)]
    return rows, logs


def _cell(x) -> str:
    """One CSV cell, a numpy scalar written as its Python value; a string
    holding a comma, a quote or a line break is quoted as in RFC 4180 (a
    number's text never holds one)."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, str):
        if any(c in x for c in ',"\r\n'):
            return '"' + x.replace('"', '""') + '"'
        return x
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _csv(header: list[str], columns) -> str:
    """The CSV lines of ``header`` and of the rows of ``columns`` (value sequences)."""
    # floats and ints, most cells, are their repr without a call, a column at a time
    cells = [[repr(x) if type(x) in (float, int) else _cell(x) for x in column] for column in columns]
    lines = [",".join(map(_cell, header)), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def _config_line(config: dict) -> str:
    return "# config: " + _dumps(config) + "\n"


def _record_fields(include_timing: bool) -> list:
    return [f for f in fields(MetricsRecord) if include_timing or not f.metadata.get("timing")]


def log_to_jsonl(log: TrajectoryLog, include_timing: bool = False) -> str:
    """One JSON object per line: config header, then one record per logged
    step keyed by the :class:`MetricsRecord` field names, then the
    final-weights/termination footer.

    ``wall_time_ns`` is emitted only when ``include_timing`` is set, so the
    default serialization is byte-reproducible for identical configs.
    """
    names = [f.name for f in _record_fields(include_timing)]
    lines = [_dumps({"config": log.config.to_dict()})]
    lines += [_dumps({name: getattr(rec, name) for name in names}) for rec in log.records]
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
    """A ``# config:`` echo line, then the :class:`MetricsRecord` fields as
    columns step,lr_effective,loss,grad_norm_<layer>...,v_<layer>... (and
    ``wall_time_ns`` with ``include_timing``), written as the tables are.

    Second-moment columns appear only when some record has them; cells
    for layers not yet initialized are empty.
    """
    layer_ids = list(log.final_weights.keys())
    header = []
    columns = []  # the cells of each column, top to bottom
    for f in _record_fields(include_timing):
        values = [getattr(rec, f.name) for rec in log.records]
        if f.metadata.get("optional") and all(value is None for value in values):
            continue
        prefix = f.metadata.get("prefix")
        if prefix is None:
            header.append(f.name)
            columns.append(values)
        else:
            header += [prefix + lid for lid in layer_ids]
            columns += [[(value or {}).get(lid) for value in values] for lid in layer_ids]
    return _config_line(log.config.to_dict()) + _csv(header, columns)


def comparison_to_csv(rows: list[ComparisonRow]) -> str:
    return _csv([f.name for f in fields(ComparisonRow)], zip(*map(astuple, rows)))


def sweep_to_csv(rows: list[SweepRow]) -> str:
    return _csv([f.name for f in fields(SweepRow)], zip(*map(astuple, rows)))


def checkpoint_to_dict(ckpt: Checkpoint) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "step": ckpt.step,
        "weights": {k: v.tolist() for k, v in ckpt.weights.items()},
        "optimizer": ckpt.optimizer,
    }


def checkpoint_from_dict(doc: dict) -> Checkpoint:
    """Inverse of :func:`checkpoint_to_dict`: after its ``format_version``, the
    document is read as :meth:`Checkpoint.from_dict` reads it, and each of its
    weights as a vector (see :func:`~novobench.params.checked_vector`)."""
    doc = dict(checked_keys(doc, "checkpoint", None, ["format_version"]))
    version = checked("format_version", int, doc.pop("format_version"))
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {version}")
    ckpt = Checkpoint.from_dict(doc, "checkpoint")
    ckpt.weights = {layer: checked_vector(f"weights of layer '{layer}'", w) for layer, w in ckpt.weights.items()}
    return ckpt
