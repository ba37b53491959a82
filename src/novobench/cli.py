"""Command-line front end: run, compare, sweep, and gradcheck subcommands.

Config files are JSON trees (documented in the README); unknown keys are
errors so hyperparameter typos cannot silently fall back to defaults.
Precedence is flags > file > defaults.  A trajectory's header echoes its
run's effective config, a table's the file's tree after the flags.

Exit codes: 0 success, 1 usage/config error, 2 divergence (run only).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, fields
from functools import wraps
from pathlib import Path

import numpy as np

from . import harness, problems
from .harness import ProblemSpec, RunConfig
from .optim import make_config
from .params import checked, checked_keys, checked_section
from .schedule import LarcConfig, ScheduleSpec

__all__ = ["main", "entrypoint", "ConfigError"]


class ConfigError(ValueError):
    pass


# the file names the optimizer and its hyperparameters in one "optimizer" object
_RUN_KEYS = ({f.name for f in fields(RunConfig)} - {"algorithm", "hyperparams"}) | {"optimizer"}
_RUN_SCALARS = _RUN_KEYS - {"problem", "schedule", "larc", "optimizer"}
_COMPARE_KEYS = (_RUN_KEYS - {"optimizer"}) | {"optimizers", "loss_threshold"}
_SWEEP_KEYS = _RUN_KEYS | {"sweep"}
_MAX_SWEEP_POINTS = 10_000  # each point is a training run; more is a typo, not a grid to allocate
# the sweep section has no dataclass; each key's type and bounds (each grid
# point is then checked as the schedule's base_lr)
_SWEEP_SECTION = {
    "lr_grid": (list, {}),
    "lr_min": (float, {"above": 0}),
    "lr_max": (float, {"above": 0}),
    "points": (int, {"min": 1, "max": _MAX_SWEEP_POINTS}),
    "spacing": (str, {"choices": ("log", "linear")}),
}
# a sweep's grid is its lr_grid, or the range these keys describe
_SWEEP_RANGE = ("lr_min", "lr_max", "points", "spacing")

# representative instances for `gradcheck <tag>`
_GRADCHECK_OPTIONS = {
    "quadratic": {"dim": 4},
    "rosenbrock": {},
    "logreg": {"task": "two-gaussians", "size": 64, "dim": 3},
    "mlp": {"task": "multiclass-blobs", "size": 64, "dim": 3, "n_classes": 3, "hidden": 8},
}


def _config_errors(parse):
    """``parse`` with each ``ValueError`` it raises raised as a ``ConfigError``."""

    @wraps(parse)
    def parse_tree(tree):
        try:
            return parse(tree)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    return parse_tree


def _parse_common(tree: dict, keys: set[str], optimizer: str) -> dict:
    """The fields of the run a config tree of ``keys`` and its ``optimizer`` key
    describe, its algorithm and hyperparameters excepted."""
    tree = checked_keys(tree, "config", keys, ("problem", "schedule", "total_steps", optimizer))
    options = dict(checked_keys(tree["problem"], "problem", None, ("kind",)))
    kind, gradient_scale = options.pop("kind"), options.pop("gradient_scale", 1.0)
    larc = tree.get("larc")
    return {
        "problem": ProblemSpec(kind, options, gradient_scale),
        "schedule": ScheduleSpec.from_dict(tree["schedule"], "schedule", total_steps=tree["total_steps"]),
        "larc": None if larc is None else LarcConfig.from_dict(larc, "larc"),
        **{key: tree[key] for key in _RUN_SCALARS if key in tree},
    }


def _parse_optimizer(section: dict, where: str) -> dict:
    """The algorithm and hyperparameters of an optimizer object, checked as
    the algorithm's config."""
    hyperparams = dict(checked_keys(section, where, None, ("algorithm",)))
    algorithm = hyperparams.pop("algorithm")
    make_config(algorithm, hyperparams, where)
    return {"algorithm": algorithm, "hyperparams": hyperparams}


@_config_errors
def parse_run_config(tree: dict) -> RunConfig:
    common = _parse_common(tree, _RUN_KEYS, "optimizer")
    return RunConfig(**_parse_optimizer(tree["optimizer"], "optimizer"), **common)


@_config_errors
def parse_compare_config(tree: dict) -> tuple[list[RunConfig], list[str], float | None]:
    common = _parse_common(tree, _COMPARE_KEYS, "optimizers")
    entries = tree["optimizers"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'optimizers' must be a non-empty list")
    cfgs = []
    labels = []
    for i, entry in enumerate(entries):
        where = f"optimizers[{i}]"
        entry = dict(checked(where, dict, entry))
        given = {key: entry.pop(key) for key in ("label", "base_lr") if key in entry}
        optimizer = _parse_optimizer(entry, where)
        schedule = common["schedule"]
        if "base_lr" in given:
            schedule = ScheduleSpec.from_dict({**asdict(schedule), "base_lr": given["base_lr"]}, where)
        cfgs.append(RunConfig(**{**common, "schedule": schedule}, **optimizer))
        labels.append(checked(f"label of {where}", str, given.get("label", optimizer["algorithm"])))
    threshold = checked("loss_threshold", float | None, tree.get("loss_threshold"))
    return cfgs, labels, threshold


@_config_errors
def parse_sweep_config(tree: dict) -> tuple[RunConfig, list[float]]:
    tree = checked_keys(tree, "config", _SWEEP_KEYS, ("sweep",))
    cfg = parse_run_config({k: v for k, v in tree.items() if k != "sweep"})
    sweep = checked_section(_SWEEP_SECTION, tree["sweep"], "sweep")
    if "lr_grid" in sweep:
        if given := [key for key in _SWEEP_RANGE if key in sweep]:
            raise ValueError(f"sweep takes either 'lr_grid' or a range, got 'lr_grid' and '{given[0]}'")
        grid = sweep["lr_grid"]
        key = "lr_grid"
    else:
        checked_keys(sweep, "sweep", None, _SWEEP_RANGE[:3])
        space = np.geomspace if sweep.get("spacing", "log") == "log" else np.linspace
        grid = space(sweep["lr_min"], sweep["lr_max"], sweep["points"]).tolist()
        key = "lr_min/lr_max"
    if not grid:
        raise ValueError("empty learning-rate grid")
    for lr in grid:  # each point is a base rate of the run's schedule
        ScheduleSpec.from_dict({**asdict(cfg.schedule), "base_lr": lr}, f"{key} of sweep")
    return cfg, [float(x) for x in grid]


def _load_tree(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except ValueError as err:  # not JSON, not UTF-8, or an integer too long to convert
        raise ConfigError(f"malformed config {path}: {err}") from None
    if not isinstance(tree, dict):
        raise ConfigError("config root must be an object")
    return tree


def _apply_overrides(tree: dict, sets: list[str], seed: int | None) -> None:
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer too long to convert: the raw text
            value = raw
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    if seed is not None:
        tree["seed"] = seed


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _safe_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", label)


def _cmd_run(args) -> int:
    tree = _load_tree(args.config)
    _apply_overrides(tree, args.set, args.seed)
    cfg = parse_run_config(tree)
    log = harness.train(cfg)
    out = Path(args.out)
    if args.format == "csv":
        _write(out / "trajectory.csv", harness.log_to_csv(log))
    else:
        _write(out / "trajectory.jsonl", harness.log_to_jsonl(log))
    print(f"wrote {out / ('trajectory.' + args.format)}")
    if log.termination == "diverged":
        print("run diverged: non-finite loss or gradient", file=sys.stderr)
        return 2
    return 0


def _cmd_compare(args) -> int:
    tree = _load_tree(args.config)
    _apply_overrides(tree, args.set, args.seed)
    cfgs, labels, threshold = parse_compare_config(tree)
    files: dict[str, str] = {}  # trajectory file name -> row label
    for label in harness._dedupe_labels(labels):
        name = f"trajectory_{_safe_label(label)}.{args.format}"
        if name in files:
            raise ConfigError(f"labels '{files[name]}' and '{label}' map to one file name, {name}")
        files[name] = label
    rows, logs = harness.compare_runs(cfgs, labels=labels, loss_threshold=threshold)
    out = Path(args.out)
    _write(out / "comparison.csv", harness._config_line(tree) + harness.comparison_to_csv(rows))
    for name, log in zip(files, logs):
        text = harness.log_to_csv(log) if args.format == "csv" else harness.log_to_jsonl(log)
        _write(out / name, text)
    print(f"wrote {out / 'comparison.csv'} and {len(logs)} trajectory files")
    return 0


def _cmd_sweep(args) -> int:
    tree = _load_tree(args.config)
    _apply_overrides(tree, args.set, args.seed)
    cfg, grid = parse_sweep_config(tree)
    rows, _ = harness.lr_sweep(cfg, grid)
    out = Path(args.out)
    _write(out / "sweep.csv", harness._config_line(tree) + harness.sweep_to_csv(rows))
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} points)")
    return 0


def _cmd_gradcheck(args) -> int:
    problem = problems.build(args.problem, dict(_GRADCHECK_OPTIONS.get(args.problem, {})))
    report = harness.grad_check(problem, args.seed, args.trials)
    for layer_id, err in report.max_rel_error.items():
        print(f"layer {layer_id}: max_rel_err={err:.3e} (tolerance {report.tolerance:.0e})")
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {report.problem_kind}: {status} ({report.trials} trials)")
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="novobench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (dotted path, JSON value); repeatable",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_run = sub.add_parser("run", help="train one configuration and write its trajectory")
    add_common(p_run)
    p_cmp = sub.add_parser("compare", help="train several optimizers on one problem")
    add_common(p_cmp)
    p_swp = sub.add_parser("sweep", help="train across a learning-rate grid")
    add_common(p_swp)
    p_gc = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p_gc.add_argument("problem", help="problem tag (quadratic, rosenbrock, logreg, mlp)")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--trials", type=int, default=100)
    return parser


_COMMANDS = {"run": _cmd_run, "compare": _cmd_compare, "sweep": _cmd_sweep, "gradcheck": _cmd_gradcheck}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
