"""Command-line front end: run, compare, sweep, and gradcheck subcommands.

Config files are JSON trees (documented in the README); unknown keys are
errors so hyperparameter typos cannot silently fall back to defaults.
Precedence is flags > file > defaults, and the effective config is echoed
into every output file header.

Exit codes: 0 success, 1 usage/config error, 2 divergence (run only).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import harness, problems
from .harness import ProblemSpec, RunConfig
from .optim import make_config
from .params import checked, checked_section
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

# representative instances for `gradcheck <tag>`
_GRADCHECK_OPTIONS = {
    "quadratic": {"dim": 4},
    "rosenbrock": {},
    "logreg": {"task": "two-gaussians", "size": 64, "dim": 3},
    "mlp": {"task": "multiclass-blobs", "size": 64, "dim": 3, "n_classes": 3, "hidden": 8},
}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")


def _require(tree: dict, key: str, where: str):
    if key not in tree:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return tree[key]


def _build(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ``ValueError`` reported as a
    ``ConfigError`` in ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{err} (in {where})") from None


def _parse_problem(section, where="problem") -> ProblemSpec:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    options = dict(section)
    _require(options, "kind", where)
    kind, gradient_scale = options.pop("kind"), options.pop("gradient_scale", 1.0)
    return _build(where, ProblemSpec, kind, options, gradient_scale)


def _parse_optimizer(section, where="optimizer") -> tuple[str, dict]:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    section = dict(section)
    algorithm = _require(section, "algorithm", where)
    section.pop("algorithm")
    _parse_section(type(_build(where, make_config, algorithm)), section, where)
    return algorithm, section


def _parse_section(cls, section, where: str, **fixed):
    """Build dataclass ``cls`` from a config object keyed by its field names
    (those in ``fixed`` excepted); absent keys take the field defaults."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    keys = {f.name for f in fields(cls)} - fixed.keys()
    _check_keys(section, keys, where)
    for f in fields(cls):
        if f.name in keys and f.default is MISSING:
            _require(section, f.name, where)
    return _build(where, cls, **section, **fixed)


def _parse_common(tree: dict) -> dict:
    total_steps = _require(tree, "total_steps", "config")
    larc = tree.get("larc")
    return {
        "problem": _parse_problem(_require(tree, "problem", "config")),
        "schedule": _parse_section(
            ScheduleSpec, _require(tree, "schedule", "config"), "schedule", total_steps=total_steps
        ),
        "larc": None if larc is None else _parse_section(LarcConfig, larc, "larc"),
        **{key: tree[key] for key in _RUN_SCALARS if key in tree},
    }


def parse_run_config(tree: dict) -> RunConfig:
    _check_keys(tree, _RUN_KEYS, "config")
    common = _parse_common(tree)
    algorithm, hyperparams = _parse_optimizer(_require(tree, "optimizer", "config"))
    return _build("config", RunConfig, algorithm=algorithm, hyperparams=hyperparams, **common)


def parse_compare_config(tree: dict) -> tuple[list[RunConfig], list[str], float | None]:
    _check_keys(tree, _COMPARE_KEYS, "config")
    common = _parse_common(tree)
    entries = _require(tree, "optimizers", "config")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'optimizers' must be a non-empty list")
    cfgs = []
    labels = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"optimizers[{i}] must be an object")
        entry = dict(entry)
        where = f"optimizers[{i}]"
        label = entry.pop("label", None)
        base_lr = entry.pop("base_lr", None)
        algorithm, hyperparams = _parse_optimizer(entry, where=where)
        fields = dict(common)
        if base_lr is not None:
            fields["schedule"] = _build(where, replace, fields["schedule"], base_lr=base_lr)
        cfgs.append(_build("config", RunConfig, algorithm=algorithm, hyperparams=hyperparams, **fields))
        labels.append(algorithm if label is None else _build(where, checked, "label", str, label))
    threshold = _build("config", checked, "loss_threshold", float | None, tree.get("loss_threshold"))
    return cfgs, labels, threshold


def parse_sweep_config(tree: dict) -> tuple[RunConfig, list[float]]:
    _check_keys(tree, _SWEEP_KEYS, "config")
    run_tree = {k: v for k, v in tree.items() if k != "sweep"}
    cfg = parse_run_config(run_tree)
    section = _require(tree, "sweep", "config")
    if not isinstance(section, dict):
        raise ConfigError("sweep must be an object")
    sweep = _build("sweep", checked_section, _SWEEP_SECTION, section, "sweep")
    if "lr_grid" in sweep:
        grid = sweep["lr_grid"]
        key = "lr_grid"
    else:
        for key in ("lr_min", "lr_max", "points"):
            _require(sweep, key, "sweep")
        space = np.geomspace if sweep.get("spacing", "log") == "log" else np.linspace
        grid = space(sweep["lr_min"], sweep["lr_max"], sweep["points"]).tolist()
        key = "lr_min/lr_max"
    if not grid:
        raise ConfigError("empty learning-rate grid")
    for lr in grid:  # each point is a base rate of the run's schedule
        _build(f"{key} of sweep", replace, cfg.schedule, base_lr=lr)
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
