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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, problems
from .harness import ProblemSpec, RunConfig
from .optim import ALGORITHMS, make_config
from .schedule import LarcConfig, ScheduleSpec

__all__ = ["main", "entrypoint", "ConfigError"]


class ConfigError(ValueError):
    pass


_RUN_KEYS = {
    "problem",
    "optimizer",
    "schedule",
    "larc",
    "batch_size",
    "accumulation_factor",
    "total_steps",
    "seed",
    "log_every",
}
_COMPARE_KEYS = (_RUN_KEYS - {"optimizer"}) | {"optimizers", "loss_threshold"}
_SWEEP_KEYS = _RUN_KEYS | {"sweep"}
_SCHEDULE_KEYS = {"base_lr", "family", "power", "warmup_steps", "min_lr"}
_LARC_KEYS = {"trust_coefficient", "clip", "eps_div"}
_SWEEP_SECTION_KEYS = {"lr_grid", "lr_min", "lr_max", "points", "spacing"}

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


def _parse_problem(section, where="problem") -> ProblemSpec:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    section = dict(section)
    kind = _require(section, "kind", where)
    section.pop("kind")
    gradient_scale = section.pop("gradient_scale", 1.0)
    try:
        problems.validate_options(kind, section)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return ProblemSpec(kind=kind, options=section, gradient_scale=gradient_scale)


def _parse_optimizer(section, where="optimizer") -> tuple[str, dict]:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    section = dict(section)
    algorithm = _require(section, "algorithm", where)
    section.pop("algorithm")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm '{algorithm}' in {where}")
    try:
        make_config(algorithm, section)  # fail-closed validation of keys and values
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{err} (in {where})") from None
    return algorithm, section


def _parse_schedule(section, total_steps: int) -> ScheduleSpec:
    if not isinstance(section, dict):
        raise ConfigError("schedule must be an object")
    _check_keys(section, _SCHEDULE_KEYS, "schedule")
    base_lr = _require(section, "base_lr", "schedule")
    try:
        return ScheduleSpec(
            base_lr=base_lr,
            total_steps=total_steps,
            family=section.get("family", "cosine"),
            power=section.get("power", 1.0),
            warmup_steps=section.get("warmup_steps", 0),
            min_lr=section.get("min_lr", 0.0),
        )
    except ValueError as err:
        raise ConfigError(f"{err} (in schedule)") from None


def _parse_larc(section) -> LarcConfig | None:
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("larc must be an object")
    _check_keys(section, _LARC_KEYS, "larc")
    try:
        return LarcConfig(
            trust_coefficient=section.get("trust_coefficient", 0.001),
            clip=section.get("clip", True),
            eps_div=section.get("eps_div", 1e-8),
        )
    except ValueError as err:
        raise ConfigError(f"{err} (in larc)") from None


def _parse_common(tree: dict) -> dict:
    total_steps = _require(tree, "total_steps", "config")
    return {
        "problem": _parse_problem(_require(tree, "problem", "config")),
        "schedule": _parse_schedule(_require(tree, "schedule", "config"), total_steps),
        "larc": _parse_larc(tree.get("larc")),
        "batch_size": tree.get("batch_size", 32),
        "accumulation_factor": tree.get("accumulation_factor", 1),
        "total_steps": total_steps,
        "seed": tree.get("seed", 0),
        "log_every": tree.get("log_every", 10),
    }


def parse_run_config(tree: dict) -> RunConfig:
    _check_keys(tree, _RUN_KEYS, "config")
    common = _parse_common(tree)
    algorithm, hyperparams = _parse_optimizer(_require(tree, "optimizer", "config"))
    return RunConfig(algorithm=algorithm, hyperparams=hyperparams, **common)


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
        label = entry.pop("label", None)
        base_lr = entry.pop("base_lr", None)
        algorithm, hyperparams = _parse_optimizer(entry, where=f"optimizers[{i}]")
        fields = dict(common)
        if base_lr is not None:
            fields["schedule"] = replace(fields["schedule"], base_lr=base_lr)
        cfgs.append(RunConfig(algorithm=algorithm, hyperparams=hyperparams, **fields))
        labels.append(label if label is not None else algorithm)
    return cfgs, labels, tree.get("loss_threshold")


def parse_sweep_config(tree: dict) -> tuple[RunConfig, list[float]]:
    _check_keys(tree, _SWEEP_KEYS, "config")
    run_tree = {k: v for k, v in tree.items() if k != "sweep"}
    cfg = parse_run_config(run_tree)
    section = _require(tree, "sweep", "config")
    if not isinstance(section, dict):
        raise ConfigError("sweep must be an object")
    _check_keys(section, _SWEEP_SECTION_KEYS, "sweep")
    if "lr_grid" in section:
        grid = [float(x) for x in section["lr_grid"]]
    else:
        for key in ("lr_min", "lr_max", "points"):
            _require(section, key, "sweep")
        spacing = section.get("spacing", "log")
        if spacing not in ("log", "linear"):
            raise ConfigError(f"unknown spacing '{spacing}' in sweep")
        n = int(section["points"])
        if n < 1:
            raise ConfigError("sweep points must be >= 1")
        if spacing == "log":
            grid = list(np.geomspace(section["lr_min"], section["lr_max"], n))
        else:
            grid = list(np.linspace(section["lr_min"], section["lr_max"], n))
    if not grid:
        raise ConfigError("empty learning-rate grid")
    return cfg, [float(x) for x in grid]


def _load_tree(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            tree = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
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
        except json.JSONDecodeError:
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


def _echo_header(tree: dict) -> str:
    return "# config: " + json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n"


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
    rows, logs = harness.compare_runs(cfgs, labels=labels, loss_threshold=threshold)
    out = Path(args.out)
    _write(out / "comparison.csv", _echo_header(tree) + harness.comparison_to_csv(rows))
    for row, log in zip(rows, logs):
        name = f"trajectory_{_safe_label(row.label)}.{args.format}"
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
    _write(out / "sweep.csv", _echo_header(tree) + harness.sweep_to_csv(rows))
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} points)")
    return 0


def _cmd_gradcheck(args) -> int:
    try:
        problem = problems.build(args.problem, dict(_GRADCHECK_OPTIONS.get(args.problem, {})))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    report = harness.grad_check(problem, args.seed if args.seed is not None else 0, args.trials)
    for layer_id, err in report.max_rel_error.items():
        print(f"layer {layer_id}: max_rel_err={err:.3e} (tolerance {report.tolerance:.0e})")
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {report.problem_kind}: {status} ({report.trials} trials)")
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="novobench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_config=True):
        if with_config:
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
