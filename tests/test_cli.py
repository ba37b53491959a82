import json
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from novobench import cli
from novobench.cli import ConfigError, main
from novobench.harness import ProblemSpec, RunConfig, compare_runs, log_to_csv, log_to_jsonl, lr_sweep, train
from novobench.optim import ALGORITHMS, NovoGradConfig, make_config
from novobench.problems import OPTIONS
from novobench.schedule import LarcConfig, ScheduleSpec


def write_config(path, tree):
    path.write_text(json.dumps(tree, indent=2))
    return str(path)


def run_config_tree(**overrides):
    tree = {
        "problem": {"kind": "quadratic", "diag": [2.0, 4.0], "w0": [5.0, 5.0]},
        "optimizer": {"algorithm": "novograd"},
        "schedule": {"base_lr": 0.1, "family": "cosine"},
        "batch_size": 1,
        "total_steps": 50,
        "seed": 0,
        "log_every": 10,
    }
    tree.update(overrides)
    return tree


def compare_config_tree():
    tree = run_config_tree(
        problem={"kind": "logreg", "size": 64, "dim": 2, "dataset_seed": 1},
        batch_size=16,
        total_steps=30,
    )
    del tree["optimizer"]
    tree["optimizers"] = [
        {"algorithm": "sgd", "base_lr": 0.2},
        {"algorithm": "adam"},
        {"algorithm": "novograd"},
    ]
    tree["schedule"] = {"base_lr": 0.05, "family": "cosine"}
    return tree


def sweep_config_tree(**sweep):
    tree = run_config_tree(optimizer={"algorithm": "novograd"}, total_steps=40)
    tree["sweep"] = sweep or {"lr_min": 1e-4, "lr_max": 1.0, "points": 7, "spacing": "log"}
    return tree


# (command, section, key, value): a value of the wrong JSON type; section None is the root
MISTYPED = [
    ("run", "schedule", "base_lr", "x"),
    ("run", "schedule", "warmup_steps", "2"),
    ("run", "larc", "trust_coefficient", "x"),
    ("run", "larc", "clip", "no"),
    ("run", None, "total_steps", "50"),
    ("run", None, "batch_size", "1"),
    ("run", None, "accumulation_factor", "2"),
    ("run", None, "log_every", "10"),
    ("run", "problem", "gradient_scale", "x"),
    ("run", "problem", "gradient_scale", True),
    ("run", "problem", "gradient_scale", 0),
    ("run", "problem", "gradient_scale", -1),
    ("run", None, "seed", -1),
    ("compare", None, "loss_threshold", "x"),
    ("compare", None, "loss_threshold", True),
    ("compare", "optimizers", "label", 5),
    ("compare", "optimizers", "base_lr", "x"),
    ("sweep", "sweep", "lr_grid", 5),
    ("sweep", "sweep", "lr_grid", ["x"]),
    ("sweep", "sweep", "lr_min", "x"),
    ("sweep", "sweep", "points", 2.7),
    ("sweep", "sweep", "points", "x"),
    # zero learning rates
    ("compare", "optimizers", "base_lr", 0),
    ("sweep", "sweep", "lr_grid", [0.1, 0.0]),
    ("sweep", "sweep", "lr_min", 0),
    # numbers that are not finite, or out of range
    ("run", "schedule", "base_lr", float("inf")),
    ("compare", None, "loss_threshold", float("nan")),
    ("sweep", "sweep", "lr_max", float("nan")),
    ("sweep", "sweep", "points", 2**64),
    ("run", "problem", "kind", ["mlp"]),
    # optimizer hyperparameters
    ("run", "optimizer", "ams", "no"),
    ("run", "optimizer", "weight_decay", float("nan")),
    ("compare", "optimizers", "beta1", True),
    # problem options: quadratic (run) and logreg (compare) keys
    ("run", "problem", "diag", ["x"]),
    ("run", "problem", "w0", "x"),
    ("run", "problem", "b", [1.0, True]),
    ("run", "problem", "matrix_seed", "1"),
    ("run", "problem", "b_scale", "x"),
    ("compare", "problem", "size", "abc"),
    ("compare", "problem", "dim", 2.5),
    ("compare", "problem", "dataset_seed", "1"),
    ("compare", "problem", "separation", "x"),
    ("compare", "problem", "noise", True),
    ("compare", "problem", "train_fraction", float("nan")),
    ("compare", "problem", "task", 5),
]
# (problem section, key): an option out of its bounds, or a quadratic key
# that the quadratic's shape (given by diag, or drawn from dim) does not read
BAD_PROBLEMS = [
    ({"kind": "logreg", "size": 0}, "size"),
    ({"kind": "logreg", "dataset_seed": -1}, "dataset_seed"),
    ({"kind": "logreg", "train_fraction": 0}, "train_fraction"),
    ({"kind": "logreg", "train_fraction": 2.0}, "train_fraction"),
    ({"kind": "logreg", "noise": -1}, "noise"),
    ({"kind": "logreg", "task": "spiral"}, "task"),
    ({"kind": "mlp", "hidden": 0}, "hidden"),
    ({"kind": "mlp", "n_classes": 1}, "n_classes"),
    ({"kind": "mlp", "task": "two-gaussians"}, "task"),
    ({"kind": "logreg", "task": "two-moons-like", "dim": 3}, "dim"),
    ({"kind": "quadratic", "dim": 0}, "dim"),
    ({"kind": "quadratic", "dim": 3, "matrix_seed": -1}, "matrix_seed"),
    ({"kind": "quadratic"}, "diag"),
    ({"kind": "quadratic", "diag": [1.0, 2.0], "dim": 2}, "dim"),
    ({"kind": "quadratic", "dim": 3, "b": [100.0, 100.0, 100.0]}, "b"),
    ({"kind": "quadratic", "diag": [1.0, 2.0], "matrix_seed": 1}, "matrix_seed"),
    ({"kind": "quadratic", "diag": [1.0, 2.0], "b_scale": 2.0}, "b_scale"),
]
BAD_PROBLEM_PARAMS = [
    pytest.param(problem, key, id="-".join(f"{k}={v}" for k, v in problem.items())) for problem, key in BAD_PROBLEMS
]
CONFIG_TREES = {"run": lambda: run_config_tree(larc={}), "compare": compare_config_tree, "sweep": sweep_config_tree}


class TestRun:
    def test_happy_path_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", run_config_tree())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "trajectory.csv").read_text()
        assert text.startswith("# config: ")
        assert "step,lr_effective,loss" in text.splitlines()[1]

    def test_unknown_optimizer_key_fails_closed(self, tmp_path, capsys):
        # the learning rate is the schedule's (or a compare entry's base_lr); no optimizer key sets one
        for algorithm, key in [("novograd", "beta3"), ("novograd", "lr0"), ("adam", "lr"), ("adamw", "lr"), ("sgd", "lr")]:
            optimizer = {"algorithm": algorithm, key: 0.5}
            for command, tree in [
                ("run", run_config_tree(optimizer=optimizer)),
                ("compare", {**compare_config_tree(), "optimizers": [optimizer]}),
                ("sweep", {**sweep_config_tree(), "optimizer": optimizer}),
            ]:
                cfg = write_config(tmp_path / "cfg.json", tree)
                assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("config error:") and f"'{key}'" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        tree = run_config_tree(bogus=1)
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", run_config_tree())
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_divergence_exit_code(self, tmp_path, capsys):
        tree = run_config_tree(
            optimizer={"algorithm": "sgd"},
            schedule={"base_lr": 5.0, "family": "constant"},
            total_steps=300,
        )
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "diverged" in capsys.readouterr().err

    def test_gradient_overflow_exit_code(self, tmp_path, capsys):
        tree = run_config_tree(problem={"kind": "quadratic", "dim": 256, "gradient_scale": 1e308})
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--format", "jsonl"]) == 2
        assert "diverged" in capsys.readouterr().err
        footer = json.loads((tmp_path / "trajectory.jsonl").read_text().splitlines()[-1])
        assert footer["termination"] == "diverged"

    def test_larc_overflow_exit_code(self, tmp_path, capsys):
        tree = run_config_tree(
            problem={"kind": "quadratic", "diag": [2.0, 4.0], "w0": [1.0, 1.0]},
            optimizer={"algorithm": "sgd"},
            schedule={"base_lr": 1e-3, "family": "polynomial", "power": 1020.0},
            larc={"trust_coefficient": 1.0, "clip": False},
            total_steps=2,
            log_every=1,
        )
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--format", "jsonl"]) == 2
        assert "diverged" in capsys.readouterr().err
        lines = (tmp_path / "trajectory.jsonl").read_text().splitlines()
        assert [json.loads(line)["step"] for line in lines[1:-1]] == [0]
        assert json.loads(lines[-1])["termination"] == "diverged"

    @pytest.mark.parametrize(
        "command,section,key,value",
        [pytest.param(*case, id="-".join(str(x) for x in case[1:])) for case in MISTYPED],
    )
    def test_mistyped_value_is_a_config_error(self, tmp_path, capsys, command, section, key, value):
        tree = CONFIG_TREES[command]()
        node = tree if section is None else tree[section]
        (node[0] if isinstance(node, list) else node)[key] = value
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    def test_jsonl_format(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", run_config_tree())
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--format", "jsonl"]) == 0
        first = (tmp_path / "trajectory.jsonl").read_text().splitlines()[0]
        assert json.loads(first)["config"]["total_steps"] == 50

    def test_set_overrides_file(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", run_config_tree())
        assert (
            main(
                [
                    "run",
                    "--config",
                    cfg,
                    "--out",
                    str(tmp_path),
                    "--set",
                    "total_steps=20",
                    "--set",
                    "schedule.base_lr=0.05",
                ]
            )
            == 0
        )
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        echoed = json.loads(header[len("# config: ") :])
        assert echoed["total_steps"] == 20
        assert echoed["schedule"]["base_lr"] == 0.05

    @pytest.mark.parametrize(
        "item,message",
        [
            pytest.param("total_steps=" + "1" * 5000, "total_steps must be of type int", id="too-long-for-an-int"),
            pytest.param("schedule.base_lr=" + "9" * 400, "base_lr must be a finite number", id="beyond-float-range"),
        ],
    )
    def test_set_value_out_of_range(self, tmp_path, capsys, item, message):
        cfg = write_config(tmp_path / "cfg.json", run_config_tree())
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--set", item]) == 1
        assert capsys.readouterr().err.startswith("config error: " + message)

    def test_seed_flag(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", run_config_tree())
        main(["run", "--config", cfg, "--out", str(tmp_path), "--seed", "7"])
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert json.loads(header[len("# config: ") :])["seed"] == 7

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": }')
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,key", BAD_PROBLEM_PARAMS)
    def test_bad_problem_option_is_a_config_error(self, tmp_path, capsys, problem, key):
        cfg = write_config(tmp_path / "cfg.json", run_config_tree(problem=problem))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and re.search(rf"\b{key}\b", err)

    @pytest.mark.parametrize("key,value", [("n_classes", "3"), ("hidden", 4.0)])
    def test_mistyped_mlp_option_is_a_config_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", run_config_tree(problem={"kind": "mlp", key: value}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param(b'{"total_steps": 5, "x": "\xff"}', "can't decode", id="not-utf-8"),
            pytest.param(b'{"total_steps": ' + b"1" * 5000 + b"}", "4300 digits", id="integer-too-long"),
        ],
    )
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config") and message in err

    def test_usage_error_exit_code(self, capsys):
        assert main(["run"]) == 1  # --config is required
        assert main(["frobnicate"]) == 1


def library_run(**overrides) -> RunConfig:
    """The run of ``run_config_tree()``, built through the library."""
    defaults = dict(
        problem=ProblemSpec("quadratic", {"diag": [2.0, 4.0], "w0": [5.0, 5.0]}),
        algorithm="novograd",
        schedule=ScheduleSpec(base_lr=0.1, total_steps=50),
        batch_size=1,
        total_steps=50,
        log_every=10,
    )
    return RunConfig(**{**defaults, **overrides})


def _build_directly(command, section, key, value):
    """A MISTYPED value given to the library: to the dataclass that holds
    ``key`` (or ``compare_runs`` for a label or loss threshold)."""
    problem = CONFIG_TREES[command]()["problem"]
    kind = problem.pop("kind")
    if section == "schedule" or key == "base_lr":
        return ScheduleSpec(**{"base_lr": 0.1, "total_steps": 50, key: value})
    if section == "larc":
        return LarcConfig(**{key: value})
    if section == "problem":
        if key in ("kind", "gradient_scale"):
            return ProblemSpec(**{"kind": kind, "options": problem, key: value})
        return ProblemSpec(kind, {**problem, key: value})
    if section in ("optimizer", "optimizers") and key != "label":
        return NovoGradConfig(**{key: value})
    if key in ("label", "loss_threshold"):
        return compare_runs([library_run()], **({"labels": [value]} if key == "label" else {key: value}))
    return library_run(**{key: value})


class TestLibrary:
    """The library's constructors raise the ``ValueError``s that the CLI
    reports as config errors."""

    @pytest.mark.parametrize(
        "command,section,key,value",
        # a sweep section has no dataclass; lr_sweep's grid is tested in test_harness
        [pytest.param(*case, id="-".join(str(x) for x in case[1:])) for case in MISTYPED if case[1] != "sweep"],
    )
    def test_mistyped_value_is_a_value_error(self, command, section, key, value):
        with pytest.raises(ValueError, match=key):
            _build_directly(command, section, key, value)

    @pytest.mark.parametrize("problem,key", BAD_PROBLEM_PARAMS)
    def test_bad_problem_option_is_a_value_error(self, problem, key):
        options = dict(problem)
        kind = options.pop("kind")
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            ProblemSpec(kind, options)

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"hyperparams": {"ams": "no"}}, "ams"),
            ({"hyperparams": {"beta1": "0.9"}}, "beta1"),
            ({"hyperparams": [("beta1", 0.9)]}, "hyperparams"),
            ({"algorithm": ["novograd"]}, "algorithm"),
            ({"larc": {}}, "larc"),
            ({"problem": {"kind": "quadratic", "dim": 2}}, "problem"),
            ({"batch_size": 2.5}, "batch_size"),
            ({"seed": np.int64(-1)}, "seed"),
        ],
    )
    def test_malformed_run_config_is_a_value_error(self, overrides, key):
        with pytest.raises(ValueError, match=key):
            library_run(**overrides)

    def test_numpy_values_log_as_python_values(self):
        python = library_run(seed=3, hyperparams={"beta2": 0.5, "ams": False})
        numpy = library_run(
            problem=ProblemSpec("quadratic", {"diag": np.array([2.0, 4.0]), "w0": [np.float64(5.0), 5.0]}),
            schedule=ScheduleSpec(base_lr=np.float64(0.1), total_steps=np.int64(50)),
            batch_size=np.int64(1),
            total_steps=np.int64(50),
            seed=np.int64(3),
            hyperparams={"beta2": np.float64(0.5), "ams": np.bool_(False)},
        )
        for write in (log_to_csv, log_to_jsonl):
            assert write(train(numpy)) == write(train(python))


class TestCompare:
    def test_three_rows_and_trajectories(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", compare_config_tree())
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1].startswith("label,algorithm")
        assert len(lines) == 5
        for label in ("sgd", "adam", "novograd"):
            assert (tmp_path / f"trajectory_{label}.csv").exists()

    def test_duplicate_tags_get_labels(self, tmp_path):
        tree = compare_config_tree()
        tree["optimizers"] = [{"algorithm": "adam"}, {"algorithm": "adam", "beta1": 0.8}]
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "comparison.csv").read_text().splitlines()[2:]
        assert rows[0].startswith("adam,") and rows[1].startswith("adam#2,")
        assert (tmp_path / "trajectory_adam_2.csv").exists()

    def test_labels_that_collide_as_file_names(self, tmp_path, capsys):
        tree = compare_config_tree()
        tree["total_steps"] = 5
        tree["optimizers"] = [
            {"algorithm": "adam"},
            {"algorithm": "adam"},
            {"algorithm": "sgd", "label": "adam#2"},
        ]
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert "3 trajectory files" in capsys.readouterr().out
        rows = (tmp_path / "a" / "comparison.csv").read_text().splitlines()[2:]
        assert [row.split(",")[:2] for row in rows] == [["adam", "adam"], ["adam#3", "adam"], ["adam#2", "sgd"]]
        assert sorted(p.name for p in (tmp_path / "a").glob("trajectory_*")) == [
            "trajectory_adam.csv",
            "trajectory_adam_2.csv",
            "trajectory_adam_3.csv",
        ]
        assert "sgd" in (tmp_path / "a" / "trajectory_adam_2.csv").read_text()

        tree["optimizers"] += [{"algorithm": "sgd", "label": "x y"}, {"algorithm": "sgd", "label": "x_y"}]
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'x y' and 'x_y'" in err
        assert not (tmp_path / "b").exists()

    def test_empty_optimizer_list_rejected(self, tmp_path, capsys):
        tree = compare_config_tree()
        tree["optimizers"] = []
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["base_lr", "label"])
    def test_a_null_base_lr_or_label_is_a_config_error(self, tmp_path, capsys, key):
        # null used to read as absent: the schedule's rate, the algorithm's name
        tree = compare_config_tree()
        tree["optimizers"][1][key] = None
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} " in err and "optimizers[1]" in err

    def test_custom_labels(self, tmp_path):
        tree = compare_config_tree()
        tree["optimizers"] = [
            {"algorithm": "novograd", "label": "tuned", "beta2": 0.5},
            {"algorithm": "novograd", "label": "default"},
        ]
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "comparison.csv").read_text().splitlines()[2:]
        assert rows[0].startswith("tuned,") and rows[1].startswith("default,")


class TestSweep:
    def test_seven_rows(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", sweep_config_tree())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1] == "lr,final_loss,best_loss,diverged"
        assert len(lines) == 2 + 7

    def test_all_divergent_still_succeeds(self, tmp_path):
        tree = run_config_tree(
            optimizer={"algorithm": "sgd"},
            schedule={"base_lr": 1.0, "family": "constant"},
            total_steps=300,
        )
        tree["sweep"] = {"lr_grid": [3.0, 10.0]}
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
        assert all(row.endswith(",true") for row in rows)

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", sweep_config_tree(lr_grid=[]))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("lr_min", 1.0), ("lr_max", 5.0), ("points", 9), ("spacing", "linear")])
    def test_a_grid_with_a_range_key_is_a_config_error(self, tmp_path, capsys, key, value):
        # the range keys used to be ignored: the grid was swept
        cfg = write_config(tmp_path / "cfg.json", sweep_config_tree(lr_grid=[0.1, 0.2], **{key: value}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: sweep takes either 'lr_grid' or a range, got 'lr_grid' and '{key}'\n"

    def test_unknown_sweep_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", sweep_config_tree(lr_gird=[0.1]))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "lr_gird" in capsys.readouterr().err


# (command, where in the tree, change, message): each object of a config file
# has its keys checked by one reader, whose message names the key and the
# object once
KEY_ERRORS = [
    ("run", None, {"bogus": 1}, "unknown key 'bogus' in config"),
    ("run", None, {"total_steps": None}, "missing key 'total_steps' in config"),
    ("run", "problem", {"bogus": 1}, "unknown key 'bogus' in problem 'quadratic'"),
    ("run", "problem", {"kind": None}, "missing key 'kind' in problem"),
    ("run", "optimizer", {"beta3": 1}, "unknown key 'beta3' in optimizer"),
    ("run", "optimizer", {"algorithm": None}, "missing key 'algorithm' in optimizer"),
    ("run", "schedule", {"bogus": 1}, "unknown key 'bogus' in schedule"),
    ("run", "schedule", {"total_steps": 50}, "unknown key 'total_steps' in schedule"),
    ("run", "schedule", {"base_lr": None}, "missing key 'base_lr' in schedule"),
    ("run", "larc", {"bogus": 1}, "unknown key 'bogus' in larc"),
    ("compare", None, {"optimizers": None}, "missing key 'optimizers' in config"),
    ("compare", "optimizers", {"beta3": 1}, "unknown key 'beta3' in optimizers[0]"),
    ("compare", "optimizers", {"algorithm": None}, "missing key 'algorithm' in optimizers[0]"),
    ("sweep", None, {"sweep": None}, "missing key 'sweep' in config"),
    ("sweep", "sweep", {"lr_gird": 1}, "unknown key 'lr_gird' in sweep"),
    ("sweep", "sweep", {"points": None}, "missing key 'points' in sweep"),
]


@pytest.mark.parametrize(
    "command,section,change,message", [pytest.param(*case, id=case[-1]) for case in KEY_ERRORS]
)
def test_a_key_error_names_the_key_and_its_object_once(command, section, change, message):
    tree = CONFIG_TREES[command]()
    node = tree if section is None else tree[section]
    node = node[0] if isinstance(node, list) else node
    for key, value in change.items():
        if value is None:  # None drops the key
            del node[key]
        else:
            node[key] = value
    with pytest.raises(ConfigError) as info:
        PARSERS[command](tree)
    assert str(info.value) == message


class TestGradcheck:
    @pytest.mark.parametrize("tag", ["quadratic", "mlp"])
    def test_passes_for_known_problems(self, tag, capsys):
        assert main(["gradcheck", tag, "--seed", "0", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max_rel_err" in out

    def test_unknown_problem(self, capsys):
        assert main(["gradcheck", "nosuch"]) == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        assert main(["gradcheck", "quadratic", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


PARSERS = {"run": cli.parse_run_config, "compare": cli.parse_compare_config, "sweep": cli.parse_sweep_config}
KEYS = st.sampled_from(
    sorted(
        cli._COMPARE_KEYS
        | cli._SWEEP_KEYS
        | cli._SWEEP_SECTION.keys()
        | {f.name for cls in (ScheduleSpec, LarcConfig) for f in fields(cls)}
        | {"kind", "algorithm", "label", "diag", "w0", "size", "hidden", "beta1", "weight_decay", "bogus", ""}
    )
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([2**62, 2**63, 2**64, 10**400, -(10**400)]),  # none of these sizes can be allocated
    st.floats(),
    st.sampled_from(["", "x", "log", "linear", "cosine", "novograd", "adam", "mlp", "quadratic", "0.1", "1e400"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3), max_leaves=6
)
SET_ITEMS = st.one_of(
    st.builds(
        lambda path, value: ".".join(path) + "=" + value,
        st.lists(KEYS, min_size=1, max_size=3),
        st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=8), st.just("1" * 5000)),
    ),
    st.text(max_size=10),
)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_tree(draw, command):
    """A valid config tree of ``command`` with up to four nodes replaced, deleted or added."""
    tree = CONFIG_TREES[command]()
    for _ in range(draw(st.integers(0, 4))):
        path = draw(st.sampled_from(list(_paths(tree))))
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else tree
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(KEYS)] = draw(JSON_VALUES)
        elif path and action == "delete":
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = draw(JSON_VALUES)
    return tree


@pytest.mark.parametrize("command", list(PARSERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_config_parses_or_raises_config_error(command, data):
    """Whatever the file and the --set items hold, parsing either succeeds
    or raises ConfigError (exit 1 with "config error:"), never another error."""
    tree = data.draw(mutated_tree(command), label="tree")
    sets = data.draw(st.lists(SET_ITEMS, max_size=3), label="--set")
    seed = data.draw(st.none() | st.integers(-3, 2**64), label="--seed")
    try:
        cli._apply_overrides(tree, sets, seed)
        PARSERS[command](tree)
    except ConfigError:
        pass


# what a library caller may pass: JSON scalars, numpy scalars and arrays; every
# size is small, since a config that builds is trained
SMALL_INTS = st.integers(-3, 3) | st.sampled_from([8, 64])
STRINGS = st.sampled_from(["", "x", "log", "cosine", "novograd", "adam", "mlp", "quadratic", "two-moons-like", "0.1"])
LIBRARY_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    SMALL_INTS,
    st.floats(),
    STRINGS,
    st.booleans().map(np.bool_),
    SMALL_INTS.map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    STRINGS.map(np.str_),
    st.lists(st.floats(-4, 4) | SMALL_INTS, max_size=3),
    st.lists(st.floats(-4, 4), max_size=3).map(np.array),
    st.lists(SMALL_INTS, max_size=3).map(np.array),
    st.just(np.zeros((2, 2))),
    st.dictionaries(STRINGS, st.floats(0, 1), max_size=1),
)
# the valid small run each fuzzed config starts from, one keyword set per dataclass
BASE_PROBLEMS = {
    "quadratic": {"dim": 3},
    "rosenbrock": {},
    "logreg": {"size": 16, "dim": 2},
    "mlp": {"size": 16, "dim": 2, "hidden": 4},
}


@st.composite
def fuzzed_library_run(draw):
    """The keywords of a small valid run, some of its dataclasses' keywords
    given as numpy values, and up to three fields of its dataclasses, problem
    options or hyperparameters set to drawn values."""
    kind = draw(st.sampled_from(list(BASE_PROBLEMS)))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    parts = {
        "problem": {"kind": kind, "gradient_scale": 1.0},
        "options": dict(BASE_PROBLEMS[kind]),
        "hyperparams": {},
        "schedule": {"base_lr": 0.1},
        "larc": draw(st.none() | st.just({})),
        "run": {"algorithm": algorithm, "batch_size": 4, "total_steps": 3, "log_every": 1},
    }
    keys = {
        "problem": ["kind", "gradient_scale"],
        "options": list(OPTIONS[kind]),
        "hyperparams": [f.name for f in fields(make_config(algorithm))],
        "schedule": ["base_lr", "family", "power", "warmup_steps", "min_lr"],
        "larc": [f.name for f in fields(LarcConfig)],
        "run": ["algorithm", "batch_size", "accumulation_factor", "total_steps", "seed", "log_every"],
    }
    for part, values in parts.items():  # some parts given as numpy values
        if values is not None and draw(st.booleans()):
            parts[part] = {key: np.asarray(value)[()] for key, value in values.items()}
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from([part for part in keys if parts[part] is not None]))
        parts[part][draw(st.sampled_from(keys[part]))] = draw(LIBRARY_VALUES)
    return parts


def _library_config(parts) -> RunConfig:
    run = parts["run"]
    larc = parts["larc"]
    return RunConfig(
        problem=ProblemSpec(options=parts["options"], **parts["problem"]),
        schedule=ScheduleSpec(total_steps=run["total_steps"], **parts["schedule"]),
        larc=None if larc is None else LarcConfig(**larc),
        hyperparams=parts["hyperparams"],
        **run,
    )


LR_GRIDS = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3)
LR_GRIDS = st.one_of(LIBRARY_VALUES, LR_GRIDS, LR_GRIDS.map(np.array), LR_GRIDS.map(lambda lrs: list(np.array(lrs))))


@settings(max_examples=400, deadline=None)
@given(parts=fuzzed_library_run(), lrs=LR_GRIDS)
def test_fuzzed_library_config_builds_and_trains_or_raises_value_error(parts, lrs):
    """Whatever values a library caller passes, building the config either
    succeeds or raises ValueError; a config that builds trains through
    ``train``, ``lr_sweep`` and ``compare_runs``, each of which returns or
    raises ValueError, never another error."""
    try:
        cfg = _library_config(parts)
    except ValueError:
        return
    assume(cfg.total_steps <= 3)
    for run in (
        lambda: train(cfg),
        lambda: lr_sweep(cfg, lrs),
        lambda: compare_runs([cfg, replace(cfg, algorithm="sgd", hyperparams={})], labels=["a", "b"]),
    ):
        try:
            run()
        except ValueError:
            pass


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "novobench", "gradcheck", "rosenbrock", "--trials", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
