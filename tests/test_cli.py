import json
import subprocess
import sys

import pytest

from novobench.cli import main


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


class TestRun:
    def test_happy_path_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", run_config_tree())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "trajectory.csv").read_text()
        assert text.startswith("# config: ")
        assert "step,lr_effective,loss" in text.splitlines()[1]

    def test_unknown_optimizer_key_fails_closed(self, tmp_path, capsys):
        tree = run_config_tree(optimizer={"algorithm": "novograd", "beta3": 0.5})
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "beta3" in capsys.readouterr().err

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

    def test_usage_error_exit_code(self, capsys):
        assert main(["run"]) == 1  # --config is required
        assert main(["frobnicate"]) == 1


class TestCompare:
    def tree(self):
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

    def test_three_rows_and_trajectories(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.tree())
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1].startswith("label,algorithm")
        assert len(lines) == 5
        for label in ("sgd", "adam", "novograd"):
            assert (tmp_path / f"trajectory_{label}.csv").exists()

    def test_duplicate_tags_get_labels(self, tmp_path):
        tree = self.tree()
        tree["optimizers"] = [{"algorithm": "adam"}, {"algorithm": "adam", "beta1": 0.8}]
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "comparison.csv").read_text().splitlines()[2:]
        assert rows[0].startswith("adam,") and rows[1].startswith("adam#2,")
        assert (tmp_path / "trajectory_adam_2.csv").exists()

    def test_empty_optimizer_list_rejected(self, tmp_path, capsys):
        tree = self.tree()
        tree["optimizers"] = []
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_custom_labels(self, tmp_path):
        tree = self.tree()
        tree["optimizers"] = [
            {"algorithm": "novograd", "label": "tuned", "beta2": 0.5},
            {"algorithm": "novograd", "label": "default"},
        ]
        cfg = write_config(tmp_path / "cfg.json", tree)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "comparison.csv").read_text().splitlines()[2:]
        assert rows[0].startswith("tuned,") and rows[1].startswith("default,")


class TestSweep:
    def tree(self, **sweep):
        tree = run_config_tree(optimizer={"algorithm": "novograd"}, total_steps=40)
        tree["sweep"] = sweep or {"lr_min": 1e-4, "lr_max": 1.0, "points": 7, "spacing": "log"}
        return tree

    def test_seven_rows(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", self.tree())
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
        cfg = write_config(tmp_path / "cfg.json", self.tree(lr_grid=[]))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "grid" in capsys.readouterr().err

    def test_unknown_sweep_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", self.tree(lr_gird=[0.1]))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "lr_gird" in capsys.readouterr().err


class TestGradcheck:
    @pytest.mark.parametrize("tag", ["quadratic", "mlp"])
    def test_passes_for_known_problems(self, tag, capsys):
        assert main(["gradcheck", tag, "--seed", "0", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max_rel_err" in out

    def test_unknown_problem(self, capsys):
        assert main(["gradcheck", "nosuch"]) == 1
        assert "unknown problem" in capsys.readouterr().err


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "novobench", "gradcheck", "rosenbrock", "--trials", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
