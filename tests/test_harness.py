import json
from dataclasses import replace

import numpy as np
import pytest

from novobench.harness import (
    Checkpoint,
    ProblemSpec,
    RunConfig,
    checkpoint_from_dict,
    checkpoint_to_dict,
    compare_runs,
    comparison_to_csv,
    grad_check,
    log_to_csv,
    log_to_jsonl,
    lr_sweep,
    sweep_to_csv,
    train,
)
from novobench import problems as problems_mod
from novobench.problems import build
from novobench.schedule import LarcConfig, ScheduleSpec


def logreg_config(algorithm="novograd", total_steps=40, seed=0, **kwargs):
    defaults = dict(
        problem=ProblemSpec("logreg", {"size": 64, "dim": 3, "dataset_seed": 1}),
        algorithm=algorithm,
        schedule=ScheduleSpec(base_lr=0.05, total_steps=total_steps),
        batch_size=8,
        total_steps=total_steps,
        seed=seed,
        log_every=10,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def quadratic_config(algorithm="sgd", base_lr=0.1, total_steps=50, **kwargs):
    defaults = dict(
        problem=ProblemSpec("quadratic", {"diag": [2.0, 4.0], "w0": [5.0, 5.0]}),
        algorithm=algorithm,
        schedule=ScheduleSpec(base_lr=base_lr, total_steps=total_steps),
        batch_size=1,
        total_steps=total_steps,
        seed=0,
        log_every=10,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestTrainBasics:
    def test_runs_exact_step_count_and_logs_final(self):
        cfg = logreg_config(total_steps=20, log_every=7)
        log = train(cfg)
        assert log.termination == "completed"
        assert [rec.step for rec in log.records] == [0, 7, 14, 19]

    def test_total_steps_zero_rejected(self):
        with pytest.raises(ValueError, match="total_steps"):
            train(logreg_config(total_steps=0, schedule=ScheduleSpec(base_lr=0.05, total_steps=1)))

    def test_schedule_mismatch_rejected(self):
        cfg = logreg_config(total_steps=10, schedule=ScheduleSpec(base_lr=0.05, total_steps=20))
        with pytest.raises(ValueError, match="schedule.total_steps"):
            train(cfg)

    def test_determinism_byte_identical_logs(self):
        cfg = logreg_config()
        a, b = train(cfg), train(cfg)
        assert log_to_jsonl(a) == log_to_jsonl(b)
        assert log_to_csv(a) == log_to_csv(b)

    def test_second_moments_logged_for_novograd_not_sgd(self):
        nov = train(logreg_config("novograd", total_steps=5))
        sgd = train(logreg_config("sgd", total_steps=5))
        assert nov.records[0].second_moments is not None
        assert set(nov.records[0].second_moments) == {"w", "b"}
        assert sgd.records[0].second_moments is None

    def test_divergence_produces_partial_log(self):
        cfg = quadratic_config("sgd", base_lr=2.5, total_steps=400, log_every=1)
        log = train(cfg)
        assert log.termination == "diverged"
        assert 0 < len(log.records) < 400
        assert all(np.isfinite(rec.loss) for rec in log.records)
        assert all(np.isfinite(w).all() for w in log.final_weights.values())

    def test_overflowing_gradient_ends_diverged(self):
        # the loss stays finite while the scaled gradient overflows at step 0
        cfg = quadratic_config(
            "novograd",
            problem=ProblemSpec("quadratic", {"dim": 256, "matrix_seed": 0}, gradient_scale=1e308),
            log_every=1,
        )
        log = train(cfg)
        assert log.termination == "diverged"
        assert log.records == []
        initial = build("quadratic", {"dim": 256, "matrix_seed": 0}).init_params(np.random.default_rng([0, 0, 0]))
        np.testing.assert_array_equal(log.final_weights["w"], initial.layer("w").weights)

    def test_gradient_overflow_mid_run_keeps_partial_log(self):
        # SGD at an effective rate of 1 diverges on diag [2, 4]; the 1e300
        # gradient scale makes the gradient overflow long before the loss
        schedule = ScheduleSpec(base_lr=1e-300, total_steps=100, family="constant")
        spec = ProblemSpec("quadratic", {"diag": [2.0, 4.0], "w0": [5.0, 5.0]}, gradient_scale=1e300)
        log = train(quadratic_config("sgd", problem=spec, schedule=schedule, total_steps=100, log_every=1))
        assert log.termination == "diverged"
        assert 0 < len(log.records) < 100
        assert [rec.step for rec in log.records] == list(range(len(log.records)))
        assert all(np.isfinite(rec.loss) for rec in log.records)
        assert all(np.isfinite(w).all() for w in log.final_weights.values())

    def test_larc_run_completes(self):
        cfg = logreg_config("sgd", larc=LarcConfig(trust_coefficient=0.02), total_steps=15)
        log = train(cfg)
        assert log.termination == "completed"


class TestAccumulation:
    @pytest.mark.parametrize("algorithm", ["novograd", "adam", "adamw", "sgd", "sngd"])
    def test_microbatch_average_matches_full_batch(self, algorithm):
        base = logreg_config(algorithm, total_steps=30, log_every=1)
        full = replace(base, batch_size=32, accumulation_factor=1)
        micro = replace(base, batch_size=8, accumulation_factor=4)
        log_full = train(full, record_weight_trace=True)
        log_micro = train(micro, record_weight_trace=True)
        for wf, wm in zip(log_full.weight_trace, log_micro.weight_trace):
            for layer_id in wf:
                np.testing.assert_allclose(wf[layer_id], wm[layer_id], rtol=1e-12, atol=1e-14)

    def test_batchless_accumulation_exact_for_power_of_two(self):
        base = quadratic_config("novograd", total_steps=20)
        k1 = train(base, record_weight_trace=True)
        k4 = train(replace(base, accumulation_factor=4), record_weight_trace=True)
        for a, b in zip(k1.weight_trace, k4.weight_trace):
            np.testing.assert_array_equal(a["w"], b["w"])


class TestScaleInvariance:
    def test_novograd_trajectories_bit_identical_under_scaling(self):
        base = logreg_config("novograd", hyperparams={"epsilon": 0.0}, total_steps=60)
        scaled_spec = replace(base.problem, gradient_scale=2.0**10)
        scaled = replace(base, problem=scaled_spec)
        log_a = train(base, record_weight_trace=True)
        log_b = train(scaled, record_weight_trace=True)
        for wa, wb in zip(log_a.weight_trace, log_b.weight_trace):
            for layer_id in wa:
                np.testing.assert_array_equal(wa[layer_id], wb[layer_id])

    def test_sgd_trajectories_change_under_scaling(self):
        base = logreg_config("sgd", total_steps=20)
        scaled = replace(base, problem=replace(base.problem, gradient_scale=2.0**10))
        log_a = train(base)
        log_b = train(scaled)
        assert not np.array_equal(log_a.final_weights["w"], log_b.final_weights["w"])


class TestCheckpointing:
    @pytest.mark.parametrize("algorithm", ["novograd", "adam", "sgd", "sngd"])
    def test_resume_reproduces_uninterrupted_run(self, algorithm):
        cfg = logreg_config(algorithm, total_steps=40, log_every=10)
        full = train(cfg, record_weight_trace=True)
        first = train(cfg, stop_after=23, record_weight_trace=True)
        assert first.termination == "checkpoint"
        assert first.checkpoint is not None and first.checkpoint.step == 23

        restored = checkpoint_from_dict(json.loads(json.dumps(checkpoint_to_dict(first.checkpoint))))
        second = train(cfg, resume_from=restored, record_weight_trace=True)

        for layer_id in full.final_weights:
            np.testing.assert_array_equal(
                full.final_weights[layer_id], second.final_weights[layer_id]
            )
        stitched = first.records + second.records
        assert [r.step for r in stitched] == [r.step for r in full.records]
        for a, b in zip(stitched, full.records):
            assert a.loss == b.loss and a.lr_effective == b.lr_effective
            assert a.grad_norms == b.grad_norms and a.second_moments == b.second_moments
        for wa, wb in zip(first.weight_trace + second.weight_trace, full.weight_trace):
            for layer_id in wa:
                np.testing.assert_array_equal(wa[layer_id], wb[layer_id])

    def test_checkpoint_algorithm_mismatch_rejected(self):
        cfg = logreg_config("adam", total_steps=10)
        partial = train(cfg, stop_after=5)
        wrong = logreg_config("sgd", total_steps=10)
        with pytest.raises(ValueError, match="algorithm"):
            train(wrong, resume_from=partial.checkpoint)

    def test_bad_checkpoint_version(self):
        with pytest.raises(ValueError, match="format version"):
            checkpoint_from_dict({"format_version": 0})


class TestGradCheck:
    def test_quadratic_tight_bound(self):
        report = grad_check(build("quadratic", {"diag": [2.0, 4.0]}), seed=0, trials=20)
        assert report.passed
        assert max(report.max_rel_error.values()) <= 1e-8

    def test_mlp_within_tolerance(self):
        problem = build("mlp", {"size": 32, "dim": 3, "n_classes": 3, "hidden": 4})
        report = grad_check(problem, seed=1, trials=5)
        assert report.passed
        assert report.tolerance == 1e-5

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            grad_check(build("rosenbrock", {}), seed=0, trials=0)


class TestCompareRuns:
    def test_three_optimizers_same_grid(self):
        cfgs = [logreg_config(a, total_steps=20) for a in ("sgd", "adam", "novograd")]
        rows, logs = compare_runs(cfgs, loss_threshold=10.0)
        assert [row.label for row in rows] == ["sgd", "adam", "novograd"]
        grids = [[rec.step for rec in log.records] for log in logs]
        assert grids[0] == grids[1] == grids[2]
        assert all(row.steps_to_threshold == 0 for row in rows)  # ln2 < 10 from step 0

    def test_single_config(self):
        rows, _ = compare_runs([logreg_config(total_steps=5)])
        assert len(rows) == 1

    def test_duplicate_tags_get_distinct_labels(self):
        cfgs = [
            logreg_config("adam", total_steps=5),
            logreg_config("adam", total_steps=5, hyperparams={"beta1": 0.8}),
        ]
        rows, _ = compare_runs(cfgs)
        assert [row.label for row in rows] == ["adam", "adam#2"]

    def test_mismatched_problems_rejected(self):
        a = logreg_config(total_steps=5)
        b = replace(a, problem=ProblemSpec("logreg", {"size": 32}))
        with pytest.raises(ValueError, match="mismatched problems"):
            compare_runs([a, b])
        c = replace(a, seed=99)
        with pytest.raises(ValueError, match="mismatched problems"):
            compare_runs([a, c])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_runs([])


def _count_builds(monkeypatch):
    calls = []
    original = problems_mod.build

    def counting(kind, options=None):
        calls.append(kind)
        return original(kind, options)

    monkeypatch.setattr(problems_mod, "build", counting)
    return calls


def _same_run(a, b):
    assert log_to_jsonl(a) == log_to_jsonl(b)
    for layer_id, w in b.final_weights.items():
        assert a.final_weights[layer_id].tobytes() == w.tobytes()


class TestSharedProblem:
    def test_sweep_builds_once_and_rows_equal_standalone_runs(self, monkeypatch):
        cfg = logreg_config("novograd", total_steps=25)
        lrs = [0.01, 0.05, 0.2]
        calls = _count_builds(monkeypatch)
        rows, logs = lr_sweep(cfg, lrs)
        assert calls == ["logreg"]
        for lr, row, log in zip(lrs, rows, logs):
            standalone = train(replace(cfg, schedule=replace(cfg.schedule, base_lr=lr)))
            _same_run(log, standalone)
            assert row.final_loss == standalone.records[-1].loss

    def test_compare_builds_once_and_rows_equal_standalone_runs(self, monkeypatch):
        cfgs = [logreg_config(a, total_steps=25) for a in ("novograd", "adam", "sgd")]
        calls = _count_builds(monkeypatch)
        _, logs = compare_runs(cfgs)
        assert calls == ["logreg"]
        for cfg, log in zip(cfgs, logs):
            _same_run(log, train(cfg))

    def test_invalid_config_rejected_before_any_run(self, monkeypatch):
        cfgs = [logreg_config(total_steps=5), logreg_config(total_steps=5, log_every=0)]
        calls = _count_builds(monkeypatch)
        with pytest.raises(ValueError, match="log_every"):
            compare_runs(cfgs)
        assert calls == []


class TestSweep:
    def test_rows_and_divergence_flags(self):
        cfg = quadratic_config(
            "sgd", total_steps=200, schedule=ScheduleSpec(base_lr=0.1, total_steps=200, family="constant")
        )
        lrs = [1e-4, 1e-2, 0.2, 5.0]
        rows, _ = lr_sweep(cfg, lrs)
        assert [row.lr for row in rows] == lrs
        assert rows[-1].diverged is True
        assert rows[1].diverged is False

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            lr_sweep(quadratic_config(), [])


class TestSerialization:
    def test_jsonl_structure(self):
        log = train(logreg_config(total_steps=10, log_every=5))
        lines = log_to_jsonl(log).strip().split("\n")
        header = json.loads(lines[0])
        assert header["config"]["optimizer"]["algorithm"] == "novograd"
        record = json.loads(lines[1])
        assert set(record) == {"step", "lr_effective", "loss", "grad_norms", "second_moments"}
        footer = json.loads(lines[-1])
        assert footer["termination"] == "completed"
        assert set(footer["final_weights"]) == {"w", "b"}

    def test_jsonl_timing_optional(self):
        log = train(logreg_config(total_steps=5))
        assert "wall_time_ns" not in log_to_jsonl(log)
        assert "wall_time_ns" in log_to_jsonl(log, include_timing=True)

    def test_csv_column_order(self):
        log = train(logreg_config(total_steps=10, log_every=5))
        lines = log_to_csv(log).strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1] == "step,lr_effective,loss,grad_norm_w,grad_norm_b,v_w,v_b"
        assert len(lines) == 2 + 3  # records at steps 0, 5, 9

    def test_csv_omits_moment_columns_without_second_moments(self):
        log = train(logreg_config("sngd", total_steps=5, log_every=5))
        lines = log_to_csv(log).strip().split("\n")
        assert lines[1] == "step,lr_effective,loss,grad_norm_w,grad_norm_b"

    def test_comparison_and_sweep_csv(self):
        rows, _ = compare_runs([logreg_config(total_steps=5)], loss_threshold=None)
        table = comparison_to_csv(rows)
        assert table.startswith("label,algorithm,final_loss,best_loss,steps_to_threshold,diverged")
        srows, _ = lr_sweep(quadratic_config(total_steps=5), [0.1])
        assert sweep_to_csv(srows).startswith("lr,final_loss,best_loss,diverged")

    def test_checkpoint_round_trip_exact(self):
        log = train(logreg_config(total_steps=10), stop_after=7)
        doc = checkpoint_to_dict(log.checkpoint)
        restored = checkpoint_from_dict(json.loads(json.dumps(doc)))
        assert restored.step == 7
        for layer_id, w in log.checkpoint.weights.items():
            np.testing.assert_array_equal(w, restored.weights[layer_id])


class TestBenchmarkRegression:
    def test_novograd_reaches_threshold_within_twice_adams_steps(self):
        # regression bound frozen from reference runs on this exact config
        prob = ProblemSpec("logreg", {"size": 200, "dim": 4, "separation": 2.0, "dataset_seed": 11})

        def cfg(algorithm, lr):
            return RunConfig(
                problem=prob,
                algorithm=algorithm,
                schedule=ScheduleSpec(base_lr=lr, total_steps=400),
                batch_size=32,
                total_steps=400,
                seed=0,
                log_every=5,
            )

        rows, _ = compare_runs([cfg("adam", 0.05), cfg("novograd", 0.02)], loss_threshold=0.40)
        by_label = {row.label: row for row in rows}
        assert by_label["novograd"].steps_to_threshold is not None
        assert by_label["novograd"].steps_to_threshold <= 2 * by_label["adam"].steps_to_threshold


class TestDatasetQuality:
    def test_separated_gaussians_linearly_learnable(self):
        # separation is 6 sigma, so a fitted linear model should be ~perfect
        cfg = logreg_config(
            "adam",
            total_steps=150,
            schedule=ScheduleSpec(base_lr=0.05, total_steps=150),
            problem=ProblemSpec("logreg", {"size": 100, "dim": 2, "separation": 6.0, "dataset_seed": 7}),
        )
        log = train(cfg)
        problem = build("logreg", {"size": 100, "dim": 2, "separation": 6.0, "dataset_seed": 7})
        from novobench.params import ModelParams, ParameterLayer

        params = ModelParams(
            [ParameterLayer(k, v.copy()) for k, v in log.final_weights.items()]
        )
        accuracy = float(np.mean(problem.predict(params, problem.features) == problem.labels))
        assert accuracy >= 0.99
