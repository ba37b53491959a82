"""Shows that each of the benchmark's output checks can fail.

Run from the repository root: ``python3 -m pytest -q bench/test_checks.py``.
Each test runs a workload round (or a small run) through the real check,
confirms it passes, then perturbs one output and confirms it fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import compare  # noqa: E402
import configs  # noqa: E402
import tracing  # noqa: E402
from novobench import harness  # noqa: E402
from workloads import CompareTinyAccum, SweepWideMlp, VerifyBattery, KNOWN_FAULTS  # noqa: E402


def one_ulp_up(x: float) -> float:
    return float(np.nextafter(x, math.inf))


def run_body(workload):
    workload.prepare()
    with contextlib.redirect_stdout(io.StringIO()):
        return workload.body()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    workload = SweepWideMlp(3, tmp_path_factory.mktemp("sweep"))
    return workload, run_body(workload)


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    workload = CompareTinyAccum(3, tmp_path_factory.mktemp("compare"))
    return workload, run_body(workload)


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    workload = VerifyBattery(3, tmp_path_factory.mktemp("verify"))
    return workload, run_body(workload)


def test_sweep_passes_and_a_swapped_lr_fails(sweep):
    workload, code = sweep
    assert workload.check(code).errors == []
    path = workload.out / "sweep.csv"
    original = path.read_text()
    lines = original.splitlines()
    first, last = lines[2].split(","), lines[-1].split(",")
    first[0], last[0] = last[0], first[0]
    lines[2], lines[-1] = ",".join(first), ",".join(last)
    try:
        path.write_text("\n".join(lines) + "\n")
        errors = workload.check(code).errors
    finally:
        path.write_text(original)
    assert any("is not grid point" in e for e in errors)
    assert any("!= standalone" in e for e in errors)


def test_sweep_failures_name_their_points(sweep):
    workload, code = sweep
    assert workload.check(code).failed == []
    path = workload.out / "sweep.csv"
    original = path.read_text()
    lines = original.splitlines()
    fields = lines[3].split(",")
    fields[1] = repr(one_ulp_up(float(fields[1])))
    lines[3] = ",".join(fields)
    try:
        path.write_text("\n".join(lines[:-1]) + "\n")  # row 1 perturbed, last row dropped
        outcome = workload.check(code)
    finally:
        path.write_text(original)
    assert outcome.failed == ["point-1", f"point-{configs.SWEEP_POINTS - 1}"]
    assert outcome.errors


def test_sweep_row_check_fails_on_one_ulp():
    row = {"lr": 0.1, "final_loss": 0.25, "best_loss": 0.25, "diverged": "false"}
    assert checks.check_sweep_row(row, [1.0, 0.25], "completed") == []
    bumped = dict(row, final_loss=one_ulp_up(0.25))
    assert checks.check_sweep_row(bumped, [1.0, 0.25], "completed")
    assert checks.check_sweep_row(row, [0.2, 0.25], "completed")  # final not below step 0


def test_accuracy_check_fails_on_perturbed_weight(comparison):
    workload, code = comparison
    outcome = workload.check(code)
    assert outcome.errors == [] and outcome.failed == []
    path = workload.out / "trajectory_sgd.jsonl"
    original = path.read_text()
    lines = original.splitlines()
    footer = json.loads(lines[-1])
    footer["final_weights"]["w2"] = [-x for x in footer["final_weights"]["w2"]]
    try:
        path.write_text("\n".join(lines[:-1] + [json.dumps(footer)]) + "\n")
        outcome = workload.check(code)
    finally:
        path.write_text(original)
    assert any(e.startswith("sgd: training accuracy") for e in outcome.errors)
    assert outcome.failed == ["sgd"]


def test_adam_adamw_identity_fails_on_one_ulp(comparison):
    workload, code = comparison
    path = workload.out / "trajectory_adamw.jsonl"
    original = path.read_text()
    lines = original.splitlines()
    record = json.loads(lines[5])
    record["loss"] = one_ulp_up(record["loss"])
    lines[5] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    try:
        path.write_text("\n".join(lines) + "\n")
        outcome = workload.check(code)
    finally:
        path.write_text(original)
    assert outcome.errors == ["adam/adamw: record 4 differs"]
    assert outcome.failed == ["adamw"]


def test_record_count_check_fails_on_missing_record(comparison):
    workload, _ = comparison
    _, records, footer = checks.parse_jsonl((workload.out / "trajectory_novograd.jsonl").read_text())
    assert checks.check_trajectory("novograd", records, footer, configs.COMPARE_STEPS) == []
    assert checks.check_trajectory("novograd", records[:-1], footer, configs.COMPARE_STEPS)


def test_battery_fails_only_known_faults(battery):
    workload, result = battery
    outcome = workload.check(result)
    assert outcome.errors == []
    assert set(outcome.failed) <= set(KNOWN_FAULTS)
    assert outcome.ops == 11


def test_resume_check_fails_on_one_ulp(battery):
    workload, result = battery
    full, stopped, resumed = result["resume-novograd"]
    weights = {k: v.copy() for k, v in resumed.final_weights.items()}
    weights["w1"][0] = one_ulp_up(weights["w1"][0])
    perturbed = replace(resumed, final_weights=weights)
    assert checks.check_resume("resume", full, resumed, workload.stop) == []
    assert checks.check_resume("resume", full, perturbed, workload.stop)


def test_pow2_check_fails_on_one_ulp(battery):
    workload, result = battery
    base, scaled = result["pow2-base"], result["pow2-scaled"][0]
    k = workload.exponents[0]
    assert checks.check_pow2("pow2", base, scaled, k) == []
    records = list(scaled.records)
    records[3] = replace(records[3], loss=one_ulp_up(records[3].loss))
    assert checks.check_pow2("pow2", base, replace(scaled, records=records), k)


def test_v_recurrence_check_fails_on_drift(battery):
    workload, result = battery
    log = result["v-recurrence"]
    rows = [(rec.step, rec.grad_norms, rec.second_moments) for rec in log.records]
    beta2 = workload.recurrence_cfg.hyperparams["beta2"]
    steps = workload.recurrence_cfg.total_steps
    assert checks.check_v_recurrence("v", rows, beta2, steps) == []
    step, norms, moments = rows[10]
    rows[10] = (step, norms, {k: v * (1 + 1e-10) for k, v in moments.items()})
    assert checks.check_v_recurrence("v", rows, beta2, steps)
    assert checks.check_v_recurrence("v", rows[:-1], beta2, steps)


def test_optimum_check_fails_below_the_solve(battery):
    workload, result = battery
    losses = [rec.loss for rec in result["pow2-base"].records]
    assert checks.check_above_optimum("q", losses, workload.optimum) == []
    assert checks.check_above_optimum("q", losses + [workload.optimum - 1e-6], workload.optimum)


def test_known_fault_checks_pass_on_the_behaviour_they_require(battery):
    _, result = battery
    base = result["fixed-base"]
    assert checks.check_pow2("same", base, base, 0) == []
    diverged = replace(base, termination="diverged")
    assert checks.check_diverged("overflow", diverged) == []
    assert checks.check_diverged("overflow", ValueError("non-finite gradient"))
    assert checks.check_diverged("overflow", base)


def test_gradcheck_failure_is_an_error(battery):
    workload, result = battery
    reports = list(result["gradcheck"])
    reports[0] = replace(reports[0], passed=False)
    outcome = workload.check(dict(result, gradcheck=reports))
    assert outcome.errors and outcome.errors[0].startswith("gradcheck mlp")


def test_traced_round_matches_untraced_and_restores_the_package(battery):
    workload, result = battery
    tracer = tracing.Tracer()
    original_train = harness.train
    with tracer.installed():
        traced = run_body(workload)
    assert harness.train is original_train
    assert workload.digest(traced) == workload.digest(result)
    metrics = tracer.round_metrics()
    assert metrics["harness.train.calls"] == 13
    assert metrics["optim.step.calls"] == metrics["schedule.lr_at.calls"]
    assert metrics["problems.fd.evals"] > 0


def test_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.2 for x in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "gain"
    assert compare.verdict(parent, slower, "lower", 0.1) == "regression"
    assert compare.verdict(parent, slower, "higher", 0.1) == "gain"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == "within bound"
    noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.0]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1) == "unresolved"


def test_incorrect_change_voids_a_gain():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]

    def runs(values, correct):
        return [{"correct": correct, "attempted": 5, "failed": 0, "metrics": {"wall_s": {"value": v}}} for v in values]

    faster = [x * 0.8 for x in parent]
    assert compare._report("w", spec, {"parent": runs(parent, True), "change": runs(faster, True)})[-1].endswith("-> gain")
    lines = compare._report("w", spec, {"parent": runs(parent, True), "change": runs(faster, False)})
    assert lines[-1].endswith("-> gain void: the change fails its output checks")
