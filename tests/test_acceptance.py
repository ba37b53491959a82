"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Convergence thresholds, tuned learning rates, and sweep interval endpoints
were frozen from reference runs of this implementation before release.
"""

import json
import math
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from novobench.cli import main as cli_main
from novobench.harness import (
    ProblemSpec,
    RunConfig,
    checkpoint_from_dict,
    checkpoint_to_dict,
    grad_check,
    log_to_csv,
    log_to_jsonl,
    lr_sweep,
    train,
)
from novobench.optim import (
    NovoGradConfig,
    OptimizerDriver,
    SngdConfig,
    SngdState,
    novograd_step,
    sngd_step,
    state_from_dict,
    state_report,
)
from novobench.params import ModelParams, ParameterLayer
from novobench.problems import build
from novobench.schedule import ScheduleSpec, lr_at


def check(num: int, description: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[{status}] criterion {num}: {description}" + (f" ({detail})" if detail else ""))
    assert condition, f"criterion {num} failed: {description} {detail}"


def logreg_cfg(algorithm, total_steps, hyperparams=None, seed=0, base_lr=0.05, **kwargs):
    defaults = dict(
        problem=ProblemSpec("logreg", {"size": 64, "dim": 3, "dataset_seed": 1}),
        algorithm=algorithm,
        hyperparams=hyperparams or {},
        schedule=ScheduleSpec(base_lr=base_lr, total_steps=total_steps),
        batch_size=16,
        total_steps=total_steps,
        seed=seed,
        log_every=200,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def traces_bit_identical(a, b) -> bool:
    return all(
        np.array_equal(wa[layer_id], wb[layer_id])
        for wa, wb in zip(a, b)
        for layer_id in wa
    )


def test_criterion_01_gradient_oracle():
    start = time.monotonic()
    problems = [
        ("quadratic", build("quadratic", {"dim": 4, "matrix_seed": 7}), 1e-6),
        ("rosenbrock", build("rosenbrock", {}), 1e-6),
        ("logreg", build("logreg", {"size": 64, "dim": 3, "dataset_seed": 1}), 1e-6),
        ("mlp", build("mlp", {"size": 64, "dim": 3, "n_classes": 3, "hidden": 8, "dataset_seed": 2}), 1e-5),
    ]
    worst = {}
    for name, problem, tol in problems:
        report = grad_check(problem, seed=0, trials=100)
        worst[name] = max(report.max_rel_error.values())
        assert report.tolerance == tol
        assert report.passed, f"{name}: max rel err {worst[name]:.3e} > {tol}"
    elapsed = time.monotonic() - start
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f", {elapsed:.1f}s"
    check(
        1,
        "analytic gradients match finite differences (100 draws per problem, < 10 s)",
        all(worst[n] <= tol for n, _, tol in problems) and elapsed < 10.0,
        detail,
    )


def test_criterion_02_scale_invariance():
    variants = [
        {"first_moment_style": s, "wd_placement": p}
        for s in ("cumulative", "ema")
        for p in ("in_moment", "decoupled_update")
    ]
    steps = 1000
    ok = True
    for variant in variants:
        hp = {"epsilon": 0.0, "weight_decay": 0.02, **variant}
        base_cfg = logreg_cfg("novograd", steps, hyperparams=hp)
        base = train(base_cfg, record_weight_trace=True).weight_trace
        for c in (2.0**-10, 2.0**10):
            scaled_cfg = replace(base_cfg, problem=replace(base_cfg.problem, gradient_scale=c))
            scaled = train(scaled_cfg, record_weight_trace=True).weight_trace
            ok = ok and traces_bit_identical(base, scaled)

    sgd_base = logreg_cfg("sgd", 200)
    sgd_a = train(sgd_base, record_weight_trace=True).weight_trace
    sgd_scaled_cfg = replace(sgd_base, problem=replace(sgd_base.problem, gradient_scale=2.0**10))
    sgd_b = train(sgd_scaled_cfg, record_weight_trace=True).weight_trace
    sgd_differs = not traces_bit_identical(sgd_a, sgd_b)
    check(
        2,
        "NovoGrad (eps=0, 4 variants) is bit-invariant to 2^±10 gradient scaling over 1000 steps; SGD is not",
        ok and sgd_differs,
    )


def test_criterion_03_degenerate_reduction_to_sngd():
    rng = np.random.default_rng(303)
    cfg = NovoGradConfig(beta1=0.0, beta2=0.0, epsilon=0.0)
    differing = 0
    for _ in range(100):
        w = rng.standard_normal(5)
        g = rng.standard_normal(5)
        a = ModelParams([ParameterLayer("w", w.copy(), g.copy())])
        layer = {"id": "w", "m": rng.standard_normal(5).tolist(), "v": float(rng.uniform(0.1, 10.0))}
        doc = {"format_version": 1, "algorithm": "novograd", "config": asdict(cfg), "step_count": 2, "layers": [layer]}
        _, _, state = state_from_dict(doc)
        novograd_step(a, state, cfg, 0.1)
        b = ModelParams([ParameterLayer("w", w.copy(), g.copy())])
        sngd_step(b, SngdState(), SngdConfig(epsilon=0.0), 0.1)
        differing += a.weights.tobytes() != b.weights.tobytes() or state.step_count != 3
    check(3, "beta2=0, beta1=0, d=0, eps=0 step equals SNGD bit for bit on 100 random states", differing == 0, f"{differing} differ")


def test_criterion_04_ams_monotonicity():
    rng = np.random.default_rng(404)
    steps = 200
    spec = ScheduleSpec(base_lr=0.1, total_steps=steps, family="cosine")
    params = ModelParams([ParameterLayer("w", rng.standard_normal(4))])
    driver = OptimizerDriver("novograd", NovoGradConfig(ams=True))
    direction = rng.standard_normal(4)
    direction /= np.linalg.norm(direction)
    v_hats = []
    ratios = []
    for t in range(steps):
        norm = 1e3 if t % 2 else 1e-3  # adversarial alternation
        params.layer("w").grad[...] = norm * direction
        lr = lr_at(spec, t)
        driver.step(params, lr)
        v_hat = driver.state_dict()["layers"][0]["v_hat"]
        v_hats.append(v_hat)
        ratios.append(lr / math.sqrt(v_hat))
    nondecreasing = all(a <= b for a, b in zip(v_hats, v_hats[1:]))
    nonincreasing = all(a >= b for a, b in zip(ratios, ratios[1:]))
    check(4, "v_hat is nondecreasing and lr_t/sqrt(v_hat) is nonincreasing on adversarial streams", nondecreasing and nonincreasing)


def test_criterion_05_memory_accounting():
    ok = True
    details = []
    for n in (10**2, 10**4, 10**6):
        for num_layers in (1, 4, 64):
            base, extra = divmod(n, num_layers)
            sizes = [base + (1 if i < extra else 0) for i in range(num_layers)]
            params = ModelParams(
                [ParameterLayer(f"l{i}", np.zeros(size)) for i, size in enumerate(sizes) if size > 0]
            )
            novograd = state_report("novograd", params).total_state_elements
            novograd_ams = state_report("novograd", params, ams=True).total_state_elements
            adam = state_report("adam", params).total_state_elements
            bound = adam / 2 + num_layers
            ok = ok and novograd <= bound and novograd_ams <= adam / 2 + 2 * num_layers
            details.append(f"N={n},L={num_layers}:{novograd}<={bound:.0f}")
    check(5, "NovoGrad state <= Adam/2 + L for N in {1e2,1e4,1e6}, L in {1,4,64}", ok)


def test_criterion_06_adamw_adam_coincide_at_zero_decay():
    steps = 1000
    adam = train(
        logreg_cfg("adam", steps, hyperparams={"weight_decay": 0.0}), record_weight_trace=True
    )
    adamw = train(
        logreg_cfg("adamw", steps, hyperparams={"weight_decay": 0.0}), record_weight_trace=True
    )
    check(6, "Adam and AdamW with d=0 produce bit-identical 1000-step trajectories", traces_bit_identical(adam.weight_trace, adamw.weight_trace))


def test_criterion_07_accumulation_equivalence():
    steps = 40
    ok = True
    worst = 0.0
    for algorithm in ("novograd", "adam", "adamw", "sgd", "sngd"):
        for k in (2, 4, 8):
            base = logreg_cfg(algorithm, steps, log_every=steps)
            micro = replace(base, batch_size=4, accumulation_factor=k)
            full = replace(base, batch_size=4 * k, accumulation_factor=1)
            ta = train(micro, record_weight_trace=True).weight_trace
            tb = train(full, record_weight_trace=True).weight_trace
            for wa, wb in zip(ta, tb):
                for layer_id in wa:
                    scale = max(np.abs(wb[layer_id]).max(), 1e-12)
                    err = np.abs(wa[layer_id] - wb[layer_id]).max() / scale
                    worst = max(worst, err)
                    ok = ok and err <= 1e-12
    check(7, "k in {2,4,8} micro-batch accumulation matches full batch within 1e-12 for every optimizer", ok, f"max rel {worst:.2e}")


def _quadratic_cfg(algorithm, base_lr, steps=500, hyperparams=None):
    return RunConfig(
        problem=ProblemSpec("quadratic", {"diag": [2.0, 4.0], "w0": [5.0, 5.0]}),
        algorithm=algorithm,
        hyperparams=hyperparams or {},
        schedule=ScheduleSpec(base_lr=base_lr, total_steps=steps),
        batch_size=1,
        total_steps=steps,
        seed=0,
        log_every=100,
    )


def test_criterion_08_convergence_suite():
    failures = []

    # quadratic: distance to the optimum (origin) after 500 cosine-decay steps
    start = time.monotonic()
    for algorithm in ("novograd", "adam", "sgd"):
        log = train(_quadratic_cfg(algorithm, 0.1))
        dist = float(np.linalg.norm(log.final_weights["w"]))
        if dist >= 1e-2:
            failures.append(f"quadratic {algorithm}: dist {dist:.3e}")
    assert time.monotonic() - start < 30.0

    # rosenbrock: tuned config per optimizer reaches loss < 1e-3 within 10k steps
    tuned = {"novograd": 0.01, "adam": 0.02, "sgd": 0.002}
    for algorithm, lr in tuned.items():
        start = time.monotonic()
        cfg = RunConfig(
            problem=ProblemSpec("rosenbrock", {}),
            algorithm=algorithm,
            schedule=ScheduleSpec(base_lr=lr, total_steps=10000),
            batch_size=1,
            total_steps=10000,
            seed=0,
            log_every=1,
        )
        log = train(cfg)
        best = min(rec.loss for rec in log.records)
        if best >= 1e-3:
            failures.append(f"rosenbrock {algorithm}: best {best:.3e}")
        assert time.monotonic() - start < 30.0

    # logistic regression: NovoGrad final loss within 5% of Adam over 3 seeds
    prob = {"size": 200, "dim": 4, "separation": 2.0, "dataset_seed": 11}
    problem = build("logreg", prob)

    def full_loss(algorithm, lr, seed):
        cfg = RunConfig(
            problem=ProblemSpec("logreg", prob),
            algorithm=algorithm,
            schedule=ScheduleSpec(base_lr=lr, total_steps=400),
            batch_size=32,
            total_steps=400,
            seed=seed,
            log_every=100,
        )
        log = train(cfg)
        params = ModelParams([ParameterLayer(k, v.copy()) for k, v in log.final_weights.items()])
        return problem.eval(params)

    start = time.monotonic()
    nov = np.mean([full_loss("novograd", 0.02, s) for s in (0, 1, 2)])
    adam = np.mean([full_loss("adam", 0.05, s) for s in (0, 1, 2)])
    ratio = nov / adam
    if not 0.95 <= ratio <= 1.05:
        failures.append(f"logreg: loss ratio {ratio:.4f}")
    assert time.monotonic() - start < 30.0

    # mlp on multiclass blobs: test accuracy within 2 percentage points
    mlp_opts = {
        "size": 300,
        "dim": 2,
        "n_classes": 3,
        "separation": 3.0,
        "dataset_seed": 5,
        "train_fraction": 2 / 3,
        "hidden": 16,
    }
    mlp_problem = build("mlp", mlp_opts)

    def test_acc(algorithm, lr, seed):
        cfg = RunConfig(
            problem=ProblemSpec("mlp", mlp_opts),
            algorithm=algorithm,
            schedule=ScheduleSpec(base_lr=lr, total_steps=300),
            batch_size=32,
            total_steps=300,
            seed=seed,
            log_every=100,
        )
        log = train(cfg)
        params = ModelParams([ParameterLayer(k, v.copy()) for k, v in log.final_weights.items()])
        pred = mlp_problem.predict(params, mlp_problem.test_features)
        return float(np.mean(pred == mlp_problem.test_labels))

    start = time.monotonic()
    acc_nov = np.mean([test_acc("novograd", 0.02, s) for s in (0, 1, 2)])
    acc_adam = np.mean([test_acc("adam", 0.05, s) for s in (0, 1, 2)])
    if abs(acc_nov - acc_adam) > 0.02:
        failures.append(f"mlp: accuracy gap {acc_nov - acc_adam:+.3f}")
    assert time.monotonic() - start < 30.0

    check(8, "convergence suite (quadratic, rosenbrock, logreg, mlp)", not failures, "; ".join(failures))


def test_criterion_09_lr_robustness_sweep():
    # stable := completed with final loss <= 1e-3; endpoints frozen from the
    # reference sweep on this benchmark
    grid = [float(x) for x in np.geomspace(1e-4, 100.0, 21)]
    stable_threshold = 1e-3

    def stable_interval(algorithm):
        rows, _ = lr_sweep(_quadratic_cfg(algorithm, 0.1), grid)
        stable = [r.lr for r in rows if (not r.diverged) and r.final_loss <= stable_threshold]
        assert stable, f"{algorithm}: no stable learning rates"
        return min(stable), max(stable)

    nov_lo, nov_hi = stable_interval("novograd")
    sgd_lo, sgd_hi = stable_interval("sgd")
    adam_lo, adam_hi = stable_interval("adam")
    span = nov_hi / nov_lo
    gm = {
        "novograd": math.sqrt(nov_lo * nov_hi),
        "sgd": math.sqrt(sgd_lo * sgd_hi),
        "adam": math.sqrt(adam_lo * adam_hi),
    }
    lo, hi = sorted((gm["sgd"], gm["adam"]))
    between = lo <= gm["novograd"] <= hi
    detail = (
        f"novograd [{nov_lo:.1e}, {nov_hi:.1e}] span {span:.0f}x; "
        f"gm sgd={gm['sgd']:.3f} novograd={gm['novograd']:.3f} adam={gm['adam']:.3f}"
    )
    check(9, "NovoGrad stable-LR interval spans >= 2 orders and sits between SGD's and Adam's", span >= 100.0 and between, detail)


def test_criterion_10_determinism_and_checkpointing(tmp_path):
    cfg = logreg_cfg("novograd", 60, log_every=10)
    a, b = train(cfg), train(cfg)
    same_bytes = log_to_jsonl(a) == log_to_jsonl(b) and log_to_csv(a) == log_to_csv(b)

    tree = {
        "problem": {"kind": "logreg", "size": 64, "dim": 3, "dataset_seed": 1},
        "optimizer": {"algorithm": "novograd"},
        "schedule": {"base_lr": 0.05, "family": "cosine"},
        "batch_size": 16,
        "total_steps": 60,
        "seed": 0,
        "log_every": 10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tree))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    cli_same = (tmp_path / "a" / "trajectory.csv").read_bytes() == (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()

    full = train(cfg, record_weight_trace=True)
    first = train(cfg, stop_after=23, record_weight_trace=True)
    restored = checkpoint_from_dict(json.loads(json.dumps(checkpoint_to_dict(first.checkpoint))))
    second = train(cfg, resume_from=restored, record_weight_trace=True)
    stitched_records = [json.loads(line) for line in log_to_jsonl(first).splitlines()[1:-1]]
    stitched_records += [json.loads(line) for line in log_to_jsonl(second).splitlines()[1:-1]]
    full_records = [json.loads(line) for line in log_to_jsonl(full).splitlines()[1:-1]]
    resume_exact = (
        stitched_records == full_records
        and traces_bit_identical(first.weight_trace + second.weight_trace, full.weight_trace)
        and all(
            np.array_equal(full.final_weights[k], second.final_weights[k])
            for k in full.final_weights
        )
    )
    check(10, "identical configs give byte-identical outputs; mid-run save/restore is bit-exact", same_bytes and cli_same and resume_exact)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
