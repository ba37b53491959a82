"""The benchmark's three workloads: a timed body and the checks of its outputs.

A workload is built from the seed.  Its body is one round of work through
the public API of ``novobench``; ``check`` verifies a round's outputs
against independent references, and ``digest`` fingerprints them, so that
every later round (traced or not) can be held to the first round's bytes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from novobench import cli, harness, problems
from novobench.harness import ProblemSpec, RunConfig
from novobench.schedule import ScheduleSpec

import checks
import configs

# Operations that fail today because of known faults; they stay in the
# workload and count as failed, so the change that mends one shows it.
KNOWN_FAULTS = {
    "pow2-extreme": "ROADMAP 4b: ||g||^2 overflows at gradient_scale 2**600, so the trajectory differs",
    "grad-overflow": "ROADMAP 4a: gradient_scale 1e308 raises ValueError instead of ending 'diverged'",
}


@dataclass
class Outcome:
    """What one round did, as established by its checks."""

    ops: int  # operations attempted
    failed: list[str]  # operations that failed
    errors: list[str]  # output-check failures outside KNOWN_FAULTS
    updates: int  # optimizer updates completed
    output_bytes: int  # bytes the CLI wrote


def _output_files(out: Path) -> list[Path]:
    return sorted(out.iterdir()) if out.is_dir() else []


class _CliWorkload:
    """A workload whose body is one `novobench` CLI command writing into `out`."""

    def __init__(self, command: str, tree: dict, workdir: Path, fmt: str):
        config_path = workdir / f"{command}.json"
        config_path.write_text(json.dumps(tree), encoding="utf-8")
        self.tree = tree
        self.out = workdir / f"{command}-out"
        self.argv = [command, "--config", str(config_path), "--out", str(self.out), "--format", fmt]

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def body(self) -> int:
        return cli.main(self.argv)

    def digest(self, code: int) -> bytes:
        return bytes([code & 0xFF]) + checks.files_digest(_output_files(self.out))

    def _problem_options(self) -> dict:
        return {k: v for k, v in self.tree["problem"].items() if k != "kind"}

    def _output_bytes(self) -> int:
        return sum(path.stat().st_size for path in _output_files(self.out))


class SweepWideMlp(_CliWorkload):
    name = "sweep-wide-mlp"

    def __init__(self, seed: int, workdir: Path):
        super().__init__("sweep", configs.sweep_tree(seed), workdir, "csv")

    def _standalone(self, lr: float) -> RunConfig:
        tree = self.tree
        steps = tree["total_steps"]
        return RunConfig(
            problem=ProblemSpec("mlp", self._problem_options()),
            algorithm="novograd",
            schedule=ScheduleSpec(base_lr=lr, total_steps=steps),
            batch_size=tree["batch_size"],
            total_steps=steps,
            seed=tree["seed"],
            log_every=tree["log_every"],
        )

    def check(self, code: int) -> Outcome:
        errors = [] if code == 0 else [f"novobench sweep exited {code}"]
        path = self.out / "sweep.csv"
        rows = checks.parse_sweep_csv(path.read_text(encoding="utf-8")) if path.is_file() else []
        if len(rows) > configs.SWEEP_POINTS:
            errors.append(f"sweep has {len(rows)} rows, expected {configs.SWEEP_POINTS}")
        data = problems.build("mlp", self._problem_options())
        results: dict[str, list[str]] = {}
        for i in range(configs.SWEEP_POINTS):
            if i >= len(rows):
                results[f"point-{i}"] = [f"sweep row {i} is missing"]
                continue
            row = rows[i]
            errs = checks.check_sweep_grid_point(i, row, configs.SWEEP_LR_MIN, configs.SWEEP_LR_MAX, configs.SWEEP_POINTS)
            log = harness.train(self._standalone(row["lr"]))
            errs += checks.check_sweep_row(row, [rec.loss for rec in log.records], log.termination)
            accuracy = checks.mlp_accuracy(log.final_weights, data.features, data.labels, data.hidden, data.n_classes)
            errs += checks.check_accuracy(f"sweep lr={row['lr']!r}", accuracy)
            results[f"point-{i}"] = errs
        failed = [name for name, errs in results.items() if errs]
        return Outcome(
            ops=configs.SWEEP_POINTS,
            failed=failed,
            errors=errors + [e for name in failed for e in results[name]],
            updates=configs.SWEEP_POINTS * configs.SWEEP_STEPS,
            output_bytes=self._output_bytes(),
        )


class CompareTinyAccum(_CliWorkload):
    name = "compare-tiny-accum"

    def __init__(self, seed: int, workdir: Path):
        super().__init__("compare", configs.compare_tree(seed), workdir, "jsonl")

    def check(self, code: int) -> Outcome:
        errors = [] if code == 0 else [f"novobench compare exited {code}"]
        data = problems.build("mlp", self._problem_options())
        results: dict[str, list[str]] = {}
        trajectories = {}
        for algorithm in configs.COMPARE_ALGORITHMS:
            path = self.out / f"trajectory_{algorithm}.jsonl"
            if not path.is_file():
                results[algorithm] = [f"{algorithm}: no trajectory file"]
                continue
            _, records, footer = checks.parse_jsonl(path.read_text(encoding="utf-8"))
            errs = checks.check_trajectory(algorithm, records, footer, configs.COMPARE_STEPS)
            accuracy = checks.mlp_accuracy(
                footer["final_weights"], data.features, data.labels, data.hidden, data.n_classes
            )
            errs += checks.check_accuracy(algorithm, accuracy)
            results[algorithm] = errs
            trajectories[algorithm] = (records, footer)
        # At weight decay 0 the adamw run must equal the adam run; a mismatch fails adamw.
        if "adam" in trajectories and "adamw" in trajectories:
            results["adamw"] += checks.check_identical_records("adam", trajectories["adam"], "adamw", trajectories["adamw"])
        failed = [name for name, errs in results.items() if errs]
        return Outcome(
            ops=len(configs.COMPARE_ALGORITHMS),
            failed=failed,
            errors=errors + [e for name in failed for e in results[name]],
            updates=len(configs.COMPARE_ALGORITHMS) * configs.COMPARE_STEPS,
            output_bytes=self._output_bytes(),
        )


def _scaled(cfg: RunConfig, scale: float) -> RunConfig:
    return replace(cfg, problem=replace(cfg.problem, gradient_scale=scale))


def _updates(log, start: int = 0) -> int:
    """Optimizer updates a run completed."""
    if log.termination == "completed":
        return log.config.total_steps - start
    if log.termination == "checkpoint":
        return log.checkpoint.step - start
    # diverged: the runs that can diverge log every step
    return log.records[-1].step + 1 - start if log.records else 0


class VerifyBattery:
    """The traffic of the acceptance and property tests, in process."""

    name = "verify-battery"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.pow2_cfg = cli.parse_run_config(configs.pow2_tree(seed))
        self.exponents = configs.pow2_exponents(seed)
        fixed_tree = configs.pow2_tree(configs.FIXED_RUN_SEED)
        fixed_tree["problem"] = dict(configs.FIXED_QUADRATIC)
        self.fixed_cfg = cli.parse_run_config(fixed_tree)
        self.resume_cfgs = {a: cli.parse_run_config(configs.resume_tree(seed, a)) for a in ("novograd", "adam")}
        self.stop = configs.resume_step(seed)
        self.recurrence_cfg = cli.parse_run_config(configs.recurrence_tree(seed))
        self.gradcheck = [
            ("mlp", configs.GRADCHECK_PROBLEMS["mlp"]),
            ("logreg", configs.GRADCHECK_PROBLEMS["logreg"]),
            ("quadratic", {"dim": 4, "matrix_seed": seed}),
        ]
        quadratic = harness.build_problem(self.pow2_cfg.problem)
        self.optimum = checks.quadratic_optimum(quadratic.a, quadratic.b)

    def prepare(self) -> None:
        pass

    def body(self) -> dict:
        r = {}
        r["gradcheck"] = [
            harness.grad_check(problems.build(kind, options), self.seed, configs.GRADCHECK_TRIALS)
            for kind, options in self.gradcheck
        ]
        r["pow2-base"] = harness.train(self.pow2_cfg)
        r["pow2-scaled"] = [harness.train(_scaled(self.pow2_cfg, 2.0**k)) for k in self.exponents]
        r["fixed-base"] = harness.train(self.fixed_cfg)
        r["pow2-extreme"] = harness.train(_scaled(self.fixed_cfg, 2.0**configs.EXTREME_EXPONENT))
        try:
            r["grad-overflow"] = harness.train(_scaled(self.fixed_cfg, configs.OVERFLOW_SCALE))
        except ValueError as err:
            # without its traceback, which would tie this round's results into a cycle
            r["grad-overflow"] = err.with_traceback(None)
        for algorithm, cfg in self.resume_cfgs.items():
            full = harness.train(cfg)
            stopped = harness.train(cfg, stop_after=self.stop)
            text = json.dumps(harness.checkpoint_to_dict(stopped.checkpoint))
            resumed = harness.train(cfg, resume_from=harness.checkpoint_from_dict(json.loads(text)))
            r[f"resume-{algorithm}"] = (full, stopped, resumed)
        r["v-recurrence"] = harness.train(self.recurrence_cfg)
        return r

    def _logs(self, r: dict):
        yield r["pow2-base"], 0
        for log in r["pow2-scaled"]:
            yield log, 0
        yield r["fixed-base"], 0
        yield r["pow2-extreme"], 0
        if not isinstance(r["grad-overflow"], Exception):
            yield r["grad-overflow"], 0
        for algorithm in self.resume_cfgs:
            full, stopped, resumed = r[f"resume-{algorithm}"]
            yield full, 0
            yield stopped, 0
            yield resumed, self.stop
        yield r["v-recurrence"], 0

    def digest(self, r: dict) -> bytes:
        hasher = hashlib.sha256()
        for report in r["gradcheck"]:
            hasher.update(repr((report.passed, [v.hex() for v in report.max_rel_error.values()])).encode())
        for log, _ in self._logs(r):
            checks.log_digest(hasher, log)
        if isinstance(r["grad-overflow"], Exception):
            hasher.update(repr(r["grad-overflow"]).encode())
        return hasher.digest()

    def check(self, r: dict) -> Outcome:
        results: dict[str, list[str]] = {}
        for (kind, _), report in zip(self.gradcheck, r["gradcheck"]):
            results[f"gradcheck-{kind}"] = (
                [] if report.passed else [f"gradcheck {kind}: max relative errors {report.max_rel_error}"]
            )
        base = r["pow2-base"]
        for name, k, log in zip(("pow2-low", "pow2-high"), self.exponents, r["pow2-scaled"]):
            results[name] = checks.check_pow2(f"{name} (2^{k})", base, log, k)
        results["quad-optimum"] = checks.check_above_optimum(
            "quad-optimum", [rec.loss for rec in base.records], self.optimum
        )
        results["pow2-extreme"] = checks.check_pow2(
            f"pow2-extreme (2^{configs.EXTREME_EXPONENT})", r["fixed-base"], r["pow2-extreme"], configs.EXTREME_EXPONENT
        )
        results["grad-overflow"] = checks.check_diverged("grad-overflow", r["grad-overflow"])
        for algorithm in self.resume_cfgs:
            full, _, resumed = r[f"resume-{algorithm}"]
            results[f"resume-{algorithm}"] = checks.check_resume(f"resume-{algorithm}", full, resumed, self.stop)
        log = r["v-recurrence"]
        results["v-recurrence"] = checks.check_v_recurrence(
            "v-recurrence",
            [(rec.step, rec.grad_norms, rec.second_moments) for rec in log.records],
            self.recurrence_cfg.hyperparams["beta2"],
            self.recurrence_cfg.total_steps,
        )
        failed = [name for name, errs in results.items() if errs]
        errors = [e for name in failed if name not in KNOWN_FAULTS for e in results[name]]
        return Outcome(
            ops=len(results),
            failed=failed,
            errors=errors,
            updates=sum(_updates(log, start) for log, start in self._logs(r)),
            output_bytes=0,
        )


WORKLOADS = {cls.name: cls for cls in (SweepWideMlp, CompareTinyAccum, VerifyBattery)}
