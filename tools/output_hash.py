"""Print one sha256 over a fixed matrix of novobench outputs.

A change that must leave every output bit for bit the same (a speed-up, a
refactor) prints the same digest as its parent:

    python3 tools/output_hash.py                      # this checkout's src/
    python3 tools/output_hash.py --src ../parent/src  # another checkout's package

The digest covers eight sets of outputs, each fed to the hash in a fixed
order:

- ``train``: 200 ``train()`` runs serialized with ``log_to_jsonl``
  ({quadratic dim 16, rosenbrock, logreg with ``train_fraction`` 0.8, the
  default mlp, mlp dim 8 / hidden 32 / 4 classes} x 5 algorithms x
  accumulation {1, 3} x LARC {off, on} x ``gradient_scale`` {1, 2^-20}),
  plus one stop / JSON checkpoint / resume round trip per algorithm;
- ``grad_check``: one ``grad_check`` report per problem above;
- ``grids``: the files and exit codes of ``novobench run`` (csv and
  jsonl, with LARC, hyperparameters and problem options, and one run that
  diverges), ``novobench compare`` and ``novobench sweep`` (csv and
  jsonl, a loss threshold, custom and duplicate labels, divergent rows and
  points), and a ``compare_runs`` call that mixes batch sizes,
  accumulation factors, step counts and log intervals;
- ``accumulation``: 40 ``train()`` runs with long accumulation ({logreg,
  the default mlp} x 5 algorithms x accumulation {8, 9} x LARC {off, on}),
  a ``compare_runs`` call of all five algorithms on float32 MLP weights
  with accumulation 4 and 9, and one stop / resume round trip per
  algorithm at accumulation 9 (logreg) and 8 (mlp in float32);
- ``states``: the optimizer state after each of 8 ``OptimizerDriver``
  steps on a 3-layer model ({float64, float32} x {5 algorithms, NovoGrad
  with ``ams``, with the EMA first moment and with decoupled decay, Adam,
  AdamW and SGD with weight decay}), as ``json.dumps(state_dict())``,
  ``second_moments`` and the weights; layer 0 has a zero gradient at step
  0 and layer 1 at steps 0-1, so NovoGrad initializes its layers out of
  model order; before step 4 the state goes through JSON, is saved again
  before it binds, and moves to a copy of the model; plus an SNGD MLP run
  resumed from its JSON checkpoint at step 4 and stopped again at step 9,
  as that checkpoint's JSON and the run's log;
- ``wide``: a float64 and a float32 (accumulation 3, LARC) 7-point
  NovoGrad ``lr_sweep`` at the layer sizes of the benchmark's wide MLP
  (dim 32 / hidden 256 / size 2000, batch 64);
- ``serializers``: ``log_to_jsonl`` and ``log_to_csv``, without and with
  ``include_timing`` (each ``wall_time_ns`` masked to 0), of 25 ``train()``
  logs: per algorithm an MLP run at accumulation 3 with LARC, the same run
  stopped before step 0, a Rosenbrock run that diverges at step 0
  (``gradient_scale`` 1e308), and an MLP run from weights with ``w2``
  zeroed, so ``w1`` and ``b1`` have a zero gradient at step 0 (NovoGrad
  leaves their ``v`` cells empty); plus one float32 MLP run per algorithm
  at accumulation 2 with LARC;
- ``stacks``: multi-row grids whose rows of one algorithm and config step
  as one stack, in float64 and float32, for every algorithm and for
  NovoGrad with ``ams``, the EMA first moment and decoupled decay: a
  6-point ``lr_sweep`` of the default MLP (its largest rate diverges
  mid-run, except for float32 SNGD), the same sweep at accumulation 2
  with LARC from weights with ``w2`` zeroed (the rates whose steps leave
  ``w2`` at zero defer NovoGrad's init of ``w1`` and ``b1`` for their rows
  only), and a ``compare_runs`` grid of one config whose rows end at steps
  6, 9 and 12, with LARC on two of them, one at that largest rate.

The per-set digests go to standard error.  BLAS is capped at one thread;
equal digests are expected on one machine and numpy/BLAS build only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

PROBLEMS = [
    ("quadratic", {"dim": 16}),
    ("rosenbrock", {}),
    ("logreg", {"train_fraction": 0.8}),
    ("mlp", {}),
    ("mlp", {"dim": 8, "hidden": 32, "n_classes": 4}),
]
BASE_LR = {"novograd": 0.05, "adam": 0.01, "adamw": 0.01, "sgd": 0.02, "sngd": 0.05}
STEPS = 20


def _config(kind, options, algorithm, **kwargs):
    from novobench import harness
    from novobench.schedule import ScheduleSpec

    steps = kwargs.pop("total_steps", STEPS)
    fields = dict(
        problem=harness.ProblemSpec(kind, dict(options), kwargs.pop("gradient_scale", 1.0)),
        algorithm=algorithm,
        schedule=ScheduleSpec(base_lr=kwargs.pop("base_lr", BASE_LR[algorithm]), total_steps=steps, warmup_steps=2),
        batch_size=8,
        total_steps=steps,
        seed=3,
        log_every=3,
    )
    fields.update(kwargs)
    return harness.RunConfig(**fields)


def train_outputs(h):
    from novobench import harness
    from novobench.optim import ALGORITHMS
    from novobench.schedule import LarcConfig

    for kind, options in PROBLEMS:
        for algorithm in ALGORITHMS:
            for accumulation in (1, 3):
                for larc in (None, LarcConfig()):
                    for scale in (1.0, 2.0**-20):
                        cfg = _config(
                            kind, options, algorithm, accumulation_factor=accumulation, larc=larc, gradient_scale=scale
                        )
                        h.update(harness.log_to_jsonl(harness.train(cfg)).encode())
    for algorithm in ALGORITHMS:
        _resume_outputs(h, _config("mlp", {}, algorithm, accumulation_factor=2, larc=LarcConfig()))


def grad_check_outputs(h):
    from novobench import harness, problems

    for kind, options in PROBLEMS:
        report = harness.grad_check(problems.build(kind, options), seed=0, trials=3)
        h.update(repr((report.problem_kind, report.trials, report.tolerance, report.max_rel_error, report.passed)).encode())


CLI_CASES = [
    (
        "compare",
        "jsonl",
        {
            "problem": {"kind": "mlp", "dataset_seed": 2},
            "optimizers": [
                {"algorithm": "novograd"},
                {"algorithm": "adam", "base_lr": 0.01},
                {"algorithm": "adam", "base_lr": 0.02},
                {"algorithm": "sgd", "label": "my sgd", "base_lr": 0.1},
                {"algorithm": "sngd", "label": "n-1"},
            ],
            "schedule": {"base_lr": 0.05},
            "larc": {},
            "loss_threshold": 0.9,
            "batch_size": 8,
            "accumulation_factor": 2,
            "total_steps": 40,
            "seed": 1,
            "log_every": 5,
        },
    ),
    (
        "compare",
        "csv",
        {
            "problem": {"kind": "quadratic", "dim": 8, "matrix_seed": 1},
            "optimizers": [{"algorithm": "sgd", "base_lr": 1e6}, {"algorithm": "novograd"}, {"algorithm": "adamw"}],
            "schedule": {"base_lr": 0.05, "family": "constant"},
            "loss_threshold": -0.5,
            "total_steps": 60,
            "log_every": 4,
        },
    ),
    (
        "sweep",
        "csv",
        {
            "problem": {"kind": "logreg", "size": 100},
            "optimizer": {"algorithm": "sgd", "momentum": 0.9},
            "schedule": {"base_lr": 0.1, "family": "constant"},
            "batch_size": 4,
            "accumulation_factor": 3,
            "total_steps": 30,
            "log_every": 7,
            "sweep": {"lr_grid": [1e-3, 0.1, 10.0, 1e300]},
        },
    ),
    (
        "sweep",
        "jsonl",
        {
            "problem": {"kind": "quadratic", "diag": [1.0, 4.0, 9.0], "w0": [1.0, -2.0, 3.0]},
            "optimizer": {"algorithm": "sgd", "momentum": 0.5},
            "schedule": {"base_lr": 0.1, "family": "constant"},
            "accumulation_factor": 2,
            "total_steps": 80,
            "log_every": 1,
            "sweep": {"lr_grid": [0.01, 0.2, 1e3, 1e8]},
        },
    ),
    (
        "sweep",
        "csv",
        {
            "problem": {"kind": "mlp", "hidden": 24},
            "optimizer": {"algorithm": "novograd", "weight_decay": 0.001},
            "schedule": {"base_lr": 0.1},
            "larc": {"clip": False},
            "total_steps": 30,
            "log_every": 10,
            "sweep": {"lr_min": 1e-3, "lr_max": 10.0, "points": 6, "spacing": "log"},
        },
    ),
    (
        "sweep",
        "csv",
        {
            "problem": {"kind": "rosenbrock"},
            "optimizer": {"algorithm": "adam"},
            "schedule": {"base_lr": 0.1, "family": "polynomial", "power": 2.0},
            "total_steps": 50,
            "log_every": 10,
            "sweep": {"lr_min": 0.01, "lr_max": 2.0, "points": 4, "spacing": "linear"},
        },
    ),
    (
        "run",
        "csv",
        {
            "problem": {"kind": "mlp", "hidden": 12, "dataset_seed": 3, "train_fraction": 0.75, "gradient_scale": 0.5},
            "optimizer": {"algorithm": "novograd", "beta2": 0.5, "ams": True, "weight_decay": 0.001},
            "schedule": {"base_lr": 0.05, "family": "polynomial", "power": 2.0, "warmup_steps": 3},
            "larc": {"clip": False, "trust_coefficient": 0.01},
            "batch_size": 8,
            "accumulation_factor": 2,
            "total_steps": 25,
            "seed": 4,
            "log_every": 3,
        },
    ),
    (
        "run",
        "jsonl",
        {
            "problem": {"kind": "logreg", "size": 80, "dim": 3, "separation": 2.0, "noise": 0.5},
            "optimizer": {"algorithm": "adamw", "weight_decay": 0.01, "bias_correction": False},
            "schedule": {"base_lr": 0.02, "min_lr": 0.001},
            "larc": {},
            "batch_size": 4,
            "total_steps": 20,
            "log_every": 4,
        },
    ),
    (
        "run",
        "jsonl",
        {
            "problem": {"kind": "quadratic", "dim": 6, "matrix_seed": 2, "b_scale": 3.0, "gradient_scale": 2.0**-10},
            "optimizer": {"algorithm": "sgd", "momentum": 0.5},
            "schedule": {"base_lr": 1e30, "family": "constant"},
            "larc": None,
            "total_steps": 40,
            "log_every": 5,
        },
    ),
]


def grid_outputs(h):
    from novobench import cli, harness
    from novobench.schedule import LarcConfig

    with tempfile.TemporaryDirectory() as tmp:
        for i, (command, fmt, tree) in enumerate(CLI_CASES):
            config = Path(tmp) / f"case{i}.json"
            config.write_text(json.dumps(tree), encoding="utf-8")
            out = Path(tmp) / f"out{i}"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--config", str(config), "--out", str(out), "--format", fmt])
            h.update(f"{command} {fmt} exit {code}\n".encode())
            for path in sorted(out.iterdir()):
                h.update(path.name.encode() + b"\n" + path.read_bytes())

    options = {"size": 64, "dim": 3, "n_classes": 3, "hidden": 6}
    variants = [
        ("novograd", dict(batch_size=4)),
        ("adam", dict(batch_size=8, accumulation_factor=3, larc=LarcConfig())),
        ("adamw", dict(batch_size=4, total_steps=25, log_every=1)),
        ("sgd", dict(batch_size=8, accumulation_factor=3, base_lr=1e308)),
        ("sngd", dict(batch_size=4, accumulation_factor=3, total_steps=11, log_every=2, larc=LarcConfig(clip=False))),
        ("novograd", dict(batch_size=4, hyperparams={"ams": True}, base_lr=0.2)),
    ]
    cfgs = [_config("mlp", options, a, **kw) for a, kw in variants]
    rows, logs = harness.compare_runs(cfgs, loss_threshold=1.0)
    h.update(harness.comparison_to_csv(rows).encode())
    for log in logs:
        h.update(harness.log_to_jsonl(log).encode())


@contextlib.contextmanager
def _float32_mlp():
    """MLP models start in float32 (the reduced-precision mode) within the block."""
    from novobench.params import ModelParams, ParameterLayer
    from novobench.problems import MlpProblem

    original = MlpProblem.init_params

    def init_params(self, rng):
        params = original(self, rng)
        return ModelParams([ParameterLayer(layer.id, layer.weights.astype("float32")) for layer in params])

    MlpProblem.init_params = init_params
    try:
        yield
    finally:
        MlpProblem.init_params = original


def _resume_outputs(h, cfg):
    from novobench import harness

    first = harness.train(cfg, stop_after=7)
    doc = json.dumps(harness.checkpoint_to_dict(first.checkpoint), sort_keys=True)
    second = harness.train(cfg, resume_from=harness.checkpoint_from_dict(json.loads(doc)))
    for text in (harness.log_to_jsonl(first), doc, harness.log_to_jsonl(second)):
        h.update(text.encode())


def accumulation_outputs(h):
    from novobench import harness
    from novobench.optim import ALGORITHMS
    from novobench.schedule import LarcConfig

    for kind, options in (PROBLEMS[2], PROBLEMS[3]):
        for algorithm in ALGORITHMS:
            for accumulation in (8, 9):
                for larc in (None, LarcConfig()):
                    cfg = _config(kind, options, algorithm, accumulation_factor=accumulation, larc=larc)
                    h.update(harness.log_to_jsonl(harness.train(cfg)).encode())
    with _float32_mlp():
        cfgs = [
            _config("mlp", {}, a, accumulation_factor=k, larc=LarcConfig(), total_steps=12, log_every=1)
            for a in ALGORITHMS
            for k in (4, 9)
        ]
        rows, logs = harness.compare_runs(cfgs, loss_threshold=1.0)
        h.update(harness.comparison_to_csv(rows).encode())
        for log in logs:
            h.update(harness.log_to_jsonl(log).encode())
        for algorithm in ALGORITHMS:
            _resume_outputs(h, _config("mlp", {}, algorithm, accumulation_factor=8, larc=LarcConfig()))
    for algorithm in ALGORITHMS:
        _resume_outputs(h, _config(*PROBLEMS[2], algorithm, accumulation_factor=9))


def state_outputs(h):
    import numpy as np

    from novobench import harness
    from novobench.optim import ALGORITHMS, OptimizerDriver, make_config
    from novobench.params import ModelParams, ParameterLayer

    decay = {"weight_decay": 0.01}
    variants = [(a, {}) for a in ALGORITHMS] + [
        ("novograd", {"ams": True}),
        ("novograd", {"first_moment_style": "ema", **decay}),
        ("novograd", {"wd_placement": "decoupled_update", **decay}),
        ("adam", decay),
        ("adamw", decay),
        ("sgd", decay),
    ]
    for dtype in ("float64", "float32"):
        for algorithm, hyperparams in variants:
            rng = np.random.default_rng(5)
            layers = [ParameterLayer(f"l{i}", rng.standard_normal(n).astype(dtype)) for i, n in enumerate((3, 2, 4))]
            params = ModelParams(layers)
            driver = OptimizerDriver(algorithm, make_config(algorithm, hyperparams))
            for step in range(8):
                if step == 4:  # resume from the JSON state on a copy of the model, saved again before it binds
                    driver = OptimizerDriver.from_state_dict(json.loads(json.dumps(driver.state_dict())))
                    params = params.copy()
                    h.update(json.dumps(driver.state_dict()).encode())
                params.grad[...] = rng.standard_normal(params.grad.size)
                if step == 0:
                    layers[0].grad[...] = 0.0
                if step <= 1:
                    layers[1].grad[...] = 0.0
                driver.step(params, 0.05)
                h.update(json.dumps(driver.state_dict()).encode())
                h.update(repr(driver.second_moments(params)).encode())
                h.update(params.weights.tobytes())
    # SNGD keeps no state: resumed from a checkpoint and stopped again, it saves an empty one
    cfg = _config("mlp", {}, "sngd", accumulation_factor=2)
    first = harness.train(cfg, stop_after=4)
    resume = harness.checkpoint_from_dict(json.loads(json.dumps(harness.checkpoint_to_dict(first.checkpoint))))
    second = harness.train(cfg, resume_from=resume, stop_after=9)
    h.update(json.dumps(harness.checkpoint_to_dict(second.checkpoint), sort_keys=True).encode())
    h.update(harness.log_to_jsonl(second).encode())


def _sweep_outputs(h, cfg, lrs):
    from novobench import harness

    rows, logs = harness.lr_sweep(cfg, lrs)
    h.update(harness.sweep_to_csv(rows).encode())
    for log in logs:
        h.update(harness.log_to_jsonl(log).encode())


def wide_outputs(h):
    import numpy as np

    from novobench.schedule import LarcConfig

    lrs = np.geomspace(1e-3, 1.0, 7).tolist()
    wide = {"dim": 32, "hidden": 256, "size": 2000, "dataset_seed": 4}
    _sweep_outputs(h, _config("mlp", wide, "novograd", batch_size=64, total_steps=30, log_every=5), lrs)
    with _float32_mlp():
        cfg = _config(
            "mlp", wide, "novograd", batch_size=64, total_steps=12, log_every=4, accumulation_factor=3, larc=LarcConfig()
        )
        _sweep_outputs(h, cfg, lrs)


def _zero_w2_log(cfg):
    """``cfg`` trained from its initial weights with ``w2`` zeroed: ``w1`` and
    ``b1`` get a zero gradient at step 0, so NovoGrad starts their ``v`` late."""
    import numpy as np

    from novobench import harness
    from novobench.optim import OptimizerDriver, make_config

    params = harness.build_problem(cfg.problem).init_params(np.random.default_rng(0))
    weights = {layer.id: layer.weights for layer in params}
    weights["w2"][...] = 0.0
    fresh = OptimizerDriver(cfg.algorithm, make_config(cfg.algorithm, cfg.hyperparams)).state_dict()
    return harness.train(cfg, resume_from=harness.Checkpoint(0, weights, fresh))


def serializer_outputs(h):
    import re

    from novobench import harness
    from novobench.optim import ALGORITHMS
    from novobench.schedule import LarcConfig

    logs = []
    for algorithm in ALGORITHMS:
        cfg = _config(*PROBLEMS[4], algorithm, accumulation_factor=3, larc=LarcConfig(), log_every=2)
        logs.append(harness.train(cfg))
        logs.append(harness.train(cfg, stop_after=0))
        logs.append(harness.train(_config("rosenbrock", {}, algorithm, gradient_scale=1e308)))
        logs.append(_zero_w2_log(_config("mlp", {}, algorithm, log_every=1, total_steps=6)))
    with _float32_mlp():
        logs += [harness.train(_config("mlp", {}, a, accumulation_factor=2, larc=LarcConfig())) for a in ALGORITHMS]
    for log in logs:
        h.update(harness.log_to_jsonl(log).encode())
        h.update(harness.log_to_csv(log).encode())
        # wall_time_ns is the last key of a record and the last CSV column
        h.update(re.sub(r'"wall_time_ns":\d+', '"wall_time_ns":0', harness.log_to_jsonl(log, True)).encode())
        h.update(re.sub(r",\d+$", ",0", harness.log_to_csv(log, True), flags=re.M).encode())


# every algorithm, and NovoGrad with ams, the EMA first moment and decoupled decay
STACK_VARIANTS = [(a, {}) for a in ("novograd", "adam", "adamw", "sgd", "sngd")] + [
    ("novograd", {"ams": True}),
    ("novograd", {"first_moment_style": "ema", "weight_decay": 0.01}),
    ("novograd", {"wd_placement": "decoupled_update", "weight_decay": 0.01}),
]
# a rate whose steps underflow (0 in float32), a tiny one, two usual ones, a huge one
# and one whose row diverges mid-run (float64 at its second step, float32 later)
STACK_LRS = {"float64": [5e-324, 1e-50, 0.003, 0.05, 1e300, 1e308], "float32": [1e-50, 1e-30, 0.003, 0.05, 1e30, 1e38]}


@contextlib.contextmanager
def _zero_w2_mlp():
    """MLP models start with ``w2`` zeroed within the block: ``w1`` and ``b1``
    get a zero gradient until ``w2`` moves, so NovoGrad defers their init, and
    a rate that leaves ``w2`` at zero defers it for that row only."""
    from novobench.problems import MlpProblem

    original = MlpProblem.init_params

    def init_params(self, rng):
        params = original(self, rng)
        params.layer("w2").weights[...] = 0.0
        return params

    MlpProblem.init_params = init_params
    try:
        yield
    finally:
        MlpProblem.init_params = original


def stack_outputs(h):
    from dataclasses import replace

    from novobench import harness
    from novobench.schedule import LarcConfig

    for dtype, precision in (("float64", contextlib.nullcontext), ("float32", _float32_mlp)):
        lrs = STACK_LRS[dtype]
        with precision():
            for algorithm, hyperparams in STACK_VARIANTS:
                cfg = _config("mlp", {}, algorithm, hyperparams=hyperparams, total_steps=12, log_every=1)
                _sweep_outputs(h, cfg, lrs)
                with _zero_w2_mlp():
                    _sweep_outputs(h, replace(cfg, accumulation_factor=2, larc=LarcConfig()), lrs)
                # rows of one config ending at different steps, LARC on some, one diverging
                runs = [(6, 0.01, None), (9, 0.05, LarcConfig()), (12, 0.02, None), (9, lrs[-1], LarcConfig(clip=False))]
                cfgs = [
                    _config("mlp", {}, algorithm, hyperparams=hyperparams, total_steps=n, base_lr=lr, log_every=2, larc=larc)
                    for n, lr, larc in runs
                ]
                rows, logs = harness.compare_runs(cfgs, loss_threshold=1.0)
                h.update(harness.comparison_to_csv(rows).encode())
                for log in logs:
                    h.update(harness.log_to_jsonl(log).encode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(REPO_SRC), help="directory holding the novobench package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    total = hashlib.sha256()
    parts = (
        ("train", train_outputs),
        ("grad_check", grad_check_outputs),
        ("grids", grid_outputs),
        ("accumulation", accumulation_outputs),
        ("states", state_outputs),
        ("wide", wide_outputs),
        ("serializers", serializer_outputs),
        ("stacks", stack_outputs),
    )
    for name, part in parts:
        h = hashlib.sha256()
        part(h)
        print(f"{name} {h.hexdigest()}", file=sys.stderr)
        total.update(h.digest())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
