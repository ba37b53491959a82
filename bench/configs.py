"""Workload inputs as plain config trees, derived from the workload seed.

This module imports nothing outside the standard library, so the set-up
probe can load it before it starts timing the import of ``novobench``.
Shapes, step counts and operation counts never depend on the seed; only
data, matrices, run seeds and the resume step do.
"""

from __future__ import annotations

SWEEP_POINTS = 7
SWEEP_LR_MIN = 1e-3
SWEEP_LR_MAX = 1.0
SWEEP_STEPS = 150

COMPARE_STEPS = 300
COMPARE_ALGORITHMS = ("novograd", "adam", "adamw", "sgd", "sngd")
COMPARE_LRS = {"novograd": 0.05, "adam": 0.01, "adamw": 0.01, "sgd": 0.1, "sngd": 0.05}

# verify-battery sizes
POW2_STEPS = 100
RESUME_STEPS = 60
RECURRENCE_STEPS = 100
GRADCHECK_TRIALS = 30

# The two known-fault operations run on fixed inputs, so they fail the same
# way whatever the seed.
FIXED_QUADRATIC = {"kind": "quadratic", "dim": 256, "matrix_seed": 0}
FIXED_RUN_SEED = 0
EXTREME_EXPONENT = 600
OVERFLOW_SCALE = 1e308

# The instances `novobench gradcheck <kind>` uses.
GRADCHECK_PROBLEMS = {
    "mlp": {"task": "multiclass-blobs", "size": 64, "dim": 3, "n_classes": 3, "hidden": 8},
    "logreg": {"task": "two-gaussians", "size": 64, "dim": 3},
}


def sweep_tree(seed: int) -> dict:
    """`novobench sweep` config: NovoGrad on the wide MLP over a 7-point log grid."""
    return {
        "problem": {
            "kind": "mlp",
            "dim": 32,
            "hidden": 256,
            "size": 2000,
            "n_classes": 3,
            "dataset_seed": seed,
        },
        "optimizer": {"algorithm": "novograd"},
        "schedule": {"base_lr": 0.01},
        "batch_size": 64,
        "total_steps": SWEEP_STEPS,
        "seed": seed,
        "log_every": 50,
        "sweep": {"lr_min": SWEEP_LR_MIN, "lr_max": SWEEP_LR_MAX, "points": SWEEP_POINTS, "spacing": "log"},
    }


def compare_tree(seed: int) -> dict:
    """`novobench compare` config: five optimizers on the default (tiny) MLP."""
    optimizers = []
    for algorithm in COMPARE_ALGORITHMS:
        entry = {"algorithm": algorithm, "base_lr": COMPARE_LRS[algorithm]}
        if algorithm != "sngd":  # sngd has no weight decay
            entry["weight_decay"] = 0.0
        optimizers.append(entry)
    return {
        "problem": {"kind": "mlp", "dataset_seed": seed},
        "optimizers": optimizers,
        "schedule": {"base_lr": 0.05},
        "larc": {},
        "batch_size": 8,
        "accumulation_factor": 4,
        "total_steps": COMPARE_STEPS,
        "seed": seed,
        "log_every": 1,
    }


def pow2_tree(seed: int) -> dict:
    """NovoGrad with eps=0 on a random SPD quadratic of dim 256, logged every step."""
    return {
        "problem": {"kind": "quadratic", "dim": 256, "matrix_seed": seed},
        "optimizer": {"algorithm": "novograd", "epsilon": 0.0},
        "schedule": {"base_lr": 0.05},
        "total_steps": POW2_STEPS,
        "seed": seed,
        "log_every": 1,
    }


def pow2_exponents(seed: int) -> tuple[int, int]:
    """One negative and one positive mid-range power of two."""
    return -(10 + seed % 31), 10 + (seed // 31) % 31


def resume_tree(seed: int, algorithm: str) -> dict:
    """A short run on the default MLP that is stopped and resumed."""
    return {
        "problem": {"kind": "mlp", "dataset_seed": seed},
        "optimizer": {"algorithm": algorithm},
        "schedule": {"base_lr": 0.05 if algorithm == "novograd" else 0.01},
        "batch_size": 16,
        "accumulation_factor": 2 if algorithm == "adam" else 1,
        "total_steps": RESUME_STEPS,
        "seed": seed,
        "log_every": 1,
    }


def resume_step(seed: int) -> int:
    """The step the resume round trip stops before, in [1, RESUME_STEPS - 2]."""
    return 1 + seed % (RESUME_STEPS - 2)


def recurrence_tree(seed: int) -> dict:
    """NovoGrad on the default MLP, logged every step, LARC off so that the
    logged grad norms are the norms NovoGrad's v sees."""
    return {
        "problem": {"kind": "mlp", "dataset_seed": seed},
        "optimizer": {"algorithm": "novograd", "beta2": 0.25},
        "schedule": {"base_lr": 0.05},
        "batch_size": 16,
        "total_steps": RECURRENCE_STEPS,
        "seed": seed,
        "log_every": 1,
    }
