"""Output checks, written against plain data so each can be shown to fail.

Every check returns a list of error strings (empty means it passed).  The
references are independent computations or required properties: the
benchmark's own MLP forward pass, its own linear solve, the NovoGrad ``v``
recurrence recomputed in plain Python, and bit-for-bit comparison with a
second run of the program.  No check reads a saved copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Stated training accuracy every trained MLP must reach (the workloads'
# blob classes are well separated, so a working optimizer reaches it well
# within the step budget).
MIN_TRAIN_ACCURACY = 0.95
RECURRENCE_RTOL = 1e-12
# Slack for rounding when comparing a loss with the quadratic's optimum.
OPTIMUM_RTOL = 1e-9


def same_float(a: float, b: float) -> bool:
    """Bit-for-bit float equality (NaNs with equal bits compare equal)."""
    return float(a).hex() == float(b).hex()


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mlp_accuracy(weights: dict, features: np.ndarray, labels: np.ndarray, hidden: int, n_classes: int) -> float:
    """Training accuracy of a one-hidden-layer tanh MLP with layers
    w1 (dim x hidden, row-major), b1, w2 (hidden x n_classes), b2."""
    dim = features.shape[1]
    w1 = np.asarray(weights["w1"], dtype=np.float64).reshape(dim, hidden)
    w2 = np.asarray(weights["w2"], dtype=np.float64).reshape(hidden, n_classes)
    b1 = np.asarray(weights["b1"], dtype=np.float64)
    b2 = np.asarray(weights["b2"], dtype=np.float64)
    logits = np.tanh(features @ w1 + b1) @ w2 + b2
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def check_accuracy(label: str, accuracy: float, minimum: float = MIN_TRAIN_ACCURACY) -> list[str]:
    if not accuracy >= minimum:
        return [f"{label}: training accuracy {accuracy:.4f} is below {minimum}"]
    return []


def parse_sweep_csv(text: str) -> list[dict]:
    """Rows of `sweep.csv` after the `# config:` echo line and the header."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# config: "):
        raise ValueError("sweep.csv lacks its config echo line")
    if lines[1] != "lr,final_loss,best_loss,diverged":
        raise ValueError(f"unexpected sweep.csv header: {lines[1]!r}")
    rows = []
    for line in lines[2:]:
        lr, final, best, diverged = line.split(",")
        rows.append({"lr": float(lr), "final_loss": float(final), "best_loss": float(best), "diverged": diverged})
    return rows


def check_sweep_grid_point(i: int, row: dict, lr_min: float, lr_max: float, points: int) -> list[str]:
    """Row i holds grid point lr_min * (lr_max/lr_min)^(i/(points-1))."""
    expected = lr_min * (lr_max / lr_min) ** (i / (points - 1))
    if not math.isclose(row["lr"], expected, rel_tol=1e-12):
        return [f"sweep row {i}: lr {row['lr']!r} is not grid point {expected!r}"]
    return []


def check_sweep_row(row: dict, losses: list[float], termination: str) -> list[str]:
    """A sweep row equals a standalone run at its lr, bit for bit, and the
    run completed with a final loss below its step-0 loss."""
    label = f"sweep lr={row['lr']!r}"
    errors = []
    if row["diverged"] != "false" or termination != "completed":
        errors.append(f"{label}: did not complete (diverged={row['diverged']}, standalone {termination})")
    if not losses:
        return errors + [f"{label}: standalone run logged nothing"]
    if not same_float(row["final_loss"], losses[-1]):
        errors.append(f"{label}: final_loss {row['final_loss']!r} != standalone {losses[-1]!r}")
    if not same_float(row["best_loss"], min(losses)):
        errors.append(f"{label}: best_loss {row['best_loss']!r} != standalone {min(losses)!r}")
    if not row["final_loss"] < losses[0]:
        errors.append(f"{label}: final loss {row['final_loss']!r} not below step-0 loss {losses[0]!r}")
    return errors


def parse_jsonl(text: str) -> tuple[dict, list[str], dict]:
    """Split a JSONL trajectory into (header, raw record lines, footer)."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("trajectory has no footer")
    return json.loads(lines[0]), lines[1:-1], json.loads(lines[-1])


def check_trajectory(label: str, records: list[str], footer: dict, total_steps: int) -> list[str]:
    """A completed run logged at every step has one record per update."""
    errors = []
    if footer.get("termination") != "completed":
        errors.append(f"{label}: termination {footer.get('termination')!r}")
    steps = [json.loads(line)["step"] for line in records]
    if steps != list(range(total_steps)):
        errors.append(f"{label}: {len(steps)} records for {total_steps} updates")
    losses = [json.loads(line)["loss"] for line in records]
    if not all(isinstance(x, float) and math.isfinite(x) for x in losses):
        errors.append(f"{label}: non-finite loss in records")
    return errors


def check_identical_records(label_a: str, a: tuple[list[str], dict], label_b: str, b: tuple[list[str], dict]) -> list[str]:
    """Two trajectories agree record for record and in their final weights."""
    (rec_a, foot_a), (rec_b, foot_b) = a, b
    if len(rec_a) != len(rec_b):
        return [f"{label_a}/{label_b}: {len(rec_a)} vs {len(rec_b)} records"]
    for i, (x, y) in enumerate(zip(rec_a, rec_b)):
        if x != y:
            return [f"{label_a}/{label_b}: record {i} differs"]
    if foot_a != foot_b:
        return [f"{label_a}/{label_b}: final weights differ"]
    return []


def _record_fields(rec) -> tuple:
    return (rec.step, rec.lr_effective, rec.loss, rec.grad_norms, rec.second_moments)


def records_equal(a, b) -> bool:
    """MetricsRecord lists equal bit for bit, ignoring wall-clock time."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        sa, la, lossa, ga, va = _record_fields(ra)
        sb, lb, lossb, gb, vb = _record_fields(rb)
        if sa != sb or not same_float(la, lb) or not same_float(lossa, lossb):
            return False
        if ga.keys() != gb.keys() or not all(same_float(ga[k], gb[k]) for k in ga):
            return False
        if (va is None) != (vb is None):
            return False
        if va is not None and (va.keys() != vb.keys() or not all(same_float(va[k], vb[k]) for k in va)):
            return False
    return True


def weights_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(same_array(a[k], b[k]) for k in a)


def check_pow2(label: str, base, scaled, exponent: int) -> list[str]:
    """Scaling the gradient stream by 2^k with eps=0 leaves the trajectory
    bit-identical: equal losses and weights, grad norms times 2^k exactly,
    second moments times 4^k exactly."""
    factor = 2.0**exponent
    if base.termination != scaled.termination:
        return [f"{label}: termination {scaled.termination} vs {base.termination}"]
    if len(base.records) != len(scaled.records):
        return [f"{label}: {len(scaled.records)} vs {len(base.records)} records"]
    for rb, rs in zip(base.records, scaled.records):
        if not same_float(rb.loss, rs.loss):
            return [f"{label}: loss differs at step {rb.step}"]
        for lid, n in rb.grad_norms.items():
            if not same_float(n * factor, rs.grad_norms[lid]):
                return [f"{label}: grad norm of {lid} not scaled by 2^{exponent} at step {rb.step}"]
        for lid, v in (rb.second_moments or {}).items():
            if not same_float(v * factor * factor, (rs.second_moments or {}).get(lid, math.nan)):
                return [f"{label}: v of {lid} not scaled by 4^{exponent} at step {rb.step}"]
    if not weights_equal(base.final_weights, scaled.final_weights):
        return [f"{label}: final weights differ"]
    return []


def quadratic_optimum(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum of 0.5 w'Aw - b'w, from the benchmark's own solve."""
    w = np.linalg.solve(a, b)
    return float(0.5 * (w @ (a @ w)) - b @ w)


def check_above_optimum(label: str, losses: list[float], optimum: float) -> list[str]:
    errors = []
    floor = optimum - OPTIMUM_RTOL * max(1.0, abs(optimum))
    low = min(losses)
    if not low >= floor:
        errors.append(f"{label}: loss {low!r} below the optimum {optimum!r}")
    if not losses[-1] < losses[0]:
        errors.append(f"{label}: final loss {losses[-1]!r} not below initial {losses[0]!r}")
    return errors


def check_resume(label: str, full, resumed, stop: int) -> list[str]:
    """A run stopped at `stop` and resumed from its JSON checkpoint equals
    the uninterrupted run bit for bit."""
    if resumed.termination != "completed" or full.termination != "completed":
        return [f"{label}: terminations {full.termination}/{resumed.termination}"]
    tail = [rec for rec in full.records if rec.step >= stop]
    if not records_equal(tail, resumed.records):
        return [f"{label}: resumed records differ from the uninterrupted run"]
    if not weights_equal(full.final_weights, resumed.final_weights):
        return [f"{label}: resumed final weights differ from the uninterrupted run"]
    return []


def check_v_recurrence(label: str, records: list[tuple[int, dict, dict]], beta2: float, total_steps: int) -> list[str]:
    """Each layer's logged v follows v_1 = n_1^2, v_t = b2*v_(t-1) + (1-b2)*n_t^2,
    with n_t the logged grad norm; records are (step, grad_norms,
    second_moments) of a run logged at every step."""
    if [step for step, _, _ in records] != list(range(total_steps)):
        return [f"{label}: {len(records)} records for {total_steps} updates"]
    previous: dict[str, float] = {}
    for step, norms, moments in records:
        for lid, v in moments.items():
            n = norms[lid]
            if lid in previous:
                expected = beta2 * previous[lid] + (1.0 - beta2) * n * n
            else:
                expected = n * n
            if not math.isclose(v, expected, rel_tol=RECURRENCE_RTOL, abs_tol=0.0):
                return [f"{label}: v of {lid} at step {step} is {v!r}, recurrence gives {expected!r}"]
            previous[lid] = v
    if not previous:
        return [f"{label}: no second moments logged"]
    return []


def check_diverged(label: str, result) -> list[str]:
    """An overflowing gradient ends the run 'diverged' with a valid partial log."""
    if isinstance(result, Exception):
        return [f"{label}: train() raised {type(result).__name__}: {result}"]
    if result.termination != "diverged":
        return [f"{label}: termination {result.termination!r}, expected 'diverged'"]
    if not all(math.isfinite(rec.loss) for rec in result.records):
        return [f"{label}: partial log holds a non-finite loss"]
    return []


def log_digest(hasher, log) -> None:
    """Feed a TrajectoryLog's records, weights and termination to `hasher`."""
    for rec in log.records:
        fields = [rec.step, rec.lr_effective.hex(), rec.loss.hex()]
        fields += [(k, v.hex()) for k, v in rec.grad_norms.items()]
        if rec.second_moments is not None:
            fields += [(k, v.hex()) for k, v in rec.second_moments.items()]
        hasher.update(repr(fields).encode())
    for lid, w in log.final_weights.items():
        hasher.update(lid.encode())
        hasher.update(w.tobytes())
    hasher.update(log.termination.encode())


def files_digest(paths) -> bytes:
    hasher = hashlib.sha256()
    for path in sorted(paths):
        hasher.update(path.name.encode())
        hasher.update(path.read_bytes())
    return hasher.digest()
