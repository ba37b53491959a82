"""Compare a parent and a change checkout on the benchmark's end-to-end metrics.

Usage, from the root of the checkout whose benchmark code should be used:

    python3 bench/compare.py --parent DIR --change DIR [--workload NAME ...] [--out FILE]

Both sides run this benchmark's ``run.py`` against their own ``src/``, so
the benchmark code and settings are identical.  Each workload gets ten
alternating pairs (parent first in even pairs, change first in odd ones) of
``run_seconds`` from BENCHMARK.json; pair ``i`` uses seed 1000 + i, the seed
kept apart for checking claims, on both sides.  For every
metric and workload the report gives each side's median and quartiles and
one verdict:

- gain: the change wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
- regression: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
- unresolved: the parent's spread (interquartile range over median) is
  wider than the bound, and not every change run beats every parent run;
- within bound: none of the above.

A gain does not count when any change run fails its output checks
(``correct: false``) or the change fails a larger share of operations; the
report says so.  Raw results go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900
PAIRS = 10
CLAIM_SEED = 1000


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Classify a metric from paired runs: parent[i] and change[i] form pair i."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    improvement = sign * (statistics.median(change) - p_median)
    if wins >= 0.9 * len(parent) and improvement > p_q3 - p_q1:
        return "gain"
    if -improvement > bound * abs(p_median):
        return "regression"
    if better == "higher":
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if (p_q3 - p_q1) > bound * abs(p_median) and not every_run_better:
        return "unresolved"
    return "within bound"


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(workload: str, spec: dict, runs: dict) -> list[str]:
    lines = []
    shares = {}
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        shares[side] = failed / attempted
        lines.append(f"{workload} {side}: correct={correct} failed {failed}/{attempted}")
    if not all(r["correct"] for r in runs["change"]):
        void = "gain void: the change fails its output checks"
    elif shares["change"] > shares["parent"]:
        void = "gain void: more operations fail"
    else:
        void = None
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        result = verdict(values["parent"], values["change"], metric["better"], metric["bound"])
        if result == "gain" and void:
            result = void
        cells = []
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(values[side])
            cells.append(f"{side} {median:.6g} [{q1:.6g}, {q3:.6g}]")
        lines.append(f"{workload} {name} ({metric['unit']}): {'  '.join(cells)}  -> {result}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--out", type=Path, default=Path(".bench_work/compare.json"))
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    raw = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(roots[side], workload, CLAIM_SEED + i, spec["run_seconds"]))
        raw[workload] = runs
        for line in _report(workload, spec, runs):
            print(line, flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"roots": {k: str(v) for k, v in roots.items()}, "runs": raw}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
