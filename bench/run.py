"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-wide-mlp --seed 0 --seconds 10 --trace 0

The run measures set-up in fresh interpreters, then runs closed-loop
rounds of the workload body in this process for ``--seconds``: a first
round that warms caches and is checked in full, then timed rounds whose
outputs must equal the first round's byte for byte.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics.  An environment line precedes
the result, which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREADS = 1  # one thread is within nproc everywhere and keeps timings steady
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _setup_probe(root: Path, workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter (see setup_probe.py), in seconds."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy builds without the dict form
        blas_version = None
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def _run_rounds(workload, seconds: float, tracer, probe) -> dict:
    """Closed loop of whole rounds until `seconds` have passed.

    Round 0 warms up and is checked in full; later rounds are timed and
    must reproduce round 0's digest.  With a tracer, even rounds after the
    first are traced.  With a probe, SETUP_PROBES set-up probes run between
    rounds, spread over the run so that they sample the host as the rounds do.
    """
    workload.prepare()
    raw = workload.body()
    reference = workload.digest(raw)
    first = workload.check(raw)
    errors = list(first.errors)
    rounds = 1
    plain, traced, layers, setup = [], [], [], []
    start = time.perf_counter()
    while True:
        is_traced = tracer is not None and rounds % 2 == 0
        workload.prepare()
        if is_traced:
            with tracer.installed():
                t0 = time.perf_counter()
                raw = workload.body()
                t1 = time.perf_counter()
        else:
            t0 = time.perf_counter()
            raw = workload.body()
            t1 = time.perf_counter()
        if workload.digest(raw) != reference:
            kind = "traced" if is_traced else "untraced"
            errors.append(f"{kind} round {rounds}: outputs differ from the first round's")
        raw = None  # so the next round does not run with this one's results still alive
        if is_traced:
            traced.append(t1 - t0)
            layers.append(tracer.round_metrics())
        else:
            plain.append(t1 - t0)
        rounds += 1
        elapsed = time.perf_counter() - start
        if probe is not None and len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
        if elapsed >= seconds and plain and (tracer is None or traced):
            break
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return {
        "first": first,
        "errors": errors,
        "rounds": rounds,
        "plain": plain,
        "traced": traced,
        "layers": layers,
        "setup": setup,
    }


def _emit(metric_specs: list[dict], values: dict) -> dict:
    names = [spec["name"] for spec in metric_specs]
    if set(names) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in metric_specs}


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "novobench" / "__init__.py").is_file():
        print(f"error: no novobench sources under {root / 'src'}; run from a checkout's root", file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))

    import novobench

    if Path(novobench.__file__).resolve().parent != (root / "src" / "novobench").resolve():
        print(f"error: imported novobench from {novobench.__file__}, not this checkout", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = root / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    probe = None if args.trace else lambda: _setup_probe(root, args.workload, args.seed)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            stdout, sys.stdout = sys.stdout, devnull  # the CLI prints a line per command
            try:
                run = _run_rounds(workload, args.seconds, tracer, probe)
            finally:
                sys.stdout = stdout
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = run["first"]
    wall_s = statistics.median(run["plain"])
    if tracer is None:
        values = {
            "setup_s": statistics.median(run["setup"]),
            "wall_s": wall_s,
            "updates_per_s": first.updates / wall_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = _emit(spec["end_to_end"], values)
    else:
        # median_low keeps counts whole; they repeat exactly from round to round
        values = {name: statistics.median_low(m[name] for m in run["layers"]) for name in run["layers"][0]}
        values["cli.output_bytes"] = first.output_bytes
        values["trace.overhead_s"] = statistics.median(run["traced"]) - wall_s
        metrics = _emit(spec["per_layer"], values)
        spans_path = root / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)

    for error in run["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": _environment(root), "rounds": run["rounds"], "failed_ops": first.failed}))
    result = {
        "correct": not run["errors"],
        "attempted": first.ops * run["rounds"],
        "failed": len(first.failed) * run["rounds"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
