"""Print the minor page faults and CPU time per round of a benchmark workload.

Runs the body of one ``bench/`` workload in a closed loop, as
``bench/run.py`` does, and reads ``getrusage`` around each round:

    python3 tools/page_faults.py --workload sweep-wide-mlp                    # this checkout's src/
    python3 tools/page_faults.py --workload sweep-wide-mlp --src ../parent/src

One warm-up round runs first and is not counted; with ``--check 1`` (the
default) its outputs then go through the workload's full check, as in
``bench/run.py``.  That check frees large arrays, and glibc then raises its
mmap and trim thresholds, so later rounds can fault far less than a loop
of the body alone (``--check 0``).  The last line of
standard output is a JSON object with the per-round medians of minor
faults, user and system seconds and wall seconds.  BLAS is capped at one
thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the novobench package")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1, help="check the warm-up round's outputs")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "bench")]
    from workloads import WORKLOADS

    per_round = {"minflt": [], "user_s": [], "sys_s": [], "wall_s": []}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        for i in range(args.rounds + 1):
            workload.prepare()
            before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            raw = workload.body()
            after, t1 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            if i == 0:
                if args.check:
                    workload.check(raw)
                continue
            per_round["minflt"].append(after.ru_minflt - before.ru_minflt)
            per_round["user_s"].append(after.ru_utime - before.ru_utime)
            per_round["sys_s"].append(after.ru_stime - before.ru_stime)
            per_round["wall_s"].append(t1 - t0)
    medians = {name: statistics.median(values) for name, values in per_round.items()}
    src = str(Path(args.src).resolve())
    print(json.dumps({"workload": args.workload, "src": src, "check": args.check, "rounds": args.rounds, **medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
