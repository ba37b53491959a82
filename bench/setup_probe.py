"""Time one set-up in a fresh interpreter and print it in seconds.

Usage, from the root of a checkout: ``python3 bench/setup_probe.py WORKLOAD SEED``.
Set-up is importing ``novobench``, parsing the workload's config and
building its problem once.  Interpreter start-up is not included.
"""

import sys
import time
from pathlib import Path

import configs


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path.cwd() / "src"))
    start = time.perf_counter()
    from novobench import cli, harness

    if workload == "sweep-wide-mlp":
        cfg, _ = cli.parse_sweep_config(configs.sweep_tree(seed))
    elif workload == "compare-tiny-accum":
        cfg = cli.parse_compare_config(configs.compare_tree(seed))[0][0]
    elif workload == "verify-battery":
        cfg = cli.parse_run_config(configs.pow2_tree(seed))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    harness.build_problem(cfg.problem)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
