"""A smoke test of ``tools/output_hash.py``, the digest a refactor must keep.

The digests depend on the numpy and BLAS build, so no value is pinned here:
the tool must run on this checkout's package and print its sets and total.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = ["train", "grad_check", "grids", "accumulation", "states", "wide", "serializers", "stacks"]


def test_output_hash_runs_on_this_checkouts_package():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_hash.py"), "--src", "src"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    printed = [re.fullmatch(r"(\w+) [0-9a-f]{64}", line) for line in proc.stderr.splitlines()]
    assert [match and match[1] for match in printed] == SETS
    assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout)
