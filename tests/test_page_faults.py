"""Smoke tests of ``tools/page_faults.py``, which times the rounds of a
benchmark workload and checks the outputs of its warm-up round first.

Fault counts and times depend on the host, so no value is pinned here: the
tool must run a checked round on this checkout's package and print its JSON
line, and must refuse to print timings when the check finds wrong outputs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "page_faults.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_page_faults_times_a_checked_round_of_a_workload():
    proc = _run("--workload", "compare-tiny-accum", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert {k: result[k] for k in ("workload", "src", "check", "rounds")} == {
        "workload": "compare-tiny-accum",
        "src": str((ROOT / "src").resolve()),
        "check": 1,
        "rounds": 1,
    }
    assert all(result[k] >= 0 for k in ("minflt", "user_s", "sys_s", "wall_s"))


# a workload module found before bench/'s (``--src`` comes first on the path),
# whose one workload's check reports wrong outputs
BROKEN = '''
from types import SimpleNamespace


class Broken:
    def __init__(self, seed, workdir):
        pass

    def prepare(self):
        pass

    def body(self):
        return None

    def check(self, raw):
        return SimpleNamespace(errors=["row 3: final loss differs", "row 4: no trajectory file"])


WORKLOADS = {"broken": Broken}
'''


def test_page_faults_exits_1_and_prints_the_errors_when_the_check_fails(tmp_path):
    (tmp_path / "workloads.py").write_text(BROKEN, encoding="utf-8")
    proc = _run("--workload", "broken", "--rounds", "1", "--src", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr == "row 3: final loss differs\nrow 4: no trajectory file\n"
    assert proc.stdout == ""
    assert _run("--workload", "broken", "--rounds", "1", "--src", str(tmp_path), "--check", "0").returncode == 0
