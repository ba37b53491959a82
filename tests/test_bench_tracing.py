"""The benchmark tracer (bench/tracing.py) wraps names the package must keep.

It swaps each problem class's own ``eval``/``eval_grad`` and module-level
functions for span-recording wrappers; a name it cannot find, or a call
path that bypasses it, breaks ``bench/run.py --trace 1``.
"""

from pathlib import Path

import pytest

from novobench import harness, problems
from novobench.harness import ProblemSpec, RunConfig
from novobench.schedule import ScheduleSpec

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

PROBLEMS = [
    ProblemSpec("quadratic", {"dim": 3}),
    ProblemSpec("rosenbrock"),
    ProblemSpec("logreg", {"size": 20}, gradient_scale=2.0),
    ProblemSpec("mlp", {"size": 20, "hidden": 3}),
]
STEPS = 2


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    return tracing


def test_tracer_records_problem_spans_and_restores_every_name(tracing):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing._replacements()]
    init = tracing.OptimizerDriver.__dict__["__init__"]
    tracer = tracing.Tracer()
    with tracer.installed():
        for spec in PROBLEMS:
            schedule = ScheduleSpec(base_lr=0.01, total_steps=STEPS)
            harness.train(RunConfig(spec, "novograd", schedule, batch_size=4, total_steps=STEPS))
        report = harness.grad_check(problems.build("rosenbrock"), seed=0, trials=1)
    metrics = tracer.round_metrics()

    names = {span[0] for span in tracer.spans}
    assert {"problems.eval_grad", "problems.eval"} <= names
    # each training step and the grad check's analytic gradient, counted once
    # even through the gradient-scaling wrapper
    assert metrics["problems.eval_grad.calls"] == len(PROBLEMS) * STEPS + 1
    assert metrics["problems.fd.evals"] == 1  # all four rosenbrock probes in one stacked eval
    assert metrics["harness.train.calls"] == len(PROBLEMS)
    assert report.passed
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert tracing.OptimizerDriver.__dict__["__init__"] is init
