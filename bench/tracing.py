"""Per-module spans recorded from outside ``novobench``.

While installed, the tracer replaces the module-level names that
``harness``, ``optim`` and ``cli`` look up at call time (and the problem
and ``OptimizerDriver`` methods they call) with wrappers that record a span: name,
start, end and parent span.  Spans stay in memory; self times and counts
are derived from them after the traced round, and the spans of the last
traced round are written out at the end of the run.  Wrappers return the
wrapped call's result unchanged, so traced outputs are byte-identical to
untraced ones.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np
from novobench import cli, harness, optim, problems
from novobench.optim import OptimizerDriver

PROBLEM_CLASSES = (
    problems.QuadraticProblem,
    problems.RosenbrockProblem,
    problems.LogisticRegressionProblem,
    problems.MlpProblem,
    problems.GradientScaledProblem,
)
SERIALIZERS = (
    "log_to_jsonl",
    "log_to_csv",
    "comparison_to_csv",
    "sweep_to_csv",
    "checkpoint_to_dict",
    "checkpoint_from_dict",
)
PARSERS = ("parse_run_config", "parse_compare_config", "parse_sweep_config")


def _norm_elements(args, kwargs, result):
    return np.size(args[0])


def _batch_examples(args, kwargs, result):
    batch = args[2] if len(args) > 2 else kwargs.get("batch")
    if batch is None:
        return args[0].n_examples or 0
    return len(batch)


def _text_bytes(args, kwargs, result):
    # the serializers emit ASCII (json.dumps escapes non-ASCII), so length is bytes
    return len(result) if isinstance(result, str) else 0


def _build_key(args, kwargs, result):
    options = args[1] if len(args) > 1 else kwargs.get("options")
    return json.dumps([args[0], options], sort_keys=True, default=repr)


def _state_floats(doc: dict) -> int:
    count = 0
    for entry in doc["layers"]:
        for key, value in entry.items():
            if key != "id":
                count += len(value) if isinstance(value, list) else 1
    return count


def _replacements():
    """(owner, attribute, span name, amount function) for every wrapped name."""
    yield harness, "l2_norm_sq", "params.norm", _norm_elements
    yield optim, "l2_norm_sq", "params.norm", _norm_elements
    yield harness, "lr_at", "schedule.lr_at", None
    yield harness, "larc_scale", "schedule.larc", None
    yield problems, "build", "problems.build", _build_key
    yield harness, "finite_diff_grad", "problems.fd", None
    yield harness, "_batch_indices", "harness.sample", None
    yield harness, "train", "harness.train", None
    yield harness, "grad_check", "harness.grad_check", None
    for attr in SERIALIZERS:
        yield harness, attr, "harness.serialize", _text_bytes
    for attr in PARSERS:
        yield cli, attr, "cli.parse", None
    yield cli, "main", "cli", None
    for cls in PROBLEM_CLASSES:
        yield cls, "eval_grad", "problems.eval_grad", _batch_examples
        yield cls, "eval", "problems.eval", None
    yield OptimizerDriver, "step", "optim.step", None
    yield OptimizerDriver, "state_dict", "optim.state_io", None
    yield OptimizerDriver, "from_state_dict", "optim.state_io", None


class Tracer:
    """Records spans around the package's public calls while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, amount]
        self.optimizers: list[OptimizerDriver] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, amount=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if amount is not None:
                rec[4] = amount(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap in the wrappers for the duration of the block."""
        self.spans.clear()
        self.optimizers.clear()
        for owner, attr, name, amount in _replacements():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__, amount))
            else:
                replacement = self._wrap(name, original, amount)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        original_init = OptimizerDriver.__dict__["__init__"]
        optimizers = self.optimizers

        def init(optimizer, *args, **kwargs):
            original_init(optimizer, *args, **kwargs)
            optimizers.append(optimizer)

        self._saved.append((OptimizerDriver, "__init__", original_init))
        OptimizerDriver.__init__ = init
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def round_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in the last installed block.

        For each span name, `calls`, `.s` and amounts count only spans with
        no same-name ancestor (a scaled problem's eval_grad wraps the inner
        one); self time is a span's duration minus its direct children's.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start

        def has_ancestor(index: int, name: str) -> bool:
            parent = spans[index][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        calls = defaultdict(int)
        inclusive_ns = defaultdict(int)
        self_ns = defaultdict(int)
        amount = defaultdict(int)
        build_keys = set()
        fd_evals = 0
        for i, (name, start, end, _, extra) in enumerate(spans):
            self_ns[name] += end - start - child_ns[i]
            if has_ancestor(i, name):
                continue
            calls[name] += 1
            inclusive_ns[name] += end - start
            if name == "problems.build":
                build_keys.add(extra)
            else:
                amount[name] += extra
            if name == "problems.eval" and has_ancestor(i, "problems.fd"):
                fd_evals += 1

        # counted after the round with the untraced state_dict, so outside any span
        state_elements = sum(_state_floats(opt.state_dict()) for opt in self.optimizers)
        builds = calls["problems.build"]
        return {
            "params.norm.calls": calls["params.norm"],
            "params.norm.elements": amount["params.norm"],
            "params.norm.self_s": self_ns["params.norm"] / 1e9,
            "optim.step.calls": calls["optim.step"],
            "optim.step.self_s": self_ns["optim.step"] / 1e9,
            "optim.state.elements": state_elements,
            "optim.state_io.s": inclusive_ns["optim.state_io"] / 1e9,
            "problems.build.calls": builds,
            "problems.build.s": inclusive_ns["problems.build"] / 1e9,
            "problems.build.useful_ratio": len(build_keys) / builds if builds else 1.0,
            "problems.eval_grad.calls": calls["problems.eval_grad"],
            "problems.eval_grad.examples": amount["problems.eval_grad"],
            "problems.eval_grad.self_s": self_ns["problems.eval_grad"] / 1e9,
            "problems.fd.s": inclusive_ns["problems.fd"] / 1e9,
            "problems.fd.evals": fd_evals,
            "schedule.lr_at.calls": calls["schedule.lr_at"],
            "schedule.lr_at.s": inclusive_ns["schedule.lr_at"] / 1e9,
            "schedule.larc.calls": calls["schedule.larc"],
            "schedule.larc.s": inclusive_ns["schedule.larc"] / 1e9,
            "harness.train.calls": calls["harness.train"],
            "harness.train.self_s": self_ns["harness.train"] / 1e9,
            "harness.sample.calls": calls["harness.sample"],
            "harness.sample.s": inclusive_ns["harness.sample"] / 1e9,
            "harness.serialize.s": inclusive_ns["harness.serialize"] / 1e9,
            "harness.serialize.bytes": amount["harness.serialize"],
            "harness.grad_check.self_s": self_ns["harness.grad_check"] / 1e9,
            "cli.parse.s": inclusive_ns["cli.parse"] / 1e9,
            "cli.self_s": self_ns["cli"] / 1e9,
        }

    def write_spans(self, path) -> None:
        """One JSON line per span of the last installed block: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
