import csv
import io
import json
import math
import re
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novobench.harness import (
    Checkpoint,
    ComparisonRow,
    MetricsRecord,
    ProblemSpec,
    RunConfig,
    TrajectoryLog,
    checkpoint_from_dict,
    checkpoint_to_dict,
    compare_runs,
    comparison_to_csv,
    grad_check,
    log_to_csv,
    log_to_jsonl,
    lr_sweep,
    sweep_to_csv,
    train,
)
from novobench import harness, optim
from novobench import problems as problems_mod
from novobench.optim import ALGORITHMS, OptimizerDriver, make_config
from novobench.params import ModelParams, ParameterLayer, l2_norm_sq
from novobench.problems import GradientScaledProblem, MlpProblem, Problem, build
from novobench.schedule import LarcConfig, ScheduleSpec, larc_scale, lr_at


def logreg_config(algorithm="novograd", total_steps=40, seed=0, **kwargs):
    defaults = dict(
        problem=ProblemSpec("logreg", {"size": 64, "dim": 3, "dataset_seed": 1}),
        algorithm=algorithm,
        schedule=ScheduleSpec(base_lr=0.05, total_steps=total_steps),
        batch_size=8,
        total_steps=total_steps,
        seed=seed,
        log_every=10,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def quadratic_config(algorithm="sgd", base_lr=0.1, total_steps=50, **kwargs):
    defaults = dict(
        problem=ProblemSpec("quadratic", {"diag": [2.0, 4.0], "w0": [5.0, 5.0]}),
        algorithm=algorithm,
        schedule=ScheduleSpec(base_lr=base_lr, total_steps=total_steps),
        batch_size=1,
        total_steps=total_steps,
        seed=0,
        log_every=10,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestTrainBasics:
    def test_runs_exact_step_count_and_logs_final(self):
        cfg = logreg_config(total_steps=20, log_every=7)
        log = train(cfg)
        assert log.termination == "completed"
        assert [rec.step for rec in log.records] == [0, 7, 14, 19]

    def test_total_steps_zero_rejected(self):
        with pytest.raises(ValueError, match="total_steps"):
            train(logreg_config(total_steps=0, schedule=ScheduleSpec(base_lr=0.05, total_steps=1)))

    def test_schedule_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schedule.total_steps"):
            train(logreg_config(total_steps=10, schedule=ScheduleSpec(base_lr=0.05, total_steps=20)))

    def test_determinism_byte_identical_logs(self):
        cfg = logreg_config()
        a, b = train(cfg), train(cfg)
        assert log_to_jsonl(a) == log_to_jsonl(b)
        assert log_to_csv(a) == log_to_csv(b)

    def test_second_moments_logged_for_novograd_not_sgd(self):
        nov = train(logreg_config("novograd", total_steps=5))
        sgd = train(logreg_config("sgd", total_steps=5))
        assert nov.records[0].second_moments is not None
        assert set(nov.records[0].second_moments) == {"w", "b"}
        assert sgd.records[0].second_moments is None

    def test_divergence_produces_partial_log(self):
        cfg = quadratic_config("sgd", base_lr=2.5, total_steps=400, log_every=1)
        log = train(cfg)
        assert log.termination == "diverged"
        assert 0 < len(log.records) < 400
        assert all(np.isfinite(rec.loss) for rec in log.records)
        assert all(np.isfinite(w).all() for w in log.final_weights.values())

    def test_overflowing_gradient_ends_diverged(self):
        # the loss stays finite while the scaled gradient overflows at step 0
        cfg = quadratic_config(
            "novograd",
            problem=ProblemSpec("quadratic", {"dim": 256, "matrix_seed": 0}, gradient_scale=1e308),
            log_every=1,
        )
        log = train(cfg)
        assert log.termination == "diverged"
        assert log.records == []
        initial = build("quadratic", {"dim": 256, "matrix_seed": 0}).init_params(np.random.default_rng([0, 0, 0]))
        np.testing.assert_array_equal(log.final_weights["w"], initial.layer("w").weights)

    def test_gradient_overflow_mid_run_keeps_partial_log(self):
        # SGD at an effective rate of 1 diverges on diag [2, 4]; the 1e300
        # gradient scale makes the gradient overflow long before the loss
        schedule = ScheduleSpec(base_lr=1e-300, total_steps=100, family="constant")
        spec = ProblemSpec("quadratic", {"diag": [2.0, 4.0], "w0": [5.0, 5.0]}, gradient_scale=1e300)
        log = train(quadratic_config("sgd", problem=spec, schedule=schedule, total_steps=100, log_every=1))
        assert log.termination == "diverged"
        assert 0 < len(log.records) < 100
        assert [rec.step for rec in log.records] == list(range(len(log.records)))
        assert all(np.isfinite(rec.loss) for rec in log.records)
        assert all(np.isfinite(w).all() for w in log.final_weights.values())

    def test_larc_overflow_ends_diverged(self):
        # unclipped LARC scales by trust/lr_t; lr_t = 1e-3 * 0.5**1020 at
        # step 1 overflows the scaled gradient, which was finite before it
        schedule = ScheduleSpec(base_lr=1e-3, total_steps=2, family="polynomial", power=1020.0)
        spec = ProblemSpec("quadratic", {"diag": [2.0, 4.0], "w0": [1.0, 1.0]})
        larc = LarcConfig(trust_coefficient=1.0, clip=False)
        cfg = quadratic_config("sgd", problem=spec, schedule=schedule, larc=larc, total_steps=2, log_every=1)
        log = train(cfg, record_weight_trace=True)
        assert log.termination == "diverged"
        assert [rec.step for rec in log.records] == [0]
        np.testing.assert_array_equal(log.final_weights["w"], log.weight_trace[0]["w"])
        assert np.isfinite(log.final_weights["w"]).all()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_float32_step_overflow_ends_diverged_without_a_warning(self, algorithm):
        # the first step overflows the float32 weights; the second step's check ends the run
        with mlp_weights_in(np.float32):
            log = train(mlp_config(algorithm, base_lr=1e308))
        assert log.termination == "diverged"
        assert [rec.step for rec in log.records] == [0]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_rate_beyond_float32_range_ends_diverged_without_a_warning(self, algorithm):
        # 1e300 is inf in float32; LARC scales some gradients to zero, and inf * 0 is NaN
        with mlp_weights_in(np.float32):
            log = train(mlp_config(algorithm, total_steps=3, base_lr=1e300, larc=LarcConfig()))
        assert log.termination == "diverged"

    def test_larc_run_completes(self):
        cfg = logreg_config("sgd", larc=LarcConfig(trust_coefficient=0.02), total_steps=15)
        log = train(cfg)
        assert log.termination == "completed"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_larc_run_steps_its_scaled_gradient(self, algorithm):
        """A LARC run equals a loop of direct steps on the scaled gradient, whose
        layer norms the step computes itself (on the batchless quadratic the
        harness's gradient is the problem's, bit for bit)."""
        larc = LarcConfig(trust_coefficient=0.01)
        cfg = quadratic_config(algorithm, total_steps=8, larc=larc)
        log = train(cfg)
        problem = harness.build_problem(cfg.problem)
        params = problem.init_params(np.random.default_rng([cfg.seed, harness._INIT_STREAM, 0]))
        driver = OptimizerDriver(algorithm, make_config(algorithm, cfg.hyperparams))
        scales = []
        for t in range(cfg.total_steps):
            problem.eval_grad(params, None)
            lr = lr_at(cfg.schedule, t)
            norms = [math.sqrt(l2_norm_sq(params.weights)), math.sqrt(l2_norm_sq(params.grad))]  # its one layer, w
            scales.append(larc_scale(*norms, lr, larc))
            params.grad *= scales[-1]
            driver.step(params, lr)
        assert min(scales) < 1.0
        assert log.final_weights["w"].tobytes() == params.weights.tobytes()


class TestAccumulation:
    @pytest.mark.parametrize("algorithm", ["novograd", "adam", "adamw", "sgd", "sngd"])
    def test_microbatch_average_matches_full_batch(self, algorithm):
        base = logreg_config(algorithm, total_steps=30, log_every=1)
        full = replace(base, batch_size=32, accumulation_factor=1)
        micro = replace(base, batch_size=8, accumulation_factor=4)
        log_full = train(full, record_weight_trace=True)
        log_micro = train(micro, record_weight_trace=True)
        for wf, wm in zip(log_full.weight_trace, log_micro.weight_trace):
            for layer_id in wf:
                np.testing.assert_allclose(wf[layer_id], wm[layer_id], rtol=1e-12, atol=1e-14)

    def test_batchless_accumulation_exact_for_power_of_two(self):
        base = quadratic_config("novograd", total_steps=20)
        k1 = train(base, record_weight_trace=True)
        k4 = train(replace(base, accumulation_factor=4), record_weight_trace=True)
        for a, b in zip(k1.weight_trace, k4.weight_trace):
            np.testing.assert_array_equal(a["w"], b["w"])


class TestScaleInvariance:
    def test_novograd_trajectories_bit_identical_under_scaling(self):
        base = logreg_config("novograd", hyperparams={"epsilon": 0.0}, total_steps=60)
        scaled_spec = replace(base.problem, gradient_scale=2.0**10)
        scaled = replace(base, problem=scaled_spec)
        log_a = train(base, record_weight_trace=True)
        log_b = train(scaled, record_weight_trace=True)
        for wa, wb in zip(log_a.weight_trace, log_b.weight_trace):
            for layer_id in wa:
                np.testing.assert_array_equal(wa[layer_id], wb[layer_id])

    def test_sgd_trajectories_change_under_scaling(self):
        base = logreg_config("sgd", total_steps=20)
        scaled = replace(base, problem=replace(base.problem, gradient_scale=2.0**10))
        log_a = train(base)
        log_b = train(scaled)
        assert not np.array_equal(log_a.final_weights["w"], log_b.final_weights["w"])


class LayerScaledProblem(GradientScaledProblem):
    """Multiplies each layer's written gradient by its own factor, as
    ``GradientScaledProblem`` does the whole gradient; the loss is unchanged."""

    def __init__(self, inner, factors):
        super().__init__(inner, 1.0)
        self.factors = factors

    def _loss(self, params, batch, grad):
        loss = self.inner._loss(params, batch, grad)
        if grad:
            params.grad *= params.broadcast(self.factors, params.grad.dtype)
        return loss


@contextmanager
def layers_scaled(exponents, dtype):
    """The harness's problems write layer l's gradient times 2**exponents[l],
    and MLP models start in ``dtype``."""
    inner = harness.build_problem

    def build_problem(spec):
        return LayerScaledProblem(inner(spec), np.exp2(exponents))

    with mlp_weights_in(dtype), pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "build_problem", build_problem)
        yield


def _layer_scaled_sweep(cfg, exponents, dtype, lrs=(0.01, 0.05, 0.2)):
    """``cfg``'s 3-row ``lr_sweep`` logs, its MLP in ``dtype`` with layer l's
    gradient times 2**exponents[l]; the rows share a config, so they step as one stack."""
    with layers_scaled(exponents, dtype):
        return lr_sweep(cfg, list(lrs))[1]


def _same_run_but_grad_norms(log, ref, exponents):
    """``log`` is ``ref`` with each layer's logged gradient norm exactly 2**k_l times its own."""
    assert log.termination == ref.termination == "completed"
    for layer_id, w in ref.final_weights.items():
        assert log.final_weights[layer_id].tobytes() == w.tobytes()
    assert len(log.records) == len(ref.records)
    for record, expected in zip(log.records, ref.records):
        assert (record.step, record.lr_effective, record.loss) == (expected.step, expected.lr_effective, expected.loss)
        factors = dict(zip(expected.grad_norms, np.exp2(exponents).tolist()))
        assert record.grad_norms == {k: factors[k] * v for k, v in expected.grad_norms.items()}


# configurations whose trajectory is invariant to scaling each layer's gradient
# by its own power of two (the layer-wise normalization, and Adam's element-wise one)
PER_LAYER_INVARIANT = [
    ("novograd", {"epsilon": 0.0}),
    ("novograd", {"epsilon": 0.0, "first_moment_style": "ema", "ams": True, "weight_decay": 0.01}),
    ("sngd", {"epsilon": 0.0}),
    ("adam", {"epsilon": 0.0}),
    ("adamw", {"epsilon": 0.0, "weight_decay": 0.01}),
]


@settings(max_examples=25, deadline=None)
@given(
    variant=st.sampled_from(PER_LAYER_INVARIANT),
    dtype=st.sampled_from([np.float64, np.float32]),
    accumulation=st.sampled_from([1, 3]),
    data=st.data(),
)
def test_per_layer_power_of_two_gradient_scaling_leaves_a_sweep_unchanged(variant, dtype, accumulation, data):
    """A 3-row sweep of the MLP with each layer's gradient scaled by its own 2**k
    (|k| <= 60 in float64, 40 in float32) ends in the same weights and logs the
    same losses, and each layer's gradient norm exactly 2**k times its own."""
    algorithm, hyperparams = variant
    bound = 60 if dtype == np.float64 else 40
    exponents = data.draw(st.lists(st.integers(-bound, bound), min_size=4, max_size=4))
    cfg = mlp_config(algorithm, hyperparams=hyperparams, accumulation_factor=accumulation)
    plain = _layer_scaled_sweep(cfg, [0] * 4, dtype)
    for log, ref in zip(_layer_scaled_sweep(cfg, exponents, dtype), plain, strict=True):
        _same_run_but_grad_norms(log, ref, exponents)


@settings(max_examples=25, deadline=None)
@given(
    pair=st.lists(st.sampled_from(range(len(PER_LAYER_INVARIANT))), min_size=2, max_size=2, unique=True),
    larc_algorithm=st.none() | st.sampled_from(ALGORITHMS),
    dtype=st.sampled_from([np.float64, np.float32]),
    accumulation=st.sampled_from([1, 3]),
    data=st.data(),
)
def test_per_layer_power_of_two_gradient_scaling_leaves_a_mixed_comparison_unchanged(
    pair, larc_algorithm, dtype, accumulation, data
):
    """A ``compare_runs`` grid of one lockstep group, in which two rows of one
    invariant config step as a stack (the shorter leaves it after 14 steps),
    one of another steps alone and, if drawn, a row of any algorithm takes
    LARC in scale mode: with each layer's gradient scaled by its own 2**k,
    every row ends in the same weights and logs the same losses, and each
    layer's gradient norm exactly 2**k times its own.  LARC passes a layer
    with ``||w|| = 0`` (the biases start at zero) through unscaled, so with
    the LARC row only w1's and w2's gradients are scaled."""
    (a, a_params), (b, b_params) = (PER_LAYER_INVARIANT[i] for i in pair)
    bound = 60 if dtype == np.float64 else 40
    exponents = data.draw(st.lists(st.integers(-bound, bound), min_size=4, max_size=4))
    cfgs = [
        mlp_config(a, hyperparams=a_params, accumulation_factor=accumulation, base_lr=0.01),
        mlp_config(a, hyperparams=a_params, accumulation_factor=accumulation, base_lr=0.05, total_steps=14),
        mlp_config(b, hyperparams=b_params, accumulation_factor=accumulation, base_lr=0.2, log_every=3),
    ]
    if larc_algorithm is not None:
        larc = LarcConfig(clip=False, eps_div=0.0)
        cfgs.append(mlp_config(larc_algorithm, accumulation_factor=accumulation, larc=larc))
        exponents[1] = exponents[3] = 0  # b1 and b2
    with layers_scaled([0] * 4, dtype):
        plain = compare_runs(cfgs)[1]
    with layers_scaled(exponents, dtype):
        scaled = compare_runs(cfgs)[1]
    for log, ref in zip(scaled, plain, strict=True):
        _same_run_but_grad_norms(log, ref, exponents)


@pytest.mark.parametrize("algorithm,hyperparams", [("novograd", {}), ("sgd", {})], ids=["novograd-eps", "sgd"])
def test_per_layer_scaling_changes_novograd_at_its_default_epsilon_and_sgd(algorithm, hyperparams):
    cfg = mlp_config(algorithm, hyperparams=hyperparams)
    exponents = [37, -45, 12, -3]
    for log, ref in zip(_layer_scaled_sweep(cfg, exponents, np.float64), _layer_scaled_sweep(cfg, [0] * 4, np.float64)):
        assert log.final_weights["w1"].tobytes() != ref.final_weights["w1"].tobytes()


class TestCheckpointing:
    @pytest.mark.parametrize("algorithm", ["novograd", "adam", "sgd", "sngd"])
    def test_resume_reproduces_uninterrupted_run(self, algorithm):
        cfg = logreg_config(algorithm, total_steps=40, log_every=10)
        full = train(cfg, record_weight_trace=True)
        first = train(cfg, stop_after=23, record_weight_trace=True)
        assert first.termination == "checkpoint"
        assert first.checkpoint is not None and first.checkpoint.step == 23

        restored = checkpoint_from_dict(json.loads(json.dumps(checkpoint_to_dict(first.checkpoint))))
        second = train(cfg, resume_from=restored, record_weight_trace=True)

        for layer_id in full.final_weights:
            np.testing.assert_array_equal(
                full.final_weights[layer_id], second.final_weights[layer_id]
            )
        stitched = first.records + second.records
        assert [r.step for r in stitched] == [r.step for r in full.records]
        for a, b in zip(stitched, full.records):
            assert a.loss == b.loss and a.lr_effective == b.lr_effective
            assert a.grad_norms == b.grad_norms and a.second_moments == b.second_moments
        for wa, wb in zip(first.weight_trace + second.weight_trace, full.weight_trace):
            for layer_id in wa:
                np.testing.assert_array_equal(wa[layer_id], wb[layer_id])

    def test_resume_from_must_be_a_checkpoint(self):
        cfg = logreg_config(total_steps=10)
        doc = checkpoint_to_dict(train(cfg, stop_after=3).checkpoint)  # a document, not the Checkpoint read from it
        with pytest.raises(ValueError, match="resume_from must be of type Checkpoint"):
            train(cfg, resume_from=doc)

    @pytest.mark.parametrize("value", ["yes", 1, None])
    def test_record_weight_trace_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="record_weight_trace must be of type bool"):
            train(logreg_config(total_steps=5), record_weight_trace=value)

    def test_checkpoint_algorithm_mismatch_rejected(self):
        cfg = logreg_config("adam", total_steps=10)
        partial = train(cfg, stop_after=5)
        wrong = logreg_config("sgd", total_steps=10)
        with pytest.raises(ValueError, match="algorithm"):
            train(wrong, resume_from=partial.checkpoint)

    def test_checkpoint_hyperparameter_mismatch_rejected(self):
        """A checkpoint resumes only under the optimizer config it was saved
        with: its state would otherwise keep stepping with the saved values
        while the log echoed the config's."""

        def cfg(**hyperparams):
            return RunConfig(
                problem=ProblemSpec("mlp", {}),
                algorithm="novograd",
                schedule=ScheduleSpec(base_lr=0.05, total_steps=20),
                hyperparams=hyperparams,
                total_steps=20,
            )

        partial = train(cfg(beta2=0.25), stop_after=10)
        with pytest.raises(ValueError, match=r"^checkpoint optimizer beta2 0\.25 does not match the config's 0\.9$"):
            train(cfg(beta2=0.9), resume_from=partial.checkpoint)
        with pytest.raises(ValueError, match="checkpoint optimizer weight_decay 0.0 does not match the config's 0.5"):
            train(cfg(beta2=0.25, weight_decay=0.5), resume_from=partial.checkpoint)
        # the defaults are the saved values, given or not
        assert train(cfg(), resume_from=partial.checkpoint).termination == "completed"

    def test_bad_checkpoint_version(self):
        with pytest.raises(ValueError, match="format version"):
            checkpoint_from_dict({"format_version": 0})

    @pytest.mark.parametrize(
        "key,value",
        [
            ("step", None),  # missing
            ("step", 3.5),
            ("step", "3"),
            ("step", -1),
            ("weights", None),
            ("weights", [[0.0, 1.0]]),
            ("optimizer", None),
            ("optimizer", "novograd"),
        ],
    )
    def test_malformed_checkpoint_document_names_the_key(self, key, value):
        doc = checkpoint_to_dict(train(logreg_config(total_steps=10), stop_after=5).checkpoint)
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        with pytest.raises(ValueError, match=key):
            checkpoint_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("doc", [1, None, "{}", [], [["step", 3]]])
    def test_a_checkpoint_that_is_no_object_is_rejected(self, doc):
        with pytest.raises(ValueError, match=r"^checkpoint must be of type dict"):
            checkpoint_from_dict(doc)

    @pytest.mark.parametrize(
        "place,key,value,message",
        [
            (None, "extra", 1, "unknown key 'extra' in checkpoint"),
            ("weights", "w", [True, 0.0, 0.0], "weights of layer 'w' must be a list of numbers"),
            ("weights", "w", ["a"], "weights of layer 'w' must be a list of numbers"),
            ("weights", "b", "0.0", "weights of layer 'b' must be a list of numbers"),
            ("weights", "b", [[0.0]], "weights of layer 'b' must be a list of numbers"),
            ("weights", "b", [10**400], "weights of layer 'b' must be a list of numbers in float range"),
        ],
    )
    def test_an_unknown_key_or_a_weight_not_a_list_of_numbers_is_rejected(self, place, key, value, message):
        # the extra key used to be ignored, [true, ...] to load as 1.0 and ["a"] to raise numpy's error
        doc = json.loads(json.dumps(checkpoint_to_dict(train(logreg_config(total_steps=10), stop_after=5).checkpoint)))
        (doc if place is None else doc[place])[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            checkpoint_from_dict(doc)

    def test_weights_may_hold_infinity_and_nan(self):
        doc = json.loads(json.dumps(checkpoint_to_dict(train(logreg_config(total_steps=10), stop_after=5).checkpoint)))
        doc["weights"]["w"] = [math.inf, -math.inf, math.nan]
        restored = checkpoint_from_dict(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(restored.weights["w"], [math.inf, -math.inf, math.nan])

    @pytest.mark.parametrize("stop_after", [-1, 2.5, True, "3"])
    def test_stop_after_is_an_int_of_zero_or_more(self, stop_after):
        # -1 used to checkpoint at step 0, 2.5 at step 3 and True at step 1
        with pytest.raises(ValueError, match="stop_after"):
            train(logreg_config(total_steps=10), stop_after=stop_after)

    @pytest.mark.parametrize("step", [3.5, "3", 10, 100])
    def test_resume_step_must_be_an_int_below_total_steps(self, step):
        cfg = logreg_config(total_steps=10)
        ckpt = train(cfg, stop_after=3).checkpoint
        with pytest.raises(ValueError, match="step"):
            train(cfg, resume_from=Checkpoint(step, ckpt.weights, ckpt.optimizer))


def _grow(value):
    """A layer's value (a list, or a state entry of lists and floats) one element longer."""
    if isinstance(value, dict):
        return {key: _grow(v) for key, v in value.items()}
    return value + [0.0] if isinstance(value, list) else value


_MISMATCHES = {  # layer id -> value mappings of logreg's layers w and b, made to not fit
    "missing": lambda layers: {k: v for k, v in layers.items() if k != "b"},
    "extra": lambda layers: {**layers, "c": layers["b"]},
    "wrong size": lambda layers: {**layers, "b": _grow(layers["b"])},
}
_MISMATCH_ERRORS = {"missing": "missing layer 'b'", "extra": "unknown layer 'c'", "wrong size": r"layer 'b' has shape \(2,\)"}


@pytest.mark.parametrize("algorithm", ["novograd", "adam", "sgd"])
@pytest.mark.parametrize("case", sorted(_MISMATCHES))
@pytest.mark.parametrize(
    "path", ["driver state", "checkpoint state", "checkpoint state, overflowing weights", "checkpoint weights"]
)
def test_a_layout_mismatch_raises_naming_the_layer(algorithm, case, path):
    cfg = logreg_config(algorithm, total_steps=10)
    doc = json.loads(json.dumps(checkpoint_to_dict(train(cfg, stop_after=5).checkpoint)))
    if path == "checkpoint weights":
        doc["weights"] = _MISMATCHES[case](doc["weights"])
    else:
        layers = {entry.pop("id"): entry for entry in doc["optimizer"]["layers"]}
        doc["optimizer"]["layers"] = [{"id": k, **v} for k, v in _MISMATCHES[case](layers).items()]
    if path == "checkpoint state, overflowing weights":  # the first step diverges: the state is checked at set-up
        doc["weights"]["w"] = [(-1.0) ** i * 1e308 for i in range(len(doc["weights"]["w"]))]
    if path == "driver state":
        driver = OptimizerDriver.from_state_dict(doc["optimizer"])
        params = harness.build_problem(cfg.problem).init_params(np.random.default_rng(0))
        params.grad[...] = 1.0
        run = lambda: driver.step(params, 0.1)  # noqa: E731
    else:
        run = lambda: train(cfg, resume_from=checkpoint_from_dict(doc))  # noqa: E731
    if algorithm == "novograd" and case == "missing" and path != "checkpoint weights":
        run()  # a NovoGrad state may lack a layer: it initializes on its next nonzero gradient
        if path == "driver state":
            layers = driver.state_dict()["layers"]
            assert [entry["id"] for entry in layers] == ["w", "b"] and layers[1]["v"] == 1.0
    else:
        with pytest.raises(ValueError, match=_MISMATCH_ERRORS[case]):
            run()


@pytest.mark.parametrize("algorithm", ["adam", "sgd"])
@pytest.mark.parametrize(
    "step_count,kept,missing", [(0, ["w"], "b"), (5, [], "w")], ids=["no step, some layers", "steps, no layers"]
)
@pytest.mark.parametrize("path", ["driver state", "checkpoint state"])
def test_only_a_fresh_state_may_lack_layers(algorithm, step_count, kept, missing, path):
    # a state with no step and no layers takes zero moments; any other missing layer raises
    cfg = logreg_config(algorithm, total_steps=10)
    doc = json.loads(json.dumps(checkpoint_to_dict(train(cfg, stop_after=5).checkpoint)))
    doc["optimizer"]["step_count"] = step_count
    doc["optimizer"]["layers"] = [entry for entry in doc["optimizer"]["layers"] if entry["id"] in kept]
    if path == "driver state":
        driver = OptimizerDriver.from_state_dict(doc["optimizer"])
        params = harness.build_problem(cfg.problem).init_params(np.random.default_rng(0))
        params.grad[...] = 1.0
        run = lambda: driver.step(params, 0.1)  # noqa: E731
    else:
        run = lambda: train(cfg, resume_from=checkpoint_from_dict(doc))  # noqa: E731
    with pytest.raises(ValueError, match=f"missing layer '{missing}'"):
        run()


def test_resume_after_a_layer_norm_overflows_equals_the_uninterrupted_run():
    # gradients near 1e200 square to inf: NovoGrad's v is inf from the first step, and weight decay moves the weights
    base = logreg_config("novograd", total_steps=12, log_every=1, hyperparams={"weight_decay": 0.1})
    cfg = replace(base, problem=replace(base.problem, gradient_scale=1e200))
    full = train(cfg, record_weight_trace=True)
    first = train(cfg, stop_after=5, record_weight_trace=True)
    doc = json.loads(json.dumps(checkpoint_to_dict(first.checkpoint)))
    assert [entry["v"] for entry in doc["optimizer"]["layers"]] == [float("inf")] * 2
    second = train(cfg, resume_from=checkpoint_from_dict(doc), record_weight_trace=True)
    assert full.termination == second.termination == "completed"
    for wa, wb in zip(first.weight_trace + second.weight_trace, full.weight_trace, strict=True):
        assert all(wa[layer_id].tobytes() == wb[layer_id].tobytes() for layer_id in wb)
    assert not np.array_equal(full.weight_trace[0]["w"], full.final_weights["w"])


@pytest.mark.parametrize("algorithm", ["adam", "adamw"])
def test_resume_after_adams_v_overflows_equals_the_uninterrupted_run(algorithm):
    # a finite float64 gradient above about 1e154 squares to inf, so v holds inf; AdamW's decay still moves the weights
    cfg = quadratic_config(
        algorithm, base_lr=0.01, total_steps=10, log_every=1, hyperparams={"weight_decay": 0.1},
        problem=ProblemSpec("quadratic", {"dim": 4}, 1e200),
    )
    full = train(cfg, record_weight_trace=True)
    first = train(cfg, stop_after=4, record_weight_trace=True)
    doc = json.loads(json.dumps(checkpoint_to_dict(first.checkpoint)))
    assert [v for entry in doc["optimizer"]["layers"] for v in entry["v"]] == [float("inf")] * 4
    second = train(cfg, resume_from=checkpoint_from_dict(doc), record_weight_trace=True)
    assert full.termination == second.termination == "completed"
    assert log_to_jsonl(second).splitlines()[1:] == log_to_jsonl(full).splitlines()[5:]
    for wa, wb in zip(first.weight_trace + second.weight_trace, full.weight_trace, strict=True):
        assert all(wa[layer_id].tobytes() == wb[layer_id].tobytes() for layer_id in wb)
    assert np.array_equal(full.weight_trace[0]["w"], full.final_weights["w"]) == (algorithm == "adam")


@pytest.mark.parametrize("algorithm", ["adam", "sgd"])
def test_a_bound_fresh_state_saves_zero_layers_and_resumes_alike(algorithm):
    cfg = logreg_config(algorithm, total_steps=6)
    fresh = train(cfg, stop_after=0).checkpoint
    bound = train(cfg, resume_from=fresh, stop_after=0).checkpoint  # binds the fresh state at set-up
    assert fresh.optimizer["layers"] == []
    assert [(entry["id"], any(entry["m"])) for entry in bound.optimizer["layers"]] == [("w", False), ("b", False)]
    assert log_to_jsonl(train(cfg, resume_from=fresh)) == log_to_jsonl(train(cfg, resume_from=bound))


class TestGradCheck:
    def test_quadratic_tight_bound(self):
        report = grad_check(build("quadratic", {"diag": [2.0, 4.0]}), seed=0, trials=20)
        assert report.passed
        assert max(report.max_rel_error.values()) <= 1e-8

    def test_mlp_within_tolerance(self):
        problem = build("mlp", {"size": 32, "dim": 3, "n_classes": 3, "hidden": 4})
        report = grad_check(problem, seed=1, trials=5)
        assert report.passed
        assert report.tolerance == 1e-5

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            grad_check(build("rosenbrock", {}), seed=0, trials=0)

    @pytest.mark.parametrize("key,value", [("trials", True), ("trials", 2.5), ("trials", "3"), ("seed", -1)])
    def test_bad_argument_is_a_value_error_naming_it(self, key, value):
        args = {"seed": 0, "trials": 1, key: value}
        with pytest.raises(ValueError, match=rf"^{key} must be"):
            grad_check(build("rosenbrock", {}), **args)


class TestCompareRuns:
    def test_three_optimizers_same_grid(self):
        cfgs = [logreg_config(a, total_steps=20) for a in ("sgd", "adam", "novograd")]
        rows, logs = compare_runs(cfgs, loss_threshold=10.0)
        assert [row.label for row in rows] == ["sgd", "adam", "novograd"]
        grids = [[rec.step for rec in log.records] for log in logs]
        assert grids[0] == grids[1] == grids[2]
        assert all(row.steps_to_threshold == 0 for row in rows)  # ln2 < 10 from step 0

    def test_single_config(self):
        rows, _ = compare_runs([logreg_config(total_steps=5)])
        assert len(rows) == 1

    def test_duplicate_tags_get_distinct_labels(self):
        cfgs = [
            logreg_config("adam", total_steps=5),
            logreg_config("adam", total_steps=5, hyperparams={"beta1": 0.8}),
        ]
        rows, _ = compare_runs(cfgs)
        assert [row.label for row in rows] == ["adam", "adam#2"]

    def test_mismatched_problems_rejected(self):
        a = logreg_config(total_steps=5)
        b = replace(a, problem=ProblemSpec("logreg", {"size": 32}))
        with pytest.raises(ValueError, match="mismatched problems"):
            compare_runs([a, b])
        c = replace(a, seed=99)
        with pytest.raises(ValueError, match="mismatched problems"):
            compare_runs([a, c])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_runs([])


def _count_builds(monkeypatch):
    calls = []
    original = problems_mod.build

    def counting(kind, options=None):
        calls.append(kind)
        return original(kind, options)

    monkeypatch.setattr(problems_mod, "build", counting)
    return calls


def _same_run(a, b):
    assert log_to_jsonl(a) == log_to_jsonl(b)
    for layer_id, w in b.final_weights.items():
        assert a.final_weights[layer_id].tobytes() == w.tobytes()


class TestSharedProblem:
    def test_sweep_builds_once_and_rows_equal_standalone_runs(self, monkeypatch):
        cfg = logreg_config("novograd", total_steps=25)
        lrs = [0.01, 0.05, 0.2]
        calls = _count_builds(monkeypatch)
        rows, logs = lr_sweep(cfg, lrs)
        assert calls == ["logreg"]
        for lr, row, log in zip(lrs, rows, logs):
            standalone = train(replace(cfg, schedule=replace(cfg.schedule, base_lr=lr)))
            _same_run(log, standalone)
            assert row.final_loss == standalone.records[-1].loss

    def test_compare_builds_once_and_rows_equal_standalone_runs(self, monkeypatch):
        cfgs = [logreg_config(a, total_steps=25) for a in ("novograd", "adam", "sgd")]
        calls = _count_builds(monkeypatch)
        _, logs = compare_runs(cfgs)
        assert calls == ["logreg"]
        for cfg, log in zip(cfgs, logs):
            _same_run(log, train(cfg))

    def test_invalid_config_rejected_before_any_run(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        with pytest.raises(ValueError, match="log_every"):
            compare_runs([logreg_config(total_steps=5), logreg_config(total_steps=5, log_every=0)])
        assert calls == []

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"], []])
    def test_label_count_must_match_configs(self, monkeypatch, labels):
        calls = _count_builds(monkeypatch)
        cfg = logreg_config(total_steps=5)
        with pytest.raises(ValueError, match="labels"):
            compare_runs([cfg, cfg], labels=labels)
        assert calls == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_run_on_a_memoized_build_equals_one_on_a_fresh_build(self, algorithm):
        """``build`` hands out copies of a memoized problem; a run on one, after
        other runs evaluated earlier copies, is byte for byte a run on a problem
        built after the memo was cleared, also with a scaled gradient stream."""
        scaled = ProblemSpec("quadratic", {"dim": 6, "matrix_seed": 1}, gradient_scale=2.0**-20)
        for cfg in (mlp_config(algorithm, total_steps=8), quadratic_config(algorithm, total_steps=8, problem=scaled)):
            train(cfg)
            warm = train(cfg)
            problems_mod._prototype.cache_clear()
            _same_run(warm, train(cfg))


SMALL_MLP = ProblemSpec("mlp", {"size": 48, "dim": 3, "n_classes": 3, "hidden": 5, "dataset_seed": 4})


def mlp_config(algorithm, total_steps=20, base_lr=0.05, **kwargs):
    defaults = dict(
        problem=SMALL_MLP,
        algorithm=algorithm,
        schedule=ScheduleSpec(base_lr=base_lr, total_steps=total_steps, warmup_steps=2),
        batch_size=4,
        total_steps=total_steps,
        seed=5,
        log_every=1,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


@contextmanager
def mlp_weights_in(dtype):
    """MLP models start in ``dtype`` (float32 selects the reduced-precision mode)."""
    original = MlpProblem.init_params

    def init_params(self, rng):
        params = original(self, rng)
        return ModelParams([ParameterLayer(layer.id, layer.weights.astype(dtype)) for layer in params])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MlpProblem, "init_params", init_params)
        yield


class TestLockstep:
    """compare_runs and lr_sweep train their rows in lockstep groups; each
    row must still be its standalone run, bit for bit."""

    # four groups (batch size 4 or 8 x accumulation 1 or 3), all five
    # algorithms, LARC on and off, different step counts and log intervals, and
    # an sgd row that overflows after its first steps while the others go on
    MIXED = [
        ("novograd", dict(larc=LarcConfig())),
        ("adam", dict(batch_size=8, accumulation_factor=3, total_steps=14, log_every=4)),
        ("adamw", dict(total_steps=26, log_every=3, hyperparams={"weight_decay": 0.01})),
        ("sgd", dict(batch_size=8, accumulation_factor=3, base_lr=1e308)),
        ("sngd", dict(batch_size=8, total_steps=9, larc=LarcConfig(clip=False), log_every=2)),
        ("novograd", dict(accumulation_factor=3, hyperparams={"ams": True}, larc=LarcConfig())),
    ]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_compare_rows_equal_standalone_runs(self, dtype):
        cfgs = [mlp_config(a, **kw) for a, kw in self.MIXED]
        with mlp_weights_in(dtype):
            rows, logs = compare_runs(cfgs, loss_threshold=0.5)
            standalone = [train(cfg) for cfg in cfgs]
        assert [log.termination == "diverged" for log in logs] == [False, False, False, True, False, False]
        assert 0 < len(logs[3].records) < 20
        for row, log, alone in zip(rows, logs, standalone):
            assert next(iter(log.final_weights.values())).dtype == dtype
            _same_run(log, alone)
            assert row.diverged == (alone.termination == "diverged")

    def test_one_batch_draw_and_eval_grad_per_step_per_group(self, monkeypatch):
        def counted(calls, fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)

            return wrapper

        draws = []
        evals = []
        monkeypatch.setattr(harness, "_batch_indices", counted(draws, harness._batch_indices))
        monkeypatch.setattr(MlpProblem, "eval_grad", counted(evals, MlpProblem.eval_grad))
        cfgs = [mlp_config(a, **kw) for a, kw in self.MIXED]
        compare_runs(cfgs)
        # each group runs as many steps as its longest row: (batch size,
        # accumulation) (4, 1) 26 steps, (8, 3) 14, (8, 1) 9 and (4, 3) 20;
        # one eval holds all of a step's micro-batches
        assert len(draws) == len(evals) == 26 + 14 + 9 + 20
        assert [batch.shape for _, _, batch in evals[:1] + evals[26:27]] == [(1, 4), (3, 8)]
        rows, _ = lr_sweep(mlp_config("novograd"), [0.01, 0.1, 1.0])
        assert len(draws) == len(evals) == 26 + 14 + 9 + 20 + 20 and len(rows) == 3

    @pytest.mark.parametrize("accumulation", [8, 9])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_long_accumulation_sums_micro_batches_in_order(self, dtype, accumulation):
        """From k = 8 a pairwise sum would reorder the micro-batches; each
        row's update must be the plain in-order sum of k separate evals."""
        cfgs = [
            mlp_config(a, accumulation_factor=accumulation, total_steps=6, larc=LarcConfig() if a == "adam" else None)
            for a in ALGORITHMS
        ]
        with mlp_weights_in(dtype):
            _, logs = compare_runs(cfgs)
            for cfg, log in zip(cfgs, logs):
                _same_run(log, train(cfg))
            problem = build(SMALL_MLP.kind, SMALL_MLP.options)
            params = problem.init_params(np.random.default_rng([cfgs[3].seed, harness._INIT_STREAM, 0]))
        # the sgd row by hand: k separate evals, summed from zero, then averaged
        sgd = cfgs[3]
        assert sgd.algorithm == "sgd" and logs[3].termination == "completed"
        driver = OptimizerDriver("sgd", make_config("sgd", sgd.hyperparams))
        size, k = sgd.batch_size, sgd.accumulation_factor
        for t, record in enumerate(logs[3].records):
            indices = harness._batch_indices(sgd.seed, t, problem.n_examples, size * k)
            loss, accum = 0.0, np.zeros_like(params.grad)
            for j in range(k):
                loss += problem.eval_grad(params, indices[j * size : (j + 1) * size])
                accum += params.grad
            np.divide(accum, k, out=params.grad)
            assert record.loss == loss / k
            driver.step(params, lr_at(sgd.schedule, t))
        for layer in params:
            assert layer.weights.tobytes() == logs[3].final_weights[layer.id].tobytes()

    # one variant per stack: every algorithm, and NovoGrad with ams, ema and decoupled decay
    STACKED = [
        ("novograd", {}),
        ("novograd", {"ams": True, "first_moment_style": "ema", "wd_placement": "decoupled_update", "weight_decay": 0.01}),
        ("adam", {"weight_decay": 0.01}),
        ("adamw", {"weight_decay": 0.01}),
        ("sgd", {"weight_decay": 0.01}),
        ("sngd", {"epsilon": 0.0}),
    ]

    @settings(max_examples=30, deadline=None)
    @given(
        variant=st.sampled_from(STACKED),
        dtype=st.sampled_from([np.float64, np.float32]),
        accumulation=st.sampled_from([1, 3]),
        data=st.data(),
    )
    def test_stacked_rows_equal_standalone_runs_as_other_rows_leave(self, variant, dtype, accumulation, data):
        """Rows of one group, most of one algorithm and config (so they step as
        one stack), each with its own rate, LARC config and step count, some
        diverging (base_lr 1e300) or checkpointing mid-run: each row's log and
        checkpoint are those of its run alone."""
        algorithm, hyperparams = variant
        runs = []
        for _ in range(data.draw(st.integers(2, 5))):
            steps = data.draw(st.integers(3, 10))
            cfg = mlp_config(
                algorithm,
                total_steps=steps,
                accumulation_factor=accumulation,
                hyperparams=data.draw(st.sampled_from([hyperparams, hyperparams, {}])),
                base_lr=data.draw(st.sampled_from([0.01, 0.05, 0.3, 1e300])),
                larc=data.draw(st.sampled_from([None, LarcConfig(), LarcConfig(clip=False, eps_div=0.0)])),
            )
            runs.append((cfg, data.draw(st.none() | st.integers(0, steps - 1))))
        problem = build(SMALL_MLP.kind, SMALL_MLP.options)
        with mlp_weights_in(dtype):
            logs = harness._run_grid(problem, [harness._Row(cfg, problem, stop) for cfg, stop in runs])
            alone = [train(cfg, stop_after=stop) for cfg, stop in runs]
        for log, ref in zip(logs, alone):
            _same_run(log, ref)
            assert log.termination == ref.termination
            if ref.checkpoint is not None:
                assert json.dumps(checkpoint_to_dict(log.checkpoint)) == json.dumps(checkpoint_to_dict(ref.checkpoint))

    def test_a_warm_float32_grid_step_allocates_nothing_the_size_of_the_model(self, monkeypatch):
        """A step of a float32 stack that logs and takes LARC (which leaves these
        gradients unscaled), harness included, squares its gradient and weight
        norms into the float64 buffer kept with the stack and allocates less
        than half of the stack's weights."""

        class InPlace(Problem):
            """A large float32 model whose gradient, its weights, is written in place."""

            def layer_layout(self):
                return [("a", 60000), ("b", 7), ("c", 300)]

            def init_params(self, rng):
                return ModelParams(
                    [ParameterLayer(name, rng.standard_normal(size).astype(np.float32)) for name, size in self.layer_layout()]
                )

            def _loss(self, params, batch, grad):
                if grad:
                    np.copyto(params.grad, params.weights)
                return np.zeros(params.weights.shape[:-1])

        peaks = []
        draw = harness._batch_indices

        def traced(seed, step, n, count):  # called once at the start of each step
            if step == 3:  # every layer has initialized, and the workspaces are made
                tracemalloc.start()
            elif step == 4:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return draw(seed, step, n, count)

        monkeypatch.setattr(harness, "_batch_indices", traced)
        problem = InPlace()
        larc = LarcConfig(trust_coefficient=1.0)
        cfgs = [mlp_config("novograd", total_steps=6, base_lr=lr, larc=larc) for lr in (0.01, 0.02, 0.03)]
        logs = harness._run_grid(problem, [harness._Row(cfg, problem) for cfg in cfgs])
        assert [log.termination for log in logs] == ["completed"] * 3
        assert len(peaks) == 1 and peaks[0] < 3 * (60000 + 7 + 300) * 4 / 2

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("larc", [None, LarcConfig()], ids=["plain", "larc"])
    def test_one_reduction_of_the_gradient_per_step(self, monkeypatch, algorithm, larc):
        """The harness's one ``l2_norm_sq`` call per step gives the finiteness
        check, the logged norms and the step's sums; LARC adds one call for the
        weights, and one for the gradient on each step whose gradient LARC
        changed.  No ``isfinite`` pass covers the gradient while it stays finite."""
        norms, passes, scales = [], [], []
        kernel, isfinite, scale = harness.l2_norm_sq, np.isfinite, harness.larc_scale

        def counted_kernel(*args, **kwargs):
            norms.append(args[0].shape)
            return kernel(*args, **kwargs)

        def counted_isfinite(x, *args, **kwargs):
            if np.shape(x)[-1:] == (99,):  # the default MLP's weights, or a buffer of them
                passes.append(x)
            return isfinite(x, *args, **kwargs)

        def counted_scale(*args, **kwargs):
            scales.append(scale(*args, **kwargs))
            return scales[-1]

        monkeypatch.setattr(harness, "l2_norm_sq", counted_kernel)
        monkeypatch.setattr(optim, "l2_norm_sq", counted_kernel)
        monkeypatch.setattr(np, "isfinite", counted_isfinite)
        monkeypatch.setattr(harness, "larc_scale", counted_scale)
        cfg = RunConfig(
            problem=ProblemSpec("mlp", {}),
            algorithm=algorithm,
            schedule=ScheduleSpec(base_lr=0.05, total_steps=50),
            larc=larc,
            total_steps=50,
            log_every=10,
        )
        log = train(cfg)
        assert log.termination == "completed" and len(log.records) == 6
        layers = len(log.final_weights)
        changed = sum(any(s != 1.0 for s in scales[i : i + layers]) for i in range(0, len(scales), layers))
        assert len(scales) == (50 * layers if larc else 0)
        assert 0 < changed < 50 if larc else changed == 0  # LARC changes some steps' gradients, not all
        assert len(norms) == (100 + changed if larc else 50)
        assert passes == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_every_step_reads_the_sums_of_the_gradient_it_steps(self, monkeypatch, dtype):
        """Every optimizer step, of a stack or of one row, gets ``sums`` equal
        bit for bit to a fresh ``l2_norm_sq`` of the gradient it steps: as
        averaged, or as LARC left it in clip or in scale mode, also in a grid
        where one row's trust ratio overflows and the row leaves its stack."""
        kinds = []
        step = OptimizerDriver.step

        def checked_step(self, params, lr_t, sums=None):
            fresh = l2_norm_sq(params.grad, params.offsets)
            assert sums is not None and sums.dtype == np.float64 and sums.tobytes() == fresh.tobytes()
            kinds.append(params.weights.ndim)
            return step(self, params, lr_t, sums)

        monkeypatch.setattr(OptimizerDriver, "step", checked_step)
        modes = [None, LarcConfig(), LarcConfig(clip=False, eps_div=0.0)]
        # per algorithm, three rows of one config (a stack) and a lone row with its own
        cfgs = [mlp_config(algorithm, larc=larc) for algorithm in ALGORITHMS for larc in modes]
        own = {algorithm: {"momentum": 0.5} if algorithm == "sgd" else {"epsilon": 1e-6} for algorithm in ALGORITHMS}
        cfgs += [mlp_config(algorithm, hyperparams=own[algorithm], larc=modes[2]) for algorithm in ALGORITHMS]
        with mlp_weights_in(dtype):
            _, logs = compare_runs(cfgs)
        assert all(log.termination == "completed" for log in logs)
        assert kinds.count(2) == 20 * len(ALGORITHMS) and kinds.count(1) == 20 * len(ALGORITHMS)
        # as in test_larc_overflow_ends_diverged: at step 2 (lr_t = 1e-3 * 0.5**1020)
        # the first row's trust ratio overflows; its stack partner steps alone
        kinds.clear()
        spec = ProblemSpec("quadratic", {"diag": [2.0, 4.0], "w0": [1.0, 1.0]})
        schedule = ScheduleSpec(base_lr=1e-3, total_steps=4, family="polynomial", power=1020.0)
        overflow = quadratic_config("sgd", problem=spec, schedule=schedule, total_steps=4, log_every=1)
        cfgs = [
            replace(overflow, larc=LarcConfig(trust_coefficient=1.0, clip=False)),
            replace(overflow, schedule=replace(schedule, power=1.0), larc=LarcConfig(clip=False, eps_div=0.0)),
            replace(overflow, algorithm="novograd", larc=LarcConfig()),
        ]
        _, logs = compare_runs(cfgs)
        assert [log.termination for log in logs] == ["diverged", "completed", "completed"]
        assert [rec.step for rec in logs[0].records] == [0, 1]
        assert kinds == [2, 1, 2, 1, 1, 1, 1, 1]

    def test_a_sweep_whose_squares_overflow_equals_its_standalone_runs(self):
        """At ``gradient_scale=2**600`` every row's squares overflow while its
        gradient stays finite: the sums are infinite, and the finiteness check
        and the step fall back to a pass over the gradient, for each row as alone."""
        for algorithm in ("novograd", "sgd"):
            cfg = quadratic_config(algorithm, total_steps=12, log_every=1)
            cfg = replace(cfg, problem=replace(cfg.problem, gradient_scale=2.0**600))
            lrs = [0.01, 0.05, 0.2]
            _, logs = lr_sweep(cfg, lrs)
            # NovoGrad divides by the infinite norm and stands still; SGD's first step
            # overflows the next loss.  Exact norms (the known fault) change both.
            expected = ("completed", 12) if algorithm == "novograd" else ("diverged", 1)
            assert [(log.termination, len(log.records)) for log in logs] == [expected] * 3
            assert math.isinf(logs[0].records[0].grad_norms["w"])
            for lr, log in zip(lrs, logs):
                _same_run(log, train(replace(cfg, schedule=replace(cfg.schedule, base_lr=lr))))

    def test_a_warmup_rate_that_overflows_ends_the_run_diverged(self):
        """Warmup's ``base_lr * (t + 1)`` overflows at step 1 for ``base_lr=1e308``;
        the run (at the minimum, so its steps leave it there) ends "diverged"
        at that step instead of stepping at an infinite rate."""
        cfg = quadratic_config(
            problem=ProblemSpec("quadratic", {"diag": [2.0, 4.0], "w0": [0.0, 0.0]}),
            schedule=ScheduleSpec(base_lr=1e308, total_steps=50, warmup_steps=2),
            log_every=1,
        )
        log = train(cfg)
        assert log.termination == "diverged"
        assert [record.step for record in log.records] == [0]
        assert log.final_weights["w"].tolist() == [0.0, 0.0]

    def test_sweep_rows_equal_standalone_runs_past_a_divergent_point(self):
        cfg = quadratic_config("sgd", total_steps=60, accumulation_factor=2, log_every=1)
        lrs = [0.01, 1e8, 0.2, 1e3]
        rows, logs = lr_sweep(cfg, lrs)
        assert [row.diverged for row in rows] == [False, True, False, True]
        for lr, log in zip(lrs, logs):
            _same_run(log, train(replace(cfg, schedule=replace(cfg.schedule, base_lr=lr))))


@pytest.mark.parametrize("accumulation", [1, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("algorithm", ["novograd", "adam", "adamw", "sgd", "sngd"])
@settings(max_examples=8, deadline=None)
@given(stop=st.integers(0, 11), larc=st.booleans(), seed=st.integers(0, 2**16))
def test_resume_from_any_step_equals_uninterrupted_run(algorithm, dtype, accumulation, stop, larc, seed):
    cfg = mlp_config(
        algorithm,
        total_steps=12,
        accumulation_factor=accumulation,
        larc=LarcConfig() if larc else None,
        seed=seed,
    )
    with mlp_weights_in(dtype):
        full = train(cfg, record_weight_trace=True)
        first = train(cfg, stop_after=stop, record_weight_trace=True)
        assert first.termination == "checkpoint" and first.checkpoint.step == stop
        doc = json.loads(json.dumps(checkpoint_to_dict(first.checkpoint)))
        second = train(cfg, resume_from=checkpoint_from_dict(doc), record_weight_trace=True)
    assert second.termination == full.termination == "completed"
    assert log_to_jsonl(second).splitlines()[1:] == log_to_jsonl(full).splitlines()[1 + stop :]
    for layer_id, w in full.final_weights.items():
        assert second.final_weights[layer_id].dtype == dtype
        assert second.final_weights[layer_id].tobytes() == w.tobytes()
    for wa, wb in zip(first.weight_trace + second.weight_trace, full.weight_trace, strict=True):
        assert all(wa[k].tobytes() == wb[k].tobytes() for k in wb)


class TestSweep:
    def test_rows_and_divergence_flags(self):
        cfg = quadratic_config(
            "sgd", total_steps=200, schedule=ScheduleSpec(base_lr=0.1, total_steps=200, family="constant")
        )
        lrs = [1e-4, 1e-2, 0.2, 5.0]
        rows, _ = lr_sweep(cfg, lrs)
        assert [row.lr for row in rows] == lrs
        assert rows[-1].diverged is True
        assert rows[1].diverged is False

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            lr_sweep(quadratic_config(), [])
        with pytest.raises(ValueError, match="empty"):
            lr_sweep(quadratic_config(), np.array([]))

    def test_numpy_grids_serialize_as_a_python_grid(self):
        cfg = logreg_config(total_steps=5, log_every=2)
        grid = np.geomspace(0.01, 0.1, 3)
        outputs = []
        for lrs in (grid, list(grid), grid.tolist()):
            rows, logs = lr_sweep(cfg, lrs)
            outputs.append([sweep_to_csv(rows)] + [log_to_csv(log) + log_to_jsonl(log) for log in logs])
        assert outputs[0] == outputs[1] == outputs[2]
        assert "np." not in "".join(outputs[0])

    def test_rows_that_diverge_before_logging_write_nan_losses(self):
        """At ``gradient_scale=1e308`` the Rosenbrock gradient overflows at step 0,
        so no row logs a record; each row's losses are NaN and it is flagged."""
        cfg = RunConfig(
            problem=ProblemSpec("rosenbrock", {}, gradient_scale=1e308),
            algorithm="sgd",
            schedule=ScheduleSpec(base_lr=0.1, total_steps=5),
            total_steps=5,
        )
        rows, logs = lr_sweep(cfg, [0.001, 0.01])
        assert [(log.termination, log.records) for log in logs] == [("diverged", [])] * 2
        assert sweep_to_csv(rows) == "lr,final_loss,best_loss,diverged\n0.001,nan,nan,true\n0.01,nan,nan,true\n"
        rows, _ = compare_runs([cfg, replace(cfg, algorithm="novograd")], loss_threshold=1.0)
        assert comparison_to_csv(rows) == (
            "label,algorithm,final_loss,best_loss,steps_to_threshold,diverged\n"
            "sgd,sgd,nan,nan,,true\nnovograd,novograd,nan,nan,,true\n"
        )

    @pytest.mark.parametrize("lrs", [5, "0.1", ["x"], [0.1, float("nan")], [0.1, 0.0], np.ones((2, 2)), [[0.1]]])
    def test_malformed_grid_is_a_value_error(self, lrs):
        with pytest.raises(ValueError, match="lrs|base_lr"):
            lr_sweep(quadratic_config(), lrs)


class TestSerialization:
    def test_jsonl_structure(self):
        log = train(logreg_config(total_steps=10, log_every=5))
        lines = log_to_jsonl(log).strip().split("\n")
        header = json.loads(lines[0])
        assert header["config"]["optimizer"]["algorithm"] == "novograd"
        record = json.loads(lines[1])
        assert set(record) == {"step", "lr_effective", "loss", "grad_norms", "second_moments"}
        footer = json.loads(lines[-1])
        assert footer["termination"] == "completed"
        assert set(footer["final_weights"]) == {"w", "b"}

    def test_jsonl_timing_optional(self):
        log = train(logreg_config(total_steps=5))
        assert "wall_time_ns" not in log_to_jsonl(log)
        assert "wall_time_ns" in log_to_jsonl(log, include_timing=True)

    def test_csv_column_order(self):
        log = train(logreg_config(total_steps=10, log_every=5))
        lines = log_to_csv(log).strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1] == "step,lr_effective,loss,grad_norm_w,grad_norm_b,v_w,v_b"
        assert len(lines) == 2 + 3  # records at steps 0, 5, 9

    def test_csv_omits_moment_columns_without_second_moments(self):
        sngd = train(logreg_config("sngd", total_steps=5, log_every=5))
        # NovoGrad logs with zero records: stopped before step 0, diverged at step 0
        stopped = train(logreg_config(total_steps=5, log_every=5), stop_after=0)
        diverged = train(quadratic_config("novograd", problem=ProblemSpec("rosenbrock", {}, 1e308)))
        assert diverged.termination == "diverged"
        for log in (sngd, stopped, diverged):
            lines = log_to_csv(log).strip().split("\n")
            assert lines[1] == "step,lr_effective,loss," + ",".join("grad_norm_" + lid for lid in log.final_weights)
        for log in (stopped, diverged):
            assert log.records == [] and len(log_to_csv(log).strip().split("\n")) == 2
            docs = [json.loads(line) for line in log_to_jsonl(log).strip().split("\n")]
            assert [sorted(doc) for doc in docs] == [["config"], ["final_weights", "termination"]]

    def test_csv_header_quotes_layer_ids_with_separators(self):
        ids = ["a,b", 'q"x']
        record = MetricsRecord(0, 0.1, 1.5, {ids[0]: 2.0, ids[1]: 3.0}, {ids[0]: 4.0}, 7)
        weights = {layer_id: np.zeros(1) for layer_id in ids}
        log = TrajectoryLog(logreg_config(), [record], weights, "completed")
        config_line, table = log_to_csv(log).split("\n", 1)
        assert config_line.startswith("# config: ")
        parsed = list(csv.reader(io.StringIO(table, newline="")))
        assert parsed == [
            ["step", "lr_effective", "loss", "grad_norm_a,b", 'grad_norm_q"x', "v_a,b", 'v_q"x'],
            ["0", "0.1", "1.5", "2.0", "3.0", "4.0", ""],
        ]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_jsonl_and_csv_agree(self, algorithm):
        """Every JSONL record key equals its CSV cell(s): a float by its repr,
        a None or absent layer value as an empty cell."""
        prefixes = {"grad_norms": "grad_norm_", "second_moments": "v_"}
        cfg = mlp_config(algorithm, total_steps=4)
        params = harness.build_problem(SMALL_MLP).init_params(np.random.default_rng(0))
        weights = {layer.id: layer.weights for layer in params}
        weights["w2"][...] = 0.0  # w1 and b1 start with a zero gradient, so NovoGrad defers their v
        fresh = OptimizerDriver(algorithm, make_config(algorithm)).state_dict()
        logs = [train(cfg, resume_from=Checkpoint(0, weights, fresh)), train(cfg, stop_after=0)]
        assert [len(log.records) for log in logs] == [4, 0]
        for log in logs:
            for timing in (False, True):
                records = [json.loads(line) for line in log_to_jsonl(log, timing).splitlines()[1:-1]]
                header, *rows = csv.reader(io.StringIO(log_to_csv(log, timing).split("\n", 1)[1], newline=""))
                assert len(rows) == len(records)
                assert ("wall_time_ns" in header) == timing
                for record, row in zip(records, rows):
                    cells = dict(zip(header, row, strict=True))
                    expected = {}
                    for key, value in record.items():
                        if key not in prefixes:
                            expected[key] = repr(value)
                            continue
                        for layer_id in log.final_weights:
                            cell = (value or {}).get(layer_id)
                            expected[prefixes[key] + layer_id] = "" if cell is None else repr(cell)
                    assert cells.keys() <= expected.keys()
                    assert {key: cells.get(key, "") for key in expected} == expected

    def test_comparison_and_sweep_csv(self):
        rows, _ = compare_runs([logreg_config(total_steps=5)], loss_threshold=None)
        table = comparison_to_csv(rows)
        assert table.startswith("label,algorithm,final_loss,best_loss,steps_to_threshold,diverged")
        srows, _ = lr_sweep(quadratic_config(total_steps=5), [0.1])
        assert sweep_to_csv(srows).startswith("lr,final_loss,best_loss,diverged")

    def test_row_cells_with_separators_are_quoted(self):
        labels = ["a,b", 'say "hi"', "two\nlines", "carriage\rreturn"]
        rows = [ComparisonRow(label, "adam", 0.5, 0.25, None, False) for label in labels]
        rows.append(ComparisonRow("plain label", "sgd", float("nan"), float("inf"), 0, True))
        text = comparison_to_csv(rows)
        assert text.endswith("\nplain label,sgd,nan,inf,0,true\n")
        parsed = list(csv.reader(io.StringIO(text, newline="")))
        assert parsed[0] == ["label", "algorithm", "final_loss", "best_loss", "steps_to_threshold", "diverged"]
        assert parsed[1] == ["a,b", "adam", "0.5", "0.25", "", "false"]
        assert [row[0] for row in parsed[1:]] == labels + ["plain label"]
        assert all(len(row) == 6 for row in parsed)

    def test_numpy_scalar_cells_are_written_as_their_python_values(self):
        row = ComparisonRow("a", "adam", np.float64(0.5), 0.25, np.int64(3), np.bool_(True))
        assert comparison_to_csv([row]).splitlines()[1] == "a,adam,0.5,0.25,3,true"

    def test_checkpoint_round_trip_exact(self):
        log = train(logreg_config(total_steps=10), stop_after=7)
        doc = checkpoint_to_dict(log.checkpoint)
        restored = checkpoint_from_dict(json.loads(json.dumps(doc)))
        assert restored.step == 7
        for layer_id, w in log.checkpoint.weights.items():
            np.testing.assert_array_equal(w, restored.weights[layer_id])


class TestBenchmarkRegression:
    def test_novograd_reaches_threshold_within_twice_adams_steps(self):
        # regression bound frozen from reference runs on this exact config
        prob = ProblemSpec("logreg", {"size": 200, "dim": 4, "separation": 2.0, "dataset_seed": 11})

        def cfg(algorithm, lr):
            return RunConfig(
                problem=prob,
                algorithm=algorithm,
                schedule=ScheduleSpec(base_lr=lr, total_steps=400),
                batch_size=32,
                total_steps=400,
                seed=0,
                log_every=5,
            )

        rows, _ = compare_runs([cfg("adam", 0.05), cfg("novograd", 0.02)], loss_threshold=0.40)
        by_label = {row.label: row for row in rows}
        assert by_label["novograd"].steps_to_threshold is not None
        assert by_label["novograd"].steps_to_threshold <= 2 * by_label["adam"].steps_to_threshold


class TestDatasetQuality:
    def test_separated_gaussians_linearly_learnable(self):
        # separation is 6 sigma, so a fitted linear model should be ~perfect
        cfg = logreg_config(
            "adam",
            total_steps=150,
            schedule=ScheduleSpec(base_lr=0.05, total_steps=150),
            problem=ProblemSpec("logreg", {"size": 100, "dim": 2, "separation": 6.0, "dataset_seed": 7}),
        )
        log = train(cfg)
        problem = build("logreg", {"size": 100, "dim": 2, "separation": 6.0, "dataset_seed": 7})
        from novobench.params import ModelParams, ParameterLayer

        params = ModelParams(
            [ParameterLayer(k, v.copy()) for k, v in log.final_weights.items()]
        )
        accuracy = float(np.mean(problem.predict(params, problem.features) == problem.labels))
        assert accuracy >= 0.99
