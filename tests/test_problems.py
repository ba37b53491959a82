import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novobench import problems as problems_mod
from novobench.params import ModelParams, ParameterLayer, l2_norm_sq
from novobench.problems import (
    DatasetSpec,
    GradientScaledProblem,
    LogisticRegressionProblem,
    MlpProblem,
    Problem,
    QuadraticProblem,
    RosenbrockProblem,
    build,
    finite_diff_grad,
    generate_dataset,
    validate_options,
)


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    diff = math.sqrt(l2_norm_sq(analytic - numeric))
    return diff / max(math.sqrt(l2_norm_sq(numeric)), 1e-12)


def random_params(problem: Problem, rng) -> ModelParams:
    return ModelParams(
        [ParameterLayer(name, rng.standard_normal(size)) for name, size in problem.layer_layout()]
    )


def fd_check(problem, rng, trials, tol, batch_size=8):
    for _ in range(trials):
        params = random_params(problem, rng)
        if problem.n_examples is None:
            batch = None
        else:
            batch = rng.integers(0, problem.n_examples, size=batch_size)
        problem.eval_grad(params, batch)
        analytic = {layer.id: layer.grad.copy() for layer in params}
        numeric = finite_diff_grad(problem, params, batch)
        for layer_id in analytic:
            assert rel_err(analytic[layer_id], numeric[layer_id]) <= tol


class TestQuadratic:
    def test_diagonal_example(self):
        problem = QuadraticProblem.diagonal([2.0, 4.0])
        params = ModelParams([ParameterLayer("w", np.array([1.0, 2.0]))])
        loss = problem.eval_grad(params)
        assert loss == 9.0
        np.testing.assert_array_equal(params.layer("w").grad, [2.0, 8.0])

    def test_gradient_vanishes_at_solution(self):
        problem = QuadraticProblem.random_spd(5, seed=3)
        params = ModelParams([ParameterLayer("w", problem.solution())])
        problem.eval_grad(params)
        np.testing.assert_allclose(params.layer("w").grad, np.zeros(5), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(101)
        fd_check(QuadraticProblem.random_spd(4, seed=7), rng, trials=20, tol=1e-6)

    def test_dimension_mismatch(self):
        problem = QuadraticProblem.diagonal([2.0, 4.0])
        params = ModelParams([ParameterLayer("w", np.zeros(3))])
        with pytest.raises(ValueError, match="layout"):
            problem.eval(params)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProblem(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_loss_bounded_below_by_optimum(self):
        rng = np.random.default_rng(5)
        problem = QuadraticProblem.random_spd(6, seed=11)
        best = problem.eval(ModelParams([ParameterLayer("w", problem.solution())]))
        for _ in range(20):
            loss = problem.eval(random_params(problem, rng))
            assert loss >= best


class TestRosenbrock:
    def test_global_minimum(self):
        problem = RosenbrockProblem()
        params = ModelParams([ParameterLayer("w", np.array([1.0, 1.0]))])
        loss = problem.eval_grad(params)
        assert loss == 0.0
        np.testing.assert_array_equal(params.layer("w").grad, [0.0, 0.0])

    def test_origin_gradient(self):
        problem = RosenbrockProblem()
        params = ModelParams([ParameterLayer("w", np.zeros(2))])
        problem.eval_grad(params)
        np.testing.assert_array_equal(params.layer("w").grad, [-2.0, 0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(103)
        fd_check(RosenbrockProblem(), rng, trials=30, tol=1e-6)

    def test_wrong_dimension(self):
        problem = RosenbrockProblem()
        with pytest.raises(ValueError, match="layout"):
            problem.eval(ModelParams([ParameterLayer("w", np.zeros(3))]))
        with pytest.raises(ValueError):
            RosenbrockProblem(w0=(1.0, 2.0, 3.0))


def balanced_logreg(n=64, dim=3, seed=0):
    dataset = generate_dataset(DatasetSpec(task="two-gaussians", size=n, dim=dim, seed=seed))
    return LogisticRegressionProblem.from_dataset(dataset)


class BatchSelectionChecks:
    """Batch checks run by each dataset-backed problem's test class (``make`` builds one)."""

    make = None

    def test_empty_batch_rejected(self):
        problem = self.make()
        params = random_params(problem, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty batch"):
            problem.eval(params, np.array([], dtype=int))
        with pytest.raises(ValueError, match="empty batch"):
            problem.eval_grad(params, np.array([], dtype=int))

    def test_batch_out_of_range(self):
        problem = self.make(n=16)
        params = random_params(problem, np.random.default_rng(0))
        for batch in ([16], [-1], [0, 16]):
            with pytest.raises(ValueError, match="out of range"):
                problem.eval(params, np.array(batch))
            with pytest.raises(ValueError, match="out of range"):
                problem.eval_grad(params, np.array(batch))


class TestLogisticRegression(BatchSelectionChecks):
    make = staticmethod(balanced_logreg)

    def test_uniform_predictor_loss_is_ln2(self):
        problem = balanced_logreg()
        params = ModelParams(
            [ParameterLayer("w", np.zeros(problem.dim)), ParameterLayer("b", np.zeros(1))]
        )
        assert problem.eval(params) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_bias_gradient_zero_on_balanced_labels(self):
        problem = balanced_logreg(n=100)
        params = ModelParams(
            [ParameterLayer("w", np.zeros(problem.dim)), ParameterLayer("b", np.zeros(1))]
        )
        problem.eval_grad(params)
        assert problem.labels.sum() == 50
        assert params.layer("b").grad[0] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(107)
        fd_check(balanced_logreg(), rng, trials=20, tol=1e-6)

    def test_predict_shapes(self):
        problem = balanced_logreg()
        params = random_params(problem, np.random.default_rng(1))
        pred = problem.predict(params, problem.features)
        assert pred.shape == (problem.n_examples,)
        assert set(np.unique(pred)) <= {0, 1}

    def test_duplicated_batch_keeps_mean_gradient(self):
        problem = balanced_logreg()
        params = random_params(problem, np.random.default_rng(2))
        batch = np.array([1, 4, 7])
        problem.eval_grad(params, batch)
        grads = {layer.id: layer.grad.copy() for layer in params}
        problem.eval_grad(params, np.concatenate([batch, batch]))
        for layer in params:
            np.testing.assert_allclose(layer.grad, grads[layer.id], rtol=1e-12, atol=1e-15)


def small_mlp(n=48, dim=3, classes=3, hidden=5, seed=1):
    dataset = generate_dataset(
        DatasetSpec(task="multiclass-blobs", size=n, dim=dim, seed=seed, n_classes=classes)
    )
    return MlpProblem.from_dataset(dataset, hidden=hidden)


class TestMlp(BatchSelectionChecks):
    make = staticmethod(small_mlp)

    def test_zero_output_layer_gives_uniform_loss(self):
        problem = small_mlp(classes=4)
        rng = np.random.default_rng(2)
        params = problem.init_params(rng)
        params.layer("w2").weights[...] = 0.0
        params.layer("b2").weights[...] = 0.0
        assert problem.eval(params) == pytest.approx(math.log(4.0), rel=1e-12)

    def test_duplicated_batch_keeps_mean_loss(self):
        problem = small_mlp()
        params = problem.init_params(np.random.default_rng(3))
        batch = np.array([0, 5, 9])
        doubled = np.array([0, 5, 9, 0, 5, 9])
        assert problem.eval(params, doubled) == pytest.approx(problem.eval(params, batch), rel=1e-12)
        loss_a = problem.eval_grad(params, batch)
        grads_a = {layer.id: layer.grad.copy() for layer in params}
        problem.eval_grad(params, doubled)
        for layer in params:
            np.testing.assert_allclose(layer.grad, grads_a[layer.id], rtol=1e-12, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        problem = small_mlp()
        params = random_params(problem, np.random.default_rng(4))
        probs = problem.class_probabilities(params, problem.features)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(problem.n_examples), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(109)
        fd_check(small_mlp(), rng, trials=10, tol=1e-5)

    def test_layout_mismatch(self):
        problem = small_mlp()
        with pytest.raises(ValueError, match="layout"):
            problem.eval(ModelParams([ParameterLayer("w1", np.zeros(4))]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: QuadraticProblem.random_spd(4, seed=1),
        RosenbrockProblem,
        balanced_logreg,
        small_mlp,
    ],
)
def test_eval_and_eval_grad_losses_bit_identical(make):
    problem = make()
    rng = np.random.default_rng(11)
    for _ in range(5):
        params = random_params(problem, rng)
        batch = None
        if problem.n_examples is not None:
            batch = rng.integers(0, problem.n_examples, size=6)
        assert problem.eval(params, batch) == problem.eval_grad(params, batch)


STACKABLE = {
    "quadratic": lambda: QuadraticProblem.random_spd(5, seed=2),
    "rosenbrock": RosenbrockProblem,
    "logreg": lambda: build("logreg", {"size": 40, "dim": 3}),
    "mlp": lambda: build("mlp", {"size": 40, "dim": 3, "hidden": 5, "n_classes": 4}),
    "scaled-mlp": lambda: GradientScaledProblem(build("mlp", {"size": 40, "hidden": 3}), 2.0**-7),
    # the layer sizes of the benchmark's wide-MLP sweep
    "sweep-mlp": lambda: build("mlp", {"size": 40, "dim": 32, "hidden": 256}),
}


@pytest.mark.parametrize("kind", list(STACKABLE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_eval_grad_equals_one_call_per_row(kind, data):
    """Every problem evaluates an R-row stack as R single calls, bit for bit."""
    problem = STACKABLE[kind]()
    rows = data.draw(st.integers(1, 8), label="rows")
    dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
    scale = data.draw(st.sampled_from([1e-3, 1.0, 10.0]), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    models = [
        ModelParams(
            [ParameterLayer(name, (scale * rng.standard_normal(size)).astype(dtype)) for name, size in problem.layer_layout()]
        )
        for _ in range(rows)
    ]
    batch = None
    if problem.n_examples is not None:
        size = data.draw(st.one_of(st.just(1), st.integers(2, 2 * problem.n_examples)), label="batch size")
        batch = rng.integers(0, problem.n_examples, size=size)
    singles = []
    for model in models:
        loss = problem.eval_grad(model, batch)
        singles.append((loss, problem.eval(model, batch), model.grad.copy()))

    stacked = ModelParams.stack(models)
    stacked.grad[...] = np.nan
    losses = problem.eval_grad(stacked, batch)
    evals = problem.eval(stacked, batch)
    assert losses.dtype == evals.dtype == np.float64 and losses.shape == evals.shape == (rows,)
    for r, (loss, eval_loss, grad) in enumerate(singles):
        assert type(loss) is float and losses[r] == loss and evals[r] == eval_loss
        assert stacked.grad[r].tobytes() == grad.tobytes()


@pytest.mark.parametrize("kind", list(STACKABLE))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_micro_batch_stack_equals_one_call_per_micro_batch(kind, data):
    """A (k, n) batch on an R-row model viewed as weights (R, 1, N) with a
    (R, k, N) gradient buffer gives each row's and micro-batch's loss and
    gradient of its own call, bit for bit; a batchless problem fills its
    one slot."""
    problem = STACKABLE[kind]()
    rows = data.draw(st.integers(1, 8), label="rows")
    k = data.draw(st.integers(1, 9), label="micro-batches")
    dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    models = [
        ModelParams([ParameterLayer(name, rng.standard_normal(size).astype(dtype)) for name, size in problem.layer_layout()])
        for _ in range(rows)
    ]
    stack = None
    if problem.n_examples is not None:
        size = data.draw(st.integers(1, 2 * problem.n_examples), label="batch size")
        stack = rng.integers(0, problem.n_examples, size=(k, size))
    batches = [None] if stack is None else list(stack)
    singles = [[(problem.eval_grad(model, batch), model.grad.copy()) for batch in batches] for model in models]

    stacked = ModelParams.stack(models)
    view = models[0].copy()
    grad = np.full((rows, len(batches), stacked.grad.shape[-1]), np.nan, dtype=dtype)
    view._bind(stacked.weights[:, None], grad)
    losses = problem.eval_grad(view, stack)
    assert losses.dtype == np.float64 and losses.shape == (rows, len(batches))
    for r, row in enumerate(singles):
        for j, (loss, g) in enumerate(row):
            assert losses[r, j] == loss and grad[r, j].tobytes() == g.tobytes()


def test_mlp_eval_grad_allocates_no_activation_once_warm():
    """A warm ``eval_grad`` reuses the problem's workspace for the hidden
    activation and its gradient: a 7-row, batch-64 call on the wide MLP
    allocates less than one (7, 64, 256) float64 activation, 896 KiB."""
    problem = build("mlp", {"size": 200, "dim": 32, "hidden": 256})
    rng = np.random.default_rng(0)
    stacked = ModelParams.stack([problem.init_params(rng) for _ in range(7)])
    batch = rng.integers(0, problem.n_examples, size=64)
    problem.eval_grad(stacked, batch)
    tracemalloc.start()
    try:
        problem.eval_grad(stacked, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 64 * 256 * 8


def test_mlp_workspace_survives_shape_switches_and_is_never_returned():
    """Calls of other shapes in between (one row, the oracle's probe stacks,
    held-out predictions) leave a stack's losses and gradients byte for
    byte the same, and no returned array is a view of the workspace."""
    problem = build("mlp", {"size": 64, "dim": 8, "hidden": 24, "train_fraction": 0.75})
    rng = np.random.default_rng(1)
    models = [problem.init_params(rng) for _ in range(7)]
    stacked = ModelParams.stack(models)
    batch = rng.integers(0, problem.n_examples, size=16)

    def unaliased(value):
        # checked at once: the next call of another shape replaces the workspace
        assert type(value) is float or not np.shares_memory(value, problem._work)
        return value

    def stacked_outputs():
        losses = unaliased(problem.eval_grad(stacked, batch))
        unaliased(problem.eval(stacked, batch))
        return losses.tobytes(), stacked.grad.tobytes()

    first = stacked_outputs()
    unaliased(problem.eval(models[0], batch))
    unaliased(problem.eval_grad(models[0], batch))
    finite_diff_grad(problem, models[0], batch)
    unaliased(problem.class_probabilities(models[1], problem.test_features))
    unaliased(problem.predict(models[1], problem.test_features))
    assert stacked_outputs() == first


def test_rosenbrock_evaluates_a_stack_one_row_at_a_time():
    """Rosenbrock's one-model loss squares numpy scalars (libm ``pow``), which
    can differ in the last bit from an array's square; at this point it does
    on common libm builds.  So Rosenbrock loops over a stack's rows rather
    than squaring arrays, and still equals its single calls."""
    problem = RosenbrockProblem()
    x = 0.9251479399051672  # on the valley floor y = x * x, the loss is (1 - x) ** 2
    models = [ModelParams([ParameterLayer("w", [x, y])]) for y in (x * x, -1.5)]
    singles = [problem.eval_grad(model) for model in models]
    grads = [model.grad.copy() for model in models]
    stacked = ModelParams.stack(models)
    stacked.grad[...] = 0.0
    assert problem.eval_grad(stacked).tolist() == singles
    assert stacked.grad.tolist() == [g.tolist() for g in grads]


def loop_finite_diff_grad(problem, params, batch=None, rel_step=1e-6):
    """Central differences one coordinate at a time, each probe written into
    ``params`` and undone: the reference ``finite_diff_grad`` must equal."""
    grads = {}
    for layer in params:
        w = layer.weights
        out = np.zeros(w.size, dtype=np.float64)
        for i in range(w.size):
            orig = w[i]
            h = rel_step * (abs(float(orig)) + 1.0)
            w[i] = orig + h
            f_plus = problem.eval(params, batch)
            w[i] = orig - h
            f_minus = problem.eval(params, batch)
            w[i] = orig
            out[i] = (f_plus - f_minus) / (2.0 * h)
        grads[layer.id] = out
    return grads


FD_PROBLEMS = {
    # 9,219 coordinates: too many for the coordinate loop
    **{kind: make for kind, make in STACKABLE.items() if kind != "sweep-mlp"},
    # 291 coordinates: three probe stacks at the default budget
    "wide-mlp": lambda: build("mlp", {"size": 30, "dim": 8, "hidden": 24}),
}


@pytest.mark.parametrize("kind", list(FD_PROBLEMS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_finite_diff_grad_equals_the_coordinate_loop(kind, data):
    """The stacked oracle gives the loop's gradients bit for bit, whatever
    the dtype, step and number of probe stacks."""
    problem = FD_PROBLEMS[kind]()
    dtype = data.draw(st.sampled_from([np.float64, np.float32]), label="dtype")
    rel_step = data.draw(st.sampled_from([1e-8, 1e-6, 1e-3, 0.1]), label="rel_step")
    budget = data.draw(st.sampled_from([problems_mod._FD_STACK_ELEMENTS, 1, 7, 40]), label="stack budget")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = ModelParams(
        [ParameterLayer(name, rng.standard_normal(size).astype(dtype)) for name, size in problem.layer_layout()]
    )
    batch = None
    if problem.n_examples is not None and data.draw(st.booleans(), label="batched"):
        batch = rng.integers(0, problem.n_examples, size=data.draw(st.integers(1, 16), label="batch size"))
    weights, grad = params.weights.tobytes(), params.grad.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems_mod, "_FD_STACK_ELEMENTS", budget)
        numeric = finite_diff_grad(problem, params, batch, rel_step)
    assert (params.weights.tobytes(), params.grad.tobytes()) == (weights, grad)
    expected = loop_finite_diff_grad(problem, params.copy(), batch, rel_step)
    assert list(numeric) == list(expected)
    for layer_id, values in expected.items():
        assert numeric[layer_id].dtype == np.float64
        assert numeric[layer_id].tobytes() == values.tobytes(), layer_id


class TestFiniteDiff:
    def test_quadratic_is_nearly_exact(self):
        # no truncation error on a quadratic, only rounding
        problem = QuadraticProblem.diagonal([2.0, 4.0])
        params = ModelParams([ParameterLayer("w", np.array([0.7, -1.3]))])
        problem.eval_grad(params)
        numeric = finite_diff_grad(problem, params)
        assert rel_err(params.layer("w").grad, numeric["w"]) <= 1e-8

    def test_constant_function_gives_zero(self):
        class ConstantProblem(Problem):
            def layer_layout(self):
                return [("w", 3)]

            def eval(self, params, batch=None):
                return 42.0

        numeric = finite_diff_grad(ConstantProblem(), ModelParams([ParameterLayer("w", np.ones(3))]))
        assert np.abs(numeric["w"]).max() <= 1e-10

    def test_linearity_of_differentiation(self):
        a = QuadraticProblem.diagonal([2.0, 4.0])
        b = QuadraticProblem.diagonal([1.0, 3.0], b=[1.0, -1.0])

        class SumProblem(Problem):
            def layer_layout(self):
                return [("w", 2)]

            def eval(self, params, batch=None):
                return a.eval(params) + b.eval(params)

        params = ModelParams([ParameterLayer("w", np.array([0.3, 0.9]))])
        total = finite_diff_grad(SumProblem(), params)["w"]
        parts = finite_diff_grad(a, params)["w"] + finite_diff_grad(b, params)["w"]
        np.testing.assert_allclose(total, parts, atol=1e-8)

    def test_restores_params_bit_exactly(self):
        problem = small_mlp()
        rng = np.random.default_rng(13)
        params = random_params(problem, rng)
        before = {layer.id: layer.weights.tobytes() for layer in params}
        grad_before = {layer.id: layer.grad.tobytes() for layer in params}
        finite_diff_grad(problem, params, np.arange(4))
        for layer in params:
            assert layer.weights.tobytes() == before[layer.id]
            assert layer.grad.tobytes() == grad_before[layer.id]

    def test_failed_probe_leaves_params_untouched(self):
        problem = build("mlp", {"size": 20})
        params = problem.init_params(np.random.default_rng(0))
        params.grad[...] = np.random.default_rng(1).standard_normal(params.grad.size)
        before = params.weights.tobytes(), params.grad.tobytes()
        with pytest.raises(ValueError, match="batch index out of range"):
            finite_diff_grad(problem, params, np.array([999]))
        assert (params.weights.tobytes(), params.grad.tobytes()) == before

    def test_non_finite_probe_names_its_layer(self):
        class SecondLayerBlowsUp(Problem):
            """A finite loss unless a coordinate of layer ``b`` leaves 0.5."""

            def layer_layout(self):
                return [("a", 3), ("b", 2)]

            def _loss(self, params, batch, grad):
                a, b = params.layer("a").weights, params.layer("b").weights
                return np.where((b != 0.5).any(axis=-1), np.inf, (a * a).sum(axis=-1))

        params = ModelParams([ParameterLayer("a", [0.1, -0.2, 0.3]), ParameterLayer("b", [0.5, 0.5])])
        before = params.weights.tobytes(), params.grad.tobytes()
        for budget in (problems_mod._FD_STACK_ELEMENTS, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(problems_mod, "_FD_STACK_ELEMENTS", budget)
                with pytest.raises(ValueError, match="non-finite loss while probing layer 'b'"):
                    finite_diff_grad(SecondLayerBlowsUp(), params)
            assert (params.weights.tobytes(), params.grad.tobytes()) == before

    @pytest.mark.parametrize(
        "shape",
        [lambda rows: (rows + 1,), lambda rows: (rows, 1), lambda rows: (1,)],
        ids=["one-row-too-many", "column", "one-element"],
    )
    def test_rejects_a_stack_result_of_another_shape(self, shape):
        class WrongShape(Problem):
            def layer_layout(self):
                return [("w", 3)]

            def eval(self, params, batch=None):
                return np.zeros(shape(params.weights.shape[0]))

        with pytest.raises(ValueError, match="returned shape"):
            finite_diff_grad(WrongShape(), ModelParams([ParameterLayer("w", np.ones(3))]))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="rel_step"):
            finite_diff_grad(
                RosenbrockProblem(), ModelParams([ParameterLayer("w", np.zeros(2))]), rel_step=0.0
            )


class TestDatasets:
    def test_determinism_bytes(self):
        spec = DatasetSpec(task="two-gaussians", size=128, dim=4, seed=9)
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.to_csv() == b.to_csv()

    def test_balanced_binary(self):
        dataset = generate_dataset(DatasetSpec(task="two-gaussians", size=100, seed=1))
        assert int(dataset.labels.sum()) == 50

    def test_blob_balance_within_one(self):
        dataset = generate_dataset(
            DatasetSpec(task="multiclass-blobs", size=100, n_classes=3, seed=2)
        )
        counts = np.bincount(dataset.labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_moons_requires_dim_two(self):
        with pytest.raises(ValueError, match="dim=2"):
            DatasetSpec(task="two-moons-like", size=10, dim=3)
        dataset = generate_dataset(DatasetSpec(task="two-moons-like", size=30, noise=0.1, seed=3))
        assert dataset.features.shape == (30, 2)

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            DatasetSpec(task="spiral", size=10)

    def test_csv_layout(self):
        dataset = generate_dataset(DatasetSpec(task="two-gaussians", size=4, dim=2, seed=0))
        lines = dataset.to_csv().strip().split("\n")
        assert lines[0] == "f0,f1,label"
        assert len(lines) == 5
        cells = lines[1].split(",")
        assert len(cells) == 3 and cells[2] in {"0", "1"}

    def test_different_seeds_differ(self):
        a = generate_dataset(DatasetSpec(task="two-gaussians", size=64, seed=0))
        b = generate_dataset(DatasetSpec(task="two-gaussians", size=64, seed=1))
        assert a.features.tobytes() != b.features.tobytes()


class TestGradientScaledProblem:
    def test_scales_gradients_only(self):
        inner = QuadraticProblem.diagonal([2.0, 4.0])
        wrapped = GradientScaledProblem(inner, 8.0)
        params = ModelParams([ParameterLayer("w", np.array([1.0, 2.0]))])
        loss = wrapped.eval_grad(params)
        assert loss == 9.0
        np.testing.assert_array_equal(params.layer("w").grad, [16.0, 64.0])


class TestBuild:
    def test_build_and_validate_options(self):
        problem = build("quadratic", {"diag": [2.0, 4.0], "w0": [5.0, 5.0]})
        assert problem.kind == "quadratic"
        with pytest.raises(ValueError, match="unknown key 'bogus'"):
            validate_options("mlp", {"bogus": 1})
        with pytest.raises(ValueError, match="unknown problem"):
            build("nosuch", {})

    @pytest.mark.parametrize(
        "kind,options,key",
        [
            ("quadratic", {"dim": 3, "b_scale": 1.7e308}, "b_scale"),
            ("logreg", {"noise": 1.7e308}, "noise"),
            ("mlp", {"separation": 1.7e308, "n_classes": 8, "dim": 1}, "separation"),
        ],
    )
    def test_option_that_overflows_the_data_is_a_value_error(self, kind, options, key):
        kept = problems_mod._prototype.cache_info().currsize
        for _ in range(2):  # a build that raises is not kept
            with pytest.raises(ValueError, match=key):
                build(kind, options)
        assert problems_mod._prototype.cache_info().currsize == kept

    def test_quadratic_needs_shape(self):
        with pytest.raises(ValueError, match="'diag' or 'dim'"):
            build("quadratic", {})

    def test_train_test_split(self):
        problem = build(
            "mlp",
            {"size": 60, "n_classes": 3, "train_fraction": 0.75, "dataset_seed": 4, "hidden": 4},
        )
        assert problem.n_examples == 45
        assert problem.test_features.shape[0] == 15

    def test_logreg_defaults(self):
        problem = build("logreg", {})
        assert problem.n_examples == 200
        assert problem.dim == 2

    @pytest.mark.parametrize(
        "kind,options,arrays",
        [
            ("quadratic", {"dim": 5, "matrix_seed": 2, "w0": [1.0, 2.0, 3.0, 4.0, 5.0]}, ("a", "b", "w0")),
            ("rosenbrock", {"w0": [0.5, 0.5]}, ("w0",)),
            ("logreg", {"size": 40, "train_fraction": 0.5}, ("features", "labels", "test_features", "test_labels")),
            ("mlp", {"size": 30, "train_fraction": 0.8}, ("features", "labels", "test_features", "test_labels")),
        ],
    )
    def test_each_build_is_a_fresh_instance_over_read_only_arrays(self, kind, options, arrays):
        first, second = build(kind, options), build(kind, options)
        problems_mod._prototype.cache_clear()
        fresh = build(kind, options)
        assert first is not second
        for name in arrays:
            value = getattr(first, name)
            assert value.tobytes() == getattr(second, name).tobytes() == getattr(fresh, name).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0

    def test_mlp_copies_give_the_outputs_of_fresh_instances(self):
        """Two builds of one MLP evaluated in turn, one at a single row and the
        other at 7 rows with 3 micro-batches, then the other way round, give the
        losses and gradients of instances built after the memo was cleared;
        the memoized problem is never evaluated."""
        options = {"size": 64, "dim": 8, "hidden": 24}
        rng = np.random.default_rng(3)
        models = [build("mlp", options).init_params(rng) for _ in range(7)]
        batches = rng.integers(0, 64, size=(3, 16))

        def one_row(problem):
            model = models[0].copy()
            return problem.eval_grad(model, batches[0]), model.grad.tobytes()

        def seven_rows(problem):
            stacked = ModelParams.stack([model.copy() for model in models])
            view = stacked.view(stacked.weights[:, None], np.empty((7, 3, stacked.grad.shape[-1])))
            return problem.eval_grad(view, batches).tobytes(), view.grad.tobytes()

        first, second = build("mlp", options), build("mlp", options)
        calls = [(one_row, first), (seven_rows, second), (seven_rows, first), (one_row, second)]
        outputs = [call(problem) for call, problem in calls]
        assert first._work is not second._work and build("mlp", options)._work_key is None
        for (call, _), output in zip(calls, outputs):
            problems_mod._prototype.cache_clear()
            assert call(build("mlp", options)) == output

    def test_the_memo_keeps_at_most_its_size(self):
        size = problems_mod._prototype.cache_info().maxsize
        for dim in range(1, size + 5):
            build("quadratic", {"dim": dim})
            assert problems_mod._prototype.cache_info().currsize <= size
        assert problems_mod._prototype.cache_info().currsize == size


def _reference_init(problem, rng):
    """Each kind's initial model as its own init body drew it, layer by layer."""
    if problem.kind == "quadratic":
        return {"w": 0.1 * rng.standard_normal(problem.dim) if problem.w0 is None else problem.w0.copy()}
    if problem.kind == "rosenbrock":
        return {"w": problem.w0.copy()}
    if problem.kind == "logreg":
        return {"w": 0.01 * rng.standard_normal(problem.dim), "b": np.zeros(1)}
    d, h, c = problem.dim, problem.hidden, problem.n_classes
    w1 = rng.standard_normal(d * h) / math.sqrt(d)
    b1 = np.zeros(h)
    w2 = rng.standard_normal(h * c) / math.sqrt(h)
    return {"w1": w1, "b1": b1, "w2": w2, "b2": np.zeros(c)}


@pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
@pytest.mark.parametrize("scale", [None, 2.0**-20], ids=["plain", "scaled"])
@pytest.mark.parametrize(
    "kind,options",
    [
        ("quadratic", {"diag": [1.0, 4.0, 9.0]}),
        ("quadratic", {"diag": [1.0, 4.0, 9.0], "w0": [1.0, -2.0, 3.0]}),
        ("quadratic", {"dim": 7, "matrix_seed": 3}),
        ("rosenbrock", {}),
        ("logreg", {}),
        ("mlp", {}),
        ("mlp", {"dim": 5, "hidden": 7}),
    ],
)
def test_initial_models_are_pinned_bit_for_bit(kind, options, scale, seed):
    problem = build(kind, options)
    wrapped = problem if scale is None else GradientScaledProblem(problem, scale)
    params = wrapped.init_params(np.random.default_rng(seed))
    expected = _reference_init(problem, np.random.default_rng(seed))
    assert params.layer_ids == tuple(expected)
    for layer in params:
        assert layer.weights.dtype == expected[layer.id].dtype == np.float64
        assert layer.weights.tobytes() == expected[layer.id].tobytes()
