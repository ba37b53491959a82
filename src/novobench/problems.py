"""Desk-scale differentiable test problems with analytic gradients.

Every problem exposes the same contract: ``eval`` returns the loss,
``eval_grad`` returns the same loss bit-for-bit and writes gradients into
the parameter buffers.  Batched problems take an index array into their
dataset; losses and gradients are means over the batch, so gradient
accumulation by averaging composes exactly.  ``finite_diff_grad`` is the
independent oracle used to verify every analytic gradient.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, ParameterLayer

__all__ = [
    "Problem",
    "QuadraticProblem",
    "RosenbrockProblem",
    "LogisticRegressionProblem",
    "MlpProblem",
    "GradientScaledProblem",
    "DatasetSpec",
    "SyntheticDataset",
    "generate_dataset",
    "finite_diff_grad",
    "build",
    "validate_options",
    "PROBLEM_KINDS",
]


class Problem:
    """Deterministic loss/gradient over flat parameter layers."""

    kind = "abstract"
    fd_rtol = 1e-6  # relative tolerance the analytic gradient must meet
    n_examples: int | None = None  # None: batchless full objective

    def layer_layout(self) -> list[tuple[str, int]]:
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator) -> ModelParams:
        """Default init: small random weights for every layer."""
        return ModelParams(
            [ParameterLayer(name, 0.1 * rng.standard_normal(size)) for name, size in self.layer_layout()]
        )

    def eval(self, params: ModelParams, batch: np.ndarray | None = None) -> float:
        raise NotImplementedError

    def eval_grad(self, params: ModelParams, batch: np.ndarray | None = None) -> float:
        raise NotImplementedError

    def _check_layout(self, params: ModelParams) -> None:
        actual = [(layer.id, layer.size) for layer in params]
        if actual != self.layer_layout():
            raise ValueError(
                f"parameter layout {actual} does not match problem layout {self.layer_layout()}"
            )


class QuadraticProblem(Problem):
    """Convex quadratic loss(w) = 0.5 w'Aw - b'w with A symmetric positive definite.

    The unique minimizer is w* = A^-1 b, which makes distance-to-optimum a
    clean convergence metric.
    """

    kind = "quadratic"

    def __init__(self, a_matrix, b=None, w0=None):
        a = np.asarray(a_matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be a square matrix")
        if not np.allclose(a, a.T, rtol=0, atol=1e-12):
            raise ValueError("A must be symmetric")
        self.a = (a + a.T) / 2.0
        self.dim = a.shape[0]
        self.b = np.zeros(self.dim) if b is None else np.asarray(b, dtype=np.float64)
        if self.b.shape != (self.dim,):
            raise ValueError("b has the wrong dimension")
        self.w0 = None if w0 is None else np.asarray(w0, dtype=np.float64)
        if self.w0 is not None and self.w0.shape != (self.dim,):
            raise ValueError("w0 has the wrong dimension")

    @classmethod
    def diagonal(cls, diag, b=None, w0=None) -> "QuadraticProblem":
        return cls(np.diag(np.asarray(diag, dtype=np.float64)), b=b, w0=w0)

    @classmethod
    def random_spd(cls, dim: int, seed: int, b_scale: float = 1.0, w0=None) -> "QuadraticProblem":
        """Random well-conditioned SPD instance: A = MM'/dim + I."""
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((dim, dim))
        a = m @ m.T / dim + np.eye(dim)
        b = b_scale * rng.standard_normal(dim)
        return cls(a, b=b, w0=w0)

    def layer_layout(self):
        return [("w", self.dim)]

    def init_params(self, rng):
        if self.w0 is not None:
            return ModelParams([ParameterLayer("w", self.w0.copy())])
        return super().init_params(rng)

    def solution(self) -> np.ndarray:
        return np.linalg.solve(self.a, self.b)

    def _loss(self, w: np.ndarray) -> float:
        return float(0.5 * (w @ (self.a @ w)) - self.b @ w)

    def eval(self, params, batch=None):
        self._check_layout(params)
        return self._loss(params.layers[0].weights)

    def eval_grad(self, params, batch=None):
        self._check_layout(params)
        w = params.layers[0].weights
        loss = self._loss(w)
        params.layers[0].grad[...] = self.a @ w - self.b
        return loss


class RosenbrockProblem(Problem):
    """The banana-valley benchmark (a=1, b=100), global minimum at (1, 1)."""

    kind = "rosenbrock"
    A = 1.0
    B = 100.0

    def __init__(self, w0=(-1.2, 1.0)):
        self.w0 = np.asarray(w0, dtype=np.float64)
        if self.w0.shape != (2,):
            raise ValueError("rosenbrock is two-dimensional")

    def layer_layout(self):
        return [("w", 2)]

    def init_params(self, rng):
        return ModelParams([ParameterLayer("w", self.w0.copy())])

    def eval(self, params, batch=None):
        self._check_layout(params)
        x, y = params.layers[0].weights
        return float((self.A - x) ** 2 + self.B * (y - x * x) ** 2)

    def eval_grad(self, params, batch=None):
        self._check_layout(params)
        w = params.layers[0].weights
        x, y = w
        loss = float((self.A - x) ** 2 + self.B * (y - x * x) ** 2)
        gx = -2.0 * (self.A - x) - 4.0 * self.B * x * (y - x * x)
        gy = 2.0 * self.B * (y - x * x)
        params.layers[0].grad[...] = (gx, gy)
        return loss


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form stays stable for large |z|
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class LogisticRegressionProblem(Problem):
    """Binary mean log-loss over a fixed dataset; layers: weight vector + bias."""

    kind = "logreg"

    def __init__(self, features, labels):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (n, d) with n matching labels")
        if not np.isin(self.labels, (0.0, 1.0)).all():
            raise ValueError("labels must be binary")
        self.n_examples = self.features.shape[0]
        self.dim = self.features.shape[1]
        self.test_features: np.ndarray | None = None
        self.test_labels: np.ndarray | None = None

    @classmethod
    def from_dataset(cls, dataset: "SyntheticDataset") -> "LogisticRegressionProblem":
        return cls(dataset.features, dataset.labels)

    def layer_layout(self):
        return [("w", self.dim), ("b", 1)]

    def init_params(self, rng):
        return ModelParams(
            [
                ParameterLayer("w", 0.01 * rng.standard_normal(self.dim)),
                ParameterLayer("b", np.zeros(1)),
            ]
        )

    def _select(self, batch):
        if batch is None:
            return self.features, self.labels
        batch = np.asarray(batch)
        if batch.size == 0:
            raise ValueError("empty batch")
        if batch.min() < 0 or batch.max() >= self.n_examples:
            raise ValueError("batch index out of range")
        return self.features[batch], self.labels[batch]

    def _logits(self, params, x):
        self._check_layout(params)
        w = params.layer("w").weights
        b = params.layer("b").weights
        return x @ w + b[0]

    def eval(self, params, batch=None):
        x, y = self._select(batch)
        z = self._logits(params, x)
        # per-example loss: softplus(z) - y*z  (== -log sigma(z) for y=1)
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def eval_grad(self, params, batch=None):
        x, y = self._select(batch)
        z = self._logits(params, x)
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        r = _sigmoid(z) - y
        n = x.shape[0]
        params.layer("w").grad[...] = x.T @ r / n
        params.layer("b").grad[...] = np.mean(r)
        return loss

    def predict(self, params, features) -> np.ndarray:
        z = self._logits(params, np.asarray(features, dtype=np.float64))
        return (z >= 0.0).astype(np.int64)


class MlpProblem(Problem):
    """One-hidden-layer perceptron: tanh hidden units, softmax cross-entropy.

    Four layers (w1, b1, w2, b2) with distinct shapes and gradient scales,
    which is what exercises layer-wise second moments.
    """

    kind = "mlp"
    fd_rtol = 1e-5

    def __init__(self, features, labels, n_classes: int, hidden: int = 16):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (n, d) with n matching labels")
        if n_classes < 2:
            raise ValueError("need at least two classes")
        if self.labels.min() < 0 or self.labels.max() >= n_classes:
            raise ValueError("labels out of range")
        if hidden < 1:
            raise ValueError("hidden width must be >= 1")
        self.n_examples = self.features.shape[0]
        self.dim = self.features.shape[1]
        self.n_classes = n_classes
        self.hidden = hidden
        self.test_features: np.ndarray | None = None
        self.test_labels: np.ndarray | None = None

    @classmethod
    def from_dataset(cls, dataset: "SyntheticDataset", hidden: int = 16) -> "MlpProblem":
        return cls(dataset.features, dataset.labels, dataset.spec.n_classes, hidden=hidden)

    def layer_layout(self):
        d, h, c = self.dim, self.hidden, self.n_classes
        return [("w1", d * h), ("b1", h), ("w2", h * c), ("b2", c)]

    def init_params(self, rng):
        d, h, c = self.dim, self.hidden, self.n_classes
        return ModelParams(
            [
                ParameterLayer("w1", rng.standard_normal(d * h) / math.sqrt(d)),
                ParameterLayer("b1", np.zeros(h)),
                ParameterLayer("w2", rng.standard_normal(h * c) / math.sqrt(h)),
                ParameterLayer("b2", np.zeros(c)),
            ]
        )

    def _select(self, batch):
        if batch is None:
            return self.features, self.labels
        batch = np.asarray(batch)
        if batch.size == 0:
            raise ValueError("empty batch")
        if batch.min() < 0 or batch.max() >= self.n_examples:
            raise ValueError("batch index out of range")
        return self.features[batch], self.labels[batch]

    def _views(self, params):
        self._check_layout(params)
        d, h, c = self.dim, self.hidden, self.n_classes
        w1 = params.layer("w1").weights.reshape(d, h)
        b1 = params.layer("b1").weights
        w2 = params.layer("w2").weights.reshape(h, c)
        b2 = params.layer("b2").weights
        return w1, b1, w2, b2

    def _forward(self, params, x):
        w1, b1, w2, b2 = self._views(params)
        z1 = x @ w1 + b1
        a1 = np.tanh(z1)
        z2 = a1 @ w2 + b2
        zmax = z2.max(axis=1, keepdims=True)
        exp = np.exp(z2 - zmax)
        total = exp.sum(axis=1, keepdims=True)
        return a1, z2, zmax, exp, total

    def _loss_from(self, z2, zmax, total, y):
        n = z2.shape[0]
        log_z = zmax[:, 0] + np.log(total[:, 0])
        return float(np.mean(log_z - z2[np.arange(n), y]))

    def eval(self, params, batch=None):
        x, y = self._select(batch)
        _, z2, zmax, exp, total = self._forward(params, x)
        return self._loss_from(z2, zmax, total, y)

    def eval_grad(self, params, batch=None):
        x, y = self._select(batch)
        a1, z2, zmax, exp, total = self._forward(params, x)
        loss = self._loss_from(z2, zmax, total, y)
        n = x.shape[0]
        probs = exp / total
        dz2 = probs
        dz2[np.arange(n), y] -= 1.0
        dz2 /= n
        w1, b1, w2, b2 = self._views(params)
        dw2 = a1.T @ dz2
        db2 = dz2.sum(axis=0)
        da1 = dz2 @ w2.T
        dz1 = da1 * (1.0 - a1 * a1)
        dw1 = x.T @ dz1
        db1 = dz1.sum(axis=0)
        params.layer("w1").grad[...] = dw1.ravel()
        params.layer("b1").grad[...] = db1
        params.layer("w2").grad[...] = dw2.ravel()
        params.layer("b2").grad[...] = db2
        return loss

    def class_probabilities(self, params, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        _, _, _, exp, total = self._forward(params, x)
        return exp / total

    def predict(self, params, features) -> np.ndarray:
        return np.argmax(self.class_probabilities(params, features), axis=1)


class GradientScaledProblem(Problem):
    """Wrapper multiplying every written gradient by a constant.

    Emulates a rescaled gradient stream for robustness checks; the loss is
    reported unchanged, so this is not a consistent objective for
    finite-difference checks.
    """

    def __init__(self, inner: Problem, scale: float):
        self.inner = inner
        self.scale = float(scale)
        self.kind = inner.kind
        self.fd_rtol = inner.fd_rtol
        self.n_examples = inner.n_examples

    def layer_layout(self):
        return self.inner.layer_layout()

    def init_params(self, rng):
        return self.inner.init_params(rng)

    def eval(self, params, batch=None):
        return self.inner.eval(params, batch)

    def eval_grad(self, params, batch=None):
        loss = self.inner.eval_grad(params, batch)
        params.grad *= self.scale
        return loss


def finite_diff_grad(
    problem: Problem,
    params: ModelParams,
    batch: np.ndarray | None = None,
    rel_step: float = 1e-6,
) -> dict[str, np.ndarray]:
    """Central-difference gradients, one coordinate at a time.

    Uses h_i = rel_step * (|w_i| + 1) per coordinate and restores the
    parameters bit-exactly afterward.  Returns gradients keyed by layer id
    without touching the gradient buffers.
    """
    if not rel_step > 0:
        raise ValueError(f"rel_step must be > 0, got {rel_step}")
    grads: dict[str, np.ndarray] = {}
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
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise ValueError(f"non-finite loss while probing layer '{layer.id}'")
            out[i] = (f_plus - f_minus) / (2.0 * h)
        grads[layer.id] = out
    return grads


TASKS = ("two-gaussians", "two-moons-like", "multiclass-blobs")


@dataclass(frozen=True)
class DatasetSpec:
    """Generator description; identical specs produce identical bytes."""

    task: str
    size: int
    dim: int = 2
    seed: int = 0
    n_classes: int = 2
    separation: float = 6.0
    noise: float = 1.0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task '{self.task}'")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.task in ("two-gaussians", "two-moons-like") and self.n_classes != 2:
            raise ValueError(f"task '{self.task}' is binary")
        if self.task == "two-moons-like" and self.dim != 2:
            raise ValueError("two-moons-like requires dim=2")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")


@dataclass
class SyntheticDataset:
    spec: DatasetSpec
    features: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.labels.size

    def to_csv(self) -> str:
        """CSV with feature columns f0..f{d-1} then the integer label."""
        buf = io.StringIO()
        d = self.features.shape[1]
        buf.write(",".join([f"f{j}" for j in range(d)] + ["label"]) + "\n")
        for row, label in zip(self.features, self.labels):
            buf.write(",".join(repr(float(x)) for x in row) + f",{int(label)}\n")
        return buf.getvalue()


def _class_counts(size: int, k: int) -> list[int]:
    base, extra = divmod(size, k)
    return [base + (1 if j < extra else 0) for j in range(k)]


def _class_means(spec: DatasetSpec) -> np.ndarray:
    k, d, sep = spec.n_classes, spec.dim, spec.separation
    means = np.zeros((k, d))
    if spec.task == "two-gaussians":
        means[0, 0] = -sep / 2.0
        means[1, 0] = +sep / 2.0
    elif d == 1:
        means[:, 0] = sep * (np.arange(k) - (k - 1) / 2.0)
    else:
        angles = 2.0 * np.pi * np.arange(k) / k
        means[:, 0] = sep * np.cos(angles)
        means[:, 1] = sep * np.sin(angles)
    return means


def generate_dataset(spec: DatasetSpec) -> SyntheticDataset:
    """Materialize a deterministic synthetic classification dataset.

    Classes are balanced within one example; rows are shuffled with the
    spec's seed so leading slices are class-mixed.
    """
    rng = np.random.default_rng(spec.seed)
    counts = _class_counts(spec.size, spec.n_classes)
    chunks = []
    labels = []
    if spec.task == "two-moons-like":
        for cls, count in enumerate(counts):
            t = rng.uniform(0.0, np.pi, count)
            if cls == 0:
                base = np.column_stack([np.cos(t), np.sin(t)])
            else:
                base = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
            chunks.append(base + spec.noise * rng.standard_normal((count, 2)))
            labels.append(np.full(count, cls, dtype=np.int64))
    else:
        means = _class_means(spec)
        for cls, count in enumerate(counts):
            chunks.append(means[cls] + spec.noise * rng.standard_normal((count, spec.dim)))
            labels.append(np.full(count, cls, dtype=np.int64))
    features = np.concatenate(chunks, axis=0)
    label_arr = np.concatenate(labels)
    order = rng.permutation(spec.size)
    return SyntheticDataset(spec, features[order], label_arr[order])


PROBLEM_KINDS = ("quadratic", "rosenbrock", "logreg", "mlp")

_OPTION_KEYS = {
    "quadratic": {"diag", "dim", "matrix_seed", "b", "b_scale", "w0"},
    "rosenbrock": {"w0"},
    "logreg": {"task", "size", "dim", "dataset_seed", "separation", "noise", "train_fraction"},
    "mlp": {
        "task",
        "size",
        "dim",
        "dataset_seed",
        "n_classes",
        "separation",
        "noise",
        "hidden",
        "train_fraction",
    },
}


def validate_options(kind: str, options: dict) -> None:
    """Fail-closed option check shared with the CLI config parser."""
    if kind not in _OPTION_KEYS:
        raise ValueError(f"unknown problem '{kind}'")
    for key in options:
        if key not in _OPTION_KEYS[kind]:
            raise ValueError(f"unknown key '{key}' for problem '{kind}'")


def _dataset_from_options(options: dict, task_default: str, n_classes_default: int) -> SyntheticDataset:
    spec = DatasetSpec(
        task=options.get("task", task_default),
        size=options.get("size", 200),
        dim=options.get("dim", 2),
        seed=options.get("dataset_seed", 0),
        n_classes=options.get("n_classes", n_classes_default),
        separation=options.get("separation", 6.0),
        noise=options.get("noise", 1.0),
    )
    return generate_dataset(spec)


def _split(dataset: SyntheticDataset, fraction: float):
    if not 0.0 < fraction <= 1.0:
        raise ValueError("train_fraction must be in (0, 1]")
    n_train = max(1, round(fraction * dataset.n))
    train = (dataset.features[:n_train], dataset.labels[:n_train])
    test = (dataset.features[n_train:], dataset.labels[n_train:])
    return train, test


def build(kind: str, options: dict | None = None) -> Problem:
    """Construct a problem by tag; option keys are fail-closed per kind."""
    options = dict(options or {})
    validate_options(kind, options)
    if kind == "quadratic":
        b = options.get("b")
        w0 = options.get("w0")
        if "diag" in options and "dim" in options:
            raise ValueError("quadratic takes either 'diag' or 'dim', not both")
        if "diag" in options:
            return QuadraticProblem.diagonal(options["diag"], b=b, w0=w0)
        if "dim" in options:
            return QuadraticProblem.random_spd(
                options["dim"],
                options.get("matrix_seed", 0),
                b_scale=options.get("b_scale", 1.0),
                w0=w0,
            )
        raise ValueError("quadratic needs either 'diag' or 'dim'")
    if kind == "rosenbrock":
        return RosenbrockProblem(w0=options.get("w0", (-1.2, 1.0)))
    if kind == "logreg":
        dataset = _dataset_from_options(options, "two-gaussians", 2)
        (x_tr, y_tr), (x_te, y_te) = _split(dataset, options.get("train_fraction", 1.0))
        problem = LogisticRegressionProblem(x_tr, y_tr)
        problem.test_features, problem.test_labels = x_te, y_te
        return problem
    # mlp
    dataset = _dataset_from_options(options, "multiclass-blobs", 3)
    (x_tr, y_tr), (x_te, y_te) = _split(dataset, options.get("train_fraction", 1.0))
    problem = MlpProblem(x_tr, y_tr, dataset.spec.n_classes, hidden=options.get("hidden", 16))
    problem.test_features, problem.test_labels = x_te, y_te
    return problem
