"""Desk-scale differentiable test problems with analytic gradients.

Every problem exposes the same contract: ``eval`` returns the loss,
``eval_grad`` returns the same loss bit-for-bit and writes gradients into
the parameter buffers.  Both go through the problem's one loss body,
``_loss(params, batch, grad)``, which writes the gradient only when asked;
``logreg`` and ``mlp`` share one dataset-backed base (training set,
held-out split, batch selection).  Every loss body also runs over a
row-stacked model (:meth:`ModelParams.stack`): it then evaluates each row
on the same batch and returns one loss per row, bit for bit the losses and
gradients of one call per row (Rosenbrock loops over the rows to keep
that promise).  Batched problems take an index array into their dataset;
losses and gradients are means over the batch, so gradient accumulation by
averaging composes exactly.  A batch may also be a (k, n) stack of k
micro-batches, given a model whose weights carry a micro-batch axis of
length one, (..., 1, N), and whose gradient buffer has k slots,
(..., k, N): the losses are then (..., k) and each micro-batch's loss and
gradient are bit for bit those of its own call.  ``MlpProblem`` computes
its hidden activation and that activation's gradient in place in a
workspace it owns and reuses while the activation's shape and dtype stay
the same; no returned array is a view of it, but one instance must not be
evaluated from two threads at once.  ``build`` returns a fresh instance per
call, which shares only read-only arrays with other builds.  ``finite_diff_grad``
is the independent oracle used to verify every analytic gradient; it only
reads the model and evaluates its central-difference probes as row stacks.
"""

from __future__ import annotations

import io
import json
import math
from copy import copy
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .params import Config, ModelParams, ParameterLayer, _declared, checked_section

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
    "OPTIONS",
    "PROBLEM_KINDS",
]


class Problem:
    """Deterministic loss/gradient over flat parameter layers."""

    kind = "abstract"
    fd_rtol = 1e-6  # relative tolerance the analytic gradient must meet
    n_examples: int | None = None  # None: batchless full objective
    w0: np.ndarray | None = None  # a one-layer problem's fixed initial weights, if any

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # wrappers installed per class (benchmark tracing) look these up in the class's own __dict__
        cls.eval, cls.eval_grad = cls.eval, cls.eval_grad

    def layer_layout(self) -> list[tuple[str, int]]:
        raise NotImplementedError

    def init_params(self, rng: np.random.Generator) -> ModelParams:
        """The initial model: the layers of :meth:`layer_layout`, in order, each
        as :meth:`_init` starts it, drawing from ``rng`` in that order."""
        return ModelParams([ParameterLayer(name, self._init(name, size, rng)) for name, size in self.layer_layout()])

    def _init(self, name: str, size: int, rng: np.random.Generator) -> np.ndarray:
        """Layer ``name``'s ``size`` initial weights: a copy of ``w0`` if set,
        else small random ones."""
        return 0.1 * rng.standard_normal(size) if self.w0 is None else self.w0.copy()

    def eval(self, params: ModelParams, batch: np.ndarray | None = None):
        """The loss; no buffer is written.  A float for one model, a float64
        array of one loss per row for a stacked one."""
        return _losses(self._loss(params, batch, False))

    def eval_grad(self, params: ModelParams, batch: np.ndarray | None = None):
        """The loss of :meth:`eval`, bit for bit; writes the gradient into ``params``."""
        return _losses(self._loss(params, batch, True))

    def _loss(self, params: ModelParams, batch: np.ndarray | None, grad: bool):
        """The one loss body, over optional leading row and micro-batch axes:
        returns the loss (one per row and micro-batch); writes the gradient
        only when ``grad`` is set."""
        raise NotImplementedError

    def _check_layout(self, params: ModelParams) -> None:
        actual = [(layer.id, layer.size) for layer in params]
        if actual != self.layer_layout():
            raise ValueError(
                f"parameter layout {actual} does not match problem layout {self.layer_layout()}"
            )


def _losses(loss):
    return float(loss) if loss.ndim == 0 else loss.astype(np.float64, copy=False)


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
        """Random well-conditioned SPD instance: A = MM'/dim + I, b drawn
        at scale ``b_scale``, which must leave b finite."""
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((dim, dim))
        a = m @ m.T / dim + np.eye(dim)
        with np.errstate(over="ignore"):
            b = b_scale * rng.standard_normal(dim)
        if not np.isfinite(b).all():
            raise ValueError(f"b_scale {b_scale!r} overflows b")
        return cls(a, b=b, w0=w0)

    def layer_layout(self):
        return [("w", self.dim)]

    def solution(self) -> np.ndarray:
        return np.linalg.solve(self.a, self.b)

    def _loss(self, params, batch, grad):
        self._check_layout(params)
        w = params.layers[0].weights
        # matrix @ column per row: the same BLAS calls as one model's `a @ w` and `w @ v`
        aw = (self.a @ w[..., None])[..., 0]
        loss = 0.5 * (w[..., None, :] @ aw[..., None])[..., 0, 0] - (self.b @ w[..., None])[..., 0]
        if grad:
            params.layers[0].grad[...] = aw - self.b
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

    def _loss(self, params, batch, grad):
        self._check_layout(params)
        layer = params.layers[0]
        # a scalar's `** 2` (libm pow) and an array's (a square) can differ in
        # the last bit, so a stack is evaluated one point at a time
        loss = np.empty(layer.weights.shape[:-1])
        for i in np.ndindex(loss.shape):
            loss[i] = self._point(layer.weights[i], layer.grad[i], grad)
        return loss

    def _point(self, w, g, grad):
        x, y = w
        loss = (self.A - x) ** 2 + self.B * (y - x * x) ** 2
        if grad:
            gx = -2.0 * (self.A - x) - 4.0 * self.B * x * (y - x * x)
            gy = 2.0 * self.B * (y - x * x)
            g[...] = (gx, gy)
        return loss


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form stays stable for large |z|
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class _DatasetProblem(Problem):
    """A mean loss over a fixed (features, labels) training set.

    Labels are cast to the subclass's ``_label_dtype``; batches are index
    arrays into the training set, (n,) or a (k, n) micro-batch stack;
    ``test_features``/``test_labels`` hold the held-out part of a split,
    if any.
    """

    def __init__(self, features, labels):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=self._label_dtype)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (n, d) with n matching labels")
        self.n_examples, self.dim = self.features.shape
        self.test_features: np.ndarray | None = None
        self.test_labels: np.ndarray | None = None

    def _select(self, batch):
        if batch is None:
            return self.features, self.labels
        batch = np.asarray(batch)
        if batch.size == 0:
            raise ValueError("empty batch")
        if batch.min() < 0 or batch.max() >= self.n_examples:
            raise ValueError("batch index out of range")
        return self.features[batch], self.labels[batch]


class LogisticRegressionProblem(_DatasetProblem):
    """Binary mean log-loss over a fixed dataset; layers: weight vector + bias."""

    kind = "logreg"
    _label_dtype = np.float64

    def __init__(self, features, labels):
        super().__init__(features, labels)
        if not np.isin(self.labels, (0.0, 1.0)).all():
            raise ValueError("labels must be binary")

    @classmethod
    def from_dataset(cls, dataset: "SyntheticDataset") -> "LogisticRegressionProblem":
        return cls(dataset.features, dataset.labels)

    def layer_layout(self):
        return [("w", self.dim), ("b", 1)]

    def _init(self, name, size, rng):
        return 0.01 * rng.standard_normal(size) if name == "w" else np.zeros(size)

    def _logits(self, params, x):
        self._check_layout(params)
        w = params.layer("w").weights
        b = params.layer("b").weights
        return (x @ w[..., None])[..., 0] + b

    def _loss(self, params, batch, grad):
        x, y = self._select(batch)
        z = self._logits(params, x)
        # per-example loss: softplus(z) - y*z  (== -log sigma(z) for y=1)
        loss = np.mean(np.logaddexp(0.0, z) - y * z, axis=-1)
        if grad:
            r = _sigmoid(z) - y
            n = x.shape[-2]
            params.layer("w").grad[...] = (x.mT @ r[..., None])[..., 0] / n
            params.layer("b").grad[...] = np.mean(r, axis=-1)[..., None]
        return loss

    def predict(self, params, features) -> np.ndarray:
        z = self._logits(params, np.asarray(features, dtype=np.float64))
        return (z >= 0.0).astype(np.int64)


class MlpProblem(_DatasetProblem):
    """One-hidden-layer perceptron: tanh hidden units, softmax cross-entropy.

    Four layers (w1, b1, w2, b2) with distinct shapes and gradient scales,
    which is what exercises layer-wise second moments.
    """

    kind = "mlp"
    fd_rtol = 1e-5
    _label_dtype = np.int64

    def __init__(self, features, labels, n_classes: int, hidden: int = 16):
        super().__init__(features, labels)
        if n_classes < 2:
            raise ValueError("need at least two classes")
        if self.labels.min() < 0 or self.labels.max() >= n_classes:
            raise ValueError("labels out of range")
        if hidden < 1:
            raise ValueError("hidden width must be >= 1")
        self.n_classes = n_classes
        self.hidden = hidden
        self._work_key = None

    @classmethod
    def from_dataset(cls, dataset: "SyntheticDataset", hidden: int = 16) -> "MlpProblem":
        return cls(dataset.features, dataset.labels, dataset.spec.n_classes, hidden=hidden)

    def layer_layout(self):
        d, h, c = self.dim, self.hidden, self.n_classes
        return [("w1", d * h), ("b1", h), ("w2", h * c), ("b2", c)]

    def _init(self, name, size, rng):
        # biases start at zero, each weight matrix at unit-variance draws over sqrt(fan-in)
        if name.startswith("b"):
            return np.zeros(size)
        return rng.standard_normal(size) / math.sqrt(self.dim if name == "w1" else self.hidden)

    def _views(self, params):
        """Weight matrices and bias rows, each with the model's leading row axis, if any."""
        self._check_layout(params)
        d, h, c = self.dim, self.hidden, self.n_classes
        w1 = params.layer("w1").weights
        rows = w1.shape[:-1]
        b1 = params.layer("b1").weights[..., None, :]
        w2 = params.layer("w2").weights.reshape(rows + (h, c))
        b2 = params.layer("b2").weights[..., None, :]
        return w1.reshape(rows + (d, h)), b1, w2, b2

    def _forward(self, x, w1, b1, w2, b2):
        """Logits and softmax terms; the hidden activation ``a1`` is the
        workspace's first slot, overwritten by the next call."""
        a1 = self._workspace(x, w1)[0]
        np.matmul(x, w1, out=a1)
        a1 += b1
        np.tanh(a1, out=a1)
        z2 = a1 @ w2 + b2
        zmax = z2.max(axis=-1, keepdims=True)
        exp = np.exp(z2 - zmax)
        total = exp.sum(axis=-1, keepdims=True)
        return a1, z2, zmax, exp, total

    def _workspace(self, x, w1):
        """The reused (2, ..., n, hidden) buffer for the hidden activation and
        its gradient, rebuilt when the activation's shape or dtype changes."""
        shape = (*np.broadcast_shapes(x.shape[:-2], w1.shape[:-2]), x.shape[-2], self.hidden)
        key = (shape, np.result_type(x, w1))
        if self._work_key != key:
            self._work_key, self._work = key, np.empty((2, *shape), key[1])
        return self._work

    def _loss(self, params, batch, grad):
        x, y = self._select(batch)
        w1, b1, w2, b2 = self._views(params)
        a1, z2, zmax, exp, total = self._forward(x, w1, b1, w2, b2)
        n = x.shape[-2]
        # each example's true-class logit, in every row and micro-batch
        picked = (..., *np.indices(y.shape, sparse=True), y)
        log_z = zmax[..., 0] + np.log(total[..., 0])
        loss = np.mean(log_z - z2[picked], axis=-1)
        if grad:
            dz2 = exp / total
            dz2[picked] -= 1.0
            dz2 /= n
            dw2 = a1.mT @ dz2
            db2 = dz2.sum(axis=-2)
            # in place, after dw2 has read a1: da1 * (1 - a1 * a1) is dz1
            da1 = np.matmul(dz2, w2.mT, out=self._work[1])
            a1 *= a1
            np.subtract(1.0, a1, out=a1)
            da1 *= a1
            dw1 = x.mT @ da1
            db1 = da1.sum(axis=-2)
            for layer, value in zip(params, (dw1, db1, dw2, db2)):
                layer.grad[...] = value.reshape(layer.grad.shape)
        return loss

    def class_probabilities(self, params, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        _, _, _, exp, total = self._forward(x, *self._views(params))
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

    def _loss(self, params, batch, grad):
        loss = self.inner._loss(params, batch, grad)
        if grad:
            params.grad *= self.scale
        return loss


# weights per probe stack (a stack holds at least one probe pair); keeps the
# oracle's memory flat on large models
_FD_STACK_ELEMENTS = 2**16


def finite_diff_grad(
    problem: Problem,
    params: ModelParams,
    batch: np.ndarray | None = None,
    rel_step: float = 1e-6,
) -> dict[str, np.ndarray]:
    """Central-difference gradients through row-stacked evaluations.

    Each probe is a copy of ``params.weights`` with one coordinate moved by
    +h_i or -h_i, h_i = rel_step * (|w_i| + 1), stored in the model's dtype.
    Probes go to ``problem.eval`` as (2r, N) stacks, r as large as keeps
    2rN within ``_FD_STACK_ELEMENTS`` (at least 1), so ``eval`` must honour
    the stacked contract: one loss per row, or one 0-d loss for every row.
    ``params`` is only read.  Returns gradients keyed by layer id.
    """
    if not rel_step > 0:
        raise ValueError(f"rel_step must be > 0, got {rel_step}")
    w = params.weights
    n = w.size
    h = rel_step * (np.abs(w.astype(np.float64)) + 1.0)
    plus, minus = w + h.astype(w.dtype), w - h.astype(w.dtype)
    r_max = max(1, _FD_STACK_ELEMENTS // (2 * max(n, 1)))
    # row 2k moves coordinate j0 + k up and row 2k + 1 moves it down; in the
    # flat buffer those cells lie 2n + 1 apart, so a chunk's moves are two slices
    buf = np.empty((2 * min(r_max, n), n), w.dtype)
    buf[...] = w
    cells = buf.reshape(-1)
    probe = params.view(buf, np.broadcast_to(params.grad, buf.shape))
    out = np.empty(n, dtype=np.float64)
    for j0 in range(0, n, r_max):
        cols = slice(j0, min(j0 + r_max, n))
        r = cols.stop - j0
        up, down = cells[j0 :: 2 * n + 1][:r], cells[j0 + n :: 2 * n + 1][:r]
        up[...], down[...] = plus[cols], minus[cols]
        if 2 * r < len(buf):  # the last, short chunk
            probe._bind(buf[: 2 * r], np.broadcast_to(params.grad, (2 * r, n)))
        f = np.asarray(problem.eval(probe, batch), dtype=np.float64)
        if f.ndim == 0:
            f = np.full(2 * r, f)
        elif f.shape != (2 * r,):
            raise ValueError(f"eval of a {2 * r}-row stack returned shape {f.shape}")
        f = f.reshape(r, 2)
        finite = np.isfinite(f).all(axis=1)
        if not finite.all():
            layer = np.searchsorted(params.offsets, j0 + np.argmin(finite), side="right") - 1
            raise ValueError(f"non-finite loss while probing layer '{params.layer_ids[layer]}'")
        out[cols] = (f[:, 0] - f[:, 1]) / (2.0 * h[cols])
        up[...] = down[...] = w[cols]
    return {layer.id: part for layer, part in zip(params, params.split(out))}


TASKS = ("two-gaussians", "two-moons-like", "multiclass-blobs")


@dataclass(frozen=True)
class DatasetSpec(Config):
    """Generator description; identical specs produce identical bytes."""

    task: str = field(metadata={"choices": TASKS})
    size: int = field(metadata={"min": 1})
    dim: int = field(default=2, metadata={"min": 1})
    seed: int = field(default=0, metadata={"min": 0})
    n_classes: int = field(default=2, metadata={"min": 2})
    separation: float = 6.0
    noise: float = field(default=1.0, metadata={"min": 0})

    def __post_init__(self):
        super().__post_init__()
        if self.task in ("two-gaussians", "two-moons-like") and self.n_classes != 2:
            raise ValueError(f"task '{self.task}' is binary")
        if self.task == "two-moons-like" and self.dim != 2:
            raise ValueError("two-moons-like requires dim=2")


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


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below, naming the options
def generate_dataset(spec: DatasetSpec) -> SyntheticDataset:
    """Materialize a deterministic synthetic classification dataset.

    Classes are balanced within one example; rows are shuffled with the
    spec's seed so leading slices are class-mixed.  ``separation`` and
    ``noise`` must leave every feature finite.
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
    if not np.isfinite(features).all():
        raise ValueError(f"separation {spec.separation!r} and noise {spec.noise!r} overflow the features")
    label_arr = np.concatenate(labels)
    order = rng.permutation(spec.size)
    return SyntheticDataset(spec, features[order], label_arr[order])


# each kind's option keys -> (type, bounds); the dataset keys are DatasetSpec's
# fields, its seed named dataset_seed
_DATASET_OPTIONS = {
    "dataset_seed" if name == "seed" else name: (expected, bounds) for name, expected, bounds in _declared(DatasetSpec)
}
_SPLIT_OPTIONS = {"train_fraction": (float, {"above": 0, "max": 1})}
OPTIONS = {
    "quadratic": {
        **dict.fromkeys(("diag", "b", "w0"), (list, {})),
        "dim": (int, {"min": 1}),
        "matrix_seed": (int, {"min": 0}),
        "b_scale": (float, {}),
    },
    "rosenbrock": {"w0": (list, {})},
    "logreg": {**{k: v for k, v in _DATASET_OPTIONS.items() if k != "n_classes"}, **_SPLIT_OPTIONS},
    "mlp": {**_DATASET_OPTIONS, **_SPLIT_OPTIONS, "hidden": (int, {"min": 1})},
}
PROBLEM_KINDS = tuple(OPTIONS)
# the dataset options a logreg or MLP takes when absent; no DatasetSpec default fits both
_DATASET_DEFAULTS = {
    "logreg": {"task": "two-gaussians", "size": 200},
    "mlp": {"task": "multiclass-blobs", "size": 200, "n_classes": 3},
}
# the quadratic is given by diag (with b) or drawn from dim (with matrix_seed
# and b_scale); each of these keys needs its shape
_QUADRATIC_NEEDS = {"b": "diag", "matrix_seed": "dim", "b_scale": "dim"}


def validate_options(kind: str, options: dict) -> dict:
    """``options`` checked fail-closed against ``kind``'s keys, their types
    and bounds (see :func:`checked_section`), numpy values turned into
    Python ones; a quadratic takes exactly one of ``diag`` and ``dim`` and
    only the keys that shape reads, and a logreg or MLP's dataset options
    must describe a :class:`DatasetSpec` (no data are generated)."""
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem '{kind}'")
    options = checked_section(OPTIONS[kind], options, f"problem '{kind}'")
    if kind == "quadratic":
        shapes = [key for key in ("diag", "dim") if key in options]
        if len(shapes) != 1:
            raise ValueError(f"quadratic takes either 'diag' or 'dim', got {shapes or 'neither'}")
        for key, shape in _QUADRATIC_NEEDS.items():
            if key in options and shape not in options:
                raise ValueError(f"quadratic option '{key}' needs '{shape}', not '{shapes[0]}'")
    if kind in _DATASET_DEFAULTS:
        _dataset_spec(kind, options)
    return options


def _dataset_spec(kind: str, options: dict) -> DatasetSpec:
    """The dataset a logreg or MLP's checked ``options`` describe, absent ones at their defaults."""
    spec = {"seed" if key == "dataset_seed" else key: value for key, value in options.items() if key in _DATASET_OPTIONS}
    return DatasetSpec(**{**_DATASET_DEFAULTS[kind], **spec})


def build(kind: str, options: dict | None = None) -> Problem:
    """Construct a problem by tag; options are checked by :func:`validate_options`,
    and each absent one takes the default of the constructor it feeds, or the kind's own.
    Each call returns a fresh instance, a shallow copy of the one built for the last 16
    distinct (kind, checked options); the arrays copies share are read-only."""
    options = validate_options(kind, options or {})
    return copy(_prototype(kind, json.dumps(options, sort_keys=True)))


@lru_cache(maxsize=16)
def _prototype(kind: str, options: str) -> Problem:
    """``kind`` built from its checked ``options`` (JSON text), each array it holds
    read-only; never evaluated, so it owns no workspace.  A build that raises is not kept."""
    problem = _construct(kind, json.loads(options))
    for value in vars(problem).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return problem


def _construct(kind: str, options: dict) -> Problem:
    if kind == "quadratic":
        if "diag" in options:
            return QuadraticProblem.diagonal(**options)
        return QuadraticProblem.random_spd(seed=options.pop("matrix_seed", 0), **options)
    if kind == "rosenbrock":
        return RosenbrockProblem(**options)
    # logreg, mlp: generate the dataset, train on its leading fraction, keep the rest as test split
    model = {"hidden": options["hidden"]} if "hidden" in options else {}
    dataset = generate_dataset(_dataset_spec(kind, options))
    n_train = max(1, round(options.get("train_fraction", 1.0) * dataset.n))
    x, y = dataset.features, dataset.labels
    if kind == "logreg":
        problem = LogisticRegressionProblem(x[:n_train], y[:n_train])
    else:
        problem = MlpProblem(x[:n_train], y[:n_train], dataset.spec.n_classes, **model)
    problem.test_features, problem.test_labels = x[n_train:], y[n_train:]
    return problem
