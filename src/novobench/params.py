"""Flat parameter layers with paired gradient buffers.

A model is an ordered list of named flat vectors ("layers"); the layer is
the unit of all layer-wise computations (gradient norms, second moments,
trust ratios).  A :class:`ModelParams` stores all of its weights in one
contiguous buffer and all of its gradients in another; each layer's
arrays are views into them, located by an offset table, so per-step work
can run over the whole model at once.  Norms accumulate in float64 in an
order fixed by the layer sizes, so identical inputs give bit-identical
results on one machine and numpy build, and power-of-two gradient scaling
is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

__all__ = [
    "ParameterLayer",
    "ModelParams",
    "StateReport",
    "l2_norm_sq",
    "l2_norm",
    "state_report",
    "zero_grads",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_START = np.zeros(1, dtype=np.intp)  # offsets of a single segment
_START.setflags(write=False)


def l2_norm_sq(v, offsets=None):
    """Sum of squares of ``v``, accumulated in float64.

    Without ``offsets`` the result is one float.  With ``offsets`` (the
    ascending start index of each segment, e.g. ``ModelParams.offsets``)
    it is a float64 array holding one sum per segment, so every layer of a
    model takes one call.  A segment's sum does not depend on where the
    segment sits in ``v``.  The summation order is fixed by the segment
    length, so results are bit-reproducible for one numpy build, and
    scaling every element by a power of two scales each sum exactly while
    no square under- or overflows.  An overflowing sum is ``inf``, without
    a warning.
    """
    x = np.asarray(v, dtype=np.float64).ravel()
    single = offsets is None
    if single and x.size == 0:
        raise ValueError("empty layer")
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(x * x, _START if single else offsets)
    return float(sums[0]) if single else sums


def l2_norm(v) -> float:
    """Euclidean norm, sqrt of :func:`l2_norm_sq`."""
    return math.sqrt(l2_norm_sq(v))


@dataclass
class ParameterLayer:
    """One named flat vector of trainable weights plus its gradient buffer.

    Arrays default to float64; passing float32 arrays selects the
    reduced-precision mode (all downstream arithmetic follows the array
    dtype, while norms still accumulate in 64-bit).  Once the layer joins a
    :class:`ModelParams`, ``weights`` and ``grad`` are views into the
    model's buffers: write them in place (``grad[...] = g``, ``w -= u``).
    """

    id: str
    weights: np.ndarray
    grad: np.ndarray | None = None

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights))
        if w.dtype not in _FLOAT_DTYPES:
            w = w.astype(np.float64)
        if w.ndim != 1:
            raise ValueError(f"layer '{self.id}': weights must be a flat vector")
        if w.size < 1:
            raise ValueError("empty layer")
        self.weights = w
        if self.grad is None:
            self.grad = np.zeros_like(w)
        else:
            g = np.atleast_1d(np.asarray(self.grad, dtype=w.dtype))
            if g.shape != w.shape:
                raise ValueError(
                    f"layer '{self.id}': grad length {g.size} != weights length {w.size}"
                )
            self.grad = g

    @property
    def size(self) -> int:
        return self.weights.size

    def copy(self) -> "ParameterLayer":
        return ParameterLayer(self.id, self.weights.copy(), self.grad.copy())


@dataclass
class ModelParams:
    """Ordered collection of :class:`ParameterLayer` with unique ids.

    Layer order is fixed for the lifetime of a run; every consumer iterates
    layers in this order so runs are deterministic.  Construction copies
    the layers' arrays into one contiguous ``weights`` buffer and one
    ``grad`` buffer and rebinds each layer's arrays to views into them
    (layer ``i`` spans ``offsets[i]`` to ``offsets[i] + sizes[i]``).  All
    layers share one dtype.
    """

    layers: list[ParameterLayer] = field(default_factory=list)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    layer_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [layer.id for layer in self.layers]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate layer ids: {dup}")
        dtypes = {layer.weights.dtype for layer in self.layers}
        if len(dtypes) > 1:
            raise ValueError(f"layers mix dtypes: {sorted(str(d) for d in dtypes)}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        sizes = [layer.size for layer in self.layers]
        ends = list(accumulate(sizes))
        self.sizes = np.array(sizes, dtype=np.intp)
        self.offsets = np.array(ends, dtype=np.intp) - self.sizes
        self.layer_ids = tuple(ids)
        self._slices = [slice(end - n, end) for n, end in zip(sizes, ends)]
        self._index = dict(zip(ids, self.layers))
        empty = np.zeros(0, dtype=dtype)
        self.weights = np.concatenate([layer.weights for layer in self.layers] or [empty])
        self.grad = np.concatenate([layer.grad for layer in self.layers] or [empty])
        for layer, s in zip(self.layers, self._slices):
            layer.weights = self.weights[s]
            layer.grad = self.grad[s]

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def total_elements(self) -> int:
        return self.weights.size

    def layer(self, layer_id: str) -> ParameterLayer:
        try:
            return self._index[layer_id]
        except KeyError:
            raise KeyError(f"no layer '{layer_id}'") from None

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-layer views of a flat array laid out like ``weights``."""
        return [flat[s] for s in self._slices]

    def broadcast(self, per_layer, dtype=None) -> np.ndarray:
        """Repeat one value per layer over that layer's elements."""
        return np.repeat(np.asarray(per_layer, dtype=dtype), self.sizes)

    def copy(self) -> "ModelParams":
        return ModelParams([layer.copy() for layer in self.layers])


@dataclass(frozen=True)
class StateReport:
    """Optimizer state footprint: element counts by storage class."""

    algorithm: str
    per_layer_scalars: int
    full_vectors: int
    total_state_elements: int


# (full vectors of length N, scalars per layer) persisted by each algorithm
_STATE_SHAPES = {
    "sngd": (0, 0),
    "sgd": (1, 0),
    "adam": (2, 0),
    "adamw": (2, 0),
    "novograd": (1, 1),
}


def state_report(algorithm: str, params: ModelParams, *, ams: bool = False) -> StateReport:
    """Account for the persistent state an optimizer keeps for ``params``.

    NovoGrad stores one momentum vector plus one second-moment scalar per
    layer (two scalars with the running-max variant), roughly half of
    Adam's two full moment vectors.
    """
    try:
        full_vectors, scalars = _STATE_SHAPES[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm '{algorithm}'") from None
    if algorithm == "novograd" and ams:
        scalars = 2
    n = params.total_elements
    num_layers = len(params.layers)
    total = full_vectors * n + scalars * num_layers
    return StateReport(algorithm, scalars, full_vectors, total)


def zero_grads(params: ModelParams) -> None:
    """Zero every gradient buffer in place; weights are untouched."""
    params.grad[...] = 0.0
