"""Flat parameter layers with paired gradient buffers.

A model is an ordered list of named flat vectors ("layers"); the layer is
the unit of all layer-wise computations (gradient norms, second moments,
trust ratios).  A :class:`ModelParams` stores all of its weights in one
contiguous buffer and all of its gradients in another; each layer's
arrays are views into them, located by an offset table, so per-step work
can run over the whole model at once.  :meth:`ModelParams.stack` holds
several models of one layout as the rows of (R, N) buffers, so a problem
can evaluate all of them in one call.  Norms accumulate in float64 in an
order fixed by the layer sizes, so identical inputs give bit-identical
results on one machine and numpy build, and power-of-two gradient scaling
is exact.

:class:`Config` is the base of every config dataclass: it checks each field
against its annotation and declared bounds through :func:`checked`, the one
validation rule of the library and the CLI, and :meth:`Config.from_dict`
reads one from a JSON object through :func:`checked_keys`, the one key rule.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from itertools import accumulate
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "Config",
    "checked",
    "checked_keys",
    "checked_section",
    "checked_vector",
    "ParameterLayer",
    "ModelParams",
    "l2_norm_sq",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_START = np.zeros(1, dtype=np.intp)  # offsets of a single segment
_START.setflags(write=False)


def l2_norm_sq(v, offsets=None, out=None):
    """Sum of squares of ``v``, accumulated in float64.

    Without ``offsets`` the result is one float over all of ``v``.  With
    ``offsets`` (the ascending start index of each segment along the last
    axis, e.g. ``ModelParams.offsets``) it is a float64 array holding one
    sum per segment, so every layer of a model takes one call; a row-stacked
    ``v`` of shape (R, N) gives (R, L) sums, each row's bit for bit those
    of its own call.  A segment's sum does not depend on where the segment
    sits in ``v``.  The summation order is fixed by the segment length, so
    results are bit-reproducible for one numpy build, and scaling every
    element by a power of two scales each sum exactly while no square
    under- or overflows.  An overflowing sum is ``inf``, without a warning.
    ``out``, a float64 array shaped like ``v``, takes the squares in place
    of a new array.
    """
    if out is not None and v.dtype != out.dtype:  # cast into ``out`` once and square it there
        np.copyto(out, v)
        v = out
    x = np.asarray(v, dtype=np.float64)
    single = offsets is None
    if single:
        x = x.ravel()
        if x.size == 0:
            raise ValueError("empty layer")
    with np.errstate(over="ignore"):
        squares = np.multiply(x, x, out=out)
        sums = np.add.reduceat(squares, _START if single else offsets, axis=-1)
    return float(sums[0]) if single else sums


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
        return self.weights.shape[-1]

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
        self._bind(
            np.concatenate([layer.weights for layer in self.layers] or [empty]),
            np.concatenate([layer.grad for layer in self.layers] or [empty]),
        )

    def _bind(self, weights: np.ndarray, grad: np.ndarray) -> None:
        """Make ``weights``/``grad`` the buffers and each layer's arrays views into them."""
        self.weights, self.grad = weights, grad
        for layer, s in zip(self.layers, self._slices):
            layer.weights = weights[..., s]
            layer.grad = grad[..., s]

    @classmethod
    def stack(cls, models: list["ModelParams"]) -> "ModelParams":
        """One model holding ``models`` (all of one layout) as rows.

        Its ``weights``/``grad`` are (R, N) buffers and each layer's arrays
        (R, n) views into them.  Every model in ``models`` is rebound to
        views of its row, so writes through either side are shared.
        """
        first = models[0]
        for model in models[1:]:
            if model.layer_ids != first.layer_ids or not np.array_equal(model.sizes, first.sizes):
                raise ValueError("stacked models must share one layout")
            if model.weights.dtype != first.weights.dtype:
                raise ValueError("stacked models must share one dtype")
        stacked = first.view(np.stack([m.weights for m in models]), np.stack([m.grad for m in models]))
        for model, weights, grad in zip(models, stacked.weights, stacked.grad):
            model._bind(weights, grad)
        return stacked

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

    def flatten(self, per_layer: dict, *, partial: bool = False) -> np.ndarray:
        """``per_layer`` (layer id -> vector) copied into a new array laid out like a
        row of ``weights``, in its dtype; a layer a ``partial`` mapping lacks is zero.
        Any other missing, unknown or wrongly sized layer raises ``ValueError``."""
        if unknown := per_layer.keys() - self._index.keys():
            raise ValueError(f"unknown layer '{min(unknown)}'")
        flat = np.zeros(self.weights.shape[-1], self.weights.dtype)
        for layer_id, s in zip(self.layer_ids, self._slices):
            if layer_id in per_layer:
                value = np.asarray(per_layer[layer_id])
                if value.shape != flat[s].shape:
                    raise ValueError(f"layer '{layer_id}' has shape {value.shape}, not {flat[s].shape}")
                flat[s] = value
            elif not partial:
                raise ValueError(f"missing layer '{layer_id}'")
        return flat

    def broadcast(self, per_layer, dtype=None, out=None) -> np.ndarray:
        """Repeat one value per layer over that layer's elements, along the last
        axis, so (R, L) values give (R, N).  With ``out``, shaped like the result,
        they are written there a layer at a time and nothing is allocated."""
        values = np.asarray(per_layer, dtype=dtype)
        if out is None:
            return np.repeat(values, self.sizes, axis=-1)
        for i, s in enumerate(self._slices):
            out[..., s] = values[..., i, None]
        return out

    def view(self, weights: np.ndarray, grad: np.ndarray) -> "ModelParams":
        """A model of this layout over the buffers ``weights`` and ``grad`` (not
        copied), which may hold rows, such as a slice of a stack's."""
        row = (0,) * (self.weights.ndim - 1)
        model = ModelParams([ParameterLayer(layer.id, layer.weights[row]) for layer in self.layers])
        model._bind(weights, grad)
        return model

    def copy(self) -> "ModelParams":
        """An independent model of the same layout and, for a stack, rows."""
        return self.view(self.weights.copy(), self.grad.copy())


# the bounds a field may declare in its metadata, with their text and test
_LIMITS = {
    "min": (">=", operator.ge),
    "above": (">", operator.gt),
    "below": ("<", operator.lt),
    "max": ("<=", operator.le),
}


def checked(key: str, expected, value, bounds=None):
    """``value`` for the field ``key``, checked against its annotation
    ``expected`` (a type, or ``X | None``) and its ``bounds`` (``min``,
    ``above``, ``below``, ``max``, ``choices``); any mismatch raises
    ``ValueError`` naming ``key``.

    A bool is no number, a float must be finite (an int too, within float range),
    a list (or tuple, returned as a list) holds floats, or the ``X`` of ``list[X]``.
    Numpy scalars and arrays are returned as Python values, Python values as given.
    """
    item = float  # a list's items
    if type(expected) is not type:  # X | None, or a generic such as list[dict]
        if isinstance(expected, UnionType):
            if value is None:
                return None
            expected = get_args(expected)[0]
        item = (get_args(expected) or (item,))[0]
        expected = get_origin(expected) or expected
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.tolist()
    if expected is list and type(value) in (list, tuple):
        return [checked(key, item, x) for x in value]
    if expected is float:
        valid = type(value) in (int, float)
    elif expected in (int, bool, str):
        valid = type(value) is expected
    else:
        valid = isinstance(value, expected)
    if not valid:
        raise ValueError(f"{key} must be of type {expected.__name__}, got {value!r}")
    if expected is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    for name, bound in (bounds or {}).items():
        if name == "choices" and value not in bound:
            raise ValueError(f"unknown {key} '{value}' (one of {', '.join(bound)})")
        if name in _LIMITS and not _LIMITS[name][1](value, bound):
            raise ValueError(f"{key} must be {_LIMITS[name][0]} {bound}, got {value!r}")
    return value


def checked_keys(section, where: str, keys=None, required=()) -> dict:
    """``section``, a JSON object named ``where``, once each of its keys is one
    of ``keys`` (None: any key) and each of ``required`` is among them; else
    ``ValueError`` naming the key and ``where``."""
    section = checked(where, dict, section)
    for key in section:
        if keys is not None and key not in keys:
            raise ValueError(f"unknown key '{key}' in {where}")
    for key in required:
        if key not in section:
            raise ValueError(f"missing key '{key}' in {where}")
    return section


def checked_section(table: dict, section, where: str) -> dict:
    """``section`` checked fail-closed against ``table`` (key -> (type,
    bounds)) by :func:`checked_keys`, each value as :func:`checked` returns it."""
    section = checked_keys(section, where, table)
    return {key: checked(key, table[key][0], value, table[key][1]) for key, value in section.items()}


def checked_vector(key: str, value) -> np.ndarray:
    """A document's vector ``key``: a list of numbers (a bool or a string is
    none; infinity and NaN pass, since a diverging run saves them), returned
    as a float64 array."""
    if not (type(value) is list and all(type(x) in (int, float) for x in value)):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    try:
        return np.array(value, np.float64)
    except OverflowError:  # an int beyond float range
        raise ValueError(f"{key} must be a list of numbers in float range, got {value!r}") from None


@cache
def _declared(cls) -> list:
    """(name, annotation, bounds) of each field of the config dataclass ``cls``."""
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name], f.metadata) for f in fields(cls)]


class Config:
    """Base of the config dataclasses: after construction each field holds
    its value as :func:`checked` returns it for the field's annotation and
    the bounds in its ``field(metadata=...)``.  A subclass checks the rules
    that span fields in its own ``__post_init__``, after this one."""

    def __post_init__(self):
        for name, expected, bounds in _declared(type(self)):
            object.__setattr__(self, name, checked(name, expected, getattr(self, name), bounds))

    @classmethod
    def from_dict(cls, section, where: str, **fixed):
        """An instance from the JSON object ``section`` named ``where``, keyed by
        the field names but those ``fixed`` gives (see :func:`checked_keys`; a
        field without a default is required).  A ``ValueError`` of the
        constructor is raised with ``(in where)`` appended."""
        declared = [f for f in fields(cls) if f.name not in fixed]
        required = [f.name for f in declared if f.default is MISSING and f.default_factory is MISSING]
        section = checked_keys(section, where, [f.name for f in declared], required)
        try:
            return cls(**section, **fixed)
        except ValueError as err:
            raise ValueError(f"{err} (in {where})") from None
