"""Optimizers as pure step functions over ``ModelParams`` and explicit state.

NovoGrad normalizes each layer's gradient by a layer-wise second moment
(an EMA of the squared gradient norm) before accumulating momentum, and
keeps weight decay out of the normalization path:

    v_l <- beta2 * v_l + (1 - beta2) * ||g_l||^2
    m_l <- beta1 * m_l + (g_l / (sqrt(v_l) + eps) + d * w_l)
    w_l <- w_l - lr_t * m_l

Moments are initialized from the first gradient (v_1 = ||g_1||^2,
m_1 = g_1/||g_1|| + d*w_1) instead of bias-corrected from zero, and the
first weight update happens together with that initialization.  Variants:
an EMA-style first moment (the second term scaled by 1 - beta1), weight
decay moved into the weight update instead of the moment, and a running
maximum of v (``ams``) that makes the effective step size monotone.

Reference optimizers (SGD with momentum, SNGD, Adam, AdamW) share the same
calling convention: the caller supplies the learning rate for the step, so
schedules stay outside the optimizer.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from copy import copy
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .params import Config, ModelParams, checked, checked_keys, checked_vector, l2_norm_sq

__all__ = [
    "NovoGradConfig",
    "NovoGradState",
    "AdamConfig",
    "AdamState",
    "SgdMomentumConfig",
    "SgdMomentumState",
    "SngdConfig",
    "SngdState",
    "novograd_step",
    "adam_step",
    "adamw_step",
    "sgd_momentum_step",
    "sngd_step",
    "ALGORITHMS",
    "make_config",
    "state_to_dict",
    "state_from_dict",
    "OptimizerDriver",
    "StateReport",
    "state_report",
]

FIRST_MOMENT_STYLES = ("cumulative", "ema")
WD_PLACEMENTS = ("in_moment", "decoupled_update")

STATE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NovoGradConfig(Config):
    """NovoGrad hyperparameters.

    ``beta2`` is much smaller than Adam's because it smooths a single
    scalar norm per layer, not per-element squares; ``beta2 = 0`` is legal
    and degenerates to layer-wise normalized gradient descent.  ``epsilon``
    may be 0, which makes the update exactly invariant to power-of-two
    gradient scaling (at the cost of the divide-by-zero guard).
    """

    beta1: float = field(default=0.95, metadata={"min": 0, "below": 1})
    beta2: float = field(default=0.25, metadata={"min": 0, "max": 1})
    weight_decay: float = field(default=0.0, metadata={"min": 0})
    epsilon: float = field(default=1e-8, metadata={"min": 0})
    first_moment_style: str = field(default="cumulative", metadata={"choices": FIRST_MOMENT_STYLES})
    wd_placement: str = field(default="in_moment", metadata={"choices": WD_PLACEMENTS})
    ams: bool = False


def _per(layout: str):
    """A state field and its layout, declared once: ``"weight"``, a flat array laid
    out like the weights and in their dtype (a list in a document entry), or
    ``"layer"``, one float64 per layer, NaN where a layer has none (a number)."""
    return field(default=None, init=False, metadata={"per": layout})


@dataclass
class _State:
    """Optimizer state as arrays laid out like the model it last met (see ``_bind``).
    A subclass declares its per-layer fields with ``_per``, and ``lazy`` false if every
    layer joins a fresh state at zero, not as a step initializes it.  ``order`` holds
    the indices of its layers, in document order; before it meets a model it holds
    its document's layer entries as ``pending``."""

    lazy: ClassVar[bool] = True
    step_count: int = field(default=0, init=False)
    pending: list[dict] | None = field(default_factory=list, init=False)
    order: list[int] = field(default_factory=list, init=False)
    _model: ModelParams | None = field(default=None, init=False, repr=False, compare=False)
    # a stack's row states (see ``_stack``), whose fields are views of its rows
    rows: list | None = field(default=None, init=False, repr=False, compare=False)
    _work: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # per-layer views of a per-weight ``v``, kept while it is laid out like its model
    _v_layers: list | None = field(default=None, init=False, repr=False, compare=False)


@cache
def _layout(cls) -> dict[str, str]:
    """Name -> layout of each per-layer field the state class ``cls`` declares."""
    return {f.name: f.metadata["per"] for f in fields(cls) if "per" in f.metadata}


@dataclass
class NovoGradState(_State):
    """``m`` plus one ``v`` (and ``v_hat``, the running max of ``ams``) per layer;
    a layer joins at its first nonzero gradient (an all-zero one defers the init,
    which divides by the norm), so ``order`` lists the layers in init order."""

    m: np.ndarray | None = _per("weight")
    v: np.ndarray | None = _per("layer")
    v_hat: np.ndarray | None = _per("layer")


@dataclass(frozen=True)
class AdamConfig(Config):
    """Adam / AdamW hyperparameters.

    The algorithm, not the config, places weight decay: ``adam`` folds it
    into the gradient, ``adamw`` into the weight update.  With
    ``epsilon = 0`` a weight whose second moment is zero (its gradients
    so far were zero or underflowed when squared) takes no step.
    """

    beta1: float = field(default=0.9, metadata={"min": 0, "below": 1})
    beta2: float = field(default=0.999, metadata={"min": 0, "below": 1})
    epsilon: float = field(default=1e-8, metadata={"min": 0})
    weight_decay: float = field(default=0.0, metadata={"min": 0})
    bias_correction: bool = True


@dataclass
class AdamState(_State):
    """Element-wise first and second moment vectors ``m`` and ``v``."""

    lazy: ClassVar[bool] = False
    m: np.ndarray | None = _per("weight")
    v: np.ndarray | None = _per("weight")


@dataclass(frozen=True)
class SgdMomentumConfig(Config):
    """Heavy-ball SGD: m <- mu*m + g + d*w, w <- w - lr_t*m."""

    momentum: float = field(default=0.9, metadata={"min": 0, "below": 1})
    weight_decay: float = field(default=0.0, metadata={"min": 0})


@dataclass
class SgdMomentumState(_State):
    """Momentum vector ``m``."""

    lazy: ClassVar[bool] = False
    m: np.ndarray | None = _per("weight")


@dataclass(frozen=True)
class SngdConfig(Config):
    """Stateless normalized gradient descent: w <- w - lr_t * g/(||g|| + eps)."""

    epsilon: float = field(default=1e-8, metadata={"min": 0})


@dataclass
class SngdState(_State):
    """No fields, so no layers: SNGD keeps no state."""


def _check_step(params: ModelParams, lr_t, sums=None):
    """A step's inputs: ``lr_t``, a learning rate >= 0, and a finite gradient.
    Returns the rate as given and as a step multiplies a vector by it: for a
    single model ``lr_t`` both times (numpy rounds a number to the model's
    dtype), for a stacked ``params`` (one rate per row) a float64 column and
    that column in the model's dtype.  Finite ``sums`` (the gradient's layer
    sums of squares) prove the gradient finite without a pass over it; the
    error names the first non-finite layer."""
    if params.weights.ndim == 1:
        lr = rate = lr_t
        negative = lr_t < 0
    else:
        lr = np.asarray(lr_t, np.float64).reshape(params.grad.shape[:-1] + (1,))
        rate = lr.astype(params.weights.dtype)
        negative = any(x < 0 for x in lr.ravel().tolist())  # on a few values faster than numpy's reduction
    if negative:
        raise ValueError(f"negative learning rate: {lr_t}")
    # a finite total of the sums (>= 0 each) proves them finite; on a few values Python's sum is fastest
    if (sums is None or not math.isfinite(sum(sums.ravel().tolist()))) and not np.isfinite(params.grad).all():
        bad = next(layer.id for layer in params if not np.isfinite(layer.grad).all())
        raise ValueError(f"non-finite gradient in layer '{bad}'")
    return lr, rate


def _workspace(state, params: ModelParams) -> tuple:
    """A step's scratch, made for a ``state`` that has none and kept on it while
    it is laid out like ``params`` (``_bind`` drops it): two buffers like the
    weights, and one in float64 for squares, which a step reads before it
    writes the first buffer (so for a float64 model the first buffer holds
    them, and a step touches one buffer less)."""
    w = params.weights
    work = np.empty((2, *w.shape), w.dtype)
    state._work = (*work, work[0] if w.dtype == np.float64 else np.empty(w.shape))
    return state._work


def _advance(state) -> int:
    """Count a step on ``state`` and on its rows; returns the new count."""
    for row in state.rows or ():
        row.step_count += 1
    state.step_count += 1
    return state.step_count


def _entries(state) -> list[dict]:
    """The state's layers as entries holding every declared field (vectors as
    arrays): its ``pending`` entries, or its arrays' values for the layers in ``order``."""
    if state.pending is not None:
        return state.pending
    model, columns = state._model, {}
    for name, per in _layout(type(state)).items():
        columns[name] = model.split(getattr(state, name)) if per == "weight" else getattr(state, name).tolist()
    return [{"id": model.layer_ids[i], **{name: column[i] for name, column in columns.items()}} for i in state.order]


def _entry_fields(state, cfg) -> dict[str, str]:
    """Name -> layout of the fields each document entry of ``state`` holds under
    ``cfg``: every declared field, but NovoGrad's ``v_hat`` only with ``ams``."""
    return {name: per for name, per in _layout(type(state)).items() if name != "v_hat" or cfg.ams}


def _bind(state, params: ModelParams) -> None:
    """Lay the state out like ``params`` when it first meets that model, from its
    document entries (``pending``, or those of the model it last met).  A fresh
    state (no step, no layers) gets zero moments; only a ``lazy`` state may lack
    layers (those not yet initialized); other mismatches raise, naming the layer."""
    if state._model is not params:
        entries = _entries(state)
        partial = state.lazy or (state.step_count == 0 and not entries)
        for name, per in _layout(type(state)).items():
            values = {e["id"]: e.get(name, np.nan) for e in entries}  # NaN: no v_hat without ams
            if per == "weight":
                setattr(state, name, params.flatten(values, partial=partial))
            else:
                setattr(state, name, np.array([values.get(i, np.nan) for i in params.layer_ids], np.float64))
        state.order = [params.layer_ids.index(e["id"]) for e in entries] if entries or state.lazy else list(range(len(params)))
        state._model, state.pending, state._work, state._v_layers = params, None, None, None


def _stack(states: list, models: list[ModelParams], params: ModelParams):
    """One state stepping ``states`` (of one class and step count, each laid out
    like its model of ``models``) as the rows of ``params``, a stack of those
    models: each field, per weight or per layer, becomes one buffer of R rows,
    and each state's field a view of its row, so a step on the stack writes
    through to every state.  The states keep their ``order``.  Rows of a
    lockstep group start together, so their states share one count."""
    if len({state.step_count for state in states}) > 1:
        raise ValueError("stacked states must share one step count")
    stack = type(states[0])()
    for state, model in zip(states, models):
        _bind(state, model)
    for name in _layout(type(stack)):
        buffer = np.stack([getattr(state, name) for state in states])
        setattr(stack, name, buffer)
        for state, row in zip(states, buffer):
            setattr(state, name, row)
            state._v_layers = None
    stack.step_count, stack.rows, stack.pending, stack._model = states[0].step_count, states, None, params
    return stack


def novograd_step(params: ModelParams, state: NovoGradState, cfg: NovoGradConfig, lr_t) -> None:
    """One fused NovoGrad update at learning rate ``lr_t`` over the whole model,
    or over every row of a stack (``lr_t`` one rate per row; see ``_stack``).

    Initialized layers take the moment update; layers holding their first
    nonzero gradient are initialized (v_1 = ||g||^2, m_1 = g/||g|| + d*w)
    and take the paired update; the rest stay untouched.  Weight decay uses
    the pre-step weights.  The per-layer scalars are computed in float64 and
    broadcast over their layers' elements in the model's dtype, so every
    element sees the arithmetic of a per-layer loop.  Once every layer of
    every row has initialized, the step writes in place and allocates
    nothing the size of the model.
    """
    _bind(state, params)
    beta1, beta2, d, eps = cfg.beta1, cfg.beta2, cfg.weight_decay, cfg.epsilon
    decoupled = cfg.wd_placement == "decoupled_update"
    g, w, m = params.grad, params.weights, state.m
    work, other, squares = state._work or _workspace(state, params)
    gsq = l2_norm_sq(g, params.offsets, out=squares)
    lr, rate = _check_step(params, lr_t, gsq)
    with np.errstate(invalid="ignore") if beta2 in (0.0, 1.0) else nullcontext():  # 0 * inf is NaN, silently, as in Python floats
        v = np.add(beta2 * state.v, (1.0 - beta2) * gsq, out=state.v)  # a layer not yet initialized stays NaN
    known = active = True  # initialized before this step, and updated in it: every layer, once all have initialized
    orders = [row.order for row in state.rows or (state,)]
    if fresh := min(map(len, orders)) < len(params):
        known = np.zeros(v.shape, bool)
        for row, order in zip(known.reshape(len(orders), -1), orders):
            row[order] = True
        active = known | (gsq != 0.0)  # an all-zero first gradient defers init
        v = np.where(known, v, gsq)
        np.copyto(state.v, v, where=active)
    if cfg.ams:
        v = np.fmax(state.v_hat, v)  # a layer initializing has no v_hat yet
        np.copyto(state.v_hat, v, where=active)
    denoms = np.sqrt(v) + eps * known  # an initializing layer divides by ||g||; 0 leaves g at 0
    denom = params.broadcast(denoms, g.dtype, out=work)
    if all(denoms.ravel().tolist()):  # on a few values Python's all() is faster than numpy's reduction
        contrib = np.divide(g, denom, out=work)
    else:  # where denom == 0 (only reachable when g == 0) its zero stays
        contrib = np.divide(g, denom, out=work, where=params.broadcast(denoms != 0.0))
    if d != 0.0 and not decoupled:
        contrib += np.multiply(w, d, out=other)
    if not fresh:  # every layer takes the moment update, in place
        m *= beta1
        if cfg.first_moment_style == "ema":
            contrib *= 1.0 - beta1
        m += contrib
    else:  # a layer being initialized takes m_1 = contrib
        m_new = beta1 * m + ((1.0 - beta1) * contrib if cfg.first_moment_style == "ema" else contrib)
        np.copyto(m, np.where(params.broadcast(known), m_new, contrib), where=params.broadcast(active))
        for row, order in zip(active & ~known.reshape(len(orders), -1), orders):
            order += np.flatnonzero(row).tolist()
    where = params.broadcast(active) if fresh else True
    step = np.multiply(m, rate, out=work)
    if d != 0.0 and decoupled:  # lr_t * d rounded once to the model's dtype, as for one layer
        decay = np.multiply(w, np.asarray(lr * d, g.dtype), out=other)
        np.subtract(w, step, out=w, where=where)
        np.subtract(w, decay, out=w, where=where)
    else:
        np.subtract(w, step, out=w, where=where)
    _advance(state)


def _adam_step(params: ModelParams, state: AdamState, cfg: AdamConfig, lr_t, decoupled: bool) -> None:
    _, rate = _check_step(params, lr_t)
    _bind(state, params)
    beta1, beta2, d, eps = cfg.beta1, cfg.beta2, cfg.weight_decay, cfg.epsilon
    t = _advance(state)
    w, m, v = params.weights, state.m, state.v
    work, other, _ = state._work or _workspace(state, params)
    g = params.grad
    if d != 0.0 and not decoupled:
        g = np.add(g, np.multiply(w, d, out=work), out=work)
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=other)
    v *= beta2
    v += np.multiply(np.multiply(g, 1.0 - beta2, out=other), g, out=other)
    if cfg.bias_correction:
        m_hat = np.divide(m, 1.0 - beta1**t, out=work)
        v_hat = np.divide(v, 1.0 - beta2**t, out=other)
    else:
        m_hat, v_hat = m, v
    denom = np.sqrt(v_hat, out=other)
    denom += eps
    if eps > 0.0:
        update = np.divide(m_hat, denom, out=work)
    else:  # a zero second moment (only zero or underflowing gradients so far): no update
        update = np.zeros_like(m_hat)
        np.divide(m_hat, denom, out=update, where=denom != 0.0)
    if d != 0.0 and decoupled:
        update += np.multiply(w, d, out=other)
    w -= np.multiply(update, rate, out=update)


def adam_step(params: ModelParams, state: AdamState, cfg: AdamConfig, lr_t) -> None:
    """One Adam update; coupled weight decay folds d*w into the gradient."""
    _adam_step(params, state, cfg, lr_t, False)


def adamw_step(params: ModelParams, state: AdamState, cfg: AdamConfig, lr_t) -> None:
    """One AdamW update: moments see the raw gradient, decay goes into the
    weight update as -lr_t * d * w."""
    _adam_step(params, state, cfg, lr_t, True)


def sgd_momentum_step(params: ModelParams, state: SgdMomentumState, cfg: SgdMomentumConfig, lr_t) -> None:
    """One heavy-ball SGD update with coupled L2 decay."""
    _, rate = _check_step(params, lr_t)
    _bind(state, params)
    mu, d = cfg.momentum, cfg.weight_decay
    w, m = params.weights, state.m
    work, _, _ = state._work or _workspace(state, params)
    g = params.grad
    if d != 0.0:
        g = np.add(g, np.multiply(w, d, out=work), out=work)
    m *= mu
    m += g
    w -= np.multiply(m, rate, out=work)
    _advance(state)


def sngd_step(params: ModelParams, state: SngdState, cfg: SngdConfig, lr_t) -> None:
    """One normalized-gradient step; layers with zero gradient are no-ops.
    ``state`` has no fields and keeps its count."""
    _bind(state, params)
    work, _, squares = state._work or _workspace(state, params)
    gsq = l2_norm_sq(params.grad, params.offsets, out=squares)
    _, rate = _check_step(params, lr_t, gsq)
    norms = np.sqrt(gsq)
    moving = norms != 0.0
    denom = params.broadcast(np.where(moving, norms + cfg.epsilon, 1.0), params.grad.dtype, out=work)
    step = np.multiply(np.divide(params.grad, denom, out=work), rate, out=work)
    where = True if all(moving.ravel().tolist()) else params.broadcast(moving)
    np.subtract(params.weights, step, out=params.weights, where=where)


class _Algorithm(NamedTuple):
    """Registry entry: config class, state class (called for the empty state) and
    ``step(params, state, cfg, lr_t)``."""

    config: type
    state: type
    step: Callable


# every per-algorithm difference outside the step functions lives here and in the state classes
_REGISTRY = {
    "novograd": _Algorithm(NovoGradConfig, NovoGradState, novograd_step),
    "adam": _Algorithm(AdamConfig, AdamState, adam_step),
    "adamw": _Algorithm(AdamConfig, AdamState, adamw_step),
    "sgd": _Algorithm(SgdMomentumConfig, SgdMomentumState, sgd_momentum_step),
    "sngd": _Algorithm(SngdConfig, SngdState, sngd_step),
}

ALGORITHMS = tuple(_REGISTRY)

# v1 documents spelled AdamW as adam + decoupled=true; the flag must agree with the name
_V1_DECOUPLED = {"adam": False, "adamw": True}
# v1 documents carried a learning rate that no step read (the caller passes lr_t)
_V1_LR_KEY = {"novograd": "lr0", "adam": "lr", "adamw": "lr", "sgd": "lr"}


def make_config(algorithm: str, hyperparams: dict | None = None, where: str = "hyperparams"):
    """The config dataclass of ``algorithm`` from ``hyperparams``, a JSON object
    named ``where`` (see :meth:`~novobench.params.Config.from_dict`)."""
    cls = _REGISTRY[checked("algorithm", str, algorithm, {"choices": ALGORITHMS})].config
    return cls.from_dict({} if hyperparams is None else hyperparams, where)


def state_to_dict(algorithm: str, cfg, state) -> dict:
    """Serialize optimizer state to a JSON-compatible tree: one entry per layer it
    holds, in its ``order``, with the layer's value of each field in ``_entry_fields``.
    Floats survive a JSON round trip exactly, so a restore continues bit for bit."""
    keys = ["id", *_entry_fields(state, cfg)]
    return {
        "format_version": STATE_FORMAT_VERSION,
        "algorithm": algorithm,
        "config": asdict(cfg),
        "step_count": state.step_count,
        "layers": [
            {key: entry[key].tolist() if isinstance(entry[key], np.ndarray) else entry[key] for key in keys}
            for entry in _entries(state)
        ],
    }


def _entry(entry: dict, layer_fields: dict[str, str]) -> dict:
    """A document's layer entry, holding exactly ``id`` and ``layer_fields`` (name ->
    layout): a vector a list of numbers (returned as a float64 array), a per-layer
    value a number >= 0.  Infinity and NaN pass: a step writes them when a square
    or a layer norm overflows, and its checkpoint must resume."""
    keys = ["id", *layer_fields]
    where = f"layer '{entry['id']}'"
    entry = dict(checked_keys(entry, where, keys, keys))
    for key, per in layer_fields.items():
        if per == "weight":
            entry[key] = checked_vector(f"{key} of {where}", entry[key])
        elif not (type(entry[key]) in (int, float) and not entry[key] < 0):
            raise ValueError(f"{key} of {where} must be a number >= 0, got {entry[key]!r}")
    return entry


# the keys of a state document, each required
_STATE_KEYS = ("format_version", "algorithm", "config", "step_count", "layers")


def state_from_dict(doc: dict):
    """Inverse of :func:`state_to_dict`; returns (algorithm, config, state), which
    holds a checked copy of the document's layer entries as ``pending``.  Any
    missing, unknown, mistyped or out-of-range key, at the top level or in a
    layer entry (see ``_entry``), raises ``ValueError`` naming it."""
    doc = checked_keys(doc, "state", _STATE_KEYS, _STATE_KEYS)
    version = checked("format_version", int, doc["format_version"])
    if version != STATE_FORMAT_VERSION:
        raise ValueError(f"unsupported state format version: {version}")
    algorithm = checked("algorithm", str, doc["algorithm"], {"choices": ALGORITHMS})
    config = dict(checked("config", dict, doc["config"]))
    step_count = checked("step_count", int, doc["step_count"], {"min": 0})
    layers = checked("layers", list[dict], doc["layers"])
    ids = [checked("id", str, entry.get("id")) for entry in layers]
    if len(set(ids)) != len(ids):
        raise ValueError(f"layers must have unique ids, got {ids}")
    if algorithm in _V1_DECOUPLED and "decoupled" in config:
        if config.pop("decoupled") != _V1_DECOUPLED[algorithm]:
            raise ValueError(f"{algorithm} requires decoupled={_V1_DECOUPLED[algorithm]}; use 'adam' or 'adamw'")
    config.pop(_V1_LR_KEY.get(algorithm), None)
    cfg = make_config(algorithm, config, "config")
    state = _REGISTRY[algorithm].state()
    layer_fields = _entry_fields(state, cfg)
    if layers and not layer_fields:
        raise ValueError(f"layers must be empty: {algorithm} keeps no per-layer state, got layer '{ids[0]}'")
    state.step_count = step_count
    state.pending = [_entry(entry, layer_fields) for entry in layers]
    return algorithm, cfg, state


class OptimizerDriver:
    """Uniform stepping facade over the registered step functions.

    Owns the state, the algorithm's empty state unless one is given, and
    provides state (de)serialization for checkpointing.
    """

    def __init__(self, algorithm: str, cfg=None, state=None):
        entry = _REGISTRY[checked("algorithm", str, algorithm, {"choices": ALGORITHMS})]
        self.algorithm = algorithm
        self.cfg = make_config(algorithm) if cfg is None else checked("cfg", entry.config, cfg)
        self.state = checked("state", entry.state | None, state) or entry.state()

    def step(self, params: ModelParams, lr_t) -> None:
        """One update of ``params`` at rate ``lr_t``; of a stack's rows (see
        :meth:`stack`) at one rate per row."""
        _REGISTRY[self.algorithm].step(params, self.state, self.cfg, lr_t)

    @classmethod
    def stack(cls, drivers: list["OptimizerDriver"], models: list[ModelParams], params: ModelParams) -> "OptimizerDriver":
        """A copy of the first of ``drivers`` (one algorithm, config and step
        count) that steps all of them as the rows of ``params``, the stack of
        ``models`` (see :meth:`ModelParams.stack`), their states' models; each
        driver's state then holds views of its row of the copy's state."""
        stack = copy(drivers[0])
        stack.state = _stack([driver.state for driver in drivers], models, params)
        return stack

    def second_moments(self, params: ModelParams) -> dict[str, float] | None:
        """Per-layer second-moment summary of the state, bound to ``params``: its
        ``v`` per layer (the mean of an element-wise ``v``), for the layers it
        holds; None for optimizers without one."""
        per = _layout(type(self.state)).get("v")
        if per is None:
            return None
        state = self.state
        _bind(state, params)
        if per == "weight":  # each layer's mean, by np.mean's arithmetic without its wrapper
            state._v_layers = state._v_layers or params.split(state.v)
            v = [float(np.add.reduce(x) / x.size) for x in state._v_layers]
        else:
            v = state.v.tolist()
        return {params.layer_ids[i]: v[i] for i in state.order}

    def state_dict(self) -> dict:
        return state_to_dict(self.algorithm, self.cfg, self.state)

    @classmethod
    def from_state_dict(cls, doc: dict) -> "OptimizerDriver":
        algorithm, cfg, state = state_from_dict(doc)
        return cls(algorithm, cfg, state)


@dataclass(frozen=True)
class StateReport:
    """Optimizer state footprint: element counts by storage class."""

    algorithm: str
    per_layer_scalars: int
    full_vectors: int
    total_state_elements: int


def state_report(algorithm: str, params: ModelParams, *, ams: bool = False) -> StateReport:
    """Measure the persistent state an optimizer keeps for ``params``: a copy of
    ``params`` takes one step at ``lr_t = 0`` on a unit gradient, which initializes
    every layer, and the report counts the elements its saved state holds.  ``ams``
    selects NovoGrad's running max.  NovoGrad keeps one momentum vector plus one
    scalar per layer (two with ``ams``), about half of Adam's two moment vectors."""
    driver = OptimizerDriver(algorithm, make_config(algorithm, {"ams": True} if ams else None))
    model = params.copy()
    model.grad[...] = 1.0
    driver.step(model, 0.0)
    per_layer = [(name, value) for entry in driver.state_dict()["layers"] for name, value in entry.items() if name != "id"]
    vectors = {name for name, value in per_layer if isinstance(value, list)}
    scalars = {name for name, _ in per_layer} - vectors
    return StateReport(algorithm, len(scalars), len(vectors), sum(np.size(value) for _, value in per_layer))
