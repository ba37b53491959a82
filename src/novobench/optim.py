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
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .params import Config, ModelParams, checked, l2_norm_sq

__all__ = [
    "NovoGradConfig",
    "NovoGradState",
    "AdamConfig",
    "AdamState",
    "SgdMomentumConfig",
    "SgdMomentumState",
    "SngdConfig",
    "novograd_init",
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


@dataclass
class NovoGradState:
    """Per-layer first moment vectors and second-moment scalars.

    A layer appears in ``m``/``v`` only once initialized; layers whose
    first gradient is all-zero stay uninitialized until a nonzero gradient
    arrives (the init formula divides by the gradient norm).
    """

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, float] = field(default_factory=dict)
    v_hat: dict[str, float] | None = None
    step_count: int = 0

    def initialized(self, layer_id: str) -> bool:
        return layer_id in self.v


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
class AdamState:
    """Element-wise first and second moment vectors per layer."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0


@dataclass(frozen=True)
class SgdMomentumConfig(Config):
    """Heavy-ball SGD: m <- mu*m + g + d*w, w <- w - lr_t*m."""

    momentum: float = field(default=0.9, metadata={"min": 0, "below": 1})
    weight_decay: float = field(default=0.0, metadata={"min": 0})


@dataclass
class SgdMomentumState:
    """Momentum buffer per layer."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0


@dataclass(frozen=True)
class SngdConfig(Config):
    """Stateless normalized gradient descent: w <- w - lr_t * g/(||g|| + eps)."""

    epsilon: float = field(default=1e-8, metadata={"min": 0})


def _check_lr(lr_t: float) -> None:
    if lr_t < 0:
        raise ValueError(f"negative learning rate: {lr_t}")


def _check_grad_finite(params: ModelParams) -> None:
    """One check of the whole gradient buffer; the error names the first
    non-finite layer."""
    if not np.isfinite(params.grad).all():
        bad = next(layer.id for layer in params if not np.isfinite(layer.grad).all())
        raise ValueError(f"non-finite gradient in layer '{bad}'")


def _bind(state, params: ModelParams) -> list[np.ndarray]:
    """Flat buffers laid out like ``params.weights`` for the state's vector fields
    (``m``, and Adam's ``v``), made when the state first meets ``params``, zero for a
    fresh state (no step, no layers); the fields' entries become views into them.  Only
    NovoGrad may lack layers (those not yet initialized); other mismatches raise."""
    if getattr(state, "_model", None) is not params:
        names = ("m", "v") if isinstance(state, AdamState) else ("m",)
        lazy = isinstance(state, NovoGradState)
        fresh = state.step_count == 0 and not any(getattr(state, n) for n in names)
        state._buffers = [params.flatten(getattr(state, n), partial=lazy or fresh) for n in names]
        for name, flat in zip(names, state._buffers):
            held = getattr(state, name)
            held.update((i, view) for i, view in zip(params.layer_ids, params.split(flat)) if i in held or not lazy)
        state._model = params
    return state._buffers


def novograd_step(params: ModelParams, state: NovoGradState, cfg: NovoGradConfig, lr_t: float) -> None:
    """One fused NovoGrad update at learning rate ``lr_t`` over the whole model.

    Initialized layers take the moment update; layers holding their first
    nonzero gradient are initialized (v_1 = ||g||^2, m_1 = g/||g|| + d*w)
    and take the paired update; the rest stay untouched.  Weight decay uses
    the pre-step weights.  The per-layer scalars are computed in Python
    floats and broadcast over their layers' elements in the model's dtype,
    so every element sees the arithmetic of a per-layer loop.
    """
    _check_lr(lr_t)
    _check_grad_finite(params)
    (m,) = _bind(state, params)
    beta1, beta2, d, eps = cfg.beta1, cfg.beta2, cfg.weight_decay, cfg.epsilon
    decoupled = cfg.wd_placement == "decoupled_update"
    g, w = params.grad, params.weights
    denoms: list[float] = []  # divisor of each layer's gradient; 0 leaves it at 0
    known: list[bool] = []  # initialized before this step
    active: list[bool] = []  # updated this step
    for layer_id, gsq, m_l in zip(params.layer_ids, l2_norm_sq(g, params.offsets).tolist(), params.split(m)):
        was_known = layer_id in state.v
        if was_known:
            v = beta2 * state.v[layer_id] + (1.0 - beta2) * gsq
            state.v[layer_id] = v
            if state.v_hat is not None:
                v = max(state.v_hat[layer_id], v)
                state.v_hat[layer_id] = v
            denoms.append(math.sqrt(v) + eps)
        elif gsq != 0.0:  # an all-zero first gradient defers init
            state.v[layer_id], state.m[layer_id] = gsq, m_l
            if state.v_hat is not None:
                state.v_hat[layer_id] = gsq
            denoms.append(math.sqrt(gsq))
        else:
            denoms.append(0.0)
        known.append(was_known)
        active.append(was_known or gsq != 0.0)
    denom = params.broadcast(denoms, g.dtype)
    if all(denoms):
        normalized = g / denom
    else:  # zero where denom == 0 (only reachable when g == 0)
        normalized = np.zeros_like(g)
        np.divide(g, denom, out=normalized, where=params.broadcast([x != 0.0 for x in denoms]))
    if d != 0.0 and not decoupled:
        contrib = normalized + d * w
    else:
        contrib = normalized
    if cfg.first_moment_style == "ema":
        m_new = beta1 * m + (1.0 - beta1) * contrib
    else:
        m_new = beta1 * m + contrib
    if not all(known):  # a layer being initialized takes m_1 = contrib
        m_new = np.where(params.broadcast(known), m_new, contrib)
    where = True if all(active) else params.broadcast(active)
    np.copyto(m, m_new, where=where)
    if d != 0.0 and decoupled:
        decay = lr_t * d * w
        np.subtract(w, lr_t * m, out=w, where=where)
        np.subtract(w, decay, out=w, where=where)
    else:
        np.subtract(w, lr_t * m, out=w, where=where)
    state.step_count += 1


def novograd_init(params: ModelParams, cfg: NovoGradConfig, lr_t: float) -> NovoGradState:
    """Initialize moments from the first gradients and take the first step.

    For every layer holding its first stochastic gradient:
    v_1 = ||g_1||^2, m_1 = g_1/||g_1|| + d*w_1, then w_2 = w_1 - lr_t*m_1.
    Layers with an all-zero first gradient are left uninitialized and
    untouched.  ``step_count`` becomes 1.
    """
    if len(params.layers) == 0:
        raise ValueError("no layers to optimize")
    state = _REGISTRY["novograd"].new_state(cfg)
    novograd_step(params, state, cfg, lr_t)
    return state


def _adam_step(params: ModelParams, state: AdamState, cfg: AdamConfig, lr_t: float, decoupled: bool) -> None:
    _check_lr(lr_t)
    _check_grad_finite(params)
    m, v = _bind(state, params)
    beta1, beta2, d, eps = cfg.beta1, cfg.beta2, cfg.weight_decay, cfg.epsilon
    state.step_count += 1
    t = state.step_count
    w = params.weights
    g = params.grad
    if d != 0.0 and not decoupled:
        g = g + d * w
    m[...] = beta1 * m + (1.0 - beta1) * g
    v[...] = beta2 * v + (1.0 - beta2) * g * g
    if cfg.bias_correction:
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
    else:
        m_hat, v_hat = m, v
    denom = np.sqrt(v_hat) + eps
    if eps > 0.0:
        update = m_hat / denom
    else:  # a zero second moment (only zero or underflowing gradients so far): no update
        update = np.zeros_like(m_hat)
        np.divide(m_hat, denom, out=update, where=denom != 0.0)
    if d != 0.0 and decoupled:
        update = update + d * w
    w -= lr_t * update


def adam_step(params: ModelParams, state: AdamState, cfg: AdamConfig, lr_t: float) -> None:
    """One Adam update; coupled weight decay folds d*w into the gradient."""
    _adam_step(params, state, cfg, lr_t, False)


def adamw_step(params: ModelParams, state: AdamState, cfg: AdamConfig, lr_t: float) -> None:
    """One AdamW update: moments see the raw gradient, decay goes into the
    weight update as -lr_t * d * w."""
    _adam_step(params, state, cfg, lr_t, True)


def sgd_momentum_step(params: ModelParams, state: SgdMomentumState, cfg: SgdMomentumConfig, lr_t: float) -> None:
    """One heavy-ball SGD update with coupled L2 decay."""
    _check_lr(lr_t)
    _check_grad_finite(params)
    mu, d = cfg.momentum, cfg.weight_decay
    w = params.weights
    g = params.grad
    if d != 0.0:
        g = g + d * w
    (m,) = _bind(state, params)
    m[...] = mu * m + g
    w -= lr_t * m
    state.step_count += 1


def sngd_step(params: ModelParams, cfg: SngdConfig, lr_t: float) -> None:
    """One normalized-gradient step; layers with zero gradient are no-ops."""
    _check_lr(lr_t)
    _check_grad_finite(params)
    norms = np.sqrt(l2_norm_sq(params.grad, params.offsets))
    moving = norms != 0.0
    denom = params.broadcast(np.where(moving, norms + cfg.epsilon, 1.0), params.grad.dtype)
    where = True if moving.all() else params.broadcast(moving)
    np.subtract(params.weights, lr_t * (params.grad / denom), out=params.weights, where=where)


class _Algorithm(NamedTuple):
    """Registry entry: config class, ``new_state(cfg)`` giving the empty state
    (None for a stateless algorithm) and ``step(params, state, cfg, lr_t)``."""

    config: type
    new_state: Callable
    step: Callable


# every per-algorithm difference outside the step functions lives here
_REGISTRY = {
    "novograd": _Algorithm(NovoGradConfig, lambda cfg: NovoGradState(v_hat={} if cfg.ams else None), novograd_step),
    "adam": _Algorithm(AdamConfig, lambda cfg: AdamState(), adam_step),
    "adamw": _Algorithm(AdamConfig, lambda cfg: AdamState(), adamw_step),
    "sgd": _Algorithm(SgdMomentumConfig, lambda cfg: SgdMomentumState(), sgd_momentum_step),
    "sngd": _Algorithm(SngdConfig, lambda cfg: None, lambda params, state, cfg, lr_t: sngd_step(params, cfg, lr_t)),
}

ALGORITHMS = tuple(_REGISTRY)

# v1 documents spelled AdamW as adam + decoupled=true; the flag must agree with the name
_V1_DECOUPLED = {"adam": False, "adamw": True}
# v1 documents carried a learning rate that no step read (the caller passes lr_t)
_V1_LR_KEY = {"novograd": "lr0", "adam": "lr", "adamw": "lr", "sgd": "lr"}


def make_config(algorithm: str, hyperparams: dict | None = None):
    """Build the config dataclass for ``algorithm``, rejecting unknown keys."""
    cls = _REGISTRY[checked("algorithm", str, algorithm, {"choices": ALGORITHMS})].config
    hp = checked("hyperparams", dict, {} if hyperparams is None else hyperparams)
    allowed = {f.name for f in fields(cls)}
    for key in hp:
        if key not in allowed:
            raise ValueError(f"unknown hyperparameter '{key}' for {algorithm}")
    return cls(**hp)


def _layer_fields(state) -> list[str]:
    """Names of the state's per-layer dict fields (``m``, ``v``, ``v_hat``), in field order."""
    if state is None:
        return []
    return [f.name for f in fields(state) if isinstance(getattr(state, f.name), dict)]


def state_to_dict(algorithm: str, cfg, state) -> dict:
    """Serialize optimizer state to a JSON-compatible tree.

    Each initialized layer becomes one entry holding its value of every
    per-layer field of the state.  Floats survive a JSON round trip
    exactly (shortest-repr formatting), so checkpoint/restore reproduces
    trajectories bit-for-bit.
    """
    doc = {
        "format_version": STATE_FORMAT_VERSION,
        "algorithm": algorithm,
        "config": asdict(cfg),
        "step_count": 0 if state is None else state.step_count,
        "layers": [],
    }
    names = _layer_fields(state)
    for layer_id in getattr(state, names[0]) if names else ():
        entry = {"id": layer_id}
        for name in names:
            value = getattr(state, name)[layer_id]
            entry[name] = value.tolist() if isinstance(value, np.ndarray) else value
        doc["layers"].append(entry)
    return doc


def state_from_dict(doc: dict):
    """Inverse of :func:`state_to_dict`; returns (algorithm, config, state)."""
    version = doc.get("format_version")
    if version != STATE_FORMAT_VERSION:
        raise ValueError(f"unsupported state format version: {version}")
    algorithm = doc["algorithm"]
    config = dict(doc["config"])
    if algorithm in _V1_DECOUPLED and "decoupled" in config:
        if config.pop("decoupled") != _V1_DECOUPLED[algorithm]:
            raise ValueError(f"{algorithm} requires decoupled={_V1_DECOUPLED[algorithm]}; use 'adam' or 'adamw'")
    config.pop(_V1_LR_KEY.get(algorithm), None)
    cfg = make_config(algorithm, config)
    state = _REGISTRY[algorithm].new_state(cfg)
    if state is not None:
        state.step_count = doc["step_count"]
    names = _layer_fields(state)
    for entry in doc["layers"]:
        for name in names:
            value = entry[name]
            getattr(state, name)[entry["id"]] = (
                np.asarray(value, dtype=np.float64) if isinstance(value, list) else float(value)
            )
    return algorithm, cfg, state


class OptimizerDriver:
    """Uniform stepping facade over the registered step functions.

    Owns the state, the algorithm's empty state unless one is given, and
    provides state (de)serialization for checkpointing.
    """

    def __init__(self, algorithm: str, cfg=None, state=None):
        if algorithm not in _REGISTRY:
            raise ValueError(f"unknown algorithm '{algorithm}'")
        self.algorithm = algorithm
        self.cfg = make_config(algorithm) if cfg is None else checked("cfg", _REGISTRY[algorithm].config, cfg)
        self.state = _REGISTRY[algorithm].new_state(self.cfg) if state is None else state

    def step(self, params: ModelParams, lr_t: float) -> None:
        _REGISTRY[self.algorithm].step(params, self.state, self.cfg, lr_t)

    def second_moments(self, params: ModelParams) -> dict[str, float] | None:
        """Per-layer second-moment summary: the state's ``v`` per layer (the
        mean of an element-wise ``v``); None for optimizers without one."""
        v = getattr(self.state, "v", None)
        if v is None:
            return None
        return {
            # np.mean's arithmetic without its Python wrapper
            layer_id: value if isinstance(value, float) else float(np.add.reduce(value) / value.size)
            for layer_id, value in v.items()
        }

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
    """Measure the persistent state an optimizer keeps for ``params``.

    A copy of ``params`` takes one step at ``lr_t = 0`` on a unit gradient,
    which initializes every layer; the report counts the elements the
    resulting state holds.  ``ams`` selects NovoGrad's running-max
    variant.  NovoGrad keeps one momentum vector plus one second-moment
    scalar per layer (two scalars with ``ams``), roughly half of Adam's
    two full moment vectors.
    """
    driver = OptimizerDriver(algorithm, make_config(algorithm, {"ams": True} if ams else None))
    model = params.copy()
    model.grad[...] = 1.0
    driver.step(model, 0.0)
    per_layer = [list(getattr(driver.state, name).values()) for name in _layer_fields(driver.state)]
    full_vectors = sum(any(isinstance(x, np.ndarray) for x in values) for values in per_layer)
    scalars = sum(bool(values) for values in per_layer) - full_vectors
    total = sum(np.size(x) for values in per_layer for x in values)
    return StateReport(algorithm, scalars, full_vectors, total)
