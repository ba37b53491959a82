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

import numpy as np

from .params import ModelParams, l2_norm_sq

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
]

FIRST_MOMENT_STYLES = ("cumulative", "ema")
WD_PLACEMENTS = ("in_moment", "decoupled_update")

STATE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NovoGradConfig:
    """NovoGrad hyperparameters.

    ``beta2`` is much smaller than Adam's because it smooths a single
    scalar norm per layer, not per-element squares; ``beta2 = 0`` is legal
    and degenerates to layer-wise normalized gradient descent.  ``epsilon``
    may be 0, which makes the update exactly invariant to power-of-two
    gradient scaling (at the cost of the divide-by-zero guard).
    """

    lr0: float = 0.01
    beta1: float = 0.95
    beta2: float = 0.25
    weight_decay: float = 0.0
    epsilon: float = 1e-8
    first_moment_style: str = "cumulative"
    wd_placement: str = "in_moment"
    ams: bool = False

    def __post_init__(self):
        if not self.lr0 > 0:
            raise ValueError(f"lr0 must be > 0, got {self.lr0}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 <= 1.0:
            raise ValueError(f"beta2 must be in [0, 1], got {self.beta2}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.first_moment_style not in FIRST_MOMENT_STYLES:
            raise ValueError(f"first_moment_style must be one of {FIRST_MOMENT_STYLES}")
        if self.wd_placement not in WD_PLACEMENTS:
            raise ValueError(f"wd_placement must be one of {WD_PLACEMENTS}")


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
class AdamConfig:
    """Adam / AdamW hyperparameters; ``decoupled`` selects AdamW decay."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    bias_correction: bool = True
    decoupled: bool = False

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {self.beta2}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass
class AdamState:
    """Element-wise first and second moment vectors per layer."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={layer.id: np.zeros_like(layer.weights) for layer in params},
            v={layer.id: np.zeros_like(layer.weights) for layer in params},
        )


@dataclass(frozen=True)
class SgdMomentumConfig:
    """Heavy-ball SGD: m <- mu*m + g + d*w, w <- w - lr_t*m."""

    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class SgdMomentumState:
    """Momentum buffer per layer."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "SgdMomentumState":
        return cls(m={layer.id: np.zeros_like(layer.weights) for layer in params})


@dataclass(frozen=True)
class SngdConfig:
    """Stateless normalized gradient descent: w <- w - lr_t * g/(||g|| + eps)."""

    epsilon: float = 1e-8

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


def _check_lr(lr_t: float) -> None:
    if lr_t < 0:
        raise ValueError(f"negative learning rate: {lr_t}")


def _check_grad_finite(params: ModelParams) -> None:
    """One check of the whole gradient buffer; the error names the first
    non-finite layer."""
    if not np.isfinite(params.grad).all():
        bad = next(layer.id for layer in params if not np.isfinite(layer.grad).all())
        raise ValueError(f"non-finite gradient in layer '{bad}'")


def _gather(arrays: dict[str, np.ndarray], params: ModelParams) -> np.ndarray:
    """Per-layer state vectors concatenated in the model's layer order."""
    if not params.layers:
        return np.zeros_like(params.weights)
    return np.concatenate([arrays[layer_id] for layer_id in params.layer_ids])


def _scatter(arrays: dict[str, np.ndarray], flat: np.ndarray, params: ModelParams) -> None:
    """Store per-layer views of ``flat``; existing keys keep their order."""
    arrays.update(zip(params.layer_ids, params.split(flat)))


def _novograd_update(params: ModelParams, state: NovoGradState, cfg: NovoGradConfig, lr_t: float) -> None:
    """One fused NovoGrad update over the whole model.

    Initialized layers take the moment update; layers holding their first
    nonzero gradient are initialized (v_1 = ||g||^2, m_1 = g/||g|| + d*w)
    and take the paired update; the rest stay untouched.  The per-layer
    scalars are computed in Python floats and broadcast over their layers'
    elements in the model's dtype, so every element sees the arithmetic of
    a per-layer loop.
    """
    _check_grad_finite(params)
    beta1, beta2, d, eps = cfg.beta1, cfg.beta2, cfg.weight_decay, cfg.epsilon
    decoupled = cfg.wd_placement == "decoupled_update"
    g, w = params.grad, params.weights
    denoms: list[float] = []  # divisor of each layer's gradient; 0 leaves it at 0
    known: list[bool] = []  # initialized before this step
    active: list[bool] = []  # updated this step
    for layer_id, gsq in zip(params.layer_ids, l2_norm_sq(g, params.offsets).tolist()):
        was_known = layer_id in state.v
        if was_known:
            v = beta2 * state.v[layer_id] + (1.0 - beta2) * gsq
            state.v[layer_id] = v
            if state.v_hat is not None:
                v = max(state.v_hat[layer_id], v)
                state.v_hat[layer_id] = v
            denoms.append(math.sqrt(v) + eps)
        elif gsq != 0.0:  # an all-zero first gradient defers init
            state.v[layer_id] = gsq
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
    m = contrib
    if any(known):
        m_prev = np.concatenate(
            [state.m[layer.id] if k else np.zeros_like(layer.weights) for layer, k in zip(params, known)]
        )
        if cfg.first_moment_style == "ema":
            m = beta1 * m_prev + (1.0 - beta1) * contrib
        else:
            m = beta1 * m_prev + contrib
        if not all(known):
            m = np.where(params.broadcast(known), m, contrib)
    where = True if all(active) else params.broadcast(active)
    if d != 0.0 and decoupled:
        decay = lr_t * d * w
        np.subtract(w, lr_t * m, out=w, where=where)
        np.subtract(w, decay, out=w, where=where)
    else:
        np.subtract(w, lr_t * m, out=w, where=where)
    for layer_id, is_active, m_l in zip(params.layer_ids, active, params.split(m)):
        if is_active:
            state.m[layer_id] = m_l


def novograd_init(params: ModelParams, cfg: NovoGradConfig, lr_t: float) -> NovoGradState:
    """Initialize moments from the first gradients and take the first step.

    For every layer holding its first stochastic gradient:
    v_1 = ||g_1||^2, m_1 = g_1/||g_1|| + d*w_1, then w_2 = w_1 - lr_t*m_1.
    Layers with an all-zero first gradient are left uninitialized and
    untouched.  ``step_count`` becomes 1.
    """
    if len(params.layers) == 0:
        raise ValueError("no layers to optimize")
    _check_lr(lr_t)
    state = NovoGradState(v_hat={} if cfg.ams else None)
    _novograd_update(params, state, cfg, lr_t)
    state.step_count = 1
    return state


def novograd_step(params: ModelParams, state: NovoGradState, cfg: NovoGradConfig, lr_t: float) -> None:
    """One NovoGrad update at learning rate ``lr_t``.

    Weight decay uses the pre-step weights.  Layers still awaiting
    initialization are initialized here the first time their gradient is
    nonzero.
    """
    _check_lr(lr_t)
    _novograd_update(params, state, cfg, lr_t)
    state.step_count += 1


def _adam_step(params: ModelParams, state: AdamState, cfg: AdamConfig, lr_t: float, decoupled: bool) -> None:
    _check_lr(lr_t)
    _check_grad_finite(params)
    beta1, beta2, d, eps = cfg.beta1, cfg.beta2, cfg.weight_decay, cfg.epsilon
    state.step_count += 1
    t = state.step_count
    w = params.weights
    g = params.grad
    if d != 0.0 and not decoupled:
        g = g + d * w
    m = beta1 * _gather(state.m, params) + (1.0 - beta1) * g
    v = beta2 * _gather(state.v, params) + (1.0 - beta2) * g * g
    _scatter(state.m, m, params)
    _scatter(state.v, v, params)
    if cfg.bias_correction:
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
    else:
        m_hat, v_hat = m, v
    update = m_hat / (np.sqrt(v_hat) + eps)
    if d != 0.0 and decoupled:
        update = update + d * w
    w -= lr_t * update


def adam_step(params: ModelParams, state: AdamState, cfg: AdamConfig, lr_t: float) -> None:
    """One Adam update; coupled weight decay folds d*w into the gradient."""
    _adam_step(params, state, cfg, lr_t, cfg.decoupled)


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
    m = mu * _gather(state.m, params) + g
    _scatter(state.m, m, params)
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


ALGORITHMS = ("novograd", "adam", "adamw", "sgd", "sngd")

_CONFIG_TYPES = {
    "novograd": NovoGradConfig,
    "adam": AdamConfig,
    "adamw": AdamConfig,
    "sgd": SgdMomentumConfig,
    "sngd": SngdConfig,
}


def make_config(algorithm: str, hyperparams: dict | None = None):
    """Build the config dataclass for ``algorithm``, rejecting unknown keys."""
    if algorithm not in _CONFIG_TYPES:
        raise ValueError(f"unknown algorithm '{algorithm}'")
    cls = _CONFIG_TYPES[algorithm]
    hp = dict(hyperparams or {})
    allowed = {f.name for f in fields(cls)}
    for key in hp:
        if key not in allowed:
            raise ValueError(f"unknown hyperparameter '{key}' for {algorithm}")
    if algorithm == "adamw":
        if hp.get("decoupled") is False:
            raise ValueError("adamw is always decoupled; use algorithm 'adam' instead")
        hp["decoupled"] = True
    return cls(**hp)


def state_to_dict(algorithm: str, cfg, state) -> dict:
    """Serialize optimizer state to a JSON-compatible tree.

    Floats survive a JSON round trip exactly (shortest-repr formatting),
    so checkpoint/restore reproduces trajectories bit-for-bit.
    """
    doc = {
        "format_version": STATE_FORMAT_VERSION,
        "algorithm": algorithm,
        "config": asdict(cfg),
        "step_count": 0 if state is None else state.step_count,
        "layers": [],
    }
    if state is None:
        return doc
    if algorithm == "novograd":
        for layer_id in state.v:
            entry = {"id": layer_id, "m": state.m[layer_id].tolist(), "v": state.v[layer_id]}
            if state.v_hat is not None:
                entry["v_hat"] = state.v_hat[layer_id]
            doc["layers"].append(entry)
    elif algorithm in ("adam", "adamw"):
        for layer_id in state.m:
            doc["layers"].append(
                {"id": layer_id, "m": state.m[layer_id].tolist(), "v": state.v[layer_id].tolist()}
            )
    elif algorithm == "sgd":
        for layer_id in state.m:
            doc["layers"].append({"id": layer_id, "m": state.m[layer_id].tolist()})
    # sngd is stateless: layers stays empty
    return doc


def state_from_dict(doc: dict):
    """Inverse of :func:`state_to_dict`; returns (algorithm, config, state)."""
    version = doc.get("format_version")
    if version != STATE_FORMAT_VERSION:
        raise ValueError(f"unsupported state format version: {version}")
    algorithm = doc["algorithm"]
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm '{algorithm}'")
    cfg = make_config(algorithm, doc["config"])
    step_count = doc["step_count"]
    layers = doc["layers"]
    if step_count == 0 and not layers:
        return algorithm, cfg, None  # saved before any step: recreate lazily
    if algorithm == "novograd":
        state = NovoGradState(v_hat={} if cfg.ams else None, step_count=step_count)
        for entry in layers:
            state.m[entry["id"]] = np.asarray(entry["m"], dtype=np.float64)
            state.v[entry["id"]] = float(entry["v"])
            if cfg.ams:
                state.v_hat[entry["id"]] = float(entry["v_hat"])
    elif algorithm in ("adam", "adamw"):
        state = AdamState(step_count=step_count)
        for entry in layers:
            state.m[entry["id"]] = np.asarray(entry["m"], dtype=np.float64)
            state.v[entry["id"]] = np.asarray(entry["v"], dtype=np.float64)
    elif algorithm == "sgd":
        state = SgdMomentumState(step_count=step_count)
        for entry in layers:
            state.m[entry["id"]] = np.asarray(entry["m"], dtype=np.float64)
    else:  # sngd is stateless
        state = None
    return algorithm, cfg, state


class OptimizerDriver:
    """Uniform stepping facade over the per-algorithm functions.

    Owns the lazily created state, dispatches NovoGrad's first call to the
    moment-initializing update, and provides state (de)serialization for
    checkpointing.
    """

    def __init__(self, algorithm: str, cfg=None, state=None):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm '{algorithm}'")
        self.algorithm = algorithm
        self.cfg = cfg if cfg is not None else make_config(algorithm)
        self.state = state

    def step(self, params: ModelParams, lr_t: float) -> None:
        a = self.algorithm
        if a == "novograd":
            if self.state is None:
                self.state = novograd_init(params, self.cfg, lr_t)
            else:
                novograd_step(params, self.state, self.cfg, lr_t)
        elif a == "adam":
            if self.state is None:
                self.state = AdamState.zeros(params)
            adam_step(params, self.state, self.cfg, lr_t)
        elif a == "adamw":
            if self.state is None:
                self.state = AdamState.zeros(params)
            adamw_step(params, self.state, self.cfg, lr_t)
        elif a == "sgd":
            if self.state is None:
                self.state = SgdMomentumState.zeros(params)
            sgd_momentum_step(params, self.state, self.cfg, lr_t)
        else:
            sngd_step(params, self.cfg, lr_t)

    def second_moments(self, params: ModelParams) -> dict[str, float] | None:
        """Per-layer second-moment summary: NovoGrad's v_l as-is, the mean
        of Adam's element-wise v per layer; None for optimizers without one."""
        if self.algorithm == "novograd":
            if self.state is None:
                return {}
            return dict(self.state.v)
        if self.algorithm in ("adam", "adamw"):
            if self.state is None:
                return {}
            return {layer.id: float(np.mean(self.state.v[layer.id])) for layer in params}
        return None

    def state_dict(self) -> dict:
        return state_to_dict(self.algorithm, self.cfg, self.state)

    @classmethod
    def from_state_dict(cls, doc: dict) -> "OptimizerDriver":
        algorithm, cfg, state = state_from_dict(doc)
        return cls(algorithm, cfg, state)
