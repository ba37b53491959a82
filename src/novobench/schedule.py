"""Learning-rate schedules and layer-wise adaptive rate clipping (LARC).

Schedules are pure functions of the step index: linear warmup to the base
rate, then constant, cosine, or polynomial decay down to ``min_lr`` over
the remaining steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .params import Config

__all__ = ["ScheduleSpec", "LarcConfig", "lr_at", "larc_scale", "FAMILIES"]

FAMILIES = ("constant", "cosine", "polynomial")


@dataclass(frozen=True)
class ScheduleSpec(Config):
    """Declarative learning-rate schedule over ``total_steps`` updates.

    Warmup interpolates linearly from base_lr/warmup_steps (never exactly
    zero) up to base_lr; the decay phase then runs over the remaining
    steps.  ``power`` applies to the polynomial family only (2 gives
    quadratic decay).
    """

    base_lr: float = field(metadata={"above": 0})
    total_steps: int = field(metadata={"min": 1})
    family: str = field(default="cosine", metadata={"choices": FAMILIES})
    power: float = field(default=1.0, metadata={"above": 0})
    warmup_steps: int = field(default=0, metadata={"min": 0})
    min_lr: float = field(default=0.0, metadata={"min": 0})

    def __post_init__(self):
        super().__post_init__()
        if self.warmup_steps >= self.total_steps:
            raise ValueError(f"warmup_steps must be < total_steps, got {self.warmup_steps}")
        if self.min_lr > self.base_lr:
            raise ValueError("min_lr must not exceed base_lr")


def lr_at(spec: ScheduleSpec, t: int) -> float:
    """Learning rate at step ``t`` (0-based); valid for 0 <= t <= total_steps."""
    if t < 0:
        raise ValueError(f"negative step: {t}")
    if t > spec.total_steps:
        raise ValueError("schedule exhausted")
    if t < spec.warmup_steps:
        return spec.base_lr * (t + 1) / spec.warmup_steps
    if spec.family == "constant":
        return spec.base_lr
    s = t - spec.warmup_steps
    span = spec.total_steps - spec.warmup_steps
    if s >= span:
        return spec.min_lr  # exact endpoint
    frac = s / span
    if spec.family == "cosine":
        decay = 0.5 * (1.0 + math.cos(math.pi * frac))
    else:
        decay = (1.0 - frac) ** spec.power
    return spec.min_lr + (spec.base_lr - spec.min_lr) * decay


@dataclass(frozen=True)
class LarcConfig(Config):
    """Trust-ratio clipping of the per-layer effective learning rate."""

    trust_coefficient: float = field(default=0.001, metadata={"above": 0})
    clip: bool = True
    eps_div: float = field(default=1e-8, metadata={"min": 0})


def larc_scale(layer_weights_norm: float, layer_grad_norm: float, lr_t: float, cfg: LarcConfig) -> float:
    """Multiplicative gradient scale implementing per-layer rate clipping.

    The trust ratio tau = trust_coefficient * ||w|| / (||g|| + eps_div)
    caps the layer's effective learning rate at min(lr_t, tau); the
    returned scale (effective / lr_t) is applied to the layer gradient
    before the optimizer step.  Degenerate layers (||w|| = 0, lr_t = 0, or
    a zero denominator) pass through unscaled.
    """
    if layer_weights_norm < 0 or layer_grad_norm < 0:
        raise ValueError("norms must be nonnegative")
    if lr_t < 0:
        raise ValueError(f"negative learning rate: {lr_t}")
    if layer_weights_norm == 0.0 or lr_t == 0.0:
        return 1.0
    denom = layer_grad_norm + cfg.eps_div
    if denom == 0.0:
        return 1.0
    trust = cfg.trust_coefficient * layer_weights_norm / denom
    effective = min(lr_t, trust) if cfg.clip else trust
    return effective / lr_t
