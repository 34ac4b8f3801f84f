"""Adaptive-moment optimizer with constant or cosine learning-rate decay."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation

log = logging.getLogger(__name__)

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass(frozen=True)
class LrSchedule:
    """lr(0) = lr_start and lr(total_steps) = lr_end; cosine interpolates."""

    kind: str  # "constant" or "cosine"
    lr_start: float
    lr_end: float = 0.0
    total_steps: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "cosine"):
            raise ContractViolation(f"unknown schedule kind {self.kind!r}")
        if self.kind == "cosine" and self.total_steps < 1:
            raise ContractViolation("cosine schedule needs total_steps >= 1")
        for name in ("lr_start", "lr_end"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr >= 0):
                raise ContractViolation(f"{name} must be finite and >= 0, got {lr!r}")

    def at(self, step: int) -> float:
        if self.kind == "constant":
            return self.lr_start
        frac = min(max(step / self.total_steps, 0.0), 1.0)
        return self.lr_end + 0.5 * (self.lr_start - self.lr_end) * (1.0 + math.cos(math.pi * frac))


class Adam:
    """Adam with bias correction over a fixed list of parameter tensors.

    ``step()`` reads each parameter's ``grad`` (missing grads count as zero),
    widened to float64 once, and updates values in place; the moments ``m``
    and ``v`` are float64 like the parameters, whatever the graph's dtype.
    If any gradient is non-finite the whole update is skipped and the
    incident is counted and logged; the step counter still advances so the
    schedule keeps moving.
    """

    def __init__(self, params: list[ad.Tensor], schedule: LrSchedule):
        self.params = list(params)
        self.schedule = schedule
        self.step_count = 0
        self.skipped = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> float:
        grads = [np.asarray(p.grad, dtype=np.float64) if p.grad is not None
                 else np.zeros_like(p.value) for p in self.params]
        lr = self.schedule.at(self.step_count)
        self.step_count += 1
        if not all(np.all(np.isfinite(g)) for g in grads):
            self.skipped += 1
            log.warning("optimizer step %d skipped: non-finite gradient", self.step_count)
            return lr
        t = self.step_count
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.value -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        return lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
