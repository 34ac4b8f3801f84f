"""Minibatch training loop for the two-head segmentation model.

The loop is deterministic: batch `index` of epoch `epoch` always sees the
rng stream ``SeedSequence([seed, epoch, index])``. Divergence (a non-finite
loss or activation) aborts with the parameters as of the end of the last
fully-finite epoch.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractViolation, NumericFailure, TrainingDiverged
from .losses import LossBreakdown, compound_loss
from .network import ModelParams, forward
from .optim import Adam, LrSchedule

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batches_per_epoch: int
    beta: float = 0.03
    seed: int = 0
    schedule: LrSchedule = field(
        default_factory=lambda: LrSchedule(kind="constant", lr_start=1e-3))
    start_step: int = 0  # nonzero when resuming from a checkpoint

    def __post_init__(self):
        if self.epochs < 1 or self.batches_per_epoch < 1:
            raise ContractViolation("epochs and batches_per_epoch must be >= 1")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ContractViolation(f"beta must be finite and >= 0, got {self.beta!r}")


def _epoch_mean(parts: list[LossBreakdown]) -> LossBreakdown:
    """Mean of each loss term and sum of each pixel count over an epoch."""
    summary = {}
    for f in fields(LossBreakdown):
        values = [getattr(p, f.name) for p in parts]
        summary[f.name] = float(np.mean(values)) if f.type == "float" else sum(values)
    return LossBreakdown(**summary)


def train(params: ModelParams, make_batch,
          cfg: TrainConfig) -> tuple[ModelParams, list[LossBreakdown]]:
    """Fit `params` in place; returns (params, per-epoch mean loss breakdown).

    ``make_batch(rng)`` must yield ``(images, labels)`` arrays for one
    minibatch, labels as `compound_loss` reads them; it is called with a
    fresh deterministic rng per batch.
    """
    opt = Adam([tensor for _, tensor in params.trainable()], cfg.schedule)
    opt.step_count = cfg.start_step
    history: list[LossBreakdown] = []
    last_good = params.copy()
    for epoch in range(cfg.epochs):
        parts: list[LossBreakdown] = []
        try:
            for index in range(cfg.batches_per_epoch):
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, epoch, index]))
                images, labels = make_batch(rng)
                maps = forward(params, images, training=True)
                total, breakdown = compound_loss(
                    maps.logits, maps.dataset_logit, labels, cfg.beta)
                if not np.isfinite(breakdown.total):
                    raise NumericFailure(f"non-finite loss at epoch {epoch}")
                opt.zero_grad()
                total.backward()
                opt.step()
                parts.append(breakdown)
        except NumericFailure as exc:
            raise TrainingDiverged(
                f"training diverged in epoch {epoch}: {exc}",
                last_good_params=last_good, history=history) from exc
        summary = _epoch_mean(parts)
        history.append(summary)
        last_good = params.copy()
        log.info("epoch %d/%d total=%.5f cls=%.5f", epoch + 1, cfg.epochs,
                 summary.total, summary.cls)
    return params, history
