"""Training losses over mixed-content batches.

Pixels carry one of three roles. Inlier pixels drive the standard per-pixel
cross-entropy and a binary term pulling the dataset posterior toward 1.
Outlier pixels drive the mirrored binary term and an energy term that pushes
the per-pixel log-sum-exp of the logits down; its inlier counterpart (raise
the true-class logit) is already subsumed by the cross-entropy, so it has no
term of its own. A modulation factor scales how hard the outlier
terms weigh against the primary classification task.

Every term is the mean over its own pixel set across the whole batch, and an
empty set contributes exactly zero. Ignore pixels touch nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation
from .labels import PixelRole

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar loss components of one batch, plus pixel counts per role.

    ``total = cls + posterior_in + beta * (posterior_out + likelihood_out)``.
    """

    cls: float
    posterior_in: float
    posterior_out: float
    likelihood_out: float
    total: float
    beta: float
    inlier_pixels: int
    outlier_pixels: int
    ignore_pixels: int

    CSV_FIELDS = ("cls", "posterior_in", "posterior_out", "likelihood_out", "total")


def _role_masks(roles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    roles = np.asarray(roles)
    if roles.ndim != 3:
        raise ContractViolation("roles must be (N,H,W)")
    inlier = roles == PixelRole.INLIER
    outlier = roles == PixelRole.OUTLIER
    return inlier[:, None], outlier[:, None]


def _as_tensor(x) -> ad.Tensor:
    return x if isinstance(x, ad.Tensor) else ad.constant(x)


def _safe_labels(labels: np.ndarray, inlier4: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    picked = labels[inlier4[:, 0]]
    if picked.size and (picked.min() < 0 or picked.max() >= num_classes):
        raise ContractViolation("inlier pixels carry out-of-range class labels")
    # non-inlier pixels hold sentinel values; point them at channel 0, the
    # gather result there is masked out anyway
    return np.where(inlier4[:, 0], labels, 0)


def classification_loss(logits, labels, roles) -> ad.Tensor:
    """Mean per-pixel cross-entropy over inlier pixels (0 if there are none)."""
    logits = _as_tensor(logits)
    inlier4, _ = _role_masks(roles)
    if not inlier4.any():
        log.warning("classification loss over zero inlier pixels, returning 0")
        return ad.constant(0.0)
    safe = _safe_labels(labels, inlier4, logits.value.shape[1])
    nll = ad.channel_log_sum_exp(logits) - ad.take_channel(logits, safe)
    return ad.masked_mean(nll, np.broadcast_to(inlier4, nll.value.shape))


def outlier_energy_term(logits, roles) -> ad.Tensor:
    """Mean log-sum-exp of the logits over outlier pixels (0 if there are none)."""
    logits = _as_tensor(logits)
    _, outlier4 = _role_masks(roles)
    lse = ad.channel_log_sum_exp(logits)
    return ad.masked_mean(lse, np.broadcast_to(outlier4, lse.value.shape))


def posterior_loss_terms(dataset_posterior, roles) -> tuple[ad.Tensor, ad.Tensor]:
    """Binary cross-entropy split by role: (-mean ln p over inliers,
    -mean ln(1-p) over outliers). Posterior clamping upstream keeps both finite."""
    din = _as_tensor(dataset_posterior)
    inlier4, outlier4 = _role_masks(roles)
    in_term = -ad.masked_mean(ad.log(din), np.broadcast_to(inlier4, din.value.shape))
    one_minus = ad.constant(1.0) - din
    out_term = -ad.masked_mean(ad.log(one_minus), np.broadcast_to(outlier4, din.value.shape))
    return in_term, out_term


def compound_loss(logits, dataset_posterior, labels, roles,
                  beta: float) -> tuple[ad.Tensor, LossBreakdown]:
    """Full training objective and its per-term breakdown.

    total = cls + posterior_in + beta * (posterior_out + likelihood_out)
    """
    if beta < 0:
        raise ContractViolation("beta must be >= 0")
    roles = np.asarray(roles)
    cls = classification_loss(logits, labels, roles)
    lx_out = outlier_energy_term(logits, roles)
    d_in, d_out = posterior_loss_terms(dataset_posterior, roles)
    total = cls + d_in + beta * (d_out + lx_out)
    breakdown = LossBreakdown(
        cls=cls.item(),
        posterior_in=d_in.item(),
        posterior_out=d_out.item(),
        likelihood_out=lx_out.item(),
        total=total.item(),
        beta=beta,
        inlier_pixels=int((roles == PixelRole.INLIER).sum()),
        outlier_pixels=int((roles == PixelRole.OUTLIER).sum()),
        ignore_pixels=int((roles == PixelRole.IGNORE).sum()),
    )
    return total, breakdown
