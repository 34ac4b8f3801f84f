"""The training objective over mixed-content batches: `compound_loss`.

The label map alone sorts the pixels. With K logit channels, labels 0..K-1
are inlier pixels, K marks outlier pixels and IGNORE_LABEL the rest. Inlier
pixels drive the standard per-pixel cross-entropy and a binary term pulling
the dataset posterior toward 1. Outlier pixels drive the mirrored binary
term and an energy term that pushes the per-pixel log-sum-exp of the logits
down; its inlier counterpart (raise the true-class logit) is already
subsumed by the cross-entropy, so it has no term of its own. A modulation
factor scales how hard the outlier terms weigh against the primary
classification task.

Every term is the mean over its own pixel set across the whole batch, and an
empty set contributes exactly zero. Ignore pixels touch nothing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation
from .labels import IGNORE_LABEL

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar loss components of one batch, plus pixel counts per pixel set.

    ``total = cls + posterior_in + beta * (posterior_out + likelihood_out)``.
    Every pixel that is neither inlier nor outlier counts as ignore.
    """

    cls: float
    posterior_in: float
    posterior_out: float
    likelihood_out: float
    total: float
    inlier_pixels: int
    outlier_pixels: int
    ignore_pixels: int

    CSV_FIELDS = ("cls", "posterior_in", "posterior_out", "likelihood_out", "total")


def compound_loss(logits: ad.Tensor, dataset_logit: ad.Tensor, labels,
                  beta: float) -> tuple[ad.Tensor, LossBreakdown]:
    """Full training objective and its per-term breakdown.

    ``cls`` is the cross-entropy over inlier pixels, ``posterior_in`` and
    ``posterior_out`` the binary cross-entropy of the dataset posterior
    p = sigmoid(z) of the head's logit z (-mean ln p = mean softplus(-z)
    over inliers, -mean ln(1-p) = mean softplus(z) over outliers; both
    finite for any finite z), and ``likelihood_out`` the mean log-sum-exp
    of the logits over outlier pixels.

    total = cls + posterior_in + beta * (posterior_out + likelihood_out)
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ContractViolation(f"beta must be finite and >= 0, got {beta!r}")
    n, k, h, w = logits.value.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise ContractViolation(f"labels must be {(n, h, w)}, got {labels.shape}")
    inlier = ((labels >= 0) & (labels < k))[:, None]
    outlier = (labels == k)[:, None]
    if not (inlier[:, 0] | outlier[:, 0] | (labels == IGNORE_LABEL)).all():
        raise ContractViolation(f"labels must be in 0..{k} or {IGNORE_LABEL}")
    n_in, n_out = int(inlier.sum()), int(outlier.sum())
    if not n_in:
        log.warning("classification loss over zero inlier pixels, returning 0")

    # one log-sum-exp node serves both the cross-entropy and the outlier
    # energy; the inlier and outlier masks are disjoint, so its gradient sums
    # one nonzero term per pixel. Non-inlier pixels hold labels K and 255:
    # point them at channel 0, where the inlier mask drops them.
    lse = ad.channel_log_sum_exp(logits)
    nll = lse - ad.take_channel(logits, np.where(inlier[:, 0], labels, 0))
    cls = ad.masked_mean(nll, inlier)
    lx_out = ad.masked_mean(lse, outlier)
    d_in = ad.masked_mean(ad.softplus(-dataset_logit), inlier)
    d_out = ad.masked_mean(ad.softplus(dataset_logit), outlier)
    total = cls + d_in + beta * (d_out + lx_out)
    breakdown = LossBreakdown(
        cls=cls.item(),
        posterior_in=d_in.item(),
        posterior_out=d_out.item(),
        likelihood_out=lx_out.item(),
        total=total.item(),
        inlier_pixels=n_in,
        outlier_pixels=n_out,
        ignore_pixels=labels.size - n_in - n_out,
    )
    return total, breakdown
