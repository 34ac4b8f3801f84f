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

Each term is a masked mean of a closed-form per-pixel map, so the gradient
with respect to the two head outputs is closed-form too: the loss is one
autodiff node that writes both gradients directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation
from .labels import IGNORE_LABEL
from .scoring import log_sum_exp

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

    ``total`` is one node with parents ``(dataset_logit, logits)``. With
    g_in = g/n_in on inlier pixels and g_out = g*beta/n_out on outlier
    pixels (0 elsewhere), its gradient is written in closed form:
    (g_in + g_out) * softmax(x) minus g_in at the label channel for the
    logits x, and g_out*sigmoid(z) - g_in*sigmoid(-z) for z. Every
    sigmoid is exp(v - softplus(v)), finite at any finite v.
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

    # an empty set has an all-False mask, so dividing by 1 keeps it at 0
    d_in, d_out = max(n_in, 1), max(n_out, 1)
    x, z = logits.value, dataset_logit.value
    # one log-sum-exp serves both the cross-entropy and the outlier energy.
    # Non-inlier pixels hold labels K and 255: point them at channel 0,
    # where the inlier mask drops them.
    lse = np.expand_dims(log_sum_exp(x, axis=1), 1)
    idx = np.where(inlier, labels[:, None], 0)
    sp_neg, sp_pos = ad.log1p_exp(-z), ad.log1p_exp(z)
    cls = (lse - np.take_along_axis(x, idx, axis=1)).sum(where=inlier) / d_in
    lx_out = lse.sum(where=outlier) / d_out
    post_in = sp_neg.sum(where=inlier) / d_in
    post_out = sp_pos.sum(where=outlier) / d_out
    total = cls + post_in + beta * (post_out + lx_out)

    def backprop(g):
        g_in = g * inlier / d_in
        g_out = g * beta * outlier / d_out
        gx = (g_in + g_out) * np.exp(x - lse)
        np.put_along_axis(gx, idx, np.take_along_axis(gx, idx, axis=1) - g_in, axis=1)
        ad._accumulate(logits, gx)
        ad._accumulate(dataset_logit,
                       g_out * np.exp(z - sp_pos) - g_in * np.exp(-z - sp_neg))

    # backward walks the OOD head first; (logits, dataset_logit) raised its peak memory
    out = ad._make(total, (dataset_logit, logits), backprop)
    breakdown = LossBreakdown(
        cls=float(cls),
        posterior_in=float(post_in),
        posterior_out=float(post_out),
        likelihood_out=float(lx_out),
        total=float(total),
        inlier_pixels=n_in,
        outlier_pixels=n_out,
        ignore_pixels=labels.size - n_in - n_out,
    )
    return out, breakdown
