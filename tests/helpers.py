"""Shared test oracles: finite differences, batch-norm by its textbook
formulas, brute-force and stable-sort ranking metrics, the two-fold
protocol image by image, a version-1 checkpoint writer and crop
augmentation that resizes the whole image first.

Everything here is deliberately independent of the library's own code paths:
plain loops, direct definitions, no reuse of the functions under test.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from hybridseg.errors import ContractViolation
from hybridseg.labels import IGNORE_LABEL
from hybridseg.metrics import fpr_at_tpr, fuse_open_prediction, open_confusion, open_miou


def finite_difference(f, arrays, h=1e-5):
    """Central-difference gradient of scalar f(*arrays) wrt every coordinate."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = a[idx]
            a[idx] = orig + h
            hi = f()
            a[idx] = orig - h
            lo = f()
            a[idx] = orig
            g[idx] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def finite_difference_at(f, array, idx, h=1e-5):
    """Central difference of scalar f() wrt one coordinate of array."""
    orig = array[idx]
    array[idx] = orig + h
    hi = f()
    array[idx] = orig - h
    lo = f()
    array[idx] = orig
    return (hi - lo) / (2.0 * h)


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(floor, abs(a) + abs(b))


def reference_batch_norm(x, gamma, beta, running_mean, running_var, training, g,
                         momentum=0.1, eps=1e-5):
    """Batch-norm of NCHW ``x`` and its gradients for the cotangent ``g``.

    Returns ``(out, grad_x, grad_gamma, grad_beta, running_mean,
    running_var)``; the running buffers are updated copies. Each formula is
    written out with axis reductions and broadcasting, one temporary per
    step: the batch statistics (variance biased), ``xhat = (x - mu) * inv``
    and, in training mode, the backward of Ioffe & Szegedy (2015).
    """
    axes = (0, 2, 3)
    running_mean, running_var = running_mean.copy(), running_var.copy()
    if training:
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean = (1.0 - momentum) * running_mean + momentum * mu
        running_var = (1.0 - momentum) * running_var + momentum * var
    else:
        mu, var = running_mean, running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    gxhat = g * gamma[None, :, None, None]
    if training:
        m = x.shape[0] * x.shape[2] * x.shape[3]
        s1 = gxhat.sum(axis=axes)[None, :, None, None]
        s2 = (gxhat * xhat).sum(axis=axes)[None, :, None, None]
        grad_x = inv[None, :, None, None] / m * (m * gxhat - s1 - xhat * s2)
    else:
        grad_x = gxhat * inv[None, :, None, None]
    return (out, grad_x, (g * xhat).sum(axis=axes), g.sum(axis=axes),
            running_mean, running_var)


def sweep_average_precision(scores, truth):
    """AP by direct definition: precision at each positive's own threshold."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    pos_scores = scores[truth]
    ap = 0.0
    for s in pos_scores:
        kept = scores >= s
        ap += truth[kept].sum() / kept.sum()
    return ap / len(pos_scores)


def pairwise_auroc(scores, truth):
    """AUROC as the exhaustive mean over positive/negative pairs."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    pos = scores[truth]
    neg = scores[~truth]
    wins = 0.0
    for p in pos:
        wins += (p > neg).sum() + 0.5 * (p == neg).sum()
    return wins / (len(pos) * len(neg))


def sweep_fpr_at_tpr(scores, truth, target=0.95):
    """FPR at the largest threshold reaching the target TPR, by full sweep."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    n_pos = truth.sum()
    n_neg = (~truth).sum()
    if target <= 0:
        return 0.0, np.inf
    best_tau = None
    for tau in sorted(set(scores.tolist()), reverse=True):
        tpr = (scores[truth] >= tau).sum() / n_pos
        if tpr >= target:
            best_tau = tau
            break
    fpr = (scores[~truth] >= best_tau).sum() / n_neg
    return fpr, best_tau


def stable_sort_ranking_metrics(scores, truth, target=0.95):
    """(AP, AUROC, FPR, tau) from a stable descending sort, grouped at ties.

    The arithmetic is the library's, step for step, so any difference in
    the bits comes from how the pixels were ranked.
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    ends = np.append(np.nonzero(np.diff(ordered))[0], ordered.size - 1)
    cum_tp = np.cumsum(truth[order])[ends]
    cum_fp = ends + 1 - cum_tp
    n_pos = int(cum_tp[-1])
    n_neg = truth.size - n_pos
    tp = np.diff(cum_tp, prepend=0)
    fp = np.diff(cum_fp, prepend=0)
    ap = float((tp * (cum_tp / (cum_tp + cum_fp))).sum() / n_pos)
    auroc = float(((n_neg - cum_fp) * tp + 0.5 * tp * fp).sum() / (n_pos * n_neg))
    k = np.nonzero(cum_tp / n_pos >= target)[0][0]
    return ap, auroc, float(cum_fp[k] / n_neg), float(ordered[ends][k])


def per_image_two_fold(fold_a, fold_b, num_classes, target_tpr=0.95):
    """Two-fold open-mIoU over lists of (argmax, scores, gt) images.

    Each fold's tau comes from `fpr_at_tpr` on its pooled non-IGNORE
    pixels; the other fold is then fused and counted one image at a time,
    and the two scores are weighted by image count.
    """
    if not fold_a or not fold_b:
        raise ContractViolation("both folds need at least one image")

    def tau(fold):
        keep = [gt != IGNORE_LABEL for _, _, gt in fold]
        scores = np.concatenate([s[m] for (_, s, _), m in zip(fold, keep)])
        truth = np.concatenate([gt[m] == num_classes for (_, _, gt), m in zip(fold, keep)])
        return fpr_at_tpr(scores, truth, target_tpr)[1]

    def fold_miou(fold, t):
        cm = np.zeros((num_classes + 1, num_classes + 1), dtype=np.int64)
        for argmax, scores, gt in fold:
            cm += open_confusion(fuse_open_prediction(argmax, scores, t, num_classes),
                                 gt, num_classes)
        return open_miou(cm)[1]

    tau_a, tau_b = tau(fold_a), tau(fold_b)
    score_a, score_b = fold_miou(fold_a, tau_b), fold_miou(fold_b, tau_a)
    n_a, n_b = len(fold_a), len(fold_b)
    return (n_a * score_a + n_b * score_b) / (n_a + n_b)


def write_v1_checkpoint(path, params, stage_biases, step=0, bn_momentum=0.1, bn_eps=1e-5):
    """Write `params` as a version-1 ``.dhck`` file, byte by byte.

    Version 1 stored a conv bias per backbone stage (``stage_biases``, after
    that stage's weights) and the batch-norm momentum and eps in the config.
    """
    cfg = params.config
    blob = json.dumps({"input_channels": cfg.input_channels, "widths": list(cfg.widths),
                       "num_classes": cfg.num_classes, "kernel_size": cfg.kernel_size,
                       "seed": cfg.seed, "bn_momentum": bn_momentum, "bn_eps": bn_eps},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")
    arrays = []
    for st, b in zip(params.stages, stage_biases):
        arrays += [st.w.value, b, st.gamma.value, st.beta.value, st.run_mean, st.run_var]
    arrays += [params.cls_w.value, params.cls_b.value, params.ood_gamma.value,
               params.ood_beta.value, params.ood_run_mean, params.ood_run_var,
               params.ood_w.value, params.ood_b.value]
    with open(path, "wb") as f:
        f.write(b"DHCK" + struct.pack("<IQI", 1, step, len(blob)) + blob)
        for a in arrays:
            f.write(np.asarray(a, dtype="<f8").tobytes())


def reference_resize_bilinear(image, out_h, out_w):
    """Resize (C, H, W) to (C, out_h, out_w): four-corner bilinear gathers on
    half-pixel centers."""
    _, h, w = image.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = image[:, y0[:, None], x0] * (1 - wx) + image[:, y0[:, None], x1] * wx
    bot = image[:, y1[:, None], x0] * (1 - wx) + image[:, y1[:, None], x1] * wx
    return top * (1 - wy) + bot * wy


def reference_resize_nearest(raster, out_h, out_w):
    """Resize (H, W) with nearest-neighbor sampling on the bilinear grid."""
    h, w = raster.shape
    ys = np.clip(np.round((np.arange(out_h) + 0.5) * h / out_h - 0.5), 0, h - 1).astype(int)
    xs = np.clip(np.round((np.arange(out_w) + 0.5) * w / out_w - 0.5), 0, w - 1).astype(int)
    return raster[ys[:, None], xs]


def reference_augment(image, labels, cfg, rng, retries):
    """(image, labels) crop of `augment`'s geometry, one step at a time.

    Draws in `augment`'s order (factors, flip, row, column), but resizes the
    whole jittered image and labels, reflect-pads both out to crop size,
    flips both and only then crops.
    """
    h, w = labels.shape
    size = cfg.crop_size
    for _ in range(retries + 1):
        factor = rng.uniform(*cfg.scale_jitter_range)
        new_h, new_w = max(1, round(h * factor)), max(1, round(w * factor))
        if new_h >= size and new_w >= size:
            break
    pads = ((0, max(0, size - new_h)), (0, max(0, size - new_w)))
    image = np.pad(reference_resize_bilinear(image, new_h, new_w), ((0, 0),) + pads,
                   mode="reflect")
    labels = np.pad(reference_resize_nearest(labels, new_h, new_w), pads, mode="reflect")
    if rng.uniform() < cfg.hflip_prob:
        image, labels = image[:, :, ::-1], labels[:, ::-1]
    y0 = int(rng.integers(0, labels.shape[0] - size + 1))
    x0 = int(rng.integers(0, labels.shape[1] - size + 1))
    return image[:, y0:y0 + size, x0:x0 + size], labels[y0:y0 + size, x0:x0 + size]
