"""Detection and segmentation metrics.

Scores follow the convention "higher = more anomalous" throughout. Every
ranking metric (AP, AUROC, and FPR with its threshold at a target TPR) is
computed from `_threshold_groups`, so tied scores are handled identically
no matter the input order, and every metric is invariant under strictly
increasing transforms of the scores. The two-fold protocol calibrates its
threshold with `fpr_at_tpr`, and both confusion matrices come from
`open_confusion`.

IGNORE pixels must be excluded by the caller before a ranking metric runs;
the label-map helpers do that exclusion themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegenerateScoreSet
from .labels import IGNORE_LABEL


def _validated(scores, truth) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float).ravel()
    truth = np.asarray(truth).ravel().astype(bool)
    if scores.shape != truth.shape or scores.size == 0:
        raise ContractViolation("scores and truth must be equal-length and nonempty")
    return scores, truth


def _threshold_groups(scores, truth):
    """Cumulative (tp, fp) after each distinct score, descending.

    Returns (unique descending scores, tp at each group end, fp at each
    group end, total positives, total negatives).
    """
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truth[order]
    # group boundaries: last index of each run of equal scores
    last = np.nonzero(np.diff(s))[0]
    ends = np.append(last, s.size - 1)
    cum_tp = np.cumsum(t)[ends]
    npos = int(cum_tp[-1])
    return s[ends], cum_tp, ends + 1 - cum_tp, npos, truth.size - npos


def average_precision(scores, truth) -> float:
    """Non-interpolated AP with tie grouping.

    Every positive contributes the precision of its own threshold group (the
    precision once the whole group is admitted), and AP is the mean over
    positives.
    """
    scores, truth = _validated(scores, truth)
    if not truth.any():
        raise DegenerateScoreSet("average precision needs at least one positive")
    _, cum_tp, cum_fp, npos, _ = _threshold_groups(scores, truth)
    tp_in_group = np.diff(cum_tp, prepend=0)
    precision = cum_tp / (cum_tp + cum_fp)
    return float((tp_in_group * precision).sum() / npos)


def fpr_at_tpr(scores, truth, target_tpr: float = 0.95) -> tuple[float, float]:
    """(FPR, tau) at the largest threshold whose TPR reaches `target_tpr`.

    The threshold is inclusive (predicted anomalous iff score >= tau). A
    target of zero is satisfied without admitting anything, so tau sits
    above every score.
    """
    scores, truth = _validated(scores, truth)
    if not truth.any() or truth.all():
        raise DegenerateScoreSet("FPR/TPR need both positives and negatives")
    if target_tpr <= 0.0:
        return 0.0, float("inf")
    taus, cum_tp, cum_fp, npos, nneg = _threshold_groups(scores, truth)
    reached = np.nonzero(cum_tp / npos >= target_tpr)[0]
    if reached.size == 0:  # unreachable for target <= 1 but kept for safety
        raise DegenerateScoreSet(f"TPR {target_tpr} not attainable")
    k = reached[0]
    return float(cum_fp[k] / nneg), float(taus[k])


def auroc(scores, truth) -> float:
    """Probability that a random positive outscores a random negative.

    Each group's positives beat every negative below the group; pairs tied
    within a group count one half. The numerator is a sum of half-integers,
    so it is exact.
    """
    scores, truth = _validated(scores, truth)
    if not truth.any() or truth.all():
        raise DegenerateScoreSet("AUROC needs both positives and negatives")
    _, cum_tp, cum_fp, npos, nneg = _threshold_groups(scores, truth)
    tp = np.diff(cum_tp, prepend=0)
    fp = np.diff(cum_fp, prepend=0)
    wins = ((nneg - cum_fp) * tp + 0.5 * tp * fp).sum()
    return float(wins / (npos * nneg))


# ---------------------------------------------------------------------------
# Open-set label maps


def fuse_open_prediction(argmax: np.ndarray, scores: np.ndarray, tau: float,
                         num_classes: int) -> np.ndarray:
    """Per-pixel label: outlier where score >= tau, else the closed-set argmax.

    `argmax` is the (H, W) closed-set prediction. Returns an (H, W) int map
    with outliers encoded as `num_classes`.
    """
    argmax = np.asarray(argmax)
    scores = np.asarray(scores)
    if argmax.shape != scores.shape or argmax.ndim != 2:
        raise ContractViolation("argmax must be (H, W) matching scores")
    return np.where(scores >= tau, num_classes, argmax)


def open_confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """(K+1) x (K+1) integer counts, rows = ground truth, cols = prediction.

    IGNORE pixels (in either map) are skipped; any other label outside
    0..K is rejected.
    """
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    if pred.shape != gt.shape:
        raise ContractViolation("prediction/ground-truth shape mismatch")
    n = num_classes + 1
    keep = (gt != IGNORE_LABEL) & (pred != IGNORE_LABEL)
    pred, gt = pred[keep], gt[keep]
    if pred.size and (pred.min() < 0 or pred.max() >= n or gt.min() < 0 or gt.max() >= n):
        raise ContractViolation(f"labels must lie in 0..{num_classes} or IGNORE")
    counts = np.bincount(gt * n + pred, minlength=n * n)
    return counts.reshape(n, n)


def open_miou(cm: np.ndarray) -> tuple[np.ndarray, float]:
    """Open IoU per inlier class and their mean.

    False positives and false negatives include confusion with the outlier
    row/column; the outlier class itself is excluded from the mean, as are
    classes with no pixels at all (tp+fp+fn == 0).
    """
    cm = np.asarray(cm)
    n = cm.shape[0]
    if cm.shape != (n, n) or n < 2:
        raise ContractViolation("confusion matrix must be square, (K+1) >= 2")
    k = n - 1
    tp = np.diag(cm)[:k]
    union = cm.sum(axis=0)[:k] + cm.sum(axis=1)[:k] - tp  # tp + fp + fn
    per_class = np.where(union > 0, tp / np.maximum(union, 1), np.nan)
    if np.isnan(per_class).all():
        raise DegenerateScoreSet("no inlier class has any pixels")
    return per_class, float(np.nanmean(per_class))


def closed_confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """K x K counts over pixels whose ground truth is an inlier class.

    `pred` must be a closed-set map (values 0..K-1); this is the inlier
    block of `open_confusion`, so outlier- and ignore-labeled ground truth
    pixels are skipped.
    """
    pred = np.asarray(pred)
    if pred.size and (pred.min() < 0 or pred.max() >= num_classes):
        raise ContractViolation("closed-set prediction labels out of range")
    return open_confusion(pred, gt, num_classes)[:num_classes, :num_classes]


def closed_miou(cm: np.ndarray) -> float:
    return open_miou(np.pad(np.asarray(cm), ((0, 1), (0, 1))))[1]


# ---------------------------------------------------------------------------
# Two-fold open-set evaluation


@dataclass(frozen=True)
class EvalImage:
    """Everything needed to score one image in the open-set protocol."""

    argmax: np.ndarray  # (H, W) closed-set prediction
    scores: np.ndarray  # (H, W), higher = more anomalous
    gt: np.ndarray      # (H, W) open labels (K = outlier)


def pool_pixels(images: list[EvalImage], num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(scores, is-outlier) of every non-IGNORE pixel, image after image."""
    keep = [img.gt != IGNORE_LABEL for img in images]
    return (np.concatenate([img.scores[m] for img, m in zip(images, keep)]),
            np.concatenate([img.gt[m] == num_classes for img, m in zip(images, keep)]))


def _fold_open_miou(fold: list[EvalImage], num_classes: int, tau: float) -> float:
    cm = np.zeros((num_classes + 1, num_classes + 1), dtype=np.int64)
    for img in fold:
        pred = fuse_open_prediction(img.argmax, img.scores, tau, num_classes)
        cm += open_confusion(pred, img.gt, num_classes)
    return open_miou(cm)[1]


def two_fold_open_eval(fold_a: list[EvalImage], fold_b: list[EvalImage],
                       num_classes: int, target_tpr: float = 0.95) -> float:
    """Cross-calibrated open-mIoU, weighted by per-fold image count.

    The anomaly threshold is the tau of `fpr_at_tpr` on one fold, applied
    to the other, in both directions; each direction's open-mIoU is then
    averaged with weights proportional to the number of evaluated images.
    A fold without both anomalous and inlier pixels is degenerate.
    """
    if not fold_a or not fold_b:
        raise ContractViolation("both folds need at least one image")
    _, tau_a = fpr_at_tpr(*pool_pixels(fold_a, num_classes), target_tpr)
    _, tau_b = fpr_at_tpr(*pool_pixels(fold_b, num_classes), target_tpr)
    score_a = _fold_open_miou(fold_a, num_classes, tau_b)
    score_b = _fold_open_miou(fold_b, num_classes, tau_a)
    n_a, n_b = len(fold_a), len(fold_b)
    return (n_a * score_a + n_b * score_b) / (n_a + n_b)


# ---------------------------------------------------------------------------
# Range-binned evaluation


@dataclass(frozen=True)
class BinResult:
    lo: float
    hi: float
    pixels: int
    status: str          # "ok" or "degenerate"
    ap: float            # nan when degenerate
    fpr95: float         # nan when degenerate


def range_binned(scores, truth, distance, bin_edges,
                 target_tpr: float = 0.95) -> list[BinResult]:
    """AP and FPR@TPR per distance bin [edge_i, edge_{i+1}).

    Bins without both positives and negatives come back with status
    "degenerate" and NaN metrics rather than zeros.
    """
    scores, truth = _validated(scores, truth)
    distance = np.asarray(distance, dtype=float).ravel()
    if distance.shape != scores.shape:
        raise ContractViolation("distance must be present for every pixel")
    edges = list(bin_edges)
    if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
        raise ContractViolation("bin edges must be strictly increasing, >= 2 of them")
    results = []
    for lo, hi in zip(edges, edges[1:]):
        keep = (distance >= lo) & (distance < hi)
        s, t = scores[keep], truth[keep]
        ok = t.any() and not t.all()
        results.append(BinResult(
            lo=lo, hi=hi, pixels=int(keep.sum()), status="ok" if ok else "degenerate",
            ap=average_precision(s, t) if ok else float("nan"),
            fpr95=fpr_at_tpr(s, t, target_tpr)[0] if ok else float("nan")))
    return results
