"""Detection and segmentation metrics.

Scores follow the convention "higher = more anomalous" throughout. Every
ranking metric (AP, AUROC, FPR and its threshold at a target TPR) is a
method of the `Ranking` built by one sort in `rank`. It keeps only the
counts at the end of each run of tied scores, which no order within the
run changes: the sort need not be stable, ties count the same in any
input order, and every metric is invariant under strictly increasing
transforms of the scores. The two-fold protocol calibrates its threshold
with `fpr_at_tpr`; both confusion matrices come from `open_confusion`.

IGNORE pixels must be excluded by the caller before a ranking metric or
the two-fold protocol runs; `run_eval` drops them once, as it reads a
split into one flat table of evaluated pixels. The label-map helpers skip
them themselves. Fold A is the first n // 2 of a split's n images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegenerateScoreSet
from .labels import IGNORE_LABEL


def _flat(scores, truth) -> tuple[np.ndarray, np.ndarray]:
    """Flat scores, kept in their own float dtype (else float64), and bool truth."""
    scores = np.asarray(scores).ravel()
    if not np.issubdtype(scores.dtype, np.floating):
        scores = scores.astype(float)
    return scores, np.asarray(truth).ravel().astype(bool, copy=False)


@dataclass(frozen=True)
class Ranking:
    """Positives and negatives scoring >= each distinct score `taus`, descending."""

    taus: np.ndarray
    cum_tp: np.ndarray
    cum_fp: np.ndarray
    npos: int
    nneg: int

    def average_precision(self) -> float:
        """Non-interpolated AP: each positive counts its whole tie group's precision."""
        if not self.npos:
            raise DegenerateScoreSet("average precision needs at least one positive")
        tp_in_group = np.diff(self.cum_tp, prepend=0)
        precision = self.cum_tp / (self.cum_tp + self.cum_fp)
        return float((tp_in_group * precision).sum() / self.npos)

    def auroc(self) -> float:
        """P(a random positive outscores a random negative); a tied pair counts 1/2."""
        if not self.npos or not self.nneg:
            raise DegenerateScoreSet("AUROC needs both positives and negatives")
        tp, fp = np.diff(self.cum_tp, prepend=0), np.diff(self.cum_fp, prepend=0)
        wins = ((self.nneg - self.cum_fp) * tp + 0.5 * tp * fp).sum()
        return float(wins / (self.npos * self.nneg))

    def fpr_at_tpr(self, target_tpr: float = 0.95) -> tuple[float, float]:
        """(FPR, tau) at the largest tau whose TPR (score >= tau) reaches `target_tpr`."""
        if not self.npos or not self.nneg:
            raise DegenerateScoreSet("FPR/TPR need both positives and negatives")
        if target_tpr <= 0.0:
            return 0.0, float("inf")
        (reached,) = np.nonzero(self.cum_tp / self.npos >= target_tpr)
        if not reached.size:  # a target above 1, or NaN
            raise DegenerateScoreSet(f"TPR {target_tpr} not attainable")
        return float(self.cum_fp[reached[0]] / self.nneg), float(self.taus[reached[0]])


def rank(scores, truth) -> Ranking:
    """The `Ranking` of `scores` against `truth`, from one unstable sort."""
    scores, truth = _flat(scores, truth)
    if scores.shape != truth.shape or scores.size == 0:
        raise ContractViolation("scores and truth must be equal-length and nonempty")
    order = np.argsort(-scores)
    s = scores[order]
    ends = np.append(np.nonzero(s[1:] != s[:-1])[0], s.size - 1)
    cum_tp = np.cumsum(truth[order])[ends]
    npos = int(cum_tp[-1])
    return Ranking(s[ends], cum_tp, ends + 1 - cum_tp, npos, truth.size - npos)


def average_precision(scores, truth) -> float:
    """`rank(scores, truth).average_precision()`; see `Ranking.average_precision`."""
    return rank(scores, truth).average_precision()


def auroc(scores, truth) -> float:
    """`rank(scores, truth).auroc()`; see `Ranking.auroc`."""
    return rank(scores, truth).auroc()


def fpr_at_tpr(scores, truth, target_tpr: float = 0.95) -> tuple[float, float]:
    """`rank(scores, truth).fpr_at_tpr(target_tpr)`; see `Ranking.fpr_at_tpr`."""
    return rank(scores, truth).fpr_at_tpr(target_tpr)


# ---------------------------------------------------------------------------
# Open-set label maps


def fuse_open_prediction(argmax: np.ndarray, scores: np.ndarray, tau: float,
                         num_classes: int) -> np.ndarray:
    """Per-pixel label: outlier where score >= tau, else the closed-set argmax.

    `argmax` is the closed-set prediction of the pixels of `scores`, in any
    shape they share. Returns an int map of that shape with outliers
    encoded as `num_classes`. Scores meet `tau` in float64, never rounded.
    """
    argmax = np.asarray(argmax)
    scores = np.asarray(scores)
    if argmax.shape != scores.shape:
        raise ContractViolation("argmax must match scores in shape")
    return np.where(scores >= np.float64(tau), num_classes, argmax)


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


def two_fold_open_eval(argmax, scores, gt, image_sizes, num_classes: int,
                       target_tpr: float = 0.95) -> float:
    """Cross-calibrated open-mIoU, weighted by per-fold image count.

    `argmax`, `scores` and `gt` hold a split's non-IGNORE pixels, image
    after image, and `image_sizes` each image's count of them. Fold A is
    the first n // 2 images, fold B the rest; the tau of `fpr_at_tpr` on
    each fold is applied to the other. A fold without both anomalous and
    inlier pixels is degenerate; an image without pixels still counts.
    """
    argmax, scores, gt = (np.asarray(a) for a in (argmax, scores, gt))
    if not argmax.shape == scores.shape == gt.shape == (sum(image_sizes),):
        raise ContractViolation("argmax, scores and gt must hold sum(image_sizes) pixels")
    n_a, n_b = len(image_sizes) // 2, len(image_sizes) - len(image_sizes) // 2
    if not n_a:
        raise ContractViolation("both folds need at least one image")
    cut = sum(image_sizes[:n_a])
    folds = (slice(None, cut), slice(cut, None))
    tau_a, tau_b = (fpr_at_tpr(scores[f], gt[f] == num_classes, target_tpr)[1] for f in folds)

    def fold_miou(f, tau):
        pred = fuse_open_prediction(argmax[f], scores[f], tau, num_classes)
        return open_miou(open_confusion(pred, gt[f], num_classes))[1]

    score_a, score_b = fold_miou(folds[0], tau_b), fold_miou(folds[1], tau_a)
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


def check_bin_edges(bin_edges) -> list[float]:
    """The edges as a list; ContractViolation unless >= 2 strictly increasing."""
    edges = list(bin_edges)
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise ContractViolation("bin edges must be strictly increasing, >= 2 of them")
    return edges


def range_binned(scores, truth, distance, bin_edges,
                 target_tpr: float = 0.95) -> list[BinResult]:
    """AP and FPR@TPR per distance bin [edge_i, edge_{i+1}).

    Bins without both positives and negatives come back with status
    "degenerate" and NaN metrics rather than zeros; so does every bin of an
    empty pixel set.
    """
    scores, truth = _flat(scores, truth)
    distance = np.asarray(distance, dtype=float).ravel()
    if truth.shape != scores.shape:
        raise ContractViolation("scores and truth must be equal-length")
    if distance.shape != scores.shape:
        raise ContractViolation("distance must be present for every pixel")
    edges = check_bin_edges(bin_edges)
    results = []
    for lo, hi in zip(edges, edges[1:]):
        keep = (distance >= lo) & (distance < hi)
        t = truth[keep]
        ap, fpr95, status = float("nan"), float("nan"), "degenerate"
        if t.any() and not t.all():
            r = rank(scores[keep], t)
            ap, fpr95, status = r.average_precision(), r.fpr_at_tpr(target_tpr)[0], "ok"
        results.append(BinResult(lo, hi, int(keep.sum()), status, ap, fpr95))
    return results
