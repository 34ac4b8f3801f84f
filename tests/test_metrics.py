import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    pairwise_auroc,
    per_image_two_fold,
    stable_sort_ranking_metrics,
    sweep_average_precision,
    sweep_fpr_at_tpr,
)
from hybridseg.errors import ContractViolation, DegenerateScoreSet
from hybridseg.labels import IGNORE_LABEL
from hybridseg.metrics import (
    BinResult,
    auroc,
    average_precision,
    closed_confusion,
    closed_miou,
    fpr_at_tpr,
    fuse_open_prediction,
    open_confusion,
    open_miou,
    range_binned,
    rank,
    two_fold_open_eval,
)

# random score sets drawn from few distinct values, so ties are common
score_sets = st.tuples(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
).map(lambda pn: (np.array(pn[0] + pn[1], dtype=float) / 3.0,
                  np.arange(len(pn[0]) + len(pn[1])) < len(pn[0])))


class TestAveragePrecision:
    def test_three_pixel_fixture(self):
        ap = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_perfect_ranking(self):
        assert average_precision([5, 4, 1, 0], [1, 1, 0, 0]) == 1.0

    def test_tied_group_shares_its_precision(self):
        # both score-1.0 pixels sit in one group: the positive there gets p=1/2
        ap = average_precision([1.0, 1.0, 0.0], [1, 0, 1])
        assert ap == pytest.approx((0.5 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_order_independence(self):
        scores = np.array([0.3, 0.7, 0.7, 0.1, 0.9])
        truth = np.array([0, 1, 0, 1, 1])
        perm = np.array([4, 2, 0, 1, 3])
        assert average_precision(scores, truth) == average_precision(scores[perm], truth[perm])

    def test_no_positives_rejected(self):
        with pytest.raises(DegenerateScoreSet):
            average_precision([1.0, 2.0], [0, 0])

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            average_precision([], [])

    @settings(max_examples=60, deadline=None)
    @given(score_sets)
    def test_matches_sweep_oracle(self, data):
        scores, truth = data
        if not truth.any():
            return
        assert average_precision(scores, truth) == pytest.approx(
            sweep_average_precision(scores, truth), abs=1e-12)


class TestFprAtTpr:
    def test_interleaved_fixture(self):
        scores = [0.9, 0.8, 0.7, 0.1]
        truth = [1, 0, 1, 0]
        fpr, tau = fpr_at_tpr(scores, truth, target_tpr=0.95)
        assert (fpr, tau) == (0.5, 0.7)

    def test_perfect_separation(self):
        fpr, tau = fpr_at_tpr([3, 2, 1, 0], [1, 1, 0, 0])
        assert fpr == 0.0
        assert tau == 2.0

    def test_zero_target_sits_above_every_score(self):
        fpr, tau = fpr_at_tpr([1.0, 2.0], [1, 0], target_tpr=0.0)
        assert fpr == 0.0
        assert tau == math.inf

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateScoreSet):
            fpr_at_tpr([1.0, 2.0], [1, 1])
        with pytest.raises(DegenerateScoreSet):
            fpr_at_tpr([1.0, 2.0], [0, 0])

    @settings(max_examples=60, deadline=None)
    @given(score_sets, st.sampled_from([0.25, 0.5, 0.95, 1.0]))
    def test_matches_sweep_oracle(self, data, target):
        scores, truth = data
        if not truth.any() or truth.all():
            return
        got = fpr_at_tpr(scores, truth, target_tpr=target)
        want = sweep_fpr_at_tpr(scores, truth, target=target)
        assert got == pytest.approx(want, abs=1e-12)


class TestAuroc:
    def test_three_pixel_fixture(self):
        assert auroc([3, 2, 1], [1, 0, 1]) == 0.5

    def test_perfect_and_inverted(self):
        assert auroc([2, 3, 0, 1], [1, 1, 0, 0]) == 1.0
        assert auroc([2, 3, 0, 1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_chance(self):
        assert auroc([1.0, 1.0, 1.0], [1, 0, 1]) == 0.5

    def test_complement_symmetry(self):
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 5, size=30).astype(float)
        truth = rng.integers(0, 2, size=30).astype(bool)
        truth[0], truth[1] = True, False
        assert auroc(scores, truth) == pytest.approx(1.0 - auroc(-scores, truth), abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateScoreSet):
            auroc([1.0], [1])

    @settings(max_examples=60, deadline=None)
    @given(score_sets)
    def test_matches_pairwise_oracle(self, data):
        scores, truth = data
        if not truth.any() or truth.all():
            return
        # both sum half-integers exactly and divide once, so they agree bit for bit
        assert auroc(scores, truth) == pairwise_auroc(scores, truth)


class TestRankingAtScale:
    """numpy sorts arrays this large by another algorithm than the small ones
    above, and the default kind is not stable: ties must still group exactly."""

    N = 200_000

    def data(self):
        rng = np.random.default_rng(11)
        levels = rng.integers(0, 50, size=self.N)
        truth = rng.random(self.N) < (levels + 1) / 60.0  # more anomalous, more likely
        return levels / 7.0, truth

    @staticmethod
    def metrics(ranking):
        return (ranking.average_precision(), ranking.auroc(), *ranking.fpr_at_tpr(0.95))

    def test_the_default_sort_reorders_ties(self):
        scores, _ = self.data()
        assert np.unique(scores).size == 50
        assert not np.array_equal(np.argsort(-scores), np.argsort(-scores, kind="stable"))

    def test_matches_a_stable_sort_bit_for_bit(self):
        scores, truth = self.data()
        got = self.metrics(rank(scores, truth))
        assert got == stable_sort_ranking_metrics(scores, truth, 0.95)
        assert (average_precision(scores, truth), auroc(scores, truth),
                *fpr_at_tpr(scores, truth)) == got

    def test_a_permutation_changes_nothing(self):
        scores, truth = self.data()
        perm = np.random.default_rng(12).permutation(self.N)
        assert self.metrics(rank(scores[perm], truth[perm])) == self.metrics(rank(scores, truth))


class TestFloat32Scores:
    """Float32 scores are ranked as they are; widening them to float64 first
    would give the same tie groups, counts and taus."""

    def data(self, n=200_000):
        rng = np.random.default_rng(13)
        levels = rng.integers(0, 60, size=n)
        truth = rng.random(n) < (levels + 1) / 70.0
        return (levels / 7.0).astype(np.float32), truth

    def test_rank(self):
        scores, truth = self.data()
        got, want = rank(scores, truth), rank(scores.astype(float), truth)
        assert got.taus.dtype == np.float32 and got.taus.size == 60
        np.testing.assert_array_equal(got.taus, want.taus)
        np.testing.assert_array_equal(got.cum_tp, want.cum_tp)
        np.testing.assert_array_equal(got.cum_fp, want.cum_fp)
        assert (got.npos, got.nneg) == (want.npos, want.nneg)
        for target in (0.5, 0.95):
            fpr, tau = got.fpr_at_tpr(target)
            assert type(tau) is float and (fpr, tau) == want.fpr_at_tpr(target)
        assert got.average_precision() == want.average_precision()
        assert got.auroc() == want.auroc()

    def test_two_fold_open_eval(self):
        scores, truth = self.data(6000)
        argmax = np.random.default_rng(14).integers(0, 2, size=scores.size)
        gt = np.where(truth, 2, argmax ^ (scores > 4))
        sizes = [1000] * 6
        assert (two_fold_open_eval(argmax, scores, gt, sizes, 2)
                == two_fold_open_eval(argmax, scores.astype(float), gt, sizes, 2))

    def test_range_binned(self):
        scores, truth = self.data(20_000)
        distance = np.random.default_rng(15).uniform(0.0, 60.0, size=scores.size)
        got = range_binned(scores, truth, distance, [0.0, 5.0, 20.0, 60.0])
        assert [r.status for r in got] == ["ok"] * 3
        assert got == range_binned(scores.astype(float), truth, distance, [0.0, 5.0, 20.0, 60.0])


MONOTONE_TRANSFORMS = (
    lambda s: 2.0 * s + 1.0,
    lambda s: s**3,
    lambda s: np.arctan(s),
    lambda s: np.exp(0.5 * s),
)


class TestMonotoneInvariance:
    @pytest.mark.parametrize("transform", MONOTONE_TRANSFORMS)
    def test_rank_metrics_unchanged(self, transform):
        rng = np.random.default_rng(7)
        scores = rng.integers(-4, 5, size=80).astype(float)
        truth = rng.integers(0, 2, size=80).astype(bool)
        truth[0], truth[1] = True, False
        warped = transform(scores)
        assert average_precision(warped, truth) == pytest.approx(
            average_precision(scores, truth), abs=1e-12)
        assert auroc(warped, truth) == pytest.approx(auroc(scores, truth), abs=1e-12)
        assert fpr_at_tpr(warped, truth)[0] == fpr_at_tpr(scores, truth)[0]


class TestFuseOpenPrediction:
    ARGMAX = np.array([[0, 1]])  # (1, 2) closed-set prediction, K=2
    SCORES = np.array([[0.1, 0.9]])

    def test_infinite_tau_is_pure_argmax(self):
        np.testing.assert_array_equal(
            fuse_open_prediction(self.ARGMAX, self.SCORES, math.inf, 2), [[0, 1]])

    def test_negative_infinite_tau_is_all_outlier(self):
        np.testing.assert_array_equal(
            fuse_open_prediction(self.ARGMAX, self.SCORES, -math.inf, 2), [[2, 2]])

    def test_mixed_fixture(self):
        np.testing.assert_array_equal(
            fuse_open_prediction(self.ARGMAX, self.SCORES, 0.5, 2), [[0, 2]])

    def test_threshold_is_inclusive(self):
        np.testing.assert_array_equal(
            fuse_open_prediction(self.ARGMAX, self.SCORES, 0.9, 2), [[0, 2]])

    def test_any_shared_shape(self):
        np.testing.assert_array_equal(
            fuse_open_prediction(self.ARGMAX.ravel(), self.SCORES.ravel(), 0.5, 2), [0, 2])

    def test_float32_scores_meet_tau_in_float64(self):
        # 1.00000001 rounds to 1.0 in float32, but 1.0 is still below it
        scores = np.float32([[1.0, 1.0000001]])
        np.testing.assert_array_equal(
            fuse_open_prediction(self.ARGMAX, scores, 1.00000001, 2), [[0, 2]])
        np.testing.assert_array_equal(
            fuse_open_prediction(self.ARGMAX, scores, 1.0, 2), [[2, 2]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            fuse_open_prediction(self.ARGMAX, np.zeros((2, 2)), 0.0, 2)
        with pytest.raises(ContractViolation):  # a (K, H, W) posterior is not a prediction
            fuse_open_prediction(np.zeros((2, 1, 2)), self.SCORES, 0.0, 2)


class TestOpenConfusion:
    def test_perfect_prediction_is_diagonal(self):
        gt = np.array([0, 0, 1, 2, 2, 2])
        cm = open_confusion(gt, gt, num_classes=2)
        np.testing.assert_array_equal(cm, np.diag([2, 1, 3]))

    def test_all_ignore_is_zero(self):
        gt = np.full(5, IGNORE_LABEL)
        cm = open_confusion(np.zeros(5, dtype=int), gt, num_classes=2)
        assert cm.sum() == 0

    def test_three_pixel_fixture(self):
        cm = open_confusion(pred=np.array([0, 1, 1]), gt=np.array([0, 1, 2]),
                            num_classes=2)
        expected = np.zeros((3, 3), dtype=int)
        expected[0, 0] = expected[1, 1] = expected[2, 1] = 1
        np.testing.assert_array_equal(cm, expected)

    def test_total_equals_evaluated_pixels(self):
        rng = np.random.default_rng(3)
        gt = rng.integers(0, 4, size=100)
        gt[::7] = IGNORE_LABEL
        pred = rng.integers(0, 4, size=100)
        cm = open_confusion(pred, gt, num_classes=3)
        assert cm.sum() == np.count_nonzero(gt != IGNORE_LABEL)

    def test_additive_across_images(self):
        rng = np.random.default_rng(4)
        gt_a, gt_b = rng.integers(0, 3, (2, 40))
        pr_a, pr_b = rng.integers(0, 3, (2, 40))
        summed = open_confusion(pr_a, gt_a, 2) + open_confusion(pr_b, gt_b, 2)
        pooled = open_confusion(np.concatenate([pr_a, pr_b]),
                                np.concatenate([gt_a, gt_b]), 2)
        np.testing.assert_array_equal(summed, pooled)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ContractViolation):
            open_confusion(np.array([3]), np.array([0]), num_classes=2)


class TestOpenMiou:
    def test_perfect(self):
        per_class, mean = open_miou(np.diag([4, 2, 9]))
        np.testing.assert_array_equal(per_class, [1.0, 1.0])
        assert mean == 1.0

    def test_three_pixel_fixture(self):
        cm = open_confusion(pred=np.array([0, 1, 1]), gt=np.array([0, 1, 2]),
                            num_classes=2)
        per_class, mean = open_miou(cm)
        np.testing.assert_allclose(per_class, [1.0, 0.5])
        assert mean == 0.75

    def test_absent_class_excluded_from_mean(self):
        cm = np.zeros((4, 4), dtype=int)  # classes 0..2 plus outlier
        cm[0, 0] = 3
        cm[1, 0] = 1  # class1 exists in gt but never predicted right
        per_class, mean = open_miou(cm)
        assert per_class[0] == 0.75
        assert per_class[1] == 0.0
        assert np.isnan(per_class[2])
        assert mean == pytest.approx(0.375)

    def test_matches_per_class_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cm = rng.integers(0, 4, size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.5)
            want = []
            for c in range(4):
                union = cm[c, :].sum() + cm[:, c].sum() - cm[c, c]
                want.append(cm[c, c] / float(union) if union else math.nan)
            if all(math.isnan(w) for w in want):
                continue
            per_class, mean = open_miou(cm)
            np.testing.assert_array_equal(per_class, want)
            assert mean == np.nanmean(want)

    def test_all_empty_rejected(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[2, 2] = 5  # only outlier pixels
        with pytest.raises(DegenerateScoreSet):
            open_miou(cm)

    def test_outlier_confusion_counts_against_inlier_classes(self):
        # one class-0 pixel predicted outlier and one outlier predicted class 0
        cm = np.zeros((2, 2), dtype=int)
        cm[0, 0] = 2
        cm[0, 1] = 1
        cm[1, 0] = 1
        per_class, mean = open_miou(cm)
        assert per_class[0] == 0.5
        assert mean == 0.5


class TestClosedMiou:
    def test_perfect(self):
        gt = np.array([0, 1, 1, 2])
        assert closed_miou(closed_confusion(gt, gt, 3)) == 1.0

    def test_single_class(self):
        gt = np.zeros(10, dtype=int)
        assert closed_miou(closed_confusion(gt, gt, 3)) == 1.0

    def test_one_flipped_pixel(self):
        gt = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        pred = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        # class0: 3/(3+0+1); class1: 4/(4+1+0)
        assert closed_miou(closed_confusion(pred, gt, 2)) == pytest.approx(
            (0.75 + 0.8) / 2.0, abs=1e-12)

    def test_outlier_and_ignore_gt_skipped(self):
        gt = np.array([0, 1, 2, IGNORE_LABEL])  # 2 = outlier for K=2
        pred = np.array([0, 1, 0, 1])
        cm = closed_confusion(pred, gt, num_classes=2)
        assert cm.sum() == 2
        assert closed_miou(cm) == 1.0

    def test_open_equals_closed_without_outliers(self):
        rng = np.random.default_rng(5)
        gt = rng.integers(0, 3, size=500)
        pred = rng.integers(0, 3, size=500)
        open_mean = open_miou(open_confusion(pred, gt, 3))[1]
        closed_mean = closed_miou(closed_confusion(pred, gt, 3))
        assert open_mean == closed_mean


class TestOpenVsClosedBound:
    def test_fusion_that_adds_no_false_positives_never_raises_iou(self):
        # detector fires on outlier pixels and on correctly classified inlier
        # pixels only, so per class: TP can drop, FP/FN can grow
        rng = np.random.default_rng(11)
        for _ in range(20):
            gt = rng.integers(0, 4, size=300)       # 3 = outlier
            pred = rng.integers(0, 3, size=300)     # closed-set argmax
            may_fire = (gt == 3) | (pred == gt)
            fired = may_fire & (rng.uniform(size=300) < 0.5)
            open_pred = np.where(fired, 3, pred)
            open_pc, _ = open_miou(open_confusion(open_pred, gt, 3))
            closed_cm = closed_confusion(pred, gt, 3)
            closed_pc = [closed_cm[c, c] / max(1, closed_cm[c, :].sum()
                                               + closed_cm[:, c].sum() - closed_cm[c, c])
                         for c in range(3)]
            for c in range(3):
                if not np.isnan(open_pc[c]):
                    assert open_pc[c] <= closed_pc[c] + 1e-12

    def test_oracle_detector_identity(self):
        rng = np.random.default_rng(12)
        gt = rng.integers(0, 4, size=400)
        pred = rng.integers(0, 3, size=400)
        open_pred = np.where(gt == 3, 3, pred)
        assert open_miou(open_confusion(open_pred, gt, 3))[1] == closed_miou(
            closed_confusion(pred, gt, 3))


def _eval_image(rng, k=2, h=4, w=5, anomaly_frac=0.3):
    """(argmax, scores, gt) maps of one random image."""
    gt = rng.integers(0, k, size=(h, w))
    gt[rng.uniform(size=(h, w)) < anomaly_frac] = k
    argmax = rng.integers(0, k, size=(h, w)).astype(np.uint8)
    scores = rng.normal(size=(h, w)) + 2.0 * (gt == k)
    return argmax, scores, gt


def _flat(images):
    """The evaluated pixels of `images` as `two_fold_open_eval`'s table."""
    keep = [gt != IGNORE_LABEL for _, _, gt in images]
    argmax, scores, gt = (np.concatenate([img[i][m] for img, m in zip(images, keep)])
                          for i in range(3))
    return argmax, scores, gt, [int(m.sum()) for m in keep]


def _tau(images, k=2):
    _, scores, gt, _ = _flat(images)
    return fpr_at_tpr(scores, gt == k)[1]


def _fold_miou(images, tau, k=2):
    argmax, scores, gt, _ = _flat(images)
    return open_miou(open_confusion(fuse_open_prediction(argmax, scores, tau, k), gt, k))[1]


class TestCalibrateThreshold:
    """The two-fold protocol's threshold: the tau that `fpr_at_tpr` returns."""

    def test_reaches_target_when_attainable(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=200)
        truth = rng.uniform(size=200) < 0.3
        truth[0] = True
        _, tau = fpr_at_tpr(scores, truth, target_tpr=0.95)
        assert (scores[truth] >= tau).mean() >= 0.95
        assert tau in scores[truth]  # inclusive threshold sits on a positive

    def test_zero_target(self):
        _, tau = fpr_at_tpr([1.0, 0.0], [1, 0], target_tpr=0.0)
        assert tau == math.inf

    def test_needs_positives(self):
        with pytest.raises(DegenerateScoreSet):
            fpr_at_tpr([1.0, 0.0], [0, 0])


class TestTwoFoldOpenEval:
    def test_identical_folds_match_single_fold(self):
        rng = np.random.default_rng(2)
        fold = [_eval_image(rng) for _ in range(3)]
        single = _fold_miou(fold, _tau(fold))
        assert two_fold_open_eval(*_flat(fold + fold), 2) == pytest.approx(single, abs=1e-12)

    def test_image_count_weighting(self):
        rng = np.random.default_rng(3)
        fold_a = [_eval_image(rng)]
        fold_b = [_eval_image(rng) for _ in range(2)]
        score_a = _fold_miou(fold_a, _tau(fold_b))
        score_b = _fold_miou(fold_b, _tau(fold_a))
        expected = (1 * score_a + 2 * score_b) / 3
        assert two_fold_open_eval(*_flat(fold_a + fold_b), 2) == pytest.approx(
            expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_per_image_protocol(self, seed):
        """Bit for bit, with IGNORE pixels, tied scores, uneven image sizes and
        an image without evaluated pixels, which still counts toward its fold."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        images = []
        for _ in range(n):
            argmax, scores, gt = _eval_image(rng, k=3, h=int(rng.integers(1, 6)), w=6)
            gt[rng.uniform(size=gt.shape) < 0.2] = IGNORE_LABEL
            images.append((argmax, np.round(scores, 1).astype(np.float32), gt))
        images[int(rng.integers(n))][2][:] = IGNORE_LABEL
        half = n // 2
        for fold in images[:half], images[half:]:  # each fold has both kinds of pixel
            gt = next(gt for _, _, gt in fold if np.any(gt != IGNORE_LABEL))
            gt[0, :2] = 3, 0
        got = two_fold_open_eval(*_flat(images), 3)
        assert got == per_image_two_fold(images[:half], images[half:], 3)

    def test_table_must_match_image_sizes(self):
        argmax, scores, gt, sizes = _flat([_eval_image(np.random.default_rng(4))] * 2)
        with pytest.raises(ContractViolation):
            two_fold_open_eval(argmax, scores, gt, [sizes[0], sizes[1] - 1], 2)

    def test_empty_fold_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ContractViolation, match="both folds need at least one image"):
            two_fold_open_eval(*_flat([_eval_image(rng)]), 2)

    def test_fold_without_anomalies_rejected(self):
        rng = np.random.default_rng(6)
        clean = _eval_image(rng, anomaly_frac=0.0)
        with pytest.raises(DegenerateScoreSet):
            two_fold_open_eval(*_flat([clean, _eval_image(rng)]), 2)

    def test_fold_without_inliers_rejected(self):
        rng = np.random.default_rng(6)
        only_anomalies = _eval_image(rng, anomaly_frac=1.0)
        assert np.all(only_anomalies[2] == 2)
        with pytest.raises(DegenerateScoreSet):
            two_fold_open_eval(*_flat([_eval_image(rng), only_anomalies]), 2)


class TestRangeBinned:
    def test_single_bin_equals_unbinned(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=60)
        truth = rng.uniform(size=60) < 0.4
        truth[:2] = [True, False]
        distance = rng.uniform(5, 50, size=60)
        (result,) = range_binned(scores, truth, distance, [0.0, 100.0])
        assert result.status == "ok"
        assert result.pixels == 60
        assert result.ap == average_precision(scores, truth)
        assert result.fpr95 == fpr_at_tpr(scores, truth)[0]

    def test_bins_partition_half_open(self):
        scores = np.array([5.0, 4.0, 1.0, 0.0])
        truth = np.array([1, 0, 1, 0])
        distance = np.array([5.0, 9.9, 10.0, 19.0])
        near, far = range_binned(scores, truth, distance, [0.0, 10.0, 20.0])
        assert (near.pixels, far.pixels) == (2, 2)
        assert near.lo == 0.0 and near.hi == 10.0
        assert near.ap == 1.0 and far.ap == 1.0
        assert near.fpr95 == 0.0 and far.fpr95 == 0.0

    def test_degenerate_bin_reports_status_not_zero(self):
        scores = np.array([1.0, 0.5, 0.2])
        truth = np.array([1, 0, 0])
        distance = np.array([1.0, 1.0, 15.0])  # far bin has negatives only
        near, far = range_binned(scores, truth, distance, [0.0, 10.0, 20.0])
        assert near.status == "ok"
        assert far.status == "degenerate"
        assert math.isnan(far.ap) and math.isnan(far.fpr95)
        empty = range_binned(scores, truth, distance, [0.0, 10.0, 20.0, 30.0])[2]
        assert empty.pixels == 0 and empty.status == "degenerate"

    def test_empty_pixel_set_gives_degenerate_bins(self):
        results = range_binned([], [], [], [0.0, 10.0, 20.0])
        assert [(r.lo, r.hi, r.pixels, r.status) for r in results] == [
            (0.0, 10.0, 0, "degenerate"), (10.0, 20.0, 0, "degenerate")]
        assert all(math.isnan(r.ap) and math.isnan(r.fpr95) for r in results)

    def test_missing_distance_rejected(self):
        with pytest.raises(ContractViolation):
            range_binned([1.0, 0.0], [1, 0], [5.0], [0.0, 10.0])

    def test_truth_length_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            range_binned([1.0, 0.0], [1], [5.0, 6.0], [0.0, 10.0])

    def test_bad_edges_rejected(self):
        with pytest.raises(ContractViolation):
            range_binned([1.0, 0.0], [1, 0], [5.0, 6.0], [10.0])
        with pytest.raises(ContractViolation):
            range_binned([1.0, 0.0], [1, 0], [5.0, 6.0], [10.0, 10.0])

    @pytest.mark.parametrize("edges", [[5.0, math.nan, 50.0], [math.nan, 50.0], [5.0, math.nan]])
    def test_nan_edge_rejected(self, edges):
        with pytest.raises(ContractViolation, match="strictly increasing"):
            range_binned([1.0, 0.0], [1, 0], [5.0, 6.0], edges)

    def test_results_are_plain_records(self):
        r = BinResult(lo=0.0, hi=1.0, pixels=0, status="degenerate",
                      ap=float("nan"), fpr95=float("nan"))
        assert r.lo == 0.0 and r.status == "degenerate"
