import logging
import math

import numpy as np
import pytest
from helpers import finite_difference, rel_err

from hybridseg import autodiff as ad
from hybridseg.errors import ContractViolation
from hybridseg.labels import IGNORE_LABEL, PixelRole
from hybridseg.losses import compound_loss

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def loss_of(logits, labels, roles, din=0.5, beta=0.03):
    """`compound_loss` with a constant posterior `din` unless a tensor is given.

    A constant posterior carries no gradient, so with single-role fixtures
    every logit gradient comes from that role's logit term alone.
    """
    logits = logits if isinstance(logits, ad.Tensor) else ad.constant(logits)
    if not isinstance(din, ad.Tensor):
        n, _, h, w = logits.value.shape
        din = ad.constant(np.full((n, 1, h, w), din))
    return compound_loss(logits, din, np.asarray(labels), np.asarray(roles), beta)


def one_pixel(logits_vec):
    """(1,K,1,1) logits from a flat vector."""
    return np.asarray(logits_vec, dtype=float).reshape(1, -1, 1, 1)


def two_pixel_fixture():
    """One inlier pixel (logits [1,2,3], label 2) next to one outlier ([0,0,0])."""
    logits = np.zeros((1, 3, 1, 2))
    logits[0, :, 0, 0] = [1.0, 2.0, 3.0]
    labels = np.array([[[2, IGNORE_LABEL]]])
    roles = np.array([[[PixelRole.INLIER, PixelRole.OUTLIER]]])
    din = np.full((1, 1, 1, 2), 0.5)
    return ad.constant(logits), ad.constant(din), labels, roles


class TestClassification:
    def test_single_pixel_value(self):
        _, parts = loss_of(one_pixel([1.0, 2.0, 3.0]), [[[2]]], [[[PixelRole.INLIER]]])
        assert parts.cls == pytest.approx(0.4076059644443802, abs=1e-12)

    def test_perfectly_confident_is_near_zero(self):
        _, parts = loss_of(one_pixel([-30.0, 30.0]), [[[1]]], [[[0]]])
        assert parts.cls == pytest.approx(0.0, abs=1e-12)

    def test_mean_over_inlier_pixels_only(self):
        logits = np.zeros((1, 2, 1, 3))
        logits[0, :, 0, 0] = [0.0, 1.0]
        logits[0, :, 0, 1] = [5.0, -5.0]  # outlier pixel: must not count
        logits[0, :, 0, 2] = [1.0, 0.0]
        _, parts = loss_of(logits, [[[1, IGNORE_LABEL, 0]]], [[[0, 1, 0]]])
        want = math.log(1 + math.exp(-1.0))  # same nll at both inlier pixels
        assert parts.cls == pytest.approx(want, abs=1e-12)

    def test_no_inliers_returns_zero_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="hybridseg.losses"):
            _, parts = loss_of(one_pixel([1.0, 2.0]), [[[255]]], [[[1]]])
        assert parts.cls == 0.0
        assert any("zero inlier" in r.message for r in caplog.records)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ContractViolation, match="out-of-range class labels"):
            loss_of(one_pixel([1.0, 2.0]), [[[2]]], [[[0]]])

    def test_gradient_raises_true_class_logit(self):
        logits = ad.parameter(one_pixel([0.3, -0.2, 0.1]))
        total, _ = loss_of(logits, [[[1]]], [[[0]]])
        total.backward()
        assert logits.grad[0, 1, 0, 0] < 0  # step against gradient raises s_y
        assert logits.grad[0, 0, 0, 0] > 0
        assert logits.grad[0, 2, 0, 0] > 0


class TestLikelihoodTerms:
    def test_values(self):
        logits = np.zeros((1, 3, 1, 2))
        logits[0, :, 0, 0] = [5.0, 6.0, 7.0]  # inlier pixel, left out
        logits[0, :, 0, 1] = [1.0, 2.0, 3.0]
        _, parts = loss_of(logits, [[[0, IGNORE_LABEL]]], [[[0, 1]]])
        assert parts.likelihood_out == pytest.approx(3.4076059644443802, abs=1e-12)

    @pytest.mark.parametrize("vec", [[1.0, 2.0, 3.0], [0.0, 0.0], [-4.0, 7.5, 0.1, 2.0]])
    def test_energy_bounds_true_logit(self, vec):
        # log-sum-exp >= max >= any single coordinate, so the outlier energy
        # never sits below the true-class logit of the same pixel content
        _, parts = loss_of(one_pixel(vec), [[[IGNORE_LABEL]]], [[[1]]])
        assert parts.likelihood_out >= max(vec)

    def test_empty_sets_are_zero(self):
        for role, label in ((0, 0), (2, IGNORE_LABEL)):  # inlier or ignore: no outliers
            _, parts = loss_of(one_pixel([1.0, 2.0]), [[[label]]], [[[role]]])
            assert parts.likelihood_out == 0.0

    def test_outlier_gradient_pushes_energy_down(self):
        logits = ad.parameter(one_pixel([0.5, 1.5]))
        total, _ = loss_of(logits, [[[IGNORE_LABEL]]], [[[1]]])
        total.backward()
        assert (logits.grad > 0).all()  # descent lowers every logit


class TestPosteriorTerms:
    def test_values(self):
        _, parts = loss_of(np.zeros((1, 2, 1, 2)), [[[0, IGNORE_LABEL]]], [[[0, 1]]],
                           din=0.9)
        assert parts.posterior_in == pytest.approx(-math.log(0.9), abs=1e-12)
        assert parts.posterior_out == pytest.approx(-math.log(0.1), abs=1e-12)
        assert parts.posterior_out == pytest.approx(2.302585092994046, abs=1e-12)

    def test_confident_correct_posterior_is_cheap(self):
        _, parts = loss_of(np.zeros((1, 2, 1, 2)), [[[0, IGNORE_LABEL]]], [[[0, 1]]],
                           din=np.array([[[[0.999, 0.001]]]]))
        assert parts.posterior_in < 0.01
        assert parts.posterior_out < 0.01

    def test_gradients_pull_in_the_right_direction(self):
        # constant logits and beta 1: the posterior gradient is that of
        # posterior_in + posterior_out
        raw = ad.parameter(np.zeros((1, 1, 1, 2)))
        total, _ = loss_of(np.zeros((1, 2, 1, 2)), [[[0, IGNORE_LABEL]]], [[[0, 1]]],
                           din=ad.sigmoid(raw), beta=1.0)
        total.backward()
        assert raw.grad[0, 0, 0, 0] < 0  # descent raises posterior at inlier
        assert raw.grad[0, 0, 0, 1] > 0  # and lowers it at outlier


class TestCompound:
    def test_fixture_total(self):
        logits, din, labels, roles = two_pixel_fixture()
        total, parts = compound_loss(logits, din, labels, roles, beta=0.03)
        assert parts.cls == pytest.approx(0.4076059644443802, abs=1e-9)
        assert parts.posterior_in == pytest.approx(LN2, abs=1e-9)
        assert parts.posterior_out == pytest.approx(LN2, abs=1e-9)
        assert parts.likelihood_out == pytest.approx(LN3, abs=1e-9)
        want = 0.4076059644443802 + LN2 + 0.03 * (LN2 + LN3)
        assert total.item() == pytest.approx(want, abs=1e-9)
        assert total.item() == pytest.approx(1.1545061, abs=1e-6)
        assert parts.total == total.item()

    def test_beta_zero_drops_outlier_terms(self):
        logits, din, labels, roles = two_pixel_fixture()
        total, parts = compound_loss(logits, din, labels, roles, beta=0.0)
        assert total.item() == pytest.approx(parts.cls + parts.posterior_in, abs=1e-12)
        # the components are still reported even when they carry no weight
        assert parts.posterior_out == pytest.approx(LN2, abs=1e-9)

    def test_negative_beta_rejected(self):
        logits, din, labels, roles = two_pixel_fixture()
        with pytest.raises(ContractViolation):
            compound_loss(logits, din, labels, roles, beta=-0.01)

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (1, 1, 1, 2)])
    def test_roles_must_be_n_h_w(self, shape):
        logits, din, labels, roles = two_pixel_fixture()
        with pytest.raises(ContractViolation, match=r"roles must be \(N,H,W\)"):
            compound_loss(logits, din, labels, roles.reshape(shape), beta=0.03)

    def test_ignore_pixels_are_bit_inert(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 4, 3, 3))
        din = 1.0 / (1.0 + np.exp(-rng.normal(size=(2, 1, 3, 3))))
        labels = rng.integers(0, 4, size=(2, 3, 3))
        roles = rng.integers(0, 3, size=(2, 3, 3))
        roles[0, 0, 0] = PixelRole.IGNORE  # guarantee at least one
        labels[roles == PixelRole.IGNORE] = IGNORE_LABEL
        base, _ = compound_loss(ad.constant(logits), ad.constant(din),
                                labels, roles, beta=0.03)

        mutated_logits = logits.copy()
        mutated_din = din.copy()
        ig = roles == PixelRole.IGNORE
        mutated_logits[np.broadcast_to(ig[:, None], logits.shape)] = 1e6
        mutated_din[ig[:, None]] = 0.123
        redo, _ = compound_loss(ad.constant(mutated_logits), ad.constant(mutated_din),
                                labels, roles, beta=0.03)
        assert base.item() == redo.item()  # bitwise identical

    def test_pixel_counts(self):
        logits, din, labels, roles = two_pixel_fixture()
        _, parts = compound_loss(logits, din, labels, roles, beta=0.03)
        assert (parts.inlier_pixels, parts.outlier_pixels, parts.ignore_pixels) == (1, 1, 0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        logits0 = rng.normal(size=(1, 3, 2, 3)) * 0.7
        raw0 = rng.normal(size=(1, 1, 2, 3)) * 0.5
        labels = rng.integers(0, 3, size=(1, 2, 3))
        roles = np.array([[[0, 1, 2], [1, 0, 0]]])
        labels[np.asarray(roles) != PixelRole.INLIER] = IGNORE_LABEL

        lt = ad.parameter(logits0.copy())
        rt = ad.parameter(raw0.copy())
        total, _ = compound_loss(lt, ad.sigmoid(rt), labels, roles, beta=0.03)
        total.backward()

        def value():
            t, _ = compound_loss(ad.constant(logits0), ad.sigmoid(ad.constant(raw0)),
                                 labels, roles, beta=0.03)
            return t.item()

        fd_logits, fd_raw = finite_difference(value, [logits0, raw0])
        for got, want in ((lt.grad, fd_logits), (rt.grad, fd_raw)):
            errs = [rel_err(a, b) for a, b in zip(got.ravel(), want.ravel())]
            assert max(errs) < 1e-6

    def test_total_is_differentiable_scalar(self):
        logits, din, labels, roles = two_pixel_fixture()
        total, _ = compound_loss(logits, din, labels, roles, beta=0.03)
        assert total.value.shape == ()
