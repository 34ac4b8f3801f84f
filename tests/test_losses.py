import logging
import math
import re

import numpy as np
import pytest
from helpers import finite_difference, rel_err

from hybridseg import autodiff as ad
from hybridseg.errors import ContractViolation
from hybridseg.labels import IGNORE_LABEL
from hybridseg.losses import compound_loss

LN2 = math.log(2.0)
LN3 = math.log(3.0)
LN9 = math.log(9.0)  # the dataset logit of posterior 0.9
LN999 = math.log(999.0)  # and of 0.999


def loss_of(logits, labels, z=0.0, beta=0.03):
    """`compound_loss` with a constant dataset logit `z` unless a tensor is
    given; the default 0 is posterior 1/2.

    A constant logit carries no gradient, so with fixtures of one pixel
    kind (inlier or outlier) every class-logit gradient comes from that
    kind's logit term alone.
    """
    logits = logits if isinstance(logits, ad.Tensor) else ad.constant(logits)
    if not isinstance(z, ad.Tensor):
        n, _, h, w = logits.value.shape
        z = ad.constant(np.broadcast_to(z, (n, 1, h, w)))
    return compound_loss(logits, z, np.asarray(labels), beta)


def one_pixel(logits_vec):
    """(1,K,1,1) logits from a flat vector."""
    return np.asarray(logits_vec, dtype=float).reshape(1, -1, 1, 1)


def two_pixel_fixture():
    """One inlier pixel (logits [1,2,3], label 2) next to one outlier ([0,0,0],
    label K = 3)."""
    logits = np.zeros((1, 3, 1, 2))
    logits[0, :, 0, 0] = [1.0, 2.0, 3.0]
    labels = np.array([[[2, 3]]])
    z = np.zeros((1, 1, 1, 2))  # dataset posterior 1/2
    return ad.constant(logits), ad.constant(z), labels


class TestClassification:
    def test_single_pixel_value(self):
        _, parts = loss_of(one_pixel([1.0, 2.0, 3.0]), [[[2]]])
        assert parts.cls == pytest.approx(0.4076059644443802, abs=1e-12)

    def test_perfectly_confident_is_near_zero(self):
        _, parts = loss_of(one_pixel([-30.0, 30.0]), [[[1]]])
        assert parts.cls == pytest.approx(0.0, abs=1e-12)

    def test_mean_over_inlier_pixels_only(self):
        logits = np.zeros((1, 2, 1, 3))
        logits[0, :, 0, 0] = [0.0, 1.0]
        logits[0, :, 0, 1] = [5.0, -5.0]  # outlier pixel: must not count
        logits[0, :, 0, 2] = [1.0, 0.0]
        _, parts = loss_of(logits, [[[1, 2, 0]]])
        want = math.log(1 + math.exp(-1.0))  # same nll at both inlier pixels
        assert parts.cls == pytest.approx(want, abs=1e-12)

    def test_no_inliers_returns_zero_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="hybridseg.losses"):
            _, parts = loss_of(one_pixel([1.0, 2.0]), [[[2]]])
        assert parts.cls == 0.0
        assert any("zero inlier" in r.message for r in caplog.records)

    @pytest.mark.parametrize("label", [-1, 3, 254])  # -1, K+1 and one below 255
    def test_out_of_range_label_rejected(self, label):
        with pytest.raises(ContractViolation, match="labels must be in 0..2 or 255"):
            loss_of(one_pixel([1.0, 2.0]), [[[label]]])

    def test_gradient_raises_true_class_logit(self):
        logits = ad.parameter(one_pixel([0.3, -0.2, 0.1]))
        total, _ = loss_of(logits, [[[1]]])
        total.backward()
        assert logits.grad[0, 1, 0, 0] < 0  # step against gradient raises s_y
        assert logits.grad[0, 0, 0, 0] > 0
        assert logits.grad[0, 2, 0, 0] > 0


class TestLikelihoodTerms:
    def test_values(self):
        logits = np.zeros((1, 3, 1, 2))
        logits[0, :, 0, 0] = [5.0, 6.0, 7.0]  # inlier pixel, left out
        logits[0, :, 0, 1] = [1.0, 2.0, 3.0]
        _, parts = loss_of(logits, [[[0, 3]]])
        assert parts.likelihood_out == pytest.approx(3.4076059644443802, abs=1e-12)

    @pytest.mark.parametrize("vec", [[1.0, 2.0, 3.0], [0.0, 0.0], [-4.0, 7.5, 0.1, 2.0]])
    def test_energy_bounds_true_logit(self, vec):
        # log-sum-exp >= max >= any single coordinate, so the outlier energy
        # never sits below the true-class logit of the same pixel content
        _, parts = loss_of(one_pixel(vec), [[[len(vec)]]])
        assert parts.likelihood_out >= max(vec)

    def test_empty_sets_are_zero(self):
        for label in (0, IGNORE_LABEL):  # inlier or ignore: no outliers
            _, parts = loss_of(one_pixel([1.0, 2.0]), [[[label]]])
            assert parts.likelihood_out == 0.0

    def test_outlier_gradient_pushes_energy_down(self):
        logits = ad.parameter(one_pixel([0.5, 1.5]))
        total, _ = loss_of(logits, [[[2]]])
        total.backward()
        assert (logits.grad > 0).all()  # descent lowers every logit


class TestPosteriorTerms:
    def test_values(self):
        _, parts = loss_of(np.zeros((1, 2, 1, 2)), [[[0, 2]]], z=LN9)
        assert parts.posterior_in == pytest.approx(-math.log(0.9), abs=1e-12)
        assert parts.posterior_out == pytest.approx(-math.log(0.1), abs=1e-12)
        assert parts.posterior_out == pytest.approx(2.302585092994046, abs=1e-12)

    def test_confident_correct_posterior_is_cheap(self):
        _, parts = loss_of(np.zeros((1, 2, 1, 2)), [[[0, 2]]],
                           z=np.array([[[[LN999, -LN999]]]]))
        assert parts.posterior_in < 0.01
        assert parts.posterior_out < 0.01

    def test_confident_wrong_logit_is_charged_in_full(self):
        # -ln sigmoid(-40) = 40 + ln(1 + e^-40): no floor on the posterior
        # caps the loss, and its gradient stays at the full -1 per pixel
        z = ad.parameter(np.array([[[[-40.0, 40.0]]]]))
        total, parts = loss_of(np.zeros((1, 2, 1, 2)), [[[0, 2]]], z=z, beta=1.0)
        assert parts.posterior_in == parts.posterior_out == 40.0
        total.backward()
        np.testing.assert_array_equal(z.grad, [[[[-1.0, 1.0]]]])

    def test_gradient_is_the_sigmoid_at_extreme_logits(self):
        # softplus(z) over outlier pixels: finite at any logit, and its
        # gradient is the logistic sigmoid, 1/2 at 0 and 1 at 500
        z = ad.parameter(np.array([-500.0, -5.0, 0.0, 5.0, 500.0]).reshape(1, 1, 1, 5))
        total, parts = loss_of(np.zeros((1, 2, 1, 5)), [[[2] * 5]], z=z, beta=1.0)
        assert math.isfinite(parts.posterior_out)
        total.backward()
        got = z.grad.ravel() * 5  # the mean over 5 outlier pixels
        np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-z.value.ravel())),
                                   rtol=1e-15, atol=0)
        assert got[2] == 0.5 and got[-1] == 1.0 and 0.0 < got[0] < 1e-200

    def test_gradients_pull_in_the_right_direction(self):
        # constant logits and beta 1: the dataset-logit gradient is that of
        # posterior_in + posterior_out
        raw = ad.parameter(np.zeros((1, 1, 1, 2)))
        total, _ = loss_of(np.zeros((1, 2, 1, 2)), [[[0, 2]]], z=raw, beta=1.0)
        total.backward()
        assert raw.grad[0, 0, 0, 0] < 0  # descent raises posterior at inlier
        assert raw.grad[0, 0, 0, 1] > 0  # and lowers it at outlier


class TestCompound:
    def test_fixture_total(self):
        logits, z, labels = two_pixel_fixture()
        total, parts = compound_loss(logits, z, labels, beta=0.03)
        assert parts.cls == pytest.approx(0.4076059644443802, abs=1e-9)
        assert parts.posterior_in == pytest.approx(LN2, abs=1e-9)
        assert parts.posterior_out == pytest.approx(LN2, abs=1e-9)
        assert parts.likelihood_out == pytest.approx(LN3, abs=1e-9)
        want = 0.4076059644443802 + LN2 + 0.03 * (LN2 + LN3)
        assert total.item() == pytest.approx(want, abs=1e-9)
        assert total.item() == pytest.approx(1.1545061, abs=1e-6)
        assert parts.total == total.item()

    def test_beta_zero_drops_outlier_terms(self):
        logits, z, labels = two_pixel_fixture()
        total, parts = compound_loss(logits, z, labels, beta=0.0)
        assert total.item() == pytest.approx(parts.cls + parts.posterior_in, abs=1e-12)
        # the components are still reported even when they carry no weight
        assert parts.posterior_out == pytest.approx(LN2, abs=1e-9)

    @pytest.mark.parametrize("beta", [-0.01, float("nan"), float("inf")])
    def test_negative_beta_rejected(self, beta):
        logits, z, labels = two_pixel_fixture()
        with pytest.raises(ContractViolation, match="beta must be finite and >= 0"):
            compound_loss(logits, z, labels, beta=beta)

    @pytest.mark.parametrize("shape", [(1, 2, 3), (2, 2), (1, 1, 2, 2)])
    def test_labels_must_be_n_h_w(self, shape):
        logits = ad.constant(np.zeros((1, 3, 2, 2)))
        z = ad.constant(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ContractViolation,
                           match=re.escape(f"labels must be (1, 2, 2), got {shape}")):
            compound_loss(logits, z, np.zeros(shape, dtype=np.int64), beta=0.03)

    def test_ignore_pixels_are_bit_inert(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 4, 3, 3))
        z = rng.normal(size=(2, 1, 3, 3))
        labels = rng.choice([0, 1, 2, 3, 4, IGNORE_LABEL], size=(2, 3, 3))
        labels[0, 0, 0] = IGNORE_LABEL  # guarantee at least one
        ig = (labels == IGNORE_LABEL)[:, None]
        ig_logits = np.broadcast_to(ig, logits.shape)

        def run(fill):
            lt, zt = ad.parameter(logits), ad.parameter(z)
            if fill:
                lt.value[ig_logits] = fill
                zt.value[ig] = -fill
            total, _ = compound_loss(lt, zt, labels, beta=0.03)
            total.backward()
            # exact zeros at ignore pixels
            assert not lt.grad[ig_logits].any() and not zt.grad[ig].any()
            return total.item(), lt.grad.tobytes(), zt.grad.tobytes()

        base = run(0.0)
        # the value and both gradients are bitwise identical
        assert run(1e6) == base
        assert run(-1e6) == base

    def test_all_ignore_batch_is_zero_with_zero_gradients(self):
        lt = ad.parameter(np.random.default_rng(2).normal(size=(2, 3, 2, 2)))
        zt = ad.parameter(np.ones((2, 1, 2, 2)))
        total, parts = compound_loss(lt, zt, np.full((2, 2, 2), IGNORE_LABEL), beta=0.03)
        assert (parts.cls, parts.posterior_in, parts.posterior_out, parts.likelihood_out,
                parts.total) == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert parts.ignore_pixels == 8
        total.backward()
        assert total.item() == 0.0
        np.testing.assert_array_equal(lt.grad, np.zeros_like(lt.value))
        np.testing.assert_array_equal(zt.grad, np.zeros_like(zt.value))

    def test_pixel_counts(self):
        logits, z, labels = two_pixel_fixture()
        _, parts = compound_loss(logits, z, labels, beta=0.03)
        assert (parts.inlier_pixels, parts.outlier_pixels, parts.ignore_pixels) == (1, 1, 0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        logits0 = rng.normal(size=(1, 3, 2, 3)) * 0.7
        raw0 = rng.normal(size=(1, 1, 2, 3)) * 0.5
        labels = rng.integers(0, 3, size=(1, 2, 3))
        labels[0, 0, 1:] = 3, IGNORE_LABEL  # an outlier and an ignore pixel
        labels[0, 1, 0] = 3

        lt = ad.parameter(logits0.copy())
        rt = ad.parameter(raw0.copy())
        total, _ = compound_loss(lt, rt, labels, beta=0.03)
        total.backward()

        def value():
            t, _ = compound_loss(ad.constant(logits0), ad.constant(raw0), labels, beta=0.03)
            return t.item()

        fd_logits, fd_raw = finite_difference(value, [logits0, raw0])
        for got, want in ((lt.grad, fd_logits), (rt.grad, fd_raw)):
            errs = [rel_err(a, b) for a, b in zip(got.ravel(), want.ravel())]
            assert max(errs) < 1e-6

    def test_total_is_differentiable_scalar(self):
        logits, z, labels = two_pixel_fixture()
        total, _ = compound_loss(logits, z, labels, beta=0.03)
        assert total.value.shape == ()
