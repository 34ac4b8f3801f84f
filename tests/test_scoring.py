import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hybridseg.errors import ContractViolation
from hybridseg.inference import score_image
from hybridseg.network import NetworkConfig, forward, init_params
from hybridseg.scoring import log_sum_exp

finite_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=10),
    elements=st.floats(min_value=-50, max_value=50),
)


def hand_set_model(class_b, class_w=0.0, z_w=0.0, z_b=0.0):
    """A one-channel model whose scores are set by hand.

    The single 1x1 stage passes a non-negative image through (up to the
    eval-mode batch-norm factor), so pixel value x gives logits
    ``class_w * x + class_b`` and a dataset logit ``z_w * x + z_b``.
    """
    params = init_params(NetworkConfig(input_channels=1, widths=(1,),
                                       num_classes=len(class_b), kernel_size=1))
    params["stage0.w"].value[...] = 1.0
    params["cls.w"].value[:, 0, 0, 0] = class_w
    params["cls.b"].value[...] = class_b
    params["ood.w"].value[...] = z_w
    params["ood.b"].value[...] = z_b
    return params


def high_precision_lse(values):
    # independent oracle: mpmath summation at 50 digits
    import mpmath

    mpmath.mp.dps = 50
    return float(mpmath.log(mpmath.fsum(mpmath.exp(v) for v in values)))


class TestLogSumExp:
    def test_symmetric_pair(self):
        assert log_sum_exp(np.array([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)

    def test_no_overflow_at_huge_values(self):
        assert log_sum_exp(np.array([1000.0, 1000.0])) == 1000.0 + math.log(2)

    def test_three_logits_against_oracle(self):
        v = [1.0, 2.0, 3.0]
        expect = high_precision_lse(v)
        assert expect == pytest.approx(3.407606, abs=1e-6)
        assert log_sum_exp(np.array(v)) == pytest.approx(expect, abs=1e-12)

    def test_float32_input_keeps_its_dtype(self):
        # non-negative logits: the max and the log of the sum add without
        # cancellation, so float32 is within 1 ulp of the float64 result
        rng = np.random.default_rng(3)
        logits = rng.uniform(0.0, 8.0, size=(4, 32, 32)).astype(np.float32)
        out = log_sum_exp(logits, axis=0)
        assert out.dtype == np.float32
        want = log_sum_exp(logits.astype(np.float64), axis=0).astype(np.float32)
        assert np.all(np.abs(out - want) <= np.spacing(want))
        # with cancellation the error is set by the largest magnitude involved
        logits = rng.normal(scale=4.0, size=(4, 32, 32)).astype(np.float32)
        want = log_sum_exp(logits.astype(np.float64), axis=0)
        scale = np.maximum(np.abs(logits).max(axis=0), np.abs(want)).astype(np.float32)
        err = np.abs(log_sum_exp(logits, axis=0) - want)
        assert np.all(err <= 2 * np.spacing(scale))

    def test_integer_input_is_computed_in_float64(self):
        assert log_sum_exp(np.array([0, 0])).dtype == np.float64

    def test_empty_vector_rejected(self):
        with pytest.raises(ContractViolation):
            log_sum_exp(np.empty(0))

    def test_multi_axis(self):
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = log_sum_exp(x, axis=1)
        assert out.shape == (2, 4)
        assert out[0, 0] == pytest.approx(high_precision_lse(x[0, :, 0]), abs=1e-12)

    @given(finite_vectors, st.floats(min_value=-100, max_value=100))
    def test_shift_invariance(self, v, c):
        assert log_sum_exp(v + c) == pytest.approx(log_sum_exp(v) + c, rel=1e-12, abs=1e-9)

    @given(finite_vectors)
    def test_upper_bounds_max_and_any_coordinate(self, v):
        lse = log_sum_exp(v)
        assert lse >= v.max() - 1e-12
        assert (lse >= v - 1e-12).all()


class TestUnnormalizedLogLikelihood:
    """The per-pixel unnormalized log-likelihood is the log-sum-exp of the
    logits, over the last axis by default."""

    def test_matches_lse_per_pixel(self):
        logits = np.random.default_rng(0).normal(size=(4, 5, 3))
        out = log_sum_exp(logits)
        assert out.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert out[i, j] == log_sum_exp(logits[i, j])

    def test_pixel_examples(self):
        assert log_sum_exp(np.array([0.0, 0.0])) == pytest.approx(math.log(2), abs=1e-12)
        assert log_sum_exp(np.array([1.0, 2.0, 3.0])) == pytest.approx(3.407606, abs=1e-6)

    def test_adding_constant_raises_output_by_constant(self):
        logits = np.random.default_rng(1).normal(size=(3, 3, 4))
        base = log_sum_exp(logits)
        np.testing.assert_allclose(log_sum_exp(logits + 2.5), base + 2.5, atol=1e-12)


class TestHybridScore:
    """The hybrid score as ``score_image`` defines it, on hand-set heads."""

    RNG = np.random.default_rng(2)
    IMAGE = RNG.uniform(0.0, 2.0, size=(1, 6, 6))
    CLS_W = RNG.normal(size=4)
    CLS_B = RNG.normal(size=4)

    def test_reference_pixel(self):
        # logits (0, 0) and dataset posterior 1/2; the maps are float32, so
        # the tolerance is float32's (pytest.approx against a float32 value
        # would subtract in float32 and hide any error below its rounding)
        bundle = score_image(hand_set_model([0.0, 0.0]), np.ones((1, 1, 1)))
        assert bundle.hybrid.dtype == np.float32
        expect = math.log(0.5) - math.log(2)
        assert abs(float(bundle.hybrid[0, 0]) - expect) <= np.spacing(np.float32(-expect))
        assert float(bundle.hybrid[0, 0]) == pytest.approx(-1.386294, abs=1e-6)

    def test_monotone_decreasing_in_inlier_posterior(self):
        # flat logits, dataset posterior rising with the pixel value
        image = np.linspace(0.01, 3.0, 25).reshape(1, 1, 25)
        bundle = score_image(hand_set_model([0.0, 0.0], z_w=2.0, z_b=-3.0), image)
        assert (np.diff(bundle.hybrid[0]) < 0).all()
        np.testing.assert_array_equal(bundle.generative, bundle.generative[0, 0])

    def test_logit_shift_lowers_score_by_constant(self):
        base = score_image(hand_set_model(self.CLS_B, self.CLS_W, z_w=1.0), self.IMAGE)
        shifted = score_image(hand_set_model(self.CLS_B + 3.0, self.CLS_W, z_w=1.0),
                              self.IMAGE)
        for name in ("generative", "hybrid"):
            got = shifted.variant(name).astype(np.float64)
            want = base.variant(name).astype(np.float64) - 3.0
            # within 2 float32 ulps at the map's largest magnitude
            ulp = np.spacing(np.float32(np.abs(got).max()))
            assert np.abs(got - want).max() <= 2 * ulp
        np.testing.assert_array_equal(shifted.discriminative, base.discriminative)

    def test_global_likelihood_shift_preserves_orderings(self):
        a = score_image(hand_set_model(self.CLS_B, self.CLS_W, z_w=1.0), self.IMAGE)
        b = score_image(hand_set_model(self.CLS_B + 11.0, self.CLS_W, z_w=1.0), self.IMAGE)
        for name in ("hybrid", "generative"):
            assert (np.argsort(a.variant(name), axis=None)
                    == np.argsort(b.variant(name), axis=None)).all()
        np.testing.assert_array_equal(a.argmax, b.argmax)

    def test_finite_at_clamped_extremes(self):
        for z_b in (-1e3, 1e3):
            bundle = score_image(hand_set_model(self.CLS_B, self.CLS_W, z_b=z_b),
                                 self.IMAGE)
            for name in ("hybrid", "generative", "discriminative"):
                assert np.isfinite(bundle.variant(name)).all()


def test_forward_returns_the_unclamped_dataset_logit():
    image = np.ones((1, 1, 1, 1))
    for z_b in (-1e3, 0.0, 1e3):
        maps = forward(hand_set_model([0.0, 0.0], z_b=z_b), image)
        assert maps.dataset_logit[0, 0, 0, 0] == z_b


@pytest.mark.parametrize("z_b", [20.0, 40.0, 80.0])
def test_discriminative_keeps_confident_inliers_apart(z_b):
    # ln(1 - sigmoid(z)) = -z - ln(1 + e^-z) rounds to -z in float32 here,
    # so each logit keeps its own score: nothing floors the posterior
    bundle = score_image(hand_set_model([0.0, 0.0], z_b=z_b), np.ones((1, 2, 2)))
    got = bundle.discriminative
    assert got.dtype == np.float32
    assert np.all(np.abs(got.astype(np.float64) + z_b) <= np.spacing(np.float32(z_b)))
