import math

import numpy as np
import pytest

from hybridseg import autodiff as ad
from hybridseg.errors import ContractViolation
from hybridseg.optim import Adam, LrSchedule


def quadratic_params():
    # single scalar parameter minimising x^2 from 10
    return [ad.parameter(np.array(10.0))]


class TestLrSchedule:
    def test_constant(self):
        sched = LrSchedule(kind="constant", lr_start=0.1)
        assert sched.at(0) == sched.at(999) == 0.1

    def test_cosine_endpoints(self):
        sched = LrSchedule(kind="cosine", lr_start=0.2, lr_end=0.002, total_steps=100)
        assert sched.at(0) == pytest.approx(0.2)
        assert sched.at(100) == pytest.approx(0.002)

    def test_cosine_midpoint_and_monotonicity(self):
        sched = LrSchedule(kind="cosine", lr_start=1.0, lr_end=0.0, total_steps=10)
        assert sched.at(5) == pytest.approx(0.5)
        values = [sched.at(s) for s in range(11)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_cosine_clamps_past_total(self):
        sched = LrSchedule(kind="cosine", lr_start=1.0, lr_end=0.1, total_steps=10)
        assert sched.at(25) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ContractViolation):
            LrSchedule(kind="linear", lr_start=0.1)
        with pytest.raises(ContractViolation):
            LrSchedule(kind="cosine", lr_start=0.1, total_steps=0)

    @pytest.mark.parametrize("field", ["lr_start", "lr_end"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-3])
    def test_non_finite_or_negative_rate_rejected(self, field, bad):
        rates = {"lr_start": 0.1, "lr_end": 0.0, field: bad}
        with pytest.raises(ContractViolation, match=f"{field} must be finite and >= 0"):
            LrSchedule(kind="cosine", total_steps=10, **rates)


class TestAdam:
    def test_first_step_magnitude(self):
        # with bias correction the first update is -lr * sign(grad)
        p = quadratic_params()
        opt = Adam(p, LrSchedule(kind="constant", lr_start=0.5))
        p[0].grad = np.array(7.0)
        opt.step()
        assert p[0].value == pytest.approx(10.0 - 0.5, abs=1e-6)

    def test_zero_grad_leaves_params(self):
        p = quadratic_params()
        opt = Adam(p, LrSchedule(kind="constant", lr_start=0.5))
        p[0].grad = np.array(0.0)
        opt.step()
        assert p[0].value == pytest.approx(10.0)
        assert opt.step_count == 1

    def test_missing_grad_treated_as_zero(self):
        p = quadratic_params()
        opt = Adam(p, LrSchedule(kind="constant", lr_start=0.5))
        opt.step()
        assert p[0].value == pytest.approx(10.0)

    def test_converges_on_quadratic(self):
        p = quadratic_params()
        opt = Adam(p, LrSchedule(kind="constant", lr_start=0.2))
        for _ in range(400):
            loss = ad.mul(p[0], p[0])
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert p[0].value == pytest.approx(0.0, abs=1e-3)

    def test_non_finite_grad_skips_update(self):
        p = quadratic_params()
        opt = Adam(p, LrSchedule(kind="constant", lr_start=0.5))
        p[0].grad = np.array(np.inf)
        opt.step()
        assert p[0].value == pytest.approx(10.0)
        assert opt.skipped == 1
        assert opt.step_count == 1
        # state must stay clean for the following healthy step
        p[0].grad = np.array(1.0)
        opt.step()
        assert np.isfinite(p[0].value)
        assert p[0].value < 10.0

    def test_zero_grad_clears(self):
        p = quadratic_params()
        opt = Adam(p, LrSchedule(kind="constant", lr_start=0.5))
        p[0].grad = np.array(3.0)
        opt.zero_grad()
        assert p[0].grad is None

    def test_schedule_drives_step_size(self):
        sched = LrSchedule(kind="cosine", lr_start=1.0, lr_end=0.0, total_steps=2)
        p = quadratic_params()
        opt = Adam(p, sched)
        p[0].grad = np.array(1.0)
        opt.step()
        first = 10.0 - p[0].value
        assert first == pytest.approx(1.0, abs=1e-6)

    def test_two_steps_match_reference_formula(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g = [np.array(2.0), np.array(-1.0)]
        x = 4.0
        m = v = 0.0
        for t, grad in enumerate(g, start=1):
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            x = x - lr * mhat / (math.sqrt(vhat) + eps)

        p = [ad.parameter(np.array(4.0))]
        opt = Adam(p, LrSchedule(kind="constant", lr_start=lr))
        for grad in g:
            p[0].grad = grad.copy()
            opt.step()
        assert p[0].value == pytest.approx(x, rel=1e-12)

    def test_float32_gradients_update_as_their_float64_values(self):
        # each gradient is widened before the moments see it, so the update
        # equals that of the same values in float64, to the bit
        grads = np.random.default_rng(0).normal(size=(3, 50)).astype(np.float32) * 1e-3
        runs = []
        for dtype in (np.float32, np.float64):
            p = [ad.parameter(np.linspace(-1.0, 1.0, 50))]
            opt = Adam(p, LrSchedule(kind="constant", lr_start=0.1))
            for g in grads:
                p[0].grad = g.astype(dtype)
                opt.step()
            assert opt.m[0].dtype == opt.v[0].dtype == p[0].value.dtype == np.float64
            runs.append((p[0].value, opt.m[0], opt.v[0]))
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)
