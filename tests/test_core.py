"""Step rule and stepsize schedules."""

import math

import numpy as np
import pytest

from trish.core import (
    StepCase,
    StepsizeSchedule,
    TrishParams,
    classify_case,
    sg_step,
    step_norm,
    trish_step,
)


class TestTrishParams:
    def test_thresholds(self):
        params = TrishParams(2.0, 0.5)
        assert params.lower_threshold == 0.5
        assert params.upper_threshold == 2.0

    @pytest.mark.parametrize("g1,g2", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.0), (2.0, -1.0)])
    def test_rejects_bad_pairs(self, g1, g2):
        with pytest.raises(ValueError, match="gamma1 > gamma2 > 0"):
            TrishParams(g1, g2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            TrishParams(math.inf, 1.0)


class TestClassifyCase:
    def test_regions(self):
        params = TrishParams(2.0, 0.5)
        assert classify_case(0.0, params) is StepCase.CASE1
        assert classify_case(0.49, params) is StepCase.CASE1
        assert classify_case(1.0, params) is StepCase.CASE2
        assert classify_case(2.01, params) is StepCase.CASE3

    def test_boundaries_belong_to_normalized_branch(self):
        params = TrishParams(2.0, 0.5)
        assert classify_case(0.5, params) is StepCase.CASE2
        assert classify_case(2.0, params) is StepCase.CASE2

    def test_rejects_negative_and_nan(self):
        params = TrishParams(2.0, 0.5)
        with pytest.raises(ValueError):
            classify_case(-1.0, params)
        with pytest.raises(ValueError):
            classify_case(float("nan"), params)


class TestStepNorm:
    def test_hand_values(self):
        params = TrishParams(2.0, 0.5)
        # case 3: gamma2 * alpha * ||g|| = 0.5 * 1 * 4
        assert step_norm(4.0, 1.0, params) == 2.0
        # case 1: gamma1 * alpha * ||g|| = 2 * 1 * 0.1
        assert step_norm(0.1, 1.0, params) == pytest.approx(0.2)
        # case 2: exactly alpha
        assert step_norm(1.0, 1.0, params) == 1.0

    def test_continuity_at_thresholds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gamma1 = rng.uniform(0.5, 5.0)
            gamma2 = gamma1 * rng.uniform(0.1, 0.9)
            alpha = rng.uniform(0.01, 2.0)
            params = TrishParams(gamma1, gamma2)
            for threshold in (params.lower_threshold, params.upper_threshold):
                below = step_norm(threshold * (1 - 1e-9), alpha, params)
                above = step_norm(threshold * (1 + 1e-9), alpha, params)
                assert abs(above - below) < 1e-6 * alpha

    def test_nondecreasing_in_gradient_norm(self):
        rng = np.random.default_rng(8)
        params = TrishParams(3.0, 0.7)
        norms = np.sort(rng.uniform(0.0, 5.0, size=200))
        values = [step_norm(float(n), 0.3, params) for n in norms]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


class TestTrishStep:
    def test_damped_branch_hand_value(self):
        params = TrishParams(2.0, 0.5)
        x_next, case = trish_step(
            np.array([1.0, 1.0]), np.array([3.0, 4.0]), 0.1, params
        )
        assert case is StepCase.CASE3
        np.testing.assert_allclose(x_next, [0.85, 0.8])

    def test_amplified_branch(self):
        params = TrishParams(2.0, 0.5)
        x_next, case = trish_step(
            np.array([0.0]), np.array([0.1]), 1.0, params
        )
        assert case is StepCase.CASE1
        np.testing.assert_allclose(x_next, [-0.2])

    def test_normalized_branch_has_length_alpha(self):
        rng = np.random.default_rng(11)
        params = TrishParams(2.0, 0.5)
        for _ in range(30):
            g = rng.normal(size=4)
            g *= rng.uniform(0.5, 2.0) / np.linalg.norm(g)
            x_next, case = trish_step(np.zeros(4), g, 0.3, params)
            assert case is StepCase.CASE2
            assert np.linalg.norm(x_next) == pytest.approx(0.3)

    def test_zero_gradient_is_fixed_point(self):
        params = TrishParams(2.0, 0.5)
        x = np.array([1.0, -2.0])
        x_next, case = trish_step(x, np.zeros(2), 0.5, params)
        assert case is StepCase.CASE1
        np.testing.assert_array_equal(x_next, x)

    def test_validation(self):
        params = TrishParams(2.0, 0.5)
        with pytest.raises(ValueError, match="shape"):
            trish_step(np.zeros(2), np.zeros(3), 0.1, params)
        with pytest.raises(ValueError, match="stepsize"):
            trish_step(np.zeros(2), np.ones(2), 0.0, params)
        with pytest.raises(ValueError, match="nan or inf"):
            trish_step(np.zeros(2), np.array([1.0, math.nan]), 0.1, params)

    def test_agrees_with_step_norm(self):
        rng = np.random.default_rng(3)
        params = TrishParams(1.8, 0.6)
        for _ in range(100):
            x = rng.normal(size=3)
            g = rng.normal(size=3) * rng.uniform(0.0, 4.0)
            alpha = rng.uniform(0.05, 1.5)
            x_next, _ = trish_step(x, g, alpha, params)
            expected = step_norm(float(np.linalg.norm(g)), alpha, params)
            assert np.linalg.norm(x_next - x) == pytest.approx(expected, abs=1e-12)


class TestSgStep:
    def test_hand_value(self):
        np.testing.assert_allclose(
            sg_step(np.array([1.0, 0.0]), np.array([2.0, -4.0]), 0.25),
            [0.5, 1.0],
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            sg_step(np.zeros(2), np.zeros(1), 0.1)
        with pytest.raises(ValueError, match="stepsize"):
            sg_step(np.zeros(2), np.zeros(2), -1.0)


class TestStepsizeSchedule:
    def test_fixed(self):
        schedule = StepsizeSchedule.fixed(0.5)
        assert schedule.alpha(1) == 0.5
        assert schedule.alpha(10**6) == 0.5

    def test_harmonic_values(self):
        schedule = StepsizeSchedule.harmonic(a=1.0, b=1.0)
        assert schedule.alpha(1) == 0.5
        assert schedule.alpha(3) == 0.25

    def test_harmonic_strictly_decreasing(self):
        schedule = StepsizeSchedule.harmonic(a=2.0, b=7.0)
        values = [schedule.alpha(k) for k in range(1, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_one_based_indexing(self):
        schedule = StepsizeSchedule.fixed(1.0)
        with pytest.raises(ValueError, match="1-based"):
            schedule.alpha(0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StepsizeSchedule.fixed(0.0)
        with pytest.raises(ValueError):
            StepsizeSchedule.harmonic(a=1.0, b=0.0)
        with pytest.raises(ValueError, match="unknown schedule kind"):
            StepsizeSchedule("custom", 1.0)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_harmonic_rejects_non_finite_parameters(self, a, b):
        with pytest.raises(ValueError, match="need finite a > 0 and b > 0"):
            StepsizeSchedule.harmonic(a=a, b=b)

    def test_positivity_enforced_per_call(self):
        # a / (b + k) underflows to zero for a tiny enough a
        schedule = StepsizeSchedule.harmonic(a=5e-324, b=1.0)
        with pytest.raises(ValueError, match="invalid stepsize"):
            schedule.alpha(1)
