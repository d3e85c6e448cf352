"""Tests for the conditional product, descent bounds, and convergence rates.

Closed-form quantities are cross-checked against independent quadrature,
Monte Carlo estimators against the closed forms, and every guarantee's
constants against hand-derived values for a frozen reference setup.
"""

import math
from dataclasses import MISSING, asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from trish.core import StepCase, TrishParams
from trish.harness import verification_setup
from trish.oracles import GaussianOracle
from trish.theory import (
    SE_MARGIN,
    FixedStepsizeConstants,
    GeometricNoiseConstants,
    HarmonicStepsizeConstants,
    HypothesisError,
    estimate_conditional_inner_product,
    gaussian_conditional_product,
    lemma1_rhs,
    standard_error,
    theorem_bound,
    within_margin,
)

TWO_ROOT_2PI = 2.0 * math.sqrt(2.0 * math.pi)
CP_AT_ONE_ONE = 1.0833154705876863  # Phi(1) + phi(1)


def quadrature_product(m: float, sigma: float) -> float:
    """P[E] E[m.g | E] for scalar g ~ N(m, sigma^2) via direct integration.

    The inner product m*g is N(m^2, (sigma m)^2), so integrate
    (m^2 + sigma m z) phi(z) over the region where it is nonnegative.
    A finite window replaces the infinite tail; phi below -60 or above
    60 is zero to double precision.
    """
    if m == 0.0:
        return 0.0

    def integrand(z):
        return (m * m + sigma * m * z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    lo = max(-m / sigma, -60.0)
    value, _ = integrate.quad(integrand, lo, 60.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


class TestGaussianConditionalProduct:
    def test_frozen_value_at_unit_parameters(self):
        assert gaussian_conditional_product(1.0, 1.0) == pytest.approx(
            CP_AT_ONE_ONE, rel=1e-12
        )

    def test_zero_gradient(self):
        assert gaussian_conditional_product(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("m", [1e-3, 0.1, 0.5, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("sigma", [0.1, 1.0, TWO_ROOT_2PI, 10.0])
    def test_matches_quadrature(self, m, sigma):
        closed = gaussian_conditional_product(m, sigma)
        numeric = quadrature_product(m, sigma)
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_dominates_unconditional_mean(self):
        # positive-part mean can only exceed the raw mean m^2
        for m in (0.2, 1.0, 4.0):
            assert gaussian_conditional_product(m, 2.0) >= m * m

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_conditional_product(-1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_conditional_product(1.0, 0.0)


def gaussian_draw(m: float, sigma: float):
    def draw(rng, n):
        return m + sigma * rng.standard_normal(n)

    return draw


class TestEstimateConditionalInnerProduct:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(42)
        product, se = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), 40000, rng
        )
        closed = gaussian_conditional_product(1.0, 1.0)
        assert abs(product - closed) <= 4.0 * se
        assert se < 0.02

    def test_law_of_total_expectation(self):
        n = 50000
        product, _ = estimate_conditional_inner_product(
            np.array([2.0]), gaussian_draw(2.0, 3.0), n, np.random.default_rng(7)
        )
        # the same draws' inner products grad . g, their mean a plain one
        inner = 2.0 * gaussian_draw(2.0, 3.0)(np.random.default_rng(7), n)
        # E[grad . g] = ||grad||^2 = 4 for the unbiased oracle
        assert abs(inner.mean() - 4.0) <= 4.0 * standard_error(inner)
        # P E[.|E] + (1-P) E[.|not E] reassembles the mean: the product is the first part
        assert product + np.minimum(inner, 0.0).mean() == pytest.approx(inner.mean(), rel=1e-10)

    def test_standard_error_scale(self):
        # SE of the positive-part mean should track sd/sqrt(n)
        rng = np.random.default_rng(3)
        n = 20000
        _, se = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), n, rng
        )
        check = np.maximum(1.0 + 1.0 * np.random.default_rng(5).standard_normal(200000), 0.0)
        analytic = float(check.std() / math.sqrt(n))
        assert 0.6 * analytic <= se <= 1.6 * analytic

    def test_quadrupling_samples_halves_the_se(self):
        closed = gaussian_conditional_product(1.0, 1.0)
        small, small_se = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), 8000, np.random.default_rng(11)
        )
        large, large_se = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), 32000, np.random.default_rng(12)
        )
        assert abs(small - closed) <= 4.0 * small_se
        assert abs(large - closed) <= 4.0 * large_se
        # quadrupling n roughly halves the SE
        assert 1.4 <= small_se / large_se <= 2.9

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 6), st.integers(1, 300)),
            elements=st.floats(-1e6, 1e6),
        )
    )
    def test_standard_error_of_rows_equals_one_call_per_row(self, samples):
        ses = standard_error(samples)
        assert isinstance(ses, np.ndarray) and ses.shape == samples.shape[:1]
        for row, se in zip(samples, ses):
            one = standard_error(row)
            assert type(one) is float
            assert se == one  # bitwise, not approximately
        if samples.shape[1] == 1:
            assert not ses.any()  # one sample has SE 0

    def test_standard_error_is_sd_over_root_n(self):
        n = 5000
        product, se = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), n, np.random.default_rng(4)
        )
        inner = gaussian_draw(1.0, 1.0)(np.random.default_rng(4), n)
        pos_part = np.where(inner >= 0.0, inner, 0.0)
        assert product == pos_part.mean()
        assert se == np.std(pos_part, ddof=1) / math.sqrt(n)
        assert standard_error(inner) == np.std(inner, ddof=1) / math.sqrt(n)
        assert standard_error(inner[:1]) == 0.0

    def test_degenerate_event(self):
        # E never occurs: E[. | E] is undefined, so the product's SE is infinite
        product, se = estimate_conditional_inner_product(
            np.array([1.0]), lambda rng, n: -np.ones(n), 100, np.random.default_rng(0)
        )
        assert product == 0.0
        assert math.isinf(se)

    def test_ties_count_into_event(self):
        # every inner product is 0: E occurs on each draw, so the SE is finite
        product, se = estimate_conditional_inner_product(
            np.array([1.0]), lambda rng, n: np.zeros(n), 50, np.random.default_rng(0)
        )
        assert (product, se) == (0.0, 0.0)

    def test_vector_gradient(self):
        grad = np.array([0.6, -0.8])

        def draw(rng, n):
            return grad + 0.5 * rng.standard_normal((n, 2))

        # grad . g ~ N(||grad||^2, (0.5 ||grad||)^2) with ||grad|| = 1
        product, se = estimate_conditional_inner_product(
            grad, draw, 30000, np.random.default_rng(8)
        )
        assert abs(product - gaussian_conditional_product(1.0, 0.5)) <= 4.0 * se

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least one sample"):
            estimate_conditional_inner_product(np.array([1.0]), gaussian_draw(1, 1), 0, rng)
        with pytest.raises(ValueError, match="shape"):
            estimate_conditional_inner_product(
                np.array([1.0, 2.0]), lambda r, n: np.zeros((n, 3)), 10, rng
            )


class TestAssumptionChecks:
    # An Assumption 4-6 check is within_margin around the bound its caller builds.
    def test_check4(self):
        h1, h2, grad_norm_sq = 0.2, 1.2, 1.0
        assert within_margin(1.0, 0.01, h1 + h2 * grad_norm_sq)
        assert not within_margin(2.0, 0.01, h1 + h2 * grad_norm_sq)
        # the SE allowance rescues borderline estimates
        assert within_margin(1.4 + 0.02, 0.01, h1 + h2 * grad_norm_sq)

    def test_check5(self):
        h3, h4, grad_norm_sq, alpha_k = 0.5, 1.2, 1.0, 0.1
        assert within_margin(1.0, 0.01, h3 * alpha_k + h4 * grad_norm_sq)
        assert not within_margin(1.5, 0.01, h3 * alpha_k + h4 * grad_norm_sq)

    def test_check6(self):
        h5, h6, lam, grad_norm_sq = 0.5, 1.2, 0.5, 1.0
        assert within_margin(1.0, 0.01, h5 * lam ** (1 - 1) + h6 * grad_norm_sq)
        # the decaying term shrinks the budget as k grows
        assert not within_margin(1.5, 0.01, h5 * lam ** (10 - 1) + h6 * grad_norm_sq)

    def test_the_margin_is_se_margin_standard_errors(self):
        assert within_margin(1.0 + SE_MARGIN * 0.01, 0.01, 1.0)
        assert not within_margin(np.nextafter(1.0 + SE_MARGIN * 0.01, 2.0), 0.01, 1.0)

    def test_elementwise_on_arrays(self):
        mean = np.array([1.0, 1.02, 1.04, 0.5])
        se = np.array([0.01, 0.01, 0.01, 0.0])
        bound = np.array([1.0, 1.0, 1.0, 0.5])
        np.testing.assert_array_equal(
            within_margin(mean, se, bound), [True, True, False, True]
        )
        np.testing.assert_array_equal(within_margin(mean, 0.01, 1.0), [True, True, False, True])

    def test_nan_mean_fails(self):
        assert not within_margin(math.nan, 0.01, 1.0)
        assert not within_margin(math.nan, math.inf, math.inf)
        np.testing.assert_array_equal(
            within_margin(np.array([math.nan, 1.0]), np.array([0.01, 0.01]), 1.0), [False, True]
        )


class TestLemma1Rhs:
    PARAMS = TrishParams(gamma1=2.0, gamma2=0.5)

    def test_scaled_branch_hand_values(self):
        common = dict(
            grad_norm_sq=1.0, alpha=0.1, params=self.PARAMS, smoothness=1.0, m1=1.0, m2=1.0
        )
        assert lemma1_rhs(StepCase.CASE1, **common) == pytest.approx(-0.16, rel=1e-14)
        assert lemma1_rhs(StepCase.CASE3, **common) == pytest.approx(-0.0475, rel=1e-14)

    def test_normalized_branch_hand_value(self):
        value = lemma1_rhs(
            StepCase.CASE2,
            grad_norm_sq=1.0,
            alpha=0.1,
            params=self.PARAMS,
            smoothness=1.0,
            conditional_product=CP_AT_ONE_ONE,
        )
        expected = -0.2 + 0.15 * CP_AT_ONE_ONE + 0.005
        assert value == pytest.approx(expected, rel=1e-14)

    def test_descent_within_stepsize_cap(self):
        # alpha <= 1/(gamma1 L M2) keeps the gradient coefficient negative
        for alpha in (0.01, 0.1, 0.5):
            rhs = lemma1_rhs(
                StepCase.CASE1,
                grad_norm_sq=4.0,
                alpha=alpha,
                params=self.PARAMS,
                smoothness=1.0,
                m1=0.01,
                m2=1.0,
            )
            assert rhs < 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="conditional product"):
            lemma1_rhs(StepCase.CASE2, 1.0, 0.1, self.PARAMS, 1.0, m1=1.0, m2=1.0)
        with pytest.raises(ValueError, match="M1, M2"):
            lemma1_rhs(StepCase.CASE1, 1.0, 0.1, self.PARAMS, 1.0)
        with pytest.raises(ValueError, match="stepsize"):
            lemma1_rhs(StepCase.CASE1, 1.0, 0.0, self.PARAMS, 1.0, m1=1.0, m2=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            lemma1_rhs(StepCase.CASE1, -1.0, 0.1, self.PARAMS, 1.0, m1=1.0, m2=1.0)
        with pytest.raises(ValueError, match="L must be"):
            lemma1_rhs(StepCase.CASE1, 1.0, 0.1, self.PARAMS, 0.0, m1=1.0, m2=1.0)


def reference_theorem1() -> FixedStepsizeConstants:
    """Frozen 1-d quadratic setup: c = L = 1, sigma = 0.1, alpha = 0.5."""
    params = TrishParams(gamma1=2.0, gamma2=1.9)
    h1, h2 = GaussianOracle.constant(0.1).assumption_pair()
    return FixedStepsizeConstants.for_fixed_stepsize(
        params,
        h1=h1,
        h2=h2,
        pl_constant=1.0,
        smoothness=1.0,
        m1=0.01,
        m2=1.0,
        alpha=0.5,
        f_gap_initial=0.5,
    )


class TestTheoremConstants:
    def test_theorem1_reference_values(self):
        tc = reference_theorem1()
        h1 = 0.1 / TWO_ROOT_2PI
        margin = 2.0 - (1.0 + h1) * 0.1
        assert tc.theta1 == pytest.approx(0.5 * margin, rel=1e-14)
        assert tc.theta1 == pytest.approx(0.9490026442989964, rel=1e-12)
        expected_theta2 = max(
            0.5 * 4.0 * 0.01 * 0.25, h1 * 0.1 * 0.5 + 0.5 * 0.25
        )
        assert tc.theta2 == pytest.approx(expected_theta2, rel=1e-14)

    def test_gamma_ratio_guard(self):
        params = TrishParams(gamma1=2.0, gamma2=0.02)
        h1, h2 = GaussianOracle.constant(0.1).assumption_pair()
        with pytest.raises(HypothesisError) as exc_info:
            FixedStepsizeConstants.for_fixed_stepsize(
                params, h1, h2, 1.0, 1.0, 0.01, 1.0, 0.1, 0.5
            )
        assert exc_info.value.condition == "gamma_ratio"
        assert "must be below" in str(exc_info.value)

    def test_stepsize_cap_guard(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h1, h2 = GaussianOracle.constant(0.1).assumption_pair()
        with pytest.raises(HypothesisError) as exc_info:
            FixedStepsizeConstants.for_fixed_stepsize(
                params, h1, h2, 1.0, 1.0, 0.01, 1.0, 0.6, 0.5
            )
        assert exc_info.value.condition == "stepsize_cap"

    def test_pl_cap_that_rounds_to_zero_is_rejected(self):
        # 1/(2 c theta1) underflows to 0 with c = 1e300 and theta1 near 4e306
        params = TrishParams(gamma1=1e308, gamma2=1e307)
        h1, h2 = GaussianOracle.constant(0.1).assumption_pair()
        with pytest.raises(HypothesisError, match=r"stepsize cap 1/\(2 c theta1\) rounds to 0"):
            FixedStepsizeConstants.for_fixed_stepsize(
                params, h1, h2, 1e300, 1.0, 0.01, 1.0, None, 0.5
            )

    def test_boundary_stepsize_accepted(self):
        # cap is min(1/(2 c theta1), 1/(gamma1 L M2)) = 0.5 here; equality passes
        tc = reference_theorem1()
        assert tc.alpha == 0.5

    def test_no_alpha_takes_the_cap(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h1, h2 = GaussianOracle.constant(0.1).assumption_pair()
        tc1 = FixedStepsizeConstants.for_fixed_stepsize(
            params, h1, h2, 1.0, 1.0, 0.01, 1.0, None, 0.5
        )
        assert tc1 == reference_theorem1()
        tc4 = FixedStepsizeConstants.for_fixed_stepsize(
            params, h1, h2, None, 16.0, 0.01, 1.0, None, 3.12
        )
        assert tc4.alpha == 1.0 / 32.0
        assert tc4.theorem_id == 4

    def test_theorem2_a_interval_guard(self):
        params = TrishParams(gamma1=0.2, gamma2=0.04)
        h3, h4 = GaussianOracle.coupled(1.0).assumption_pair(40.0 / 1001.0)
        with pytest.raises(HypothesisError) as exc_info:
            HarmonicStepsizeConstants.for_harmonic_stepsize(
                params, h3, h4, 1.0, 1.0, 0.01, 1.0, a=10.0, b=1000.0,
                f_gap_initial=1.0,
            )
        assert exc_info.value.condition == "a_interval"

    def test_theorem2_reference_constants(self):
        params = TrishParams(gamma1=0.2, gamma2=0.04)
        h3, h4 = GaussianOracle.coupled(1.0).assumption_pair(40.0 / 1001.0)
        tc = HarmonicStepsizeConstants.for_harmonic_stepsize(
            params, h3, h4, 1.0, 1.0, 0.01, 1.0, a=40.0, b=1000.0,
            f_gap_initial=259.92,
        )
        margin = 0.2 - h4 * 0.16
        assert tc.beta1 == pytest.approx(0.5 * min(0.04, margin), rel=1e-14)
        expected_beta2 = max(h3 * 0.16 + 0.5, 0.5 * 0.04 * 0.01)
        assert tc.beta2 == pytest.approx(expected_beta2, rel=1e-14)
        expected_nu = max(
            1600.0 * tc.beta2 / (80.0 * tc.beta1 - 1.0), 1001.0 * 259.92
        )
        assert tc.nu == pytest.approx(expected_nu, rel=1e-14)

    def test_theorem3_reference_constants(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h5, h6 = GaussianOracle.geometric(0.04, 0.25).assumption_pair()
        tc = GeometricNoiseConstants.for_geometric_noise(
            params, h5, h6, 0.25, 1.0, 1.0, m3=0.04, alpha=0.45,
            f_gap_initial=0.5,
        )
        margin = 2.0 - h6 * 0.1
        kappa1 = 0.5 * min(1.9, margin)
        assert tc.kappa1 == pytest.approx(kappa1, rel=1e-14)
        assert tc.rho == pytest.approx(max(1.0 - 0.45 * kappa1, 0.5, 0.25), rel=1e-14)
        expected_kappa2 = h5 * 0.1 + 0.5 * 4.0 * 0.45 * 1.0 * 0.04
        assert tc.kappa2 == pytest.approx(expected_kappa2, rel=1e-14)
        assert tc.omega == pytest.approx(max(0.5, tc.kappa2 / kappa1), rel=1e-14)

    def test_theorem3_rate_is_floored_at_sqrt_zeta(self):
        # at c = 2 the contraction 1 - alpha c kappa1 ~ 0.11 drops below lam = sqrt(0.25)
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h5, h6 = GaussianOracle.geometric(0.04, 0.25).assumption_pair()
        tc = GeometricNoiseConstants.for_geometric_noise(
            params, h5, h6, 0.25, 2.0, 1.0, m3=0.04, alpha=None, f_gap_initial=0.5
        )
        assert tc.rho == 0.5
        with pytest.raises(ValueError, match=r"zeta must lie in \(0, 1\), got 1.0"):
            GeometricNoiseConstants.for_geometric_noise(
                params, h5, h6, 1.0, 2.0, 1.0, m3=0.04, alpha=None, f_gap_initial=0.5
            )

    def test_huge_gamma1_gives_finite_constants(self):
        # gamma1**2 overflows a float here; the constants it enters do not
        params = TrishParams(gamma1=1e300, gamma2=1e299)
        h1, h2 = GaussianOracle.constant(0.1).assumption_pair()
        tc = FixedStepsizeConstants.for_fixed_stepsize(
            params, h1, h2, 1.0, 1.0, 100.0, 1.0, None, 0.5
        )
        assert tc.alpha == pytest.approx(1e-300, rel=1e-14, abs=0.0)
        assert tc.theta2 == pytest.approx(0.5 * 100.0 * (1e300 * tc.alpha) ** 2, rel=1e-14)
        h5, h6 = GaussianOracle.geometric(0.04, 0.25).assumption_pair()
        tc3 = GeometricNoiseConstants.for_geometric_noise(
            params, h5, h6, 0.25, 1.0, 1.0, m3=0.04, alpha=None, f_gap_initial=0.5
        )
        margin = 1e300 - h6 * 9e299
        assert tc3.alpha == pytest.approx(margin / 1e300 / 1e300, rel=1e-12, abs=0.0)
        expected_kappa2 = h5 * 9e299 + 0.5 * 1e300 * (1e300 * tc3.alpha) * 0.04
        assert tc3.kappa2 == pytest.approx(expected_kappa2, rel=1e-12)
        assert all(math.isfinite(v) for v in (tc3.omega, tc3.rho))

    def test_theorem4_skips_pl_requirement(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h1, h2 = GaussianOracle.constant(0.1).assumption_pair()
        tc = FixedStepsizeConstants.for_fixed_stepsize(
            params, h1, h2, pl_constant=None, smoothness=16.0, m1=0.01, m2=1.0,
            alpha=1.0 / 32.0, f_gap_initial=3.12,
        )
        assert tc.pl_constant is None
        assert tc.theta1 == pytest.approx(0.9490026442989964, rel=1e-12)

    def test_theorem5_accepts_any_harmonic_pair(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h3, h4 = GaussianOracle.coupled(1.0).assumption_pair(0.5 / 8.0)
        tc = HarmonicStepsizeConstants.for_harmonic_stepsize(
            params, h3, h4, pl_constant=None, smoothness=8.0, m1=0.01, m2=1.0,
            a=0.5, b=7.0, f_gap_initial=3.12,
        )
        assert tc.theorem_id == 5
        with pytest.raises(ValueError, match="needs a PL constant"):
            tc.nu
        with pytest.raises(ValueError, match="a > 0"):
            HarmonicStepsizeConstants.for_harmonic_stepsize(
                params, h3, h4, None, 8.0, 0.01, 1.0, a=-1.0, b=7.0, f_gap_initial=1.0
            )

    def test_geometric_noise_needs_a_pl_constant(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h5, h6 = GaussianOracle.geometric(0.04, 0.25).assumption_pair()
        with pytest.raises(ValueError, match="PL constant"):
            GeometricNoiseConstants.for_geometric_noise(
                params, h5, h6, 0.25, None, 1.0, m3=0.04, alpha=0.45,
                f_gap_initial=0.5,
            )

    def test_common_validation(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        with pytest.raises(ValueError, match="h constant"):
            FixedStepsizeConstants.for_fixed_stepsize(
                params, -1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.1, 0.5
            )
        with pytest.raises(ValueError, match="h2 must exceed 1"):
            FixedStepsizeConstants.for_fixed_stepsize(
                params, 0.1, 0.9, 1.0, 1.0, 1.0, 1.0, 0.1, 0.5
            )
        with pytest.raises(ValueError, match="PL constant"):
            FixedStepsizeConstants.for_fixed_stepsize(
                params, 0.1, 1.1, 0.0, 1.0, 1.0, 1.0, 0.1, 0.5
            )
        with pytest.raises(ValueError, match="gap"):
            FixedStepsizeConstants.for_fixed_stepsize(
                params, 0.1, 1.1, 1.0, 1.0, 1.0, 1.0, 0.1, -0.5
            )


CONSTANTS_TYPES = [FixedStepsizeConstants, HarmonicStepsizeConstants, GeometricNoiseConstants]


class TestConstantsTypes:
    @pytest.mark.parametrize("cls", CONSTANTS_TYPES)
    def test_a_missing_field_is_refused_at_construction(self, cls):
        with pytest.raises(TypeError, match="missing"):
            cls(f_gap_initial=1.0)

    @pytest.mark.parametrize("cls", CONSTANTS_TYPES)
    def test_every_field_is_required_and_only_pl_constant_may_be_none(self, cls):
        assert all(f.default is MISSING for f in fields(cls))
        nullable = {f.name for f in fields(cls) if "None" in str(f.type)}
        assert nullable == (set() if cls is GeometricNoiseConstants else {"pl_constant"})

    @pytest.mark.parametrize("theorem_id", [1, 2, 3, 4, 5])
    def test_the_theorem_id_is_derived_not_stored(self, theorem_id):
        tc = verification_setup(theorem_id, n_seeds=2).tc
        assert tc.theorem_id == theorem_id
        assert "theorem_id" not in asdict(tc)
        assert (None in asdict(tc).values()) == (theorem_id in (4, 5))


class TestBounds:
    def test_theorem1_starts_at_initial_gap(self):
        tc = reference_theorem1()
        assert theorem_bound(tc, 1) == pytest.approx(0.5, rel=1e-12)

    def test_theorem1_decays_to_plateau(self):
        tc = reference_theorem1()
        rate = 2.0 * tc.pl_constant * tc.alpha * tc.theta1
        plateau = tc.theta2 / rate
        values = [theorem_bound(tc, k) for k in range(1, 60)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(plateau, rel=1e-2)
        assert all(v >= plateau - 1e-15 for v in values)

    def test_theorem2_decay(self):
        params = TrishParams(gamma1=0.2, gamma2=0.04)
        h3, h4 = GaussianOracle.coupled(1.0).assumption_pair(40.0 / 1001.0)
        tc = HarmonicStepsizeConstants.for_harmonic_stepsize(
            params, h3, h4, 1.0, 1.0, 0.01, 1.0, a=40.0, b=1000.0,
            f_gap_initial=259.92,
        )
        assert theorem_bound(tc, 1) == pytest.approx(tc.nu / 1001.0, rel=1e-14)
        assert theorem_bound(tc, 1000) == pytest.approx(tc.nu / 2000.0, rel=1e-14)

    def test_theorem3_geometric_decay(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h5, h6 = GaussianOracle.geometric(0.04, 0.25).assumption_pair()
        tc = GeometricNoiseConstants.for_geometric_noise(
            params, h5, h6, 0.25, 1.0, 1.0, m3=0.04, alpha=0.45,
            f_gap_initial=0.5,
        )
        assert theorem_bound(tc, 1) == pytest.approx(tc.omega, rel=1e-14)
        assert theorem_bound(tc, 11) == pytest.approx(tc.omega * tc.rho**10, rel=1e-12)

    def test_theorem4_average_is_total_over_k(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h1, h2 = GaussianOracle.constant(0.1).assumption_pair()
        tc = FixedStepsizeConstants.for_fixed_stepsize(
            params, h1, h2, None, 16.0, 0.01, 1.0, alpha=1.0 / 32.0, f_gap_initial=3.12
        )
        denom = tc.alpha * tc.theta1
        total = 10.0 * tc.theta2 / denom + 3.12 / denom
        assert theorem_bound(tc, 10) == pytest.approx(total / 10.0, rel=1e-14)

    def test_theorem5_matches_manual_prefix_sum(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h3, h4 = GaussianOracle.coupled(1.0).assumption_pair(0.5 / 8.0)
        tc = HarmonicStepsizeConstants.for_harmonic_stepsize(
            params, h3, h4, None, 8.0, 0.01, 1.0, a=0.5, b=7.0, f_gap_initial=3.12
        )
        k = 7
        manual = sum((0.5 / (7.0 + j)) ** 2 for j in range(1, k + 1))
        assert theorem_bound(tc, k) == pytest.approx(
            (3.12 + tc.beta2 * manual) / tc.beta1, rel=1e-12
        )

    def test_dispatcher_validation(self):
        tc = reference_theorem1()
        with pytest.raises(ValueError, match="1-based"):
            theorem_bound(tc, 0)
        with pytest.raises(ValueError, match="1-based"):
            theorem_bound(tc, np.array([1, 0, 2]))

    def test_theorem1_is_the_initial_gap_at_k1_under_a_huge_plateau(self):
        # plateau + (gap - plateau) would cancel the gap to 0 here
        tc = verification_setup(1, n_seeds=2, gamma1=1e-150, gamma2=1e-151).tc
        assert tc.theta2 / (2.0 * tc.pl_constant * tc.alpha * tc.theta1) > 1e300
        assert theorem_bound(tc, 1) == tc.f_gap_initial
        assert theorem_bound(tc, np.array([1, 2]))[0] == tc.f_gap_initial

    @pytest.mark.parametrize("theorem_id", [1, 2, 3, 4, 5])
    def test_array_k_matches_scalar_loop(self, theorem_id):
        setup = verification_setup(theorem_id, n_seeds=2)
        ks = np.arange(1, setup.horizon + 1)
        curve = theorem_bound(setup.tc, ks)
        scalars = [theorem_bound(setup.tc, int(k)) for k in ks]
        assert all(type(value) is float for value in scalars)
        np.testing.assert_allclose(curve, scalars, rtol=1e-15, atol=0.0)

    def test_theorem5_prefix_sums_match_direct_sums(self):
        tc = verification_setup(5, n_seeds=2).tc
        ks = np.arange(1, 5001)
        sums = [math.fsum((tc.a / (tc.b + j)) ** 2 for j in range(1, k + 1)) for k in ks[::97]]
        direct = [(tc.f_gap_initial + tc.beta2 * total) / tc.beta1 for total in sums]
        np.testing.assert_allclose(theorem_bound(tc, ks)[::97], direct, rtol=1e-15, atol=0.0)


# verification_setup(t).tc for the five reference guarantees and the bound
# at k = 1, 2, 10 and the horizon, as exact floats.  Any change to a
# constant's recipe, however small, shows up here.
PINNED_GUARANTEES = {
    1: (
        FixedStepsizeConstants(
            f_gap_initial=0.5, alpha=0.5, theta1=0.9490026442989964,
            theta2=0.1259973557010036, pl_constant=1.0,
        ),
        {1: 0.5, 2: 0.1514960335515054, 10: 0.13276818189994366, 200: 0.13276818189908687},
    ),
    2: (
        HarmonicStepsizeConstants(
            f_gap_initial=259.92, a=40.0, b=1000.0, beta1=0.019362330021336374,
            beta2=0.5319153824321146, pl_constant=1.0,
        ),
        {1: 259.92, 2: 259.6605988023952, 10: 257.6038811881188, 500: 173.45328},
    ),
    3: (
        GeometricNoiseConstants(
            f_gap_initial=0.5, alpha=0.45, pl_constant=1.0, kappa1=0.9480052885979928,
            kappa2=0.03998942280401434, omega=0.5, rho=0.5733976201309032,
        ),
        {1: 0.5, 2: 0.2866988100654516, 10: 0.003350217317009693, 100: 6.110865529154551e-25},
    ),
    4: (
        FixedStepsizeConstants(
            f_gap_initial=3.1242202548207136, alpha=0.0625, theta1=0.9490026442989964,
            theta2=0.01574966946262545, pl_constant=None,
        ),
        {1: 52.93928219309026, 2: 26.602409278444213, 10: 5.532910946727382,
         200: 0.5289050929446342},
    ),
    5: (
        HarmonicStepsizeConstants(
            f_gap_initial=3.1242202548207136, a=0.5, b=7.0, beta1=0.9493766526868728,
            beta2=4.019947114020072, pl_constant=None,
        ),
        {1: 3.307352423664959, 2: 3.320421255876031, 10: 3.3712741704239026,
         5000: 3.4315363547093494},
    ),
}


class TestPinnedGuarantees:
    @pytest.mark.parametrize("theorem_id", [1, 2, 3, 4, 5])
    def test_reference_constants_and_bounds_are_exact(self, theorem_id):
        expected_tc, expected_bounds = PINNED_GUARANTEES[theorem_id]
        setup = verification_setup(theorem_id, n_seeds=2)
        assert setup.tc == expected_tc
        assert setup.horizon == max(expected_bounds)
        ks = np.array(sorted(expected_bounds))
        assert theorem_bound(setup.tc, ks).tolist() == [expected_bounds[k] for k in ks]
        for k, value in expected_bounds.items():
            assert theorem_bound(setup.tc, k) == value

    def test_derived_nu_is_exact(self):
        assert verification_setup(2, n_seeds=2).tc.nu == 260179.92
