"""Tests for the assumption constants, descent bounds, and convergence rates.

Closed-form quantities are cross-checked against independent quadrature,
Monte Carlo estimators against the closed forms, and every guarantee's
constants against hand-derived values for a frozen reference setup.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from trish.core import StepCase, TrishParams
from trish.harness import verification_setup
from trish.theory import (
    AssumptionConstants,
    ConditionalInnerProductEstimate,
    HypothesisError,
    TheoremConstants,
    check_assumption4,
    check_assumption5,
    check_assumption6,
    estimate_conditional_inner_product,
    gaussian_conditional_product,
    lemma1_rhs,
    sg_comparison_bound,
    standard_error,
    theorem_bound,
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


class TestAssumptionConstants:
    def test_fixed_sigma_hand_values(self):
        h = AssumptionConstants.for_fixed_sigma(TWO_ROOT_2PI)
        assert h.h1 == pytest.approx(1.0, rel=1e-15)
        assert h.h2 == pytest.approx(2.0, rel=1e-15)
        h = AssumptionConstants.for_fixed_sigma(1.0)
        assert h.h1 == pytest.approx(0.19947114020071635, rel=1e-14)
        assert h.h2 == pytest.approx(1.1994711402007163, rel=1e-14)

    def test_coupled_hand_values(self):
        h = AssumptionConstants.for_coupled(alpha_max=0.5, multiplier=2.0)
        assert h.h3 == pytest.approx(2.0 * 0.19947114020071635, rel=1e-14)
        assert h.h4 == pytest.approx(1.0 + 0.19947114020071635, rel=1e-14)

    def test_geometric_hand_values(self):
        h = AssumptionConstants.for_geometric(m3=4.0, zeta=0.25)
        assert h.h5 == pytest.approx(2.0 / TWO_ROOT_2PI, rel=1e-15)
        assert h.h6 == pytest.approx(1.0 + 2.0 / TWO_ROOT_2PI, rel=1e-15)
        assert h.lam == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            AssumptionConstants.for_fixed_sigma(0.0)
        with pytest.raises(ValueError):
            AssumptionConstants.for_coupled(alpha_max=-1.0)
        with pytest.raises(ValueError):
            AssumptionConstants.for_coupled(alpha_max=1.0, multiplier=0.0)
        with pytest.raises(ValueError):
            AssumptionConstants.for_geometric(m3=0.0, zeta=0.5)
        with pytest.raises(ValueError):
            AssumptionConstants.for_geometric(m3=1.0, zeta=1.0)


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


class TestAssumptionInequalities:
    """The h pairs really do dominate the closed-form conditional product."""

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0, 5.0])
    def test_fixed_sigma_pair(self, sigma):
        h = AssumptionConstants.for_fixed_sigma(sigma)
        for m in np.geomspace(1e-4, 100.0, 60):
            product = gaussian_conditional_product(m, sigma)
            assert product <= h.h1 + h.h2 * m * m + 1e-12

    def test_coupled_pair(self):
        multiplier, alpha_max = 2.0, 0.7
        h = AssumptionConstants.for_coupled(alpha_max=alpha_max, multiplier=multiplier)
        for alpha_k in (0.01, 0.2, alpha_max):
            sigma_k = multiplier * alpha_k
            for m in np.geomspace(1e-4, 100.0, 40):
                product = gaussian_conditional_product(m, sigma_k)
                assert product <= h.h3 * alpha_k + h.h4 * m * m + 1e-12

    def test_geometric_pair(self):
        m3, zeta = 4.0, 0.25
        h = AssumptionConstants.for_geometric(m3=m3, zeta=zeta)
        for k in (1, 2, 5, 20):
            sigma_k = math.sqrt(m3 * zeta ** (k - 1))
            for m in np.geomspace(1e-4, 100.0, 40):
                product = gaussian_conditional_product(m, sigma_k)
                assert product <= h.h5 * h.lam ** (k - 1) + h.h6 * m * m + 1e-12


def gaussian_draw(m: float, sigma: float):
    def draw(rng, n):
        return m + sigma * rng.standard_normal(n)

    return draw


class TestEstimateConditionalInnerProduct:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(42)
        est = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), 40000, rng
        )
        closed = gaussian_conditional_product(1.0, 1.0)
        assert abs(est.product - closed) <= 4.0 * est.standard_error
        assert est.standard_error < 0.02

    def test_law_of_total_expectation(self):
        rng = np.random.default_rng(7)
        est = estimate_conditional_inner_product(
            np.array([2.0]), gaussian_draw(2.0, 3.0), 50000, rng
        )
        # E[grad . g] = ||grad||^2 = 4 for the unbiased oracle
        assert abs(est.mean_inner - 4.0) <= 4.0 * est.mean_inner_se
        # decomposition P E[.|E] + (1-P) E[.|not E] reassembles the mean
        total = (
            est.prob_event * est.conditional_mean
            + (1.0 - est.prob_event) * est.complement_mean
        )
        assert total == pytest.approx(est.mean_inner, rel=1e-10)
        assert est.product == pytest.approx(
            est.prob_event * est.conditional_mean, rel=1e-10
        )

    def test_standard_error_scale(self):
        # SE of the positive-part mean should track sd/sqrt(n)
        rng = np.random.default_rng(3)
        n = 20000
        est = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), n, rng
        )
        check = np.maximum(1.0 + 1.0 * np.random.default_rng(5).standard_normal(200000), 0.0)
        analytic = float(check.std() / math.sqrt(n))
        assert 0.6 * analytic <= est.standard_error <= 1.6 * analytic

    def test_quadrupling_samples_halves_the_se(self):
        closed = gaussian_conditional_product(1.0, 1.0)
        small = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), 8000, np.random.default_rng(11)
        )
        large = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), 32000, np.random.default_rng(12)
        )
        assert abs(small.product - closed) <= 4.0 * small.standard_error
        assert abs(large.product - closed) <= 4.0 * large.standard_error
        # quadrupling n roughly halves the SE
        ratio = small.standard_error / large.standard_error
        assert 1.4 <= ratio <= 2.9

    def test_standard_error_is_sd_over_root_n(self):
        n = 5000
        est = estimate_conditional_inner_product(
            np.array([1.0]), gaussian_draw(1.0, 1.0), n, np.random.default_rng(4)
        )
        inner = gaussian_draw(1.0, 1.0)(np.random.default_rng(4), n)
        pos_part = np.where(inner >= 0.0, inner, 0.0)
        assert est.standard_error == np.std(pos_part, ddof=1) / math.sqrt(n)
        assert est.mean_inner_se == np.std(inner, ddof=1) / math.sqrt(n)
        assert standard_error(inner[:1]) == 0.0

    def test_degenerate_event(self):
        est = estimate_conditional_inner_product(
            np.array([1.0]), lambda rng, n: -np.ones(n), 100, np.random.default_rng(0)
        )
        assert est.degenerate
        assert est.prob_event == 0.0
        assert est.product == 0.0
        assert math.isinf(est.standard_error)
        assert est.complement_mean == pytest.approx(-1.0)

    def test_ties_count_into_event(self):
        est = estimate_conditional_inner_product(
            np.array([1.0]), lambda rng, n: np.zeros(n), 50, np.random.default_rng(0)
        )
        assert est.prob_event == 1.0
        assert est.product == 0.0
        assert not est.degenerate

    def test_vector_gradient(self):
        grad = np.array([0.6, -0.8])

        def draw(rng, n):
            return grad + 0.5 * rng.standard_normal((n, 2))

        est = estimate_conditional_inner_product(grad, draw, 30000, np.random.default_rng(8))
        assert abs(est.mean_inner - 1.0) <= 4.0 * est.mean_inner_se

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least one sample"):
            estimate_conditional_inner_product(np.array([1.0]), gaussian_draw(1, 1), 0, rng)
        with pytest.raises(ValueError, match="shape"):
            estimate_conditional_inner_product(
                np.array([1.0, 2.0]), lambda r, n: np.zeros((n, 3)), 10, rng
            )


def _fake_estimate(product: float, se: float = 0.01) -> ConditionalInnerProductEstimate:
    return ConditionalInnerProductEstimate(
        prob_event=0.9,
        conditional_mean=product / 0.9,
        complement_mean=-0.1,
        product=product,
        standard_error=se,
        mean_inner=product - 0.01,
        mean_inner_se=se,
        n_samples=1000,
    )


class TestAssumptionChecks:
    def test_check4(self):
        est = _fake_estimate(1.0)
        assert check_assumption4(est, h1=0.2, h2=1.2, grad_norm_sq=1.0)
        assert not check_assumption4(_fake_estimate(2.0), h1=0.2, h2=1.2, grad_norm_sq=1.0)
        # the SE allowance rescues borderline estimates
        assert check_assumption4(
            _fake_estimate(1.4 + 0.02, se=0.01), h1=0.2, h2=1.2, grad_norm_sq=1.0
        )

    def test_check5(self):
        est = _fake_estimate(1.0)
        assert check_assumption5(est, h3=0.5, h4=1.2, grad_norm_sq=1.0, alpha_k=0.1)
        assert not check_assumption5(
            _fake_estimate(1.5), h3=0.5, h4=1.2, grad_norm_sq=1.0, alpha_k=0.1
        )

    def test_check6(self):
        est = _fake_estimate(1.0)
        assert check_assumption6(est, h5=0.5, h6=1.2, lam=0.5, k=1, grad_norm_sq=1.0)
        # the decaying term shrinks the budget as k grows
        assert not check_assumption6(
            _fake_estimate(1.5), h5=0.5, h6=1.2, lam=0.5, k=10, grad_norm_sq=1.0
        )
        with pytest.raises(ValueError, match="1-based"):
            check_assumption6(est, h5=0.5, h6=1.2, lam=0.5, k=0, grad_norm_sq=1.0)


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


def reference_theorem1() -> TheoremConstants:
    """Frozen 1-d quadratic setup: c = L = 1, sigma = 0.1, alpha = 0.5."""
    params = TrishParams(gamma1=2.0, gamma2=1.9)
    h = AssumptionConstants.for_fixed_sigma(0.1)
    return TheoremConstants.for_fixed_stepsize(
        params,
        h1=h.h1,
        h2=h.h2,
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
        h = AssumptionConstants.for_fixed_sigma(0.1)
        with pytest.raises(HypothesisError) as exc_info:
            TheoremConstants.for_fixed_stepsize(
                params, h.h1, h.h2, 1.0, 1.0, 0.01, 1.0, 0.1, 0.5
            )
        assert exc_info.value.condition == "gamma_ratio"
        assert "must be below" in str(exc_info.value)

    def test_stepsize_cap_guard(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h = AssumptionConstants.for_fixed_sigma(0.1)
        with pytest.raises(HypothesisError) as exc_info:
            TheoremConstants.for_fixed_stepsize(
                params, h.h1, h.h2, 1.0, 1.0, 0.01, 1.0, 0.6, 0.5
            )
        assert exc_info.value.condition == "stepsize_cap"

    def test_pl_cap_that_rounds_to_zero_is_rejected(self):
        # 1/(2 c theta1) underflows to 0 with c = 1e300 and theta1 near 4e306
        params = TrishParams(gamma1=1e308, gamma2=1e307)
        h = AssumptionConstants.for_fixed_sigma(0.1)
        with pytest.raises(HypothesisError, match=r"stepsize cap 1/\(2 c theta1\) rounds to 0"):
            TheoremConstants.for_fixed_stepsize(
                params, h.h1, h.h2, 1e300, 1.0, 0.01, 1.0, None, 0.5
            )

    def test_boundary_stepsize_accepted(self):
        # cap is min(1/(2 c theta1), 1/(gamma1 L M2)) = 0.5 here; equality passes
        tc = reference_theorem1()
        assert tc.alpha == 0.5

    def test_no_alpha_takes_the_cap(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h = AssumptionConstants.for_fixed_sigma(0.1)
        tc1 = TheoremConstants.for_fixed_stepsize(
            params, h.h1, h.h2, 1.0, 1.0, 0.01, 1.0, None, 0.5
        )
        assert tc1 == reference_theorem1()
        tc4 = TheoremConstants.for_fixed_stepsize(
            params, h.h1, h.h2, None, 16.0, 0.01, 1.0, None, 3.12
        )
        assert tc4.alpha == 1.0 / 32.0
        assert tc4.theorem_id == 4

    def test_theorem2_a_interval_guard(self):
        params = TrishParams(gamma1=0.2, gamma2=0.04)
        h = AssumptionConstants.for_coupled(alpha_max=40.0 / 1001.0)
        with pytest.raises(HypothesisError) as exc_info:
            TheoremConstants.for_harmonic_stepsize(
                params, h.h3, h.h4, 1.0, 1.0, 0.01, 1.0, a=10.0, b=1000.0,
                f_gap_initial=1.0,
            )
        assert exc_info.value.condition == "a_interval"

    def test_theorem2_reference_constants(self):
        params = TrishParams(gamma1=0.2, gamma2=0.04)
        h = AssumptionConstants.for_coupled(alpha_max=40.0 / 1001.0)
        tc = TheoremConstants.for_harmonic_stepsize(
            params, h.h3, h.h4, 1.0, 1.0, 0.01, 1.0, a=40.0, b=1000.0,
            f_gap_initial=259.92,
        )
        margin = 0.2 - h.h4 * 0.16
        assert tc.beta1 == pytest.approx(0.5 * min(0.04, margin), rel=1e-14)
        expected_beta2 = max(h.h3 * 0.16 + 0.5, 0.5 * 0.04 * 0.01)
        assert tc.beta2 == pytest.approx(expected_beta2, rel=1e-14)
        expected_nu = max(
            1600.0 * tc.beta2 / (80.0 * tc.beta1 - 1.0), 1001.0 * 259.92
        )
        assert tc.nu == pytest.approx(expected_nu, rel=1e-14)

    def test_theorem3_reference_constants(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h = AssumptionConstants.for_geometric(m3=0.04, zeta=0.25)
        tc = TheoremConstants.for_geometric_noise(
            params, h.h5, h.h6, h.lam, 0.25, 1.0, 1.0, m3=0.04, alpha=0.45,
            f_gap_initial=0.5,
        )
        margin = 2.0 - h.h6 * 0.1
        kappa1 = 0.5 * min(1.9, margin)
        assert tc.kappa1 == pytest.approx(kappa1, rel=1e-14)
        assert tc.rho == pytest.approx(max(1.0 - 0.45 * kappa1, 0.5, 0.25), rel=1e-14)
        expected_kappa2 = h.h5 * 0.1 + 0.5 * 4.0 * 0.45 * 1.0 * 0.04
        assert tc.kappa2 == pytest.approx(expected_kappa2, rel=1e-14)
        assert tc.omega == pytest.approx(max(0.5, tc.kappa2 / kappa1), rel=1e-14)

    def test_huge_gamma1_gives_finite_constants(self):
        # gamma1**2 overflows a float here; the constants it enters do not
        params = TrishParams(gamma1=1e300, gamma2=1e299)
        h = AssumptionConstants.for_fixed_sigma(0.1)
        tc = TheoremConstants.for_fixed_stepsize(
            params, h.h1, h.h2, 1.0, 1.0, 100.0, 1.0, None, 0.5
        )
        assert tc.alpha == pytest.approx(1e-300, rel=1e-14, abs=0.0)
        assert tc.theta2 == pytest.approx(0.5 * 100.0 * (1e300 * tc.alpha) ** 2, rel=1e-14)
        g = AssumptionConstants.for_geometric(m3=0.04, zeta=0.25)
        tc3 = TheoremConstants.for_geometric_noise(
            params, g.h5, g.h6, g.lam, 0.25, 1.0, 1.0, m3=0.04, alpha=None, f_gap_initial=0.5
        )
        margin = 1e300 - g.h6 * 9e299
        assert tc3.alpha == pytest.approx(margin / 1e300 / 1e300, rel=1e-12, abs=0.0)
        expected_kappa2 = g.h5 * 9e299 + 0.5 * 1e300 * (1e300 * tc3.alpha) * 0.04
        assert tc3.kappa2 == pytest.approx(expected_kappa2, rel=1e-12)
        assert all(math.isfinite(v) for v in (tc3.omega, tc3.rho))

    def test_theorem4_skips_pl_requirement(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h = AssumptionConstants.for_fixed_sigma(0.1)
        tc = TheoremConstants.for_fixed_stepsize(
            params, h.h1, h.h2, pl_constant=None, smoothness=16.0, m1=0.01, m2=1.0,
            alpha=1.0 / 32.0, f_gap_initial=3.12,
        )
        assert tc.pl_constant is None
        assert tc.theta1 == pytest.approx(0.9490026442989964, rel=1e-12)

    def test_theorem5_accepts_any_harmonic_pair(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h = AssumptionConstants.for_coupled(alpha_max=0.5 / 8.0)
        tc = TheoremConstants.for_harmonic_stepsize(
            params, h.h3, h.h4, pl_constant=None, smoothness=8.0, m1=0.01, m2=1.0,
            a=0.5, b=7.0, f_gap_initial=3.12,
        )
        assert tc.theorem_id == 5
        assert tc.beta1 is not None and tc.beta2 is not None
        with pytest.raises(ValueError, match="a > 0"):
            TheoremConstants.for_harmonic_stepsize(
                params, h.h3, h.h4, None, 8.0, 0.01, 1.0, a=-1.0, b=7.0, f_gap_initial=1.0
            )

    def test_geometric_noise_needs_a_pl_constant(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        g = AssumptionConstants.for_geometric(m3=0.04, zeta=0.25)
        with pytest.raises(ValueError, match="PL constant"):
            TheoremConstants.for_geometric_noise(
                params, g.h5, g.h6, g.lam, 0.25, None, 1.0, m3=0.04, alpha=0.45,
                f_gap_initial=0.5,
            )

    def test_common_validation(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        with pytest.raises(ValueError, match="h constant"):
            TheoremConstants.for_fixed_stepsize(
                params, -1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.1, 0.5
            )
        with pytest.raises(ValueError, match="h2 must exceed 1"):
            TheoremConstants.for_fixed_stepsize(
                params, 0.1, 0.9, 1.0, 1.0, 1.0, 1.0, 0.1, 0.5
            )
        with pytest.raises(ValueError, match="PL constant"):
            TheoremConstants.for_fixed_stepsize(
                params, 0.1, 1.1, 0.0, 1.0, 1.0, 1.0, 0.1, 0.5
            )
        with pytest.raises(ValueError, match="gap"):
            TheoremConstants.for_fixed_stepsize(
                params, 0.1, 1.1, 1.0, 1.0, 1.0, 1.0, 0.1, -0.5
            )


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
        h = AssumptionConstants.for_coupled(alpha_max=40.0 / 1001.0)
        tc = TheoremConstants.for_harmonic_stepsize(
            params, h.h3, h.h4, 1.0, 1.0, 0.01, 1.0, a=40.0, b=1000.0,
            f_gap_initial=259.92,
        )
        assert theorem_bound(tc, 1) == pytest.approx(tc.nu / 1001.0, rel=1e-14)
        assert theorem_bound(tc, 1000) == pytest.approx(tc.nu / 2000.0, rel=1e-14)

    def test_theorem3_geometric_decay(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h = AssumptionConstants.for_geometric(m3=0.04, zeta=0.25)
        tc = TheoremConstants.for_geometric_noise(
            params, h.h5, h.h6, h.lam, 0.25, 1.0, 1.0, m3=0.04, alpha=0.45,
            f_gap_initial=0.5,
        )
        assert theorem_bound(tc, 1) == pytest.approx(tc.omega, rel=1e-14)
        assert theorem_bound(tc, 11) == pytest.approx(tc.omega * tc.rho**10, rel=1e-12)

    def test_theorem4_average_is_total_over_k(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h = AssumptionConstants.for_fixed_sigma(0.1)
        tc = TheoremConstants.for_fixed_stepsize(
            params, h.h1, h.h2, None, 16.0, 0.01, 1.0, alpha=1.0 / 32.0, f_gap_initial=3.12
        )
        denom = tc.alpha * tc.theta1
        total = 10.0 * tc.theta2 / denom + 3.12 / denom
        assert theorem_bound(tc, 10) == pytest.approx(total / 10.0, rel=1e-14)

    def test_theorem5_matches_manual_prefix_sum(self):
        params = TrishParams(gamma1=2.0, gamma2=1.9)
        h = AssumptionConstants.for_coupled(alpha_max=0.5 / 8.0)
        tc = TheoremConstants.for_harmonic_stepsize(
            params, h.h3, h.h4, None, 8.0, 0.01, 1.0, a=0.5, b=7.0, f_gap_initial=3.12
        )
        k = 7
        manual = sum((0.5 / (7.0 + j)) ** 2 for j in range(1, k + 1))
        assert theorem_bound(tc, k) == pytest.approx(
            (3.12 + tc.beta2 * manual) / tc.beta1, rel=1e-12
        )

    def test_dispatcher_validation(self):
        tc = reference_theorem1()
        with pytest.raises(ValueError, match="unknown theorem"):
            theorem_bound(TheoremConstants(theorem_id=6, f_gap_initial=0.5, smoothness=1.0), 1)
        with pytest.raises(ValueError, match="1-based"):
            theorem_bound(tc, 0)
        with pytest.raises(ValueError, match="1-based"):
            theorem_bound(tc, np.array([1, 0, 2]))

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
        TheoremConstants(
            theorem_id=1, f_gap_initial=0.5, smoothness=1.0, alpha=0.5, pl_constant=1.0,
            theta1=0.9490026442989964, theta2=0.1259973557010036,
        ),
        {1: 0.5, 2: 0.1514960335515054, 10: 0.13276818189994366, 200: 0.13276818189908687},
    ),
    2: (
        TheoremConstants(
            theorem_id=2, f_gap_initial=259.92, smoothness=1.0, pl_constant=1.0,
            beta1=0.019362330021336374, beta2=0.5319153824321146, nu=260179.92,
            a=40.0, b=1000.0,
        ),
        {1: 259.92, 2: 259.6605988023952, 10: 257.6038811881188, 500: 173.45328},
    ),
    3: (
        TheoremConstants(
            theorem_id=3, f_gap_initial=0.5, smoothness=1.0, alpha=0.45, pl_constant=1.0,
            kappa1=0.9480052885979928, kappa2=0.03998942280401434, omega=0.5,
            rho=0.5733976201309032,
        ),
        {1: 0.5, 2: 0.2866988100654516, 10: 0.003350217317009693, 100: 6.110865529154551e-25},
    ),
    4: (
        TheoremConstants(
            theorem_id=4, f_gap_initial=3.1242202548207136, smoothness=8.0, alpha=0.0625,
            theta1=0.9490026442989964, theta2=0.01574966946262545,
        ),
        {1: 52.93928219309026, 2: 26.602409278444213, 10: 5.532910946727382,
         200: 0.5289050929446342},
    ),
    5: (
        TheoremConstants(
            theorem_id=5, f_gap_initial=3.1242202548207136, smoothness=8.0,
            beta1=0.9493766526868728, beta2=4.019947114020072, a=0.5, b=7.0,
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


class TestSgComparisonBound:
    def test_frozen_value(self):
        value = sg_comparison_bound(1.25, 1.0, h1=1.0, h2=1.25, pl_constant=1.0, m2=1.0)
        assert value == pytest.approx(0.6933333333333334, rel=1e-12)

    def test_boundary_equality_with_sg_plateau(self):
        # at gamma2 = sqrt(8/(5 M1)) with gamma1 = 1.25 gamma2 the value
        # lands exactly on the plain-SG plateau M1/(2c)
        m1 = 4.0
        gamma2 = math.sqrt(8.0 / (5.0 * m1))
        value = sg_comparison_bound(
            1.25 * gamma2, gamma2, h1=4.0, h2=1.0, pl_constant=1.0, m2=1.0
        )
        assert value == pytest.approx(m1 / 2.0, rel=1e-12)

    def test_strict_improvement_above_boundary(self):
        m1 = 4.0
        gamma2 = 1.1 * math.sqrt(8.0 / (5.0 * m1))
        value = sg_comparison_bound(
            1.25 * gamma2, gamma2, h1=4.0, h2=1.0, pl_constant=1.0, m2=1.0
        )
        assert value < m1 / 2.0

    def test_equal_gammas_collapse_to_scaled_sg(self):
        value = sg_comparison_bound(1.0, 1.0, h1=1.0, h2=1.25, pl_constant=1.0, m2=1.0)
        assert value == pytest.approx(0.5, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            sg_comparison_bound(1.0, 2.0, 1.0, 1.25, 1.0, 1.0)
        with pytest.raises(ValueError):
            sg_comparison_bound(2.0, 1.0, 1.0, 0.5, 1.0, 1.0)
        with pytest.raises(HypothesisError) as exc_info:
            sg_comparison_bound(2.0, 0.5, 1.0, 2.0, 1.0, 1.0)
        assert exc_info.value.condition == "gamma_ratio"
