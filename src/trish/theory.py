"""Constants, descent bounds, and convergence guarantees for the safeguarded method.

The analysis revolves around the event E = {grad f(x) . g >= 0} that the
sampled gradient is not an ascent direction.  Everything downstream is
phrased through bounds of the form

    P[E] * E[grad f(x) . g | E]  <=  h_a * d_k + h_b * ||grad f(x)||^2,

with d_k = 1, alpha_k or sqrt(zeta)**(k-1) and one (h_a, h_b) pair per
noise regime, which the Gaussian oracle gives
(GaussianOracle.assumption_pair), plus its second-moment constants
(M1, M2).  This module gives the conditional inner product in closed form
for Gaussian noise and estimates it by Monte Carlo, evaluates the
per-branch expected-decrease bounds, and assembles the constants and
rates for the five convergence guarantees:

    1  fixed stepsize, PL objective: linear rate to a noise plateau
    2  harmonic stepsizes a/(b+k), PL: O(1/k) gap
    3  geometrically decaying noise, PL: linear rate to the optimum
    4  fixed stepsize, no PL: bounded average squared gradient norm
    5  Robbins-Monro stepsizes, no PL: weighted gradient sums converge

Three constants types, one per recipe, build the five:
FixedStepsizeConstants.for_fixed_stepsize for 1 and 4 and
HarmonicStepsizeConstants.for_harmonic_stepsize for 2 and 5, each given a
PL constant or None, and GeometricNoiseConstants.for_geometric_noise for 3.
Every field is required, so an incomplete set of constants cannot be
built; where a type serves two guarantees, its pl_constant picks the one.
Each type holds its own bound formula, and theorem_bound(tc, k) is the one
entry point to all five bounds.  within_margin(mean, se, bound), that is
mean <= bound + SE_MARGIN * se, is the one empirical check: verify_theorem
applies it at each k, and Assumptions 4-6 are one call around their bound:

    within_margin(product, se, h_a + h_b * grad_norm_sq)

where (product, se) = estimate_conditional_inner_product(...), and
h_a * alpha_k (5) or h_a * sqrt(zeta) ** (k - 1) (6) in place of h_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .core import StepCase, TrishParams

__all__ = [
    "SE_MARGIN",
    "standard_error",
    "within_margin",
    "HypothesisError",
    "gaussian_conditional_product",
    "estimate_conditional_inner_product",
    "lemma1_rhs",
    "FixedStepsizeConstants",
    "HarmonicStepsizeConstants",
    "GeometricNoiseConstants",
    "theorem_bound",
]

SE_MARGIN = 3.0  # standard errors a mean may sit above its bound and still pass


def standard_error(samples: np.ndarray) -> float | np.ndarray:
    """SE of the mean of the independent samples along the last axis.

    sd/sqrt(n) with ddof=1, and 0 for one sample.  A 1-D input gives a
    float; an (m, n) input gives the m SEs of its rows, each bitwise equal
    to the float its row alone gives.
    """
    n = samples.shape[-1]
    se = samples.std(axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(samples.shape[:-1])
    return float(se) if samples.ndim == 1 else se


def within_margin(mean, se, bound):
    """Whether mean <= bound + SE_MARGIN * se; elementwise, and False wherever mean is nan."""
    return mean <= bound + SE_MARGIN * se


class HypothesisError(ValueError):
    """A convergence guarantee was requested outside its hypotheses.

    condition names the violated requirement (e.g. "gamma_ratio",
    "stepsize_cap", "a_interval") so callers can report it precisely.
    """

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


def _phi(u: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _Phi(u: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))


def gaussian_conditional_product(grad_norm: float, sigma: float) -> float:
    """Closed form of P[E] * E[grad . g | E] for g = grad + sigma * z.

    The inner product grad . g is scalar Gaussian with mean m^2 and
    standard deviation sigma*m, m = ||grad||, so the positive-part mean
    is m^2 Phi(m/sigma) + sigma m phi(m/sigma).  Zero gradient gives 0.
    """
    if grad_norm < 0.0:
        raise ValueError(f"gradient norm must be nonnegative, got {grad_norm}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    m = grad_norm
    if m == 0.0:
        return 0.0
    u = m / sigma
    return m * m * _Phi(u) + sigma * m * _phi(u)


def estimate_conditional_inner_product(
    grad_true: np.ndarray,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo P[E] * E[grad . g | E] from oracle draws: (product, its SE).

    draw(rng, n) must return n independent oracle samples, shaped (n,)
    for scalar problems or (n, dim) otherwise.  The event is
    grad . g >= 0, with ties counted in.  The product is the mean of the
    positive part of grad . g, so its SE is that of a plain mean; the SE
    is inf when the event never occurred.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    grad = np.atleast_1d(np.asarray(grad_true, dtype=float))
    samples = np.asarray(draw(rng, n_samples), dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape != (n_samples, grad.size):
        raise ValueError(
            f"draw returned shape {samples.shape}, expected ({n_samples}, {grad.size})"
        )
    inner = samples @ grad
    event = inner >= 0.0
    pos_part = np.where(event, inner, 0.0)
    return float(pos_part.mean()), standard_error(pos_part) if event.any() else math.inf


def lemma1_rhs(
    case: StepCase,
    grad_norm_sq: float,
    alpha: float,
    params: TrishParams,
    smoothness: float,
    m1: float | None = None,
    m2: float | None = None,
    conditional_product: float | None = None,
) -> float:
    """Bound on the expected one-step decrease E[f(x+)] - f(x) per branch.

    The scaled branches (1 and 3) consume the oracle moments (M1, M2);
    the normalized branch consumes the conditional inner product instead,
    because there the misdirected mass is what limits progress:

      branch 1:  -g1*a*(1 - g1*L*M2*a/2)*||grad||^2 + g1^2*L*M1*a^2/2
      branch 2:  -g1*a*||grad||^2 + (g1-g2)*a*product + L*a^2/2
      branch 3:  as branch 1 with g2 in place of g1

    The branch-1/3 coefficient on ||grad||^2 stays negative only for
    alpha <= 1/(gamma L M2); the descent tests assume that cap.
    """
    if not alpha > 0.0:
        raise ValueError(f"stepsize must be positive, got {alpha}")
    if grad_norm_sq < 0.0:
        raise ValueError(f"squared norm must be nonnegative, got {grad_norm_sq}")
    if not smoothness > 0.0:
        raise ValueError(f"L must be positive, got {smoothness}")
    g1, g2 = params.gamma1, params.gamma2
    L = smoothness
    if case is StepCase.CASE2:
        if conditional_product is None:
            raise ValueError("normalized branch needs the conditional product")
        return (
            -g1 * alpha * grad_norm_sq
            + (g1 - g2) * alpha * conditional_product
            + 0.5 * L * alpha**2
        )
    if m1 is None or m2 is None:
        raise ValueError("scaled branches need the oracle moments M1, M2")
    gamma = g1 if case is StepCase.CASE1 else g2
    return (
        -gamma * alpha * (1.0 - 0.5 * gamma * L * m2 * alpha) * grad_norm_sq
        + 0.5 * gamma**2 * L * m1 * alpha**2
    )


@dataclass(frozen=True)
class FixedStepsizeConstants:
    """Constants of guarantees 1 (PL) and 4 (pl_constant None): a fixed
    stepsize alpha, the descent coefficient theta1 and the noise term theta2.

      1  E[f(x_k)] - f_star <= P + (1 - r)^(k-1) (gap_1 - P),  r = 2 c alpha theta1,
         P = theta2/r the noise plateau; at k = 1 exactly the initial gap
      4  (1/k) sum_{j<=k} E||grad f(x_j)||^2 <= (k theta2 + gap_1)/(k alpha theta1)

    >>> tc = FixedStepsizeConstants(
    ...     f_gap_initial=1.0, alpha=0.5, theta1=1.0, theta2=0.25, pl_constant=None)
    >>> tc.theorem_id, theorem_bound(tc, 1), theorem_bound(tc, np.array([1, 4]))
    (4, 2.5, array([2.5, 1. ]))
    """

    f_gap_initial: float
    alpha: float
    theta1: float
    theta2: float
    pl_constant: float | None

    @property
    def theorem_id(self) -> int:
        return 4 if self.pl_constant is None else 1

    @classmethod
    def for_fixed_stepsize(
        cls, params: TrishParams, h1: float, h2: float, pl_constant: float | None,
        smoothness: float, m1: float, m2: float, alpha: float | None, f_gap_initial: float,
    ) -> FixedStepsizeConstants:
        """The recipe of guarantees 1 and 4, with the fixed-sigma pair (h1, h2).
        Sets theta1, the stepsize cap 1/(gamma1 L M2), tightened to
        1/(2 c theta1) under PL, and theta2; alpha=None takes the cap."""
        _validate_common(h1, smoothness, (m1, m2), f_gap_initial, pl_constant)
        _, theta1 = _ratio_guard(params, h2, "h2")
        cap, name = 1.0 / (params.gamma1 * smoothness * m2), "1/(gamma1 L M2)"
        if pl_constant is not None and 1.0 / (2.0 * pl_constant * theta1) < cap:
            cap, name = 1.0 / (2.0 * pl_constant * theta1), "1/(2 c theta1)"
        if not cap > 0.0:  # the product under it overflowed
            raise HypothesisError("stepsize_cap", f"stepsize cap {name} rounds to 0")
        alpha = _capped(alpha, cap)
        theta2 = max(  # (gamma1 alpha)^2 stays finite where gamma1**2 overflows
            0.5 * smoothness * m1 * (params.gamma1 * alpha) ** 2,
            # alpha * alpha, unlike alpha**2, gives inf rather than raising
            h1 * (params.gamma1 - params.gamma2) * alpha + 0.5 * smoothness * (alpha * alpha),
        )
        if not math.isfinite(theta2):  # a bound of inf would hold vacuously
            raise HypothesisError(
                "theta2", f"theta2 = {theta2:.6g} at alpha = {alpha:.6g} is not finite"
            )
        return cls(
            f_gap_initial=f_gap_initial, alpha=alpha, theta1=theta1, theta2=theta2,
            pl_constant=pl_constant,
        )

    def _bound(self, k):
        if self.pl_constant is None:
            denom = self.alpha * self.theta1
            return (k * self.theta2 / denom + self.f_gap_initial / denom) / k
        rate = 2.0 * self.pl_constant * self.alpha * self.theta1
        plateau = self.theta2 / rate
        # at k = 1 the gap itself: gap - plateau can cancel it when plateau >> gap
        return np.where(
            np.asarray(k) == 1,
            self.f_gap_initial,
            plateau + (1.0 - rate) ** (k - 1) * (self.f_gap_initial - plateau),
        )


@dataclass(frozen=True)
class HarmonicStepsizeConstants:
    """Constants of guarantees 2 (PL) and 5 (pl_constant None): stepsizes
    a/(b+k), the descent coefficient beta1 and the noise term beta2.

      2  E[f(x_k)] - f_star <= nu/(b + k)
      5  sum_{j<=k} alpha_j E||grad f(x_j)||^2 <= (gap_1 + beta2 sum_{j<=k} alpha_j^2)/beta1,
         finite as k grows; one prefix sum up to the largest k serves every k

    >>> tc = HarmonicStepsizeConstants(
    ...     f_gap_initial=2.0, a=2.0, b=4.0, beta1=0.5, beta2=1.0, pl_constant=1.0)
    >>> tc.theorem_id, tc.nu, theorem_bound(tc, 1), theorem_bound(tc, np.array([1, 6]))
    (2, 10.0, 2.0, array([2., 1.]))
    """

    f_gap_initial: float
    a: float
    b: float
    beta1: float
    beta2: float
    pl_constant: float | None

    @property
    def theorem_id(self) -> int:
        return 5 if self.pl_constant is None else 2

    @property
    def nu(self) -> float:
        """Guarantee 2's numerator, max(a^2 beta2/(2 a c beta1 - 1), (b + 1) gap_1)."""
        if self.pl_constant is None:
            raise ValueError("nu belongs to guarantee 2, which needs a PL constant")
        return max(
            self.a**2 * self.beta2 / (2.0 * self.a * self.pl_constant * self.beta1 - 1.0),
            (self.b + 1.0) * self.f_gap_initial,
        )

    @classmethod
    def for_harmonic_stepsize(
        cls, params: TrishParams, h3: float, h4: float, pl_constant: float | None,
        smoothness: float, m1: float, m2: float, a: float, b: float, f_gap_initial: float,
    ) -> HarmonicStepsizeConstants:
        """The recipe of guarantees 2 and 5, with the coupled pair (h3, h4).
        Sets beta1 and beta2, and checks the interval a must lie in under PL
        and the cap on alpha_1 = a/(b+1).

        Without PL, a/(b+k) satisfies the divergent-sum / convergent-square-sum
        requirements for any a, b > 0; the initial stepsize must respect
        the usual cap so the per-step descent bound applies from k = 1.
        """
        _validate_common(h3, smoothness, (m1, m2), f_gap_initial, pl_constant)
        if not (a > 0.0 and b > 0.0):
            raise ValueError(f"need a > 0 and b > 0, got a={a}, b={b}")
        _, beta1 = _ratio_guard(params, h4, "h4")
        if pl_constant is not None:
            lo = 1.0 / (2.0 * pl_constant * beta1)
            if not lo < a < (b + 1.0) * lo:
                raise HypothesisError(
                    "a_interval",
                    f"a = {a:.6g} outside ({lo:.6g}, {(b + 1.0) * lo:.6g})",
                )
        alpha1 = a / (b + 1.0)
        cap = 1.0 / (params.gamma1 * smoothness * m2)
        if alpha1 > cap * (1.0 + 1e-12):
            raise HypothesisError(
                "stepsize_cap", f"alpha_1 = {alpha1:.6g} exceeds {cap:.6g}"
            )
        beta2 = max(
            h3 * (params.gamma1 - params.gamma2) + 0.5 * smoothness,
            0.5 * params.gamma1**2 * smoothness * m1,
        )
        return cls(
            f_gap_initial=f_gap_initial, a=a, b=b, beta1=beta1, beta2=beta2,
            pl_constant=pl_constant,
        )

    def _bound(self, k):
        if self.pl_constant is not None:
            return self.nu / (self.b + k)
        j = np.arange(1, np.max(k) + 1)
        alpha_sq_sums = np.cumsum((self.a / (self.b + j)) ** 2)[np.asarray(k) - 1]
        return (self.f_gap_initial + self.beta2 * alpha_sq_sums) / self.beta1


@dataclass(frozen=True)
class GeometricNoiseConstants:
    """Constants of guarantee 3: a fixed stepsize alpha under noise decaying
    geometrically, with descent coefficient kappa1 and noise term kappa2.

      3  E[f(x_k)] - f_star <= omega rho^(k-1)

    >>> tc = GeometricNoiseConstants(f_gap_initial=0.5, alpha=0.1, pl_constant=1.0,
    ...     kappa1=1.0, kappa2=0.1, omega=0.5, rho=0.5)
    >>> tc.theorem_id, theorem_bound(tc, 3)
    (3, 0.125)
    """

    f_gap_initial: float
    alpha: float
    pl_constant: float
    kappa1: float
    kappa2: float
    omega: float
    rho: float

    theorem_id: ClassVar[int] = 3

    @classmethod
    def for_geometric_noise(
        cls, params: TrishParams, h5: float, h6: float, zeta: float, pl_constant: float,
        smoothness: float, m3: float, alpha: float | None, f_gap_initial: float,
    ) -> GeometricNoiseConstants:
        """Guarantee 3's recipe: PL objective, noise decaying as M3 zeta**(k-1)
        with pair (h5, h6), whose h5 term decays as lam**(k-1), lam = sqrt(zeta);
        alpha=None takes the cap.  There is no form without PL, so
        pl_constant None raises ValueError."""
        if pl_constant is None:
            raise ValueError("geometric noise has a guarantee only under PL; got no PL constant")
        _validate_common(h5, smoothness, (m3,), f_gap_initial, pl_constant)
        if not 0.0 < zeta < 1.0:
            raise ValueError(f"zeta must lie in (0, 1), got {zeta}")
        margin, kappa1 = _ratio_guard(params, h6, "h6")
        # gamma1 is never squared on its own: gamma1**2 overflows for
        # gamma1 above ~1e154, while these constants stay finite.
        cap = min(
            margin / params.gamma1 / (params.gamma1 * smoothness),
            1.0 / (params.gamma1 * smoothness),
            1.0 / (pl_constant * kappa1),
        )
        alpha = _capped(alpha, cap)
        kappa2 = (
            h5 * (params.gamma1 - params.gamma2)
            + 0.5 * params.gamma1 * (params.gamma1 * alpha) * smoothness * m3
        )
        omega = max(f_gap_initial, kappa2 / (pl_constant * kappa1))
        rho = max(1.0 - alpha * pl_constant * kappa1, math.sqrt(zeta), zeta)
        if not 0.0 < rho < 1.0:
            raise HypothesisError("contraction", f"rate rho = {rho:.6g} not in (0, 1)")
        return cls(
            f_gap_initial=f_gap_initial, alpha=alpha, pl_constant=pl_constant,
            kappa1=kappa1, kappa2=kappa2, omega=omega, rho=rho,
        )

    def _bound(self, k):
        return self.omega * self.rho ** (k - 1)


def _ratio_guard(params: TrishParams, h_grad: float, name: str) -> tuple[float, float]:
    """Check gamma1/gamma2 < h/(h-1); return the margin gamma1 - h*(gamma1-gamma2)
    and the descent coefficient min(gamma2, margin)/2: theta1, beta1 or kappa1."""
    if not h_grad > 1.0:
        raise ValueError(f"{name} must exceed 1, got {h_grad}")
    margin = params.gamma1 - h_grad * (params.gamma1 - params.gamma2)
    if not margin > 0.0:
        raise HypothesisError(
            "gamma_ratio",
            f"gamma1/gamma2 = {params.gamma1 / params.gamma2:.6g} must be below "
            f"{name}/({name}-1) = {h_grad / (h_grad - 1.0):.6g}",
        )
    return margin, 0.5 * min(params.gamma2, margin)


def _capped(alpha: float | None, cap: float) -> float:
    """A fixed stepsize checked against its cap; None takes the cap itself."""
    if alpha is None:
        return cap
    if not 0.0 < alpha <= cap * (1.0 + 1e-12):
        raise HypothesisError("stepsize_cap", f"alpha = {alpha:.6g} outside (0, {cap:.6g}]")
    return alpha


def _validate_common(
    h: float, smoothness: float, moments: tuple, gap: float, pl_constant: float | None
) -> None:
    """Checks every guarantee makes; pl_constant None means no PL inequality."""
    if not h > 0.0:
        raise ValueError(f"h constant must be positive, got {h}")
    if not smoothness > 0.0:
        raise ValueError(f"L must be positive, got {smoothness}")
    if not all(m > 0.0 for m in moments):
        raise ValueError(f"moment constants must be positive, got {', '.join(map(str, moments))}")
    if gap < 0.0:
        raise ValueError(f"initial gap must be nonnegative, got {gap}")
    if pl_constant is not None and not pl_constant > 0.0:
        raise ValueError(f"PL constant must be positive, got {pl_constant}")


def theorem_bound(
    tc: FixedStepsizeConstants | HarmonicStepsizeConstants | GeometricNoiseConstants,
    k: int | np.ndarray,
) -> float | np.ndarray:
    """Guarantee tc.theorem_id's bound at k, an int (gives a float) or an int
    array (gives an array); the formula is tc's own, shown in its docstring."""
    if np.any(np.asarray(k) < 1):
        raise ValueError(f"iteration index is 1-based, got {np.min(k)}")
    bound = tc._bound(k)
    return float(bound) if np.ndim(k) == 0 else bound
