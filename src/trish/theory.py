"""Constants, descent bounds, and convergence guarantees for the safeguarded method.

The analysis revolves around the event E = {grad f(x) . g >= 0} that the
sampled gradient is not an ascent direction.  Everything downstream is
phrased through bounds of the form

    P[E] * E[grad f(x) . g | E]  <=  h_a * (decaying term) + h_b * ||grad f(x)||^2,

with one (h_a, h_b) pair per noise regime, plus second-moment constants
(M1, M2) from the oracle.  This module computes the h pairs for Gaussian
noise, estimates the conditional inner product by Monte Carlo, evaluates
the per-branch expected-decrease bounds, and assembles the constants and
rates for the five convergence guarantees:

    1  fixed stepsize, PL objective: linear rate to a noise plateau
    2  harmonic stepsizes a/(b+k), PL: O(1/k) gap
    3  geometrically decaying noise, PL: linear rate to the optimum
    4  fixed stepsize, no PL: bounded average squared gradient norm
    5  Robbins-Monro stepsizes, no PL: weighted gradient sums converge

Three TheoremConstants recipes build the five: for_fixed_stepsize for
1 and 4 and for_harmonic_stepsize for 2 and 5, each given a PL constant
or None, and for_geometric_noise for 3.  theorem_bound(tc, k) is the one
entry point to all five bounds.  Every empirical check, here and in the
harness, passes a Monte Carlo mean when mean <= bound + SE_MARGIN * SE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import StepCase, TrishParams

__all__ = [
    "SE_MARGIN",
    "standard_error",
    "HypothesisError",
    "AssumptionConstants",
    "ConditionalInnerProductEstimate",
    "gaussian_conditional_product",
    "estimate_conditional_inner_product",
    "check_assumption4",
    "check_assumption5",
    "check_assumption6",
    "lemma1_rhs",
    "TheoremConstants",
    "theorem_bound",
    "sg_comparison_bound",
]

_TWO_ROOT_2PI = 2.0 * math.sqrt(2.0 * math.pi)

SE_MARGIN = 3.0  # standard errors a mean may sit above its bound and still pass


def standard_error(samples: np.ndarray) -> float:
    """SE of the mean of independent samples, sd/sqrt(n) with ddof=1; 0 for one sample."""
    n = samples.size
    return float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


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


@dataclass(frozen=True)
class AssumptionConstants:
    """An (h_a, h_b) pair for one noise regime, Gaussian oracle.

    Exactly one constructor applies per regime:

      for_fixed_sigma:   h1 = sigma/(2 sqrt(2 pi)),      h2 = 1 + h1
      for_coupled:       h3 = m/(2 sqrt(2 pi)),          h4 = 1 + m*alpha_max/(2 sqrt(2 pi))
      for_geometric:     h5 = sqrt(M3)/(2 sqrt(2 pi)),   h6 = 1 + h5, lam = sqrt(zeta)

    The fixed pair bounds the conditional product by h1 + h2*||grad||^2;
    the coupled pair replaces the constant term by h3*alpha_k; the
    geometric pair by h5*lam**(k-1).
    """

    h1: float | None = None
    h2: float | None = None
    h3: float | None = None
    h4: float | None = None
    h5: float | None = None
    h6: float | None = None
    lam: float | None = None

    @classmethod
    def for_fixed_sigma(cls, sigma: float) -> "AssumptionConstants":
        if not sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        h1 = sigma / _TWO_ROOT_2PI
        return cls(h1=h1, h2=1.0 + h1)

    @classmethod
    def for_coupled(cls, alpha_max: float, multiplier: float = 1.0) -> "AssumptionConstants":
        """Noise sigma_k = multiplier * alpha_k with alpha_k <= alpha_max."""
        if not alpha_max > 0.0:
            raise ValueError(f"alpha_max must be positive, got {alpha_max}")
        if not multiplier > 0.0:
            raise ValueError(f"multiplier must be positive, got {multiplier}")
        return cls(
            h3=multiplier / _TWO_ROOT_2PI,
            h4=1.0 + multiplier * alpha_max / _TWO_ROOT_2PI,
        )

    @classmethod
    def for_geometric(cls, m3: float, zeta: float) -> "AssumptionConstants":
        """Noise sigma_k^2 = M3 * zeta**(k-1)."""
        if not m3 > 0.0:
            raise ValueError(f"M3 must be positive, got {m3}")
        if not 0.0 < zeta < 1.0:
            raise ValueError(f"zeta must lie in (0, 1), got {zeta}")
        h5 = math.sqrt(m3) / _TWO_ROOT_2PI
        return cls(h5=h5, h6=1.0 + h5, lam=math.sqrt(zeta))


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


@dataclass(frozen=True)
class ConditionalInnerProductEstimate:
    """Monte Carlo estimate of the conditional inner product.

    product = prob_event * conditional_mean is the quantity the
    assumption checks bound; standard_error is its SE (inf if E never occurred).
    mean_inner estimates the raw E[grad . g], which the law of total
    expectation pins to ||grad||^2 for an unbiased oracle.
    """

    prob_event: float
    conditional_mean: float
    complement_mean: float
    product: float
    standard_error: float
    mean_inner: float
    mean_inner_se: float
    n_samples: int

    @property
    def degenerate(self) -> bool:
        """True when the event never occurred, leaving the product undefined."""
        return self.prob_event == 0.0


def estimate_conditional_inner_product(
    grad_true: np.ndarray,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    n_samples: int,
    rng: np.random.Generator,
) -> ConditionalInnerProductEstimate:
    """Estimate P[E], E[grad . g | E], and their product from oracle draws.

    draw(rng, n) must return n independent oracle samples, shaped (n,)
    for scalar problems or (n, dim) otherwise.  The event is
    grad . g >= 0, with ties counted in.  The product is the mean of the
    positive part of grad . g, so its SE is that of a plain mean.
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
    n_event = int(event.sum())
    pos_part = np.where(event, inner, 0.0)
    product = float(pos_part.mean())
    return ConditionalInnerProductEstimate(
        prob_event=n_event / n_samples,
        conditional_mean=product * n_samples / n_event if n_event else 0.0,
        complement_mean=float(inner[~event].mean()) if n_event < n_samples else 0.0,
        product=product,
        standard_error=standard_error(pos_part) if n_event else math.inf,
        mean_inner=float(inner.mean()),
        mean_inner_se=standard_error(inner),
        n_samples=n_samples,
    )


def check_assumption4(
    estimate: ConditionalInnerProductEstimate,
    h1: float,
    h2: float,
    grad_norm_sq: float,
) -> bool:
    """Empirical product within SE_MARGIN standard errors of h1 + h2*||grad||^2."""
    return estimate.product <= h1 + h2 * grad_norm_sq + SE_MARGIN * estimate.standard_error


def check_assumption5(
    estimate: ConditionalInnerProductEstimate,
    h3: float,
    h4: float,
    grad_norm_sq: float,
    alpha_k: float,
) -> bool:
    """Same check with the constant term scaled by the current stepsize."""
    return (
        estimate.product
        <= h3 * alpha_k + h4 * grad_norm_sq + SE_MARGIN * estimate.standard_error
    )


def check_assumption6(
    estimate: ConditionalInnerProductEstimate,
    h5: float,
    h6: float,
    lam: float,
    k: int,
    grad_norm_sq: float,
) -> bool:
    """Same check with the constant term decaying geometrically in k."""
    if k < 1:
        raise ValueError(f"iteration index is 1-based, got {k}")
    return (
        estimate.product
        <= h5 * lam ** (k - 1) + h6 * grad_norm_sq + SE_MARGIN * estimate.standard_error
    )


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
class TheoremConstants:
    """Derived constants for one convergence guarantee.

    Populated by the recipes for_fixed_stepsize, for_harmonic_stepsize and
    for_geometric_noise, which set theorem_id, validate the guarantee's
    hypotheses and raise HypothesisError when one fails.  Fields
    irrelevant to the chosen guarantee stay None.
    """

    theorem_id: int
    f_gap_initial: float
    smoothness: float
    alpha: float | None = None
    pl_constant: float | None = None
    theta1: float | None = None
    theta2: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    nu: float | None = None
    a: float | None = None
    b: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None
    omega: float | None = None
    rho: float | None = None

    @classmethod
    def for_geometric_noise(
        cls,
        params: TrishParams,
        h5: float,
        h6: float,
        lam: float,
        zeta: float,
        pl_constant: float,
        smoothness: float,
        m3: float,
        alpha: float | None,
        f_gap_initial: float,
    ) -> "TheoremConstants":
        """Guarantee 3: fixed stepsize, PL objective, geometrically decaying
        noise with pair (h5, h6); alpha=None takes the cap.  There is no
        form without PL, so pl_constant None raises ValueError."""
        if pl_constant is None:
            raise ValueError("geometric noise has a guarantee only under PL; got no PL constant")
        _validate_common(h5, smoothness, (m3,), f_gap_initial, pl_constant)
        if not 0.0 < lam < 1.0 or not 0.0 < zeta < 1.0:
            raise ValueError(f"lam and zeta must lie in (0, 1), got {lam}, {zeta}")
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
        rho = max(1.0 - alpha * pl_constant * kappa1, lam, zeta)
        if not 0.0 < rho < 1.0:
            raise HypothesisError("contraction", f"rate rho = {rho:.6g} not in (0, 1)")
        return cls(
            theorem_id=3,
            f_gap_initial=f_gap_initial,
            smoothness=smoothness,
            alpha=alpha,
            pl_constant=pl_constant,
            kappa1=kappa1,
            kappa2=kappa2,
            omega=omega,
            rho=rho,
        )

    @classmethod
    def for_fixed_stepsize(
        cls, params: TrishParams, h1: float, h2: float, pl_constant: float | None,
        smoothness: float, m1: float, m2: float, alpha: float | None, f_gap_initial: float,
    ) -> "TheoremConstants":
        """Guarantees 1 (PL) and 4 (pl_constant None): fixed stepsize alpha,
        fixed-sigma pair (h1, h2).  Sets theta1, the stepsize cap
        1/(gamma1 L M2), tightened to 1/(2 c theta1) under PL, and theta2;
        alpha=None takes the cap."""
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
            h1 * (params.gamma1 - params.gamma2) * alpha + 0.5 * smoothness * alpha**2,
        )
        return cls(
            theorem_id=4 if pl_constant is None else 1,
            f_gap_initial=f_gap_initial,
            smoothness=smoothness,
            alpha=alpha,
            pl_constant=pl_constant,
            theta1=theta1,
            theta2=theta2,
        )

    @classmethod
    def for_harmonic_stepsize(
        cls, params: TrishParams, h3: float, h4: float, pl_constant: float | None,
        smoothness: float, m1: float, m2: float, a: float, b: float, f_gap_initial: float,
    ) -> "TheoremConstants":
        """Guarantees 2 (PL) and 5 (pl_constant None): harmonic stepsizes
        a/(b+k), coupled pair (h3, h4).  Sets beta1, under PL the interval
        a must lie in and nu, the cap on alpha_1 = a/(b+1), and beta2.

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
        nu = None
        if pl_constant is not None:
            nu = max(
                a**2 * beta2 / (2.0 * a * pl_constant * beta1 - 1.0),
                (b + 1.0) * f_gap_initial,
            )
        return cls(
            theorem_id=5 if pl_constant is None else 2,
            f_gap_initial=f_gap_initial,
            smoothness=smoothness,
            pl_constant=pl_constant,
            beta1=beta1,
            beta2=beta2,
            nu=nu,
            a=a,
            b=b,
        )


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


def theorem_bound(tc: TheoremConstants, k: int | np.ndarray) -> float | np.ndarray:
    """Guarantee tc.theorem_id's bound at k, an int (gives a float) or an int array:

      1  E[f(x_k)] - f_star <= P + (1 - r)^(k-1) (gap_1 - P),  r = 2 c alpha theta1,
         P = theta2/r the noise plateau; at k = 1 exactly the initial gap
      2  E[f(x_k)] - f_star <= nu/(b + k)
      3  E[f(x_k)] - f_star <= omega rho^(k-1)
      4  (1/k) sum_{j<=k} E||grad f(x_j)||^2 <= (k theta2 + gap_1)/(k alpha theta1)
      5  sum_{j<=k} alpha_j E||grad f(x_j)||^2 <= (gap_1 + beta2 sum_{j<=k} alpha_j^2)/beta1,
         finite as k grows; one prefix sum up to the largest k serves every k

    >>> tc = TheoremConstants(theorem_id=2, f_gap_initial=1.0, smoothness=1.0, nu=10.0, b=4.0)
    >>> theorem_bound(tc, 1)
    2.0
    >>> theorem_bound(tc, np.array([1, 6]))
    array([2., 1.])
    """
    if np.any(np.asarray(k) < 1):
        raise ValueError(f"iteration index is 1-based, got {np.min(k)}")
    if tc.theorem_id == 1:
        rate = 2.0 * tc.pl_constant * tc.alpha * tc.theta1
        plateau = tc.theta2 / rate
        return plateau + (1.0 - rate) ** (k - 1) * (tc.f_gap_initial - plateau)
    if tc.theorem_id == 2:
        return tc.nu / (tc.b + k)
    if tc.theorem_id == 3:
        return tc.omega * tc.rho ** (k - 1)
    if tc.theorem_id == 4:
        denom = tc.alpha * tc.theta1
        return (k * tc.theta2 / denom + tc.f_gap_initial / denom) / k
    if tc.theorem_id == 5:
        j = np.arange(1, np.max(k) + 1)
        alpha_sq_sums = np.cumsum((tc.a / (tc.b + j)) ** 2)[np.asarray(k) - 1]
        bound = (tc.f_gap_initial + tc.beta2 * alpha_sq_sums) / tc.beta1
        return float(bound) if np.ndim(k) == 0 else bound
    raise ValueError(f"unknown theorem id {tc.theorem_id}")


def sg_comparison_bound(
    gamma1: float,
    gamma2: float,
    h1: float,
    h2: float,
    pl_constant: float,
    m2: float,
) -> float:
    """Noise plateau of the safeguarded method at the largest admissible
    fixed stepsize alpha = 1/(gamma1 L M2):

        h1 (gamma1-gamma2) / (c (gamma1 - h2 (gamma1-gamma2)))
        + 1 / (2 c M2 gamma1 (gamma1 - h2 (gamma1-gamma2)))

    L cancels at that stepsize.  The matching plateau for plain SG at
    its own largest stepsize is M1/(2c); parameter regimes where this
    value drops below M1/(2c) are regimes where the safeguards pay off.
    gamma1 = gamma2 is allowed here (both collapse to scaled SG) even
    though the update rule itself requires gamma1 > gamma2.
    """
    if not gamma1 >= gamma2 > 0.0:
        raise ValueError(f"need gamma1 >= gamma2 > 0, got {gamma1}, {gamma2}")
    if h1 < 0.0 or h2 < 1.0:
        raise ValueError(f"need h1 >= 0 and h2 >= 1, got {h1}, {h2}")
    if not (pl_constant > 0.0 and m2 > 0.0):
        raise ValueError("PL constant and M2 must be positive")
    margin = gamma1 - h2 * (gamma1 - gamma2)
    if not margin > 0.0:
        raise HypothesisError(
            "gamma_ratio", f"gamma1 - h2*(gamma1-gamma2) = {margin:.6g} must be positive"
        )
    c = pl_constant
    return h1 * (gamma1 - gamma2) / (c * margin) + 1.0 / (2.0 * c * m2 * gamma1 * margin)
