"""Stochastic gradient oracles and their declared second-moment constants.

Every oracle here is unbiased: the sample mean equals the true gradient.
Each one also declares constants (M1, M2) such that

    E ||g||^2  <=  M1 + M2 * ||grad f(x)||^2,

which is what the convergence analysis consumes.  The Gaussian oracle
supports three noise schedules; the two-point oracle is the scalar
counterexample showing an unbiased estimator whose normalized step is an
ascent direction most of the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OracleMoments",
    "SigmaSchedule",
    "GaussianOracle",
    "TwoPointOracle",
]


@dataclass(frozen=True)
class OracleMoments:
    """Constants bounding the oracle's second moment.

    m3 and zeta are set only for geometrically decaying noise, where
    E ||g||^2 <= m3 * zeta**(k-1) + ||grad f||^2.
    """

    m1: float
    m2: float
    m3: float | None = None
    zeta: float | None = None

    def __post_init__(self) -> None:
        if not self.m1 > 0.0:
            raise ValueError(f"M1 must be positive, got {self.m1}")
        if not self.m2 > 0.0:
            raise ValueError(f"M2 must be positive, got {self.m2}")
        if (self.m3 is None) != (self.zeta is None):
            raise ValueError("m3 and zeta must be set together")
        if self.m3 is not None and not self.m3 > 0.0:
            raise ValueError(f"M3 must be positive, got {self.m3}")
        if self.zeta is not None and not 0.0 < self.zeta < 1.0:
            raise ValueError(f"zeta must lie in (0, 1), got {self.zeta}")


@dataclass(frozen=True)
class SigmaSchedule:
    """Noise level sigma_k for the Gaussian oracle, indexed from k = 1.

    Three variants:
      constant(sigma)            sigma_k = sigma  (sigma > 0 required)
      coupled(multiplier)        sigma_k = multiplier * alpha_k
      geometric(m3, zeta)        sigma_k = sqrt(m3 * zeta**(k-1))
    """

    kind: str
    sigma0: float = 0.0
    multiplier: float = 0.0
    m3: float = 0.0
    zeta: float = 0.0

    @classmethod
    def constant(cls, sigma: float) -> "SigmaSchedule":
        # sigma = 0 would degenerate to a deterministic oracle; use the
        # true gradient directly instead of pretending it is stochastic.
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise ValueError(f"constant sigma must be positive, got {sigma}")
        return cls(kind="constant", sigma0=sigma)

    @classmethod
    def coupled(cls, multiplier: float = 1.0) -> "SigmaSchedule":
        if not (multiplier > 0.0 and math.isfinite(multiplier)):
            raise ValueError(f"multiplier must be positive, got {multiplier}")
        return cls(kind="coupled", multiplier=multiplier)

    @classmethod
    def geometric(cls, m3: float, zeta: float) -> "SigmaSchedule":
        if not m3 > 0.0:
            raise ValueError(f"M3 must be positive, got {m3}")
        if not 0.0 < zeta < 1.0:
            raise ValueError(f"zeta must lie in (0, 1), got {zeta}")
        return cls(kind="geometric", m3=m3, zeta=zeta)

    def sigma(self, k: int, alpha_k: float | None = None) -> float:
        """Noise level at iteration k; coupled schedules need alpha_k."""
        if k < 1:
            raise ValueError(f"iteration index is 1-based, got {k}")
        if self.kind == "constant":
            return self.sigma0
        if self.kind == "coupled":
            if alpha_k is None:
                raise ValueError("coupled schedule needs the current stepsize")
            return self.multiplier * alpha_k
        # geometric: sigma_k^2 = m3 * zeta**(k-1), strictly decreasing
        return math.sqrt(self.m3 * self.zeta ** (k - 1))


@dataclass(frozen=True)
class GaussianOracle:
    """g = grad f(x) + sigma_k * z with z ~ N(0, I), isotropic noise."""

    schedule: SigmaSchedule

    def sample(
        self,
        grad_true: np.ndarray,
        k: int,
        rng: np.random.Generator,
        alpha_k: float | None = None,
    ) -> np.ndarray:
        """One draw at iteration k; shape follows grad_true.

        grad_true may be a batch (n_chains, dim) of gradients, in which
        case each row gets an independent perturbation.
        """
        grad_true = np.asarray(grad_true, dtype=float)
        sig = self.schedule.sigma(k, alpha_k)
        return grad_true + sig * rng.standard_normal(grad_true.shape)

    def moments(self, dim: int, alpha_max: float | None = None) -> OracleMoments:
        """(M1, M2) valid for every iteration, given the dimension.

        E ||g||^2 = ||grad f||^2 + dim * sigma_k^2 exactly, so M2 = 1 and
        M1 is dim times the largest squared noise level.  For coupled
        schedules that requires the stepsize upper bound alpha_max; for
        geometric ones, (m3, zeta) are carried along for analyses that
        can exploit the decay.
        """
        if dim < 1:
            raise ValueError(f"dimension must be at least 1, got {dim}")
        if self.schedule.kind == "constant":
            return OracleMoments(m1=dim * self.schedule.sigma0**2, m2=1.0)
        if self.schedule.kind == "coupled":
            if alpha_max is None:
                raise ValueError("coupled schedule needs alpha_max for moments")
            sig_max = self.schedule.multiplier * alpha_max
            return OracleMoments(m1=dim * sig_max**2, m2=1.0)
        return OracleMoments(
            m1=dim * self.schedule.m3,
            m2=1.0,
            m3=dim * self.schedule.m3,
            zeta=self.schedule.zeta,
        )


@dataclass(frozen=True)
class TwoPointOracle:
    """Scalar oracle taking value_pos w.p. prob_pos, else value_neg.

    The default (6 w.p. 1/3, -3/2 w.p. 2/3) has mean 1, so against a true
    gradient of 1 it is unbiased, yet the sampled sign is wrong two
    thirds of the time: a normalized step along -g then points uphill.
    """

    value_pos: float = 6.0
    value_neg: float = -1.5
    prob_pos: float = 1.0 / 3.0
    mean: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.prob_pos < 1.0:
            raise ValueError(f"prob_pos must lie in (0, 1), got {self.prob_pos}")
        implied = self.prob_pos * self.value_pos + (1.0 - self.prob_pos) * self.value_neg
        if abs(implied - self.mean) > 1e-12:
            raise ValueError(
                f"declared mean {self.mean} but outcomes imply {implied}"
            )

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """One draw, or a vector of independent draws when size is given."""
        if size is None:
            return self.value_pos if rng.random() < self.prob_pos else self.value_neg
        u = rng.random(size)
        return np.where(u < self.prob_pos, self.value_pos, self.value_neg)

    def second_moment(self) -> float:
        return self.prob_pos * self.value_pos**2 + (1.0 - self.prob_pos) * self.value_neg**2

    def moments(self) -> OracleMoments:
        """(M1, M2) with M1 the variance and M2 = 1, tight for this oracle."""
        return OracleMoments(m1=self.second_moment() - self.mean**2, m2=1.0)
