"""Stochastic gradient oracles and their declared second-moment constants.

Every oracle here is unbiased: the sample mean equals the true gradient.
Each one also declares constants (M1, M2) such that

    E ||g||^2  <=  M1 + M2 * ||grad f(x)||^2,

which is what the convergence analysis consumes.  The Gaussian oracle
owns its noise regime: constant, coupled to the stepsize, or decaying
geometrically, and gives both its (M1, M2) and its pair (h_a, h_b) of
Assumptions 4-6.  The two-point oracle is the scalar counterexample showing
an unbiased estimator whose normalized step is an ascent direction most
of the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OracleMoments", "GaussianOracle", "TwoPointOracle"]

_TWO_ROOT_2PI = 2.0 * math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class OracleMoments:
    """Constants (M1, M2) bounding the oracle's second moment."""

    m1: float
    m2: float

    def __post_init__(self) -> None:
        if not self.m1 > 0.0:
            raise ValueError(f"M1 must be positive, got {self.m1}")
        if not self.m2 > 0.0:
            raise ValueError(f"M2 must be positive, got {self.m2}")


@dataclass(frozen=True)
class GaussianOracle:
    """g = grad f(x) + sigma_k * z with z ~ N(0, I), isotropic noise.

    The noise level sigma_k, indexed from k = 1, has three regimes:
      constant(sigma)            sigma_k = sigma  (sigma > 0 required)
      coupled(multiplier)        sigma_k = multiplier * alpha_k
      geometric(m3, zeta)        sigma_k = sqrt(m3 * zeta**(k-1))
    """

    kind: str
    sigma0: float = 0.0
    multiplier: float = 0.0
    m3: float = 0.0
    zeta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "constant":
            # sigma = 0 is the exact gradient; use it directly, not as an oracle.
            if not (self.sigma0 > 0.0 and math.isfinite(self.sigma0)):
                raise ValueError(f"constant sigma must be positive, got {self.sigma0}")
        elif self.kind == "coupled":
            if not (self.multiplier > 0.0 and math.isfinite(self.multiplier)):
                raise ValueError(f"multiplier must be positive, got {self.multiplier}")
        elif self.kind == "geometric":
            if not (self.m3 > 0.0 and math.isfinite(self.m3)):
                raise ValueError(f"M3 must be positive, got {self.m3}")
            if not 0.0 < self.zeta < 1.0:
                raise ValueError(f"zeta must lie in (0, 1), got {self.zeta}")
        else:
            raise ValueError(f"unknown noise kind '{self.kind}'")

    @classmethod
    def constant(cls, sigma: float) -> "GaussianOracle":
        return cls(kind="constant", sigma0=sigma)

    @classmethod
    def coupled(cls, multiplier: float = 1.0) -> "GaussianOracle":
        return cls(kind="coupled", multiplier=multiplier)

    @classmethod
    def geometric(cls, m3: float, zeta: float) -> "GaussianOracle":
        return cls(kind="geometric", m3=m3, zeta=zeta)

    def sigma(self, k: int, alpha_k: float | None = None) -> float:
        """Noise level at iteration k; coupled noise needs alpha_k."""
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

    def sample(
        self,
        grad_true: np.ndarray,
        k: int,
        noise: np.ndarray,
        alpha_k: float | None = None,
    ) -> np.ndarray:
        """One draw at iteration k from noise, standard normals shaped like
        grad_true, which it scales and shifts in place and returns.

        grad_true may be a batch (n_chains, dim) of gradients, in which
        case each row takes its own row of noise.
        """
        noise *= self.sigma(k, alpha_k)
        noise += grad_true
        return noise

    def moments(self, dim: int, alpha_max: float | None = None) -> OracleMoments:
        """(M1, M2) valid for every iteration, given the dimension.

        E ||g||^2 = ||grad f||^2 + dim * sigma_k^2 exactly, so M2 = 1 and
        M1 is dim times the largest squared noise level.  For coupled
        noise that requires the stepsize upper bound alpha_max; geometric
        noise is largest at k = 1, so its M1 = dim * m3 is also the scale
        of its decaying envelope.
        """
        if dim < 1:
            raise ValueError(f"dimension must be at least 1, got {dim}")
        if self.kind == "constant":
            return OracleMoments(m1=dim * self.sigma0**2, m2=1.0)
        if self.kind == "coupled":
            alpha_max = _checked_alpha_max(alpha_max)
            return OracleMoments(m1=dim * (self.multiplier * alpha_max) ** 2, m2=1.0)
        return OracleMoments(m1=dim * self.m3, m2=1.0)

    def assumption_pair(self, alpha_max: float | None = None) -> tuple[float, float]:
        """(h_a, h_b) with P[E] E[grad f . g | E] <= h_a d_k + h_b ||grad f||^2.

        Each regime has a scale s, and h_a = s/(2 sqrt(2 pi)):
          constant   s = sigma,        d_k = 1,                    h_b = 1 + h_a
          coupled    s = multiplier,   d_k = alpha_k <= alpha_max, h_b = 1 + h_a alpha_max
          geometric  s = sqrt(M3),     d_k = sqrt(zeta)**(k-1),    h_b = 1 + h_a

        >>> GaussianOracle.constant(2.0 * math.sqrt(2.0 * math.pi)).assumption_pair()
        (1.0, 2.0)
        """
        if self.kind == "coupled":
            h_b = 1.0 + self.multiplier * _checked_alpha_max(alpha_max) / _TWO_ROOT_2PI
            return self.multiplier / _TWO_ROOT_2PI, h_b
        scale = self.sigma0 if self.kind == "constant" else math.sqrt(self.m3)
        h_a = scale / _TWO_ROOT_2PI
        return h_a, 1.0 + h_a


def _checked_alpha_max(alpha_max: float | None) -> float:
    """The bound alpha_k <= alpha_max that coupled noise needs, validated."""
    if alpha_max is None or not (alpha_max > 0.0 and math.isfinite(alpha_max)):
        raise ValueError(f"coupled noise needs a finite alpha_max > 0, got {alpha_max}")
    return alpha_max


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

    def __post_init__(self) -> None:
        if not 0.0 < self.prob_pos < 1.0:
            raise ValueError(f"prob_pos must lie in (0, 1), got {self.prob_pos}")

    @property
    def mean(self) -> float:
        return self.prob_pos * self.value_pos + (1.0 - self.prob_pos) * self.value_neg

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
