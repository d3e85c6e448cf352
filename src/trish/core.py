"""Core update rules: safeguarded trust-region-ish steps and plain SG.

The method takes a stochastic gradient g_k and moves along -g_k with a
magnitude chosen by where ||g_k|| falls relative to two thresholds
1/gamma1 < 1/gamma2:

    ||g_k|| in [0, 1/gamma1)      ->  x - gamma1 * alpha_k * g_k
    ||g_k|| in [1/gamma1, 1/gamma2] ->  x - alpha_k * g_k / ||g_k||
    ||g_k|| in (1/gamma2, inf)    ->  x - gamma2 * alpha_k * g_k

The middle branch is a normalized step of length exactly alpha_k; the
outer branches scale the raw gradient.  The resulting step norm is a
continuous, nondecreasing, piecewise-linear function of ||g_k||.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepCase",
    "TrishParams",
    "StepsizeSchedule",
    "classify_case",
    "step_norm",
    "trish_step",
    "sg_step",
]


class StepCase(enum.IntEnum):
    """Which branch of the update fired for one iteration."""

    CASE1 = 1
    CASE2 = 2
    CASE3 = 3


@dataclass(frozen=True)
class TrishParams:
    """Safeguard pair (gamma1, gamma2) with gamma1 > gamma2 > 0.

    gamma1 caps the amplification of small gradients, gamma2 damps large
    ones; the normalized branch is active on [1/gamma1, 1/gamma2].
    """

    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma1) and math.isfinite(self.gamma2)):
            raise ValueError("gamma1 and gamma2 must be finite")
        if not self.gamma1 > self.gamma2 > 0.0:
            raise ValueError(
                f"need gamma1 > gamma2 > 0, got gamma1={self.gamma1}, gamma2={self.gamma2}"
            )

    @property
    def lower_threshold(self) -> float:
        """Norm below which the gamma1 branch fires (1/gamma1)."""
        return 1.0 / self.gamma1

    @property
    def upper_threshold(self) -> float:
        """Norm above which the gamma2 branch fires (1/gamma2)."""
        return 1.0 / self.gamma2


def classify_case(g_norm: float, params: TrishParams) -> StepCase:
    """Classify a gradient norm into the branch the update will take.

    Boundary norms, exactly 1/gamma1 or exactly 1/gamma2, belong to the
    normalized branch (closed interval).  A zero norm is CASE1.
    """
    if not g_norm >= 0.0:  # also rejects nan
        raise ValueError(f"gradient norm must be nonnegative, got {g_norm}")
    if g_norm < params.lower_threshold:
        return StepCase.CASE1
    if g_norm <= params.upper_threshold:
        return StepCase.CASE2
    return StepCase.CASE3


def step_norm(g_norm: float, alpha: float, params: TrishParams) -> float:
    """Norm of the update step as a function of the gradient norm.

    Piecewise linear: gamma1*alpha*g_norm, then flat at alpha, then
    gamma2*alpha*g_norm.  Continuous at both junctions because the flat
    level alpha equals gamma*alpha*(1/gamma) on either side.
    """
    case = classify_case(g_norm, params)
    if case is StepCase.CASE1:
        return params.gamma1 * alpha * g_norm
    if case is StepCase.CASE2:
        return alpha
    return params.gamma2 * alpha * g_norm


def _trish_step_batch(
    X: np.ndarray, G: np.ndarray, alpha, gamma1, gamma2
) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded step of every row of X along the matching row of G.

    alpha, gamma1 and gamma2 are scalars or per-row arrays.  Returns
    (next iterates, case index 1-3 per row).  This is the one
    implementation of the three branches; trish_step is its 1-row case,
    and the harness marches whole blocks of trajectories through it.
    """
    norms = np.linalg.norm(G, axis=1)
    case1 = norms < 1.0 / gamma1
    case3 = norms > 1.0 / gamma2
    coeff = np.where(
        case1,
        gamma1 * alpha,
        np.where(case3, gamma2 * alpha, alpha / np.where(norms > 0.0, norms, 1.0)),
    )
    cases = 2 - case1 + case3  # 1 below the band, 2 inside, 3 above
    return X - coeff[:, None] * G, cases


def _checked(x, g, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """x and g as float arrays, after the checks every single-vector step makes."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs g {g.shape}")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"stepsize must be positive and finite, got {alpha}")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient sample contains nan or inf")
    return x, g


def trish_step(
    x: np.ndarray, g: np.ndarray, alpha: float, params: TrishParams
) -> tuple[np.ndarray, StepCase]:
    """One safeguarded step from x along -g; returns (new iterate, branch).

    alpha must be positive and finite, g must be finite and the same
    shape as x.  A zero gradient falls in CASE1 and leaves x unchanged.
    """
    x, g = _checked(x, g, alpha)
    x_next, cases = _trish_step_batch(
        x.reshape(1, -1), g.reshape(1, -1), alpha, params.gamma1, params.gamma2
    )
    return x_next.reshape(x.shape), StepCase(int(cases[0]))


def sg_step(x: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    """Plain stochastic-gradient step x - alpha * g."""
    x, g = _checked(x, g, alpha)
    return x - alpha * g


@dataclass(frozen=True)
class StepsizeSchedule:
    """Stepsize sequence alpha_k indexed from k = 1, as plain data.

    kind "fixed" gives alpha_k = a; kind "harmonic" gives
    alpha_k = a / (b + k), strictly decreasing, Robbins-Monro.

    >>> StepsizeSchedule.fixed(0.5).alpha(10)
    0.5
    >>> StepsizeSchedule.harmonic(a=1.0, b=1.0).alpha(1)
    0.5
    """

    kind: str
    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "fixed":
            if not (self.a > 0.0 and math.isfinite(self.a)):
                raise ValueError(f"fixed stepsize must be positive, got {self.a}")
        elif self.kind == "harmonic":
            if not (self.a > 0.0 and self.b > 0.0):
                raise ValueError(f"need a > 0 and b > 0, got a={self.a}, b={self.b}")
        else:
            raise ValueError(f"unknown schedule kind '{self.kind}'")

    def alpha(self, k: int) -> float:
        """Stepsize for iteration k (1-based)."""
        if k < 1:
            raise ValueError(f"iteration index is 1-based, got {k}")
        value = float(self.a if self.kind == "fixed" else self.a / (self.b + k))
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"schedule produced invalid stepsize {value} at k={k}")
        return value

    @classmethod
    def fixed(cls, alpha: float) -> "StepsizeSchedule":
        return cls("fixed", alpha)

    @classmethod
    def harmonic(cls, a: float, b: float) -> "StepsizeSchedule":
        return cls("harmonic", a, b)
