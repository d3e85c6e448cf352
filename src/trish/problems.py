"""Benchmark objectives: quadratics, a nonconvex PL family, and logistic loss.

Each problem evaluates values and gradients, optionally batched over
rows of iterates, and reports the smoothness constant L, the
Polyak-Lojasiewicz constant c when one is known, and the optimal value
f_star when it is available in closed form.  The PL inequality used
throughout is 2c(f(x) - f_star) <= ||grad f(x)||^2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

__all__ = [
    "ProblemMetadata",
    "QuadraticProblem",
    "NonconvexPLProblem",
    "LogisticProblem",
    "logistic_loss",
    "logistic_gradient",
    "classification_accuracy",
    "normalize_binary_labels",
    "verify_pl_constant",
]

_DENSE_GATHER_BYTES = 1 << 25  # see LogisticProblem.block_gradient


@dataclass(frozen=True)
class ProblemMetadata:
    """Dimension plus whichever analytic constants the problem knows."""

    dimension: int
    smoothness: float | None = None
    pl_constant: float | None = None
    f_star: float | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dimension}")
        if self.smoothness is not None and not self.smoothness > 0.0:
            raise ValueError(f"L must be positive, got {self.smoothness}")
        if self.pl_constant is not None and not self.pl_constant > 0.0:
            raise ValueError(f"c must be positive, got {self.pl_constant}")
        if (
            self.smoothness is not None
            and self.pl_constant is not None
            and self.pl_constant > self.smoothness
        ):
            raise ValueError(
                f"PL constant {self.pl_constant} exceeds smoothness {self.smoothness}"
            )


class QuadraticProblem:
    """Separable quadratic f(x) = 0.5 * sum d_i x_i^2 - sum b_i x_i.

    Strongly convex with curvature diag(d), so L = max d, c = min d, and
    the minimizer is x_i^* = b_i / d_i.
    """

    def __init__(self, diag: np.ndarray, shift: np.ndarray | None = None):
        self.diag = np.atleast_1d(np.asarray(diag, dtype=float))
        if self.diag.ndim != 1 or not np.all(self.diag > 0.0):
            raise ValueError("diag must be a vector of positive curvatures")
        if shift is None:
            shift = np.zeros_like(self.diag)
        self.shift = np.atleast_1d(np.asarray(shift, dtype=float))
        if self.shift.shape != self.diag.shape:
            raise ValueError(
                f"shift shape {self.shift.shape} does not match diag {self.diag.shape}"
            )

    @property
    def minimizer(self) -> np.ndarray:
        return self.shift / self.diag

    @property
    def metadata(self) -> ProblemMetadata:
        f_star = -0.5 * float(np.sum(self.shift**2 / self.diag))
        return ProblemMetadata(
            dimension=self.diag.size,
            smoothness=float(np.max(self.diag)),
            pl_constant=float(np.min(self.diag)),
            f_star=f_star,
        )

    def value(self, x: np.ndarray) -> float | np.ndarray:
        """f(x); rows of a 2-d input are treated as independent points."""
        x = np.asarray(x, dtype=float)
        out = 0.5 * np.sum(self.diag * x**2, axis=-1) - np.sum(self.shift * x, axis=-1)
        return float(out) if out.ndim == 0 else out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.diag * x - self.shift


class NonconvexPLProblem:
    """Coordinatewise f(x) = sum_i [x_i^2 + 3 sin^2(x_i)].

    Nonconvex (the curvature 2 + 6 cos(2x) changes sign) but satisfies
    the PL inequality with c = 1/32; the smoothness constant is L = 8
    and the unique global minimum is f(0) = 0.
    """

    def __init__(self, dimension: int = 1):
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        self.dimension = dimension

    @property
    def metadata(self) -> ProblemMetadata:
        return ProblemMetadata(
            dimension=self.dimension,
            smoothness=8.0,
            pl_constant=1.0 / 32.0,
            f_star=0.0,
        )

    def value(self, x: np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.sum(x**2 + 3.0 * np.sin(x) ** 2, axis=-1)
        return float(out) if out.ndim == 0 else out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 2.0 * x + 3.0 * np.sin(2.0 * x)


def logistic_loss(w: np.ndarray, features: sp.spmatrix, labels: np.ndarray) -> float:
    """Mean logistic loss (1/n) sum log(1 + exp(-y_i z_i . w)).

    log(1 + e^t) is evaluated as logaddexp(0, t), i.e. t + log1p(e^-t)
    for t > 0, so large margins cannot overflow.
    """
    return float(_logistic_metrics(w, features, labels)[0])


def logistic_gradient(w: np.ndarray, features: sp.spmatrix, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean logistic loss; dense vector."""
    t = -labels * (features @ w)
    coeff = -labels * expit(t)
    grad = features.T @ coeff / labels.size
    return np.asarray(grad).ravel()


def classification_accuracy(
    w: np.ndarray, features: sp.spmatrix, labels: np.ndarray
) -> float:
    """Fraction of rows with sign(z_i . w) = y_i; zero margins count as wrong."""
    return float(_logistic_metrics(w, features, labels)[1])


def _logistic_metrics(W: np.ndarray, features: sp.spmatrix, labels: np.ndarray) -> tuple:
    """Mean logistic loss and accuracy at w, or at every row of W, from one product."""
    # each row's margins contiguous, so its means sum in the 1-d order
    margins = np.ascontiguousarray((features @ np.asarray(W).T).T)
    loss = np.mean(np.logaddexp(0.0, -labels * margins), axis=-1)
    return loss, np.mean(margins * labels > 0.0, axis=-1)


def normalize_binary_labels(labels: np.ndarray) -> np.ndarray:
    """Map raw labels onto {-1, +1}: zero goes to -1, positives to +1.

    Datasets in the wild encode the two classes as {0, 1} about as often
    as {-1, +1}; anything remapped triggers a warning so silently
    mangled multiclass data cannot sneak through.
    """
    labels = np.asarray(labels, dtype=float)
    out = np.where(labels > 0.0, 1.0, -1.0)
    if not np.array_equal(out, labels):
        remapped = np.unique(labels[out != labels])
        warnings.warn(
            f"labels {remapped.tolist()} remapped onto -1/+1", stacklevel=2
        )
    return out


class LogisticProblem:
    """Binary logistic regression over sparse features, labels in {-1, +1}.

    Doubles as a finite sum: component i is the loss on pair i, and
    block_gradient averages the components a mini-batch draws.  An
    optional held-out split rides along for test metrics.
    """

    def __init__(
        self,
        features: sp.spmatrix,
        labels: np.ndarray,
        test_features: sp.spmatrix | None = None,
        test_labels: np.ndarray | None = None,
    ):
        self.features = sp.csr_matrix(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        if self.labels.ndim != 1 or self.labels.size != self.features.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} rows but {self.labels.size} labels"
            )
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1; see normalize_binary_labels")
        if (test_features is None) != (test_labels is None):
            raise ValueError("test features and labels must be given together")
        self.test_features = None
        self.test_labels = None
        if test_features is not None:
            self.test_features = sp.csr_matrix(test_features, dtype=float)
            self.test_labels = np.asarray(test_labels, dtype=float)
            if self.test_features.shape[1] != self.features.shape[1]:
                raise ValueError(
                    "train and test dimensions differ: "
                    f"{self.features.shape[1]} vs {self.test_features.shape[1]}"
                )
            if self.test_labels.size != self.test_features.shape[0]:
                raise ValueError("test labels do not match test rows")

    @property
    def n_components(self) -> int:
        return self.features.shape[0]

    @property
    def metadata(self) -> ProblemMetadata:
        # Trace bound on the Hessian: sigmoid' <= 1/4, so
        # L <= (1/4n) sum ||z_i||^2.  Conservative but data-driven.
        row_sq = float(self.features.multiply(self.features).sum())
        if not row_sq > 0.0:
            raise ValueError("the training set has no nonzero feature value")
        return ProblemMetadata(
            dimension=self.features.shape[1],
            smoothness=0.25 * row_sq / self.n_components,
        )

    def value(self, w: np.ndarray) -> float:
        return logistic_loss(w, self.features, self.labels)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return logistic_gradient(w, self.features, self.labels)

    @cached_property
    def _dense_features(self) -> np.ndarray:
        return self.features.toarray()

    def block_gradient(self, indices: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Mean mini-batch gradients of a (P*S, d) block W, one gather per call.

        Row p*S + i of W takes seed i's mini-batch, row i of the (S, b)
        indices, duplicates counted.  The gather is dense while the
        matrix and the batch fit in _DENSE_GATHER_BYTES, else sparse.
        """
        indices = np.asarray(indices)
        S, b = indices.shape
        if b < 1:
            raise ValueError(f"batch size must be at least 1, got {b}")
        d = W.shape[1]
        W3 = W.reshape(-1, S, d)
        y = self.labels[indices]
        if (self.n_components + indices.size) * d * 8 <= _DENSE_GATHER_BYTES:
            rows = self._dense_features[indices]
            coeff = -y * expit(-y * np.einsum("sbd,psd->psb", rows, W3))
            grad = np.einsum("psb,sbd->psd", coeff, rows)
        else:
            rows = self.features[indices.ravel()]
            # Seed i's rows act on columns i*d .. (i+1)*d - 1 of the stacked iterates.
            shift = np.repeat(np.arange(S * b) // b * d, np.diff(rows.indptr))
            rows = sp.csr_matrix((rows.data, rows.indices + shift, rows.indptr), (S * b, S * d))
            stacked = W3.transpose(1, 2, 0).reshape(S * d, -1)
            y = y.reshape(-1, 1)
            coeff = -y * expit(-y * (rows @ stacked))
            grad = (rows.T @ coeff).reshape(S, d, -1).transpose(2, 0, 1)
        return grad.reshape(-1, d) / b

    def train_metrics(self, W: np.ndarray) -> tuple:
        """(mean loss, accuracy) at w, or arrays of both over the rows of a block W."""
        return _logistic_metrics(W, self.features, self.labels)

    def test_metrics(self, W: np.ndarray) -> tuple:
        if self.test_features is None:
            return (float("nan"), float("nan"))
        return _logistic_metrics(W, self.test_features, self.test_labels)


def verify_pl_constant(problem, points: np.ndarray) -> tuple[bool, float]:
    """Check 2c(f(x) - f_star) <= ||grad f(x)||^2 at each given point.

    Returns (holds, worst_ratio) where worst_ratio is the largest
    observed value of the left side over the right side; a ratio above 1
    means the declared constant is too optimistic.  Stationary points
    are fine as long as the gap vanishes with the gradient.
    """
    meta = problem.metadata
    if meta.pl_constant is None or meta.f_star is None:
        raise ValueError("problem declares no PL constant or optimal value")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lhs = 2.0 * meta.pl_constant * (problem.value(points) - meta.f_star)
    grads = problem.gradient(points)
    rhs = np.sum(np.asarray(grads) ** 2, axis=-1)
    holds = bool(np.all(lhs <= rhs + 1e-12))
    worst = 0.0
    active = rhs > 0.0
    if np.any(active):
        worst = float(np.max(lhs[active] / rhs[active]))
    if np.any(~active & (lhs > 1e-12)):
        holds = False
        worst = float("inf")
    return holds, worst
