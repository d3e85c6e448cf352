"""Benchmark objectives: quadratics, a nonconvex PL family, and logistic loss.

Each problem evaluates values and gradients, optionally batched over
rows of iterates, and reports its dimension and whichever of the
smoothness constant L, the Polyak-Lojasiewicz constant c and the optimal
value f_star it knows in closed form.  The PL inequality used
throughout is 2c(f(x) - f_star) <= ||grad f(x)||^2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ProblemMetadata",
    "QuadraticProblem",
    "NonconvexPLProblem",
    "LogisticProblem",
    "logistic_gradient",
    "normalize_binary_labels",
]

_DENSE_GATHER_BYTES = 1 << 25  # see LogisticProblem.block_gradient
_FINITE_LOSS_CAP = 1e300  # see LogisticProblem.finite_loss_rows


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
        t = 2.0 * np.asarray(x, dtype=float)
        return t + 3.0 * np.sin(t)


def logistic_gradient(w: np.ndarray, features: sp.spmatrix, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean logistic loss; dense vector."""
    from scipy.special import expit

    t = -labels * (features @ w)
    coeff = -labels * expit(t)
    grad = features.T @ coeff / labels.size
    return np.asarray(grad).ravel()


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
        import scipy.sparse as sp

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

    @cached_property
    def _has_nonzero(self) -> bool:
        """Whether some feature value is nonzero once duplicate entries are summed."""
        f = self.features
        if not f.has_canonical_format:
            f = f.copy()
            f.sum_duplicates()  # stored 1 and -1 at one position cancel
        return bool(f.data.any())

    @cached_property
    def _row_l1_max(self) -> float:
        """max_i ||z_i||_1, or an upper bound on it when duplicates are stored."""
        return float(np.asarray(abs(self.features).sum(axis=1)).max(initial=0.0))

    @property
    def metadata(self) -> ProblemMetadata:
        if not self._has_nonzero:
            raise ValueError("the training set has no nonzero feature value")
        return ProblemMetadata(dimension=self.features.shape[1])

    def value(self, w: np.ndarray) -> float:
        """Mean logistic loss (1/n) sum log(1 + exp(-y_i z_i . w)), via logaddexp
        so that large margins cannot overflow."""
        return float(_logistic_metrics(w, self.features, self.labels)[0])

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
        The sparse gather takes the drawn rows' stored entries once and
        sums margins and gradients with np.bincount, one point at a time,
        so its temporaries grow with the entries drawn, not P times them;
        bincount adds in entry order, as the CSR products did.
        """
        from scipy.special import expit

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
            return np.einsum("psb,sbd->psd", coeff, rows).reshape(-1, d) / b
        f, drawn, y = self.features, indices.ravel(), y.ravel()
        starts, counts = f.indptr[drawn], f.indptr[drawn + 1] - f.indptr[drawn]
        owner = np.repeat(np.arange(S * b), counts)  # the drawn row of each entry
        entries = np.arange(owner.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        vals = f.data[entries]
        # Seed i's rows act on entries i*d .. (i+1)*d - 1 of a point's S*d iterates.
        flat = owner // b * d + f.indices[entries]
        grad = np.empty((W3.shape[0], S * d))
        for w, out in zip(W3.reshape(-1, S * d), grad):
            coeff = -y * expit(-y * np.bincount(owner, vals * w[flat], minlength=S * b))
            np.divide(np.bincount(flat, vals * coeff[owner], minlength=S * d), b, out=out)
        return grad.reshape(-1, d)

    def finite_loss_rows(self, W: np.ndarray) -> np.ndarray:
        """Which rows of the block W the margin bound proves a finite train loss.

        Every margin obeys |z_i . w| <= max_i ||z_i||_1 ||w||_inf, and each
        loss term is at most its margin's size plus log 2, so the n terms
        sum to a finite mean while n times that bound stays under
        _FINITE_LOSS_CAP.  A row the bound does not clear may still be finite.
        """
        bound = self.n_components * self._row_l1_max * np.max(np.abs(W), axis=1)
        return bound < _FINITE_LOSS_CAP

    def train_metrics(self, W: np.ndarray) -> tuple:
        """(mean loss, accuracy) at w, or arrays of both over the rows of a block W."""
        return _logistic_metrics(W, self.features, self.labels)

    def test_metrics(self, W: np.ndarray) -> tuple:
        if self.test_features is None:
            return (float("nan"), float("nan"))
        return _logistic_metrics(W, self.test_features, self.test_labels)
