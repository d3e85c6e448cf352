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

from .ingest import LibsvmData

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


def _expit(t: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1/(1 + exp(-t)); exp(-t) overflows to inf, giving 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def _margins(W: np.ndarray, data: LibsvmData) -> np.ndarray:
    """data's margins z_i . w at w, or at every row of W, one row of W at a time;
    np.bincount adds each row's entries in their stored order."""
    W = np.asarray(W)
    rows = W.reshape(-1, W.shape[-1])
    margins = np.empty((len(rows), len(data)))
    for w, out in zip(rows, margins):
        products = data.values * np.take(w, data.indices)  # faster than w[] on int32 columns
        out[:] = np.bincount(data.row_of_entry, products, minlength=len(data))
    return margins.reshape(W.shape[:-1] + (len(data),))


def logistic_gradient(w: np.ndarray, data: LibsvmData) -> np.ndarray:
    """Gradient of the mean logistic loss over data, labels in {-1, +1}; dense vector."""
    coeff = -data.labels * _expit(-data.labels * _margins(w, data))
    weights = data.values * coeff[data.row_of_entry]
    return np.bincount(data.indices, weights, minlength=data.width) / len(data)


def _logistic_metrics(W: np.ndarray, data: LibsvmData) -> tuple:
    """Mean logistic loss and accuracy at w, or at every row of W."""
    margins = _margins(W, data)
    loss = np.mean(np.logaddexp(0.0, -data.labels * margins), axis=-1)
    return loss, np.mean(margins * data.labels > 0.0, axis=-1)


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

    def __init__(self, train: LibsvmData, test: LibsvmData | None = None):
        if not all(np.isin(d.labels, (-1.0, 1.0)).all() for d in (train, test) if d is not None):
            raise ValueError("labels must be -1 or +1; see normalize_binary_labels")
        if test is not None and test.width != train.width:
            raise ValueError(f"train and test dimensions differ: {train.width} vs {test.width}")
        self.train, self.test = train, test

    @property
    def n_components(self) -> int:
        return len(self.train)

    @cached_property
    def _row_l1_max(self) -> float:
        """max_i ||z_i||_1."""
        train = self.train
        l1 = np.bincount(train.row_of_entry, np.abs(train.values), minlength=len(train))
        return float(l1.max(initial=0.0))

    @property
    def metadata(self) -> ProblemMetadata:
        if not self.train.values.any():
            raise ValueError("the training set has no nonzero feature value")
        return ProblemMetadata(dimension=self.train.width)

    def value(self, w: np.ndarray) -> float:
        """Mean logistic loss (1/n) sum log(1 + exp(-y_i z_i . w)), via logaddexp
        so that large margins cannot overflow."""
        return float(_logistic_metrics(w, self.train)[0])

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return logistic_gradient(w, self.train)

    @cached_property
    def _dense_features(self) -> np.ndarray:
        train = self.train
        dense = np.zeros((len(train), train.width))
        dense[train.row_of_entry, train.indices] = train.values
        return dense

    def block_gradient(self, indices: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Mean mini-batch gradients of a (P*S, d) block W, one gather per call.

        Row p*S + i of W takes seed i's mini-batch, row i of the (S, b)
        indices, duplicates counted.  The gather is dense while the
        matrix and the batch fit in _DENSE_GATHER_BYTES, else sparse.
        The sparse gather takes the drawn rows' stored entries once and
        sums margins and gradients with np.bincount, one point at a time,
        so its temporaries grow with the entries drawn, not P times them;
        bincount adds in entry order, as the margins and gradient do.
        """
        indices = np.asarray(indices)
        S, b = indices.shape
        if b < 1:
            raise ValueError(f"batch size must be at least 1, got {b}")
        d = W.shape[1]
        W3 = W.reshape(-1, S, d)
        y = self.train.labels[indices]
        if (self.n_components + indices.size) * d * 8 <= _DENSE_GATHER_BYTES:
            rows = self._dense_features[indices]
            coeff = -y * _expit(-y * np.einsum("sbd,psd->psb", rows, W3))
            return np.einsum("psb,sbd->psd", coeff, rows).reshape(-1, d) / b
        f, drawn, y = self.train, indices.ravel(), y.ravel()
        starts, counts = f.indptr[drawn], f.indptr[drawn + 1] - f.indptr[drawn]
        owner = np.repeat(np.arange(S * b), counts)  # the drawn row of each entry
        entries = np.arange(owner.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        vals = f.values[entries]
        # Seed i's rows act on entries i*d .. (i+1)*d - 1 of a point's S*d iterates.
        flat = owner // b * d + f.indices[entries]
        grad = np.empty((W3.shape[0], S * d))
        for w, out in zip(W3.reshape(-1, S * d), grad):
            coeff = -y * _expit(-y * np.bincount(owner, vals * w[flat], minlength=S * b))
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
        return _logistic_metrics(W, self.train)

    def test_metrics(self, W: np.ndarray) -> tuple:
        if self.test is None:
            return (float("nan"), float("nan"))
        return _logistic_metrics(W, self.test)
