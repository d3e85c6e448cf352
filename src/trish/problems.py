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
        reduce = np.add.reduce  # np.sum's own reduction, without its wrapper
        out = 0.5 * reduce(self.diag * x**2, axis=-1) - reduce(self.shift * x, axis=-1)
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
        g = np.sin(t)
        g *= 3.0
        g += t
        return g


def _expit(t: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1/(1 + exp(-t)); exp(-t) overflows to inf, giving 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def _slot_view(data: LibsvmData) -> tuple:
    """data's stored entries by slot, the layout _margins walks: (order, slots, tail).

    order sorts the rows by descending stored length (a stable sort).
    slots[j] holds the columns and values of the j-th stored entry of
    every row that has one, in that order, for each j below the K that
    minimises K plus the number of rows longer than K.  tail holds the
    entries of those longer rows past slot K as (owner, columns, values),
    owner being each entry's row's position in order.  The view costs 12
    bytes per stored entry with int32 columns, and 8 more per tail entry
    for its owner.
    """
    lengths = np.diff(data.indptr)
    order = np.argsort(-lengths, kind="stable")
    starts = data.indptr[order]
    longer = len(data) - np.cumsum(np.bincount(lengths, minlength=1))  # rows longer than K
    K = int(np.argmin(np.arange(longer.size) + longer))
    slots = []
    for j, rows in enumerate(longer[:K].tolist()):  # the first `rows` rows in order
        at = starts[:rows] + j
        slots.append((data.indices[at], data.values[at]))
    spill = lengths[order[:longer[K]]] - K  # each longer row's entries past slot K
    owner = np.repeat(np.arange(spill.size), spill)
    first = np.cumsum(spill) - spill  # each longer row's first tail entry
    at = np.repeat(starts[:spill.size] + K - first, spill) + np.arange(owner.size)
    return order, slots, (owner, data.indices[at], data.values[at])


def _margins(W: np.ndarray, view: tuple) -> np.ndarray:
    """A split's margins z_i . w at w, or at every row of W, from its _slot_view.

    C-contiguous; each margin sums its row's products from +0.0 in stored
    order, as np.bincount does: slot by slot for every row of W at once,
    then the long rows' tails through one np.bincount per row of W whose
    bins start from the slots' sums, so the tail's temporaries stay the
    tail's size.
    """
    W = np.asarray(W)
    W2 = W.reshape(-1, W.shape[-1])
    Wt = np.ascontiguousarray(W2.T)  # Wt[c]: column c of every row
    R = Wt.shape[1]
    order, slots, (owner, columns, values) = view
    acc = np.zeros((order.size, R))
    with np.errstate(over="ignore", invalid="ignore"):  # as silent as np.bincount's sums
        for cols, vals in slots:
            acc[:vals.size] += vals[:, None] * np.take(Wt, cols, axis=0)
        if owner.size:
            T = owner[-1] + 1  # the rows with a tail come first in order
            bins = np.concatenate((np.arange(T), owner))
            for r in range(R):
                products = values * np.take(W2[r], columns)
                acc[:T, r] = np.bincount(bins, np.concatenate((acc[:T, r], products)), minlength=T)
    margins = np.empty((R, order.size))
    margins.T[order] = acc
    return margins.reshape(W.shape[:-1] + (order.size,))


def _logistic_metrics(W: np.ndarray, labels: np.ndarray, view: tuple) -> tuple:
    """Mean logistic loss and accuracy at w, or at every row of W, of a split."""
    margins = _margins(W, view)
    loss = np.mean(np.logaddexp(0.0, -labels * margins), axis=-1)
    return loss, np.mean(margins * labels > 0.0, axis=-1)


def _sparse_gradients(data: LibsvmData, indices: np.ndarray, W3: np.ndarray) -> np.ndarray:
    """Mean logistic gradients at each of the (P, S, d) points W3, point
    (p, i) over data's rows at row i of the (S, b) indices.  The drawn
    rows' entries are taken once, and each point's margins and gradient
    summed with np.bincount (from +0.0, in entry order), one point at a
    time, so temporaries grow with the entries drawn, not P times them."""
    (S, b), d = indices.shape, W3.shape[2]
    drawn, y = indices.ravel(), data.labels[indices].ravel()
    starts, counts = data.indptr[drawn], data.indptr[drawn + 1] - data.indptr[drawn]
    owner = np.repeat(np.arange(S * b), counts)  # the drawn row of each entry
    entries = np.arange(owner.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    vals = data.values[entries]
    # Seed i's rows act on entries i*d .. (i+1)*d - 1 of a point's S*d iterates.
    flat = owner // b * d + data.indices[entries]
    grad = np.empty((W3.shape[0], S * d))
    for w, out in zip(W3.reshape(-1, S * d), grad):
        coeff = -y * _expit(-y * np.bincount(owner, vals * w[flat], minlength=S * b))
        np.divide(np.bincount(flat, vals * coeff[owner], minlength=S * d), b, out=out)
    return grad.reshape(-1, d)


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
    def _row_of_entry(self) -> np.ndarray:
        """Each stored training entry's row."""
        return np.repeat(np.arange(self.n_components), np.diff(self.train.indptr))

    @cached_property
    def _row_l1_max(self) -> float:
        """max_i ||z_i||_1."""
        l1 = np.bincount(self._row_of_entry, np.abs(self.train.values), minlength=self.n_components)
        return float(l1.max(initial=0.0))

    @cached_property
    def _train_view(self) -> tuple:
        return _slot_view(self.train)

    @cached_property
    def _test_view(self) -> tuple:
        return _slot_view(self.test)

    @property
    def metadata(self) -> ProblemMetadata:
        if not self.train.values.any():
            raise ValueError("the training set has no nonzero feature value")
        return ProblemMetadata(dimension=self.train.width)

    def value(self, w: np.ndarray) -> float:
        """Mean logistic loss (1/n) sum log(1 + exp(-y_i z_i . w)), via logaddexp
        so that large margins cannot overflow."""
        return float(self.train_metrics(w)[0])

    def gradient(self, w: np.ndarray) -> np.ndarray:
        """The mean gradient at w: the sparse gather over every row once."""
        rows = np.arange(self.n_components)[None]
        with np.errstate(over="ignore", invalid="ignore"):  # as silent as the margins
            return _sparse_gradients(self.train, rows, np.asarray(w, dtype=float)[None, None])[0]

    @cached_property
    def _dense_features(self) -> np.ndarray:
        dense = np.zeros((self.n_components, self.train.width))
        dense[self._row_of_entry, self.train.indices] = self.train.values
        return dense

    def block_gradient(self, indices: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Mean mini-batch gradients of a (P*S, d) block W, one gather per call.

        Row p*S + i of W takes seed i's mini-batch, row i of the (S, b)
        indices, duplicates counted.  The gather is dense while the
        matrix and the batch fit in _DENSE_GATHER_BYTES, else sparse
        (_sparse_gradients).

        The dense gather takes each (point, seed) pair's margins and
        gradient as one BLAS matrix-vector product (gemv), so row p*S + i
        rounds as it would in a one-point block: a tune entry matches its
        own run and the winner's re-run bit for bit.  One matrix-matrix
        product (gemm) over the points would be faster but round
        differently at P > 1 than at P = 1.  The bits therefore rest on
        the BLAS gemv kernel numpy loads, not only on numpy's own loops.
        Against the einsum sums this replaced, a gradient on the
        criterion-10 tunes moved by at most 3e-14 of its largest entry,
        and no printed byte moved.
        """
        indices = np.asarray(indices)
        S, b = indices.shape
        if b < 1:
            raise ValueError(f"batch size must be at least 1, got {b}")
        d = W.shape[1]
        W3 = W.reshape(-1, S, d)
        if (self.n_components + indices.size) * d * 8 > _DENSE_GATHER_BYTES:
            return _sparse_gradients(self.train, indices, W3)
        y = self.train.labels[indices]
        rows = self._dense_features[indices]
        coeff = -y * _expit(-y * np.matmul(rows, W3[..., None])[..., 0])
        return np.matmul(coeff[..., None, :], rows)[..., 0, :].reshape(-1, d) / b

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
        return _logistic_metrics(W, self.train.labels, self._train_view)

    def test_metrics(self, W: np.ndarray) -> tuple:
        if self.test is None:
            return (float("nan"), float("nan"))
        return _logistic_metrics(W, self.test.labels, self._test_view)
