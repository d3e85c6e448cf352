"""Tests for the benchmark objectives and label utilities."""

import dataclasses
import importlib.util
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trish import problems
from trish.ingest import LibsvmData, load_libsvm
from trish.problems import (
    LogisticProblem,
    NonconvexPLProblem,
    ProblemMetadata,
    QuadraticProblem,
    normalize_binary_labels,
)


def _data(dense, labels) -> LibsvmData:
    """A LibsvmData holding the nonzero entries of a dense (rows, width) array."""
    dense = np.asarray(dense, dtype=float)
    rows, columns = np.nonzero(dense)
    indptr = np.searchsorted(rows, np.arange(len(dense) + 1))
    return LibsvmData(labels, indptr, columns, dense[rows, columns], dense.shape[1])


def central_difference(value_fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (value_fn(x + step) - value_fn(x - step)) / (2.0 * h)
    return grad


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


class TestProblemMetadata:
    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            ProblemMetadata(dimension=0)
        with pytest.raises(ValueError):
            ProblemMetadata(dimension=1, smoothness=-1.0)
        with pytest.raises(ValueError):
            ProblemMetadata(dimension=1, pl_constant=0.0)
        # PL constant can never exceed smoothness
        with pytest.raises(ValueError):
            ProblemMetadata(dimension=1, smoothness=1.0, pl_constant=2.0)


class TestQuadraticProblem:
    def test_hand_values(self):
        problem = QuadraticProblem(diag=[2.0, 0.5], shift=[1.0, 1.0])
        assert problem.value(np.array([1.0, 1.0])) == pytest.approx(-0.75)
        np.testing.assert_allclose(
            problem.gradient(np.array([1.0, 1.0])), [1.0, -0.5]
        )

    def test_minimizer_and_f_star(self):
        problem = QuadraticProblem(diag=[2.0, 0.5], shift=[1.0, 1.0])
        np.testing.assert_allclose(problem.minimizer, [0.5, 2.0])
        meta = problem.metadata
        assert meta.f_star == pytest.approx(-1.25)
        assert problem.value(problem.minimizer) == pytest.approx(meta.f_star)
        np.testing.assert_allclose(
            problem.gradient(problem.minimizer), [0.0, 0.0], atol=1e-15
        )

    def test_metadata_constants(self):
        meta = QuadraticProblem(diag=[2.0, 0.5]).metadata
        assert meta.smoothness == 2.0
        assert meta.pl_constant == 0.5
        assert meta.dimension == 2
        assert meta.f_star == 0.0

    def test_batched_rows(self):
        problem = QuadraticProblem(diag=[1.0, 4.0])
        points = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(problem.value(points), [0.5, 2.0, 2.5])
        grads = problem.gradient(points)
        assert grads.shape == (3, 2)
        np.testing.assert_allclose(grads[2], [1.0, 4.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            QuadraticProblem(diag=[1.0, -1.0])
        with pytest.raises(ValueError):
            QuadraticProblem(diag=[1.0, 1.0], shift=[1.0])

    def test_pl_inequality_holds(self):
        problem = QuadraticProblem(diag=[2.0, 0.5], shift=[1.0, -1.0])
        points = np.random.default_rng(3).normal(size=(50, 2)) * 4.0
        holds, worst = verify_pl_constant(problem, points)
        assert holds
        assert worst <= 1.0 + 1e-12


class TestNonconvexPLProblem:
    def test_frozen_values(self):
        problem = NonconvexPLProblem()
        assert problem.value(np.array([1.0])) == pytest.approx(
            3.1242202548207134, rel=1e-14
        )
        np.testing.assert_allclose(
            problem.gradient(np.array([1.0])), [4.727892280477045], rtol=1e-14
        )

    def test_global_minimum_at_origin(self):
        problem = NonconvexPLProblem(dimension=3)
        assert problem.value(np.zeros(3)) == 0.0
        np.testing.assert_allclose(problem.gradient(np.zeros(3)), np.zeros(3))
        # every other point sits strictly above f* = 0
        points = np.random.default_rng(0).normal(size=(100, 3))
        assert np.all(problem.value(points) > 0.0)

    def test_metadata(self):
        meta = NonconvexPLProblem(dimension=2).metadata
        assert meta.smoothness == 8.0
        assert meta.pl_constant == pytest.approx(1.0 / 32.0)
        assert meta.f_star == 0.0
        assert meta.dimension == 2

    def test_nonconvex_curvature(self):
        # f'' = 2 + 6 cos(2x) is negative near x = pi/2
        problem = NonconvexPLProblem()
        h = 1e-4
        x = np.pi / 2.0
        second = (
            problem.value(np.array([x + h]))
            - 2.0 * problem.value(np.array([x]))
            + problem.value(np.array([x - h]))
        ) / h**2
        assert second < -3.0

    def test_pl_inequality_holds(self):
        problem = NonconvexPLProblem(dimension=2)
        points = np.random.default_rng(7).uniform(-8.0, 8.0, size=(200, 2))
        holds, worst = verify_pl_constant(problem, points)
        assert holds
        assert worst <= 1.0 + 1e-12

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            NonconvexPLProblem(dimension=0)


class _OverclaimedQuadratic(QuadraticProblem):
    """Quadratic that reports a PL constant larger than its true one."""

    @property
    def metadata(self):
        true = super().metadata
        return ProblemMetadata(
            dimension=true.dimension,
            smoothness=true.smoothness,
            pl_constant=1.9,
            f_star=true.f_star,
        )


class TestVerifyPLConstant:
    def test_detects_overclaimed_constant(self):
        problem = _OverclaimedQuadratic(diag=[1.0, 2.0])
        holds, worst = verify_pl_constant(problem, np.array([[1.0, 0.0]]))
        assert not holds
        assert worst == pytest.approx(1.9)

    def test_requires_declared_constants(self):
        problem = LogisticProblem(_data([[1.0]], [1.0]))
        with pytest.raises(ValueError, match="PL constant"):
            verify_pl_constant(problem, np.array([[0.0]]))


class TestLogisticFunctions:
    def test_loss_at_zero_is_log_two(self):
        problem = LogisticProblem(_data([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0]))
        assert problem.value(np.zeros(2)) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_loss_hand_value(self):
        problem = LogisticProblem(_data([[1.0, 0.0]], [1.0]))
        w = np.array([-2.0, 0.0])
        assert problem.value(w) == pytest.approx(2.1269280110429727, rel=1e-15)
        assert problem.train_metrics(w)[0] == problem.value(w)

    def test_loss_stable_at_huge_margins(self):
        problem = LogisticProblem(_data([[1.0]], [1.0]))
        assert problem.value(np.array([1000.0])) == pytest.approx(0.0, abs=1e-300)
        assert problem.value(np.array([-1000.0])) == pytest.approx(1000.0)
        losses = problem.train_metrics(np.array([[1000.0], [-1000.0]]))[0]
        np.testing.assert_allclose(losses, [0.0, 1000.0], rtol=1e-15, atol=1e-300)

    def test_gradient_hand_value(self):
        np.testing.assert_allclose(
            LogisticProblem(_data([[1.0, 0.0]], [1.0])).gradient(np.zeros(2)), [-0.5, 0.0]
        )

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        data = _data(rng.normal(size=(8, 4)), np.where(rng.random(8) < 0.5, -1.0, 1.0))
        w = rng.normal(size=4)
        problem = LogisticProblem(data)
        numeric = central_difference(problem.value, w)
        analytic = problem.gradient(w)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_accuracy_counts_zero_margin_as_wrong(self):
        problem = LogisticProblem(_data([[1.0], [-1.0], [0.0]], [1.0, -1.0, 1.0]))
        assert problem.train_metrics(np.array([1.0]))[1] == pytest.approx(2.0 / 3.0)


class TestNormalizeBinaryLabels:
    def test_zero_one_remapped_with_warning(self):
        with pytest.warns(UserWarning, match="remapped"):
            out = normalize_binary_labels(np.array([0.0, 1.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out, [-1.0, 1.0, 1.0, -1.0])

    def test_signed_labels_pass_through_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize_binary_labels(np.array([-1.0, 1.0, -1.0]))
        np.testing.assert_array_equal(out, [-1.0, 1.0, -1.0])

    def test_other_positives_map_to_plus_one(self):
        with pytest.warns(UserWarning):
            out = normalize_binary_labels(np.array([2.0, 0.0]))
        np.testing.assert_array_equal(out, [1.0, -1.0])


class TestLogisticProblem:
    @staticmethod
    def _small_problem(with_test=False):
        rng = np.random.default_rng(5)
        train = _data(rng.normal(size=(12, 3)), np.where(rng.random(12) < 0.5, -1.0, 1.0))
        if not with_test:
            return LogisticProblem(train)
        test = _data(rng.normal(size=(6, 3)), np.where(rng.random(6) < 0.5, -1.0, 1.0))
        return LogisticProblem(train, test)

    def test_n_components(self):
        assert self._small_problem().n_components == 12

    def test_metadata_gives_the_dimension_alone(self):
        problem = LogisticProblem(_data([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0]))
        assert problem.metadata == ProblemMetadata(dimension=2)

    def test_metadata_rejects_all_zero_features(self):
        # explicit zeros are stored entries but still give L = 0
        problem = LogisticProblem(LibsvmData([1.0, -1.0], [0, 1, 2], [0, 1], np.zeros(2), 2))
        with pytest.raises(ValueError, match="no nonzero feature value"):
            problem.metadata

    def test_row_of_entry_gives_each_stored_entry_its_row(self):
        # two rows, [1, 0, 2] and [0, 3, 0]
        train = LibsvmData([1.0, -1.0], [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0], 3)
        assert LogisticProblem(train)._row_of_entry.tolist() == [0, 0, 1]

    def test_full_component_gradient_matches_gradient(self):
        problem = self._small_problem()
        w = np.random.default_rng(1).normal(size=3)
        full = problem.block_gradient(np.arange(12)[None], w[None])
        np.testing.assert_allclose(full[0], problem.gradient(w), rtol=1e-12)

    def test_component_gradient_counts_duplicates(self):
        problem = self._small_problem()
        w = np.zeros((1, 3))
        single = problem.block_gradient(np.array([[4]]), w)
        doubled = problem.block_gradient(np.array([[4, 4]]), w)
        np.testing.assert_allclose(doubled, single)

    def test_train_and_test_metrics(self):
        problem = self._small_problem(with_test=True)
        w = np.random.default_rng(2).normal(size=3)
        loss, acc = problem.train_metrics(w)
        assert loss == problem.value(w)
        assert 0.0 <= acc <= 1.0
        test_loss, test_acc = problem.test_metrics(w)
        assert np.isfinite(test_loss)
        assert 0.0 <= test_acc <= 1.0

    def test_test_metrics_nan_without_split(self):
        loss, acc = self._small_problem().test_metrics(np.zeros(3))
        assert np.isnan(loss) and np.isnan(acc)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="labels"):
            LogisticProblem(_data(np.eye(3), [0.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="labels"):  # the test split's too
            LogisticProblem(_data(np.eye(3), [1.0, -1.0, 1.0]), _data(np.eye(3), [0.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="dimensions differ"):
            LogisticProblem(_data(np.eye(3), [1.0, -1.0, 1.0]), _data(np.eye(4), np.ones(4)))

    def test_row_l1_max_is_the_largest_row_l1_norm(self):
        problem = LogisticProblem(_data([[3.0, -1.0], [0.0, 1.5], [0.0, 0.0]], [1.0, -1.0, 1.0]))
        assert problem._row_l1_max == 4.0
        problem = self._small_problem()
        assert problem._row_l1_max == pytest.approx(
            np.abs(problem._dense_features).sum(axis=1).max(), rel=1e-15
        )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_the_margin_bound_clears_have_a_finite_loss(self, data):
        n, d, rows = (data.draw(st.integers(1, top)) for top in (6, 4, 5))
        features = data.draw(arrays(float, (n, d), elements=st.floats(-1.0, 1.0)))
        features *= 10.0 ** data.draw(st.integers(0, 300))
        labels = data.draw(arrays(float, n, elements=st.sampled_from([-1.0, 1.0])))
        problem = LogisticProblem(_data(features, labels))
        # each row of W at its own scale, up to the largest finite powers of ten
        W = data.draw(arrays(float, (rows, d), elements=st.floats(-1.0, 1.0)))
        W *= 10.0 ** data.draw(arrays(np.int64, (rows, 1), elements=st.integers(-300, 308)))
        W = np.vstack([W, np.full(d, np.inf), np.full(d, np.nan)])
        with np.errstate(over="ignore", invalid="ignore"):  # as inside a march
            cleared = problem.finite_loss_rows(W)
            loss = problem.train_metrics(W)[0]
        assert not cleared[-2:].any()
        assert np.isfinite(loss[cleared]).all()


def _libm_exp(x: float) -> float:
    """libm's exp, with math.exp's OverflowError read as its inf."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _csr(data: LibsvmData):
    """data's features as a scipy CSR matrix, the products' reference."""
    return sp.csr_matrix((data.values, data.indices, data.indptr), shape=(len(data), data.width))


def _reference_gradient(problem, indices, w):
    """The per-seed formula: mean gradient over the selected rows, duplicates
    counted, with scipy's CSR products and the sigmoid the gather uses."""
    rows = _csr(problem.train)[indices]
    y = problem.train.labels[indices]
    coeff = -y * problems._expit(-y * (rows @ w))
    return np.asarray(rows.T @ coeff).ravel() / y.size


@pytest.fixture(params=["dense", "sparse"])
def gather(request, monkeypatch):
    """Run a test once per gather; the sparse one is forced by a zero byte budget."""
    if request.param == "sparse":
        monkeypatch.setattr(problems, "_DENSE_GATHER_BYTES", 0)
    return request.param


class TestBlockGradient:
    @staticmethod
    def _problem(n=40, d=7, seed=3):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.4)
        dense[5] = 0.0  # a row with no stored entry
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return LogisticProblem(_data(dense, labels))

    def test_matches_per_seed_reference(self, gather):
        problem = self._problem()
        rng = np.random.default_rng(0)
        points, seeds, batch = 3, 4, 6
        indices = rng.integers(0, 40, size=(seeds, batch))
        indices[1, :3] = indices[1, 3:]  # duplicates within one batch
        indices[2, 0] = 5  # the empty row
        W = rng.normal(size=(points * seeds, 7))
        block = problem.block_gradient(indices, W)
        assert block.shape == W.shape
        for row, w in enumerate(W):
            expected = _reference_gradient(problem, indices[row % seeds], w)
            if gather == "sparse":  # the same sparse products, in the same order
                np.testing.assert_array_equal(block[row], expected)
            else:  # dense sums of d terms round differently, by a few ulps
                np.testing.assert_allclose(block[row], expected, rtol=1e-12, atol=1e-15)
        assert ("_dense_features" in vars(problem)) == (gather == "dense")

    def test_sampling_is_unbiased(self):
        problem = self._problem()
        w = np.random.default_rng(1).normal(size=7)
        indices = np.random.default_rng(10).integers(0, 40, size=(4000, 1))
        draws = problem.block_gradient(indices, np.tile(w, (4000, 1)))
        se = draws.std(axis=0, ddof=1) / np.sqrt(4000)
        assert np.all(np.abs(draws.mean(axis=0) - problem.gradient(w)) <= 4.0 * se)

    def test_draws_with_replacement(self):
        # batches larger than the component count are legal and must
        # repeat components, which only replacement sampling allows
        problem = self._problem()
        w = np.random.default_rng(2).normal(size=7)
        indices = np.random.default_rng(1).integers(0, 40, size=(1, 64))
        grad = problem.block_gradient(indices, w[None])
        assert grad.shape == (1, 7)
        np.testing.assert_allclose(grad[0], _reference_gradient(problem, indices[0], w), rtol=1e-12)
        assert not np.allclose(grad[0], problem.gradient(w))

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch size"):
            self._problem().block_gradient(np.zeros((1, 0), dtype=int), np.zeros((1, 7)))

    def test_sparse_gather_memory_does_not_scale_with_points(self, monkeypatch):
        # a tune block on wide data: 16 points cost what 1 does plus their
        # (P*S, d) output, never 16 times the 25000 gathered entries
        monkeypatch.setattr(problems, "_DENSE_GATHER_BYTES", 0)
        rng = np.random.default_rng(4)
        n, d, seeds, batch = 400, 1000, 5, 100
        dense = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.05)
        problem = LogisticProblem(_data(dense, np.where(rng.random(n) < 0.5, -1.0, 1.0)))
        indices = rng.integers(0, n, size=(seeds, batch))

        def peak(points):
            W = rng.normal(size=(points * seeds, d))
            problem.block_gradient(indices, W)  # any first-call cost is paid here
            tracemalloc.start()
            try:
                problem.block_gradient(indices, W)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16) <= peak(1) + 16 * seeds * d * 8


class TestScipyReference:
    """The numpy products and sigmoid against scipy's CSR products and expit,
    on the bundled data: the margins, metrics and full gradient bit for bit."""

    @pytest.fixture(scope="class")
    def problem(self):
        data_dir = Path(problems.__file__).parent / "data"
        (train, train_max), (test, test_max) = (
            load_libsvm(str(data_dir / name)) for name in ("train.libsvm", "test.libsvm")
        )
        width = max(train_max, test_max)
        return LogisticProblem(
            dataclasses.replace(train, width=width), dataclasses.replace(test, width=width)
        )

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 50.0])
    @pytest.mark.parametrize("points", [1, 100])
    def test_metrics_and_gradient_match_bitwise(self, problem, scale, points):
        W = scale * np.random.default_rng(points).standard_normal((points, problem.train.width))
        splits = [(problem.train, problem.train_metrics), (problem.test, problem.test_metrics)]
        for data, metrics in splits:
            # contiguous rows, as the metrics take their means in each row's 1-d order
            y, margins = data.labels, np.ascontiguousarray((_csr(data) @ W.T).T)
            view = problems._slot_view(data)
            np.testing.assert_array_equal(problems._margins(W, view), margins)
            loss, accuracy = metrics(W)
            np.testing.assert_array_equal(loss, np.mean(np.logaddexp(0.0, -y * margins), axis=-1))
            np.testing.assert_array_equal(accuracy, np.mean(margins * y > 0.0, axis=-1))
        F, y = _csr(problem.train), problem.train.labels
        for w in W[:10]:
            coeff = -y * problems._expit(-y * (F @ w))
            np.testing.assert_array_equal(problem.gradient(w), F.T @ coeff / y.size)

    def test_expit_is_scipys_formula(self):
        # scipy computes 1/(1 + exp(-t)) with libm's exp, as math.exp does.
        # Where numpy's exp agrees with libm's, the sigmoids agree bit for bit;
        # elsewhere the two exps differ by an ulp, and so may 1 + exp(-t),
        # whose spacing is twice that of a quotient in (1/2, 1): up to 2 ulp.
        magnitudes = np.concatenate(
            ([0.0], np.linspace(0.0, 800.0, 200_001), np.logspace(-320, 308, 20_001))
        )
        t = np.concatenate((magnitudes, -magnitudes))
        ours, theirs = problems._expit(t), scipy.special.expit(t)
        with np.errstate(over="ignore"):
            same_exp = np.exp(-t) == np.frompyfunc(_libm_exp, 1, 1)(-t).astype(float)
        np.testing.assert_array_equal(ours[same_exp], theirs[same_exp])
        one_ulp = np.nextafter(theirs, ours)
        assert ((ours == theirs) | (ours == one_ulp) | (np.nextafter(one_ulp, ours) == ours)).all()

    def test_expit_raises_no_warning_at_huge_arguments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = problems._expit(np.array([1000.0, -1000.0, 1e308, -1e308]))
        np.testing.assert_array_equal(got, [1.0, 0.0, 1.0, 0.0])


def _row_of_entry(data: LibsvmData) -> np.ndarray:
    return np.repeat(np.arange(len(data)), np.diff(data.indptr))


def _bincount_margins(W: np.ndarray, data: LibsvmData) -> np.ndarray:
    """The margins one row of W at a time, one np.bincount over data's entries each."""
    margins = np.empty((len(W), len(data)))
    for w, out in zip(W, margins):
        out[:] = np.bincount(_row_of_entry(data), data.values * w[data.indices], minlength=len(data))
    return margins


def _layout(lengths, width: int, seed: int = 0) -> LibsvmData:
    """Rows of the given stored lengths, at random rising columns below width."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths, dtype=np.int64)
    columns = [np.sort(rng.choice(width, size=n, replace=False)) for n in lengths.tolist()]
    indices = np.concatenate([np.zeros(0, np.int32)] + columns).astype(np.int32)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    values = rng.lognormal(size=indices.size) * rng.choice([-1.0, 1.0], size=indices.size)
    return LibsvmData(np.ones(len(lengths)), indptr, indices, values, width)


def _bundled(name: str) -> LibsvmData:
    return load_libsvm(str(Path(problems.__file__).parent / "data" / name))[0]


_LAYOUTS = {
    "train": lambda: _bundled("train.libsvm"),
    "test": lambda: _bundled("test.libsvm"),
    "empty_rows": lambda: _layout([0, 3, 0, 5, 1, 0, 2], 9),
    "no_entries": lambda: _layout([0, 0, 0], 4),
    "one_long_row": lambda: _layout([5] * 300 + [20_000] + [3] * 299, 20_050),
    # every row longer than the row count: K = 0, all entries in the tail
    "all_long_rows": lambda: _layout([3000] * 40, 3500),
    "power_law": lambda: _layout(
        np.minimum(1 + np.random.default_rng(1).pareto(1.2, 1500).astype(int), 2000), 2500
    ),
}


class TestMarginKernel:
    """problems._margins, slot by slot over problems._slot_view, against one
    np.bincount per row of W: bit for bit, at every layout and scale."""

    @pytest.fixture(scope="class", params=list(_LAYOUTS))
    def data(self, request):
        return _LAYOUTS[request.param]()

    @pytest.fixture(scope="class")
    def view(self, data):
        return problems._slot_view(data)

    @pytest.mark.parametrize("rows", [0, 1, 5, 100])
    def test_equals_one_bincount_per_row(self, data, view, rows):
        rng = np.random.default_rng(rows)
        for scale in (1e-3, 1.0, 1e300):
            W = scale * rng.standard_normal((rows, data.width))
            got = problems._margins(W, view)
            assert got.shape == (rows, len(data))
            # np.mean's pairwise order depends on the layout in memory
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, _bincount_margins(W, data))

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # sums overflow silently, as bincount's do
    def test_inf_and_nan_columns(self, data, view):
        rng = np.random.default_rng(2)
        W = 1e307 * rng.standard_normal((5, data.width))  # products and sums overflow
        W[0, ::3], W[1, 1::4], W[2, ::5], W[3] = np.inf, -np.inf, np.nan, np.nan
        W[4, ::7], W[4, 3::7] = np.inf, -np.inf
        got = problems._margins(W, view)
        with np.errstate(over="ignore"):
            want = _bincount_margins(W, data)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        np.testing.assert_array_equal(got[finite], want[finite])
        np.testing.assert_array_equal(np.signbit(got[finite]), np.signbit(want[finite]))

    def test_a_vector_gives_one_row_of_margins(self, data, view):
        w = np.random.default_rng(3).standard_normal(data.width)
        np.testing.assert_array_equal(problems._margins(w, view), _bincount_margins(w[None], data)[0])

    def test_a_long_row_goes_to_the_tail(self):
        data = _LAYOUTS["one_long_row"]()
        order, slots, (owner, columns, values) = problems._slot_view(data)
        assert order[0] == 300  # the longest row comes first
        assert len(slots) == 5  # K = 5 costs 5 slots plus 1 row of tail
        assert owner.tolist() == [0] * (20_000 - 5)
        assert sum(v.size for _, v in slots) + values.size == data.values.size
        np.testing.assert_array_equal(columns, data.indices[data.indptr[300] + 5:data.indptr[301]])

    def test_the_tail_holds_tail_sized_temporaries(self):
        # 40 rows of 3000 entries at R = 100: a tail taking every row of W
        # at once would hold several tail x R arrays, about 96 MB each.
        data = _LAYOUTS["all_long_rows"]()
        view = problems._slot_view(data)
        assert view[1] == [] and view[2][0].size == data.values.size
        W = np.random.default_rng(4).standard_normal((100, data.width))
        problems._margins(W, view)  # any first-call cost is paid here
        tracemalloc.start()
        try:
            problems._margins(W, view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= W.nbytes + 64 * data.values.size


def _gen_wide_split(path: Path, rows: int) -> LibsvmData:
    """A perfbench/gen_wide.py file of rows rows, written at path and parsed."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("gen_wide", root / "perfbench" / "gen_wide.py")
    gen_wide = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_wide)
    gen_wide.generate(str(path), rows, 0)
    return load_libsvm(str(path))[0]


def _bincount_gradient(w: np.ndarray, data: LibsvmData) -> np.ndarray:
    """The mean logistic gradient from per-row np.bincount sums: the margins
    binned by each entry's row, then the gradient binned by its column."""
    rows, y = _row_of_entry(data), data.labels
    margins = np.bincount(rows, data.values * w[data.indices], minlength=len(data))
    coeff = -y * problems._expit(-y * margins)
    return np.bincount(data.indices, data.values * coeff[rows], minlength=data.width) / len(data)


class TestFullGradient:
    """LogisticProblem.gradient, the sparse gather over every row once, against
    per-row np.bincount sums: bit for bit, at every scale, inf and nan included."""

    @pytest.fixture(scope="class", params=["train", "gen_wide"])
    def data(self, request, tmp_path_factory):
        if request.param == "train":
            return _bundled("train.libsvm")
        return _gen_wide_split(tmp_path_factory.mktemp("wide") / "wide.libsvm", 3000)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # as silent as the margins
    def test_equals_per_row_bincount_sums(self, data):
        problem = LogisticProblem(data)
        rng = np.random.default_rng(6)
        points = [scale * rng.standard_normal(data.width) for scale in (1e-3, 1.0, 50.0, 1e300)]
        mixed = rng.standard_normal(data.width)
        mixed[::3], mixed[1::4], mixed[2::5] = np.inf, -np.inf, np.nan
        for w in points + [mixed, np.full(data.width, np.nan)]:
            got = problem.gradient(w)
            with np.errstate(over="ignore", invalid="ignore"):
                want = _bincount_gradient(w, data)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestKernelTimingScript:
    def test_small_run(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "kernel_timing.py"
        done = subprocess.run(
            [sys.executable, str(script), "--rows", "2000", "--repeats", "1"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        header, *lines = done.stdout.splitlines()
        assert header.split() == ["layer", "layout", "rows", "nnz", "R", "ms"]
        rows = [line.split() for line in lines]
        assert [row[:2] + row[4:5] for row in rows] == [
            [layer, layout, R]
            for layout in ("train", "gen_wide", "power_law")
            for R in ("1", "5", "100")
            for layer in ("margins", "reference_loop")
        ] + [["block_gradient", "train", "100"], ["trish_step", "train", "100"]]
        assert [row[2] for row in rows if row[1] == "gen_wide"] == ["2000"] * 6
        assert all(float(row[5]) > 0 for row in rows)


class TestGradientConsistency:
    """Analytic gradients agree with central differences at random points."""

    def test_quadratic(self):
        rng = np.random.default_rng(21)
        problem = QuadraticProblem(diag=rng.uniform(0.5, 4.0, size=5), shift=rng.normal(size=5))
        for _ in range(5):
            x = rng.normal(size=5) * 3.0
            numeric = central_difference(problem.value, x)
            rel = np.linalg.norm(problem.gradient(x) - numeric) / max(
                1.0, np.linalg.norm(numeric)
            )
            assert rel <= 1e-5

    def test_nonconvex_pl(self):
        rng = np.random.default_rng(22)
        problem = NonconvexPLProblem(dimension=4)
        for _ in range(5):
            x = rng.uniform(-6.0, 6.0, size=4)
            numeric = central_difference(problem.value, x)
            rel = np.linalg.norm(problem.gradient(x) - numeric) / max(
                1.0, np.linalg.norm(numeric)
            )
            assert rel <= 1e-5

    def test_logistic(self):
        rng = np.random.default_rng(23)
        labels = np.where(rng.random(20) < 0.5, -1.0, 1.0)
        problem = LogisticProblem(_data(rng.normal(size=(20, 6)), labels))
        for _ in range(5):
            w = rng.normal(size=6)
            numeric = central_difference(problem.value, w)
            rel = np.linalg.norm(problem.gradient(w) - numeric) / max(
                1.0, np.linalg.norm(numeric)
            )
            assert rel <= 1e-5
