"""Tests for the benchmark objectives and label utilities."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from trish import problems
from trish.problems import (
    LogisticProblem,
    NonconvexPLProblem,
    ProblemMetadata,
    QuadraticProblem,
    classification_accuracy,
    logistic_gradient,
    logistic_loss,
    normalize_binary_labels,
    verify_pl_constant,
)


def central_difference(value_fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (value_fn(x + step) - value_fn(x - step)) / (2.0 * h)
    return grad


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
        features = sp.csr_matrix(np.array([[1.0]]))
        problem = LogisticProblem(features, np.array([1.0]))
        with pytest.raises(ValueError, match="PL constant"):
            verify_pl_constant(problem, np.array([[0.0]]))


class TestLogisticFunctions:
    def test_loss_at_zero_is_log_two(self):
        features = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        labels = np.array([1.0, -1.0])
        assert logistic_loss(np.zeros(2), features, labels) == pytest.approx(
            np.log(2.0), rel=1e-15
        )

    def test_loss_hand_value(self):
        features = sp.csr_matrix(np.array([[1.0, 0.0]]))
        labels = np.array([1.0])
        w = np.array([-2.0, 0.0])
        assert logistic_loss(w, features, labels) == pytest.approx(
            2.1269280110429727, rel=1e-15
        )

    def test_loss_stable_at_huge_margins(self):
        features = sp.csr_matrix(np.array([[1.0]]))
        labels = np.array([1.0])
        assert logistic_loss(np.array([1000.0]), features, labels) == pytest.approx(
            0.0, abs=1e-300
        )
        assert logistic_loss(np.array([-1000.0]), features, labels) == pytest.approx(
            1000.0
        )

    def test_gradient_hand_value(self):
        features = sp.csr_matrix(np.array([[1.0, 0.0]]))
        labels = np.array([1.0])
        np.testing.assert_allclose(
            logistic_gradient(np.zeros(2), features, labels), [-0.5, 0.0]
        )

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        features = sp.csr_matrix(rng.normal(size=(8, 4)))
        labels = np.where(rng.random(8) < 0.5, -1.0, 1.0)
        w = rng.normal(size=4)
        numeric = central_difference(
            lambda v: logistic_loss(v, features, labels), w
        )
        analytic = logistic_gradient(w, features, labels)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_accuracy_counts_zero_margin_as_wrong(self):
        features = sp.csr_matrix(np.array([[1.0], [-1.0], [0.0]]))
        labels = np.array([1.0, -1.0, 1.0])
        assert classification_accuracy(np.array([1.0]), features, labels) == (
            pytest.approx(2.0 / 3.0)
        )


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
        features = sp.csr_matrix(rng.normal(size=(12, 3)))
        labels = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        if not with_test:
            return LogisticProblem(features, labels)
        test_features = sp.csr_matrix(rng.normal(size=(6, 3)))
        test_labels = np.where(rng.random(6) < 0.5, -1.0, 1.0)
        return LogisticProblem(features, labels, test_features, test_labels)

    def test_n_components(self):
        assert self._small_problem().n_components == 12

    def test_metadata_trace_bound(self):
        features = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        problem = LogisticProblem(features, np.array([1.0, -1.0]))
        meta = problem.metadata
        assert meta.dimension == 2
        assert meta.smoothness == pytest.approx(0.25 * 5.0 / 2.0)
        assert type(meta.smoothness) is float

    def test_metadata_rejects_all_zero_features(self):
        # explicit zeros are stored entries but still give L = 0
        features = sp.csr_matrix(
            (np.zeros(2), np.array([0, 1]), np.array([0, 1, 2])), shape=(2, 2)
        )
        problem = LogisticProblem(features, np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="no nonzero feature value"):
            problem.metadata

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
        assert loss == pytest.approx(
            logistic_loss(w, problem.features, problem.labels)
        )
        assert 0.0 <= acc <= 1.0
        test_loss, test_acc = problem.test_metrics(w)
        assert np.isfinite(test_loss)
        assert 0.0 <= test_acc <= 1.0

    def test_test_metrics_nan_without_split(self):
        loss, acc = self._small_problem().test_metrics(np.zeros(3))
        assert np.isnan(loss) and np.isnan(acc)

    def test_validation_errors(self):
        features = sp.csr_matrix(np.eye(3))
        labels = np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="labels"):
            LogisticProblem(features, np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            LogisticProblem(features, labels[:2])
        with pytest.raises(ValueError, match="together"):
            LogisticProblem(features, labels, test_features=features)
        with pytest.raises(ValueError, match="dimensions differ"):
            LogisticProblem(
                features,
                labels,
                test_features=sp.csr_matrix(np.eye(4)),
                test_labels=np.ones(4),
            )


def _reference_gradient(problem, indices, w):
    """The per-seed formula: mean gradient over the selected rows, duplicates counted."""
    rows = problem.features[indices]
    y = problem.labels[indices]
    coeff = -y * expit(-y * (rows @ w))
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
        return LogisticProblem(sp.csr_matrix(dense), labels)

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
        features = sp.csr_matrix(rng.normal(size=(20, 6)))
        labels = np.where(rng.random(20) < 0.5, -1.0, 1.0)
        problem = LogisticProblem(features, labels)
        for _ in range(5):
            w = rng.normal(size=6)
            numeric = central_difference(problem.value, w)
            rel = np.linalg.norm(problem.gradient(w) - numeric) / max(
                1.0, np.linalg.norm(numeric)
            )
            assert rel <= 1e-5
