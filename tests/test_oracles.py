"""Noise schedules and the Gaussian and two-point oracles."""

import numpy as np
import pytest

from trish.oracles import (
    GaussianOracle,
    OracleMoments,
    SigmaSchedule,
    TwoPointOracle,
)


class TestSigmaSchedule:
    def test_constant(self):
        schedule = SigmaSchedule.constant(0.3)
        assert schedule.sigma(1) == 0.3
        assert schedule.sigma(1000) == 0.3

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SigmaSchedule.constant(0.0)

    def test_coupled_needs_stepsize(self):
        schedule = SigmaSchedule.coupled(2.0)
        assert schedule.sigma(5, alpha_k=0.1) == pytest.approx(0.2)
        with pytest.raises(ValueError, match="stepsize"):
            schedule.sigma(5)

    def test_geometric_hand_values(self):
        schedule = SigmaSchedule.geometric(m3=4.0, zeta=0.25)
        assert schedule.sigma(1) == 2.0
        assert schedule.sigma(2) == 1.0
        assert schedule.sigma(3) == 0.5

    def test_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            SigmaSchedule.constant(1.0).sigma(0)


class TestGaussianOracle:
    def test_unbiased(self):
        oracle = GaussianOracle(SigmaSchedule.constant(2.0))
        rng = np.random.default_rng(5)
        grad = np.array([1.0, -2.0])
        draws = np.array([oracle.sample(grad, 1, rng) for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(axis=0), grad, atol=0.05)
        np.testing.assert_allclose(draws.std(axis=0), 2.0, rtol=0.05)

    def test_batched_rows_are_independent(self):
        oracle = GaussianOracle(SigmaSchedule.constant(1.0))
        rng = np.random.default_rng(6)
        batch = oracle.sample(np.zeros((50000, 1)), 1, rng)
        assert batch.shape == (50000, 1)
        assert abs(float(batch.mean())) < 0.02
        assert float(batch.std()) == pytest.approx(1.0, rel=0.02)

    def test_coupled_noise_scales_with_stepsize(self):
        oracle = GaussianOracle(SigmaSchedule.coupled(1.0))
        rng = np.random.default_rng(7)
        draws = oracle.sample(np.zeros((40000, 1)), 3, rng, alpha_k=0.05)
        assert float(draws.std()) == pytest.approx(0.05, rel=0.05)

    def test_moments_constant(self):
        oracle = GaussianOracle(SigmaSchedule.constant(0.5))
        moments = oracle.moments(dim=4)
        assert moments.m1 == pytest.approx(4 * 0.25)
        assert moments.m2 == 1.0

    def test_moments_coupled_requires_alpha_max(self):
        oracle = GaussianOracle(SigmaSchedule.coupled(2.0))
        with pytest.raises(ValueError, match="alpha_max"):
            oracle.moments(dim=1)
        moments = oracle.moments(dim=3, alpha_max=0.1)
        assert moments.m1 == pytest.approx(3 * (2.0 * 0.1) ** 2)

    def test_moments_geometric_carries_decay(self):
        oracle = GaussianOracle(SigmaSchedule.geometric(m3=0.04, zeta=0.25))
        moments = oracle.moments(dim=2)
        assert moments.m1 == pytest.approx(0.08)
        assert moments.m3 == pytest.approx(0.08)
        assert moments.zeta == 0.25

    def test_second_moment_identity(self):
        # E||g||^2 = ||grad||^2 + dim * sigma^2 for isotropic noise
        oracle = GaussianOracle(SigmaSchedule.constant(0.7))
        rng = np.random.default_rng(8)
        grad = np.array([0.6, -0.8, 0.0])
        draws = oracle.sample(np.tile(grad, (200000, 1)), 1, rng)
        emp = float(np.mean(np.sum(draws**2, axis=1)))
        expected = 1.0 + 3 * 0.49
        assert emp == pytest.approx(expected, rel=0.01)


class TestOracleMoments:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleMoments(m1=-1.0, m2=1.0)
        with pytest.raises(ValueError):
            OracleMoments(m1=1.0, m2=0.0)
        # m3 and zeta travel together
        with pytest.raises(ValueError):
            OracleMoments(m1=1.0, m2=1.0, m3=0.5)


class TestTwoPointOracle:
    def test_default_moments(self):
        oracle = TwoPointOracle()
        assert oracle.mean == pytest.approx(1.0)
        assert oracle.second_moment() == pytest.approx(13.5)
        moments = oracle.moments()
        assert moments.m1 == pytest.approx(13.5 - 1.0)

    def test_rejects_zero_mean(self):
        with pytest.raises(ValueError):
            TwoPointOracle(value_pos=1.0, value_neg=-1.0, prob_pos=0.5)

    def test_sample_frequencies(self):
        oracle = TwoPointOracle()
        rng = np.random.default_rng(9)
        draws = oracle.sample(rng, size=200000)
        assert set(np.unique(draws)) == {-1.5, 6.0}
        freq_pos = float(np.mean(draws == 6.0))
        assert freq_pos == pytest.approx(1.0 / 3.0, abs=0.01)
        assert float(draws.mean()) == pytest.approx(1.0, abs=0.03)

    def test_scalar_draw(self):
        oracle = TwoPointOracle()
        value = oracle.sample(np.random.default_rng(0))
        assert value in (6.0, -1.5)
