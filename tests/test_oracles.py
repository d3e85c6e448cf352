"""The Gaussian oracle's noise regimes, and the two-point oracle."""

import dataclasses
import math

import numpy as np
import pytest

from trish.oracles import (
    GaussianOracle,
    OracleMoments,
    TwoPointOracle,
)
from trish.theory import gaussian_conditional_product

TWO_ROOT_2PI = 2.0 * math.sqrt(2.0 * math.pi)


class TestNoiseRegime:
    def test_constant(self):
        oracle = GaussianOracle.constant(0.3)
        assert oracle.sigma(1) == 0.3
        assert oracle.sigma(1000) == 0.3

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GaussianOracle.constant(0.0)

    def test_coupled_needs_stepsize(self):
        oracle = GaussianOracle.coupled(2.0)
        assert oracle.sigma(5, alpha_k=0.1) == pytest.approx(0.2)
        with pytest.raises(ValueError, match="stepsize"):
            oracle.sigma(5)

    def test_geometric_hand_values(self):
        oracle = GaussianOracle.geometric(m3=4.0, zeta=0.25)
        assert oracle.sigma(1) == 2.0
        assert oracle.sigma(2) == 1.0
        assert oracle.sigma(3) == 0.5

    def test_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            GaussianOracle.constant(1.0).sigma(0)

    def test_unknown_kind_is_rejected(self):
        # It used to build an oracle whose sigma(k) was 0.0: the exact gradient.
        with pytest.raises(ValueError, match="unknown noise kind 'bogus'"):
            GaussianOracle("bogus")

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind="constant", sigma0=-1.0), "constant sigma must be positive, got -1.0"),
            (dict(kind="constant"), "constant sigma must be positive, got 0.0"),
            (dict(kind="coupled", multiplier=math.inf), "multiplier must be positive, got inf"),
            (dict(kind="coupled"), "multiplier must be positive, got 0.0"),
            (dict(kind="geometric", m3=1.0, zeta=1.0), "zeta must lie in \\(0, 1\\), got 1.0"),
            (dict(kind="geometric", zeta=0.5), "M3 must be positive, got 0.0"),
            (dict(kind="geometric", m3=math.inf, zeta=0.5), "M3 must be positive, got inf"),
        ],
        ids=[
            "constant-negative",
            "constant-unset",
            "coupled-inf",
            "coupled-unset",
            "geometric-zeta-one",
            "geometric-m3-unset",
            "geometric-m3-inf",
        ],
    )
    def test_direct_construction_is_validated(self, fields, message):
        with pytest.raises(ValueError, match=message):
            GaussianOracle(**fields)


class TestGaussianOracle:
    def test_unbiased(self):
        oracle = GaussianOracle.constant(2.0)
        rng = np.random.default_rng(5)
        grad = np.array([1.0, -2.0])
        draws = np.array([oracle.sample(grad, 1, rng.standard_normal(2)) for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(axis=0), grad, atol=0.05)
        np.testing.assert_allclose(draws.std(axis=0), 2.0, rtol=0.05)

    def test_batched_rows_are_independent(self):
        oracle = GaussianOracle.constant(1.0)
        rng = np.random.default_rng(6)
        batch = oracle.sample(np.zeros((50000, 1)), 1, rng.standard_normal((50000, 1)))
        assert batch.shape == (50000, 1)
        assert abs(float(batch.mean())) < 0.02
        assert float(batch.std()) == pytest.approx(1.0, rel=0.02)

    def test_coupled_noise_scales_with_stepsize(self):
        oracle = GaussianOracle.coupled(1.0)
        rng = np.random.default_rng(7)
        noise = rng.standard_normal((40000, 1))
        draws = oracle.sample(np.zeros((40000, 1)), 3, noise, alpha_k=0.05)
        assert float(draws.std()) == pytest.approx(0.05, rel=0.05)

    @pytest.mark.parametrize(
        "oracle",
        [
            GaussianOracle.constant(0.3),
            GaussianOracle.coupled(2.0),
            GaussianOracle.geometric(0.04, 0.25),
        ],
        ids=["constant", "coupled", "geometric"],
    )
    @pytest.mark.parametrize("shape", [(), (3,), (2000, 1), (40, 7)])
    def test_sample_keeps_its_bits_and_leaves_the_gradient(self, oracle, shape):
        """grad + sigma_k * z for the normals z it is given, bit for bit, at
        gradients from subnormal to near overflow, with inf, nan and signed
        zeros; the gradient passed in is not written, and the sample is z's
        own array, scaled and shifted in place."""
        rng = np.random.default_rng(9)
        grad = rng.standard_normal(shape) * 10.0 ** rng.uniform(-330.0, 300.0, shape)
        if grad.size > 4:
            grad.flat[:4] = [math.inf, -math.inf, math.nan, -0.0]
        before = grad.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            noise = np.random.default_rng(10).standard_normal(shape)
            got = oracle.sample(grad, 3, noise, alpha_k=0.05)
            want = grad + oracle.sigma(3, 0.05) * np.random.default_rng(10).standard_normal(shape)
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(grad.view(np.uint64), before.view(np.uint64))
        assert not np.shares_memory(got, grad)
        assert got is noise

    def test_moments_constant(self):
        oracle = GaussianOracle.constant(0.5)
        moments = oracle.moments(dim=4)
        assert moments.m1 == pytest.approx(4 * 0.25)
        assert moments.m2 == 1.0

    def test_moments_coupled_requires_alpha_max(self):
        oracle = GaussianOracle.coupled(2.0)
        with pytest.raises(ValueError, match="alpha_max"):
            oracle.moments(dim=1)
        moments = oracle.moments(dim=3, alpha_max=0.1)
        assert moments.m1 == pytest.approx(3 * (2.0 * 0.1) ** 2)

    def test_moments_geometric_carries_decay(self):
        oracle = GaussianOracle.geometric(m3=0.04, zeta=0.25)
        moments = oracle.moments(dim=2)
        assert moments.m1 == pytest.approx(0.08)

    def test_second_moment_identity(self):
        # E||g||^2 = ||grad||^2 + dim * sigma^2 for isotropic noise
        oracle = GaussianOracle.constant(0.7)
        rng = np.random.default_rng(8)
        grad = np.array([0.6, -0.8, 0.0])
        draws = oracle.sample(np.tile(grad, (200000, 1)), 1, rng.standard_normal((200000, 3)))
        emp = float(np.mean(np.sum(draws**2, axis=1)))
        expected = 1.0 + 3 * 0.49
        assert emp == pytest.approx(expected, rel=0.01)


class TestAssumptionPair:
    def test_constant_hand_values(self):
        h1, h2 = GaussianOracle.constant(TWO_ROOT_2PI).assumption_pair()
        assert h1 == pytest.approx(1.0, rel=1e-15)
        assert h2 == pytest.approx(2.0, rel=1e-15)
        h1, h2 = GaussianOracle.constant(1.0).assumption_pair()
        assert h1 == pytest.approx(0.19947114020071635, rel=1e-14)
        assert h2 == pytest.approx(1.1994711402007163, rel=1e-14)

    def test_coupled_hand_values(self):
        h3, h4 = GaussianOracle.coupled(2.0).assumption_pair(alpha_max=0.5)
        assert h3 == pytest.approx(2.0 * 0.19947114020071635, rel=1e-14)
        assert h4 == pytest.approx(1.0 + 0.19947114020071635, rel=1e-14)

    def test_geometric_hand_values(self):
        h5, h6 = GaussianOracle.geometric(m3=4.0, zeta=0.25).assumption_pair()
        assert h5 == pytest.approx(2.0 / TWO_ROOT_2PI, rel=1e-15)
        assert h6 == pytest.approx(1.0 + 2.0 / TWO_ROOT_2PI, rel=1e-15)

    @pytest.mark.parametrize("alpha_max", [None, -0.5, math.inf, math.nan])
    @pytest.mark.parametrize("method", ["moments", "assumption_pair"])
    def test_coupled_alpha_max_must_be_finite_and_positive(self, method, alpha_max):
        oracle = GaussianOracle.coupled(1.0)
        args = (1, alpha_max) if method == "moments" else (alpha_max,)
        with pytest.raises(ValueError, match="alpha_max"):
            getattr(oracle, method)(*args)

    @pytest.mark.parametrize(
        "oracle",
        [
            GaussianOracle.constant(0.05),
            GaussianOracle.constant(0.5),
            GaussianOracle.constant(1.0),
            GaussianOracle.constant(5.0),
            GaussianOracle.coupled(2.0),
            GaussianOracle.geometric(m3=4.0, zeta=0.25),
        ],
        ids=[
            "constant-0.05", "constant-0.5", "constant-1.0", "constant-5.0", "coupled", "geometric"
        ],
    )
    def test_pair_bounds_the_conditional_product(self, oracle):
        # sigma_k comes from the oracle itself: the level sample() draws at
        alpha_max = 0.7
        h_a, h_b = oracle.assumption_pair(alpha_max)
        for k, alpha_k in ((1, 0.01), (2, 0.2), (5, alpha_max), (20, alpha_max)):
            sigma_k = oracle.sigma(k, alpha_k)
            d_k = {
                "constant": 1.0,
                "coupled": alpha_k,
                "geometric": math.sqrt(oracle.zeta) ** (k - 1),
            }[oracle.kind]
            for m in np.geomspace(1e-4, 100.0, 60):
                product = gaussian_conditional_product(m, sigma_k)
                assert product <= h_a * d_k + h_b * m * m + 1e-12


class TestOracleMoments:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleMoments(m1=-1.0, m2=1.0)
        with pytest.raises(ValueError):
            OracleMoments(m1=1.0, m2=0.0)


class TestTwoPointOracle:
    def test_default_moments(self):
        oracle = TwoPointOracle()
        assert oracle.mean == pytest.approx(1.0)
        assert oracle.second_moment() == pytest.approx(13.5)
        moments = oracle.moments()
        assert moments.m1 == pytest.approx(13.5 - 1.0)

    def test_mean_follows_the_outcomes(self):
        assert TwoPointOracle().mean == 1.0
        assert TwoPointOracle(value_pos=1.0, value_neg=-1.0, prob_pos=0.5).mean == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            TwoPointOracle().mean = 2.0

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
