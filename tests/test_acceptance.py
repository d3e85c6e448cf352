"""Acceptance suite: one test per shipping criterion, at the stated tolerance.

Each test prints a single [criterion-N] PASS line (visible with -s or -rA)
after its assertions; a failure shows up as the test failing.  The heavy
multi-seed checks reuse the frozen reference setups from the harness so
the numbers here match what `trish verify` reports.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from trish.core import StepCase, TrishParams, step_norm, trish_step
from trish.harness import (
    ExperimentConfig,
    run_experiment,
    tune_grid,
    verification_setup,
    verify_theorem,
)
from trish.ingest import LibsvmData, ParseError, load_libsvm, parse_libsvm, serialize_libsvm
from trish.oracles import GaussianOracle, TwoPointOracle
from trish.problems import (
    LogisticProblem,
    NonconvexPLProblem,
    QuadraticProblem,
)
from trish.theory import (
    estimate_conditional_inner_product,
    gaussian_conditional_product,
    lemma1_rhs,
    within_margin,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "trish" / "data"
TRAIN = str(DATA_DIR / "train.libsvm")
TEST = str(DATA_DIR / "test.libsvm")


def _report(criterion: int, detail: str) -> None:
    print(f"[criterion-{criterion}] PASS ({detail})")


def _run_setup(theorem_id: int, n_seeds: int = 2000):
    setup = verification_setup(theorem_id, n_seeds=n_seeds)
    return setup, verify_theorem(setup)


def test_criterion_01_step_rule_continuity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        gamma2 = rng.uniform(0.1, 2.0)
        gamma1 = gamma2 * rng.uniform(1.1, 5.0)
        alpha = rng.uniform(0.01, 2.0)
        params = TrishParams(gamma1, gamma2)
        for knot in (1.0 / gamma1, 1.0 / gamma2):
            below = step_norm(knot - 1e-9, alpha, params)
            above = step_norm(knot + 1e-9, alpha, params)
            assert abs(above - below) < 1e-6 * alpha
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"100 triples, both knots, {elapsed:.3f}s")


def test_criterion_02_ascent_direction_example():
    start = time.perf_counter()
    oracle = TwoPointOracle()
    rng = np.random.default_rng(7)
    draws = oracle.sample(rng, size=1_000_000)
    mean = float(draws.mean())
    assert abs(mean - 1.0) <= 0.02
    # the normalized step moves along -sign(g); with grad f = 1 it points
    # uphill exactly when the draw came out negative
    ascent_freq = float(np.mean(draws < 0.0))
    assert abs(ascent_freq - 2.0 / 3.0) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"mean={mean:.4f}, ascent frequency={ascent_freq:.4f}")


def test_criterion_03_conditional_inner_product():
    start = time.perf_counter()
    closed = gaussian_conditional_product(1.0, 1.0)
    # Phi(1) + phi(1); the closed form, not a rounded transcription
    assert closed == pytest.approx(1.0833154705876863, rel=1e-12)

    rng = np.random.default_rng(10)
    product, se = estimate_conditional_inner_product(
        np.array([1.0]),
        lambda r, n: 1.0 + r.standard_normal(n),
        1_000_000,
        rng,
    )
    assert abs(product - closed) <= 3.0 * se

    h1, h2 = GaussianOracle.constant(1.0).assumption_pair()
    bound = h1 + h2 * 1.0
    assert bound == pytest.approx(0.19947114020071635 + 1.1994711402007163, rel=1e-12)
    assert bound > closed
    assert within_margin(product, se, h1 + h2 * 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        3,
        f"closed={closed:.6f}, mc={product:.6f}+-{se:.2g}, bound={bound:.6f}",
    )


def test_criterion_04_fixed_stepsize_gap_bound():
    start = time.perf_counter()
    setup, report = _run_setup(1)
    assert report.ok
    # tail settles into [0, plateau] up to noise
    rate = 2.0 * setup.tc.pl_constant * setup.tc.alpha * setup.tc.theta1
    plateau = setup.tc.theta2 / rate
    tail = slice(-20, None)
    assert np.all(report.empirical[tail] >= 0.0)
    assert np.all(
        report.empirical[tail] <= plateau + 3.0 * report.standard_error[tail]
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        4,
        f"K=200, 2000 seeds, 0 violations, tail gap "
        f"{report.empirical[-1]:.4f} <= plateau {plateau:.4f}",
    )


def test_criterion_05_harmonic_stepsize_sublinear_rate():
    start = time.perf_counter()
    setup, report = _run_setup(2)
    # gap*(b+k) <= nu + 3 SE*(b+k) is the per-k check the report already ran
    assert report.ok
    window = (report.k >= 50) & (report.k <= 500)
    slope = np.polyfit(
        np.log(report.k[window]), np.log(report.empirical[window]), 1
    )[0]
    assert -1.35 <= slope <= -0.75
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"K=500, 2000 seeds, 0 violations, log-log slope {slope:.3f}")


def test_criterion_06_geometric_noise_linear_rate():
    start = time.perf_counter()
    setup, report = _run_setup(3)
    assert report.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        6,
        f"K=100, 2000 seeds, 0 violations, rho={setup.tc.rho:.4f}, "
        f"final gap {report.empirical[-1]:.2e}",
    )


def test_criterion_07_average_gradient_bound():
    start = time.perf_counter()
    setup, report = _run_setup(4)
    # the PL constant never enters the guarantee-4 constants
    assert setup.tc.pl_constant is None
    for K in (50, 100, 200):
        assert not report.violated[K - 1]
    assert report.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    checks = ", ".join(
        f"K={K}: {report.empirical[K - 1]:.3f}<={report.bound[K - 1]:.3f}"
        for K in (50, 100, 200)
    )
    _report(7, checks)


def test_criterion_08_weighted_sum_bound():
    start = time.perf_counter()
    setup, report = _run_setup(5)
    assert report.ok
    # partial sums only grow
    assert np.all(np.diff(report.empirical) >= -1e-15)
    w50 = report.weighted_average[49]
    w5000 = report.weighted_average[4999]
    assert w5000 <= 0.5 * w50
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        8,
        f"K=5000, 2000 seeds, 0 violations, weighted average "
        f"{w50:.4f} -> {w5000:.4f}",
    )


def test_criterion_09_per_case_descent_bounds():
    start = time.perf_counter()
    problem = QuadraticProblem(np.ones(1))
    params = TrishParams(gamma1=2.0, gamma2=2.0 / 3.0)
    alpha, sigma = 0.3, 1.0
    x = np.array([0.5])
    grad = problem.gradient(x)
    grad_norm_sq = float(grad @ grad)
    f_x = problem.value(x)

    rng = np.random.default_rng(99)
    n = 400_000
    g = grad + sigma * rng.standard_normal((n, 1))
    # march every draw one step and split the decreases by branch
    norms = np.abs(g[:, 0])
    cases = np.where(
        norms < params.lower_threshold,
        1,
        np.where(norms > params.upper_threshold, 3, 2),
    )
    coeff = np.where(
        cases == 1,
        params.gamma1 * alpha,
        np.where(cases == 2, alpha / np.where(norms > 0, norms, 1.0), params.gamma2 * alpha),
    )
    decreases = problem.value(x - coeff[:, None] * g) - f_x

    cp = gaussian_conditional_product(math.sqrt(grad_norm_sq), sigma)
    m1, m2 = sigma**2, 1.0
    details = []
    for case, label in ((1, StepCase.CASE1), (2, StepCase.CASE2), (3, StepCase.CASE3)):
        sample = decreases[cases == case]
        assert sample.size >= 10_000
        mean = float(sample.mean())
        se = float(sample.std(ddof=1) / math.sqrt(sample.size))
        rhs = lemma1_rhs(
            label,
            grad_norm_sq,
            alpha,
            params,
            smoothness=1.0,
            m1=m1,
            m2=m2,
            conditional_product=cp if case == 2 else None,
        )
        assert mean <= rhs + 3.0 * se
        details.append(f"case{case}: {mean:.4f}<={rhs:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(9, ", ".join(details))


def test_criterion_10_logistic_tuning_comparison():
    start = time.perf_counter()
    common = dict(
        problem="logistic",
        dataset=TRAIN,
        test_dataset=TEST,
        epochs=1,
        n_seeds=5,
        base_seed=0,
    )
    sg_base = ExperimentConfig(method="sg", alpha=1.0, batch_size=10, **common)
    sg_result = tune_grid(
        sg_base,
        {"alpha": [0.1, 0.25, 0.5, 1.0, 2.0, 4.0], "batch_size": [5, 10, 20]},
    )
    trish_base = ExperimentConfig(
        method="trish", gamma1=4.0, gamma2=1.6, alpha=1.0, batch_size=10, **common
    )
    trish_result = tune_grid(
        trish_base,
        {
            ("gamma1", "gamma2"): [(2.0, 0.8), (4.0, 1.6), (8.0, 3.2), (16.0, 6.4)],
            "alpha": [0.1, 0.25, 0.5, 1.0, 2.0],
            "batch_size": [5, 10, 20],
        },
    )

    def best_entry(result):
        match = [e for e in result.entries if e.params == result.best_params]
        assert len(match) == 1
        return match[0]

    sg_loss = best_entry(sg_result).means["train_loss"]
    trish_loss = best_entry(trish_result).means["train_loss"]
    assert trish_loss <= sg_loss

    # per-seed determinism of the winning configurations
    for config in (sg_result.best, trish_result.best):
        a = run_experiment(config).final_records()
        b = run_experiment(config).final_records()
        for ra, rb in zip(a, b):
            assert ra.seed == rb.seed
            assert ra.train_loss == rb.train_loss
            assert ra.test_acc == rb.test_acc
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        10,
        f"tuned train loss {trish_loss:.4f} (safeguarded) <= {sg_loss:.4f} (plain), "
        f"{elapsed:.0f}s",
    )


def test_criterion_11_parser_round_trip_and_errors():
    start = time.perf_counter()
    for path in (TRAIN, TEST):
        rows, _ = load_libsvm(path)
        text = serialize_libsvm(rows)
        rows_again, _ = parse_libsvm(text.splitlines())
        assert rows_again == rows
        assert serialize_libsvm(rows_again) == text

    malformed = [
        (["1 1:1.0", "x 1:1.0"], 2, "malformed label"),
        (["1 0:5"], 1, "index 0 below 1"),
        (["1 2:1 2:2"], 1, "duplicate index"),
        (["1 3:1 2:2"], 1, "non-increasing index"),
        (["1 1:nan"], 1, "non-finite value"),
        (["1 foo"], 1, "malformed index:value pair"),
    ]
    for lines, lineno, fragment in malformed:
        with pytest.raises(ParseError) as exc_info:
            parse_libsvm(lines)
        assert exc_info.value.line == lineno
        assert fragment in exc_info.value.reason
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(11, f"2 golden files, {len(malformed)} malformed cases")


def test_criterion_12_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    dense = rng.normal(size=(30, 6))
    labels = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    data = LibsvmData(labels, np.arange(0, 181, 6), np.tile(np.arange(6), 30), dense.ravel(), 6)
    problems = [
        ("quadratic", QuadraticProblem(rng.uniform(0.5, 3.0, size=4), rng.normal(size=4)), 4),
        ("nonconvex_pl", NonconvexPLProblem(4), 4),
        ("logistic", LogisticProblem(data), 6),
    ]
    h = 1e-6
    worst = 0.0
    for name, problem, dim in problems:
        for _ in range(5):
            x = rng.normal(size=dim)
            numeric = np.empty(dim)
            for i in range(dim):
                step = np.zeros(dim)
                step[i] = h
                numeric[i] = (problem.value(x + step) - problem.value(x - step)) / (2 * h)
            analytic = problem.gradient(x)
            rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))
            assert rel <= 1e-5, f"{name}: relative error {rel:.2e}"
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(12, f"3 problems x 5 points, worst relative error {worst:.2e}")
