"""run_experiment, tune_grid and verify_theorem against independent,
per-seed and per-step references.

The logistic reference reads the LIBSVM text itself into dense rows, steps
one seed at a time with its own default_rng(base_seed + i), one
integers(0, n, b) call per step, computes each gradient, sigmoid and loss
with the math module, and picks the safeguard's branch with an explicit
if.  It shares no code with the engine: not the parser, the draw chunks,
the mini-batch gather, the step kernel, the margin kernel or the
checkpoint rule.  Seeds, iterations and case counts must match exactly;
losses and accuracies, whose sums run in another order, within 1e-12
relative.  The synthetic run reference is built the same way from the
closed-form objectives and one standard_normal(dim) call per step and
seed, and the verify reference from the guarantee's 1-d objective, its
noise fields and its stepsize fields.  Both run references also take
small configs that hypothesis draws, and the synthetic one a diverging
stepsize, whose rows freeze at a non-finite loss.
"""

import dataclasses
import functools
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from trish import harness
from trish.harness import (
    ExperimentConfig,
    run_experiment,
    tune_grid,
    verification_setup,
    verify_theorem,
)
from trish.theory import SE_MARGIN

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "trish" / "data"
TRAIN = str(DATA_DIR / "train.libsvm")
TEST = str(DATA_DIR / "test.libsvm")


@functools.cache
def _dense(path: str) -> tuple[list[list[float]], list[float]]:
    """Dense rows over the columns both bundled splits span, and labels
    mapped onto -1/+1."""
    lines = {p: Path(p).read_text(encoding="utf-8").splitlines() for p in (TRAIN, TEST)}
    width = max(int(pair.split(":")[0]) for text in lines.values() for line in text
                for pair in line.split()[1:])
    rows, labels = [], []
    for line in lines[path]:
        label, *pairs = line.split()
        row = [0.0] * width
        for pair in pairs:
            index, value = pair.split(":")
            row[int(index) - 1] = float(value)
        rows.append(row)
        labels.append(1.0 if float(label) > 0.0 else -1.0)
    return rows, labels


def _dot(row: list[float], w: list[float]) -> float:
    return sum(z * v for z, v in zip(row, w))


def _sigmoid(t: float) -> float:
    return 1.0 / (1.0 + math.exp(-t)) if t > -700.0 else 0.0


def _metrics(rows, labels, w) -> tuple[float, float]:
    """Mean logistic loss log(1 + exp(-y z.w)) and the share of y z.w > 0."""
    loss = correct = 0.0
    for row, y in zip(rows, labels):
        t = -y * _dot(row, w)
        loss += t + math.log1p(math.exp(-t)) if t > 0.0 else math.log1p(math.exp(t))
        correct += t < 0.0  # y z.w > 0
    return loss / len(rows), correct / len(rows)


def _step(config: ExperimentConfig, k: int, w: list[float], g: list[float], cases) -> list:
    """Step k of config's method from w along -g, counting the safeguard's
    branch in cases while w and g are finite."""
    if config.alpha is not None:
        alpha = config.alpha
    else:
        alpha = config.schedule_a / (config.schedule_b + k)
    norm = math.sqrt(sum(gi * gi for gi in g))
    if config.method == "sg":
        scale, case = alpha, None
    elif norm < 1.0 / config.gamma1:
        scale, case = config.gamma1 * alpha, 0
    elif norm <= 1.0 / config.gamma2:
        scale, case = alpha / norm, 1
    else:
        scale, case = config.gamma2 * alpha, 2
    if case is not None and all(math.isfinite(v) for v in w + g):
        cases[case] += 1
    return [wi - scale * gi for wi, gi in zip(w, g)]


def _checkpoints(config: ExperimentConfig, total: int) -> dict[int, list[float]]:
    """Each checkpoint's iteration, ceil(fraction * total) and at least 1,
    mapped to its fractions in order: two fractions may share one."""
    checkpoints = {}
    for fraction in config.checkpoint_fractions:
        checkpoints.setdefault(max(1, math.ceil(fraction * total)), []).append(fraction)
    return checkpoints


def reference_run(config: ExperimentConfig) -> list[tuple]:
    """Each seed's records as (seed, fraction, iteration, train_loss, train_acc,
    test_loss, test_acc, case1, case2, case3), seed by seed, on the bundled data."""
    (train, train_y), (test, test_y) = _dense(TRAIN), _dense(TEST)
    width = len(train[0])
    n, b = len(train), config.batch_size
    checkpoints = _checkpoints(config, -(-n // b) * config.epochs)
    records = []
    for i in range(config.n_seeds):
        rng = np.random.default_rng(config.base_seed + i)
        w, cases = [0.0] * width, [0, 0, 0]
        for k in range(1, max(checkpoints) + 1):
            g = [0.0] * width
            for j in rng.integers(0, n, size=b).tolist():
                y = train_y[j]
                coeff = -y * _sigmoid(-y * _dot(train[j], w)) / b
                g = [gi + coeff * z for gi, z in zip(g, train[j])]
            w = _step(config, k, w, g, cases)
            if k in checkpoints:
                metrics = (*_metrics(train, train_y, w), *_metrics(test, test_y, w))
                records += [(config.base_seed + i, fraction, k, *metrics, *cases)
                            for fraction in checkpoints[k]]
    return records


_CONFIGS = [
    dict(method=method, batch_size=batch, **stepsize)
    for method in ("trish", "sg")
    for stepsize in (dict(alpha=0.5), dict(schedule_a=5.0, schedule_b=10.0))
    for batch in (5, 20)
]


@pytest.mark.parametrize(
    "fields", _CONFIGS, ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items())
)
def test_run_matches_the_reference(fields):
    config = ExperimentConfig(
        problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=2.0, gamma2=0.8,
        n_seeds=2, base_seed=7, checkpoint_fractions=(0.25, 0.5, 1.0), **fields,
    )
    want = _assert_run_matches(config)
    if config.method == "trish":
        assert min(want[-1][7:]) > 0  # every branch fires


def _assert_run_matches(config: ExperimentConfig) -> list[tuple]:
    """Assert run_experiment gives reference_run's records, and return them."""
    want = reference_run(config)
    got = [
        (r.seed, r.checkpoint_fraction, r.iteration, r.train_loss, r.train_acc, r.test_loss,
         r.test_acc, r.case1, r.case2, r.case3)
        for r in run_experiment(config).records
    ]
    assert [r[:3] + r[7:] for r in got] == [r[:3] + r[7:] for r in want]
    np.testing.assert_allclose([r[3:7] for r in got], [r[3:7] for r in want], rtol=1e-12, atol=0)
    return want


# Small configs: each stepsize form, fractions whose checkpoints need ceil.
_FIXED = st.builds(lambda alpha: dict(alpha=alpha), st.floats(0.01, 1.0))
_HARMONIC = st.builds(lambda a, b: dict(schedule_a=a, schedule_b=b),
                      st.floats(0.1, 10.0), st.floats(0.0, 20.0))
_FRACTIONS = st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True).map(
    lambda percents: tuple(p / 100 for p in sorted(percents)))
# No shrink phase: a logistic reference run takes up to ~0.1 s, and
# shrinking one failure took minutes; the failing example is still shown.
_DRAWN = settings(max_examples=6, deadline=None, derandomize=True, database=None,
                  phases=(Phase.generate,))


@_DRAWN
@given(method=st.sampled_from(["trish", "sg"]), stepsize=st.one_of(_FIXED, _HARMONIC),
       batch=st.integers(10, 60), seeds=st.integers(1, 2), fractions=_FRACTIONS)
def test_drawn_run_matches_the_reference(method, stepsize, batch, seeds, fractions):
    _assert_run_matches(ExperimentConfig(
        method=method, problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=2.0,
        gamma2=0.8, batch_size=batch, n_seeds=seeds, base_seed=seeds + batch,
        checkpoint_fractions=fractions, **stepsize,
    ))


def _sin(t: float) -> float:
    """sin(t), and nan at an infinite t, where math.sin raises."""
    return math.sin(t) if math.isfinite(t) else math.nan


def reference_synthetic_run(config: ExperimentConfig) -> list[tuple]:
    """Each seed's records on a synthetic objective, in reference_run's
    layout, from x = 1 in every coordinate.

    The quadratic is f(x) = sum x_i^2 / 2 and the nonconvex PL objective
    f(x) = sum x_i^2 + 3 sin^2(x_i); a sample is the gradient plus sigma
    times one standard_normal(dim) call per step from the seed's own
    default_rng(base_seed + i).  Only the train loss is measured: nan once
    x is not finite, and a checkpoint whose loss is not finite makes x nan,
    so a diverged seed steps on in nan and counts no more branches.
    """
    checkpoints = _checkpoints(config, config.max_iterations)
    quadratic = config.problem == "quadratic"
    records = []
    for i in range(config.n_seeds):
        rng = np.random.default_rng(config.base_seed + i)
        x, cases = [1.0] * config.dimension, [0, 0, 0]
        for k in range(1, max(checkpoints) + 1):
            g = list(x) if quadratic else [2.0 * xi + 3.0 * _sin(2.0 * xi) for xi in x]
            noise = rng.standard_normal(config.dimension).tolist()
            x = _step(config, k, x, [gi + config.sigma * z for gi, z in zip(g, noise)], cases)
            if k in checkpoints:
                if not all(math.isfinite(xi) for xi in x):
                    loss = math.nan
                elif quadratic:
                    loss = sum(0.5 * (xi * xi) for xi in x)
                else:
                    loss = sum(xi * xi + 3.0 * math.sin(xi) ** 2 for xi in x)
                if not math.isfinite(loss):
                    x = [math.nan] * config.dimension
                records += [(config.base_seed + i, fraction, k, loss, *cases)
                            for fraction in checkpoints[k]]
    return records


_SYNTHETIC_CONFIGS = [
    dict(problem=problem, method=method, **stepsize)
    for problem in ("quadratic", "nonconvex_pl")
    for method in ("trish", "sg")
    for stepsize in (dict(alpha=0.1), dict(schedule_a=1.0, schedule_b=4.0))
]


@pytest.mark.parametrize("chunk", [7, None], ids=["7-step-chunks", "one-chunk"])
@pytest.mark.parametrize(
    "fields", _SYNTHETIC_CONFIGS, ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items())
)
def test_synthetic_run_matches_the_reference(monkeypatch, fields, chunk):
    """The per-seed noise reaches each step whatever the chunk: with 7-step
    chunks, 200 steps cross 28 prefetch boundaries."""
    config = ExperimentConfig(
        gamma1=4.0, gamma2=1.6, sigma=0.3, max_iterations=200, dimension=3, n_seeds=3,
        base_seed=11, checkpoint_fractions=(0.1, 0.5, 1.0), **fields,
    )
    if chunk is not None:
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 8 * 3 * 3 * chunk)
    want = _assert_synthetic_run_matches(config)
    if config.method == "trish":
        assert min(want[-1][4:]) > 0  # every branch fires


def _assert_synthetic_run_matches(config: ExperimentConfig) -> list[tuple]:
    """Assert run_experiment gives reference_synthetic_run's records, inf and
    nan losses in the same places, and return them."""
    want = reference_synthetic_run(config)
    records = run_experiment(config).records
    got = [(r.seed, r.checkpoint_fraction, r.iteration, r.train_loss, r.case1, r.case2, r.case3)
           for r in records]
    assert [r[:3] + r[4:] for r in got] == [r[:3] + r[4:] for r in want]
    np.testing.assert_allclose([r[3] for r in got], [r[3] for r in want], rtol=1e-12, atol=0)
    assert all(math.isnan(v) for r in records for v in (r.train_acc, r.test_loss, r.test_acc))
    return want


@settings(_DRAWN, max_examples=25)
@given(problem=st.sampled_from(["quadratic", "nonconvex_pl"]),
       method=st.sampled_from(["trish", "sg"]), stepsize=st.one_of(_FIXED, _HARMONIC),
       dimension=st.integers(1, 3), sigma=st.floats(0.01, 2.0), seeds=st.integers(1, 3),
       steps=st.integers(1, 80), fractions=_FRACTIONS, chunk_bytes=st.integers(1, 8 * 3 * 3 * 9))
def test_drawn_synthetic_run_matches_the_reference(
    problem, method, stepsize, dimension, sigma, seeds, steps, fractions, chunk_bytes
):
    """chunk_bytes runs from below one step's draws to 9 steps of the widest block."""
    config = ExperimentConfig(
        problem=problem, method=method, gamma1=4.0, gamma2=1.6, sigma=sigma,
        max_iterations=steps, dimension=dimension, n_seeds=seeds, base_seed=steps,
        checkpoint_fractions=fractions, **stepsize,
    )
    with mock.patch.object(harness, "_CHUNK_BYTES", chunk_bytes):
        _assert_synthetic_run_matches(config)


@pytest.mark.parametrize("problem", ["quadratic", "nonconvex_pl"])
@pytest.mark.parametrize("method", ["trish", "sg"])
@pytest.mark.parametrize(
    "stepsize", [dict(alpha=1e20), dict(schedule_a=1e21, schedule_b=4.0)], ids=["fixed", "harmonic"]
)
def test_diverging_run_matches_the_reference(problem, method, stepsize):
    """With alpha near 1e20 every seed's x grows ~1e20-fold a step: at step 8
    x is finite but its loss is inf, which freezes the row, so later
    checkpoints read nan and no later step counts a branch."""
    config = ExperimentConfig(
        problem=problem, method=method, gamma1=4.0, gamma2=1.6, sigma=0.3, max_iterations=100,
        dimension=2, n_seeds=3, base_seed=11, checkpoint_fractions=(0.08, 0.1, 0.5, 1.0),
        **stepsize,
    )
    want = _assert_synthetic_run_matches(config)
    assert all(r[3] == math.inf if r[2] == 8 else math.isnan(r[3]) for r in want)


def test_tune_matches_the_reference(monkeypatch):
    """Every grid point's means are those of its own reference runs, so the
    block's rows (seed i of point p at row p * S + i) reach the right point."""
    _assert_tune_matches_the_reference(monkeypatch, None)


@pytest.mark.parametrize("parts", [3, 1], ids=["parts-of-3", "parts-of-1"])
def test_tune_in_parts_matches_the_reference(monkeypatch, parts):
    """The same holds when _TUNE_BLOCK_BYTES fits only `parts` points and
    the block runs in parts."""
    _assert_tune_matches_the_reference(monkeypatch, parts)


def _assert_tune_matches_the_reference(monkeypatch, parts):
    """tune_grid's means against reference_run's, with the block cut to
    `parts` points when parts is not None."""
    base = ExperimentConfig(
        problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=2.0, gamma2=0.8,
        alpha=0.25, batch_size=20, n_seeds=2, base_seed=3, checkpoint_fractions=(1.0,),
    )
    grid = {("gamma1", "gamma2"): [(2.0, 0.8), (4.0, 1.6)], "alpha": [0.25, 0.5]}
    if parts is not None:
        rows, _ = _dense(TRAIN)  # a point's 2 seeds' iterates and margin-kernel arrays
        point_bytes = 8 * 2 * (2 * len(rows[0]) + 3 * len(rows))
        monkeypatch.setattr(harness, "_TUNE_BLOCK_BYTES", parts * point_bytes)
    blocks, run_block = [], harness._run_block

    def spy(configs, *rest, **options):
        blocks.append(len(configs))
        return run_block(configs, *rest, **options)

    monkeypatch.setattr(harness, "_run_block", spy)
    # one usable CPU, so that this process runs _run_split's whole queue, where the spy sees it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    entries = tune_grid(base, grid).entries
    # the grid's block or its parts, longest first, then the winner's own run
    assert blocks == {None: [4, 1], 3: [3, 1, 1], 1: [1, 1, 1, 1, 1]}[parts]
    assert len(entries) == 4
    for entry in entries:
        finals = reference_run(dataclasses.replace(base, **entry.params))
        want = [math.fsum(r[field] for r in finals) / len(finals) for field in (3, 4, 5, 6)]
        got = [entry.means[f] for f in ("train_loss", "train_acc", "test_loss", "test_acc")]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def reference_verify(setup, base_seed: int) -> tuple[list, list, list]:
    """verify's per-k mean, SE and (guarantee 5) weighted average, one seed at a time.

    Guarantees 1-3 run on f(x) = x^2/2, 4 and 5 on f(x) = x^2 + 3 sin^2(x);
    both have minimum 0.  alpha_k comes from the schedule's fields and this
    loop's k, sigma_k from the oracle's fields.  The noise follows verify's
    draw rule: one (n_seeds, 1) standard_normal block per step, from a single
    default_rng(base_seed).
    """
    n, horizon, theorem = setup.n_seeds, setup.horizon, setup.tc.theorem_id
    schedule, noise = setup.schedule, setup.oracle
    gamma1, gamma2 = setup.params.gamma1, setup.params.gamma2
    rng = np.random.default_rng(base_seed)
    blocks = [rng.standard_normal((n, 1)).tolist() for _ in range(horizon - 1)]

    def alpha(k):
        return schedule.a if schedule.kind == "fixed" else schedule.a / (schedule.b + k)

    def sigma(k):
        if noise.kind == "constant":
            return noise.sigma0
        if noise.kind == "coupled":
            return noise.multiplier * alpha(k)
        return math.sqrt(noise.m3 * noise.zeta ** (k - 1))

    curves = [[] for _ in range(horizon)]
    for i in range(n):
        x, total = float(setup.x1[0]), 0.0
        for k in range(1, horizon + 1):
            if theorem <= 3:
                g = x
                curves[k - 1].append(0.5 * (x * x))
            else:
                g = 2.0 * x + 3.0 * math.sin(2.0 * x)
                total += g * g if theorem == 4 else alpha(k) * (g * g)
                curves[k - 1].append(total / k if theorem == 4 else total)
            if k == horizon:
                break
            sample = g + sigma(k) * blocks[k - 1][i][0]
            if abs(sample) < 1.0 / gamma1:
                x -= gamma1 * alpha(k) * sample
            elif abs(sample) <= 1.0 / gamma2:
                x -= alpha(k) / abs(sample) * sample
            else:
                x -= gamma2 * alpha(k) * sample
    means = [math.fsum(curve) / n for curve in curves]
    ses = [
        math.sqrt(math.fsum((v - mean) ** 2 for v in curve) / (n - 1)) / math.sqrt(n)
        for curve, mean in zip(curves, means)
    ]
    weighted = [mean / math.fsum(alpha(j) for j in range(1, k + 1))
                for k, mean in enumerate(means, start=1)]
    return means, ses, weighted


@pytest.mark.parametrize("theorem", [1, 2, 3, 4, 5])
def test_verify_matches_the_reference(theorem):
    setup = verification_setup(theorem, n_seeds=16)
    setup = dataclasses.replace(setup, horizon=min(setup.horizon, 500))
    report = verify_theorem(setup, base_seed=5)
    means, ses, weighted = reference_verify(setup, base_seed=5)
    assert report.k.tolist() == list(range(1, setup.horizon + 1))
    np.testing.assert_allclose(report.empirical, means, rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.standard_error, ses, rtol=1e-12, atol=0)
    if theorem == 5:
        np.testing.assert_allclose(report.weighted_average, weighted, rtol=1e-12, atol=0)
    # the bound is theory's; the verdict at each k is the 3-SE rule with verify's float guard
    violated = [
        not mean <= bound + 1e-12 * max(1.0, abs(bound)) + SE_MARGIN * se
        for mean, se, bound in zip(means, ses, report.bound.tolist())
    ]
    assert report.violated.tolist() == violated
