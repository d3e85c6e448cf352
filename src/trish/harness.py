"""Experiment runner: seeded multi-run trainings, grid tuning, bound checks, CSV.

Reproducibility contract: every stochastic choice flows from
numpy.random.default_rng(base_seed + seed_index), all seeds share the
same starting point, and records are emitted in a fixed order, so a
config run twice produces identical numbers and re-emitting the same
records produces byte-identical files.  The config hash recorded in
metadata deliberately excludes base_seed: reseeding changes the
trajectories, not the experiment's identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import StepsizeSchedule, TrishParams, _trish_step_batch
from .ingest import load_libsvm, to_matrix
from .oracles import GaussianOracle, SigmaSchedule, finite_sum_minibatch
from .problems import (
    LogisticProblem,
    NonconvexPLProblem,
    QuadraticProblem,
    normalize_binary_labels,
)
from .theory import AssumptionConstants, TheoremConstants, theorem_bound

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "ExperimentResult",
    "run_experiment",
    "TuneEntry",
    "TuneResult",
    "GridDivergedError",
    "tune_grid",
    "TheoremReport",
    "verify_theorem",
    "VerificationSetup",
    "verification_setup",
    "emit_csv",
    "emit_verify_csv",
]

RUN_CSV_HEADER = (
    "seed,checkpoint_fraction,iteration,train_loss,train_acc,"
    "test_loss,test_acc,case1,case2,case3"
)
VERIFY_CSV_HEADER = "k,empirical_gap,standard_error,bound,violated"

_METHODS = ("trish", "sg")
_PROBLEMS = ("logistic", "quadratic", "nonconvex_pl")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; unset schedule fields pick defaults.

    Exactly one stepsize form applies: alpha for a fixed schedule, or
    (schedule_a, schedule_b) for alpha_k = a/(b+k).  The gamma pair is
    required for the safeguarded method and ignored by plain SG.

    Synthetic problems (quadratic, nonconvex_pl) use a Gaussian oracle
    with the given constant sigma and run for max_iterations; the
    logistic problem draws mini-batches from the dataset and runs for
    epochs * ceil(n_train / batch_size) iterations from w = 0.
    """

    method: str = "trish"
    problem: str = "logistic"
    dataset: str | None = None
    test_dataset: str | None = None
    gamma1: float | None = None
    gamma2: float | None = None
    alpha: float | None = None
    schedule_a: float | None = None
    schedule_b: float | None = None
    batch_size: int = 10
    epochs: int = 1
    max_iterations: int | None = None
    n_seeds: int = 5
    base_seed: int = 0
    checkpoint_fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0)
    sigma: float | None = None
    dimension: int = 1

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got '{self.method}'")
        if self.problem not in _PROBLEMS:
            raise ValueError(f"problem must be one of {_PROBLEMS}, got '{self.problem}'")
        if self.method == "trish":
            if self.gamma1 is None or self.gamma2 is None:
                raise ValueError("the safeguarded method needs gamma1 and gamma2")
            TrishParams(self.gamma1, self.gamma2)  # validates the pair
        fixed = self.alpha is not None
        harmonic = self.schedule_a is not None or self.schedule_b is not None
        if fixed and harmonic:
            raise ValueError("give either alpha or (schedule_a, schedule_b), not both")
        if not fixed and not harmonic:
            raise ValueError("no stepsize given: set alpha or (schedule_a, schedule_b)")
        if harmonic and (self.schedule_a is None or self.schedule_b is None):
            raise ValueError("harmonic schedule needs both schedule_a and schedule_b")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be at least 1, got {self.n_seeds}")
        if not self.checkpoint_fractions:
            raise ValueError("need at least one checkpoint fraction")
        if list(self.checkpoint_fractions) != sorted(set(self.checkpoint_fractions)):
            raise ValueError("checkpoint fractions must be strictly increasing")
        if not all(0.0 < f <= 1.0 for f in self.checkpoint_fractions):
            raise ValueError("checkpoint fractions must lie in (0, 1]")
        if self.problem == "logistic":
            if self.dataset is None:
                raise ValueError("logistic experiments need a dataset path")
        else:
            if self.max_iterations is None or self.max_iterations < 1:
                raise ValueError("synthetic problems need max_iterations >= 1")
            if self.sigma is None:
                raise ValueError("synthetic problems need the oracle sigma")
            if self.dimension < 1:
                raise ValueError(f"dimension must be at least 1, got {self.dimension}")

    def schedule(self) -> StepsizeSchedule:
        if self.alpha is not None:
            return StepsizeSchedule.fixed(self.alpha)
        return StepsizeSchedule.harmonic(self.schedule_a, self.schedule_b)

    def config_hash(self) -> str:
        """Hash of every field except base_seed; stable across reseeding."""
        payload = []
        for f in dataclasses.fields(self):
            if f.name == "base_seed":
                continue
            payload.append(f"{f.name}={getattr(self, f.name)!r}")
        digest = hashlib.sha256(";".join(payload).encode("utf-8"))
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class RunRecord:
    """Metrics for one seed at one checkpoint; mirrors the CSV columns."""

    seed: int
    checkpoint_fraction: float
    iteration: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    case1: int
    case2: int
    case3: int


@dataclass
class ExperimentResult:
    records: list[RunRecord]
    metadata: dict

    def final_records(self) -> list[RunRecord]:
        """The last-checkpoint record of each seed, in seed order."""
        last = max(r.checkpoint_fraction for r in self.records)
        return [r for r in self.records if r.checkpoint_fraction == last]


def _build_problem(config: ExperimentConfig):
    """The objective the config names; a logistic one parses its datasets."""
    if config.problem == "quadratic":
        return QuadraticProblem(np.ones(config.dimension))
    if config.problem == "nonconvex_pl":
        return NonconvexPLProblem(config.dimension)
    train_rows, train_max = load_libsvm(config.dataset)
    if not train_rows:
        raise ValueError(f"dataset {config.dataset} holds no examples")
    test_rows, test_max = ([], 0)
    if config.test_dataset is not None:
        test_rows, test_max = load_libsvm(config.test_dataset)
    # One shared dimension so train and test live in the same space.
    dim = max(train_max, test_max, 1)
    features, labels = to_matrix(train_rows, dim)
    labels = normalize_binary_labels(labels)
    if test_rows:
        test_features, test_labels = to_matrix(test_rows, dim)
        return LogisticProblem(
            features, labels, test_features, normalize_binary_labels(test_labels)
        )
    return LogisticProblem(features, labels)


def _checkpoint_iterations(fractions: tuple[float, ...], total: int) -> list[int]:
    return [max(1, math.ceil(f * total)) for f in fractions]


def _march(X, steps, schedule, draw, params, observe, at, counts=None) -> None:
    """Advance the (n_rows, dim) block X through `steps` iterations in lockstep.

    Step k samples G = draw(X, k, alpha_k) and takes the safeguarded step,
    or plain SG when params is None.  A row that goes non-finite stays
    non-finite, because nan and inf absorb every later step; that is how
    a diverged row is frozen.  observe(done, X) sees the block after each
    `done` in `at` steps and may write nan into a row to freeze it.
    counts, if given, tallies the branch of every step taken from a
    finite row with a finite sample.  Overflow is how rows diverge, so
    floating-point warnings are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(steps + 1):
            if done in at:
                observe(done, X)
            if done == steps:
                break
            alpha_k = schedule.alpha(done + 1)
            G = draw(X, done + 1, alpha_k)
            if params is None:
                X = X - alpha_k * G
                continue
            X_next, cases = _trish_step_batch(X, G, alpha_k, params)
            if counts is not None:
                live = np.isfinite(X).all(axis=1) & np.isfinite(G).all(axis=1)
                counts[live, cases[live] - 1] += 1
            X = X_next


def run_experiment(config: ExperimentConfig, problem=None) -> ExperimentResult:
    """Run n_seeds trainings in lockstep and collect checkpoint metrics.

    Seed i draws from its own generator default_rng(base_seed + i), so
    its trajectory does not depend on n_seeds; all seeds share the
    starting point.  A run that produces a non-finite loss, gradient or
    iterate stops stepping and reports nan metrics from that checkpoint
    on.  problem, when given, must be the one the config builds; it
    lets tune_grid parse each dataset once for the whole grid.
    """
    if problem is None:
        problem = _build_problem(config)
    logistic = config.problem == "logistic"
    if logistic:
        x1 = np.zeros(problem.metadata.dimension)
        total = math.ceil(problem.n_components / config.batch_size) * config.epochs

        def sample(x, k, alpha_k, rng):
            return finite_sum_minibatch(problem, x, config.batch_size, rng)
    else:
        x1 = np.ones(config.dimension)
        total = config.max_iterations
        oracle = GaussianOracle(SigmaSchedule.constant(config.sigma))

        def sample(x, k, alpha_k, rng):
            return oracle.sample(problem.gradient(x), k, rng, alpha_k)

    seeds = [config.base_seed + i for i in range(config.n_seeds)]
    rngs = [np.random.default_rng(seed) for seed in seeds]

    def draw(X, k, alpha_k):
        return np.array([sample(x, k, alpha_k, rng) for x, rng in zip(X, rngs)])

    nan = math.nan
    counts = np.zeros((config.n_seeds, 3), dtype=int)  # SG runs leave these at zero
    snapshots = {}

    def observe(done, X):
        metrics = []
        for x in X:
            if not np.isfinite(x).all():
                metrics.append((nan,) * 4)
            elif logistic:
                metrics.append(problem.train_metrics(x) + problem.test_metrics(x))
            else:
                value = float(problem.value(x))
                metrics.append((value, nan, nan, nan))
                if not math.isfinite(value):
                    x[:] = nan
        snapshots[done] = (metrics, counts.tolist())

    params = TrishParams(config.gamma1, config.gamma2) if config.method == "trish" else None
    targets = _checkpoint_iterations(config.checkpoint_fractions, total)
    X = np.tile(x1, (config.n_seeds, 1))
    _march(X, total, config.schedule(), draw, params, observe, set(targets), counts)
    records = [
        RunRecord(seed, frac, target, *snapshots[target][0][i], *snapshots[target][1][i])
        for i, seed in enumerate(seeds)
        for frac, target in zip(config.checkpoint_fractions, targets)
    ]

    metadata = {
        "config_hash": config.config_hash(),
        "generator": "numpy-pcg64",
        "method": config.method,
        "problem": config.problem,
        "dimension": problem.metadata.dimension,
        "iterations": total,
        "x1_policy": "zeros" if logistic else "ones",
        "n_seeds": config.n_seeds,
        "base_seed": config.base_seed,
    }
    return ExperimentResult(records=records, metadata=metadata)


@dataclass(frozen=True)
class TuneEntry:
    """Mean final-checkpoint metrics for one grid point over all seeds."""

    params: dict
    mean_train_loss: float
    mean_train_acc: float
    mean_test_loss: float
    mean_test_acc: float
    diverged: bool


@dataclass
class TuneResult:
    best: ExperimentConfig
    best_params: dict
    entries: list[TuneEntry]
    best_records: list[RunRecord]


class GridDivergedError(RuntimeError):
    """Every point of a tuning grid diverged, so there is no winner."""


def _normalize_grid(grid: dict) -> dict[tuple[str, ...], list[tuple]]:
    """Grid keys become field tuples, values become aligned value tuples.

    A key may be one field name or a tuple of names swept together, e.g.
    {("gamma1", "gamma2"): [(7.0, 2.8), (11.0, 4.4)]} for a coupled pair
    that must not be crossed in the product.
    """
    normalized = {}
    for key, values in grid.items():
        fields = (key,) if isinstance(key, str) else tuple(key)
        if not fields:
            raise ValueError("grid keys must name at least one field")
        rows = []
        for value in values:
            row = tuple(value) if len(fields) > 1 else (value,)
            if len(row) != len(fields):
                raise ValueError(
                    f"grid value {value!r} does not match fields {fields}"
                )
            rows.append(row)
        if not rows:
            raise ValueError(f"empty candidate list for {fields}")
        normalized[fields] = rows
    return dict(sorted(normalized.items()))


def tune_grid(base_config: ExperimentConfig, grid: dict) -> TuneResult:
    """Evaluate every grid combination and pick the best configuration.

    grid maps ExperimentConfig field names (or tuples of names swept
    together) to candidate values; keys are iterated in sorted order so
    ties resolve the same way every run.  Selection: highest mean final
    test accuracy, then lowest mean final test loss, then the
    lexicographically first parameter combination.  Grid points whose
    runs go non-finite are kept in the table, flagged diverged, and
    excluded from selection.  Each problem is built once and shared by
    every grid point that names it, and the winner's records come back
    with the result.
    """
    normalized = _normalize_grid(grid)
    keys = list(normalized)
    entries: list[TuneEntry] = []
    candidates = []
    problems: dict = {}  # keyed by the fields _build_problem reads
    for combo in product(*(normalized[key] for key in keys)):
        combo_params = {
            field: value
            for fields, row in zip(keys, combo)
            for field, value in zip(fields, row)
        }
        config = dataclasses.replace(base_config, **combo_params)
        key = (config.problem, config.dataset, config.test_dataset, config.dimension)
        if key not in problems:
            problems[key] = _build_problem(config)
        result = run_experiment(config, problems[key])
        finals = result.final_records()
        means = [
            float(np.mean([getattr(r, f) for r in finals]))
            for f in ("train_loss", "train_acc", "test_loss", "test_acc")
        ]
        diverged = not math.isfinite(means[0])
        entry = TuneEntry(
            params=combo_params,
            mean_train_loss=means[0],
            mean_train_acc=means[1],
            mean_test_loss=means[2],
            mean_test_acc=means[3],
            diverged=diverged,
        )
        entries.append(entry)
        if not diverged:
            acc = means[3] if math.isfinite(means[3]) else -math.inf
            loss = means[2] if math.isfinite(means[2]) else means[0]
            candidates.append(((-acc, loss, combo), config, combo_params, result.records))
    if not candidates:
        raise GridDivergedError("every grid point diverged; nothing to select")
    candidates.sort(key=lambda item: item[0])
    _, best, best_params, best_records = candidates[0]
    return TuneResult(best, best_params, entries, best_records)


@dataclass
class TheoremReport:
    """Empirical curve vs guarantee curve, with per-k violation flags.

    For guarantees 1-3 the curve is the mean optimality gap at iterate
    k; for 4 it is the running average of E||grad f||^2; for 5 the
    weighted partial sums, with the weighted averages riding along.
    """

    theorem_id: int
    k: np.ndarray
    empirical: np.ndarray
    standard_error: np.ndarray
    bound: np.ndarray
    violated: np.ndarray
    n_seeds: int
    n_se: float
    weighted_average: np.ndarray | None = None

    @property
    def n_violations(self) -> int:
        return int(self.violated.sum())

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def verify_theorem(
    tc: TheoremConstants,
    problem,
    oracle: GaussianOracle,
    params: TrishParams,
    schedule: StepsizeSchedule,
    x1: np.ndarray,
    n_seeds: int,
    horizon: int,
    base_seed: int = 0,
    n_se: float = 3.0,
) -> TheoremReport:
    """March n_seeds trajectories and compare the empirical quantity
    against the guarantee's bound at every k up to the horizon.

    A point violates when empirical > bound + n_se * SE (plus a 1e-12
    relative float guard for exact-equality points such as k = 1, where
    the bound reproduces the deterministic initial gap), when it is not
    finite, or when some trajectory has gone non-finite.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if n_seeds < 2:
        raise ValueError(f"need at least two trajectories, got {n_seeds}")
    meta = problem.metadata
    f_star = meta.f_star if meta.f_star is not None else 0.0
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    rng = np.random.default_rng(base_seed)

    ks = np.arange(1, horizon + 1)
    empirical = np.empty(horizon)
    ses = np.empty(horizon)
    frozen = np.zeros(horizon, dtype=bool)
    cumulative = np.zeros(n_seeds)  # guarantees 4 and 5
    alpha_running = 0.0
    weighted = np.empty(horizon) if tc.theorem_id == 5 else None
    grad = None

    def observe(done, X):
        # Runs at every k just before the draw, which reuses its gradient.
        nonlocal grad, alpha_running, cumulative
        k = done + 1
        grad = problem.gradient(X)
        frozen[done] = not np.isfinite(X).all()
        if tc.theorem_id in (1, 2, 3):
            curve = problem.value(X) - f_star
        elif tc.theorem_id == 4:
            cumulative += np.sum(grad**2, axis=1)
            curve = cumulative / k
        else:
            alpha_k = schedule.alpha(k)
            cumulative += alpha_k * np.sum(grad**2, axis=1)
            alpha_running += alpha_k
            curve = cumulative
        empirical[done] = curve.mean()
        ses[done] = curve.std(ddof=1) / math.sqrt(n_seeds)
        if weighted is not None:
            weighted[done] = empirical[done] / alpha_running

    def draw(X, k, alpha_k):
        return oracle.sample(grad, k, rng, alpha_k)

    X = np.tile(x1, (n_seeds, 1))
    _march(X, horizon, schedule, draw, params, observe, range(horizon))

    bound = np.array([theorem_bound(tc.theorem_id, tc, int(k)) for k in ks])
    guard = 1e-12 * np.maximum(1.0, np.abs(bound))
    # Written as "not within" so that a nan or inf point counts as violated.
    violated = ~(empirical <= bound + n_se * ses + guard) | frozen
    return TheoremReport(
        theorem_id=tc.theorem_id,
        k=ks,
        empirical=empirical,
        standard_error=ses,
        bound=bound,
        violated=violated,
        n_seeds=n_seeds,
        n_se=n_se,
        weighted_average=weighted,
    )


@dataclass
class VerificationSetup:
    """A frozen, hypothesis-checked configuration for one guarantee."""

    tc: TheoremConstants
    problem: object
    oracle: GaussianOracle
    params: TrishParams
    schedule: StepsizeSchedule
    x1: np.ndarray
    horizon: int
    n_seeds: int


def verification_setup(
    theorem_id: int,
    n_seeds: int = 2000,
    gamma1: float | None = None,
    gamma2: float | None = None,
    alpha: float | None = None,
) -> VerificationSetup:
    """Reference configuration under which each guarantee is checked.

    Guarantees 1-3 run on the unit 1-d quadratic (c = L = 1); 4 and 5 on
    the 1-d nonconvex PL objective, whose PL constant the bounds never
    consume.  The noise regime matches the guarantee: fixed sigma for 1
    and 4, stepsize-coupled for 2 and 5, geometrically decaying for 3.
    Overridden gammas or stepsizes are re-validated against the
    hypotheses, so a bad override raises HypothesisError rather than
    silently checking a vacuous bound.
    """
    if theorem_id in (1, 2, 3):
        problem = QuadraticProblem(np.ones(1))
    elif theorem_id in (4, 5):
        problem = NonconvexPLProblem(1)
    else:
        raise ValueError(f"unknown theorem id {theorem_id}")
    meta = problem.metadata
    L = meta.smoothness
    c = meta.pl_constant

    if theorem_id == 1:
        params = TrishParams(gamma1 or 2.0, gamma2 or 1.9)
        sigma = 0.1
        ac = AssumptionConstants.for_fixed_sigma(sigma)
        x1 = np.array([1.0])
        margin = params.gamma1 - ac.h2 * (params.gamma1 - params.gamma2)
        theta1 = 0.5 * min(params.gamma2, margin)
        if alpha is None:
            alpha = min(1.0 / (2.0 * c * theta1), 1.0 / (params.gamma1 * L))
        gap1 = float(problem.value(x1)) - meta.f_star
        tc = TheoremConstants.for_theorem1(
            params, ac.h1, ac.h2, c, L, m1=sigma**2, m2=1.0, alpha=alpha,
            f_gap_initial=gap1,
        )
        oracle = GaussianOracle(SigmaSchedule.constant(sigma))
        return VerificationSetup(
            tc, problem, oracle, params, StepsizeSchedule.fixed(alpha),
            x1, horizon=200, n_seeds=n_seeds,
        )

    if theorem_id == 2:
        # Wide normalized band and a slow crawl through it: the gap then
        # genuinely tracks the 1/k envelope over the fitted window.
        params = TrishParams(gamma1 or 0.2, gamma2 or 0.04)
        a, b = 40.0, 1000.0
        alpha1 = a / (b + 1.0)
        ac = AssumptionConstants.for_coupled(alpha_max=alpha1)
        x1 = np.array([22.8])
        gap1 = float(problem.value(x1)) - meta.f_star
        tc = TheoremConstants.for_theorem2(
            params, ac.h3, ac.h4, c, L, m1=alpha1**2, m2=1.0, a=a, b=b,
            f_gap_initial=gap1,
        )
        oracle = GaussianOracle(SigmaSchedule.coupled(1.0))
        return VerificationSetup(
            tc, problem, oracle, params, StepsizeSchedule.harmonic(a, b),
            x1, horizon=500, n_seeds=n_seeds,
        )

    if theorem_id == 3:
        params = TrishParams(gamma1 or 2.0, gamma2 or 1.9)
        m3, zeta = 0.04, 0.25
        ac = AssumptionConstants.for_geometric(m3, zeta)
        if alpha is None:
            alpha = 0.45
        x1 = np.array([1.0])
        gap1 = float(problem.value(x1)) - meta.f_star
        tc = TheoremConstants.for_theorem3(
            params, ac.h5, ac.h6, ac.lam, zeta, c, L, m3=m3, alpha=alpha,
            f_gap_initial=gap1,
        )
        oracle = GaussianOracle(SigmaSchedule.geometric(m3, zeta))
        return VerificationSetup(
            tc, problem, oracle, params, StepsizeSchedule.fixed(alpha),
            x1, horizon=100, n_seeds=n_seeds,
        )

    if theorem_id == 4:
        params = TrishParams(gamma1 or 2.0, gamma2 or 1.9)
        sigma = 0.1
        ac = AssumptionConstants.for_fixed_sigma(sigma)
        if alpha is None:
            alpha = 1.0 / (params.gamma1 * L)
        x1 = np.array([1.0])
        gap1 = float(problem.value(x1)) - meta.f_star
        tc = TheoremConstants.for_theorem4(
            params, ac.h1, ac.h2, L, m1=sigma**2, m2=1.0, alpha=alpha,
            f_gap_initial=gap1,
        )
        oracle = GaussianOracle(SigmaSchedule.constant(sigma))
        return VerificationSetup(
            tc, problem, oracle, params, StepsizeSchedule.fixed(alpha),
            x1, horizon=200, n_seeds=n_seeds,
        )

    params = TrishParams(gamma1 or 2.0, gamma2 or 1.9)
    a, b = 0.5, 7.0
    alpha1 = a / (b + 1.0)
    ac = AssumptionConstants.for_coupled(alpha_max=alpha1)
    x1 = np.array([1.0])
    gap1 = float(problem.value(x1)) - meta.f_star
    tc = TheoremConstants.for_theorem5(
        params, ac.h3, ac.h4, L, m1=alpha1**2, m2=1.0, a=a, b=b,
        f_gap_initial=gap1,
    )
    oracle = GaussianOracle(SigmaSchedule.coupled(1.0))
    return VerificationSetup(
        tc, problem, oracle, params, StepsizeSchedule.harmonic(a, b),
        x1, horizon=5000, n_seeds=n_seeds,
    )


def _fmt(value) -> str:
    """Floats at 9 significant digits, everything else via str."""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_csv(records: list[RunRecord], path: str) -> None:
    """Write run records sorted by (seed, iteration, fraction).

    Emitting the same records twice yields byte-identical files; an
    empty record list writes just the header line.
    """
    ordered = sorted(
        records, key=lambda r: (r.seed, r.iteration, r.checkpoint_fraction)
    )
    lines = [RUN_CSV_HEADER]
    for r in ordered:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.seed, r.checkpoint_fraction, r.iteration,
                    r.train_loss, r.train_acc, r.test_loss, r.test_acc,
                    r.case1, r.case2, r.case3,
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def emit_verify_csv(report: TheoremReport, path: str) -> None:
    """Write the bound-check curve, one row per iteration index."""
    lines = [VERIFY_CSV_HEADER]
    for i in range(report.k.size):
        lines.append(
            ",".join(
                (
                    str(int(report.k[i])),
                    _fmt(float(report.empirical[i])),
                    _fmt(float(report.standard_error[i])),
                    _fmt(float(report.bound[i])),
                    str(int(report.violated[i])),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
