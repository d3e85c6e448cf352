"""Experiment runner: seeded multi-run trainings, grid tuning, bound checks, CSV.

Reproducibility contract: in run and tune, every stochastic choice of
seed i flows from numpy.random.default_rng(base_seed + i), and verify's
from one default_rng(base_seed), a chunk of steps per call (_prefetched)
that draws the numbers one call per step would; all seeds share the
same starting point, and records are emitted in a fixed order, so a
config run twice produces identical numbers and re-emitting the same
records produces byte-identical files.  The config hash that `trish run`
prints deliberately excludes base_seed: reseeding changes the
trajectories, not the experiment's identity.

One engine, _march, advances a (rows, dim) block in lockstep up to its
last observation: the seeds of a verify setup, of a run's config, or of
every tune grid point that differs only in _ROW_FIELDS, each row with
its own stepsize and gamma pair.  A block's points share each seed's
draws, so tune gives each point the numbers a run of it alone gives.
_march owns the draw stream; GaussianOracle.sample is the noise formula.
tune marches its blocks on every usable CPU when they are two jobs or
more, in children forked by the parser's helper (ingest._fork), with the
serial loop's output, bit for bit (_run_split).

Results hold what their computation produced and nothing that their
config already says.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from contextlib import closing
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import StepsizeSchedule, TrishParams, _trish_step_batch
from .ingest import _fork, _processes, _reap, _reaping, _run_off, _this_cpu, load_libsvm
from .oracles import GaussianOracle
from .problems import (
    LogisticProblem,
    NonconvexPLProblem,
    QuadraticProblem,
    normalize_binary_labels,
)
from .theory import (
    FixedStepsizeConstants,
    GeometricNoiseConstants,
    HarmonicStepsizeConstants,
    standard_error,
    theorem_bound,
    within_margin,
)

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

VERIFY_CSV_HEADER = "k,empirical_gap,standard_error,bound,violated"

_METHODS = ("trish", "sg")
_PROBLEMS = ("logistic", "quadratic", "nonconvex_pl")

_ROW_FIELDS = ("alpha", "gamma1", "gamma2", "schedule_a", "schedule_b")  # see _run_block
_MAX_BLOCK_BYTES = 1 << 30  # see _check_block
_MAX_STEPS = 1 << 63  # the case counts are int64
_TUNE_BLOCK_BYTES = 1 << 26  # see _run_block
_CHUNK_BYTES = 1 << 18  # see _prefetched and verify_theorem


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; unset schedule fields pick defaults.

    Exactly one stepsize form applies: alpha for a fixed schedule, or
    (schedule_a, schedule_b) for alpha_k = a/(b+k).  The gamma pair is
    required for the safeguarded method and ignored by plain SG.

    Synthetic problems (quadratic, nonconvex_pl) use a Gaussian oracle
    with the given constant sigma and run for max_iterations from x = 1
    in every coordinate; the logistic problem draws mini-batches from the
    dataset and runs for epochs * ceil(n_train / batch_size) iterations
    from w = 0.
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
        self.schedule()  # validates the stepsize
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be at least 1, got {self.n_seeds}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be at least 0, got {self.base_seed}")
        object.__setattr__(self, "checkpoint_fractions", tuple(self.checkpoint_fractions))
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
            GaussianOracle.constant(self.sigma)  # validates sigma
            if self.dimension < 1:
                raise ValueError(f"dimension must be at least 1, got {self.dimension}")

    def schedule(self) -> StepsizeSchedule:
        if self.alpha is not None:
            return StepsizeSchedule.fixed(self.alpha)
        return StepsizeSchedule.harmonic(self.schedule_a, self.schedule_b)

    def config_hash(self) -> str:
        """Hash of every field except base_seed; stable across reseeding.

        A dataset enters by the sha256 of its bytes, not by its path, so
        the same data hashes the same from any directory or machine.
        """
        payload = []
        for f in dataclasses.fields(self):
            if f.name == "base_seed":
                continue
            value = getattr(self, f.name)
            if f.name in ("dataset", "test_dataset") and value is not None:
                value = _file_sha256(value)
            payload.append(f"{f.name}={value!r}")
        digest = hashlib.sha256(";".join(payload).encode("utf-8"))
        return digest.hexdigest()[:16]


def _file_sha256(path: str) -> str:
    """sha256 of a file's bytes."""
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


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


RUN_CSV_HEADER = ",".join(f.name for f in dataclasses.fields(RunRecord))


@dataclass
class ExperimentResult:
    """One config's records, by seed then checkpoint, and its iteration count."""

    records: list[RunRecord]
    iterations: int

    def final_records(self) -> list[RunRecord]:
        """The last-checkpoint record of each seed, in seed order."""
        last = max(r.checkpoint_fraction for r in self.records)
        return [r for r in self.records if r.checkpoint_fraction == last]

    def final_means(self) -> dict[str, float]:
        """Mean over seeds of each final-checkpoint metric, by RunRecord field."""
        finals = self.final_records()
        return {
            f: float(np.mean([getattr(r, f) for r in finals]))
            for f in ("train_loss", "train_acc", "test_loss", "test_acc")
        }


# The synthetic objectives by name, each built from its dimension.
_SYNTHETIC = {
    "quadratic": lambda dim: QuadraticProblem(np.ones(dim)),
    "nonconvex_pl": NonconvexPLProblem,
}


def _build_problem(config: ExperimentConfig):
    """The objective the config names; a logistic one parses its datasets."""
    if config.problem in _SYNTHETIC:
        _check_block(config.n_seeds, config.dimension, "the dimension field")  # before allocating
        return _SYNTHETIC[config.problem](config.dimension)
    train, train_max = load_libsvm(config.dataset)
    if not train:
        raise ValueError(f"dataset {config.dataset} holds no examples")
    test, test_max = (None, 0)
    if config.test_dataset is not None:
        test, test_max = load_libsvm(config.test_dataset)
        if not test:
            raise ValueError(f"dataset {config.test_dataset} holds no examples")
    # One shared dimension so train and test live in the same space.
    dim = max(train_max, test_max, 1)

    def split(data):
        return dataclasses.replace(data, width=dim, labels=normalize_binary_labels(data.labels))

    return LogisticProblem(split(train), split(test) if test is not None else None)


def _checkpoint_iterations(fractions: tuple[float, ...], total: int) -> list[int]:
    return [max(1, math.ceil(f * total)) for f in fractions]


def _check_block(rows: int, dim: int, width: str) -> None:
    """Refuse a (rows, dim) iterate block above _MAX_BLOCK_BYTES; width names
    what set dim."""
    if rows * dim * 8 > _MAX_BLOCK_BYTES:
        raise ValueError(
            f"{rows} trajectories (--seeds) of dimension {dim} "
            f"({width}) pass the {_MAX_BLOCK_BYTES >> 30} GiB limit on iterates"
        )


def _block_steps(config: ExperimentConfig, problem) -> int:
    """The iteration count of config's block on problem.  Raises ValueError
    before anything is allocated when the block's iterates, one step's draw
    or the iteration count passes its limit.  A block that _run_block splits
    keeps each part's iterates under _TUNE_BLOCK_BYTES, so one config's
    n_seeds rows are the ones to check."""
    S = config.n_seeds
    if config.problem != "logistic":
        _check_block(S, config.dimension, "the dimension field")
        steps, source = config.max_iterations, "max_iterations"
    else:
        n, b = problem.n_components, config.batch_size
        _check_block(S, problem.metadata.dimension, "the dataset width")
        # One step draws S*b indices and gathers S*b rows of nnz/n stored entries.
        if 8 * S * b * (n + problem.train.values.size) > _MAX_BLOCK_BYTES * n:
            raise ValueError(
                f"{b}-example mini-batches (--batch) for {S} seeds (--seeds) pass "
                f"the {_MAX_BLOCK_BYTES >> 30} GiB limit on one step's draw"
            )
        steps, source = math.ceil(n / b) * config.epochs, "--epochs"
    if steps >= _MAX_STEPS:
        raise ValueError(f"{steps} iterations ({source}) pass the limit of 2**63 - 1 iterations")
    return steps


def _start_block(rows: int, dim: int, x1) -> np.ndarray:
    """rows copies of x1 (a scalar fills every coordinate): every command's
    iterate block, allocated once _check_block has passed its size."""
    return np.full((rows, dim), x1, dtype=float)


def _prefetched(fill, steps: int, step_bytes: int):
    """Yield steps draw blocks in order, where fill(c) returns the next c
    stacked step-major: _CHUNK_BYTES of steps (or one step) per call, never
    past the last.  From a chunk's second step on, one helper thread fills
    the next chunk on another CPU, if the process has one, since numpy's
    generators release the GIL; fills run in order and one at a time, so
    every generator sees the calls it would see without the thread.  One
    chunk starts no thread, a fill's exception reaches the caller as
    itself, and closing the generator joins the helper."""
    per_chunk = max(1, _CHUNK_BYTES // step_bytes)
    helper = ahead = None
    try:
        for start in range(0, steps, per_chunk):
            block = iter(fill(min(per_chunk, steps - start)) if ahead is None else ahead.result())
            yield next(block)  # by the next request the caller holds no block of the last chunk
            following = min(per_chunk, steps - start - per_chunk)
            if following > 0 and helper is None:
                from concurrent.futures import ThreadPoolExecutor  # ~6 ms and 0.3 MB to import

                # Left alone, the scheduler wakes the helper on the CPU of the
                # thread that woke it, the march's, so the two would take turns.
                helper = ThreadPoolExecutor(1, initializer=_run_off, initargs=(_this_cpu(),))
            ahead = helper.submit(fill, following) if following > 0 else None
            yield from block
    finally:
        if helper is not None:
            helper.shutdown()


def _march(X, alpha, fill, step_bytes, draw, gammas, observe, at, counts=None) -> None:
    """Advance the (n_rows, dim) block X in lockstep through max(at) iterations.

    Step k samples G = draw(X, k, alpha_k, block) at alpha_k = alpha(k),
    with block step k's draws from the march's own _prefetched(fill,
    max(at), step_bytes), which it closes however it ends, and takes the
    safeguarded step with gammas = (gamma1, gamma2), or plain SG when
    gammas is None; alpha_k and the gammas are scalars or per-row arrays.
    A row that goes non-finite stays non-finite, because nan and inf
    absorb every later step; that is how a diverged row is frozen.
    observe(done, X) sees the block after each `done` in `at` steps and
    may write nan into a row to freeze it.  counts, if given, tallies the
    branch of every step taken from a finite row with a finite sample.
    Overflow is how rows diverge, so floating-point warnings are silenced.
    """
    last = max(at)
    with (np.errstate(over="ignore", invalid="ignore"),
          closing(_prefetched(fill, last, step_bytes)) as blocks):
        for done in range(last + 1):
            if done in at:
                observe(done, X)
            if done == last:
                break
            alpha_k = alpha(done + 1)
            G = draw(X, done + 1, alpha_k, next(blocks))
            if gammas is None:
                X = X - np.reshape(alpha_k, (-1, 1)) * G
                continue
            X_next, case1, case3 = _trish_step_batch(X, G, alpha_k, *gammas)
            if counts is not None:
                live = np.isfinite(X).all(axis=1) & np.isfinite(G).all(axis=1)
                counts[live, 1 - case1[live] + case3[live]] += 1  # column case - 1
            X = X_next


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run n_seeds trainings in lockstep and collect checkpoint metrics.

    Seed i draws from its own generator default_rng(base_seed + i), a
    chunk of steps per call and the same stream as one call per step, so
    its trajectory does not depend on n_seeds; all seeds share the
    starting point.  A run that produces a non-finite loss, gradient or
    iterate stops stepping and reports nan metrics from that checkpoint
    on.
    """
    return _run_block([config], _build_problem(config))[0]


def _part_points(config: ExperimentConfig, problem, budget: int) -> int:
    """The grid points of config's block that one part of it holds: as many
    as keep the part's iterates and margin-kernel arrays within budget
    bytes, and at least one."""
    n = problem.n_components if config.problem == "logistic" else 0
    # Per row: the iterates, and the margin kernel's W^T, sums, output and one slot's products.
    return max(1, budget // (8 * config.n_seeds * (2 * problem.metadata.dimension + 3 * n)))


def _run_block(
    configs: list[ExperimentConfig], problem, final_only: bool = False
) -> list[ExperimentResult]:
    """Run configs that differ only in _ROW_FIELDS as one block, whose row
    p*S + i is config p under seed i; one whose iterates and margin-kernel
    arrays would pass _TUNE_BLOCK_BYTES runs in parts.  Seed i's mini-batch
    indices (or Gaussian noise) come from default_rng(base_seed + i) a chunk
    of steps per call, the numbers one call per step draws, shared by every
    config.

    With final_only, each result holds only its final-checkpoint records,
    and an earlier checkpoint computes no metrics beyond what the freeze
    rule needs: a logistic row that LogisticProblem.finite_loss_rows
    clears has a finite train loss, and only the others take the product.
    Every row then freezes exactly where it would with every metric.
    """
    config = configs[0]
    S = config.n_seeds
    logistic = config.problem == "logistic"
    dim = problem.metadata.dimension
    n = problem.n_components if logistic else 0
    fits = _part_points(config, problem, _TUNE_BLOCK_BYTES)
    if len(configs) > fits:
        parts = [configs[i:i + fits] for i in range(0, len(configs), fits)]
        return [result for part in parts for result in _run_block(part, problem, final_only)]
    P = len(configs)
    total = _block_steps(config, problem)
    X = _start_block(P * S, dim, 0.0 if logistic else 1.0)
    targets = _checkpoint_iterations(config.checkpoint_fractions, total)
    last = max(targets)
    rngs = [np.random.default_rng(config.base_seed + i) for i in range(S)]
    width = config.batch_size if logistic else dim  # the numbers a seed draws per step

    def fill(c):  # each seed's next c steps in one call, stacked step-major
        draws = [rng.integers(0, n, (c, width)) if logistic else rng.standard_normal((c, width))
                 for rng in rngs]
        return np.stack(draws, axis=1)

    if logistic:

        def draw(X, k, alpha_k, block):
            return problem.block_gradient(block, X)
    else:
        oracle = GaussianOracle.constant(config.sigma)

        def draw(X, k, alpha_k, block):  # every config's rows of seed i take seed i's draws
            return oracle.sample(problem.gradient(X), k, np.tile(block, (P, 1)))

    schedules = [c.schedule() for c in configs]
    fixed = all(s.kind == "fixed" for s in schedules)
    first = np.repeat([s.alpha(1) for s in schedules], S)  # every step's, when all are fixed

    def alpha(k):
        return first if fixed else np.repeat([s.alpha(k) for s in schedules], S)

    gammas = None  # plain SG, whose case counts stay zero
    if config.method == "trish":
        gammas = np.repeat([[c.gamma1 for c in configs], [c.gamma2 for c in configs]], S, axis=1)
    counts = np.zeros((P * S, 3), dtype=int)
    snapshots = {}  # per checkpoint, each row's four metrics and three case counts
    checkpoints = list(zip(config.checkpoint_fractions, targets))
    if final_only:
        checkpoints = checkpoints[-1:]
    read = {target for _, target in checkpoints}  # the checkpoints whose records are returned

    def observe(done, X):
        live = np.isfinite(X).all(axis=1)
        if logistic and done not in read:
            # The freeze rule alone: only rows the margin bound does not clear take the product.
            unsure = np.flatnonzero(live & ~problem.finite_loss_rows(X))
            if unsure.size:
                X[unsure[~np.isfinite(problem.train_metrics(X[unsure])[0])]] = math.nan
            return
        metrics = np.full((P * S, 4), math.nan)
        if logistic:
            metrics[live, :2] = np.column_stack(problem.train_metrics(X[live]))
            metrics[live, 2:] = np.column_stack(problem.test_metrics(X[live]))
        else:
            metrics[live, 0] = problem.value(X)[live]
        X[~np.isfinite(metrics[:, 0])] = math.nan  # a non-finite train loss freezes its row
        snapshots[done] = [m + c for m, c in zip(metrics.tolist(), counts.tolist())]

    _march(X, alpha, fill, 8 * S * width, draw, gammas, observe, set(targets), counts)
    records = [
        RunRecord(config.base_seed + r % S, frac, target, *snapshots[target][r])
        for r in range(P * S)
        for frac, target in checkpoints
    ]
    size = S * len(checkpoints)  # records per config
    return [ExperimentResult(records[p * size:(p + 1) * size], total) for p in range(P)]


@dataclass(frozen=True)
class TuneEntry:
    """One grid point: its params, and ExperimentResult.final_means() of its run."""

    params: dict
    means: dict[str, float]
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


# The fields that only some configs read; a grid over one that no point
# reads would march the same point again and again.
_LOGISTIC_FIELDS = frozenset({"dataset", "test_dataset", "batch_size", "epochs"})
_SYNTHETIC_FIELDS = frozenset({"sigma", "max_iterations", "dimension"})


def _unread_fields(config: ExperimentConfig) -> frozenset:
    """The fields that config's problem or method never reads."""
    unread = _SYNTHETIC_FIELDS if config.problem == "logistic" else _LOGISTIC_FIELDS
    return unread | {"gamma1", "gamma2"} if config.method == "sg" else unread


def _run_split(run, jobs: list, costs: list, processes: int) -> list:
    """[run(job) for job in jobs] on `processes` processes: this one, and a
    child forked by ingest._fork for each other.  The jobs wait in one
    queue, longest first by cost: the indices of the first 1024 in a pipe,
    each read whole by one process at a time, so each process takes the
    next job as soon as it is free.  A child sends back its jobs' indices
    and results pickled.  This process then runs, in job order, every job
    whose result did not come back (one left out of the queue, or taken by
    a child that failed in any way), so every result, and any error a job
    raises, is the serial loop's.  Every child is reaped before this
    returns or raises."""
    import os
    import pickle  # numpy has loaded both; only tune's split needs them here

    # At most 1024 indices of 4 bytes: one page, which every pipe holds, so the write never blocks.
    order = sorted(range(len(jobs)), key=lambda j: -costs[j])[:1024]
    read_end, write_end = os.pipe()
    results = {}
    with open(read_end, "rb", buffering=0) as queue, _reaping() as children:
        with open(write_end, "wb") as feed:  # closed before any fork: the queue ends when empty
            feed.write(b"".join(j.to_bytes(4, "little") for j in order))

        def march():  # (index, result) of each job this process takes from the queue
            taken = []
            while entry := queue.read(4):
                j = int.from_bytes(entry, "little")
                taken.append((j, run(jobs[j])))
            return taken

        def send(pipe):  # the pickled pairs, after their length
            payload = pickle.dumps(march(), pickle.HIGHEST_PROTOCOL)
            pipe.write(len(payload).to_bytes(8, "little"))
            pipe.write(payload)

        cpu = _this_cpu()
        for _ in range(processes - 1):
            try:
                pid, pipe = _fork(send, cpu)
            except OSError:  # no process to spare: the others take the queue
                break
            children[pid] = pipe
        results.update(march())
        for pid in list(children):
            sent = children[pid].read()
            _reap(children, pid)
            if len(sent) >= 8 and int.from_bytes(sent[:8], "little") == len(sent) - 8:
                results.update(pickle.loads(memoryview(sent)[8:]))
    return [results[j] if j in results else run(jobs[j]) for j in range(len(jobs))]


def tune_grid(base_config: ExperimentConfig, grid: dict) -> TuneResult:
    """Evaluate every grid combination and pick the best configuration.

    grid maps ExperimentConfig field names (or tuples of names swept
    together) to candidate values; keys are iterated in sorted order so
    ties resolve the same way every run.  A field that no point's problem
    or method reads (sigma on a logistic problem, batch_size on a
    synthetic one, a gamma under plain SG) raises ValueError.  Selection:
    highest mean final test accuracy, then lowest mean final test loss,
    then the lexicographically first parameter combination.  Grid points
    whose runs go non-finite are kept in the table, flagged diverged, and
    excluded from selection.  Each problem is built once and shared by
    every grid point that names it, and points that differ only in
    _ROW_FIELDS march as rows of one block, which measures each point at
    its final checkpoint alone.  The winner then runs once more by
    itself, and that run's records, at every checkpoint, come back with
    the result.

    Once every block has passed _block_steps, the blocks march on every
    usable CPU (ingest._processes) when they are two jobs or more (blocks,
    or the _TUNE_BLOCK_BYTES parts of one): as whole parts, each within
    _TUNE_BLOCK_BYTES over the process count, so the bound holds across
    the processes, taken from _run_split's queue.  Each point's result
    does not depend on how its block is cut, so the output is the serial
    loop's, bit for bit.  Any other case, and the winner's re-run, stay
    serial.
    """
    normalized = _normalize_grid(grid)
    keys = list(normalized)
    combos = list(product(*(normalized[key] for key in keys)))
    points = [
        {field: value for fields, row in zip(keys, combo) for field, value in zip(fields, row)}
        for combo in combos
    ]
    configs = [dataclasses.replace(base_config, **params) for params in points]
    gridded = {field for fields in keys for field in fields}
    unread = sorted(gridded.intersection(*map(_unread_fields, configs)))
    if unread:
        raise ValueError(
            f"grid field '{unread[0]}' is never read by a {base_config.problem} problem "
            f"under method {base_config.method}, so every point would be the same"
        )
    blocks: dict = {}  # grid point indices, by the repr of the fields their block shares
    for index, config in enumerate(configs):
        shared = repr([v for f, v in vars(config).items() if f not in _ROW_FIELDS])
        blocks.setdefault(shared, []).append(index)
    problems: dict = {}  # keyed by the fields _build_problem reads
    point_problems = {}  # each grid point's problem, by index
    for members in blocks.values():
        config = configs[members[0]]
        key = (config.problem, config.dataset, config.test_dataset, config.dimension)
        if key not in problems:
            problems[key] = _build_problem(config)
        _block_steps(config, problems[key])  # every block is refused before any marches
        point_problems.update(dict.fromkeys(members, problems[key]))

    def parts(budget):  # each block cut into runs of points that fit budget, in grid order
        cut = []
        for members in blocks.values():
            size = _part_points(configs[members[0]], point_problems[members[0]], budget)
            cut += [members[i:i + size] for i in range(0, len(members), size)]
        return cut

    def run(job):
        return _run_block([configs[m] for m in job], point_problems[job[0]], final_only=True)

    results: dict = {}
    processes = min(_processes(), len(parts(_TUNE_BLOCK_BYTES)))
    if processes > 1:
        jobs = parts(_TUNE_BLOCK_BYTES // processes)
        costs = [len(job) * configs[job[0]].n_seeds
                 * _block_steps(configs[job[0]], point_problems[job[0]]) for job in jobs]
        for job, block in zip(jobs, _run_split(run, jobs, costs, processes)):
            results.update(zip(job, block))
    else:
        for members in blocks.values():
            results.update(zip(members, run(members)))
    entries: list[TuneEntry] = []
    candidates = []
    for index, (combo, combo_params) in enumerate(zip(combos, points)):
        means = results[index].final_means()
        diverged = not math.isfinite(means["train_loss"])
        entries.append(TuneEntry(combo_params, means, diverged))
        if not diverged:
            acc = means["test_acc"] if math.isfinite(means["test_acc"]) else -math.inf
            loss = means["test_loss"] if math.isfinite(means["test_loss"]) else means["train_loss"]
            candidates.append(((-acc, loss, combo), index))
    if not candidates:
        raise GridDivergedError("every grid point diverged; nothing to select")
    best = min(candidates)[1]
    records = _run_block([configs[best]], point_problems[best])[0].records
    return TuneResult(configs[best], points[best], entries, records)


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
    weighted_average: np.ndarray | None = None

    @property
    def n_violations(self) -> int:
        return int(self.violated.sum())

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def verify_theorem(setup: VerificationSetup, base_seed: int = 0) -> TheoremReport:
    """March setup.n_seeds trajectories and compare the empirical quantity
    against the guarantee's bound at every k up to setup.horizon.

    A point violates when empirical > bound + SE_MARGIN * SE (plus a 1e-12
    relative float guard for exact-equality points such as k = 1, where
    the bound reproduces the deterministic initial gap), when it is not
    finite, or when some trajectory has gone non-finite.  Each step draws
    one (n_seeds, dim) noise block from a single default_rng(base_seed),
    so trajectory i depends on n_seeds as well as on base_seed; the oracle
    scales and shifts each block that _march hands it, in place.
    """
    tc, problem, schedule = setup.tc, setup.problem, setup.schedule
    horizon, n_seeds = setup.horizon, setup.n_seeds
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if n_seeds < 2:
        raise ValueError(f"need at least two trajectories, got {n_seeds}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be at least 0, got {base_seed}")
    meta = problem.metadata
    f_star = meta.f_star if meta.f_star is not None else 0.0
    _check_block(n_seeds, np.size(setup.x1), "the guarantee's setup")
    X = _start_block(n_seeds, np.size(setup.x1), setup.x1)
    rng = np.random.default_rng(base_seed)

    ks = np.arange(1, horizon + 1)
    empirical = np.empty(horizon)
    ses = np.empty(horizon)
    frozen = np.zeros(horizon, dtype=bool)
    cumulative = np.zeros(n_seeds)  # guarantees 4 and 5
    alpha_running = 0.0
    alpha_sums = np.empty(horizon)  # guarantee 5: sum of alpha_j over j <= k
    # Each k's per-seed curve fills one row; every chunk rows, or at the
    # horizon, the rows are reduced to means and SEs in one call each.
    chunk = min(horizon, max(1, _CHUNK_BYTES // (8 * n_seeds)))
    curves = np.empty((chunk, n_seeds))
    grad = None

    def observe(done, X):
        # Runs at every k just before the draw, which reuses its gradient.
        nonlocal grad, alpha_running, cumulative
        k = done + 1
        row = done % chunk
        grad = problem.gradient(X)
        frozen[done] = not np.isfinite(X).all()
        if tc.theorem_id in (1, 2, 3):
            np.subtract(problem.value(X), f_star, out=curves[row])
        elif tc.theorem_id == 4:
            cumulative += np.add.reduce(grad * grad, axis=1)
            np.divide(cumulative, k, out=curves[row])
        else:
            alpha_k = schedule.alpha(k)
            cumulative += alpha_k * np.add.reduce(grad * grad, axis=1)
            alpha_running += alpha_k
            alpha_sums[done] = alpha_running
            curves[row] = cumulative
        if row == chunk - 1 or k == horizon:
            filled = curves[: row + 1]
            empirical[k - row - 1 : k] = filled.mean(axis=1)
            ses[k - row - 1 : k] = standard_error(filled)

    def draw(X, k, alpha_k, block):
        return setup.oracle.sample(grad, k, block, alpha_k)

    def fill(c):  # the next c steps' (n_seeds, dim) blocks in one call
        return rng.standard_normal((c, *X.shape))

    gammas = (setup.params.gamma1, setup.params.gamma2)
    _march(X, schedule.alpha, fill, 8 * X.size, draw, gammas, observe, range(horizon))

    bound = theorem_bound(tc, ks)
    guard = 1e-12 * np.maximum(1.0, np.abs(bound))
    # Written as "not within" so that a nan or inf point counts as violated.
    violated = ~within_margin(empirical, ses, bound + guard) | frozen
    return TheoremReport(
        theorem_id=tc.theorem_id,
        k=ks,
        empirical=empirical,
        standard_error=ses,
        bound=bound,
        violated=violated,
        weighted_average=empirical / alpha_sums if tc.theorem_id == 5 else None,
    )


@dataclass(frozen=True)
class VerificationSetup:
    """A frozen, hypothesis-checked configuration for one guarantee."""

    tc: FixedStepsizeConstants | HarmonicStepsizeConstants | GeometricNoiseConstants
    problem: object
    oracle: GaussianOracle
    params: TrishParams
    schedule: StepsizeSchedule
    x1: np.ndarray
    horizon: int
    n_seeds: int


@dataclass(frozen=True)
class _Guarantee:
    """The regime one guarantee is checked in: one row of _GUARANTEES.

    pl is whether the guarantee assumes the PL inequality, and so reads
    the problem's PL constant.  stepsize is a fixed alpha, a harmonic
    pair (a, b) for a/(b+k), or None for the largest fixed alpha the
    guarantee's hypotheses allow.
    """

    problem: str
    pl: bool
    noise: GaussianOracle
    gammas: tuple[float, float]
    stepsize: float | tuple[float, float] | None
    x1: float
    horizon: int


# Guarantees 1-3 run on the unit 1-d quadratic (c = L = 1), 4 and 5 on the
# 1-d nonconvex PL objective, whose PL constant the bounds never consume.
# The noise matches the guarantee: fixed sigma for 1 and 4, coupled to the
# stepsize for 2 and 5, geometrically decaying for 3.  Guarantee 2 takes a
# wide normalized band and a slow crawl through it: the gap then genuinely
# tracks the 1/k envelope over the fitted window.
_GUARANTEES = {
    1: _Guarantee("quadratic", True, GaussianOracle.constant(0.1), (2.0, 1.9), None, 1.0, 200),
    2: _Guarantee(
        "quadratic", True, GaussianOracle.coupled(1.0), (0.2, 0.04), (40.0, 1000.0), 22.8, 500
    ),
    3: _Guarantee(
        "quadratic", True, GaussianOracle.geometric(0.04, 0.25), (2.0, 1.9), 0.45, 1.0, 100
    ),
    4: _Guarantee(
        "nonconvex_pl", False, GaussianOracle.constant(0.1), (2.0, 1.9), None, 1.0, 200
    ),
    5: _Guarantee(
        "nonconvex_pl", False, GaussianOracle.coupled(1.0), (2.0, 1.9), (0.5, 7.0), 1.0, 5000
    ),
}


def verification_setup(
    theorem_id: int,
    n_seeds: int = 2000,
    gamma1: float | None = None,
    gamma2: float | None = None,
    alpha: float | None = None,
) -> VerificationSetup:
    """Reference configuration of one guarantee, built from its table row.

    The row's oracle supplies (M1, M2) and the (h_a, h_b) pair.  An
    override that is not None replaces the row's gamma or fixed alpha: a
    malformed one raises ValueError, one that breaks a hypothesis raises
    HypothesisError rather than silently checking a vacuous bound.  The
    harmonic guarantees 2 and 5 take no alpha.
    """
    if theorem_id not in _GUARANTEES:
        raise ValueError(f"unknown theorem id {theorem_id}")
    row = _GUARANTEES[theorem_id]
    harmonic = isinstance(row.stepsize, tuple)
    if harmonic and alpha is not None:
        raise ValueError(
            f"guarantee {theorem_id} steps by a/(b+k); alpha overrides only a fixed stepsize"
        )
    problem = _SYNTHETIC[row.problem](1)
    meta = problem.metadata
    params = TrishParams(
        row.gammas[0] if gamma1 is None else gamma1,
        row.gammas[1] if gamma2 is None else gamma2,
    )
    x1 = np.array([row.x1])
    if harmonic:
        schedule = StepsizeSchedule.harmonic(*row.stepsize)
        alpha_max = schedule.alpha(1)
    else:
        alpha_max = row.stepsize if alpha is None else StepsizeSchedule.fixed(alpha).a
    noise, L = row.noise, meta.smoothness
    moments = noise.moments(meta.dimension, alpha_max)
    pl_constant = meta.pl_constant if row.pl else None
    gap = float(problem.value(x1)) - meta.f_star
    h_a, h_b = noise.assumption_pair(alpha_max)
    if harmonic:
        tc = HarmonicStepsizeConstants.for_harmonic_stepsize(
            params, h_a, h_b, pl_constant, L, moments.m1, moments.m2, *row.stepsize, gap
        )
    elif noise.kind == "geometric":
        tc = GeometricNoiseConstants.for_geometric_noise(
            params, h_a, h_b, noise.zeta, pl_constant, L, moments.m1, alpha_max, gap
        )
    else:
        tc = FixedStepsizeConstants.for_fixed_stepsize(
            params, h_a, h_b, pl_constant, L, moments.m1, moments.m2, alpha_max, gap
        )
    if not harmonic:
        schedule = StepsizeSchedule.fixed(tc.alpha)
    return VerificationSetup(tc, problem, noise, params, schedule, x1, row.horizon, n_seeds)


def _write_csv(path: str, header: str, row_format: str, n: int, rows) -> None:
    """Write the header line, then the n rows through row_format, taking
    rows(start, stop) 512 at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for start in range(0, n, 512):
            handle.writelines(row_format % row for row in rows(start, start + 512))


def emit_csv(records: list[RunRecord], path: str) -> None:
    """Write run records sorted by (seed, iteration, fraction), floats at 9
    significant digits: the same records give byte-identical files, and an
    empty list just the header line."""
    ordered = sorted(records, key=lambda r: (r.seed, r.iteration, r.checkpoint_fraction))
    _write_csv(path, RUN_CSV_HEADER, "%d,%.9g,%d,%.9g,%.9g,%.9g,%.9g,%d,%d,%d\n", len(ordered),
               lambda start, stop: map(dataclasses.astuple, ordered[start:stop]))


def emit_verify_csv(report: TheoremReport, path: str) -> None:
    """Write the bound-check curve, one row per iteration index."""
    columns = (report.k, report.empirical, report.standard_error, report.bound, report.violated)
    _write_csv(path, VERIFY_CSV_HEADER, "%d,%.9g,%.9g,%.9g,%d\n", report.k.size,
               lambda start, stop: zip(*(column[start:stop].tolist() for column in columns)))
