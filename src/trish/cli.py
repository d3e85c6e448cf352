"""Command line front end: run, tune, verify, and stats subcommands.

Exit codes: 0 success; 1 usage or configuration problems, or an --out
path that cannot be written; 2 unreadable or malformed datasets; 3
rejected guarantee hypotheses; 4 an empirical bound check failed.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from .harness import (
    ExperimentConfig,
    GridDivergedError,
    emit_csv,
    emit_verify_csv,
    run_experiment,
    tune_grid,
    verification_setup,
    verify_theorem,
)
from .ingest import ParseError, dataset_stats, load_libsvm
from .theory import HypothesisError

__all__ = ["main", "parse_config_file"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_HYPOTHESIS = 3
EXIT_VIOLATION = 4

# gamma2 follows gamma1 at this ratio when only gamma1 is tuned
_GAMMA_RATIO = 0.4

_FLOAT_FIELDS = {"gamma1", "gamma2", "alpha", "schedule_a", "schedule_b", "sigma"}
_INT_FIELDS = {"batch_size", "epochs", "max_iterations", "n_seeds", "base_seed", "dimension"}
_STR_FIELDS = {"method", "problem", "dataset", "test_dataset"}
_TUNABLE = _FLOAT_FIELDS | _INT_FIELDS


class _Parser(argparse.ArgumentParser):
    """argparse parser whose error exit code is 1 instead of 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _convert(field: str, text: str, where: str):
    try:
        if field in _FLOAT_FIELDS:
            return float(text)
        if field in _INT_FIELDS:
            return int(text)
        if field in _STR_FIELDS:
            return text
        if field == "checkpoint_fractions":
            return tuple(float(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{where}: cannot parse value '{text}' for '{field}'")
    raise ValueError(f"{where}: unknown key '{field}'")


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment line; blanks skipped.

    Values are typed by the field they set.  Keys of the form
    tune_<field> carry comma-separated candidate lists for grid search
    and come back as Python lists under the same name.
    """
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value', got '{line}'")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if not key or not text:
            raise ValueError(f"{where}: expected 'key = value', got '{line}'")
        if key in values:
            raise ValueError(f"{where}: duplicate key '{key}'")
        if key.startswith("tune_"):
            field = key[len("tune_"):]
            if field not in _TUNABLE:
                raise ValueError(f"{where}: '{field}' is not a tunable field")
            values[key] = [_convert(field, tok.strip(), where) for tok in text.split(",")]
        else:
            values[key] = _convert(key, text, where)
    return values


def _experiment_config(args: argparse.Namespace, values: dict) -> ExperimentConfig:
    """Given config-file values, apply explicit flags on top and build.

    A flag's dest is the field it sets, and an unset flag is None.
    """
    fields = _TUNABLE | _STR_FIELDS
    flags = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return ExperimentConfig(**{**values, **flags})


def _float6(value: float) -> str:
    return f"{value:.6g}"


def _cells(values: dict) -> list[str]:
    """`name=value` cells of a grid point or of mean metrics, floats at 6 digits."""
    return [f"{k}={_float6(v) if isinstance(v, float) else v}" for k, v in values.items()]


def _check_out(path: str) -> None:
    """Refuse, before any work and without opening it, an --out path whose
    directory is missing or a file, or that is a directory or empty."""
    try:
        if not path:  # open('') fails, but only after the work
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        # The trailing separator makes stat fail with ENOTDIR on a file.
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _write(emit, content, path: str) -> None:
    """emit(content, path), where a path that cannot be written is a usage error."""
    try:
        emit(content, path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    print(f"wrote {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    values = parse_config_file(args.config) if args.config else {}
    if any(key.startswith("tune_") for key in values):
        raise ValueError(f"{args.config}: tune_* keys only make sense for the tune command")
    config = _experiment_config(args, values)
    result = run_experiment(config)
    print(
        f"config {config.config_hash()} problem={config.problem} method={config.method} "
        f"iterations={result.iterations} seeds={config.n_seeds}"
    )
    for r in result.final_records():
        print(
            f"seed {r.seed}: iter={r.iteration} "
            f"train_loss={_float6(r.train_loss)} train_acc={_float6(r.train_acc)} "
            f"test_loss={_float6(r.test_loss)} test_acc={_float6(r.test_acc)} "
            f"cases={r.case1}/{r.case2}/{r.case3}"
        )
    print("final mean: " + " ".join(_cells(result.final_means())))
    if args.out is not None:
        _write(emit_csv, result.records, args.out)
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    file_values = parse_config_file(args.config)
    grid_fields = {
        key[len("tune_"):]: value
        for key, value in file_values.items()
        if key.startswith("tune_")
    }
    if not grid_fields:
        raise ValueError(f"{args.config}: tune needs at least one tune_<field> key")
    base_values = {k: v for k, v in file_values.items() if not k.startswith("tune_")}

    grid: dict = {}
    if "gamma1" in grid_fields and "gamma2" not in grid_fields and "gamma2" not in base_values:
        pairs = [(g, _GAMMA_RATIO * g) for g in grid_fields.pop("gamma1")]
        grid[("gamma1", "gamma2")] = pairs
        base_values.setdefault("gamma1", pairs[0][0])
        base_values.setdefault("gamma2", pairs[0][1])
    for field, candidates in grid_fields.items():
        grid[field] = candidates
        base_values.setdefault(field, candidates[0])

    result = tune_grid(_experiment_config(args, base_values), grid)
    for entry in result.entries:
        cells = _cells(entry.params) + _cells(entry.means)
        if entry.diverged:
            cells.append("DIVERGED")
        print(" ".join(cells))
    print("best: " + " ".join(_cells(result.best_params)))
    if args.out is not None:
        _write(emit_csv, result.best_records, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    setup = verification_setup(
        args.theorem,
        n_seeds=args.seeds,
        gamma1=args.gamma1,
        gamma2=args.gamma2,
        alpha=args.alpha,
    )
    report = verify_theorem(setup, base_seed=args.seed)
    print(
        f"theorem {args.theorem}: horizon={setup.horizon} seeds={setup.n_seeds} "
        f"violations={report.n_violations}"
    )
    if not report.ok:
        first = int(np.argmax(report.violated))
        print(
            f"first violation at k={int(report.k[first])}: "
            f"empirical={_float6(float(report.empirical[first]))} "
            f"bound={_float6(float(report.bound[first]))}"
        )
    if args.out is not None:
        _write(emit_verify_csv, report, args.out)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_stats(args: argparse.Namespace) -> int:
    data, _ = load_libsvm(args.dataset)
    for key, value in dataset_stats(data).as_dict().items():
        if isinstance(value, float):
            print(f"{key}={value:.9g}")
        else:
            print(f"{key}={value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trish", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # Flags that set an ExperimentConfig field carry its name as their dest.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--dataset", help="training data in LIBSVM format")
    shared.add_argument("--test-dataset", help="held-out data")
    shared.add_argument("--seeds", dest="n_seeds", type=int, help="number of seeds")
    shared.add_argument("--seed", dest="base_seed", type=int, help="base seed")
    shared.add_argument("--out", help="write the (winning) run's per-checkpoint records as CSV")

    run = sub.add_parser("run", parents=[shared], help="run a seeded experiment")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--method", choices=["trish", "sg"])
    run.add_argument("--gamma1", type=float)
    run.add_argument("--gamma2", type=float)
    run.add_argument("--alpha", type=float)
    run.add_argument("--batch", dest="batch_size", type=int, help="mini-batch size")
    run.add_argument("--epochs", type=int)
    run.set_defaults(func=_cmd_run)

    tune = sub.add_parser("tune", parents=[shared], help="grid-search a config")
    tune.add_argument("--config", required=True, help="config file with tune_<field> lists")
    tune.set_defaults(func=_cmd_tune)

    verify = sub.add_parser("verify", help="check one guarantee empirically")
    verify.add_argument("--theorem", type=int, choices=[1, 2, 3, 4, 5], required=True)
    verify.add_argument("--seeds", type=int, default=2000, help="trajectories to average")
    verify.add_argument("--seed", type=int, default=0, help="base seed")
    verify.add_argument("--gamma1", type=float, help="override the reference gamma1")
    verify.add_argument("--gamma2", type=float, help="override the reference gamma2")
    verify.add_argument(
        "--alpha", type=float, help="override the fixed stepsize (theorems 1, 3 and 4)"
    )
    verify.add_argument("--out", help="write the bound-check curve as CSV")
    verify.set_defaults(func=_cmd_verify)

    stats = sub.add_parser("stats", help="summarize a LIBSVM dataset")
    stats.add_argument("--dataset", required=True)
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.func(args)
    except HypothesisError as exc:
        print(f"trish: hypothesis rejected: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ParseError as exc:
        prefix = f"{exc.path}:" if exc.path else ""
        print(f"trish: parse error: {prefix}{exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"trish: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, GridDivergedError) as exc:
        print(f"trish: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
