"""The benchmark workloads: seeded inputs, the commands of one pass, output checks.

`prepare` runs in the parent before anything is timed.  It writes the
configs and data files a workload needs under its work directory and
returns a JSON-able spec.  The worker process runs the spec's
`commands` through `trish.cli.main` once per pass and hands their
outcomes to `check`.  `check` returns one error message (or None) per
command, and the trajectory steps the pass made.  A wrong answer counts
as a failed command just as a non-zero exit does.  A DIVERGED grid row
is expected output, not a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import gen_wide

# The seed whose results the paper-reproduction checks pin down.
REFERENCE_SEED = 0


@dataclass
class Outcome:
    """What one `trish.cli.main` call produced; code is None if it raised."""

    code: int | None
    stdout: str
    stderr: str


def _file_sizes(path: Path) -> dict:
    """Rows, largest feature index and stored entries, counted by str.split."""
    rows = nnz = features = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            rows += 1
            nnz += len(tokens) - 1
            if len(tokens) > 1:
                features = max(features, int(tokens[-1].partition(":")[0]))
    return {"rows": rows, "features": features, "nnz": nnz}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return None


def _without_wall_ms(text: str) -> str:
    """Run CSVs end in a wall_ms column, which no two runs share."""
    return "\n".join(line.rpartition(",")[0] for line in text.splitlines())


def _same_as_first(memory: dict, path: str, text: str) -> str | None:
    first = memory.setdefault(path, text)
    return None if text == first else f"{path} differs from the first pass"


def _csv_rows(text: str) -> list[dict]:
    header, *lines = text.splitlines()
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


def _exit_error(outcome: Outcome, allowed=(0,)) -> str | None:
    if outcome.code in allowed:
        return None
    tail = outcome.stderr.strip().splitlines()[-1:] or ["no stderr"]
    return f"exit code {outcome.code}: {tail[0]}"


class LogisticTune:
    """`trish tune` on the bundled data: the criterion-10 safeguarded grid, then SG."""

    name = "logistic-tune"
    n_seeds = 5
    grids = {
        "trish": {"gamma1": [2, 4, 8, 16], "alpha": [0.1, 0.25, 0.5, 1, 2], "batch_size": [5, 10, 20]},
        "sg": {"alpha": [0.1, 0.25, 0.5, 1, 2, 4], "batch_size": [5, 10, 20]},
    }
    reference_winners = {
        "trish": "alpha=0.5 batch_size=10 gamma1=2 gamma2=0.8",
        "sg": "alpha=0.25 batch_size=10",
    }

    def prepare(self, root: Path, work: Path, seed: int) -> dict:
        data = root / "src" / "trish" / "data"
        train, test = data / "train.libsvm", data / "test.libsvm"
        sizes = {"train": _file_sizes(train), "test": _file_sizes(test)}
        n_train = sizes["train"]["rows"]
        commands, outs, points = [], [], []
        grid_steps = 0
        for method, grid in self.grids.items():
            lines = [
                f"method = {method}",
                "problem = logistic",
                f"dataset = {train}",
                f"test_dataset = {test}",
                "epochs = 1",
                f"n_seeds = {self.n_seeds}",
                f"base_seed = {seed}",
            ]
            lines += [f"tune_{k} = {', '.join(map(str, v))}" for k, v in grid.items()]
            config = work / f"{method}.conf"
            config.write_text("\n".join(lines) + "\n", encoding="utf-8")
            out = str(work / f"{method}-best.csv")
            commands.append(["tune", "--config", str(config), "--out", out])
            outs.append(out)
            points.append(math.prod(len(v) for v in grid.values()))
            for combo in product(*grid.values()):
                batch = dict(zip(grid, combo))["batch_size"]
                grid_steps += self.n_seeds * math.ceil(n_train / batch)
        return {
            "commands": commands,
            "outs": outs,
            "methods": list(self.grids),
            "points": points,
            "n_train": n_train,
            "grid_steps": grid_steps,
            "sizes": {
                **{k: {"train": sizes["train"][k], "test": sizes["test"][k]} for k in sizes["train"]},
                "grid_points": sum(points),
                "seeds_per_point": self.n_seeds,
            },
        }

    def check(self, spec: dict, outcomes: list[Outcome], memory: dict):
        errors, best_loss = [], {}
        steps = spec["grid_steps"]
        for method, points, out, outcome in zip(
            spec["methods"], spec["points"], spec["outs"], outcomes
        ):
            error, best, loss = self._check_tune(spec, method, points, out, outcome, memory)
            errors.append(error)
            best_loss[method] = loss
            if best is not None:
                batch = int(best.split("batch_size=")[1].split()[0])
                steps += self.n_seeds * math.ceil(spec["n_train"] / batch)
        # The comparison is the paper's claim at the reference seed; at
        # other seeds the two tuned losses can tie within noise (seed 2024
        # puts SG 1e-4 ahead), so it is not a correctness check there.
        if spec["seed"] == REFERENCE_SEED and errors[0] is None and None not in best_loss.values():
            if best_loss["trish"] > best_loss["sg"]:
                errors[0] = (
                    f"tuned safeguarded train loss {best_loss['trish']} "
                    f"above plain SG {best_loss['sg']}"
                )
        return errors, steps

    def _check_tune(self, spec, method, points, out, outcome, memory):
        error = _exit_error(outcome)
        if error:
            return error, None, None
        table, best = {}, None
        for line in outcome.stdout.splitlines():
            if line.startswith("best: "):
                best = line[len("best: "):]
            elif " train_loss=" in line:
                params, _, rest = line.partition(" train_loss=")
                table[params] = (float(rest.split()[0]), line.endswith("DIVERGED"))
        if len(table) != points:
            return f"{method}: {len(table)} grid rows, expected {points}", None, None
        if best not in table or table[best][1]:
            return f"{method}: winner {best!r} is not a finite grid row", None, None
        if spec["seed"] == REFERENCE_SEED and best != self.reference_winners[method]:
            return f"{method}: winner {best!r} at the reference seed", best, None
        text = _read(out)
        if text is None:
            return f"{method}: {out} not written", best, None
        finals = [float(r["train_loss"]) for r in _csv_rows(text) if r["checkpoint_fraction"] == "1"]
        loss = table[best][0]
        if len(finals) != self.n_seeds:
            return f"{method}: {len(finals)} final records in {out}", best, None
        if not math.isclose(sum(finals) / len(finals), loss, rel_tol=1e-5):
            return f"{method}: winner re-run loss does not match its grid row {loss}", best, None
        return _same_as_first(memory, out, _without_wall_ms(text)), best, loss


class VerifyAll:
    """`trish verify` for each of the five guarantees at the reference 2000 seeds."""

    name = "verify-all"
    n_seeds = 2000
    horizons = {1: 200, 2: 500, 3: 100, 4: 200, 5: 5000}

    def prepare(self, root: Path, work: Path, seed: int) -> dict:
        commands, outs = [], []
        for theorem in self.horizons:
            out = str(work / f"theorem{theorem}.csv")
            commands.append([
                "verify", "--theorem", str(theorem), "--seeds", str(self.n_seeds),
                "--seed", str(seed), "--out", out,
            ])
            outs.append(out)
        return {
            "commands": commands,
            "outs": outs,
            "sizes": {
                "rows": 0,
                "features": 1,
                "nnz": 0,
                "grid_points": 0,
                "trajectories": self.n_seeds,
                "horizons": self.horizons,
            },
        }

    def check(self, spec: dict, outcomes: list[Outcome], memory: dict):
        errors = []
        for (theorem, horizon), out, outcome in zip(self.horizons.items(), spec["outs"], outcomes):
            errors.append(self._check_verify(spec, theorem, horizon, out, outcome, memory))
        return errors, self.n_seeds * sum(self.horizons.values())

    def _check_verify(self, spec, theorem, horizon, out, outcome, memory):
        # A violation away from the reference seed is a Monte Carlo event
        # (exit 4), not a wrong answer, as long as every output agrees on it.
        error = _exit_error(outcome, allowed=(0, 4))
        if error:
            return error
        head = outcome.stdout.splitlines()[0] if outcome.stdout else ""
        prefix = f"theorem {theorem}: horizon={horizon} seeds={self.n_seeds} violations="
        if not head.startswith(prefix):
            return f"theorem {theorem}: unexpected header {head!r}"
        violations = int(head[len(prefix):])
        if (violations == 0) != (outcome.code == 0):
            return f"theorem {theorem}: exit {outcome.code} with {violations} violations"
        if spec["seed"] == REFERENCE_SEED and violations:
            return f"theorem {theorem}: {violations} violations at the reference seed"
        text = _read(out)
        if text is None:
            return f"theorem {theorem}: {out} not written"
        rows = _csv_rows(text)
        if [int(r["k"]) for r in rows] != list(range(1, horizon + 1)):
            return f"theorem {theorem}: {out} does not cover k = 1..{horizon}"
        if sum(int(r["violated"]) for r in rows) != violations:
            return f"theorem {theorem}: {out} disagrees on the violation count"
        return _same_as_first(memory, out, text)


class IngestWide:
    """`trish stats` then a one-epoch `trish run` on a generated wide file."""

    name = "ingest-wide"
    rows = 40_000
    batch = 100

    def prepare(self, root: Path, work: Path, seed: int) -> dict:
        data = str(work / "wide.libsvm")
        expected = gen_wide.generate(data, self.rows, seed)
        out = str(work / "run.csv")
        commands = [
            ["stats", "--dataset", data],
            [
                "run", "--dataset", data, "--method", "trish", "--gamma1", "4",
                "--gamma2", "1.6", "--alpha", "0.5", "--seeds", "1", "--seed", str(seed),
                "--epochs", "1", "--batch", str(self.batch), "--out", out,
            ],
        ]
        return {
            "commands": commands,
            "out": out,
            "expected": expected,
            "iterations": math.ceil(self.rows / self.batch),
            "sizes": {
                "rows": expected["count"],
                "features": gen_wide.N_FEATURES,
                "max_index": expected["max_index"],
                "nnz": expected["nnz"],
                "bytes": Path(data).stat().st_size,
                "grid_points": 0,
            },
        }

    def check(self, spec: dict, outcomes: list[Outcome], memory: dict):
        stats, run = outcomes
        return [self._check_stats(spec, stats), self._check_run(spec, run, memory)], spec["iterations"]

    def _check_stats(self, spec, outcome):
        error = _exit_error(outcome)
        if error:
            return error
        expected = [
            f"{key}={value:.9g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in spec["expected"].items()
        ]
        got = outcome.stdout.splitlines()
        return None if got == expected else f"stats printed {got}, generator counted {expected}"

    def _check_run(self, spec, outcome, memory):
        error = _exit_error(outcome)
        if error:
            return error
        lines = outcome.stdout.splitlines()
        if not lines or f" iterations={spec['iterations']} seeds=1" not in lines[0]:
            return f"run: unexpected header {lines[:1]}"
        final = [line for line in lines if line.startswith("final mean: train_loss=")]
        if not final:
            return "run: no final mean line"
        loss = float(final[0].split("train_loss=")[1].split()[0])
        if not math.isfinite(loss):
            return f"run: final train loss {loss}"
        text = _read(spec["out"])
        if text is None or len(text.splitlines()) != 6:
            return f"run: {spec['out']} missing or not 5 checkpoint rows"
        return _same_as_first(memory, spec["out"], _without_wall_ms(text))


WORKLOADS = {w.name: w for w in (LogisticTune(), VerifyAll(), IngestWide())}
