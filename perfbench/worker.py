"""Runs one workload's CLI commands in a fresh process, pass after pass.

    python3 perfbench/worker.py --spec SPEC.json --seconds S --trace 0|1
    python3 perfbench/worker.py --probe

run.py starts it with the checkout's src/ on PYTHONPATH.  Each command
is a `trish.cli.main([...])` call with stdout and stderr captured.  One
pass runs every command of the spec once; passes repeat while the next
one is expected to end within S seconds.  Around every command the
worker also times a fixed reference kernel that does not touch trish,
as a yardstick for how fast the host runs at that moment.  With
--trace 1 untraced and traced passes alternate.  The last stdout line
is a JSON object: per-pass command times, reference times, commands
attempted and failed, steps per pass, peak RSS and, when traced, the
per-layer metrics.

--probe only imports the package and builds the CLI parser, then prints
"ready"; run.py times it to measure set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import WORKLOADS, Outcome

REFERENCE_REPEATS = 3  # kernel runs between consecutive commands
_REFERENCE_TEXT = " ".join(f"{i}:{i * 0.37:.4f}" for i in range(1, 41))


def reference_kernel() -> float:
    """Seconds for a fixed mix of token parsing and small-array numpy work.

    The mix resembles what the workloads spend their time on, and it
    never calls trish, so a change to the program cannot move it.
    """
    start = perf_counter()
    x = np.ones(16)
    total = 0.0
    for _ in range(300):
        for token in _REFERENCE_TEXT.split():
            head, _, tail = token.partition(":")
            total += int(head) * float(tail)
        x = x * 0.999 + 0.001
        total += float(x @ x)
    return perf_counter() - start


class Tally:
    """Commands attempted and failed, the first few errors, steps per pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.steps: list[int] = []

    def add(self, argv_list, errors, steps) -> None:
        self.attempted += len(errors)
        self.steps.append(steps)
        for argv, error in zip(argv_list, errors):
            if error is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{' '.join(argv[:3])}: {error}")


def run_command(trish, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = trish.cli.main(argv)
        except Exception:  # a traceback is a failed command, not a dead benchmark
            code = None
            traceback.print_exc()
    return Outcome(code, out.getvalue(), err.getvalue())


class Passes:
    """Command times, CPU times and reference-kernel times of a series of passes."""

    def __init__(self) -> None:
        self.walls: list[list[float]] = []
        self.ratios: list[list[float]] = []
        self.cpus: list[float] = []
        self.refs: list[float] = []

    def _reference(self) -> list[float]:
        samples = [reference_kernel() for _ in range(REFERENCE_REPEATS)]
        self.refs += samples
        return samples

    def run(self, trish, workload, spec, tally, memory, tracer=None) -> float:
        """Every command of the spec once; returns the pass's wall seconds.

        Each command's time is also divided by the median of the kernel
        runs just before and just after it, which cancels the host load
        of that moment.
        """
        cpu0 = time.process_time()
        outcomes, times, ratios = [], [], []
        before = self._reference()
        for argv in spec["commands"]:
            if tracer is not None:
                tracer.op += 1
            wall0 = perf_counter()
            outcomes.append(run_command(trish, argv))
            times.append(perf_counter() - wall0)
            after = self._reference()
            ratios.append(times[-1] / statistics.median(before + after))
            before = after
        self.cpus.append(time.process_time() - cpu0)
        self.walls.append(times)
        self.ratios.append(ratios)
        errors, steps = workload.check(spec, outcomes, memory)
        tally.add(spec["commands"], errors, steps)
        return sum(times)

    def wall_s(self) -> float:
        """Sum over the commands of each command's median time."""
        return sum(statistics.median(column) for column in zip(*self.walls))

    def wall_ref(self) -> float:
        """wall_s with each command time in units of the kernel around it."""
        return sum(statistics.median(column) for column in zip(*self.ratios))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spec")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    start = perf_counter()
    import trish.cli

    if args.probe:
        trish.cli.build_parser()
        print("ready", flush=True)
        return 0

    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]]
    tally, memory = Tally(), {}
    deadline = start + args.seconds
    untraced = Passes()
    result = {}
    if args.trace:
        from tracing import Tracer, per_layer

        # Untraced and traced passes alternate, so that both see the same
        # host load and their ratio is the tracing overhead.
        tracer, traced = Tracer(), Passes()
        while True:
            took = untraced.run(trish, workload, spec, tally, memory)
            tracer.install(trish)
            took += traced.run(trish, workload, spec, tally, memory, tracer)
            tracer.uninstall()
            if perf_counter() + took > deadline:
                break
        result["per_layer"] = {
            **per_layer(tracer, len(traced.walls)),
            "process.cpu_s": statistics.median(untraced.cpus),
            "process.wall_s": untraced.wall_s(),
            "process.reference_s": statistics.median(untraced.refs),
            "trace.overhead_ratio": traced.wall_ref() / untraced.wall_ref(),
        }
        result["traced_command_wall_s"] = traced.walls
        result["trace_missing"] = sorted(set(tracer.missing))
        tracer.write(str(Path(args.spec).with_name("spans.csv")))
    else:
        while True:
            took = untraced.run(trish, workload, spec, tally, memory)
            if perf_counter() + took > deadline:
                break
    result.update(
        wall_s=untraced.wall_s(),
        wall_ref=untraced.wall_ref(),
        reference_s=statistics.median(untraced.refs),
        command_wall_s=untraced.walls,
        command_wall_ref=untraced.ratios,
        reference_samples_s=untraced.refs,
        cpu_s=untraced.cpus,
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        steps_per_pass=tally.steps,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
