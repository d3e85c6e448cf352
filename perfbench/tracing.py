"""Spans around the public calls of each trish module, patched in from outside.

No source file of the package changes.  The tracer replaces, at run
time, the names that `trish.harness` and `trish.cli` look up when they
call into another module (for example `trish.harness.trish_step` or
`trish.cli.load_libsvm`), plus a few methods on the problem, oracle and
schedule classes.  Each wrapped call records one span

    (layer, start, end, parent span index, op id)

in memory, where the op id is the CLI command the span belongs to, and
bumps the counters that turn into per-layer rates.  `per_layer` turns
spans and counters into the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Span recorder; `install` patches the trish modules it is given."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.slack: dict[int, float] = {}
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, layer: str, fn, after=None):
        """fn with a span around each call; after(args, result) updates counters."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, layer: str, name: str, *owners, after=None) -> None:
        """Replace `name` on every owner that has it by one traced wrapper.

        A name the program no longer has is listed in `missing` rather
        than failing the run; its layer then reports zeros.
        """
        present = [owner for owner in owners if name in vars(owner)]
        self.missing += [f"{owner.__name__}.{name}" for owner in owners if owner not in present]
        if not present:
            return
        original = vars(present[0])[name]
        if isinstance(original, property):
            wrapped = property(self.wrap(layer, original.fget))
        else:
            wrapped = self.wrap(layer, original, after)
        for owner in present:
            self._saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        """Put back everything `install` replaced."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def install(self, trish) -> None:
        """Patch the call sites of an imported `trish` package; `uninstall` undoes it."""
        cli, harness = trish.cli, trish.harness
        problems, oracles, core = trish.problems, trish.oracles, trish.core
        count = self.counts

        def on_exit(args, code):
            count["cli.exit.nonzero"] += code != 0

        def on_load(args, result):
            count["ingest.lines"] += len(result[0])
            count["ingest.bytes"] += os.path.getsize(args[0])

        def on_emit(args, result):
            count["harness.emit.bytes"] += os.path.getsize(args[1])

        def on_gaussian(args, result):
            count["oracles.gaussian.rows"] += result.shape[0] if result.ndim == 2 else 1

        def on_single_step(args, result):
            count["core.step.rows"] += 1
            if isinstance(result, tuple):
                count[f"core.step.case.{int(result[1])}"] += 1

        def on_batch_step(args, result):
            count["core.step.rows"] += args[0].shape[0]
            for case, n in enumerate(np.bincount(result[1], minlength=4)[1:], start=1):
                count[f"core.step.case.{case}"] += int(n)

        def on_verify(args, report):
            k = report.k >= 2
            ratio = float(np.max(report.empirical[k] / report.bound[k]))
            self.slack[report.theorem_id] = max(self.slack.get(report.theorem_id, 0.0), ratio)

        self._patch("cli.main", "main", cli, after=on_exit)
        self._patch("harness.run", "run_experiment", harness, cli)
        self._patch("harness.tune", "tune_grid", cli)
        self._patch("harness.verify", "verify_theorem", cli, after=on_verify)
        self._patch("harness.emit", "emit_csv", cli, after=on_emit)
        self._patch("harness.emit", "emit_verify_csv", cli, after=on_emit)
        self._patch("theory.setup", "verification_setup", cli)
        self._patch("ingest.stats", "dataset_stats", cli)
        self._patch("ingest.load", "load_libsvm", harness, cli, after=on_load)
        self._patch("ingest.to_matrix", "to_matrix", harness)
        self._patch("oracles.minibatch", "finite_sum_minibatch", harness)
        self._patch("theory.bound", "theorem_bound", harness)
        self._patch("core.step", "trish_step", harness, after=on_single_step)
        self._patch("core.step", "sg_step", harness, after=on_single_step)
        self._patch("core.step", "_trish_step_batch", harness, after=on_batch_step)
        self._patch("oracles.gaussian", "sample", oracles.GaussianOracle, after=on_gaussian)
        self._patch("core.schedule", "alpha", core.StepsizeSchedule)
        logistic = problems.LogisticProblem
        self._patch("problems.build", "__init__", logistic)
        self._patch("problems.build", "metadata", logistic)
        self._patch("problems.component_gradient", "component_gradient", logistic)
        self._patch("problems.metrics", "train_metrics", logistic)
        self._patch("problems.metrics", "test_metrics", logistic)
        for cls in (problems.QuadraticProblem, problems.NonconvexPLProblem):
            self._patch("problems.block", "value", cls)
            self._patch("problems.block", "gradient", cls)

    def write(self, path: str) -> None:
        """All spans as CSV: layer,start_s,end_s,parent,op."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("layer,start_s,end_s,parent,op\n")
            for layer, start, end, parent, op in self.spans:
                handle.write(f"{layer},{start:.9f},{end:.9f},{parent},{op}\n")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer metrics from the spans of `passes` traced passes."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    for layer, start, end, parent, _ in tracer.spans:
        calls[layer] += 1
        busy[layer] += end - start
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    runs_ms = []
    for index, (layer, start, end, _, _) in enumerate(tracer.spans):
        own[layer] += end - start - child[index]
        if layer == "harness.run":
            runs_ms.append((end - start) * 1e3)

    c = tracer.counts
    cases = [c[f"core.step.case.{k}"] for k in (1, 2, 3)]
    classified = sum(cases)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "ingest.load.calls": calls["ingest.load"] / passes,
        "ingest.load.busy_s": busy["ingest.load"] / passes,
        "ingest.parse.lines_per_s": ratio(c["ingest.lines"], busy["ingest.load"]),
        "ingest.parse.mb_per_s": ratio(c["ingest.bytes"] / 1e6, busy["ingest.load"]),
        "ingest.to_matrix.busy_s": busy["ingest.to_matrix"] / passes,
        "ingest.stats.busy_s": busy["ingest.stats"] / passes,
        "oracles.minibatch.calls": calls["oracles.minibatch"] / passes,
        "oracles.minibatch.self_s": own["oracles.minibatch"] / passes,
        "oracles.gaussian.calls": calls["oracles.gaussian"] / passes,
        "oracles.gaussian.rows": c["oracles.gaussian.rows"] / passes,
        "oracles.gaussian.busy_s": busy["oracles.gaussian"] / passes,
        "problems.component_gradient.calls": calls["problems.component_gradient"] / passes,
        "problems.component_gradient.busy_s": busy["problems.component_gradient"] / passes,
        "problems.component_gradient.us_per_call": 1e6 * ratio(
            busy["problems.component_gradient"], calls["problems.component_gradient"]
        ),
        "problems.metrics.calls": calls["problems.metrics"] / passes,
        "problems.metrics.busy_s": busy["problems.metrics"] / passes,
        "problems.build.busy_s": busy["problems.build"] / passes,
        "problems.block.busy_s": busy["problems.block"] / passes,
        "core.step.calls": calls["core.step"] / passes,
        "core.step.rows": c["core.step.rows"] / passes,
        "core.step.busy_s": busy["core.step"] / passes,
        "core.step.ns_per_row": 1e9 * ratio(busy["core.step"], c["core.step.rows"]),
        "core.step.case_share.1": ratio(cases[0], classified),
        "core.step.case_share.2": ratio(cases[1], classified),
        "core.step.case_share.3": ratio(cases[2], classified),
        "core.schedule.calls": calls["core.schedule"] / passes,
        "core.schedule.busy_s": busy["core.schedule"] / passes,
        "theory.bound.calls": calls["theory.bound"] / passes,
        "theory.bound.busy_s": busy["theory.bound"] / passes,
        "theory.setup.busy_s": busy["theory.setup"] / passes,
        **{f"theory.slack.max_ratio.t{t}": tracer.slack.get(t, 0.0) for t in range(1, 6)},
        "harness.self_s": sum(own[k] for k in ("harness.run", "harness.tune", "harness.verify"))
        / passes,
        "harness.run.calls": calls["harness.run"] / passes,
        "harness.run.p50_ms": _percentile(runs_ms, 50),
        "harness.run.p90_ms": _percentile(runs_ms, 90),
        "harness.emit.calls": calls["harness.emit"] / passes,
        "harness.emit.bytes": c["harness.emit.bytes"] / passes,
        "harness.emit.busy_s": busy["harness.emit"] / passes,
        "cli.self_s": own["cli.main"] / passes,
        "cli.exit.nonzero": c["cli.exit.nonzero"] / passes,
    }
