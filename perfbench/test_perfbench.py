"""Tests of the benchmark itself; not part of the repository's test suite.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen_wide  # noqa: E402
import trish  # noqa: E402
import trish.cli  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, per_layer  # noqa: E402
from workloads import REFERENCE_SEED, IngestWide, LogisticTune, Outcome, VerifyAll  # noqa: E402


def test_generator_counts_match_an_independent_count_and_trish_stats(tmp_path):
    path = tmp_path / "wide.libsvm"
    counts = gen_wide.generate(str(path), rows=300, seed=7)
    rows = [line.split() for line in path.read_text().splitlines()]
    pairs = [token.split(":") for row in rows for token in row[1:]]
    assert counts == {
        "count": len(rows),
        "max_index": max(int(i) for i, _ in pairs),
        "nnz": len(pairs),
        "label_balance": sum(float(row[0]) > 0 for row in rows) / len(rows),
    }
    parsed, _ = trish.load_libsvm(str(path))
    assert trish.dataset_stats(parsed).as_dict() == counts
    again = tmp_path / "again.libsvm"
    gen_wide.generate(str(again), rows=300, seed=7)
    assert again.read_bytes() == path.read_bytes()


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    (layers, parents) = zip(*[(s[0], s[3]) for s in tracer.spans])
    assert layers == ("outer", "inner", "inner", "inner")
    assert parents == (-1, 0, 0, 0)
    outer_span = tracer.spans[0]
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert outer_span[2] - outer_span[1] > children


def test_install_traces_a_verify_command_and_uninstall_restores(tmp_path):
    originals = (trish.cli.main, trish.harness.theorem_bound, trish.core.StepsizeSchedule.alpha)
    tracer = Tracer()
    tracer.install(trish)
    tracer.op += 1
    out = tmp_path / "t1.csv"
    code = trish.cli.main(["verify", "--theorem", "1", "--seeds", "50", "--out", str(out)])
    tracer.uninstall()
    assert code in (0, 4)
    assert (trish.cli.main, trish.harness.theorem_bound, trish.core.StepsizeSchedule.alpha) == originals
    metrics = per_layer(tracer, passes=1)
    assert metrics["theory.bound.calls"] == 200
    assert metrics["core.step.rows"] == 200 * 50
    assert metrics["oracles.gaussian.rows"] == 200 * 50
    assert metrics["harness.emit.bytes"] == out.stat().st_size
    shares = sum(metrics[f"core.step.case_share.{k}"] for k in (1, 2, 3))
    assert shares == pytest.approx(1.0)
    assert metrics["cli.self_s"] > 0.0


def test_a_name_the_program_no_longer_has_is_listed_not_fatal():
    module = types.ModuleType("fake")
    module.present = lambda: 1
    tracer = Tracer()
    tracer._patch("layer", "absent", module)
    tracer._patch("layer", "present", module)
    assert tracer.missing == ["fake.absent"]
    assert module.present() == 1 and tracer.spans[0][0] == "layer"
    tracer.uninstall()
    module.present()
    assert len(tracer.spans) == 1


def test_passes_divide_each_command_by_the_kernel_runs_around_it(monkeypatch):
    kernel = iter([2.0] * 3 + [4.0] * 3 + [2.0] * 3)
    clock = iter([0.0, 1.0, 1.0, 3.0])
    monkeypatch.setattr(worker, "reference_kernel", lambda: next(kernel))
    monkeypatch.setattr(worker, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(worker, "run_command", lambda trish, argv: Outcome(0, "", ""))

    class Fake:
        def check(self, spec, outcomes, memory):
            return [None] * len(outcomes), 7

    passes, tally = worker.Passes(), worker.Tally()
    took = passes.run(None, Fake(), {"commands": [["a"], ["b"]]}, tally, {})
    assert took == 3.0 and passes.wall_s() == 3.0
    assert passes.ratios == [[1.0 / 3.0, 2.0 / 3.0]]
    assert passes.wall_ref() == pytest.approx(1.0)
    assert (tally.attempted, tally.failed, tally.steps) == (2, 0, [7])


def _verify_spec(tmp_path, seed=REFERENCE_SEED):
    spec = VerifyAll().prepare(tmp_path, tmp_path, seed)
    spec["seed"] = seed
    return spec


def test_verify_check_rejects_violations_at_the_reference_seed(tmp_path):
    workload = VerifyAll()
    spec = _verify_spec(tmp_path)
    out = spec["outs"][0]
    Path(out).write_text("k,empirical_gap,standard_error,bound,violated\n"
                         + "".join(f"{k},1,1,1,{int(k == 3)}\n" for k in range(1, 201)))
    bad = Outcome(4, "theorem 1: horizon=200 seeds=2000 violations=1\n", "")
    assert "reference seed" in workload._check_verify(spec, 1, 200, out, bad, {})
    lying = Outcome(0, "theorem 1: horizon=200 seeds=2000 violations=1\n", "")
    assert "exit 0" in workload._check_verify(spec, 1, 200, out, lying, {})
    elsewhere = _verify_spec(tmp_path, seed=5)
    assert workload._check_verify(elsewhere, 1, 200, out, bad, {}) is None


def test_stats_check_compares_with_the_generator(tmp_path):
    spec = {"expected": {"count": 3, "max_index": 9, "nnz": 7, "label_balance": 1 / 3}}
    good = Outcome(0, "count=3\nmax_index=9\nnnz=7\nlabel_balance=0.333333333\n", "")
    assert IngestWide()._check_stats(spec, good) is None
    wrong = Outcome(0, "count=3\nmax_index=9\nnnz=6\nlabel_balance=0.333333333\n", "")
    assert "generator counted" in IngestWide()._check_stats(spec, wrong)


def test_tune_check_pins_the_reference_winner(tmp_path):
    workload = LogisticTune()
    out = tmp_path / "sg-best.csv"
    header = "seed,checkpoint_fraction,iteration,train_loss,train_acc,test_loss,test_acc,case1,case2,case3,wall_ms\n"
    out.write_text(header + "".join(f"{s},1,60,0.5,0.8,0.5,0.8,0,0,0,{s}.5\n" for s in range(5)))
    rows = "".join(
        f"alpha={a} batch_size={b} train_loss=0.5 train_acc=0.8 test_loss=0.5 test_acc=0.8\n"
        for a in ("0.1", "0.25", "0.5", "1", "2", "4") for b in (5, 10, 20)
    )
    spec = {"seed": REFERENCE_SEED}
    right = Outcome(0, rows + "best: alpha=0.25 batch_size=10\n", "")
    assert workload._check_tune(spec, "sg", 18, str(out), right, {})[0] is None
    wrong = Outcome(0, rows + "best: alpha=1 batch_size=10\n", "")
    assert "reference seed" in workload._check_tune(spec, "sg", 18, str(out), wrong, {})[0]
    memory = {}
    workload._check_tune(spec, "sg", 18, str(out), right, memory)
    out.write_text(out.read_text().replace("0.5,0.8,0,0,0", "0.5,0.9,0,0,0"))
    assert "differs" in workload._check_tune(spec, "sg", 18, str(out), right, memory)[0]
