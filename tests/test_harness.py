"""Tests for experiment configs, runs, tuning, bound checks, and CSV output."""

import contextlib
import dataclasses
import io
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trish import _workers, harness
from trish.cli import main as cli_main
from trish.core import StepsizeSchedule, TrishParams, classify_case, step_norm
from trish.harness import (
    RUN_CSV_HEADER,
    VERIFY_CSV_HEADER,
    ExperimentConfig,
    RunRecord,
    TheoremReport,
    _build_problem,
    _checkpoint_iterations,
    _march,
    _prefetched,
    _trish_step_batch,
    emit_csv,
    emit_verify_csv,
    run_experiment,
    tune_grid,
    verification_setup,
    verify_theorem,
)
from trish._workers import _run_off, _this_cpu
from trish.oracles import GaussianOracle
from trish.problems import NonconvexPLProblem, QuadraticProblem
from trish.theory import HypothesisError
from test_workers import _assert_no_child_left, needs_fork

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "trish" / "data"
TRAIN = str(DATA_DIR / "train.libsvm")
TEST = str(DATA_DIR / "test.libsvm")


def synthetic_config(**overrides):
    base = dict(
        method="trish",
        problem="quadratic",
        gamma1=2.0,
        gamma2=0.5,
        alpha=0.1,
        max_iterations=10,
        sigma=0.1,
        n_seeds=2,
        checkpoint_fractions=(0.5, 1.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_valid_synthetic(self):
        config = synthetic_config()
        assert config.schedule().kind == "fixed"

    def test_sg_needs_no_gammas(self):
        config = synthetic_config(method="sg", gamma1=None, gamma2=None)
        assert config.gamma1 is None

    def test_harmonic_schedule(self):
        config = synthetic_config(alpha=None, schedule_a=1.0, schedule_b=4.0)
        assert config.schedule().kind == "harmonic"
        assert config.schedule().alpha(1) == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(method="adam"), "method"),
            (dict(problem="cubic"), "problem"),
            (dict(gamma1=None), "gamma1 and gamma2"),
            (dict(gamma1=0.5, gamma2=2.0), "gamma1"),
            (dict(schedule_a=1.0, schedule_b=1.0), "not both"),
            (dict(alpha=None), "no stepsize"),
            (dict(alpha=None, schedule_a=1.0), "both schedule_a and schedule_b"),
            (dict(batch_size=0), "batch_size"),
            (dict(epochs=0), "epochs"),
            (dict(n_seeds=0), "n_seeds"),
            (dict(checkpoint_fractions=()), "at least one checkpoint"),
            (dict(checkpoint_fractions=(0.5, 0.5)), "strictly increasing"),
            (dict(checkpoint_fractions=(0.5, 0.2)), "strictly increasing"),
            (dict(checkpoint_fractions=(0.0, 1.0)), "fractions must lie"),
            (dict(checkpoint_fractions=(0.5, 1.2)), "fractions must lie"),
            (dict(max_iterations=None), "max_iterations"),
            (dict(sigma=None), "sigma"),
            (dict(dimension=0), "dimension"),
        ],
    )
    def test_rejections(self, overrides, fragment):
        with pytest.raises(ValueError, match=fragment):
            synthetic_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(alpha=-1.0), "fixed stepsize must be positive, got -1.0"),
            (dict(alpha=math.nan), "fixed stepsize must be positive, got nan"),
            (
                dict(alpha=None, schedule_a=math.inf, schedule_b=1.0),
                "need finite a > 0 and b > 0, got a=inf, b=1.0",
            ),
        ],
    )
    def test_stepsize_is_validated_at_construction(self, overrides, message):
        # These used to pass construction and fail only once a run asked
        # for its schedule, after the dataset had been loaded.
        with pytest.raises(ValueError, match=re.escape(message)):
            synthetic_config(**overrides)

    def test_checkpoint_fractions_are_stored_as_a_tuple(self):
        as_list = synthetic_config(checkpoint_fractions=[0.5, 1.0])
        as_tuple = synthetic_config(checkpoint_fractions=(0.5, 1.0))
        assert as_list.checkpoint_fractions == (0.5, 1.0)
        assert as_list == as_tuple
        assert hash(as_list) == hash(as_tuple)
        assert as_list.config_hash() == as_tuple.config_hash()

    def test_logistic_needs_dataset(self):
        with pytest.raises(ValueError, match="dataset"):
            ExperimentConfig(problem="logistic", gamma1=2.0, gamma2=0.5, alpha=0.1)

    def test_config_hash_ignores_base_seed(self):
        a = synthetic_config(base_seed=0)
        b = synthetic_config(base_seed=99)
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 16
        int(a.config_hash(), 16)  # hex digest prefix

    def test_config_hash_tracks_parameters(self):
        assert synthetic_config().config_hash() != synthetic_config(alpha=0.2).config_hash()

    def test_config_hash_reads_dataset_bytes_not_path(self, tmp_path):
        data = Path(TRAIN).read_bytes()
        (tmp_path / "sub").mkdir()
        paths = [tmp_path / "a.libsvm", tmp_path / "sub" / "b.libsvm", tmp_path / "c.libsvm"]
        paths[0].write_bytes(data)
        paths[1].write_bytes(data)
        changed = bytearray(data)
        changed[len(data) // 2] ^= 1
        paths[2].write_bytes(bytes(changed))
        hashes = [
            ExperimentConfig(
                dataset=str(path), test_dataset=TEST, gamma1=2.0, gamma2=0.5, alpha=0.1
            ).config_hash()
            for path in paths
        ]
        assert hashes[0] == hashes[1]
        assert hashes[2] != hashes[0]


class TestCheckpointIterations:
    def test_ceil_and_floor_of_one(self):
        assert _checkpoint_iterations((0.1, 0.5, 1.0), 2) == [1, 1, 2]
        assert _checkpoint_iterations((0.26,), 4) == [2]
        assert _checkpoint_iterations((0.5, 1.0), 10) == [5, 10]

    def test_tiny_fraction_clamps_to_first_iteration(self):
        assert _checkpoint_iterations((0.001,), 100) == [1]


class TestRunExperiment:
    def test_deterministic_given_seeds(self):
        config = synthetic_config()
        a = run_experiment(config)
        b = run_experiment(config)
        # assert_array_equal treats matching nans as equal
        np.testing.assert_array_equal(_rows(a.records), _rows(b.records))

    @pytest.mark.parametrize(
        "config",
        [
            synthetic_config(n_seeds=3, base_seed=4, max_iterations=30, dimension=2),
            ExperimentConfig(
                problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=4.0,
                gamma2=1.6, alpha=0.5, batch_size=50, n_seeds=3, base_seed=4,
            ),
        ],
        ids=["quadratic", "logistic"],
    )
    def test_seed_trajectory_does_not_depend_on_n_seeds(self, config):
        block = run_experiment(config).records
        for seed in (4, 5, 6):
            alone = dataclasses.replace(config, n_seeds=1, base_seed=seed)
            np.testing.assert_array_equal(
                _rows([r for r in block if r.seed == seed]),
                _rows(run_experiment(alone).records),
            )

    def test_reseeding_changes_trajectories(self):
        # plain SG feeds the noise straight into the iterate, so two base
        # seeds cannot land on the same loss
        kwargs = dict(method="sg", gamma1=None, gamma2=None)
        a = run_experiment(synthetic_config(base_seed=0, **kwargs))
        b = run_experiment(synthetic_config(base_seed=77, **kwargs))
        assert a.records[0].train_loss != b.records[0].train_loss

    def test_normalized_step_hand_value(self):
        # x1 = 1, gradient 1, negligible noise: ||g|| sits inside the band
        # so one normalized step of length alpha lands at 0.9
        config = synthetic_config(
            sigma=1e-12, max_iterations=1, n_seeds=1, checkpoint_fractions=(1.0,)
        )
        result = run_experiment(config)
        record = result.records[0]
        assert record.case2 == 1 and record.case1 == 0 and record.case3 == 0
        assert record.train_loss == pytest.approx(0.5 * 0.9**2, abs=1e-9)

    def test_sg_leaves_case_counts_at_zero(self):
        config = synthetic_config(method="sg", gamma1=None, gamma2=None)
        for record in run_experiment(config).records:
            assert (record.case1, record.case2, record.case3) == (0, 0, 0)

    def test_case_counts_accumulate_to_iteration(self):
        config = synthetic_config(max_iterations=20, checkpoint_fractions=(0.5, 1.0))
        for record in run_experiment(config).records:
            assert record.case1 + record.case2 + record.case3 == record.iteration

    def test_synthetic_metrics_have_nan_test_columns(self):
        record = run_experiment(synthetic_config()).records[0]
        assert math.isnan(record.test_loss) and math.isnan(record.test_acc)
        assert math.isnan(record.train_acc)
        assert math.isfinite(record.train_loss)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_reports_nan_from_detection_on(self):
        config = synthetic_config(
            method="sg", gamma1=None, gamma2=None, alpha=1e200,
            max_iterations=10, n_seeds=1, checkpoint_fractions=(0.5, 1.0),
        )
        records = run_experiment(config).records
        assert math.isnan(records[-1].train_loss)

    def test_logistic_divergence_freezes_the_row(self):
        # gamma2 * alpha * g overflows the margins while the iterates stay finite
        config = ExperimentConfig(
            problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=1e308, gamma2=1e307,
            alpha=0.5, n_seeds=2, checkpoint_fractions=(0.1, 0.5, 1.0),
        )
        records = run_experiment(config).records
        for seed in (0, 1):
            first, *later = [r for r in records if r.seed == seed]
            assert first.train_loss == math.inf
            for r in later:
                metrics = (r.train_loss, r.train_acc, r.test_loss, r.test_acc)
                assert all(math.isnan(v) for v in metrics)
                assert (r.case1, r.case2, r.case3) == (first.case1, first.case2, first.case3)

    def test_result_iterations(self):
        assert run_experiment(synthetic_config()).iterations == 10

    def test_logistic_run(self):
        config = ExperimentConfig(
            problem="logistic",
            dataset=TRAIN,
            test_dataset=TEST,
            gamma1=4.0,
            gamma2=1.6,
            alpha=0.5,
            batch_size=20,
            n_seeds=2,
            checkpoint_fractions=(0.5, 1.0),
        )
        result = run_experiment(config)
        # 600 examples / batch 20 = 30 iterations, checkpoints at 15 and 30
        assert result.iterations == 30
        finals = result.final_records()
        assert len(finals) == 2
        for record in finals:
            assert record.iteration == 30
            assert 0.0 < record.train_loss < math.log(2.0)
            assert 0.5 < record.train_acc <= 1.0
            assert math.isfinite(record.test_loss)

    def test_final_records_picks_last_fraction(self):
        result = run_experiment(synthetic_config())
        finals = result.final_records()
        assert [r.checkpoint_fraction for r in finals] == [1.0, 1.0]
        assert [r.seed for r in finals] == [0, 1]


class TestBuildProblem:
    def test_narrower_split_is_widened(self, tmp_path):
        train, test = tmp_path / "train.libsvm", tmp_path / "test.libsvm"
        train.write_text("1 1:1.0 2:2.0\n-1 2:0.5\n")
        test.write_text("1 5:3.0\n")
        problem = _build_problem(
            ExperimentConfig(
                problem="logistic", dataset=str(train), test_dataset=str(test),
                gamma1=2.0, gamma2=0.5, alpha=0.1,
            )
        )
        assert problem.train.width == problem.test.width == 5
        assert problem.train.indices.tolist() == [0, 1, 1]
        assert problem.train.values.tolist() == [1.0, 2.0, 0.5]
        assert problem.test.indices.tolist() == [4]
        np.testing.assert_array_equal(problem.train.labels, [1.0, -1.0])

    def test_label_only_data_gets_width_one(self, tmp_path):
        train = tmp_path / "train.libsvm"
        train.write_text("1\n-1\n")
        problem = _build_problem(
            ExperimentConfig(
                problem="logistic", dataset=str(train), gamma1=2.0, gamma2=0.5, alpha=0.1
            )
        )
        assert (len(problem.train), problem.train.width) == (2, 1)
        assert problem.test is None


class TestTuneGrid:
    def test_selection_rule_recomputed(self):
        base = ExperimentConfig(
            problem="logistic",
            dataset=TRAIN,
            test_dataset=TEST,
            gamma1=4.0,
            gamma2=1.6,
            alpha=1.0,
            batch_size=20,
            n_seeds=2,
            checkpoint_fractions=(1.0,),
        )
        result = tune_grid(base, {"alpha": [0.25, 1.0, 4.0]})
        assert len(result.entries) == 3
        live = [e for e in result.entries if not e.diverged]
        expected = min(
            live, key=lambda e: (-e.means["test_acc"], e.means["test_loss"])
        )
        assert result.best_params == expected.params
        assert result.best.alpha == expected.params["alpha"]

    def test_coupled_keys_stay_paired(self):
        base = synthetic_config(n_seeds=1, max_iterations=5)
        result = tune_grid(
            base,
            {("gamma1", "gamma2"): [(2.0, 0.8), (4.0, 1.6)], "alpha": [0.1, 0.2]},
        )
        assert len(result.entries) == 4
        for entry in result.entries:
            assert entry.params["gamma1"] / entry.params["gamma2"] == pytest.approx(2.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_point_flagged_and_excluded(self):
        base = synthetic_config(method="sg", gamma1=None, gamma2=None, n_seeds=1)
        result = tune_grid(base, {"alpha": [0.1, 1e200]})
        flags = {e.params["alpha"]: e.diverged for e in result.entries}
        assert flags == {0.1: False, 1e200: True}
        assert result.best_params == {"alpha": 0.1}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_diverged_raises(self):
        base = synthetic_config(method="sg", gamma1=None, gamma2=None, n_seeds=1)
        with pytest.raises(RuntimeError, match="diverged"):
            tune_grid(base, {"alpha": [1e200]})

    def test_best_records_are_the_winners_run(self):
        base = synthetic_config(n_seeds=2, max_iterations=20)
        result = tune_grid(base, {"alpha": [0.05, 0.1, 0.2]})
        np.testing.assert_array_equal(
            _rows(result.best_records), _rows(run_experiment(result.best).records)
        )

    @pytest.mark.parametrize(
        "stepsize, grid",
        [
            (
                dict(alpha=1.0),
                {
                    ("gamma1", "gamma2"): [(2.0, 0.8), (8.0, 3.2)],
                    "alpha": [0.25, 2.0],
                    "batch_size": [10, 40],
                },
            ),
            (
                dict(schedule_a=20.0, schedule_b=10.0),
                {"schedule_a": [5.0, 20.0], "schedule_b": [10.0, 40.0], "batch_size": [30]},
            ),
        ],
        ids=["fixed", "harmonic"],
    )
    def test_every_entry_matches_its_own_run(self, monkeypatch, stepsize, grid):
        base = ExperimentConfig(
            problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=4.0, gamma2=1.6,
            n_seeds=3, checkpoint_fractions=[0.5, 1.0], **stepsize,
        )
        blocks = []
        run_block = harness._run_block

        def counted(configs, problem, final_only=False):
            blocks.append((len(configs), final_only))
            return run_block(configs, problem, final_only)

        monkeypatch.setattr(harness, "_run_block", counted)
        # one usable CPU, so that this process runs _run_split's whole queue, where the spy sees it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        result = tune_grid(base, grid)
        monkeypatch.undo()
        # one final-only block per batch size, holding every other
        # combination, then the winner's lone run at every checkpoint
        per_block = len(result.entries) // len(grid["batch_size"])
        assert blocks == [(per_block, True)] * len(grid["batch_size"]) + [(1, False)]
        for entry in result.entries:
            finals = run_experiment(dataclasses.replace(base, **entry.params)).final_records()
            assert not entry.diverged
            assert list(entry.means.items()) == [
                (f, float(np.mean([getattr(r, f) for r in finals])))
                for f in ("train_loss", "train_acc", "test_loss", "test_acc")
            ]
        np.testing.assert_array_equal(
            _rows(result.best_records), _rows(run_experiment(result.best).records)
        )

    def test_block_past_the_byte_budget_runs_in_parts(self, monkeypatch):
        base = ExperimentConfig(
            problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=4.0, gamma2=1.6,
            alpha=1.0, batch_size=20, n_seeds=2,
        )
        grid = {"alpha": [0.1, 0.25, 0.5, 1.0, 2.0]}
        whole = tune_grid(base, grid)
        rows = []
        start_block = harness._start_block

        def recorded(n_rows, dim, x1):
            rows.append(n_rows)
            return start_block(n_rows, dim, x1)

        monkeypatch.setattr(harness, "_start_block", recorded)
        # one usable CPU, so that this process runs _run_split's whole queue, where the spy sees it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        # room for two points of 2 seeds, 120 columns and 600 training rows
        monkeypatch.setattr(harness, "_TUNE_BLOCK_BYTES", 2 * 8 * 2 * (2 * 120 + 3 * 600))
        parts = tune_grid(base, grid)
        assert rows == [4, 4, 2, 2]  # three parts, then the winner's lone run
        assert parts.entries == whole.entries
        assert parts.best_records == whole.best_records

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_row_leaves_its_block_alone(self):
        base = ExperimentConfig(
            method="sg", problem="logistic", dataset=TRAIN, test_dataset=TEST,
            alpha=1.0, batch_size=20, n_seeds=3,
        )
        clean = tune_grid(base, {"alpha": [0.25, 1.0]})
        poisoned = tune_grid(base, {"alpha": [0.25, 1e308, 1.0]})
        assert [e.params["alpha"] for e in poisoned.entries if e.diverged] == [1e308]
        assert [e for e in poisoned.entries if not e.diverged] == clean.entries
        np.testing.assert_array_equal(_rows(poisoned.best_records), _rows(clean.best_records))

    def test_freeze_at_an_unread_checkpoint_stays_exact(self):
        # At alpha = 1e306 some seeds' train loss overflows at the first
        # checkpoint while their iterate is still finite; unfrozen, they
        # would come back to a finite loss and the point would not diverge.
        # At 1e303 the margin bound clears no row, yet every loss is finite.
        base = ExperimentConfig(
            problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=2.0, gamma2=0.8,
            alpha=0.5, n_seeds=3,
        )
        result = tune_grid(base, {"alpha": [0.5, 1e303, 1e306]})
        for entry in result.entries:
            alone = run_experiment(dataclasses.replace(base, **entry.params)).final_means()
            np.testing.assert_array_equal(list(entry.means.values()), list(alone.values()))
            assert entry.diverged == (not math.isfinite(alone["train_loss"]))
        assert [e.diverged for e in result.entries] == [False, False, True]

    def test_grid_validation(self):
        base = synthetic_config()
        with pytest.raises(ValueError, match="empty candidate"):
            tune_grid(base, {"alpha": []})
        with pytest.raises(ValueError, match="does not match"):
            tune_grid(base, {("gamma1", "gamma2"): [(2.0, 0.8, 1.0)]})


# The criterion-10 grids as `trish tune` reads them; gamma2 follows gamma1 at 0.4.
_CRITERION_10_GRIDS = {
    "trish": "method = trish\ntune_gamma1 = 2, 4, 8, 16\ntune_alpha = 0.1, 0.25, 0.5, 1, 2\n"
             "tune_batch_size = 5, 10, 20\n",
    "sg": "method = sg\ntune_alpha = 0.1, 0.25, 0.5, 1, 2, 4\ntune_batch_size = 5, 10, 20\n",
}


@contextlib.contextmanager
def _cpus(n, forks=None):
    """tune_grid as on n usable CPUs; each child it forks appends 1 to the
    list `forks`, if given."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        if forks is not None:
            fork = _workers._fork
            patch.setattr(_workers, "_fork", lambda send, cpu: forks.append(1) or fork(send, cpu))
        yield


def _assert_same_tune(got, want):
    """Two TuneResults agree bit for bit (repr round-trips every float, nan included)."""
    assert repr(got.entries) == repr(want.entries)
    assert got.best_params == want.best_params and got.best == want.best
    assert repr(got.best_records) == repr(want.best_records)


def _tune_command(tmp_path, text, cpus):
    """`trish tune` on the config text as on cpus usable CPUs: its exit
    code, stdout, stderr and --out bytes, and the children it forked."""
    conf, out = tmp_path / "tune.conf", tmp_path / f"best-{cpus}.csv"
    conf.write_text(text)
    stdout, stderr, forks = io.StringIO(), io.StringIO(), []
    with _cpus(cpus, forks), contextlib.redirect_stdout(stdout):
        with contextlib.redirect_stderr(stderr):
            code = cli_main(["tune", "--config", str(conf), "--out", str(out)])
    text = stdout.getvalue().replace(str(out), "<out>")
    return (code, text, stderr.getvalue(), out.read_bytes()), forks


@needs_fork
class TestTuneSplit:
    """tune_grid on two or more usable CPUs gives its serial loop's output, bit for bit."""

    def _check(self, base, grid, cpus):
        with _cpus(1):
            want = tune_grid(base, grid)
        forks = []
        with _cpus(cpus, forks):
            got = tune_grid(base, grid)
        assert forks  # the split was taken
        _assert_same_tune(got, want)
        _assert_no_child_left()
        return got

    @pytest.mark.parametrize("base_seed, cpus", [(0, 2), (3, 4)])
    @pytest.mark.parametrize("method", ["trish", "sg"])
    def test_criterion_10_grid(self, tmp_path, method, base_seed, cpus, capfd):
        text = (f"problem = logistic\ndataset = {TRAIN}\ntest_dataset = {TEST}\nepochs = 1\n"
                f"n_seeds = 5\nbase_seed = {base_seed}\n" + _CRITERION_10_GRIDS[method])
        want, serial_forks = _tune_command(tmp_path, text, 1)
        got, forks = _tune_command(tmp_path, text, cpus)
        assert want[0] == 0 and got == want
        assert serial_forks == [] and len(forks) == min(cpus, 3) - 1  # one block per batch size
        base = ExperimentConfig(
            method=method, problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=2.0,
            gamma2=0.8, alpha=0.1, batch_size=5, n_seeds=5, base_seed=base_seed,
        )
        grid = {"alpha": [0.1, 0.25, 0.5, 1.0, 2.0], "batch_size": [5, 10, 20]}
        if method == "trish":
            grid[("gamma1", "gamma2")] = [(g, 0.4 * g) for g in (2.0, 4.0, 8.0, 16.0)]
        self._check(base, grid, cpus)
        assert capfd.readouterr().err == ""  # no child wrote anything

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_block_past_the_byte_budget_splits_into_parts(self, monkeypatch, cpus):
        base = ExperimentConfig(
            problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=4.0, gamma2=1.6,
            alpha=1.0, batch_size=20, n_seeds=2,
        )
        # room for two points of 2 seeds, 120 columns and 600 training rows
        monkeypatch.setattr(harness, "_TUNE_BLOCK_BYTES", 2 * 8 * 2 * (2 * 120 + 3 * 600))
        jobs, run_split = [], harness._run_split

        def spied(run, queued, costs, processes):  # the split run's jobs only
            if processes > 1:
                jobs.extend(queued)
            return run_split(run, queued, costs, processes)

        monkeypatch.setattr(harness, "_run_split", spied)
        self._check(base, {"alpha": [0.1, 0.25, 0.5, 1.0, 2.0]}, cpus)
        # three parts at the whole budget, so a split; then parts within the
        # budget over the process count, one point each, across the processes
        assert jobs == [[0], [1], [2], [3], [4]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_diverging_point(self):
        base = ExperimentConfig(
            method="sg", problem="logistic", dataset=TRAIN, test_dataset=TEST,
            alpha=1.0, batch_size=20, n_seeds=3,
        )
        got = self._check(base, {"alpha": [0.25, 1e308, 1.0], "batch_size": [10, 20]}, 2)
        assert [e.diverged for e in got.entries] == [False, False, True, True, False, False]

    @settings(max_examples=15, deadline=None)
    @given(
        problem=st.sampled_from(["quadratic", "nonconvex_pl"]),
        method=st.sampled_from(["trish", "sg"]),
        alphas=st.lists(st.sampled_from([0.01, 0.1, 0.5, 1e200]), min_size=1, max_size=3,
                        unique=True),
        sigmas=st.lists(st.sampled_from([0.1, 0.5, 2.0]), min_size=2, max_size=3, unique=True),
        seeds=st.integers(1, 3),
        cpus=st.integers(2, 4),
    )
    def test_drawn_synthetic_grid(self, problem, method, alphas, sigmas, seeds, cpus):
        base = synthetic_config(problem=problem, method=method, n_seeds=seeds, dimension=2,
                                max_iterations=30)
        grid = {"alpha": alphas, "sigma": sigmas}
        with np.errstate(over="ignore", invalid="ignore"):  # 1e200 may overflow a mean
            try:
                with _cpus(1):
                    tune_grid(base, grid)
            except harness.GridDivergedError:  # every point diverged: so must the split say
                forks = []
                with _cpus(cpus, forks), pytest.raises(harness.GridDivergedError):
                    tune_grid(base, grid)
                assert forks
            else:
                self._check(base, grid, cpus)
        _assert_no_child_left()

    @pytest.mark.parametrize("processes", [1, 2])
    def test_the_queue_runs_longest_first(self, processes):
        def run(job):  # each process's jobs, in the order it runs them
            taken[os.getpid()] = taken.get(os.getpid(), "") + job
            time.sleep(0.01)
            return job, taken[os.getpid()]

        taken = {}
        results = harness._run_split(run, ["a", "b", "c", "d"], [1, 5, 3, 4], processes)
        assert [job for job, _ in results] == ["a", "b", "c", "d"]
        # each process takes the queue's jobs in its order: b (5), d (4), c (3), a (1)
        for job, order in results:
            assert order == "".join(sorted(order, key="bdca".index))
        if processes == 1:
            assert results[0][1] == "bdca"
        _assert_no_child_left()


# `trish tune` on the config at argv[1], --out argv[2], in a fresh process as
# on two usable CPUs; stderr gets its exit code, its forks and whether a
# child was left unreaped.
_FRESH_TUNE = """
import os, sys
from trish import _workers
from trish.cli import main
forks, fork = [], _workers._fork
_workers._fork = lambda send, cpu: forks.append(1) or fork(send, cpu)
os.sched_getaffinity = lambda pid: {0, 1}
code = main(["tune", "--config", sys.argv[1], "--out", sys.argv[2]])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(code, len(forks), left, file=sys.stderr)
"""


def _grid_for_hygiene():
    base = ExperimentConfig(
        problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=4.0, gamma2=1.6,
        alpha=1.0, batch_size=20, n_seeds=2,
    )
    return base, {"alpha": [0.25, 1.0], "batch_size": [10, 20, 40]}


@needs_fork
class TestTuneSplitHygiene:
    """Every child is reaped and writes nothing; a failed child's jobs run
    here; where a split is not safe, none is made."""

    def _parents_blocks(self, monkeypatch, in_child=None):
        """The number of points of each _run_block call made in this process;
        a child calls in_child, if given, before each of its blocks."""
        calls, run_block, parent = [], harness._run_block, os.getpid()

        def spy(configs, *rest, **options):
            if os.getpid() == parent:
                calls.append(len(configs))
            elif in_child is not None:
                in_child()
            return run_block(configs, *rest, **options)

        monkeypatch.setattr(harness, "_run_block", spy)
        return calls

    def test_a_split_leaves_no_child(self, monkeypatch, capfd):
        base, grid = _grid_for_hygiene()
        with _cpus(1):
            want = tune_grid(base, grid)
        forks = []
        with _cpus(2, forks):
            _assert_same_tune(tune_grid(base, grid), want)
        assert forks == [1]
        _assert_no_child_left()
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("how", ["exit", "signal", "raise", "short"])
    def test_a_failed_childs_jobs_run_here(self, monkeypatch, how, capfd):
        def fail():  # a child, in the job it took from the queue
            if how == "exit":
                os._exit(0)
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("a child's own failure")

        def short_send(send, cpu):  # a child that sends all but its last bytes, then exits 0
            def send_short(pipe):
                sent = io.BytesIO()
                send(sent)
                pipe.write(sent.getvalue()[:-10])

            return fork(send_short, cpu)

        base, grid = _grid_for_hygiene()
        with _cpus(1):
            want = tune_grid(base, grid)
        fork = _workers._fork
        if how == "short":
            monkeypatch.setattr(_workers, "_fork", short_send)
        calls, forks = self._parents_blocks(monkeypatch, None if how == "short" else fail), []
        with _cpus(3, forks):
            _assert_same_tune(tune_grid(base, grid), want)
        # every block here, those a child took again, then the winner
        assert forks == [1, 1] and calls == [2, 2, 2, 1]
        _assert_no_child_left()
        assert capfd.readouterr() == ("", "")

    def test_a_child_that_cannot_be_placed_takes_no_job(self, monkeypatch, capfd):
        def fail(cpu):  # only children call it, before they read the queue
            raise RuntimeError("a child's own failure")

        base, grid = _grid_for_hygiene()
        with _cpus(1):
            want = tune_grid(base, grid)
        monkeypatch.setattr(_workers, "_run_off", fail)
        calls, forks = self._parents_blocks(monkeypatch), []
        with _cpus(2, forks):
            _assert_same_tune(tune_grid(base, grid), want)
        assert forks == [1] and calls == [2, 2, 2, 1]
        _assert_no_child_left()
        assert capfd.readouterr() == ("", "")

    def test_a_failed_fork_leaves_the_jobs_here(self, monkeypatch):
        base, grid = _grid_for_hygiene()
        with _cpus(1):
            want = tune_grid(base, grid)
        fork, forks = os.fork, []

        def second_fails():
            forks.append(len(forks))
            if len(forks) == 2:
                raise BlockingIOError("no process left")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        with _cpus(3):
            _assert_same_tune(tune_grid(base, grid), want)
        assert forks == [0, 1]  # this process and the one child take the queue
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError("boom"), KeyboardInterrupt()])
    def test_an_exception_in_this_share_kills_the_children(self, monkeypatch, error, capfd):
        parent = os.getpid()

        def parents_raise(configs, *rest, **options):
            if os.getpid() == parent:
                raise error
            time.sleep(60)  # a child still marching; only a kill ends it in time

        monkeypatch.setattr(harness, "_run_block", parents_raise)
        forks, start = [], time.perf_counter()
        with _cpus(3, forks), pytest.raises(type(error)) as raised:
            tune_grid(*_grid_for_hygiene())
        assert raised.value is error and forks == [1, 1]
        assert time.perf_counter() - start < 30
        _assert_no_child_left()
        assert capfd.readouterr() == ("", "")

    def _assert_serial(self, forks):
        base, grid = _grid_for_hygiene()
        with _cpus(1):
            want = tune_grid(base, grid)
        _assert_same_tune(tune_grid(base, grid), want)
        assert forks == []

    def test_a_second_thread_keeps_the_tune_serial(self):
        forks, stop = [], threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with _cpus(2, forks):
                self._assert_serial(forks)
        finally:
            stop.set()
            thread.join()
        with _cpus(2, forks):
            tune_grid(*_grid_for_hygiene())
        assert forks == [1]  # the same grid splits once the thread is gone

    def test_a_blas_thread_pool_changes_no_byte(self, tmp_path):
        # OpenBLAS's pool adds an OS thread that threading.active_count()
        # does not see, so the tune still forks with the pool running
        conf = tmp_path / "tune.conf"
        conf.write_text(f"problem = logistic\ndataset = {TRAIN}\ntest_dataset = {TEST}\n"
                        "epochs = 1\nn_seeds = 5\n" + _CRITERION_10_GRIDS["trish"])
        src = str(Path(harness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"best-{threads}.csv"
            done = subprocess.run(
                [sys.executable, "-c", _FRESH_TUNE, str(conf), str(out)],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=60,
            )
            assert done.stderr == "0 1 False\n"  # exit 0, one child, none left
            outputs.append((done.stdout.replace(str(out), "<out>"), out.read_bytes()))
        assert outputs[1] == outputs[0]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
    def test_one_usable_cpu_keeps_the_tune_serial(self, monkeypatch):
        cpus, forks, processes, run_split = os.sched_getaffinity(0), [], [], harness._run_split
        monkeypatch.setattr(_workers, "_fork", lambda *args: forks.append(args))

        def spied(run, jobs, costs, n):
            processes.append(n)
            return run_split(run, jobs, costs, n)

        monkeypatch.setattr(harness, "_run_split", spied)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            self._assert_serial(forks)
        finally:
            os.sched_setaffinity(0, cpus)
        assert processes == [1, 1]  # this process ran _run_split's queue alone, in both tunes


_CHUNKED = ExperimentConfig(
    problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=4.0, gamma2=1.6, alpha=0.5,
    batch_size=7, n_seeds=3, checkpoint_fractions=(0.3, 0.9),  # 86 steps, 78 of them taken
)
_CHUNKED_SYNTHETIC = synthetic_config(
    problem="nonconvex_pl", dimension=3, max_iterations=50, n_seeds=4, sigma=0.5
)


def _chunk_budget(kind: str, seeds: int, width: int, steps: int) -> int:
    """_CHUNK_BYTES giving 1-step chunks, 7-step ones that do not divide the
    run, or one chunk for the whole run."""
    return 8 * seeds * width * {"one_step": 1, "seven_steps": 7, "whole_run": steps}[kind]


def _spy_draws(monkeypatch, problem, gradient=None):
    """Record the chunk that each block_gradient call's indices are a step of."""
    chunks = []
    gradient = gradient or problem.block_gradient

    def spy(indices, W):
        if not chunks or chunks[-1] is not indices.base:
            chunks.append(indices.base)
        return gradient(indices, W)

    monkeypatch.setattr(problem, "block_gradient", spy)
    return chunks


class TestDrawChunks:
    """Each seed draws a chunk of steps per call, stacked step-major: the
    chunk size changes no number, and a chunk stays within _CHUNK_BYTES."""

    @pytest.mark.parametrize("kind", ["one_step", "seven_steps", "whole_run"])
    def test_logistic_records_do_not_depend_on_the_chunk(self, monkeypatch, kind):
        problem = _build_problem(_CHUNKED)
        default = harness._run_block([_CHUNKED], problem)[0].records
        chunks = _spy_draws(monkeypatch, problem)
        monkeypatch.setattr(harness, "_CHUNK_BYTES", _chunk_budget(kind, 3, 7, 78))
        assert harness._run_block([_CHUNKED], problem)[0].records == default
        per_chunk = {"one_step": 1, "seven_steps": 7, "whole_run": 78}[kind]
        # never past the last step taken, 78 of the run's 86
        assert [c.shape for c in chunks] == [(per_chunk, 3, 7)] * (78 // per_chunk) + [
            (78 % per_chunk, 3, 7)
        ] * (78 % per_chunk > 0)

    @pytest.mark.parametrize("kind", ["one_step", "seven_steps", "whole_run"])
    def test_synthetic_records_do_not_depend_on_the_chunk(self, monkeypatch, kind):
        config = _CHUNKED_SYNTHETIC
        problem = _build_problem(config)
        default = harness._run_block([config, dataclasses.replace(config, alpha=0.2)], problem)
        monkeypatch.setattr(harness, "_CHUNK_BYTES", _chunk_budget(kind, 4, 3, 50))
        chunked = harness._run_block([config, dataclasses.replace(config, alpha=0.2)], problem)
        for got, want in zip(chunked, default, strict=True):  # nan test columns
            np.testing.assert_array_equal(_rows(got.records), _rows(want.records))

    @pytest.mark.parametrize("kind", ["one_step", "seven_steps", "whole_run"])
    def test_tune_table_and_out_do_not_depend_on_the_chunk(
        self, monkeypatch, tmp_path, capsys, kind
    ):
        conf = tmp_path / "tune.conf"
        conf.write_text(
            f"method = trish\nproblem = logistic\ndataset = {TRAIN}\ntest_dataset = {TEST}\n"
            "n_seeds = 3\ntune_alpha = 0.25, 1\ntune_gamma1 = 2, 8\ntune_batch_size = 5, 20\n"
        )
        outputs = []
        for budget in (None, _chunk_budget(kind, 3, 5, 120)):
            if budget is not None:
                monkeypatch.setattr(harness, "_CHUNK_BYTES", budget)
            out = tmp_path / f"best-{budget}.csv"
            assert cli_main(["tune", "--config", str(conf), "--out", str(out)]) == 0
            table = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((table, out.read_bytes()))
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("batch_size, per_chunk", [(100, 1), (1, 16)])
    def test_many_seeds_keep_a_chunk_within_the_budget(self, monkeypatch, batch_size, per_chunk):
        # 2000 seeds of a 100-index batch draw 1.6 MB a step, past the
        # 256 KiB budget, so each chunk holds one step; of a 1-index batch,
        # 16 KB a step, so 16 steps.
        config = dataclasses.replace(
            _CHUNKED, n_seeds=2000, batch_size=batch_size, checkpoint_fractions=(0.05,)
        )
        problem = _build_problem(config)
        chunks = _spy_draws(monkeypatch, problem, lambda indices, W: np.zeros_like(W))
        harness._run_block([config], problem, final_only=True)
        steps = math.ceil(0.05 * math.ceil(600 / batch_size))
        assert sum(len(c) for c in chunks) == steps
        assert all(c.shape[1:] == (2000, batch_size) for c in chunks)
        assert max(c.nbytes for c in chunks) == 8 * 2000 * batch_size * per_chunk
        assert max(c.nbytes for c in chunks) <= max(harness._CHUNK_BYTES, 8 * 2000 * batch_size)


@st.composite
def _step_blocks(draw):
    """A safeguard pair, a stepsize, and a block of iterates and samples.

    The samples always end in a zero row, rows whose norm is exactly
    1/gamma1 and exactly 1/gamma2 (one nonzero coordinate, so the norm
    is computed without rounding), and a row above the band.
    """
    gamma2 = draw(st.floats(0.1, 5.0))
    params = TrishParams(gamma2 * draw(st.floats(1.01, 10.0)), gamma2)
    alpha = draw(st.floats(0.01, 2.0))
    dim = draw(st.integers(1, 4))
    random_rows = draw(st.integers(0, 8))
    G = draw(arrays(float, (random_rows, dim), elements=st.floats(-10.0, 10.0)))
    edges = np.zeros((4, dim))
    edges[1, draw(st.integers(0, dim - 1))] = params.lower_threshold
    edges[2, draw(st.integers(0, dim - 1))] = -params.upper_threshold
    edges[3, draw(st.integers(0, dim - 1))] = 2.0 * params.upper_threshold
    G = np.vstack([G, edges])
    X = draw(arrays(float, G.shape, elements=st.floats(-10.0, 10.0)))
    return params, alpha, X, G


class TestTrishStepBatch:
    @settings(max_examples=200, deadline=None)
    @given(_step_blocks())
    def test_matches_scalar_step(self, block):
        params, alpha, X, G = block
        X_next, case1, case3 = _trish_step_batch(X, G, alpha, params.gamma1, params.gamma2)
        cases = 2 - case1 + case3
        assert list(cases[-4:]) == [1, 2, 2, 3]  # the band edges are normalized
        for x, x_next, g, case in zip(X, X_next, G, cases):
            g_norm = float(np.linalg.norm(g))
            assert case == classify_case(g_norm, params)
            length = step_norm(g_norm, alpha, params)
            scale = length / g_norm if g_norm > 0.0 else params.gamma1 * alpha
            # the move is along -g with the length the scalar rule gives
            tol = 1e-12 * (1.0 + np.abs(x).max())
            np.testing.assert_allclose(x - x_next, scale * g, rtol=1e-12, atol=tol)
            assert np.linalg.norm(x - x_next) == pytest.approx(length, rel=1e-9, abs=10 * tol)
        np.testing.assert_array_equal(X_next[-4], X[-4])  # zero sample, no move

    def test_per_row_parameters_match_one_call_per_row(self):
        rng = np.random.default_rng(4)
        X, G = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        G *= (np.array([0.1, 0.5, 0.9, 2.0, 10.0, 0.3]) / np.linalg.norm(G, axis=1))[:, None]
        alpha = rng.uniform(0.1, 1.0, size=6)
        gamma1 = np.array([4.0, 4.0, 2.0, 2.0, 3.0, 8.0])
        gamma2 = np.array([1.0, 1.0, 0.5, 0.4, 2.0, 4.0])
        X_next, case1, case3 = _trish_step_batch(X, G, alpha, gamma1, gamma2)
        assert list(2 - case1 + case3) == [1, 2, 2, 2, 3, 3]
        for r in range(6):
            row = slice(r, r + 1)
            row_next, row_case1, row_case3 = _trish_step_batch(
                X[row], G[row], alpha[r], gamma1[r], gamma2[r]
            )
            np.testing.assert_array_equal(X_next[r], row_next[0])
            assert (case1[r], case3[r]) == (row_case1[0], row_case3[0])


def _three_where_step(X, G, alpha, gamma1, gamma2):
    """The kernel with its coefficient as three nested np.where: the reference
    the in-place kernel must match bit for bit."""
    norms = np.linalg.norm(G, axis=1)
    case1 = norms < 1.0 / gamma1
    case3 = norms > 1.0 / gamma2
    coeff = np.where(
        case1,
        gamma1 * alpha,
        np.where(case3, gamma2 * alpha, alpha / np.where(norms > 0.0, norms, 1.0)),
    )
    return X - coeff[:, None] * G, case1, case3


@st.composite
def _odd_step_blocks(draw):
    """A block whose samples end in a zero row, a row with one nan and one
    finite coordinate, rows with +inf and -inf, and rows at each band edge;
    alpha, gamma1 and gamma2 are scalars or per-row arrays."""
    dim = draw(st.integers(2, 4))
    G = draw(arrays(float, (draw(st.integers(0, 6)), dim), elements=st.floats(-10.0, 10.0)))
    special = np.zeros((6, dim))
    special[1, 0] = math.nan
    special[1, 1] = draw(st.floats(-10.0, 10.0))
    special[2, draw(st.integers(0, dim - 1))] = math.inf
    special[3, draw(st.integers(0, dim - 1))] = -math.inf
    G = np.vstack([G, special])
    rows = len(G)
    per_row = draw(st.booleans())
    size = rows if per_row else None
    gamma2 = draw(arrays(float, size or (), elements=st.floats(0.1, 5.0)))
    gamma1 = gamma2 * draw(arrays(float, size or (), elements=st.floats(1.01, 10.0)))
    alpha = draw(arrays(float, size or (), elements=st.floats(0.01, 2.0)))
    if not per_row:
        alpha, gamma1, gamma2 = float(alpha), float(gamma1), float(gamma2)
    # the last two rows sit exactly on their own row's band edges
    lower = np.broadcast_to(1.0 / gamma1, (rows,))
    upper = np.broadcast_to(1.0 / gamma2, (rows,))
    G[-2, draw(st.integers(0, dim - 1))] = lower[-2]
    G[-1, draw(st.integers(0, dim - 1))] = -upper[-1]
    X = draw(arrays(float, G.shape, elements=st.floats(-10.0, 10.0)))
    return X, G, alpha, gamma1, gamma2


class TestTrishStepBatchBitwise:
    @settings(max_examples=200, deadline=None)
    @given(_odd_step_blocks())
    def test_equals_the_three_where_coefficient(self, block):
        with np.errstate(invalid="ignore", over="ignore"):
            X_next, *masks = _trish_step_batch(*block)
            ref_next, *ref_masks = _three_where_step(*block)
        np.testing.assert_array_equal(X_next, ref_next)  # nan equals nan here
        np.testing.assert_array_equal(masks, ref_masks)
        cases = 2 - masks[0] + masks[1]
        assert list(cases[-6:]) == [1, 2, 3, 3, 2, 2]  # a nan norm steps as the band does
        # the nan row is nan only in its nan coordinate
        assert np.isnan(X_next[-5, 0]) and np.isfinite(X_next[-5, 1:]).all()


def _edge_blocks(shape):
    """Sample blocks of one shape: unit normals; entries scaled by 10**u, u
    uniform on [-330, 160], from subnormal to squares that overflow; rows
    scaled so, each by its own 10**u; and those rows again with 1% of the
    entries set to +inf, -inf, nan or 0 and every fifth row all zero."""
    rng = np.random.default_rng(shape[1])
    G = rng.standard_normal(shape)
    entries = G * 10.0 ** rng.uniform(-330.0, 160.0, shape)
    rows = G * 10.0 ** rng.uniform(-330.0, 160.0, (shape[0], 1))
    special = rows.copy()
    hit = rng.random(shape) < 0.01
    special[hit] = rng.choice([math.inf, -math.inf, math.nan, 0.0], hit.sum())
    special[::5] = 0.0
    return [G, entries, rows, special]


class TestTrishStepBatchEdges:
    @pytest.mark.parametrize("shape", [(2000, 1), (100, 120), (1, 20000)])
    @pytest.mark.parametrize("gammas", [(2.0, 0.8), (1e300, 1e-300)], ids=["band", "wide"])
    def test_norms_are_numpys_norm_bit_for_bit(self, shape, gammas):
        """The kernel's norms are np.linalg.norm(G, axis=1)'s bits: from X = 0
        with alpha = 1 a normalized row lands on -G/||G||, which shows its
        norm, and the wide band normalizes every norm in [1e-300, 1e300]."""
        normalized = 0
        for G in _edge_blocks(shape):
            X = np.zeros(shape)
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                got, case1, case3 = _trish_step_batch(X, G, 1.0, *gammas)
                want, *want_masks = _three_where_step(X, G, 1.0, *gammas)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal([case1, case3], want_masks)
            normalized += (~case1 & ~case3).sum()
        if gammas[0] > 1e299:
            assert normalized >= shape[0]


class TestMarch:
    def test_diverging_row_leaves_the_others_alone(self):
        problem = QuadraticProblem(np.ones(2))
        oracle = GaussianOracle.constant(0.5)
        gammas = (2.0, 0.5)

        def march(poisoned_row):
            rngs = [np.random.default_rng(seed) for seed in range(3)]
            counts = np.zeros((3, 3), dtype=int)
            seen = []

            def fill(c):  # row i's next c steps from its own generator
                return np.stack([r.standard_normal((c, 2)) for r in rngs], axis=1)

            def draw(X, k, alpha_k, block):
                G = oracle.sample(problem.gradient(X), k, block)
                if poisoned_row is not None and k >= 3:
                    G[poisoned_row] = np.inf
                return G

            def observe(done, X):
                seen.append((X.copy(), counts.copy()))

            schedule = StepsizeSchedule.fixed(0.1)
            _march(np.ones((3, 2)), schedule.alpha, fill, 8 * 3 * 2, draw, gammas, observe,
                   range(9), counts)
            return seen

        clean, poisoned = march(None), march(1)
        for done, ((X, counts), (Xp, countsp)) in enumerate(zip(clean, poisoned)):
            np.testing.assert_array_equal(Xp[[0, 2]], X[[0, 2]])
            np.testing.assert_array_equal(countsp[[0, 2]], counts[[0, 2]])
            assert np.isfinite(X).all()
            # the poisoned row goes non-finite at its third step, and stays so
            assert np.isfinite(Xp[1]).all() == (done < 3)
            assert countsp[1].sum() == min(done, 2)

    def test_a_draw_error_mid_chunk_joins_the_helper(self, monkeypatch):
        """The march owns its draw stream: a draw that raises while the
        helper fills the next chunk reaches the caller as itself, and the
        helper is joined before it does."""
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 3 * 16)  # 3-step chunks of 16-byte steps
        fills, before, error = _Fills(), threading.active_count(), _Boom("draw of step 5")

        def draw(X, k, alpha_k, block):
            if k == 5:  # mid-way through chunk 2, while chunk 3 fills
                raise error
            return block

        with pytest.raises(_Boom) as caught:
            _march(np.zeros((1, 2)), lambda k: 0.1, fills, 16, draw, None,
                   lambda done, X: None, range(10))
        assert caught.value is error
        assert fills.sizes == [3, 3, 3]
        assert threading.active_count() == before

    def test_march_stops_at_its_last_observation(self, monkeypatch):
        steps = []

        def counted(X, G, *rest):
            steps.append(len(X))
            return _trish_step_batch(X, G, *rest)

        monkeypatch.setattr(harness, "_trish_step_batch", counted)
        config = synthetic_config(max_iterations=20, checkpoint_fractions=(0.25, 0.5))
        result = run_experiment(config)
        assert [r.iteration for r in result.records[:2]] == [5, 10]
        assert result.iterations == 20  # the configured count, not the steps taken
        assert len(steps) == 10
        steps.clear()
        setup = dataclasses.replace(verification_setup(1, n_seeds=4), horizon=5)
        assert verify_theorem(setup).k.tolist() == [1, 2, 3, 4, 5]
        assert len(steps) == 4  # x_5 is observed before the step that would make x_6


class TestVerifyTheorem:
    def test_theorem1_smoke_no_violations(self):
        setup = verification_setup(1, n_seeds=40)
        report = verify_theorem(dataclasses.replace(setup, horizon=10))
        assert report.ok
        assert report.n_violations == 0
        assert report.k.size == 10
        assert report.weighted_average is None
        # the k = 1 gap is deterministic and equals the bound exactly
        assert report.empirical[0] == pytest.approx(report.bound[0], rel=1e-12)
        assert report.standard_error[0] == pytest.approx(0.0, abs=1e-15)

    def test_deterministic_given_base_seed(self):
        setup = dataclasses.replace(verification_setup(1, n_seeds=20), horizon=5)
        a = verify_theorem(setup, base_seed=3)
        b = verify_theorem(setup, base_seed=3)
        np.testing.assert_array_equal(a.empirical, b.empirical)

    def test_theorem5_reports_weighted_average(self):
        setup = verification_setup(5, n_seeds=20)
        report = verify_theorem(dataclasses.replace(setup, horizon=12))
        assert report.weighted_average is not None
        assert report.weighted_average.size == 12
        # partial sums are nondecreasing in k
        assert np.all(np.diff(report.empirical) >= -1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_trajectories_are_violations(self):
        setup = dataclasses.replace(
            verification_setup(1, n_seeds=20),
            schedule=StepsizeSchedule.fixed(1e300),
            horizon=10,
        )
        report = verify_theorem(setup)
        assert not report.ok
        assert report.violated[1:].all()

    def test_validation(self):
        setup = verification_setup(1, n_seeds=10)
        with pytest.raises(ValueError, match="horizon"):
            verify_theorem(dataclasses.replace(setup, horizon=0))
        with pytest.raises(ValueError, match="two trajectories"):
            verify_theorem(dataclasses.replace(setup, n_seeds=1, horizon=5))


class _PoisonedOracle:
    """A verify setup's oracle whose draw at iteration k turns one row nan."""

    def __init__(self, oracle, k):
        self.oracle, self.k = oracle, k

    def sample(self, grad, k, noise, alpha_k=None):
        G = self.oracle.sample(grad, k, noise, alpha_k)
        if k == self.k:
            G[1] = math.nan
        return G


def _report_arrays(report):
    return [report.empirical, report.standard_error, report.violated, report.weighted_average]


class TestVerifyChunks:
    """Mean and SE reduced once per chunk of K steps equal a reduction per step."""

    @pytest.mark.parametrize("theorem_id", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_seeds", [2, 3, 17])
    def test_chunk_size_does_not_change_the_report(self, monkeypatch, theorem_id, n_seeds):
        for horizon in (1, 7, 130):
            setup = dataclasses.replace(
                verification_setup(theorem_id, n_seeds=n_seeds), horizon=horizon
            )
            default = _report_arrays(verify_theorem(setup, base_seed=5))
            for chunk in (1, 3):
                monkeypatch.setattr(harness, "_CHUNK_BYTES", 8 * n_seeds * chunk)
                chunked = _report_arrays(verify_theorem(setup, base_seed=5))
                monkeypatch.undo()
                for got, want in zip(chunked, default):
                    if want is None:
                        assert got is None
                    else:
                        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("theorem_id", [1, 4, 5])
    def test_a_row_gone_nan_mid_chunk_is_flagged_from_its_first_k(
        self, monkeypatch, theorem_id
    ):
        setup = dataclasses.replace(verification_setup(theorem_id, n_seeds=17), horizon=10)
        # the draw at k = 4 makes x_5 nan in row 1; with K = 3, k = 5 is mid-chunk
        setup = dataclasses.replace(setup, oracle=_PoisonedOracle(setup.oracle, 4))
        reports = [verify_theorem(setup)]
        for chunk in (1, 3):
            monkeypatch.setattr(harness, "_CHUNK_BYTES", 8 * 17 * chunk)
            reports.append(verify_theorem(setup))
        for report in reports:
            assert report.violated.tolist() == [False] * 4 + [True] * 6
            np.testing.assert_array_equal(report.empirical, reports[0].empirical)
            assert np.isfinite(report.empirical[:4]).all()
            assert np.isnan(report.empirical[4:]).all()


class _Fills:
    """A fill of two consecutive integers per step that records each call's
    size and thread, fails if two calls overlap, and raises `error` at its
    call number fail_at."""

    def __init__(self, fail_at=None):
        self.sizes, self.threads, self.drawn, self.fail_at = [], [], 0, fail_at
        self.error = RuntimeError("fill failed")
        self.running = threading.Lock()

    def __call__(self, c):
        assert self.running.acquire(blocking=False), "two fills overlap"
        try:
            self.sizes.append(c)
            self.threads.append(threading.current_thread())
            if len(self.sizes) == self.fail_at:
                raise self.error
            time.sleep(0.002)  # long enough for a second fill to overlap, if one could
            block = np.arange(self.drawn, self.drawn + 2 * c).reshape(c, 2)
            self.drawn += 2 * c
            return block
        finally:
            self.running.release()


class _Boom(Exception):
    pass


class _GradientFailsAt:
    """A problem whose gradient raises _Boom at its call number `call`."""

    def __init__(self, problem, call):
        self.problem, self.call, self.calls = problem, call, 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def gradient(self, X):
        self.calls += 1
        if self.calls == self.call:
            raise _Boom(f"gradient call {self.call}")
        return self.problem.gradient(X)


class TestPrefetched:
    """Draw blocks a chunk at a time, the next chunk filled on a helper thread:
    the same blocks as serial fills, one fill at a time, and no thread left
    behind however the caller stops."""

    @pytest.fixture(autouse=True)
    def three_step_chunks(self, monkeypatch):
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 3 * 16)  # steps of 16 bytes

    def test_blocks_come_in_order_and_later_chunks_on_a_helper(self):
        fills, before = _Fills(), threading.active_count()
        blocks = list(_prefetched(fills, 10, 16))
        np.testing.assert_array_equal(blocks, np.arange(20).reshape(10, 2))
        assert fills.sizes == [3, 3, 3, 1]
        assert fills.threads[0] is threading.current_thread()
        assert threading.current_thread() not in fills.threads[1:]
        assert threading.active_count() == before

    def test_one_chunk_starts_no_thread(self):
        fills, before = _Fills(), threading.active_count()
        for _ in _prefetched(fills, 3, 16):
            assert threading.active_count() == before
        assert fills.sizes == [3]
        assert fills.threads == [threading.current_thread()]

    @pytest.mark.parametrize("fail_at", [1, 2, 4])  # the caller's own fill, then the helper's
    def test_a_fill_error_reaches_the_caller_as_itself(self, fail_at):
        fills, before, taken = _Fills(fail_at), threading.active_count(), []
        with pytest.raises(RuntimeError) as caught:
            for block in _prefetched(fills, 10, 16):
                taken.append(block)
        assert caught.value is fills.error
        assert len(taken) == 3 * (fail_at - 1)
        assert threading.active_count() == before

    def test_closing_mid_chunk_joins_the_helper(self):
        fills, before = _Fills(), threading.active_count()
        blocks = _prefetched(fills, 10, 16)
        next(blocks), next(blocks)  # chunk 2 is filling
        blocks.close()
        assert threading.active_count() == before
        assert fills.sizes == [3, 3]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
    def test_the_helper_runs_off_the_callers_cpu(self):
        """The helper may use every CPU of the process but the one the caller
        ran on when it started; the caller's own CPUs do not change."""
        process = os.sched_getaffinity(0)

        def fill(c):
            masks.append(os.sched_getaffinity(0))  # the calling thread's own mask
            return np.zeros((c, 2))

        masks = []
        assert len(list(_prefetched(fill, 10, 16))) == 10
        assert masks[0] == process
        assert all(len(mask) == max(1, len(process) - 1) for mask in masks[1:])
        assert os.sched_getaffinity(0) == process
        assert _this_cpu() in process

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
    @pytest.mark.parametrize("cpus", ["all", "one"])
    def test_run_off_leaves_a_thread_on_one_cpu_where_it_is(self, cpus):
        process, masks = os.sched_getaffinity(0), []

        def moved():
            start = process if cpus == "all" else {min(process)}
            os.sched_setaffinity(0, start)
            _run_off(min(process))
            masks.append(os.sched_getaffinity(0))

        thread = threading.Thread(target=moved)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        if cpus == "one" or len(process) == 1:
            assert masks == [{min(process)}]
        else:
            assert masks == [process - {min(process)}]

    @pytest.mark.parametrize("fail_at", [None, 6])
    def test_verify_leaves_no_thread(self, monkeypatch, fail_at):
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 8 * 17 * 3)
        setup = dataclasses.replace(verification_setup(5, n_seeds=17), horizon=40)
        if fail_at is not None:  # k = 6, before the draw of step 6, while steps 7 to 9 fill
            setup = dataclasses.replace(setup, problem=_GradientFailsAt(setup.problem, fail_at))
        before = threading.active_count()
        if fail_at is None:
            assert verify_theorem(setup).ok
        else:
            with pytest.raises(_Boom):
                verify_theorem(setup)
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail_at", [None, 6])
    def test_run_leaves_no_thread(self, monkeypatch, fail_at):
        config = _CHUNKED_SYNTHETIC
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 8 * 4 * 3 * 3)
        if fail_at is not None:  # the draw of step 6, while steps 7 to 9 fill
            monkeypatch.setitem(harness._SYNTHETIC, "nonconvex_pl",
                                lambda dim: _GradientFailsAt(NonconvexPLProblem(dim), fail_at))
        before = threading.active_count()
        if fail_at is None:
            assert len(run_experiment(config).records) == 4 * 2  # seeds x checkpoints
        else:
            with pytest.raises(_Boom):
                run_experiment(config)
        assert threading.active_count() == before


class TestVerificationSetup:
    @pytest.mark.parametrize(
        "theorem_id, horizon, kind",
        [(1, 200, "fixed"), (2, 500, "harmonic"), (3, 100, "fixed"),
         (4, 200, "fixed"), (5, 5000, "harmonic")],
    )
    def test_frozen_configurations(self, theorem_id, horizon, kind):
        setup = verification_setup(theorem_id, n_seeds=10)
        assert setup.tc.theorem_id == theorem_id
        assert setup.horizon == horizon
        assert setup.schedule.kind == kind
        assert setup.n_seeds == 10
        with pytest.raises(dataclasses.FrozenInstanceError):
            setup.horizon = 1

    @pytest.mark.parametrize("theorem_id", [1, 2, 3, 4, 5])
    def test_the_oracle_is_the_rows_own(self, theorem_id):
        setup = verification_setup(theorem_id, n_seeds=10)
        assert setup.oracle is harness._GUARANTEES[theorem_id].noise

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            verification_setup(9)

    def test_bad_override_rejected_by_hypotheses(self):
        with pytest.raises(HypothesisError):
            verification_setup(1, gamma1=2.0, gamma2=0.01)
        with pytest.raises(HypothesisError):
            verification_setup(1, alpha=0.6)

    def test_overrides_replace_the_row(self):
        setup = verification_setup(3, gamma1=2.5, gamma2=2.4, alpha=0.3)
        assert setup.params == TrishParams(2.5, 2.4)
        assert setup.schedule == StepsizeSchedule.fixed(0.3)


def _record(seed, fraction, iteration, loss):
    return RunRecord(
        seed=seed,
        checkpoint_fraction=fraction,
        iteration=iteration,
        train_loss=loss,
        train_acc=0.75,
        test_loss=float("nan"),
        test_acc=float("nan"),
        case1=3,
        case2=2,
        case3=1,
    )


def _rows(records):
    return [dataclasses.astuple(r) for r in records]


class TestEmitCsv:
    def test_header_and_sorting(self, tmp_path):
        path = tmp_path / "run.csv"
        records = [
            _record(1, 1.0, 10, 0.25),
            _record(0, 1.0, 10, 0.5),
            _record(0, 0.5, 5, 0.75),
        ]
        emit_csv(records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == RUN_CSV_HEADER == (
            "seed,checkpoint_fraction,iteration,train_loss,train_acc,"
            "test_loss,test_acc,case1,case2,case3"
        )
        assert len(lines) == 4
        seeds = [int(line.split(",")[0]) for line in lines[1:]]
        iters = [int(line.split(",")[2]) for line in lines[1:]]
        assert seeds == [0, 0, 1]
        assert iters == [5, 10, 10]

    def test_reemit_is_byte_identical(self, tmp_path):
        records = [_record(0, 1.0, 10, 1.0 / 3.0), _record(1, 1.0, 10, 2.0 / 3.0)]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_csv(records, str(first))
        emit_csv(list(reversed(records)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "run.csv"
        emit_csv([_record(0, 1.0, 10, 0.123456789123456)], str(path))
        row = path.read_text().splitlines()[1].split(",")
        assert row[3] == "0.123456789"
        assert row[5] == "nan"

    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == RUN_CSV_HEADER + "\n"


class TestEmitVerifyCsv:
    def test_golden_small_report(self, tmp_path):
        report = TheoremReport(
            theorem_id=1,
            k=np.array([1, 2]),
            empirical=np.array([0.5, 0.25]),
            standard_error=np.array([0.0, 0.01]),
            bound=np.array([0.5, 0.4]),
            violated=np.array([False, False]),
        )
        path = tmp_path / "verify.csv"
        emit_verify_csv(report, str(path))
        assert path.read_text() == (
            VERIFY_CSV_HEADER + "\n"
            "1,0.5,0,0.5,0\n"
            "2,0.25,0.01,0.4,0\n"
        )
