"""End-to-end tests for the command line: exit codes, output, config files."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trish.cli as cli
import trish.harness
import trish.problems
from trish.cli import (
    EXIT_DATA,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
    parse_config_file,
)
from trish.harness import RUN_CSV_HEADER, VERIFY_CSV_HEADER, ExperimentConfig, TheoremReport

README = Path(__file__).resolve().parents[1] / "README.md"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
DATA_DIR = SRC_DIR / "trish" / "data"
TRAIN = str(DATA_DIR / "train.libsvm")
TEST = str(DATA_DIR / "test.libsvm")

SYNTHETIC_CONFIG = """\
# tiny quadratic run, kept fast on purpose
method = trish
problem = quadratic
gamma1 = 2.0
gamma2 = 0.5
alpha = 0.1
sigma = 0.1
max_iterations = 8
n_seeds = 2
checkpoint_fractions = 0.5, 1.0
"""


@pytest.fixture
def synthetic_config(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(SYNTHETIC_CONFIG)
    return str(path)


class TestParseConfigFile:
    def test_typed_values(self, tmp_path):
        path = tmp_path / "ok.conf"
        path.write_text(
            "# heading comment\n"
            "\n"
            "method = sg\n"
            "alpha = 0.5\n"
            "batch_size = 16\n"
            "dataset = some/train.libsvm\n"
            "checkpoint_fractions = 0.5, 1.0\n"
            "tune_alpha = 0.1, 0.2\n"
            "tune_batch_size = 5, 10\n"
        )
        values = parse_config_file(str(path))
        assert values == {
            "method": "sg",
            "alpha": 0.5,
            "batch_size": 16,
            "dataset": "some/train.libsvm",
            "checkpoint_fractions": (0.5, 1.0),
            "tune_alpha": [0.1, 0.2],
            "tune_batch_size": [5, 10],
        }

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("alpha = abc", "cannot parse"),
            ("foo = 1", "unknown key"),
            ("tune_method = sg", "not a tunable field"),
            ("alpha 0.5", "expected 'key = value'"),
            ("alpha =", "expected 'key = value'"),
        ],
    )
    def test_rejections(self, tmp_path, line, fragment):
        path = tmp_path / "bad.conf"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=fragment):
            parse_config_file(str(path))

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.conf"
        path.write_text("alpha = 0.5\nalpha = 0.6\n")
        with pytest.raises(ValueError, match="duplicate key"):
            parse_config_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config file"):
            parse_config_file(str(tmp_path / "absent.conf"))

    def test_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("alpha = 0.5\nfoo = 1\n")
        with pytest.raises(ValueError, match=rf"{path}:2"):
            parse_config_file(str(path))


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["run", "--bogus"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["verify"]) == EXIT_USAGE
        capsys.readouterr()

    def test_config_file_problems_are_usage_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("frobnicate = 1\n")
        assert main(["run", "--config", str(bad)]) == EXIT_USAGE
        assert "unknown key" in capsys.readouterr().err

    def test_run_rejects_tune_keys(self, tmp_path, capsys):
        conf = tmp_path / "t.conf"
        conf.write_text(SYNTHETIC_CONFIG + "tune_alpha = 0.1, 0.2\n")
        assert main(["run", "--config", str(conf)]) == EXIT_USAGE
        assert "tune command" in capsys.readouterr().err

    def test_missing_dataset_is_a_data_error(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--dataset", str(tmp_path / "absent.libsvm"),
                "--gamma1", "2.0", "--gamma2", "0.8", "--alpha", "0.5",
            ]
        )
        assert rc == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, alpha", [("run", "-1"), ("run", "nan"), ("tune", "-1")]
    )
    def test_bad_stepsize_is_refused_before_the_dataset_loads(
        self, command, alpha, tmp_path, capsys, monkeypatch
    ):
        loads = []
        load = trish.harness.load_libsvm

        def counting_load(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(trish.harness, "load_libsvm", counting_load)
        if command == "run":
            argv = ["run", "--dataset", TRAIN, "--method", "sg", "--alpha", alpha]
        else:
            conf = tmp_path / "tune.conf"
            conf.write_text(
                f"method = sg\nproblem = logistic\ndataset = {TRAIN}\ntune_alpha = 0.5, {alpha}\n"
            )
            argv = ["tune", "--config", str(conf)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"trish: error: fixed stepsize must be positive, got {float(alpha)}\n"
        assert loads == []

    @pytest.mark.parametrize("command", ["run", "tune", "verify"])
    def test_unwritable_out_is_a_usage_error(
        self, command, synthetic_config, tmp_path, capsys, monkeypatch
    ):
        calls = []
        for name in ("run_experiment", "tune_grid", "verify_theorem"):
            def counted(*args, _command=getattr(cli, name), **kwargs):
                calls.append(_command)
                return _command(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        out = str(tmp_path / "absent" / "out.csv")
        tune_config = tmp_path / "tune.conf"
        tune_config.write_text(SYNTHETIC_CONFIG + "tune_alpha = 0.1, 0.2\n")
        argv = {
            "run": ["run", "--config", synthetic_config],
            "tune": ["tune", "--config", str(tune_config)],
            "verify": ["verify", "--theorem", "1", "--seeds", "10"],
        }[command]
        assert main(argv + ["--out", out]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"trish: error: cannot write {out}: No such file or directory\n"
        assert captured.out == ""
        assert calls == []  # refused before anything runs
        # A dataset that cannot be read is still a data error.
        missing = ["run", "--dataset", str(tmp_path / "absent.libsvm"), "--method", "sg",
                   "--alpha", "0.5", "--out", str(tmp_path / "out.csv")]
        assert main(missing) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["run", "tune", "verify"])
    def test_empty_out_is_refused(self, command, synthetic_config, tmp_path, capsys):
        # An unset shell variable gives --out ''; it must not mean "no --out".
        tune_config = tmp_path / "tune.conf"
        tune_config.write_text(SYNTHETIC_CONFIG + "tune_alpha = 0.1, 0.2\n")
        argv = {
            "run": ["run", "--config", synthetic_config],
            "tune": ["tune", "--config", str(tune_config)],
            "verify": ["verify", "--theorem", "1", "--seeds", "10"],
        }[command]
        assert main(argv + ["--out", ""]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "trish: error: cannot write : No such file or directory\n"
        assert captured.out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_out_that_fails_on_write_is_a_usage_error(self, command, synthetic_config, capsys):
        # /dev/full passes the check before the work, then refuses every write
        argv = {
            "run": ["run", "--config", synthetic_config],
            "verify": ["verify", "--theorem", "1", "--seeds", "10"],
        }[command]
        assert main(argv + ["--out", "/dev/full"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "trish: error: cannot write /dev/full: No space left on device\n"
        assert "wrote" not in captured.out

    def test_out_that_is_a_directory_or_under_a_file_is_refused(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        for out, reason in [(tmp_path, "Is a directory"), (blocker / "out.csv", "Not a directory")]:
            argv = ["verify", "--theorem", "1", "--seeds", "10", "--out", str(out)]
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err == f"trish: error: cannot write {out}: {reason}\n"
            assert captured.out == ""
        # The check opens nothing: a writable path that a failing command names stays as it was.
        argv = ["verify", "--theorem", "2", "--alpha", "5", "--out", str(blocker)]
        assert main(argv) == EXIT_USAGE
        capsys.readouterr()
        assert blocker.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    def test_malformed_dataset_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 1:1.0\n1 0:5\n")
        rc = main(
            [
                "run", "--dataset", str(bad),
                "--gamma1", "2.0", "--gamma2", "0.8", "--alpha", "0.5",
            ]
        )
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:2:3:" in err
        assert "index 0 below 1" in err

    def test_index_above_int64_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_text("1 99999999999999999999:1\n")
        assert main(["stats", "--dataset", str(bad)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"trish: parse error: {bad}:1:3: index above 9223372036854775807\n"

    @pytest.mark.parametrize(
        "raw, line, column, byte",
        [
            (b"1 1:1.0\n\xff 2:1.0\n", 2, 1, 0xFF),
            (b"# caf\xc3\xa9 \xfe\r\n1 1:1\n", 1, 8, 0xFE),
            (b"1 1:1\r1 2:\x80\n", 2, 5, 0x80),
        ],
        ids=["line-start", "after-multibyte-char", "cr-newlines"],
    )
    def test_non_utf8_dataset_reports_position(self, tmp_path, capsys, raw, line, column, byte):
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(raw)
        assert main(["stats", "--dataset", str(bad)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"trish: parse error: {bad}:{line}:{column}: byte 0x{byte:02x} is not UTF-8\n"

    def test_first_error_in_file_order_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(b"1 2:x\n1 2:\xff\n")
        assert main(["stats", "--dataset", str(bad)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"trish: parse error: {bad}:1:5: malformed value 'x'\n"

    def test_non_utf8_training_set_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.libsvm"
        bad.write_bytes(b"1 1:1.0\n-1 2:\xff\n")
        rc = main(["run", "--dataset", str(bad), "--method", "sg", "--alpha", "0.5"])
        assert rc == EXIT_DATA
        assert f"{bad}:2:6: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_hypothesis_rejection(self, capsys):
        rc = main(["verify", "--theorem", "1", "--gamma2", "0.01", "--seeds", "5"])
        assert rc == EXIT_HYPOTHESIS
        err = capsys.readouterr().err
        assert "hypothesis rejected" in err
        assert "gamma1/gamma2" in err

    def test_too_few_seeds_is_usage(self, capsys):
        assert main(["verify", "--theorem", "1", "--seeds", "1"]) == EXIT_USAGE
        assert "two trajectories" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["verify", "--theorem", "1"],
            ["run", "--dataset", TRAIN, "--method", "sg", "--alpha", "0.5"],
            ["tune", "--config", "CONFIG"],
        ],
        ids=["verify", "run", "tune"],
    )
    def test_seed_count_too_large_for_memory(self, command, synthetic_config, capsys):
        command = [synthetic_config if arg == "CONFIG" else arg for arg in command]
        if command[0] == "tune":
            with open(synthetic_config, "a") as handle:
                handle.write("tune_alpha = 0.1, 0.2\n")
        assert main(command + ["--seeds", "100000000000"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("trish: error: 100000000000 trajectories (--seeds) of ")
        assert err.endswith("pass the 1 GiB limit on iterates\n") and err.count("\n") == 1
        assert "grid point" not in err

    @pytest.mark.parametrize("problem", ["quadratic", "nonconvex_pl"])
    def test_synthetic_dimension_too_large_for_memory(self, problem, tmp_path, capsys):
        # Refused before the quadratic's 745 GiB diagonal is allocated.
        conf = tmp_path / "wide.conf"
        conf.write_text(
            SYNTHETIC_CONFIG.replace("quadratic", problem) + "dimension = 100000000000\n"
        )
        assert main(["run", "--config", str(conf), "--seeds", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("trish: error: 1 trajectories (--seeds) of ")
        assert err.endswith("pass the 1 GiB limit on iterates\n") and err.count("\n") == 1
        assert "(the dimension field)" in err and "dataset" not in err

    @pytest.mark.parametrize("source", ["--epochs", "max_iterations"])
    def test_iteration_count_past_int64_is_refused(self, source, tmp_path, capsys):
        # A 400-digit count used to overflow a float when the checkpoints were placed.
        count = "1" + "0" * 400
        if source == "--epochs":
            argv = ["run", "--dataset", TRAIN, "--method", "sg", "--alpha", "0.1",
                    "--epochs", count]
        else:
            conf = tmp_path / "long.conf"
            conf.write_text(SYNTHETIC_CONFIG.replace("= 8\n", f"= {count}\n"))
            argv = ["run", "--config", str(conf)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("trish: error: ") and err.count("\n") == 1
        assert err.endswith(f" iterations ({source}) pass the limit of 2**63 - 1 iterations\n")

    @pytest.mark.parametrize("command", ["run", "tune"])
    def test_batch_too_large_for_memory(self, command, tmp_path, capsys):
        # At 1e11 one step's draw would need 745 GiB of indices alone.
        if command == "run":
            argv = ["run", "--dataset", TRAIN, "--method", "sg", "--alpha", "0.1",
                    "--seeds", "1", "--batch", "100000000000"]
        else:
            conf = tmp_path / "tune.conf"
            conf.write_text(
                f"method = sg\nalpha = 0.1\ndataset = {TRAIN}\nn_seeds = 1\n"
                "tune_batch_size = 10, 100000000000\n"
            )
            argv = ["tune", "--config", str(conf)]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_USAGE
        assert peak < 64 << 20
        err = capsys.readouterr().err
        assert err == (
            "trish: error: 100000000000-example mini-batches (--batch) for 1 seeds (--seeds) "
            "pass the 1 GiB limit on one step's draw\n"
        )

    def test_seeds_too_many_for_one_steps_gather(self, capsys):
        # Each seed's gather holds ~5.2 float64 per drawn index and entry:
        # these 70 000 seeds used to pass every limit and peak at 3.4 GiB.
        argv = ["run", "--dataset", TRAIN, "--method", "sg", "--alpha", "0.1",
                "--batch", "100", "--seeds", "70000"]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_USAGE
        assert peak < 64 << 20
        assert capsys.readouterr().err == (
            "trish: error: 100-example mini-batches (--batch) for 70000 seeds (--seeds) "
            "pass the 1 GiB limit on one step's draw\n"
        )

    def test_seeds_too_many_for_checkpoint_metrics(self, capsys, monkeypatch):
        # ~3.2 float64 per seed per example of train (600) and test (400)
        monkeypatch.setattr(trish.harness, "_MAX_BLOCK_BYTES", 8 << 20)
        argv = ["run", "--dataset", TRAIN, "--test-dataset", TEST, "--method", "sg",
                "--alpha", "0.1", "--batch", "1", "--seeds", "2000"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("trish: error: 2000 seeds (--seeds) over 1000 examples pass ")
        assert err.endswith(" limit on checkpoint metrics\n") and err.count("\n") == 1

    def test_tune_refuses_an_oversized_block_before_any_block_marches(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        block_gradient = trish.problems.LogisticProblem.block_gradient

        def counting(self, *args):
            calls.append(1)
            return block_gradient(self, *args)

        monkeypatch.setattr(trish.problems.LogisticProblem, "block_gradient", counting)
        conf = tmp_path / "tune.conf"
        conf.write_text(
            f"method = sg\nalpha = 0.1\ndataset = {TRAIN}\nn_seeds = 1\n"
            "tune_batch_size = 10, 100000000000\n"
        )
        assert main(["tune", "--config", str(conf)]) == EXIT_USAGE
        assert "limit on one step's draw" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "tune", "verify"])
    def test_negative_seed_names_the_field(self, command, synthetic_config, capsys):
        if command == "tune":
            with open(synthetic_config, "a") as handle:
                handle.write("base_seed = -1\ntune_alpha = 0.1, 0.2\n")
            argv = ["tune", "--config", synthetic_config]
        elif command == "run":
            argv = ["run", "--config", synthetic_config, "--seed", "-1"]
        else:
            argv = ["verify", "--theorem", "1", "--seeds", "4", "--seed", "-1"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "trish: error: base_seed must be at least 0, got -1\n"

    @pytest.mark.parametrize("index", [100000000000, 2**62])
    def test_dataset_too_wide_for_memory(self, index, tmp_path, capsys):
        wide = tmp_path / "wide.libsvm"
        wide.write_text(f"1 1:1.0 {index}:2.0\n-1 2:0.5\n")
        rc = main(["run", "--dataset", str(wide), "--method", "sg", "--alpha", "0.5"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"of dimension {index} (the dataset width) pass the 1 GiB limit" in err
        assert err.startswith("trish: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "theorem, code, fragment, gamma1, gamma2",
        [
            # gamma1**2 is not a float here, but every guarantee constant is
            pytest.param("1", EXIT_OK, "violations=0", "1e300", "1e299", id="1-0-violations=0"),
            pytest.param("2", EXIT_HYPOTHESIS, "a = 40 outside", "1e300", "1e299",
                         id="2-3-a = 40 outside"),
            pytest.param("3", EXIT_HYPOTHESIS, "alpha = 0.45 outside", "1e300", "1e299",
                         id="3-3-alpha = 0.45 outside"),
            pytest.param("4", EXIT_OK, "violations=0", "1e300", "1e299", id="4-0-violations=0"),
            pytest.param("5", EXIT_HYPOTHESIS, "alpha_1 = 0.0625 exceeds", "1e300", "1e299",
                         id="5-3-alpha_1 = 0.0625 exceeds"),
            # gamma1 L M2 is inf for theorems 4 and 5 (L = 8), so their cap is 0
            *(
                pytest.param(*case, *gammas)
                for gammas in [("1e308", "1e307"), ("1.7e308", "1e308")]
                for case in [
                    ("1", EXIT_OK, "violations=0"),
                    ("2", EXIT_HYPOTHESIS, "a = 40 outside"),
                    ("3", EXIT_HYPOTHESIS, "alpha = 0.45 outside"),
                    ("4", EXIT_HYPOTHESIS, "stepsize cap 1/(gamma1 L M2) rounds to 0"),
                    ("5", EXIT_HYPOTHESIS, "alpha_1 = 0.0625 exceeds 0"),
                ]
            ),
            # the cap 1/(gamma1 L M2) is ~1e199 here, and its square is inf
            *(
                pytest.param(theorem, EXIT_HYPOTHESIS, "theta2 = inf", "1e-200", "1e-201")
                for theorem in "14"
            ),
        ],
    )
    def test_huge_gammas_do_not_overflow(self, theorem, code, fragment, gamma1, gamma2, capsys):
        argv = ["verify", "--theorem", theorem, "--gamma1", gamma1, "--gamma2", gamma2]
        assert main(argv + ["--seeds", "40"]) == code
        captured = capsys.readouterr()
        assert fragment in captured.out + captured.err

    def test_violations_exit_code(self, monkeypatch, capsys, tmp_path):
        report = TheoremReport(
            theorem_id=1,
            k=np.array([1, 2]),
            empirical=np.array([0.5, 0.9]),
            standard_error=np.array([0.0, 0.01]),
            bound=np.array([0.5, 0.4]),
            violated=np.array([False, True]),
        )
        monkeypatch.setattr(cli, "verify_theorem", lambda *a, **kw: report)
        out_path = tmp_path / "verify.csv"
        rc = main(["verify", "--theorem", "1", "--seeds", "5", "--out", str(out_path)])
        assert rc == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "violations=1" in out
        assert "first violation at k=2" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == VERIFY_CSV_HEADER
        assert lines[2].endswith(",1")


class TestRunCommand:
    def test_synthetic_run_output(self, synthetic_config, tmp_path, capsys):
        out_path = tmp_path / "records.csv"
        rc = main(["run", "--config", synthetic_config, "--out", str(out_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        assert first.startswith("config ")
        assert "problem=quadratic method=trish iterations=8 seeds=2" in first
        assert "seed 0: iter=8" in out
        assert "seed 1: iter=8" in out
        assert "final mean:" in out
        assert f"wrote {out_path}" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == RUN_CSV_HEADER
        assert len(lines) == 1 + 2 * 2  # two seeds, two checkpoints

    def test_out_files_are_byte_identical(self, synthetic_config, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["run", "--config", synthetic_config, "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_flags_override_config(self, synthetic_config, capsys):
        rc = main(["run", "--config", synthetic_config, "--seeds", "1", "--method", "sg"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "method=sg" in out
        assert "seed 1:" not in out

    def test_flags_alone_suffice(self, capsys):
        rc = main(
            [
                "run", "--dataset", TRAIN, "--method", "sg", "--alpha", "0.5",
                "--batch", "50", "--seeds", "1",
            ]
        )
        assert rc == EXIT_OK
        assert "problem=logistic" in capsys.readouterr().out


    def test_training_set_without_nonzero_value(self, tmp_path, capsys):
        labels_only = tmp_path / "labels.libsvm"
        labels_only.write_text("1\n-1 3:0.0\n")
        rc = main(["run", "--dataset", str(labels_only), "--method", "sg", "--alpha", "0.5"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "trish: error: the training set has no nonzero feature value\n"

    def test_training_set_of_only_a_comment_is_refused(self, tmp_path, capsys):
        comment = tmp_path / "comment.libsvm"
        comment.write_text("# a comment holds no example\n")
        rc = main(["run", "--dataset", str(comment), "--method", "sg", "--alpha", "0.1"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"trish: error: dataset {comment} holds no examples\n"

    def test_empty_test_set_is_refused(self, tmp_path, capsys):
        empty = tmp_path / "empty.libsvm"
        empty.write_text("# a comment and a blank line hold no example\n\n")
        rc = main(
            ["run", "--dataset", TRAIN, "--test-dataset", str(empty), "--method", "sg",
             "--alpha", "0.1"]
        )
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"trish: error: dataset {empty} holds no examples\n"

    def test_datasets_are_hashed_by_run_only(self, tmp_path, capsys, monkeypatch):
        hashed = []
        sha256 = trish.harness._file_sha256

        def counting_sha256(path):
            hashed.append(path)
            return sha256(path)

        monkeypatch.setattr(trish.harness, "_file_sha256", counting_sha256)
        conf = tmp_path / "tune.conf"
        conf.write_text(
            "method = sg\n"
            "problem = logistic\n"
            f"dataset = {TRAIN}\n"
            f"test_dataset = {TEST}\n"
            "n_seeds = 1\n"
            "tune_alpha = 0.5, 1.0\n"
            "tune_batch_size = 100, 200\n"
        )
        assert main(["tune", "--config", str(conf)]) == EXIT_OK
        assert hashed == []
        rc = main(
            [
                "run", "--dataset", TRAIN, "--test-dataset", TEST, "--method", "sg",
                "--alpha", "0.5", "--batch", "100", "--seeds", "1",
            ]
        )
        assert rc == EXIT_OK
        assert sorted(hashed) == sorted([TRAIN, TEST])
        capsys.readouterr()


class TestTuneCommand:
    def test_grid_and_best_line(self, tmp_path, capsys):
        conf = tmp_path / "tune.conf"
        conf.write_text(
            "method = trish\n"
            "problem = quadratic\n"
            "sigma = 0.1\n"
            "max_iterations = 5\n"
            "n_seeds = 1\n"
            "checkpoint_fractions = 1.0\n"
            "gamma1 = 2.0\n"
            "gamma2 = 0.5\n"
            "tune_alpha = 0.05, 0.1\n"
        )
        out_path = tmp_path / "best.csv"
        rc = main(["tune", "--config", str(conf), "--out", str(out_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        entry_lines = [l for l in lines if l.startswith("alpha=")]
        assert len(entry_lines) == 2
        assert all("train_loss=" in l for l in entry_lines)
        best = [l for l in lines if l.startswith("best: ")]
        assert len(best) == 1
        assert out_path.read_text().startswith(RUN_CSV_HEADER)

    def test_gamma_pairing_rule(self, tmp_path, capsys):
        conf = tmp_path / "tune.conf"
        conf.write_text(
            "method = trish\n"
            "problem = quadratic\n"
            "sigma = 0.1\n"
            "max_iterations = 5\n"
            "n_seeds = 1\n"
            "checkpoint_fractions = 1.0\n"
            "alpha = 0.1\n"
            "tune_gamma1 = 2.0, 4.0\n"
        )
        rc = main(["tune", "--config", str(conf)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        entry_lines = [l for l in out.splitlines() if l.startswith("gamma1=")]
        assert len(entry_lines) == 2
        assert "gamma1=2 gamma2=0.8" in entry_lines[0]
        assert "gamma1=4 gamma2=1.6" in entry_lines[1]

    def test_a_diverged_point_is_flagged_and_not_selected(self, tmp_path, capsys):
        conf = tmp_path / "tune.conf"
        conf.write_text(
            f"method = sg\nproblem = logistic\ndataset = {TRAIN}\ntest_dataset = {TEST}\n"
            "n_seeds = 2\ntune_alpha = 0.5, 1e307\n"
        )
        assert main(["tune", "--config", str(conf)]) == EXIT_OK
        small, huge, best = capsys.readouterr().out.splitlines()
        assert small.startswith("alpha=0.5 train_loss=") and not small.endswith("DIVERGED")
        assert huge.startswith("alpha=1e+307 train_loss=nan ") and huge.endswith(" DIVERGED")
        assert best == "best: alpha=0.5"

    def test_every_point_diverged_is_a_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "tune.conf"
        conf.write_text(
            "method = sg\n"
            "problem = quadratic\n"
            "sigma = 0.1\n"
            "max_iterations = 2000\n"
            "tune_alpha = 10, 20\n"
        )
        assert main(["tune", "--config", str(conf)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines() == ["trish: error: every grid point diverged; nothing to select"]

    def test_each_dataset_is_loaded_once(self, tmp_path, capsys, monkeypatch):
        loads = []
        load = trish.harness.load_libsvm

        def counting_load(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(trish.harness, "load_libsvm", counting_load)
        conf = tmp_path / "tune.conf"
        conf.write_text(
            "method = sg\n"
            "problem = logistic\n"
            f"dataset = {TRAIN}\n"
            f"test_dataset = {TEST}\n"
            "n_seeds = 1\n"
            "tune_alpha = 0.5, 1.0\n"
            "tune_batch_size = 100, 200\n"
        )
        rc = main(["tune", "--config", str(conf), "--out", str(tmp_path / "best.csv")])
        assert rc == EXIT_OK
        capsys.readouterr()
        assert sorted(loads) == sorted([TRAIN, TEST])

    def test_empty_test_set_is_refused(self, tmp_path, capsys):
        # selecting by train loss instead would hide the missing test set
        empty = tmp_path / "empty.libsvm"
        empty.write_text("")
        conf = tmp_path / "tune.conf"
        conf.write_text(
            f"method = sg\nproblem = logistic\ndataset = {TRAIN}\ntest_dataset = {empty}\n"
            "n_seeds = 1\ntune_alpha = 0.5, 1.0\n"
        )
        assert main(["tune", "--config", str(conf)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"trish: error: dataset {empty} holds no examples\n"

    @pytest.mark.parametrize(
        "config, key, field",
        [
            ("logistic", "tune_sigma = 0.1, 0.2", "sigma"),
            ("quadratic", "tune_batch_size = 5, 10", "batch_size"),
            ("quadratic", "tune_epochs = 1, 3", "epochs"),
            ("logistic-sg", "tune_gamma1 = 2, 4", "gamma1"),
        ],
    )
    def test_a_grid_over_a_field_never_read_is_a_usage_error(
        self, tmp_path, capsys, config, key, field
    ):
        # such a grid would march one point again and again, then pick the first
        base = {
            "logistic": f"method = trish\nproblem = logistic\ndataset = {TRAIN}\n"
                        "gamma1 = 2\ngamma2 = 0.8\nalpha = 0.5\nn_seeds = 1\n",
            "quadratic": SYNTHETIC_CONFIG,
            "logistic-sg": f"method = sg\nproblem = logistic\ndataset = {TRAIN}\nalpha = 0.5\n",
        }[config]
        conf = tmp_path / "tune.conf"
        conf.write_text(base + key + "\n")
        assert main(["tune", "--config", str(conf)]) == EXIT_USAGE
        captured = capsys.readouterr()
        problem, _, method = config.partition("-")
        assert captured.out == ""
        assert captured.err == (
            f"trish: error: grid field '{field}' is never read by a {problem} problem "
            f"under method {method or 'trish'}, so every point would be the same\n"
        )

    def test_tune_without_grid_keys(self, synthetic_config, capsys):
        assert main(["tune", "--config", synthetic_config]) == EXIT_USAGE
        assert "tune_<field>" in capsys.readouterr().err


class TestVerifyCommand:
    def test_theorem1_passes_quickly(self, capsys):
        rc = main(["verify", "--theorem", "1", "--seeds", "40"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "theorem 1: horizon=200 seeds=40 violations=0" in out

    def test_tiny_gammas_give_no_false_violation(self, capsys):
        # the plateau is ~6e301 here, so plateau + (gap - plateau) would read 0 at k = 1
        argv = ["verify", "--theorem", "1", "--gamma1", "1e-150", "--gamma2", "1e-151"]
        assert main(argv + ["--seeds", "10"]) == EXIT_OK
        assert "violations=0" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--gamma1", "--gamma2"])
    def test_zero_gamma_override_is_not_ignored(self, flag, capsys):
        rc = main(["verify", "--theorem", "1", flag, "0", "--seeds", "5"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("trish: error: need gamma1 > gamma2 > 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("theorem", ["2", "5"])
    def test_alpha_on_harmonic_theorem_is_usage(self, theorem, capsys):
        rc = main(["verify", "--theorem", theorem, "--alpha", "5", "--seeds", "5"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"trish: error: guarantee {theorem} steps by a/(b+k)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("theorem", ["1", "3", "4"])
    def test_alpha_that_is_not_positive_and_finite_is_usage(self, theorem, alpha, capsys):
        rc = main(["verify", "--theorem", theorem, "--alpha", alpha, "--seeds", "5"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"trish: error: fixed stepsize must be positive, got {float(alpha)}\n"

    def test_overrides_at_edge_values_end_in_a_documented_exit(self, capsys):
        values = ["0", "-0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e308", "1.7e308",
                  "1e-320", "0.5", "3"]
        documented = {EXIT_OK, EXIT_USAGE, EXIT_HYPOTHESIS, EXIT_VIOLATION}
        bad = []
        for theorem in "12345":
            for flag in ("--gamma1", "--gamma2", "--alpha"):
                for value in values:
                    argv = ["verify", "--theorem", theorem, "--seeds", "4", f"{flag}={value}"]
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            rc = main(argv)
                        except Exception as exc:  # would end the command in a traceback
                            rc = repr(exc)
                    err = capsys.readouterr().err
                    if rc not in documented or caught or err.count("\n") > 1:
                        bad.append((argv, rc, err, [str(w.message) for w in caught]))
        assert bad == []


class TestStatsCommand:
    def test_bundled_train_stats(self, capsys):
        rc = main(["stats", "--dataset", TRAIN])
        assert rc == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "count=600" in out
        assert "max_index=120" in out
        assert "nnz=6036" in out
        assert "label_balance=0.465" in out

    def test_missing_dataset(self, tmp_path, capsys):
        rc = main(["stats", "--dataset", str(tmp_path / "none.libsvm")])
        assert rc == EXIT_DATA
        capsys.readouterr()


class TestImports:
    """No command loads a scipy module: numpy is the one runtime dependency.
    Each case runs in a new interpreter, since the test process has
    imported scipy already, as the tests' reference."""

    @staticmethod
    def _scipy_modules_after(*commands) -> list:
        code = (
            "import json, sys\n"
            "from trish.cli import main\n"
            f"for argv in {list(commands)!r}:\n"
            "    main(argv)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return json.loads(child.stdout.splitlines()[-1])

    def test_verify_and_synthetic_run_load_no_scipy(self, synthetic_config):
        verify = ["verify", "--theorem", "1", "--seeds", "10"]
        assert self._scipy_modules_after(verify, ["run", "--config", synthetic_config]) == []

    def test_libsvm_commands_load_no_scipy(self, tmp_path):
        config = tmp_path / "logistic.conf"
        config.write_text(
            f"problem = logistic\ndataset = {TRAIN}\ntest_dataset = {TEST}\n"
            "method = trish\ngamma1 = 2\ngamma2 = 0.8\nalpha = 0.5\nn_seeds = 2\n"
        )
        tune = tmp_path / "tune.conf"
        tune.write_text(config.read_text() + "tune_alpha = 0.1, 0.5\n")
        commands = (
            ["stats", "--dataset", TRAIN],
            ["run", "--config", str(config)],
            ["tune", "--config", str(tune)],
        )
        assert self._scipy_modules_after(*commands) == []


class TestConfigSchema:
    """cli.py types config values by field-name sets that mirror ExperimentConfig."""

    FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_typed_field_sets_cover_every_field(self):
        typed = cli._FLOAT_FIELDS | cli._INT_FIELDS | cli._STR_FIELDS | {"checkpoint_fractions"}
        assert typed == self.FIELDS

    @pytest.mark.parametrize("argv", [["run"], ["tune", "--config", "c.conf"]])
    def test_run_and_tune_flags_are_named_by_field(self, argv):
        dests = set(vars(cli.build_parser().parse_args(argv)))
        assert dests - self.FIELDS <= {"config", "out", "command", "func"}

    def test_readme_lists_every_field(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("### Config files", 1)[1].split("###", 1)[0]
        assert self.FIELDS <= set(re.findall(r"`(\w+)`", section))


# The edge pool; each drawn value is a valid one or one of these, evenly.
EDGE = ["0", "-0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", str(2**63), "7" * 400,
        "7" * 5000, "", "x"]
# Sizes are small (at most 5) or refused before anything is allocated or
# run: 2**63 or 400-digit seeds, mini-batch rows or dimensions pass the
# 1 GiB checks, as many epochs or iterations pass the 2**63 - 1 limit on
# the iteration count, and a 5000-digit or non-integer text fails to
# parse.  Sizes in between are genuinely long or large runs with nothing
# to refuse, so the pool leaves them out.
TINY_DATA = "tiny.libsvm"  # four rows, written into the working directory
VALID = {
    **{field: ["0.1", "2"] for field in cli._FLOAT_FIELDS},
    **{field: ["1", "2", "5"] for field in cli._INT_FIELDS},
    "n_seeds": ["1", "2", "4"],  # verify needs two; 5 seeds of its theorem 5 take 0.3 s
    "method": ["trish", "sg"],
    "problem": ["logistic", "quadratic", "nonconvex_pl"],
    "dataset": [TINY_DATA],
    "test_dataset": [TINY_DATA],
    "checkpoint_fractions": ["0.5, 1.0"],
    "config": ["run.conf"],
    "out": ["out.csv"],
    "theorem": list("12345"),
}


@st.composite
def _value(draw, field: str) -> str:
    """A valid value of the field two times in three, else an edge one."""
    if draw(st.sampled_from([True, True, False])):
        return draw(st.sampled_from(VALID.get(field, ["x"])))
    return draw(st.sampled_from(EDGE))


# flag -> the field whose pool it draws from, per subcommand
_SHARED_FLAGS = {"--dataset": "dataset", "--test-dataset": "test_dataset",
                 "--seeds": "n_seeds", "--seed": "base_seed", "--out": "out"}
FLAGS = {
    "run": {**_SHARED_FLAGS, "--config": "config", "--method": "method", "--gamma1": "gamma1",
            "--gamma2": "gamma2", "--alpha": "alpha", "--batch": "batch_size",
            "--epochs": "epochs"},
    "tune": {**_SHARED_FLAGS, "--config": "config"},
    "verify": {"--theorem": "theorem", "--seeds": "n_seeds", "--seed": "base_seed",
               "--gamma1": "gamma1", "--gamma2": "gamma2", "--alpha": "alpha", "--out": "out"},
    "stats": {"--dataset": "dataset"},
}
# Drawn nine times in ten; verify always gets --seeds, since its default
# of 2000 is a genuine long run.  Hypothesis leans to the first of a
# sampled list, so the common case comes first.
USUAL = {"run": ["--config"], "tune": ["--config"], "verify": ["--theorem", "--seeds"],
         "stats": ["--dataset"]}
# A config that runs as it stands; drawn lines replace, drop or add keys.
BASE_CONFIG = {"method": "trish", "problem": "quadratic", "dataset": TINY_DATA,
               "gamma1": "2", "gamma2": "0.8", "alpha": "0.1", "sigma": "0.1",
               "max_iterations": "3", "n_seeds": "2"}
# The drawn commands never reach the iteration-count refusal, so this
# example does.  A 400-digit count, not 2**63: without the refusal the run
# then fails at once instead of looping for 2**63 steps.
PAST_INT64_RUN = (["run", "--config", "run.conf"], "".join(
    f"{key} = {value}\n" for key, value in {**BASE_CONFIG, "max_iterations": "7" * 400}.items()
))
# A stepsize cap so large that theta2 overflows, refused with exit 3.
TINY_GAMMAS_VERIFY = (
    ["verify", "--theorem", "4", "--gamma1", "1e-200", "--gamma2", "1e-201", "--seeds", "4"],
    None,
)
CONFIG_KEYS = sorted(TestConfigSchema.FIELDS) + [
    "tune_alpha", "tune_gamma1", "tune_batch_size", "tune_n_seeds", "tune_dimension",
    "tune_max_iterations", "tune_method", "frobnicate",
]


@st.composite
def _config_value(draw, key):
    if key.startswith("tune_"):
        return ", ".join(draw(st.lists(_value(key[len("tune_"):]), min_size=1, max_size=2)))
    return draw(_value(key))


@st.composite
def _command(draw):
    """(argv, config text or None) from the subcommand grammar."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3))
    usual = USUAL[command][draw(st.sampled_from([0] * 9 + [1])):]
    argv = [command]
    for flag in usual + [flag for flag in chosen if flag not in usual]:
        value = draw(_value(flags[flag]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.sampled_from([False] * 9 + [True])):
        argv.append("--bogus")
    config = None
    if command in ("run", "tune"):
        lines = dict(BASE_CONFIG)
        for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), unique=True, max_size=3)):
            lines[key] = draw(_config_value(key))
        if command == "tune" and not any(key.startswith("tune_") for key in lines):
            lines["tune_alpha"] = "0.05, 0.1"
        for key in draw(st.lists(st.sampled_from(sorted(lines)), unique=True, max_size=1)):
            del lines[key]
        config = "".join(f"{key} = {value}\n" for key, value in lines.items())
    return argv, config


class TestNoTraceback:
    def test_drawn_commands_end_in_a_documented_exit(self, tmp_path, capsys, monkeypatch):
        """ROADMAP item 3 as a property: whatever the argv or config file,
        main() returns 0-4 and prints no traceback.  Runs in-process."""
        monkeypatch.chdir(tmp_path)
        Path(TINY_DATA).write_text("1 1:0.5 2:1\n-1 2:0.3\n1 1:2\n-1 3:1\n")

        @settings(derandomize=True, max_examples=200, deadline=None, database=None)
        @given(_command())
        @example(PAST_INT64_RUN)
        @example(TINY_GAMMAS_VERIFY)
        def check(case):
            argv, config = case
            if config is not None:
                Path("run.conf").write_text(config)
            rc = main(argv)
            err = capsys.readouterr().err
            assert isinstance(rc, int) and 0 <= rc <= 4, (argv, config, rc)
            assert "Traceback" not in err

        check()
