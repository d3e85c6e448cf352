"""End-to-end tests for the command line: exit codes, output, config files."""

from pathlib import Path

import numpy as np
import pytest

import trish.cli as cli
import trish.harness
from trish.cli import (
    EXIT_DATA,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _UsageError,
    main,
    parse_config_file,
)
from trish.harness import RUN_CSV_HEADER, VERIFY_CSV_HEADER, TheoremReport

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "trish" / "data"
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
        with pytest.raises(_UsageError, match=fragment):
            parse_config_file(str(path))

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.conf"
        path.write_text("alpha = 0.5\nalpha = 0.6\n")
        with pytest.raises(_UsageError, match="duplicate key"):
            parse_config_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(_UsageError, match="cannot read config file"):
            parse_config_file(str(tmp_path / "absent.conf"))

    def test_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("alpha = 0.5\nfoo = 1\n")
        with pytest.raises(_UsageError, match=rf"{path}:2"):
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
        assert err.startswith("trish: error: 100000000000 trajectories (--seeds")
        assert err.endswith("pass the 1 GiB limit on iterates\n") and err.count("\n") == 1

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
        "theorem, code, fragment",
        [
            ("1", EXIT_OK, "violations=0"),
            ("2", EXIT_HYPOTHESIS, "a = 40 outside"),
            ("3", EXIT_HYPOTHESIS, "alpha = 0.45 outside"),
            ("4", EXIT_OK, "violations=0"),
            ("5", EXIT_HYPOTHESIS, "alpha_1 = 0.0625 exceeds"),
        ],
    )
    def test_huge_gammas_do_not_overflow(self, theorem, code, fragment, capsys):
        # gamma1**2 is not a float here, but every guarantee constant is
        argv = ["verify", "--theorem", theorem, "--gamma1", "1e300", "--gamma2", "1e299"]
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
            n_seeds=5,
            n_se=3.0,
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

    def test_tune_without_grid_keys(self, synthetic_config, capsys):
        assert main(["tune", "--config", synthetic_config]) == EXIT_USAGE
        assert "tune_<field>" in capsys.readouterr().err


class TestVerifyCommand:
    def test_theorem1_passes_quickly(self, capsys):
        rc = main(["verify", "--theorem", "1", "--seeds", "40"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "theorem 1: horizon=200 seeds=40 violations=0" in out

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
