"""Tests for the strict LIBSVM reader, writer, and dataset statistics."""

import dataclasses
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trish.ingest import (
    DatasetStats,
    LibsvmData,
    ParseError,
    dataset_stats,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
)

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "src" / "trish" / "data"
SCRIPTS_DIR = ROOT / "scripts"


class TestParseLibsvm:
    def test_basic_line(self):
        data, max_index = parse_libsvm(["1 1:0.5 3:2.0"])
        assert max_index == 3
        assert len(data) == 1
        np.testing.assert_array_equal(data.labels, [1.0])
        np.testing.assert_array_equal(data.features.indices, [0, 2])
        np.testing.assert_array_equal(data.features.data, [0.5, 2.0])

    def test_small_dense_comparison(self):
        data, _ = parse_libsvm(["1 1:2.0 3:1.0", "-1 2:5.0"])
        np.testing.assert_array_equal(
            data.features.toarray(), [[2.0, 0.0, 1.0], [0.0, 5.0, 0.0]]
        )
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])

    def test_label_only_line(self):
        data, max_index = parse_libsvm(["-1"])
        assert max_index == 0
        assert data.labels[0] == -1.0
        assert data.features.shape == (1, 0)

    def test_comments_and_blanks_skipped(self):
        data, _ = parse_libsvm(
            ["# header", "", "   ", "1 1:1.0", "  # indented comment", "-1 2:0.5"]
        )
        assert data.labels.tolist() == [1.0, -1.0]

    def test_scientific_notation_and_signs(self):
        data, _ = parse_libsvm(["-1.5e-2 1:-3.25 2:1e10"])
        assert data.labels[0] == pytest.approx(-0.015)
        np.testing.assert_array_equal(data.features.data, [-3.25, 1e10])

    def test_leading_whitespace(self):
        data, _ = parse_libsvm(["   1 2:3.0"])
        np.testing.assert_array_equal(data.features.indices, [1])

    def test_empty_input(self):
        data, max_index = parse_libsvm([])
        assert len(data) == 0 and max_index == 0

    def test_empty_rows_give_empty_matrix(self):
        data, _ = parse_libsvm(["# only a comment", ""])
        assert data.features.shape == (0, 0)
        assert data.labels.size == 0


class TestParseErrors:
    """Every rejection carries an exact 1-based line:column position."""

    @staticmethod
    def _expect(lines, line, column, fragment):
        with pytest.raises(ParseError) as exc_info:
            parse_libsvm(lines)
        exc = exc_info.value
        assert exc.line == line
        assert exc.column == column
        assert fragment in exc.reason
        assert str(exc).startswith(f"{line}:{column}: ")

    def test_malformed_label(self):
        self._expect(["x 1:1.0"], 1, 1, "malformed label 'x'")

    def test_underscored_label(self):
        self._expect(["1_0 1:1.0"], 1, 1, "malformed label '1_0'")

    def test_non_finite_label(self):
        self._expect(["nan 1:1.0"], 1, 1, "non-finite label")

    def test_pair_without_colon(self):
        self._expect(["1 1:1.0", "1 foo"], 2, 3, "malformed index:value pair 'foo'")

    def test_pair_missing_index(self):
        self._expect(["1 :5"], 1, 3, "malformed index:value pair")

    def test_pair_missing_value(self):
        self._expect(["1 2:"], 1, 3, "malformed index:value pair")

    def test_non_numeric_index(self):
        self._expect(["1 a:5"], 1, 3, "malformed index 'a'")

    def test_fractional_index(self):
        self._expect(["1 2.5:1"], 1, 3, "malformed index '2.5'")

    def test_index_below_one(self):
        self._expect(["1 0:5"], 1, 3, "index 0 below 1")

    def test_duplicate_index(self):
        self._expect(["1 2:1 2:2"], 1, 7, "duplicate index 2")

    @pytest.mark.parametrize(
        "index",
        ["9223372036854775808", "99999999999999999999", "0009223372036854775808", "9" * 5000],
    )
    def test_index_above_int64(self, index):
        self._expect([f"1 1:1 {index}:1"], 1, 7, "index above 9223372036854775807")

    @pytest.mark.parametrize("index", ["9223372036854775807", "0009223372036854775807"])
    def test_largest_int64_index_accepted(self, index):
        data, max_index = parse_libsvm([f"1 {index}:1"])
        assert max_index == 2**63 - 1
        assert data.features.indices.tolist() == [2**63 - 2]

    def test_zero_padded_index(self):
        data, max_index = parse_libsvm(["1 0001:1 02:2"])
        assert max_index == 2
        assert data.features.indices.tolist() == [0, 1]

    def test_non_increasing_index(self):
        self._expect(["1 3:1 2:2"], 1, 7, "non-increasing index 2 after 3")

    def test_underscored_value(self):
        # value starts after '1:' so its column is 5
        self._expect(["1 1:1_0"], 1, 5, "malformed value '1_0'")

    def test_non_finite_value(self):
        self._expect(["1 1:nan"], 1, 5, "non-finite value")
        self._expect(["1 1:inf"], 1, 5, "non-finite value")

    def test_non_numeric_value(self):
        self._expect(["1 1:abc"], 1, 5, "malformed value 'abc'")

    def test_column_tracks_extra_whitespace(self):
        self._expect(["1  5:x"], 1, 6, "malformed value 'x'")

    @pytest.mark.parametrize(
        "lines, line, column, byte",
        [(["1 1:1", "1 2:\udcff"], 2, 5, "ff"), (["# caf\u00e9 \udcfe", "1 1:1"], 1, 8, "fe")],
        ids=["pair", "comment"],
    )
    def test_undecoded_byte(self, lines, line, column, byte):
        # \udcXX is byte 0xXX as open(..., errors="surrogateescape") decodes it.
        self._expect(lines, line, column, f"byte 0x{byte} is not UTF-8")


class TestLoadLibsvm:
    def test_parse_error_carries_path(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("1 1:1.0\n1 0:2\n")
        with pytest.raises(ParseError) as exc_info:
            load_libsvm(str(path))
        assert exc_info.value.path == str(path)
        assert exc_info.value.line == 2

    @pytest.mark.parametrize("head", [0, 3001], ids=["lines-1-2", "lines-3002-3003"])
    def test_errors_are_reported_in_file_order(self, tmp_path, head):
        # A malformed value before a byte that is not UTF-8 is the error reported.
        path = tmp_path / "bad.libsvm"
        path.write_bytes(b"1 2:1\n" * head + b"1 2:x\n1 2:\xff\n")
        with pytest.raises(ParseError) as exc_info:
            load_libsvm(str(path))
        assert (exc_info.value.line, exc_info.value.column) == (head + 1, 5)
        assert exc_info.value.reason == "malformed value 'x'"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_libsvm(str(tmp_path / "absent.libsvm"))

    def test_reads_bundled_dataset(self):
        data, max_index = load_libsvm(str(DATA_DIR / "train.libsvm"))
        assert len(data) == 600
        assert max_index == 120
        assert data.features.shape == (600, 120)


class TestSerializeLibsvm:
    def test_round_trip_small(self):
        data, _ = parse_libsvm(["1 1:0.5 3:-2.0", "-1", "2 2:0.0025"])
        text = serialize_libsvm(data)
        assert text == "1.0 1:0.5 3:-2.0\n-1.0\n2.0 2:0.0025\n"
        data_again, _ = parse_libsvm(text.splitlines())
        assert data_again == data

    def test_serialization_is_idempotent(self):
        data, _ = parse_libsvm(["1 1:0.1 2:1e-12", "-1 3:7"])
        once = serialize_libsvm(data)
        twice = serialize_libsvm(parse_libsvm(once.splitlines())[0])
        assert once == twice

    def test_empty_rows_give_empty_text(self):
        assert serialize_libsvm(parse_libsvm([])[0]) == ""

    @pytest.mark.parametrize("name", ["train.libsvm", "test.libsvm"])
    def test_round_trip_bundled(self, name):
        data, _ = load_libsvm(str(DATA_DIR / name))
        text = serialize_libsvm(data)
        data_again, _ = parse_libsvm(text.splitlines())
        assert data_again == data
        assert serialize_libsvm(data_again) == text


class TestLibsvmData:
    def test_equality(self):
        a, _ = parse_libsvm(["1 1:0.5 2:1.0"])
        b, _ = parse_libsvm(["1 1:0.5 2:1.0"])
        c, _ = parse_libsvm(["1 1:0.5 2:2.0"])
        d, _ = parse_libsvm(["-1 1:0.5 2:1.0"])
        assert a == b
        assert a != c
        assert a != d
        assert a != "not a dataset"

    def test_rejects_misaligned_labels(self):
        features = sp.csr_matrix(np.eye(2))
        with pytest.raises(ValueError, match="2 rows"):
            LibsvmData(np.array([1.0]), features)
        with pytest.raises(ValueError, match="2 rows"):
            LibsvmData(np.ones((2, 1)), features)

    def test_len_counts_rows(self):
        data, _ = parse_libsvm(["1 1:1.0", "-1", "1 4:2.0"])
        assert len(data) == 3
        assert data.features.shape == (3, 4)

    def test_frozen(self):
        data, _ = parse_libsvm(["1 1:1.0"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.labels = np.array([2.0])


class TestDatasetStats:
    def test_empty(self):
        stats = dataset_stats(parse_libsvm(["# only a comment"])[0])
        assert stats == DatasetStats(count=0, max_index=0, nnz=0, label_balance=0.0)

    def test_small_hand_case(self):
        data, _ = parse_libsvm(["1 1:1 5:2", "-1 2:1", "0 3:1"])
        stats = dataset_stats(data)
        assert stats.count == 3
        assert stats.max_index == 5
        assert stats.nnz == 4
        # zero labels count as non-positive
        assert stats.label_balance == pytest.approx(1.0 / 3.0)

    def test_as_dict(self):
        stats = DatasetStats(count=2, max_index=3, nnz=4, label_balance=0.5)
        assert stats.as_dict() == {
            "count": 2,
            "max_index": 3,
            "nnz": 4,
            "label_balance": 0.5,
        }

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_bundled_matches_golden(self, split):
        golden = json.loads((DATA_DIR / "golden_stats.json").read_text())
        data, _ = load_libsvm(str(DATA_DIR / f"{split}.libsvm"))
        assert dataset_stats(data).as_dict() == golden[split]

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_golden_file_matches_its_counter(self, split):
        # the reference above must not drift from the script that counts it
        script = SCRIPTS_DIR / "golden_stats.py"
        spec = importlib.util.spec_from_file_location("golden_stats", script)
        counter = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(counter)
        golden = json.loads((DATA_DIR / "golden_stats.json").read_text())
        assert counter.count(DATA_DIR / f"{split}.libsvm") == golden[split]


# Random datasets as plain rows: (label, [(index, value), ...]) with 1-based,
# strictly increasing indices; values include explicit zeros.
_finite = st.floats(allow_nan=False, allow_infinity=False)
_row = st.tuples(
    _finite,
    st.dictionaries(st.integers(1, 40), _finite, max_size=6).map(lambda d: sorted(d.items())),
)
_skipped = st.sampled_from(["", "   ", "\t", "# comment", "  # 1 2:3"])


def _as_data(rows) -> LibsvmData:
    labels = [label for label, _ in rows]
    pairs = [pair for _, row in rows for pair in row]
    indptr = np.cumsum([0] + [len(row) for _, row in rows])
    width = max((index for index, _ in pairs), default=0)
    features = sp.csr_matrix(
        (
            np.array([v for _, v in pairs], dtype=float),
            np.array([i - 1 for i, _ in pairs], dtype=np.int64),
            indptr,
        ),
        shape=(len(rows), width),
    )
    return LibsvmData(np.array(labels, dtype=float), features)


@st.composite
def _mixed_text(draw):
    """Serialized random rows with skipped lines mixed in; also the rows and lines."""
    rows = draw(st.lists(_row, max_size=8))
    lines = serialize_libsvm(_as_data(rows)).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_skipped))
    return rows, lines


class TestReaderProperties:
    @settings(max_examples=60, deadline=None)
    @given(_mixed_text())
    def test_parse_inverts_serialize(self, drawn):
        rows, lines = drawn
        data = _as_data(rows)
        parsed, max_index = parse_libsvm(lines)
        assert parsed == data
        assert max_index == data.features.shape[1]
        assert serialize_libsvm(parsed) == serialize_libsvm(data)

    @settings(max_examples=60, deadline=None)
    @given(_mixed_text())
    def test_stats_match_an_independent_count(self, drawn):
        rows, lines = drawn
        indices = [index for _, row in rows for index, _ in row]
        positive = sum(label > 0 for label, _ in rows)
        assert dataset_stats(parse_libsvm(lines)[0]) == DatasetStats(
            count=len(rows),
            max_index=max(indices, default=0),
            nnz=len(indices),
            label_balance=positive / len(rows) if rows else 0.0,
        )

    @settings(max_examples=60, deadline=None)
    @given(_mixed_text(), st.data())
    def test_one_corrupted_token_reports_its_position(self, drawn, data):
        rows, lines = drawn
        assume(rows)
        examples = [n for n, line in enumerate(lines) if line.strip()[:1] not in ("", "#")]
        at = data.draw(st.sampled_from(examples))
        tokens = lines[at].split(" ")
        which = data.draw(st.integers(0, len(tokens) - 1))
        column = 1 + sum(len(tok) + 1 for tok in tokens[:which])
        if which == 0:
            tokens[0], reason = "1_0", "malformed label '1_0'"
        else:
            index, _, _ = tokens[which].partition(":")
            kind = data.draw(st.sampled_from(["pair", "index", "value"]))
            if kind == "pair":
                tokens[which], reason = "foo", "malformed index:value pair 'foo'"
            elif kind == "index":
                tokens[which], reason = "0:1.0", "index 0 below 1"
            else:
                tokens[which], reason = f"{index}:nan", "non-finite value 'nan'"
                column += len(index) + 1
        lines[at] = " ".join(tokens)
        with pytest.raises(ParseError) as exc_info:
            parse_libsvm(lines)
        assert (exc_info.value.line, exc_info.value.column) == (at + 1, column)
        assert exc_info.value.reason == reason


class TestParsePerformance:
    def test_linear_scaling(self):
        # per-line cost must stay flat as the input grows 4x; a quadratic
        # accumulation bug would show up as a 4x per-line blowup
        line = "1 3:0.5 17:1.25 99:-2.0"

        def timed(n):
            lines = [line] * n
            start = time.perf_counter()
            rows, _ = parse_libsvm(lines)
            elapsed = time.perf_counter() - start
            assert len(rows) == n
            return elapsed / n

        timed(2000)  # warm-up
        small = timed(100_000)
        large = timed(400_000)
        assert large / small <= 3.0
