"""Tests for the strict LIBSVM reader, writer, and dataset statistics."""

import contextlib
import dataclasses
import importlib.util
import json
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trish import ingest
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


@contextlib.contextmanager
def _line_parser_only():
    """Leave every block to the line parser, the reference for the block path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_parse_plain", lambda block, out: None)
        yield


@pytest.fixture(scope="class")
def line_path():
    """Run a class's tests on the line parser alone."""
    with _line_parser_only():
        yield


def _gen_wide():
    """perfbench/gen_wide.py, the generator of the benchmark's wide files."""
    spec = importlib.util.spec_from_file_location("gen_wide", ROOT / "perfbench" / "gen_wide.py")
    gen_wide = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_wide)
    return gen_wide


def _dense(data: LibsvmData) -> np.ndarray:
    """data's features as a dense (rows, width) array."""
    dense = np.zeros((len(data), data.width))
    dense[np.repeat(np.arange(len(data)), np.diff(data.indptr)), data.indices] = data.values
    return dense


def _outcome(lines):
    """parse_libsvm's (data, max_index), or its error as (line, column, reason)."""
    try:
        return parse_libsvm(lines)
    except ParseError as exc:
        return exc.line, exc.column, exc.reason


def _assert_same_as_line_parser(lines):
    """The outcome of parse_libsvm(lines), checked against the line parser's."""
    got = _outcome(lines)
    with _line_parser_only():
        want = _outcome(lines)
    assert type(got[0]) is type(want[0]), (got, want)
    if isinstance(want[0], LibsvmData):
        (data, max_index), (want_data, want_max) = got, want
        assert data == want_data and max_index == want_max
        assert data.labels.tobytes() == want_data.labels.tobytes()
        assert data.values.tobytes() == want_data.values.tobytes()
    else:
        assert got == want
    return got


class TestParseLibsvm:
    def test_basic_line(self):
        data, max_index = parse_libsvm(["1 1:0.5 3:2.0"])
        assert max_index == 3
        assert len(data) == 1
        np.testing.assert_array_equal(data.labels, [1.0])
        np.testing.assert_array_equal(data.indices, [0, 2])
        np.testing.assert_array_equal(data.values, [0.5, 2.0])

    def test_small_dense_comparison(self):
        data, _ = parse_libsvm(["1 1:2.0 3:1.0", "-1 2:5.0"])
        np.testing.assert_array_equal(
            _dense(data), [[2.0, 0.0, 1.0], [0.0, 5.0, 0.0]]
        )
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])

    def test_label_only_line(self):
        data, max_index = parse_libsvm(["-1"])
        assert max_index == 0
        assert data.labels[0] == -1.0
        assert data.width == 0

    def test_comments_and_blanks_skipped(self):
        data, _ = parse_libsvm(
            ["# header", "", "   ", "1 1:1.0", "  # indented comment", "-1 2:0.5"]
        )
        assert data.labels.tolist() == [1.0, -1.0]

    def test_scientific_notation_and_signs(self):
        data, _ = parse_libsvm(["-1.5e-2 1:-3.25 2:1e10"])
        assert data.labels[0] == pytest.approx(-0.015)
        np.testing.assert_array_equal(data.values, [-3.25, 1e10])

    def test_leading_whitespace(self):
        data, _ = parse_libsvm(["   1 2:3.0"])
        np.testing.assert_array_equal(data.indices, [1])

    def test_empty_input(self):
        data, max_index = parse_libsvm([])
        assert len(data) == 0 and max_index == 0

    def test_empty_rows_give_empty_matrix(self):
        data, _ = parse_libsvm(["# only a comment", ""])
        assert data.width == 0
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
        assert data.indices.tolist() == [2**63 - 2]

    def test_zero_padded_index(self):
        data, max_index = parse_libsvm(["1 0001:1 02:2"])
        assert max_index == 2
        assert data.indices.tolist() == [0, 1]

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


@pytest.mark.usefixtures("line_path")
class TestParseErrorsLinePath(TestParseErrors):
    """TestParseErrors again, with every block left to the line parser."""


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
        assert data.width == 120


@pytest.mark.usefixtures("line_path")
class TestLoadLibsvmLinePath(TestLoadLibsvm):
    """TestLoadLibsvm again, with every block left to the line parser."""


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

    # two rows, [1, 0, 2] and [0, 3, 0]
    LAYOUT = dict(labels=[1.0, -1.0], indptr=[0, 2, 3], indices=[0, 2, 1], values=[1.0, 2.0, 3.0])

    def test_accepts_a_valid_layout(self):
        data = LibsvmData(**self.LAYOUT, width=3)
        assert _dense(data).tolist() == [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]

    def test_rejects_misaligned_labels(self):
        # lengths that disagree: labels and row pointers, columns and values
        for field, bad in [
            ("labels", [1.0]),
            ("labels", [[1.0], [-1.0]]),
            ("indptr", [0, 3]),
            ("indices", [0, 2]),
            ("values", [1.0, 2.0]),
            ("indices", [0.0, 2.0, 1.0]),  # not integers
        ]:
            with pytest.raises(ValueError, match="integer row pointers and a column per value"):
                LibsvmData(**{**self.LAYOUT, field: bad}, width=3)

    @pytest.mark.parametrize("indptr", [[1, 2, 3], [-1, 2, 3], [0, 2, 2], [0, 2, 4], [0, 3, 2]])
    def test_refuses_bad_row_pointers(self, indptr):
        with pytest.raises(ValueError, match="row pointers must start at 0"):
            LibsvmData(**{**self.LAYOUT, "indptr": indptr}, width=3)

    @pytest.mark.parametrize(
        "indices, width", [([0, 3, 1], 3), ([0, 2, 1], 2), ([-1, 2, 1], 3), ([0, 2, 0], -1)]
    )
    def test_refuses_columns_outside_the_width(self, indices, width):
        with pytest.raises(ValueError, match="columns must lie in"):
            LibsvmData(**{**self.LAYOUT, "indices": indices}, width=width)

    def test_refuses_columns_that_do_not_rise(self):
        for indices, values in [
            ([2, 0, 1], [1.0, 2.0, 3.0]),  # reordered
            ([0, 0, 1], [1.0, 2.0, 3.0]),  # stored twice
            ([0, 0, 1], [1.0, -1.0, 3.0]),  # stored twice, summing to zero
        ]:
            with pytest.raises(ValueError, match="rise strictly"):
                LibsvmData(**{**self.LAYOUT, "indices": indices, "values": values}, width=3)
        # a column may fall from one row to the next
        LibsvmData([1.0, -1.0], [0, 1, 3], [2, 0, 1], [1.0, 2.0, 3.0], width=3)

    def test_len_counts_rows(self):
        data, _ = parse_libsvm(["1 1:1.0", "-1", "1 4:2.0"])
        assert len(data) == 3
        assert data.width == 4

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
    values = np.array([v for _, v in pairs], dtype=float)
    columns = np.array([i - 1 for i, _ in pairs], dtype=np.int64)
    return LibsvmData(np.array(labels, dtype=float), indptr, columns, values, width)


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
        parsed, max_index = _assert_same_as_line_parser(lines)
        assert parsed == data
        assert max_index == data.width
        assert serialize_libsvm(parsed) == serialize_libsvm(data)

    @settings(max_examples=60, deadline=None)
    @given(_mixed_text())
    def test_stats_match_an_independent_count(self, drawn):
        rows, lines = drawn
        indices = [index for _, row in rows for index, _ in row]
        positive = sum(label > 0 for label, _ in rows)
        assert dataset_stats(_assert_same_as_line_parser(lines)[0]) == DatasetStats(
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
        assert _assert_same_as_line_parser(lines) == (at + 1, column, reason)


_PLAIN_LINE = "-1 2:0.25 7:1.5e-3 19:+4"


def _plain_lines(n, at=None, line=None, end=""):
    """n plain lines, with `line` in place of line number `at` (1-based)."""
    lines = [_PLAIN_LINE + end] * n
    if at is not None:
        lines[at - 1] = line
    return lines


# The plain-block pattern in its greedy form, each line matched inside a
# lookahead and consumed by backreference: the reference for the language
# that the atomic, possessive _PLAIN accepts.
_GREEDY_PLAIN = re.compile(
    r"(?:(?=([ \t\r]*(?:[-+.0-9eE]+(?:[ \t\r]+[0-9]+:[-+.0-9eE]+)*[ \t\r]*)?\n))\1)*"
)
# Lines over the plain alphabet: a label, then pairs, each token valid, a
# near miss that a wider class would let through, or random, after a run
# of separators that may be empty.
_PLAIN_ALPHABET = " \t\r0123456789:+-.eE"
_near_miss = st.sampled_from(["2:3:4", "1.5:2", "+1:2", "1e1:2", ":4", "3:", ".", "e"])
_random = st.text(_PLAIN_ALPHABET, min_size=1, max_size=6)
_label = st.sampled_from(["1", "-1", "+0.5", "2e-3"]) | _near_miss | _random
_pair = st.sampled_from(["2:7", "10:1e-3", "07:-.5"]) | _near_miss | _near_miss | _random
_separator = st.sampled_from([" ", "\t", "  ", " \r", ""])
_plain_line = st.tuples(
    _separator, _label, st.lists(st.tuples(_separator, _pair), max_size=3), _separator
).map(lambda t: t[0] + t[1] + "".join(sep + pair for sep, pair in t[2]) + t[3])


class TestBlockPath:
    """The block path gives the line parser's arrays and errors, whatever a block holds."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_plain_line | _separator, min_size=1, max_size=4), st.booleans())
    def test_plain_alphabet_fuzz(self, lines, final_newline):
        text = "\n".join(lines) + "\n"  # the block as the reader joins it
        assert bool(ingest._PLAIN.fullmatch(text)) == bool(_GREEDY_PLAIN.fullmatch(text))
        block = [line + "\n" for line in lines]
        if not final_newline:
            block[-1] = lines[-1]
        _assert_same_as_line_parser(block)

    def test_plain_input_never_reaches_the_line_parser(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a plain block went to the line parser")

        monkeypatch.setattr(ingest, "_parse_lines", refused)
        for lines in (
            _plain_lines(600),
            _plain_lines(600, end="\n"),
            _plain_lines(600, end="\r\n"),
            _plain_lines(599, end="\n") + [_PLAIN_LINE],  # no final newline
            _plain_lines(300, at=5, line="  \t ") + ["1", "\t-2.5  3:1\t"],
            _plain_lines(2, end="\n") + ["\n"] * 600,  # all-blank blocks
        ):
            assert parse_libsvm(lines)[1] == 19

    def test_index_that_rounds_to_2_pow_53_as_a_float(self):
        data, max_index = _assert_same_as_line_parser(
            _plain_lines(300, at=100, line="1 9007199254740993:1")
        )
        assert max_index == 9007199254740993
        assert data.indices.max() == 2**53

    def test_value_that_overflows(self):
        got = _assert_same_as_line_parser(_plain_lines(300, at=100, line="1 1:1e999"))
        assert got == (100, 5, "non-finite value '1e999'")

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c"])
    def test_whitespace_outside_the_plain_separators(self, separator):
        lines = _plain_lines(300, at=100, line=f"1{separator}3:2")
        data, _ = _assert_same_as_line_parser(lines)
        assert _dense(data)[99].tolist() == [0.0, 0.0, 2.0] + [0.0] * 16

    @pytest.mark.parametrize("end", ["", "\n"], ids=["bare", "newline"])
    @pytest.mark.parametrize(
        "line, want",
        [("1 1:1\n2:2", None), ("1 1:1\n-1 2:2", (100, 7, "malformed index:value pair '-1'"))],
        ids=["joins-pairs", "joins-rows"],
    )
    def test_list_element_with_an_embedded_newline(self, line, want, end):
        # an element is one line, so its '\n' separates tokens and not rows
        got = _assert_same_as_line_parser(_plain_lines(300, at=100, line=line + end, end=end))
        if want is None:
            assert len(got[0]) == 300
        else:
            assert got == want

    def test_element_without_a_line_end_before_one_with_two(self):
        # as many '\n' as elements, but joined they would make other rows
        lines = _plain_lines(300, end="\n")
        lines[99:101] = ["-1 2:0.25", " 3:1\n-1 2:2\n"]
        assert _assert_same_as_line_parser(lines) == (101, 2, "malformed label '3:1'")

    def test_crlf_endings(self):
        data, _ = _assert_same_as_line_parser(_plain_lines(600, end="\r\n"))
        assert len(data) == 600

    def test_comment_inside_a_block(self):
        data, _ = _assert_same_as_line_parser(
            _plain_lines(600, at=300, line="# 1 1:1", end="\n")
        )
        assert len(data) == 599

    @pytest.mark.parametrize("at", [256, 257, 600])
    def test_error_position_across_block_boundaries(self, at):
        got = _assert_same_as_line_parser(_plain_lines(700, at=at, line="1 2:0.5 3:x"))
        assert got == (at, 11, "malformed value 'x'")

    @pytest.mark.parametrize(
        "line",
        [
            "1 3:1 2:1", "1 2:1 2:2", "1 0:1", ". 1:1", "1 1:1-2", "1 1:.", "1 1:1:2", "11:1",
            # numbers float() refuses, so numpy's C reader must refuse them too
            "1 1:1e", "1 1:e5", "1 1:+", "1 1:1e5e", "1 1:--1",
            # indices that a number class would let through
            "1 1.5:2", "1 +1:2", "1 1e1:2",
        ],
    )
    def test_plain_looking_errors(self, line):
        # errors made only of characters a plain block may hold
        got = _assert_same_as_line_parser(_plain_lines(300, at=258, line=line))
        assert got[0] == 258

    @pytest.mark.parametrize("end", ["", "\n"], ids=["bare", "newline"])
    def test_run_of_blank_lines(self, end):
        # lines 257-512 make a block with no number, which loadtxt would warn on
        lines = _plain_lines(100, end=end) + [end, " \t" + end] * 300 + _plain_lines(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data, _ = _assert_same_as_line_parser(lines)
        assert len(data) == 200

    def test_generated_wide_file(self, tmp_path):
        path = tmp_path / "wide.libsvm"
        _gen_wide().generate(str(path), 3000, seed=3)
        with open(path, encoding="utf-8") as handle:
            data, _ = _assert_same_as_line_parser(handle.readlines())
        assert data.indices.dtype == np.int32


class TestColumnWidth:
    """Columns are int32, half the memory of int64, until an index passes 2^31 - 1."""

    @pytest.mark.parametrize("name", ["train.libsvm", "test.libsvm"])
    def test_bundled_columns_are_int32(self, name):
        data, _ = _assert_same_as_line_parser((DATA_DIR / name).read_text().splitlines(True))
        assert data.indices.dtype == np.int32

    @pytest.mark.parametrize(
        "line, columns, line_parsed",
        [
            ("1 2147483648:1 9007199254740991:2", [2**31 - 1, 2**53 - 2], []),
            ("1 9223372036854775807:1", [2**63 - 2], [513, 769]),  # from 2^53, not plain
        ],
        ids=["plain", "line-parser"],
    )
    def test_widen_once_past_int32(self, line, columns, line_parsed, monkeypatch):
        # blocks 1 and 2 (lines 1-512) stay int32; lines 600 and 801, in
        # blocks 3 and 4, hold indices past 2^31 - 1
        lines = _plain_lines(900, at=600, line=line)
        lines[800] = line
        parsed, widened = [], []
        parse_lines, widen = ingest._parse_lines, ingest._widened

        def spied_parse_lines(block, first_lineno, out):
            parsed.append(first_lineno)
            return parse_lines(block, first_lineno, out)

        def spied_widened(columns):
            widened.append(len(columns))
            return widen(columns)

        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_parse_lines", spied_parse_lines)
            patch.setattr(ingest, "_widened", spied_widened)
            parse_libsvm(lines)
        assert parsed == line_parsed
        assert widened == [512 * 3]
        data, max_index = _assert_same_as_line_parser(lines)
        assert max_index == columns[-1] + 1
        assert data.indices.dtype == np.int64
        plain = [1, 6, 18]  # _PLAIN_LINE's columns
        want = plain * 599 + columns + plain * 200 + columns + plain * 99
        assert data.indices.tolist() == want


class TestIngestScalingScript:
    def test_small_run(self):
        script = SCRIPTS_DIR / "ingest_scaling.py"
        done = subprocess.run(
            [sys.executable, str(script), "--rows", "2000"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        header, row = done.stdout.splitlines()
        assert header.split() == [
            "rows", "MB", "seconds", "lines/s", "MB/s", "peak_rss_mb", "gather_us"
        ]
        cells = row.split()
        assert cells[0] == "2000"
        assert all(float(cell) > 0 for cell in cells[1:])


class TestParsePerformance:
    def test_peak_memory_near_the_output(self, tmp_path):
        # the int32 columns are the data's own, so no second copy is held
        path = tmp_path / "wide.libsvm"
        _gen_wide().generate(str(path), 10_000, seed=3)
        with open(path, encoding="utf-8") as handle:
            tracemalloc.start()
            try:
                data, _ = parse_libsvm(handle)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        output = data.labels.nbytes + data.indptr.nbytes + data.indices.nbytes + data.values.nbytes
        assert peak <= 1.4 * output

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
