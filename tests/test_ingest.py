"""Tests for the strict LIBSVM reader, writer, and dataset statistics."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trish import _workers, cli, ingest
from trish.ingest import (
    DatasetStats,
    LibsvmData,
    ParseError,
    dataset_stats,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
)
from test_workers import _assert_no_child_left, _each_child_takes_a_job, needs_fork

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "src" / "trish" / "data"
SCRIPTS_DIR = ROOT / "scripts"
# whether load_libsvm can parse a file in parts on this platform
_SPLITS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")


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
        "line, columns, line_parsed, widened_at",
        [
            ("1 2147483648:1 9007199254740991:2", [2**31 - 1, 2**53 - 2], [], 512 * 3),
            # from 2^53, not plain; the line parser widens at line 600's first pair
            ("1 9223372036854775807:1", [2**63 - 2], [513, 769], 512 * 3 + 87 * 3),
        ],
        ids=["plain", "line-parser"],
    )
    def test_widen_once_past_int32(self, line, columns, line_parsed, widened_at, monkeypatch):
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
        assert widened == [widened_at]
        data, max_index = _assert_same_as_line_parser(lines)
        assert max_index == columns[-1] + 1
        assert data.indices.dtype == np.int64
        plain = [1, 6, 18]  # _PLAIN_LINE's columns
        want = plain * 599 + columns + plain * 200 + columns + plain * 99
        assert data.indices.tolist() == want


class TestIngestScalingScript:
    def test_small_run(self):
        # 2000 rows (~0.4 MB) parse in one process; 6000 (~1.3 MB) in parts
        script = SCRIPTS_DIR / "ingest_scaling.py"
        done = subprocess.run(
            [sys.executable, str(script), "--rows", "2000", "6000"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        header, serial, split = done.stdout.splitlines()
        assert header.split() == [
            "rows", "MB", "seconds", "lines/s", "MB/s", "peak_rss_mb", "children_maxrss_mb",
            "gather_us",
        ]
        serial, split = serial.split(), split.split()
        assert serial[0] == "2000" and split[0] == "6000"
        assert float(serial[1]) < ingest._SPLIT_BYTES / 1e6 < float(split[1])
        assert all(float(cell) > 0 for cell in serial[1:6] + serial[7:] + split[1:6] + split[7:])
        assert float(serial[6]) == 0
        assert (float(split[6]) > 0) == (_SPLITS and len(os.sched_getaffinity(0)) > 1)


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

    @needs_fork
    def test_peak_memory_of_a_split_load(self, tmp_path):
        # this process holds the parts' arrays and, for one array at a time, that array joined
        path = tmp_path / "wide.libsvm"
        _gen_wide().generate(str(path), 10_000, seed=3)
        split = _Split()
        with _split_into(2, split):
            tracemalloc.start()
            try:
                data, _ = load_libsvm(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        output = data.labels.nbytes + data.indptr.nbytes + data.indices.nbytes + data.values.nbytes
        assert split.forks == 1
        assert peak <= 1.75 * output

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


class _Split:
    """What load_libsvm split: the byte ranges it gave _run_split, and the children it forked."""

    def __init__(self):
        self.parts, self.forks = [], 0


def _spy(patch, split):
    """Record each load's parts and forks in `split`."""
    run_split, fork = ingest._run_split, _workers._fork

    def queued(run, jobs, *rest):
        split.parts += jobs
        return run_split(run, jobs, *rest)

    def forked(send, cpu):
        split.forks += 1
        return fork(send, cpu)

    patch.setattr(ingest, "_run_split", queued)
    patch.setattr(_workers, "_fork", forked)


@contextlib.contextmanager
def _split_into(parts, split=None):
    """load_libsvm splitting a regular file of 2 bytes or more into `parts`, as on
    that many usable CPUs; what it split is recorded in `split`, if given."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_SPLIT_BYTES", 2)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
        if split is not None:
            _spy(patch, split)
        yield


@contextlib.contextmanager
def _serial_only():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_SPLIT_BYTES", 2**62)
        yield


def _loaded(path):
    """load_libsvm's data, largest index and column type, or its error."""
    try:
        data, max_index = load_libsvm(str(path))
    except ParseError as exc:
        return str(exc), exc.path, exc.line, exc.column
    return data, max_index, data.indices.dtype


def _stats(path):
    """`trish stats` on path: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["stats", "--dataset", str(path)])
    return code, out.getvalue(), err.getvalue()


def _rows_file(path, rows=400, bad=None):
    """`rows` plain lines, line `bad` (1-based) with a malformed value."""
    lines = [b"1 2:0.5 7:1"] * rows
    if bad is not None:
        lines[bad - 1] = b"1 2:0.5 7:x"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def _row_text(row) -> bytes:
    return serialize_libsvm(_as_data([row])).rstrip("\n").encode()


_long_line = st.integers(200, 600).map(
    lambda n: ("1 " + " ".join(f"{i}:{i / 7!r}" for i in range(1, n))).encode()
)
_file_line = st.one_of(
    _row.map(_row_text),  # twice, so that about two lines in five are rows
    _row.map(_row_text),
    st.sampled_from([b"", b"   ", b"\t", b"# comment", "# café €".encode(), b"  # 1 2:3"]),
    st.sampled_from([b"1 2147483648:0.5", b"-1 3:1 9223372036854775807:2"]),  # past 2^31 - 1
    _long_line,
)
_bad_line = st.sampled_from(
    [b"1 2:x", b"1 0:1", b"1 3:1 2:1", b"1 1:\xff", b"# \xfe", b"1 1:nan", b"x 1:1", b"1 foo"]
)


@st.composite
def _drawn_file(draw, errors):
    """A LIBSVM file's bytes: drawn lines, each ended by '\\n', '\\r\\n' or
    '\\r', maybe without a final line end; with `errors`, one to two bad
    lines, the first at the start, at the end or anywhere."""
    lines = draw(st.lists(_file_line, min_size=1, max_size=30))
    if draw(st.booleans()):  # a long line across the middle, where two parts meet
        lines.insert(len(lines) // 2, draw(_long_line))
    if draw(st.booleans()):  # an index past 2^31 - 1 on the last line only
        lines.append(b"1 1:1 3000000000:2")
    for n in range(draw(st.integers(1, 2)) if errors else 0):
        where = draw(st.sampled_from(["first", "last", "any"])) if n == 0 else "any"
        at = {"first": 0, "last": len(lines), "any": draw(st.integers(0, len(lines)))}[where]
        lines.insert(at, draw(_bad_line))
    ends = st.sampled_from([b"\n", b"\r\n", b"\r"])
    text = b"".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip(b"\r\n")


@needs_fork
class TestLoadInParts:
    """A file parsed in parts gives the serial parse's arrays and errors."""

    @pytest.fixture(scope="class")
    def drawn_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("parts") / "drawn.libsvm"

    def _check(self, path, parts):
        with _serial_only():
            want, want_stats = _loaded(path), _stats(path)
        split, serial, parse = _Split(), [], ingest.parse_libsvm
        with _split_into(parts, split), pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "parse_libsvm", lambda lines: serial.append(1) or parse(lines))
            got = _loaded(path)
        with _split_into(parts):
            got_stats = _stats(path)
        if isinstance(want[0], LibsvmData):
            assert serial == ([] if split.parts else [1])  # no part failed
            assert got[0] == want[0] and got[1:] == want[1:]
            assert got[0].labels.tobytes() == want[0].labels.tobytes()
            assert got[0].values.tobytes() == want[0].values.tobytes()
        else:
            assert got == want
        assert got_stats == want_stats
        _assert_no_child_left()
        return want, split

    @settings(max_examples=80, deadline=None)
    @given(text=_drawn_file(errors=False), parts=st.integers(2, 4))
    def test_drawn_file_matches_the_serial_parse(self, drawn_path, text, parts):
        drawn_path.write_bytes(text)
        want, split = self._check(drawn_path, parts)
        assert isinstance(want[0], LibsvmData)
        with open(drawn_path, "rb") as handle:  # at most a part per byte, with _SPLIT_BYTES = 2
            cuts = ingest._cuts(handle.fileno(), len(text), min(parts, len(text)))
        assert split.parts == (list(pairwise(cuts)) if len(cuts) > 2 else [])
        assert split.forks == max(len(cuts) - 2, 0)

    @settings(max_examples=80, deadline=None)
    @given(text=_drawn_file(errors=True), parts=st.integers(2, 4))
    def test_drawn_error_matches_the_serial_parse(self, drawn_path, text, parts):
        drawn_path.write_bytes(text)
        want, _ = self._check(drawn_path, parts)
        assert want[1] == str(drawn_path)  # an error, carrying the path

    @pytest.mark.parametrize("at", ["parent", "child"])  # the first part, or the second
    def test_error_in_either_range(self, tmp_path, at):
        path = _rows_file(tmp_path / "bad.libsvm", bad=11 if at == "parent" else 391)
        want, split = self._check(path, 2)
        assert want[2:] == (11 if at == "parent" else 391, 11)
        [_, (start, _)] = split.parts
        assert (path.read_bytes().index(b"x") > start) == (at == "child")

    @pytest.mark.parametrize("at", ["parent", "child"])
    def test_index_past_int32_in_one_range(self, tmp_path, at):
        lines = [b"1 2:0.5 7:1"] * 400
        lines[0 if at == "parent" else -1] = b"1 2147483648:3"
        path = tmp_path / "wide.libsvm"
        path.write_bytes(b"\n".join(lines) + b"\n")
        want, split = self._check(path, 2)
        assert want[1:] == (2**31, np.int64) and split.forks == 1

    def test_long_line_across_the_cut(self, tmp_path):
        # the middle byte falls inside one long line, so the part starts after it
        head = b"1 1:1\n" * 50
        long_line = ("-1 " + " ".join(f"{i}:0.5" for i in range(1, 500))).encode() + b"\n"
        path = tmp_path / "long.libsvm"
        path.write_bytes(head + long_line + b"1 1:1\n" * 50)
        want, split = self._check(path, 2)
        cut = len(head) + len(long_line)
        assert split.parts == [(0, cut), (cut, path.stat().st_size)]
        assert len(want[0]) == 101

    @pytest.mark.parametrize("name", ["train.libsvm", "test.libsvm"])
    def test_bundled_data(self, name):
        self._check(DATA_DIR / name, 2)

    def test_generated_wide_file(self, tmp_path):
        path = tmp_path / "wide.libsvm"
        _gen_wide().generate(str(path), 3000, seed=3)
        want, split = self._check(path, 2)
        assert want[2] == np.int32 and split.forks == 1


def test_cuts_fall_after_line_ends(tmp_path):
    path = tmp_path / "cuts.libsvm"
    path.write_bytes(b"ab\ncd\r\nef\rgh\n")  # 13 bytes; lines start at 0, 3, 7 and 10
    with open(path, "rb") as handle:
        fd = handle.fileno()
        assert ingest._cuts(fd, 13, 2) == [0, 7, 13]  # after the '\n' of "\r\n"
        assert ingest._cuts(fd, 13, 4) == [0, 7, 13]  # never after a lone '\r'; no empty part
        assert ingest._cuts(fd, 13, 20) == [0, 3, 7, 13]
        assert ingest._cuts(fd, 0, 2) == [0]


@needs_fork
class TestPartsHygiene:
    """Every child is reaped, and writes nothing; where a split is not safe, none is made."""

    @pytest.mark.parametrize("bad", [None, 5, 395], ids=["ok", "parent-error", "child-error"])
    def test_no_child_outlives_a_load(self, tmp_path, bad, capfd):
        path = _rows_file(tmp_path / "rows.libsvm", bad=bad)
        split = _Split()
        with _split_into(2, split):
            if bad is None:
                assert len(load_libsvm(str(path))[0]) == 400
            else:
                with pytest.raises(ParseError, match=f"^{bad}:11: "):
                    load_libsvm(str(path))
        assert split.forks == 1
        _assert_no_child_left()
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("how", ["exit", "signal", "raise"])
    def test_a_failed_child_leaves_the_file_to_the_serial_parse(
        self, tmp_path, how, monkeypatch, capfd
    ):
        # only for an error: the part of a child that failed is parsed here
        parent, parse_part = os.getpid(), ingest._parse

        def fail(lines):  # a child, in the part it took from the queue
            if os.getpid() == parent:
                return parse_part(lines)
            took()
            if how == "exit":
                os._exit(3)
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("a child's own failure")

        path = _rows_file(tmp_path / "rows.libsvm", bad=395)
        good = _rows_file(tmp_path / "good.libsvm")
        monkeypatch.setattr(ingest, "_parse", fail)
        serial, parse = [], ingest.parse_libsvm
        monkeypatch.setattr(ingest, "parse_libsvm", lambda lines: serial.append(1) or parse(lines))
        with _split_into(2), _each_child_takes_a_job(monkeypatch) as (took, waited):
            with pytest.raises(ParseError, match="^395:11: malformed value 'x'$"):
                load_libsvm(str(path))
            assert len(load_libsvm(str(good))[0]) == 400
        assert waited == [True, True]  # each load's child took a part, then failed
        assert len(serial) == 1  # the bad file's, for its error; the good one's parts came back
        _assert_no_child_left()
        assert capfd.readouterr() == ("", "")

    def test_a_failed_fork_leaves_the_parts_to_the_caller_and_children(self, tmp_path, monkeypatch):
        path, fork, forks = _rows_file(tmp_path / "rows.libsvm", rows=4000), os.fork, []

        def second_fails():
            forks.append(len(forks))
            if len(forks) == 2:
                raise BlockingIOError("no process left")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        with _serial_only():
            want = _loaded(path)
        serial, parse = [], ingest.parse_libsvm
        monkeypatch.setattr(ingest, "parse_libsvm", lambda lines: serial.append(1) or parse(lines))
        with _split_into(3):
            got = _loaded(path)
        assert forks == [0, 1] and got[0] == want[0] and got[1:] == want[1:]
        assert serial == []  # this process and the one child parsed the parts
        _assert_no_child_left()

    def _assert_serial(self, path, split):
        with _serial_only():
            want = _loaded(path)
        got = _loaded(path)
        assert (split.parts, split.forks) == ([], 0) and got[0] == want[0] and got[1:] == want[1:]

    def test_a_second_thread_keeps_the_parse_serial(self, tmp_path):
        path, split, stop = _rows_file(tmp_path / "rows.libsvm"), _Split(), threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with _split_into(2, split):
                self._assert_serial(path, split)
        finally:
            stop.set()
            thread.join()
        with _split_into(2, split):
            load_libsvm(str(path))
        assert split.forks == 1  # the same load splits once the thread is gone

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
    def test_one_usable_cpu_keeps_the_parse_serial(self, tmp_path, monkeypatch):
        path, split, cpus = _rows_file(tmp_path / "rows.libsvm"), _Split(), os.sched_getaffinity(0)
        monkeypatch.setattr(ingest, "_SPLIT_BYTES", 2)
        _spy(monkeypatch, split)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            self._assert_serial(path, split)
        finally:
            os.sched_setaffinity(0, cpus)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_a_fifo_keeps_the_parse_serial(self, tmp_path):
        path, fifo, split = _rows_file(tmp_path / "rows.libsvm"), tmp_path / "rows.fifo", _Split()
        os.mkfifo(fifo)
        copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
        writer = subprocess.Popen([sys.executable, "-c", copy, str(path), str(fifo)])
        try:
            with _split_into(2, split):
                data, _ = load_libsvm(str(fifo))
        finally:
            try:
                assert writer.wait(timeout=60) == 0
            finally:  # a writer still blocked, as when the load failed before opening the FIFO
                writer.kill()
                writer.wait()
        with _serial_only():
            assert data == load_libsvm(str(path))[0]
        assert (split.parts, split.forks) == ([], 0)

    def test_a_small_file_is_cut_into_few_parts(self, tmp_path, monkeypatch):
        # 64 usable CPUs, but a part of at least _SPLIT_BYTES // 2 bytes each
        path = _rows_file(tmp_path / "rows.libsvm", rows=96_200)
        assert 1.1 * 2**20 < path.stat().st_size < 1.5 * ingest._SPLIT_BYTES
        split = _Split()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        _spy(monkeypatch, split)
        with _serial_only():
            want = _loaded(path)
        got = _loaded(path)
        assert len(split.parts) == 2 and split.forks == 1
        assert got[0] == want[0] and got[1:] == want[1:]
        _assert_no_child_left()

