"""Strict LIBSVM-format ingestion.

One example per line: `<label> <index>:<value> ...` with 1-based,
strictly increasing indices no larger than 2^63 - 1.  Blank lines and
lines whose first non-space character is '#' are skipped.  Anything
else malformed raises ParseError carrying the exact line:column
position; silent repairs (duplicate indices, reordered indices,
non-finite values) are refused on purpose, since they usually mean the
file is not what the user thinks it is.

Lines are read in blocks of 256 (_BLOCK_LINES).  Each block is parsed
into four block-local buffers (labels, row ends, 0-based columns,
values), which are then appended to the file's four flat arrays; these
become one LibsvmData, which wraps them without a copy.  The file's
columns are int32, half the memory of int64; they widen once to int64
when an index passes 2^31 - 1.  A plain block, ASCII lines that are
each blank or a label and index:value pairs of digits, signs, '.', 'e'
and 'E' separated by spaces, tabs or carriage returns, is recognised by
one regex pass (an atomic group of possessive runs, which needs Python
3.11) and parsed with numpy in one pass, its numbers converted by
numpy's C text reader.  Every other block goes through the line parser,
and so does a plain block whose numbers fail a check: a token the
reader refuses, a non-finite number, an index below 1 or from 2^53 up,
indices that do not rise within a row.  The line parser is the
reference: both paths give the same arrays, and only the line parser
reports errors, so the first error in file order is the one reported,
at its exact position.  Memory is one 256-line block plus the four flat
arrays, with no object per example, and time is linear in the input
size.  Each file is read once; a byte that is not UTF-8 is an error
like any other.

load_libsvm parses a regular file of at least _SPLIT_BYTES (1 MiB, about
where splitting starts to pay) in parts, one per usable CPU, when there
are two or more and the process runs no other thread, since fork copies
only the calling thread; any other input (a smaller file, a FIFO,
/dev/stdin) takes the serial parse.  Each part ends at the first '\n'
at or after an equal byte share of the file.  The first part is parsed
in the calling process, streamed; each other part in a forked child,
moved off the caller's CPU, which sends its four arrays down a pipe to
be appended to the caller's as a block's are, so each process holds one
block plus its arrays and each entry is held once.  The arrays are the
serial parse's, bit for bit.  A child that fails in any way leaves the
whole file to the serial parse, so an error is the serial parse's, at
the same position, and every child is reaped before load_libsvm returns
or raises.  A host with only one free CPU gains nothing from the split.
The rules of when to split (_processes), how a child is forked, placed
and left (_fork) and how every child is reaped (_reaping) are shared
with harness.tune_grid, which splits its blocks the same way; each keeps
its own payload.
"""

from __future__ import annotations

import io
import os
import re
import stat
import threading
import warnings
from array import array
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from itertools import islice, pairwise, repeat
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "ParseError",
    "LibsvmData",
    "DatasetStats",
    "parse_libsvm",
    "load_libsvm",
    "serialize_libsvm",
    "dataset_stats",
]

_TOKEN = re.compile(r"\S+")
_INDEX = re.compile(r"[0-9]+\Z")
_INDEX_MAX = str(2**63 - 1)  # the largest index; every column fits an int64
_INT32_MAX = 2**31 - 1  # the file's columns are int32 while no index passes it
# a byte that is not UTF-8, as the surrogateescape handler decodes it
_UNDECODED = re.compile("[\udc80-\udcff]")

_BLOCK_LINES = 256  # the lines parsed at once; bounds the token strings alive
_SPLIT_BYTES = 1 << 20  # a regular file from this size is parsed in parts, one per usable CPU
_PIPE_CHUNK = 1 << 18  # the bytes of a part's arrays appended at once; a multiple of 8
# A plain block: each line blank or `label index:value ...`, every line
# ending in '\n'.  Each run of a class is followed by a character the class
# excludes, so a line can match in one way only and giving back characters
# never helps: the possessive quantifiers and the atomic group match what
# greedy ones would, in one pass, and the re engine keeps no backtracking
# state for a line once it matches, where it would keep ~150 bytes per
# pair to the end of the block (1.4 MB for a gen_wide block).
_PLAIN = re.compile(
    r"(?>[ \t\r]*+(?:[-+.0-9eE]++(?:[ \t\r]++[0-9]++:[-+.0-9eE]++)*+[ \t\r]*+)?+\n)*+"
)
_EXACT_INDEX = 2.0**53  # every integer below it is exact as a float
_TO_SPACES = str.maketrans(":\n\r", "   ")  # a plain block as one line of numbers


class ParseError(ValueError):
    """Malformed LIBSVM input; str() renders as 'line:column: reason'."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"{line}:{column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason
        self.path: str | None = None  # filled in when parsing from disk


@dataclass(frozen=True, eq=False)
class LibsvmData:
    """Parsed examples in compressed sparse rows: a label per row, and row
    i's 0-based columns, rising strictly within [0, width), and their
    values at entries indptr[i] to indptr[i + 1] - 1."""

    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    width: int

    def __post_init__(self) -> None:
        for name in ("labels", "indptr", "indices", "values"):
            dtype = float if name in ("labels", "values") else None
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "width", int(self.width))
        indptr, indices, nnz = self.indptr, self.indices, self.values.size
        shapes = (self.labels.ndim, self.values.ndim, indptr.shape, indices.shape)
        integers = np.result_type(indptr, indices).kind in "iu"
        if shapes != (1, 1, (len(self) + 1,), (nnz,)) or not integers:
            n = len(self)
            raise ValueError(f"{n} rows need {n + 1} integer row pointers and a column per value")
        if indptr[0] != 0 or indptr[-1] != nnz or (indptr[1:] < indptr[:-1]).any():
            raise ValueError(f"row pointers must start at 0, never fall and end at {nnz}")
        if self.width < 0 or nnz and not 0 <= indices.min() <= indices.max() < self.width:
            raise ValueError(f"columns must lie in [0, {self.width})")
        # a column not above its predecessor must start a row
        falls = np.flatnonzero(indices[1:] <= indices[:-1]) + 1
        if (indptr[np.searchsorted(indptr, falls)] != falls).any():
            raise ValueError("columns must rise strictly within each row")

    def __len__(self) -> int:
        return self.labels.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LibsvmData):
            return NotImplemented
        return self.width == other.width and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("labels", "indptr", "indices", "values")
        )


def _parse_float(token: str, lineno: int, column: int, what: str) -> float:
    # float() tolerates '1_0' and 'nan'; neither belongs in a data file.
    if "_" in token:
        raise ParseError(lineno, column, f"malformed {what} '{token}'")
    try:
        value = float(token)
    except ValueError:
        raise ParseError(lineno, column, f"malformed {what} '{token}'") from None
    if not np.isfinite(value):
        raise ParseError(lineno, column, f"non-finite {what} '{token}'")
    return value


def _above_index_max(digits: str) -> bool:
    """Whether a digit string exceeds 2^63 - 1, decided without int() on it."""
    digits = digits.lstrip("0")
    return (len(digits), digits) > (len(_INDEX_MAX), _INDEX_MAX)


def _parse_lines(lines: list[str], first_lineno: int, out: tuple[array, ...]) -> int:
    """The line parser: append `lines`, the first numbered `first_lineno`,
    to the four buffers in `out`; returns the largest index among them."""
    labels, indptr, columns, values = out
    max_index = 0
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line.isascii() and (found := _UNDECODED.search(line)):
            byte = ord(found.group()) - 0xDC00
            raise ParseError(lineno, found.start() + 1, f"byte 0x{byte:02x} is not UTF-8")
        tokens = _TOKEN.finditer(line)
        first = next(tokens, None)
        if first is None or first.group().startswith("#"):
            continue
        labels.append(_parse_float(first.group(), lineno, first.start() + 1, "label"))
        prev = 0
        for tok in tokens:
            column = tok.start() + 1
            head, sep, tail = tok.group().partition(":")
            if not sep or not head or not tail:
                raise ParseError(
                    lineno, column, f"malformed index:value pair '{tok.group()}'"
                )
            if not _INDEX.match(head):
                raise ParseError(lineno, column, f"malformed index '{head}'")
            if len(head) >= len(_INDEX_MAX) and _above_index_max(head):
                raise ParseError(lineno, column, f"index above {_INDEX_MAX}")
            index = int(head)
            if index < 1:
                raise ParseError(lineno, column, f"index {index} below 1")
            if index == prev:
                raise ParseError(lineno, column, f"duplicate index {index}")
            if index < prev:
                raise ParseError(
                    lineno, column, f"non-increasing index {index} after {prev}"
                )
            values.append(_parse_float(tail, lineno, column + len(head) + 1, "value"))
            columns.append(index - 1)
            prev = index
        indptr.append(len(columns))
        if prev > max_index:
            max_index = prev
    return max_index


def _joined(block: list[str]) -> str | None:
    """The block as one text in which each element is one line ending in a
    newline, or None when an element holds a newline before its end."""
    text = "".join(block)
    newlines = text.count("\n")
    if newlines == 0:  # elements without line ends, as from a list
        return "\n".join(block) + "\n"
    if not text.endswith("\n"):  # the last line of a file without a final newline
        text += "\n"
        newlines += 1
    # each element ends in '\n', so a count of one per element leaves none inside
    if newlines == len(block) and all(map(str.endswith, block[:-1], repeat("\n"))):
        return text
    return None


def _parse_plain(block: list[str], out: tuple[array, ...]) -> int | None:
    """Parse a plain block with numpy, appending it to the buffers in
    `out`; returns its largest index, or None, having appended nothing,
    to leave the block to the line parser."""
    text = _joined(block)
    if text is None or not text.isascii() or not _PLAIN.fullmatch(text):
        return None
    spaced = text.translate(_TO_SPACES)
    numbers = np.empty(0)
    if not spaced.isspace():  # loadtxt warns on a block with no number
        try:
            numbers = np.loadtxt([spaced], dtype=float, comments=None, ndmin=1)
        except ValueError:  # a token that float() refuses, such as '.' or '1-2'
            return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(raw[:-1] == ord("\n")) + 1))
    # the regex leaves only separators at or below ' ', so a line with a
    # byte above it has a label, and each ':' is one index:value pair
    has_label = np.logical_or.reduceat(raw > ord(" "), starts)
    colons = np.flatnonzero(raw == ord(":"))
    pairs = np.diff(np.searchsorted(colons, np.append(starts, raw.size)))[has_label]
    row_ends = np.cumsum(pairs)
    row_starts = row_ends - pairs
    n_pairs = int(pairs.sum())
    if numbers.size != pairs.size + 2 * n_pairs or not np.isfinite(numbers).all():
        return None
    at_label = np.arange(pairs.size) + 2 * row_starts
    index_value = np.delete(numbers, at_label)
    index, value = index_value[0::2], index_value[1::2]
    if not ((index >= 1) & (index < _EXACT_INDEX)).all():
        return None
    first_in_row = np.zeros(n_pairs, dtype=bool)
    first_in_row[row_starts[pairs > 0]] = True
    if not (first_in_row[1:] | (np.diff(index) > 0)).all():
        return None
    labels, indptr, columns, values = out
    indptr.frombytes((row_ends + len(columns)).tobytes())
    columns.frombytes((index.astype(np.int64) - 1).tobytes())
    labels.frombytes(numbers[at_label].tobytes())
    values.frombytes(value.tobytes())
    return int(index.max()) if n_pairs else 0


def _append(block: tuple[array, ...], out: list[array]) -> None:
    """Append a block's four buffers to the file's in `out`: its row ends
    shifted past the file's columns, its columns cast to their type."""
    labels, indptr, columns, values = out
    block_labels, row_ends, block_columns, block_values = block
    labels.extend(block_labels)
    indptr.frombytes((np.frombuffer(row_ends, dtype=np.int64) + len(columns)).tobytes())
    columns.frombytes(
        np.frombuffer(block_columns, dtype=np.int64).astype(columns.typecode).tobytes()
    )
    values.extend(block_values)


def _widened(columns: array) -> array:
    """The int32 columns as int64."""
    wide = array("q")
    wide.frombytes(np.frombuffer(columns, dtype=np.int32).astype(np.int64).tobytes())
    return wide


def _parse(lines: Iterable[str]) -> tuple[list[array], int]:
    """parse_libsvm's four flat arrays (labels, row pointers, columns,
    values) and the largest index, before numpy wraps them."""
    out = [array("d"), array("q", [0]), array("i"), array("d")]
    max_index = 0
    lines = iter(lines)
    lineno = 1
    while block := list(islice(lines, _BLOCK_LINES)):
        block_out = array("d"), array("q"), array("q"), array("d")
        block_max = _parse_plain(block, block_out)
        if block_max is None:
            block_max = _parse_lines(block, lineno, block_out)
        if block_max > _INT32_MAX >= max_index:
            out[2] = _widened(out[2])
        max_index = max(max_index, block_max)
        _append(block_out, out)
        lineno += len(block)
    return out, max_index


def parse_libsvm(lines: Iterable[str]) -> tuple[LibsvmData, int]:
    """Parse an iterable of text lines; returns (data, max_index).

    max_index is the largest feature index seen anywhere, 0 for an empty
    dataset, and data.width.  When a dataset has train and test splits,
    take the max over both so the two agree.  A byte that is not UTF-8,
    as errors="surrogateescape" decodes it, is a ParseError on any line,
    comment lines included.
    """
    out, max_index = _parse(lines)
    # numpy wraps the four buffers without copying them
    return LibsvmData(*out, max_index), max_index


def _this_cpu() -> int | None:
    """The CPU the calling thread runs on (field 39 of its Linux stat line), or None."""
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as stat_line:
            return int(stat_line.read().rsplit(")", 1)[1].split()[36])
    except OSError:
        return None


def _run_off(cpu: int | None) -> None:
    """Move the calling thread onto the process's CPUs other than cpu, if it has any."""
    with suppress(OSError, AttributeError):  # one CPU, or no affinity calls: stay put
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})


class _Range(io.RawIOBase):
    """Bytes start to end of the open file fd, read at their offsets, so
    processes that share the descriptor never move each other's position."""

    def __init__(self, fd: int, start: int, end: int):
        self._fd, self._at, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view:
            read = os.preadv(self._fd, [view[: self._end - self._at]], self._at)
        self._at += read
        return read


def _lines(fd: int, start: int, end: int) -> io.TextIOWrapper:
    """The lines of bytes start to end of fd, decoded as load_libsvm decodes a file."""
    raw = io.BufferedReader(_Range(fd, start, end))
    return io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")


def _line_end(fd: int, at: int, size: int) -> int:
    """The offset just past the first '\n' of fd at or after at, or size."""
    while at < size and (chunk := os.pread(fd, 1 << 16, at)):
        if (newline := chunk.find(b"\n")) >= 0:
            return at + newline + 1
        at += len(chunk)
    return size


def _cuts(fd: int, size: int, parts: int) -> list[int]:
    """The bounds of the file's parts, each a run of whole lines: 0, the
    line end at or after each of the parts - 1 equal byte shares, and
    size, with no part empty."""
    ends = {_line_end(fd, size * part // parts, size) for part in range(1, parts)}
    return sorted({0, size} | ends)


def _processes() -> int:
    """The processes a split may use: the usable CPUs, when os.fork and
    os.sched_getaffinity exist and the process runs no other thread, since
    fork copies only the calling thread, so another one's locks could stay
    held; otherwise 1."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() != 1:
        return 1
    return len(os.sched_getaffinity(0))


def _fork(send: Callable[[BinaryIO], None], cpu: int | None) -> tuple[int, BinaryIO]:
    """Fork a child, moved off cpu, that calls send with the write end of a
    new pipe, warnings turned into errors; returns its pid and the pipe's
    read end, for _reaping to hold.  The child writes nothing else, and
    leaves by os._exit, with 0 only once send has returned, so no exception
    and no exit handler runs past it.  A failed fork raises OSError and
    leaves no pipe open."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            warnings.simplefilter("error")  # a warning is a failure, left to the caller to redo
            _run_off(cpu)
            with open(write_end, "wb") as pipe:
                send(pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


@contextmanager
def _reaping() -> Iterator[dict[int, BinaryIO]]:
    """A dict for forked children, each pid to its pipe's read end.  Once a
    child's pipe is read, _reap waits for it; each child still held when
    the block ends, however it ends, is killed (SIGKILL) and reaped, and
    its pipe closed."""
    children: dict[int, BinaryIO] = {}
    try:
        yield children
    finally:
        if children:
            from signal import SIGKILL  # ~1 ms to import, for splits that fail only

        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _reap(children: dict[int, BinaryIO], pid: int) -> None:
    """Wait for a child whose pipe has been read, and close the pipe."""
    os.waitpid(pid, 0)
    children.pop(pid).close()


def _fork_part(fd: int, start: int, end: int, cpu: int | None) -> tuple[int, BinaryIO]:
    """_fork a child that parses bytes start to end of fd and sends its
    rows, entries, largest index and column width, then its four arrays
    (the row pointers without their leading 0)."""

    def send(pipe: BinaryIO) -> None:
        with _lines(fd, start, end) as lines:
            (labels, indptr, columns, values), max_index = _parse(lines)
        pipe.write(array("q", [len(labels), len(values), max_index, columns.itemsize]))
        for part in labels, memoryview(indptr)[1:], columns, values:
            pipe.write(part)

    return _fork(send, cpu)


def _take(pipe: BinaryIO, into: array, count: int, typecode: str, shift: int = 0) -> None:
    """Append count items of typecode from pipe to `into`, each plus
    shift and cast to into's type, _PIPE_CHUNK bytes at a time."""
    left = count * array(typecode).itemsize
    while left:
        chunk = pipe.read(min(left, _PIPE_CHUNK))
        if not chunk:
            raise EOFError("a part ended early")
        left -= len(chunk)
        if shift or typecode != into.typecode:
            chunk = np.frombuffer(chunk, dtype=typecode) + shift
            chunk = chunk.astype(into.typecode, copy=False).tobytes()
        into.frombytes(chunk)


def _receive(pipe: BinaryIO, out: list[array], max_index: int) -> int:
    """Append a child's part from pipe to the file's four arrays in
    `out`, as _append appends a block; returns the new largest index."""
    head = pipe.read(4 * 8)
    if len(head) != 4 * 8:
        raise EOFError("a part sent no arrays")
    rows, entries, part_max, width = array("q", head)
    if part_max > _INT32_MAX >= max_index:
        out[2] = _widened(out[2])
    labels, indptr, columns, values = out
    _take(pipe, labels, rows, "d")
    _take(pipe, indptr, rows, "q", shift=len(columns))
    _take(pipe, columns, entries, "q" if width == 8 else "i")
    _take(pipe, values, entries, "d")
    return max(max_index, part_max)


def _load_in_parts(path: str) -> tuple[LibsvmData, int] | None:
    """load_libsvm's result for a regular file of at least _SPLIT_BYTES,
    its first part parsed here and each other part in a forked child, one
    part per usable CPU (_processes); None, having left no child, to leave
    the file to the serial parse: when a split is not safe or not worth
    it, and when a child fails in any way, so that any error is the serial
    parse's."""
    try:
        info = os.stat(path)  # not open: opening a FIFO would wait for a writer
    except OSError:
        return None
    if not stat.S_ISREG(info.st_mode) or info.st_size < _SPLIT_BYTES:
        return None
    with open(path, "rb") as handle, _reaping() as children:
        fd = handle.fileno()
        cuts = _cuts(fd, os.fstat(fd).st_size, _processes())
        if len(cuts) < 3:  # one part: one process, or one line
            return None
        cpu = _this_cpu()
        for start, end in pairwise(cuts[1:]):
            try:
                pid, pipe = _fork_part(fd, start, end, cpu)
            except OSError:
                return None
            children[pid] = pipe
        with _lines(fd, 0, cuts[1]) as lines:
            out, max_index = _parse(lines)
        for pid in list(children):
            try:
                max_index = _receive(children[pid], out, max_index)
            except EOFError:  # the child failed before it sent all
                return None
            _reap(children, pid)
    return LibsvmData(*out, max_index), max_index


def load_libsvm(path: str) -> tuple[LibsvmData, int]:
    """parse_libsvm over a file on disk; parse errors carry the path.

    A regular file of at least _SPLIT_BYTES is parsed in parts at once
    when the process may use two CPUs or more and runs no other thread
    (_load_in_parts), with the serial parse's arrays and errors; it is
    read again, whole, only when a part fails.
    """
    try:
        loaded = _load_in_parts(path)
        if loaded is not None:
            return loaded
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            return parse_libsvm(handle)
    except ParseError as exc:
        exc.path = path
        raise


def serialize_libsvm(data: LibsvmData) -> str:
    """Canonical text form: single spaces, shortest round-trip floats.

    parse_libsvm(serialize_libsvm(data)) reproduces data exactly, and
    serializing again yields byte-identical text.
    """
    pairs = [f"{j}:{v!r}" for j, v in zip((data.indices + 1).tolist(), data.values.tolist())]
    bounds = data.indptr.tolist()
    return "".join(
        " ".join([repr(label), *pairs[lo:hi]]) + "\n"
        for label, lo, hi in zip(data.labels.tolist(), bounds, bounds[1:])
    )


@dataclass(frozen=True)
class DatasetStats:
    """Row count, largest index, stored entries, and fraction of positive labels."""

    count: int
    max_index: int
    nnz: int
    label_balance: float

    def as_dict(self) -> dict:
        return asdict(self)


def dataset_stats(data: LibsvmData) -> DatasetStats:
    """Summary statistics; an empty dataset reports zeros across the board."""
    columns, n = data.indices, len(data)
    return DatasetStats(
        count=n,
        max_index=int(columns.max()) + 1 if columns.size else 0,
        nnz=columns.size,
        label_balance=int(np.count_nonzero(data.labels > 0)) / n if n else 0.0,
    )
