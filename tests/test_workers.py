"""Tests for the engine that runs jobs in forked children, and for where it lives."""

import ast
import contextlib
import io
import os
import select
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trish import _workers

SOURCES = Path(__file__).resolve().parents[1] / "src" / "trish"
needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="no fork or CPU affinity calls",
)


@contextlib.contextmanager
def _each_child_takes_a_job(patch):
    """This process waits, after each fork of _workers._fork, until the
    child has taken a job from _run_split's queue (up to 30 s).  Yields
    (took, waited): a job calls took() first in a child, and waited gets
    True for each child that did so in time."""
    read_end, write_end = os.pipe()
    fork, waited = _workers._fork, []

    def forked(send, cpu):
        child = fork(send, cpu)
        ready = select.select([read_end], [], [], 30)[0]
        waited.append(bool(ready) and os.read(read_end, 1) == b"x")
        return child

    patch.setattr(_workers, "_fork", forked)
    try:
        yield lambda: os.write(write_end, b"x"), waited
    finally:
        os.close(read_end)
        os.close(write_end)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _result(job):
    """A job's result: objects, and arrays of several dtypes and layouts, the
    last one contiguous, of 800 bytes."""
    return job, f"job {job}", [
        np.arange(job + 1) / 7,
        np.arange(-job, job, dtype=np.int32),
        np.arange(job, dtype=np.int64) << 40,
        np.empty(0),
        np.arange(40.0)[job::3],  # not contiguous
        np.asfortranarray(np.arange(6.0).reshape(2, 3) * job),
        np.arange(100.0) + job,
    ]


def _as_sent(result):
    """A result's objects, and each array's dtype, shape and bytes."""
    job, name, arrays = result
    return job, name, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@needs_fork
class TestRunSplit:
    """Each job's result comes back as run returned it, whichever process ran
    it, and no child outlives the call."""

    def _run_split(self, monkeypatch):
        """_run_split's (pid, result) of six jobs on two processes, the child taking one first."""
        parent = os.getpid()
        with _each_child_takes_a_job(monkeypatch) as (took, waited):

            def run(job):
                if os.getpid() != parent:
                    took()
                return os.getpid(), _result(job)

            results = _workers._run_split(run, list(range(6)), [1] * 6, 2)
        assert waited == [True]
        want = [_as_sent(_result(job)) for job in range(6)]
        assert [_as_sent(result) for _, result in results] == want
        _assert_no_child_left()
        return results

    def test_arrays_come_back_with_their_dtype_shape_and_bytes(self, monkeypatch):
        assert any(pid != os.getpid() for pid, _ in self._run_split(monkeypatch))

    def test_a_childs_array_is_read_once_into_its_own_memory(self, monkeypatch):
        """This process's peak across the call, while a child sends it an 8 MiB
        array, is that array and little more: no second copy of its bytes."""
        parent, size = os.getpid(), 1 << 20
        with _each_child_takes_a_job(monkeypatch) as (took, waited):

            def run(job):  # the child takes job 0 first: the queue's first, read before ours
                if job or os.getpid() == parent:
                    return None
                took()
                return np.arange(float(size))

            tracemalloc.start()
            try:
                results = _workers._run_split(run, [0, 1], [1, 1], 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert waited == [True] and results[1] is None
        np.testing.assert_array_equal(results[0], np.arange(float(size)))
        assert peak <= 1.25 * results[0].nbytes
        _assert_no_child_left()

    def test_a_payload_cut_inside_a_buffer_runs_the_childs_jobs_here(self, monkeypatch):
        fork = _workers._fork

        def cut(send, cpu):  # a child that sends all but the last 100 bytes of its last array
            def send_cut(pipe):
                sent = io.BytesIO()
                send(sent)
                pipe.write(sent.getvalue()[:-100])

            return fork(send_cut, cpu)

        monkeypatch.setattr(_workers, "_fork", cut)
        assert {pid for pid, _ in self._run_split(monkeypatch)} == {os.getpid()}

    @pytest.mark.parametrize(
        "end", [0, 5, -1], ids=["nothing", "inside-the-frame-header", "all-but-stop"]
    )
    def test_a_pickle_cut_anywhere_runs_the_childs_jobs_here(self, end, monkeypatch):
        # cut at 0 bytes, loading raises EOFError; at the other two, UnpicklingError
        fork = _workers._fork

        def cut(send, cpu):  # a child that sends its pickle up to end
            def send_cut(pipe):
                sent = io.BytesIO()
                send(sent)
                pipe.write(sent.getvalue()[:end])

            return fork(send_cut, cpu)

        monkeypatch.setattr(_workers, "_fork", cut)
        assert {pid for pid, _ in self._run_split(monkeypatch)} == {os.getpid()}

    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyboardInterrupt()])
    def test_an_exception_in_the_parents_share_reaps_the_children(self, error, monkeypatch):
        parent, fork, forks = os.getpid(), _workers._fork, []
        monkeypatch.setattr(_workers, "_fork", lambda send, cpu: forks.append(1) or fork(send, cpu))

        def run(job):  # this process raises in its first job
            if os.getpid() == parent:
                raise error
            time.sleep(60)  # a child still in its job; only a kill ends it in time

        start = time.perf_counter()
        with pytest.raises(type(error)) as raised:
            _workers._run_split(run, list(range(3)), [1] * 3, 3)
        assert raised.value is error and len(forks) == 2
        assert time.perf_counter() - start < 30
        _assert_no_child_left()


def _tree(name):
    return ast.parse((SOURCES / name).read_text(encoding="utf-8"))


def test_the_engine_has_one_home():
    """Only _workers forks and defines _run_split; ingest keeps no process
    machinery, and harness takes only load_libsvm from ingest."""
    forks, run_splits = set(), []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Attribute) and node.attr in ("fork", "pipe"):
                if isinstance(node.value, ast.Name) and node.value.id == "os":
                    forks.add(path.name)
            if isinstance(node, ast.FunctionDef) and node.name == "_run_split":
                run_splits.append(path.name)
    assert forks == {"_workers.py"} and run_splits == ["_workers.py"]
    ingest_imports = {
        alias.name
        for node in ast.walk(_tree("ingest.py"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not ingest_imports & {"pickle", "threading"}
    from_ingest = [
        alias.name
        for node in ast.walk(_tree("harness.py"))
        if isinstance(node, ast.ImportFrom) and node.module in ("ingest", "trish.ingest")
        for alias in node.names
    ]
    assert from_ingest == ["load_libsvm"]
