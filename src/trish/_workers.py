"""The one engine that runs work on other CPUs, in forked children.

_run_split(run, jobs, costs, processes) gives [run(job) for job in jobs],
run by this process and a child per other process.  The parser's parts
(ingest.load_libsvm) and tune's blocks (harness.tune_grid) are its jobs,
each caller cutting its own.  _processes gives the usable CPUs when a
split is safe (os.fork and CPU affinity calls exist, and no other thread
runs, since fork copies only the calling thread), else 1.  The jobs wait
in one queue, longest first by cost: a pipe of job indices, each read
whole by one process, so each process takes the next job as soon as it
is free.  A child (_fork) runs off the caller's CPU with warnings as
errors, leaves by os._exit, and dumps its results down its pipe as one
protocol-5 pickle, which this process loads straight from the pipe: each
array's bytes are read once, into the memory the array then wraps.  This
process then runs every job whose result did not come back (taken by a
child that failed in any way, so its pickle is cut short, or past the
queue's 1024), so every result, and any error a job raises, is the
serial loop's.  Every child is killed and reaped in one place,
_reaping, before _run_split returns or raises; a child that has already
exited is unmoved by the signal.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from contextlib import contextmanager, suppress
from typing import BinaryIO, Callable, Iterator


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
    """A dict for forked children, each pid to its pipe's read end.  When
    the block ends, however it ends, each child's pipe is closed and the
    child killed (SIGKILL) and reaped; one that has already exited is a
    zombie, which the signal leaves as it is."""
    children: dict[int, BinaryIO] = {}
    try:
        yield children
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL on Linux, where splits run (_processes): no signal import
            os.waitpid(pid, 0)


def _run_split(run: Callable, jobs: list, costs: list, processes: int) -> list:
    """[run(job) for job in jobs] on `processes` processes: this one, and a
    child forked by _fork for each other, as the module docstring says."""
    # At most 1024 indices of 4 bytes: one page, which every pipe holds, so the write never blocks.
    order = sorted(range(len(jobs)), key=lambda j: -costs[j])[:1024]
    read_end, write_end = os.pipe()
    results = {}
    with open(read_end, "rb", buffering=0) as queue, _reaping() as children:
        with open(write_end, "wb") as feed:  # closed before any fork: the queue ends when empty
            feed.write(b"".join(j.to_bytes(4, "little") for j in order))

        def march():  # (index, result) of each job this process takes from the queue
            taken = []
            while entry := queue.read(4):
                j = int.from_bytes(entry, "little")
                taken.append((j, run(jobs[j])))
            return taken

        cpu = _this_cpu()
        for _ in range(processes - 1):
            try:
                pid, pipe = _fork(lambda pipe: pickle.dump(march(), pipe, 5), cpu)
            except OSError:  # no process to spare: the others take the queue
                break
            children[pid] = pipe
        results.update(march())
        for pipe in children.values():
            with suppress(EOFError, pickle.UnpicklingError):  # cut short: the child failed
                results.update(pickle.load(pipe))
    return [results[j] if j in results else run(jobs[j]) for j in range(len(jobs))]
