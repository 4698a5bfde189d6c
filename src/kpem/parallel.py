"""The one place kpem forks: run independent jobs on the process's CPUs.

fork_map(fn, jobs) returns [fn(*job) for job in jobs], in job order.  Let
p be the smaller of the number of CPUs in the process's affinity
(os.sched_getaffinity) and the number of jobs.  With p >= 2, this process
runs every p-th job, from the first, while p - 1 children forked from it
run the others, child w the jobs w, w + p, ..., so p processes are busy
and this one does not wait idle; which jobs it runs depends on p alone, so
a profiler here sees the same jobs on every run.  With p < 2 it runs every
job, one after another.

The children inherit `fn` and the jobs through the fork, so a large array a
job reads is never pickled: each child sends back one pickle, its results
or its job's exception, down its own pipe, and leaves by os._exit, so it
runs no exit handler and never flushes a buffer it inherited.  No child
outlives the call, and a job's exception is raised here with its own type,
whether the job ran here or in a child; a child that ends without sending
raises RuntimeError with its exit status.  While the children run, a nested
fork_map (a job of this process, or of a child, which inherits the state)
runs its jobs in the calling process: a child never forks.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Any, Callable, Sequence

# True while a fork_map call has children, in this process and in them
_FORKED = False


def _run_child(fn: Callable[..., Any], jobs: Sequence[tuple], write: int) -> None:
    """In a forked child: run `jobs`, write one pickled (ok, results or
    exception) to the pipe end `write` and exit, whatever happens."""
    status = 1
    try:
        try:
            sent = pickle.dumps((True, [fn(*job) for job in jobs]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # a result that cannot be pickled lands here too
            try:
                sent = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            except BaseException as err:
                sent = pickle.dumps((False, RuntimeError(
                    f"fork_map child could not send its {type(exc).__name__}: {err}")))
        with open(write, "wb") as pipe:
            pipe.write(sent)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn: Callable[..., Any], jobs: Sequence[tuple]) -> list:
    """[fn(*job) for job in jobs] on up to every CPU in the process's
    affinity, as the module docstring sets out."""
    global _FORKED
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    procs = min(cpus, len(jobs))
    if procs < 2 or _FORKED:
        return [fn(*job) for job in jobs]
    _FORKED = True
    reads: list[int] = []  # each child's pipe, read end
    running: list[int] = []  # the children not yet reaped
    try:
        for w in range(1, procs):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(fn, jobs[w::procs], write)
            finally:
                os.close(write)  # before the next fork, so only child w holds it
            running.append(pid)
        results = [None] * len(jobs)
        results[::procs] = [fn(*job) for job in jobs[::procs]]
        for w, read in enumerate(reads, 1):
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            pid = running[0]
            status = os.waitpid(pid, 0)[1]
            running.pop(0)
            if not sent:
                raise RuntimeError(f"fork_map child {pid} exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} without a result")
            ok, got = pickle.loads(sent)
            if not ok:
                raise got
            results[w::procs] = got
        return results
    finally:
        # on an error, the children still running are killed, not waited for
        _FORKED = False
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        for pid in running:
            os.waitpid(pid, 0)
        for read in reads:
            os.close(read)
