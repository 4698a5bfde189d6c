"""The one place kpem forks: run independent jobs on the process's CPUs.

fork_map(fn, jobs) returns [fn(*job) for job in jobs], in job order.  Let
p be the smaller of the number of CPUs in the process's affinity
(os.sched_getaffinity) and the number of jobs.  With p >= 2, this process
runs every p-th job, from the first, while p - 1 workers forked from it
run the others, so p processes are busy and this one does not wait idle;
which jobs it runs depends on p alone, so a profiler here sees the same
jobs on every run.  With p < 2 it runs every job, one after another.

The workers inherit `fn` and the jobs through the fork: only a job's index
goes to a worker, so a large array a job reads is never pickled, and only
its result comes back.  No worker outlives the call, and a job's
exception is raised here with its own type, whether the job ran here or
in a worker.  While the pool is up, a nested fork_map (a job of this
process, or of a worker, which inherits the state) runs its jobs in the
calling process: one pool is busy at a time and a worker never forks.
The pool modules are imported only when a pool starts.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Sequence

# the workers' jobs go to them in this many chunks per worker: few enough
# that the pool's feeding thread, which waits for the interpreter lock while
# this process runs its own jobs, keeps every worker busy, and enough that
# the workers balance their load and an error drops most unstarted jobs
CHUNKS_PER_WORKER = 8

# (fn, jobs) of the pool that is up, inherited by its workers through the
# fork; None when no pool is up
_RUNNING: Optional[tuple[Callable[..., Any], Sequence[tuple]]] = None


def _run_jobs(indices: Sequence[int]) -> list:
    fn, jobs = _RUNNING
    return [fn(*jobs[i]) for i in indices]


def fork_map(fn: Callable[..., Any], jobs: Sequence[tuple]) -> list:
    """[fn(*job) for job in jobs] on up to every CPU in the process's
    affinity, as the module docstring sets out."""
    global _RUNNING
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    procs = min(cpus, len(jobs))
    if procs < 2 or _RUNNING is not None:
        return [fn(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    theirs = [i for i in range(len(jobs)) if i % procs]
    size = -(-len(theirs) // (CHUNKS_PER_WORKER * (procs - 1)))
    _RUNNING = (fn, jobs)  # set before the first submit forks the workers
    pool = ProcessPoolExecutor(procs - 1, mp_context=multiprocessing.get_context("fork"))
    try:
        chunks = [pool.submit(_run_jobs, theirs[at:at + size])
                  for at in range(0, len(theirs), size)]
        mine = [fn(*jobs[i]) for i in range(0, len(jobs), procs)]
        got = dict(zip(theirs, (value for chunk in chunks for value in chunk.result())))
        got.update(zip(range(0, len(jobs), procs), mine))
        return [got[i] for i in range(len(jobs))]
    finally:
        # on an error, the chunks not yet started are dropped; every worker is joined
        pool.shutdown(cancel_futures=True)
        _RUNNING = None
