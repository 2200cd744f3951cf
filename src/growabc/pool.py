"""Process-pool map shared by the table build and the replicate study.

The calling process is one of the pool's computing processes: it forks
the others and runs jobs itself between the results it hands back, so
a pool of ``workers`` holds ``workers - 1`` forked copies of the
caller's image, not ``workers``. The pool always forks, whatever the
interpreter's default start method, so the forked processes inherit
the caller's modules and state. The calling thread alone reads and
writes the pool's state (the next job, the forked jobs in flight,
whether a job has raised), so it needs no lock and no callback.
``concurrent.futures``, and with it ``multiprocessing``, is imported
only when a pool forks.
"""

import os


def pool_map(fn, jobs, workers):
    """Yield ``fn(job)`` for each job, in order. ``workers`` <= 0 means
    one process per core; one worker or fewer than 4 jobs run serially
    in this process. Otherwise this process and
    ``min(workers, len(jobs)) - 1`` forked ones compute.

    Jobs are claimed in order. Each time this process comes back to its
    loop, after each job it runs and each result it yields, it drops the
    forked jobs that have finished, claims no more if one of them
    raised, and tops the forked processes up to two jobs each in flight,
    one running and one queued; once no more jobs are unassigned than
    there are forked processes, to one each, so that the last jobs go to
    whichever process is free first. Then it runs the next unassigned
    job itself, unless the next result in job order is ready to yield. A
    forked process that finishes both its jobs while this one runs a job
    waits for it. A job's exception is raised at its position in job order;
    once a job has raised, no further job starts, and jobs still queued
    are cancelled. ``fn`` must be a module-level function, looked up by
    name when the pool pickles it. The forked processes inherit this
    one's modules, so the caller imports what its tasks need
    (``build_reference_table`` imports their SciPy modules) before
    calling this: a module a task imports for itself is imported again
    in every forked process, for every pool."""
    if workers <= 0:
        workers = os.cpu_count() or 1
    if workers == 1 or len(jobs) < 4:
        yield from map(fn, jobs)
        return
    from concurrent.futures import Future, ProcessPoolExecutor
    from multiprocessing import get_context

    forked = min(workers, len(jobs)) - 1
    slots = [None] * len(jobs)  # each claimed job's future
    running = set()  # the forked jobs' futures not yet seen done
    claimed = 0      # jobs 0 to claimed - 1 are claimed
    stopped = False  # a job has raised: claim no more
    pool = ProcessPoolExecutor(forked, mp_context=get_context("fork"))
    try:
        for k in range(len(jobs)):
            while True:
                finished = {f for f in running if f.done()}
                running -= finished
                if any(f.exception() is not None for f in finished):
                    stopped = True
                while (not stopped and claimed < len(jobs) and len(running)
                       < forked * (2 if len(jobs) - claimed > forked else 1)):
                    slots[claimed] = pool.submit(fn, jobs[claimed])
                    running.add(slots[claimed])
                    claimed += 1
                if stopped or claimed == len(jobs) or (
                        slots[k] is not None and slots[k].done()):
                    break  # yield job k's result, waiting for it if need be
                slots[claimed] = Future()
                try:
                    slots[claimed].set_result(fn(jobs[claimed]))
                except Exception as exc:
                    stopped = True
                    slots[claimed].set_exception(exc)
                claimed += 1
            done, slots[k] = slots[k], None
            yield done.result()
    finally:
        pool.shutdown(cancel_futures=True)
