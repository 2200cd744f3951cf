"""Process-pool map shared by the table build and the replicate study.

The calling process is one of the pool's computing processes: it forks
the others and runs jobs itself between the results it hands back, so
a pool of ``workers`` holds ``workers - 1`` forked copies of the
caller's image, not ``workers``. ``concurrent.futures``, and with it
``multiprocessing``, is imported only when a pool forks.
"""

import os


def pool_map(fn, jobs, workers):
    """Yield ``fn(job)`` for each job, in order. ``workers`` <= 0 means
    one process per core; one worker or fewer than 4 jobs run serially
    in this process. Otherwise this process and
    ``min(workers, len(jobs)) - 1`` forked ones compute.

    Jobs go out one at a time, in order, from one shared index. The
    forked processes hold two jobs each in flight, one running and one
    queued, refilled as each finishes, so that none waits on this
    process; once no more jobs are unassigned than there are forked
    processes, they hold one each, so that the last jobs go to whichever
    process is free first. This process runs the next unassigned job
    whenever it is not handing back a result. A job's exception is
    raised at its position in job order; once a job has raised, no
    further job starts, and jobs still queued are cancelled. ``fn`` must
    be a module-level function, looked up by name when the pool pickles
    it. The forked processes inherit this one's modules, so the caller
    imports what its tasks need (``build_reference_table`` imports their
    SciPy modules) before calling this: a module a task imports for
    itself is imported again in every forked process, for every pool."""
    if workers <= 0:
        workers = os.cpu_count() or 1
    if workers == 1 or len(jobs) < 4:
        yield from map(fn, jobs)
        return
    import threading
    from concurrent.futures import Future, ProcessPoolExecutor

    forked = min(workers, len(jobs)) - 1
    # one lock over the shared index and the submissions; reentrant, for
    # a future that is done already runs its callback in the adding thread
    lock = threading.RLock()
    slots = [None] * len(jobs)  # each assigned job's Future
    next_job = 0   # the shared index
    in_flight = 0  # jobs submitted to the forked processes, not finished
    stopped = False

    def claim():
        # the next unassigned job's index, or None; called with the lock
        nonlocal next_job
        if stopped or next_job == len(jobs):
            return None
        next_job += 1
        return next_job - 1

    def top_up():
        # called with the lock
        nonlocal in_flight
        while in_flight < forked * (2 if len(jobs) - next_job > forked
                                    else 1):
            i = claim()
            if i is None:
                return
            in_flight += 1
            slots[i] = pool.submit(fn, jobs[i])
            slots[i].add_done_callback(refill)

    def refill(done):
        # runs in the pool's result thread as each forked job finishes;
        # a failed job takes no lock, since its future can be failed
        # with the pool's own lock held
        nonlocal stopped, in_flight
        if done.cancelled() or done.exception() is not None:
            stopped = True
            return
        with lock:
            in_flight -= 1
            top_up()

    pool = ProcessPoolExecutor(max_workers=forked)
    try:
        with lock:
            top_up()
        for k in range(len(jobs)):
            while slots[k] is None or not slots[k].done():
                with lock:
                    i = claim()
                if i is None:  # every job is assigned: wait for job k
                    break
                slots[i] = Future()
                try:
                    slots[i].set_result(fn(jobs[i]))
                except Exception as exc:
                    stopped = True
                    slots[i].set_exception(exc)
            done, slots[k] = slots[k], None
            yield done.result()
    finally:
        with lock:
            stopped = True
        pool.shutdown(cancel_futures=True)
