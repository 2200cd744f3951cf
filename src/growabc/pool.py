"""Process-pool map shared by the table build and the replicate study."""

import os
from concurrent.futures import ProcessPoolExecutor


def pool_map(fn, jobs, workers):
    """Yield ``fn(job)`` for each job, in order. ``workers`` <= 0 means
    one process per core; one worker or fewer than 4 jobs run serially
    in this process. Jobs go to the workers one at a time, so a worker
    that finishes early takes the next job. ``fn`` must be a
    module-level function, looked up by name when the pool pickles it."""
    if workers <= 0:
        workers = os.cpu_count() or 1
    if workers == 1 or len(jobs) < 4:
        yield from map(fn, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, jobs)
