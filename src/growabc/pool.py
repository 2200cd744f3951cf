"""Process-pool map shared by the table build and the replicate study."""

import os
from concurrent.futures import ProcessPoolExecutor


def pool_map(fn, jobs, workers, chunksize=1):
    """Yield ``fn(job)`` for each job, in order. ``workers`` <= 0 means
    one process per core; one worker or fewer than 4 jobs run serially
    in this process. ``fn`` must be a module-level function, looked up
    by name when the pool pickles it."""
    if workers <= 0:
        workers = os.cpu_count() or 1
    if workers == 1 or len(jobs) < 4:
        yield from map(fn, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, jobs, chunksize=chunksize)
