"""Peak RSS of the program's pool workers.

``install`` wraps the two tasks the program's ProcessPoolExecutor runs,
``table._build_entry`` and ``experiment._observed_for``, at the module
attributes the pool pickles them by. Forked workers inherit the
wrappers. After a task, a worker whose peak RSS (``getrusage``
``ru_maxrss``) has grown since its last report sends (pid, peak) to the
main process over a pipe; a worker reports a few times in all, so the
pipe never fills. Tasks the program runs in the main process report
nothing: the main process's own peak is counted apart.
"""

import functools
import multiprocessing
import os
import resource

from growabc import experiment, table

TASKS = ((table, "_build_entry"), (experiment, "_observed_for"))

_queue = None
_saved = []


def _reporting(fn, queue, main_pid):
    last = [0]  # this process's last reported peak; copied at fork

    @functools.wraps(fn)
    def task(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if os.getpid() != main_pid:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if peak > last[0]:
                    last[0] = peak
                    queue.put((os.getpid(), peak))

    return task


def install():
    global _queue
    _queue = multiprocessing.SimpleQueue()
    for module, attr in TASKS:
        fn = getattr(module, attr)
        _saved.append((module, attr, fn))
        setattr(module, attr, _reporting(fn, _queue, os.getpid()))


def uninstall():
    global _queue
    while _saved:
        module, attr, fn = _saved.pop()
        setattr(module, attr, fn)
    if _queue is not None:
        _queue.close()
        _queue = None


def pool_peak_kb():
    """Sum over the workers that reported since the last call of each
    one's peak RSS in KiB. Call it after an API call has returned, when
    its pool has shut down; 0 when nothing reported or not installed."""
    peaks = {}
    while _queue is not None and not _queue.empty():
        pid, kb = _queue.get()
        peaks[pid] = max(kb, peaks.get(pid, 0))
    return sum(peaks.values())
