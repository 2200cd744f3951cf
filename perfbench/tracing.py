"""Span tracing for the benchmark's traced runs.

Spans are recorded only from the benchmark's own code: ``Tracer.install``
replaces public functions of growabc's modules with timing wrappers, at
the names their callers look up (``from ... import`` bindings are
patched in the importing module). A span is a tuple

    (span_id, parent_id, name, start, end, entry, attrs)

with ``perf_counter`` times, which share one clock across processes.
Spans of one table entry share its ``entry`` id. Spans are kept in
memory. Pool workers are forked with the patches in place; after each
task a worker sends its spans to the main process over a pipe, where a drain
thread collects them until ``Tracer.close``.

Two private functions are wrapped as well, because they are the tasks
the pool runs: ``table._build_entry`` (one table entry) and
``experiment._observed_for`` (one observed network).
"""

import functools
import multiprocessing
import os
import threading
import time
from collections import defaultdict

from growabc import curvefit, experiment, gp, models, table

FAMILIES = ("power", "inverse", "digamma")


def _plan_nodes(attrs, args, kwargs):
    seed, _, plan = args[:3]
    attrs["nodes"] = plan.n_target - seed.node_count


def _draws(attrs, args, kwargs):
    attrs["draws"] = int(args[2])


def _family(attrs, args, kwargs):
    attrs["family"] = args[2]


def _converged(attrs, result):
    attrs["converged"] = bool(result.converged)


def _scored(attrs, args, kwargs):
    attrs["scored"] = len(args[0])


def _fills(attrs, result):
    attrs["fills"] = result.zero_density_fills


def _rows_loaded(attrs, result):
    attrs["rows"] = len(result[0]) + result[1]


def _entry_failed(attrs, result):
    attrs["failed"] = bool(result[-1])


def _build_entry_id(args):
    return args[0][1]


def _observed_id(args):
    _, truth_idx, rep = args[0]
    return "observed-%d-%d" % (truth_idx, rep)


# (module, attribute, span name, on_call, on_return)
SPAN_POINTS = (
    (table, "er_seed", "graph.seed", None, None),
    (table, "directed_seed", "graph.seed", None, None),
    (table, "grow_dmc", "models.grow", _plan_nodes, None),
    (table, "grow_price", "models.grow", _plan_nodes, None),
    (models, "preferential_sample", "models.preferential_sample", _draws,
     None),
    (models, "evaluate", "summaries.evaluate", None, None),
    (table, "evaluate", "summaries.evaluate", None, None),
    (curvefit, "fit_series", "curvefit.fit", _family, _converged),
    (curvefit, "extrapolate", "curvefit.extrapolate", None, None),
    (gp, "fit_map", "gp.fit_map", None, None),
    (gp, "predict", "gp.predict", None, None),
    (gp, "summary_correlation", "gp.correlation", None, None),
    (experiment, "accept_top_k_distance", "rejection.distance", _scored,
     None),
    (experiment, "accept_top_k_density", "rejection.density", _scored,
     _fills),
    (experiment, "standardization_sds", "rejection.sds", None, None),
    (table, "build_reference_table", "table.build", None, None),
    (experiment, "build_reference_table", "table.build", None, None),
    (table, "load_reference_table", "table.load", None, _rows_loaded),
    (experiment, "load_reference_table", "table.load", None, _rows_loaded),
    (experiment, "run_abc", "experiment.abc", None, None),
    (experiment, "run_experiment", "experiment.run_experiment", None, None),
    (experiment, "abc_run", "experiment.abc_run", None, None),
)

# pool tasks: (module, attribute, span name, entry id of the task, on_return)
TASK_POINTS = (
    (table, "_build_entry", "table.entry", _build_entry_id, _entry_failed),
    (experiment, "_observed_for", "experiment.observed", _observed_id, None),
)


class Tracer:
    """Records spans while installed; ``close`` restores the program's
    functions and returns every span, the workers' included."""

    def __init__(self):
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        self._spans = []
        self._stack = []
        self._entry = None
        self._seq = 0
        self._saved = []
        self._received = []
        self._queue = multiprocessing.SimpleQueue()
        self._drain = threading.Thread(target=self._drain_loop, daemon=True)

    def _drain_loop(self):
        while True:
            batch = self._queue.get()
            if batch is None:
                return
            self._received.extend(batch)

    def install(self):
        self._drain.start()
        for module, attr, name, on_call, on_return in SPAN_POINTS:
            self._patch(module, attr, self._wrap(
                getattr(module, attr), name, on_call, on_return))
        for module, attr, name, entry_of, on_return in TASK_POINTS:
            self._patch(module, attr, self._wrap(
                getattr(module, attr), name, None, on_return,
                entry_of=entry_of))
        self._patch(gp, "gram_matrix", self._count_grams(gp.gram_matrix))
        return self

    def close(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        self._queue.put(None)
        self._drain.join()
        self._queue.close()
        return self._spans + self._received

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, fn, name, on_call, on_return, entry_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            is_task = entry_of is not None
            if is_task and os.getpid() != tracer._pid:
                # first task in a forked worker: drop the main process's spans
                tracer._pid = os.getpid()
                tracer._spans = []
            tracer._seq += 1
            sid = (tracer._pid, tracer._seq)
            parent = tracer._stack[-1][0] if tracer._stack else None
            if is_task:
                tracer._entry = entry_of(args)
            attrs = {}
            if on_call is not None:
                on_call(attrs, args, kwargs)
            tracer._stack.append((sid, attrs))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(attrs, result)
                return result
            except Exception:
                attrs["raised"] = True
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._spans.append(
                    (sid, parent, name, start, end, tracer._entry, attrs))
                if is_task:
                    tracer._entry = None
                    if tracer._pid != tracer.owner_pid:
                        tracer._queue.put(tracer._spans)
                        tracer._spans = []

        return wrapper

    def _count_grams(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._stack:
                attrs = tracer._stack[-1][1]
                attrs["grams"] = attrs.get("grams", 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, ()), start, end)
            for sid, _, _, start, end, _, _ in spans}


def layer_metrics(spans, passes, workers):
    """Per-layer metrics from the spans of ``passes`` traced passes:
    counts and times per pass, plus ratios of totals."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def n(name):
        return len(by_name[name])

    def dur(name):
        return sum(end - start for _, _, _, start, end, _, _ in by_name[name])

    def attr_sum(name, key):
        return sum(s[6].get(key, 0) for s in by_name[name])

    grow_self = sum(selfs[s[0]] for s in by_name["models.grow"])
    nodes = attr_sum("models.grow", "nodes")
    fits = n("gp.fit_map")
    build_s = dur("table.build")
    busy_s = dur("table.entry")
    totals = {
        "graph.seed_builds": n("graph.seed"),
        "graph.seed_ms": dur("graph.seed") * 1e3,
        "models.nodes_grown": nodes,
        "models.grow_self_s": grow_self,
        "models.preferential_draws": attr_sum("models.preferential_sample",
                                              "draws"),
        "models.preferential_sample_s": dur("models.preferential_sample"),
        "summaries.evaluate_calls": n("summaries.evaluate"),
        "summaries.evaluate_s": dur("summaries.evaluate"),
        "curvefit.extrapolate_failures": attr_sum("curvefit.extrapolate",
                                                  "raised"),
        "gp.fit_map_calls": fits,
        "gp.fit_map_s": dur("gp.fit_map"),
        "gp.predict_s": dur("gp.predict"),
        "gp.correlation_s": dur("gp.correlation"),
        "rejection.entries_scored": (attr_sum("rejection.distance", "scored")
                                     + attr_sum("rejection.density",
                                                "scored")),
        "rejection.distance_s": dur("rejection.distance"),
        "rejection.density_s": dur("rejection.density"),
        "rejection.sds_s": dur("rejection.sds"),
        "rejection.zero_density_fills": attr_sum("rejection.density",
                                                 "fills"),
        "table.build_s": build_s,
        "table.rows_written": n("table.entry"),
        "table.rows_failed": attr_sum("table.entry", "failed"),
        "table.load_s": dur("table.load"),
        "table.rows_loaded": attr_sum("table.load", "rows"),
        "experiment.observed_calls": n("experiment.observed"),
        "experiment.observed_s": dur("experiment.observed"),
        "experiment.abc_s": dur("experiment.abc"),
    }
    for family in FAMILIES:
        fam = [s for s in by_name["curvefit.fit"]
               if s[6].get("family") == family]
        totals["curvefit.fits." + family] = len(fam)
        totals["curvefit.fit_s." + family] = sum(s[4] - s[3] for s in fam)
        totals["curvefit.unconverged." + family] = sum(
            not s[6].get("converged", True) for s in fam)
    metrics = {k: v / passes for k, v in totals.items()}
    metrics["models.grow_us_per_node"] = (grow_self / nodes * 1e6
                                          if nodes else 0.0)
    metrics["gp.gram_calls_per_fit"] = (attr_sum("gp.fit_map", "grams") / fits
                                        if fits else 0.0)
    metrics["table.worker_busy_frac"] = (busy_s / (workers * build_s)
                                         if build_s else 0.0)
    return metrics


# every per-layer metric, in report order, with its unit
LAYER_UNITS = {
    "graph.seed_builds": "count",
    "graph.seed_ms": "ms",
    "models.nodes_grown": "count",
    "models.grow_self_s": "s",
    "models.grow_us_per_node": "us",
    "models.preferential_draws": "count",
    "models.preferential_sample_s": "s",
    "summaries.evaluate_calls": "count",
    "summaries.evaluate_s": "s",
    **{"curvefit.%s.%s" % (kind, family): unit
       for family in FAMILIES
       for kind, unit in (("fits", "count"), ("fit_s", "s"),
                          ("unconverged", "count"))},
    "curvefit.extrapolate_failures": "count",
    "gp.fit_map_calls": "count",
    "gp.fit_map_s": "s",
    "gp.gram_calls_per_fit": "count",
    "gp.predict_s": "s",
    "gp.correlation_s": "s",
    "rejection.entries_scored": "count",
    "rejection.distance_s": "s",
    "rejection.density_s": "s",
    "rejection.sds_s": "s",
    "rejection.zero_density_fills": "count",
    "table.build_s": "s",
    "table.rows_written": "count",
    "table.rows_failed": "count",
    "table.worker_busy_frac": "ratio",
    "table.load_s": "s",
    "table.rows_loaded": "count",
    "experiment.observed_calls": "count",
    "experiment.observed_s": "s",
    "experiment.abc_s": "s",
    "trace.overhead_frac": "ratio",
}
