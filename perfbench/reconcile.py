"""Reconciles the committed baseline with the ROADMAP baseline table.

Usage, from the repository root:

    python3 perfbench/reconcile.py [RESULTS_DIR]

Reads the results ``<workload>_trace0.json`` and ``_trace1.json`` in
RESULTS_DIR (default perfbench/results), times ``accept_top_k_distance`` once at
B=1e5 on a generated table, and prints a markdown table of the ROADMAP
figure beside the benchmark's. A value agrees when it is within 0.75x to
1.33x of the ROADMAP figure; a share agrees within 10 percentage points.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402

from growabc.config import RunConfig  # noqa: E402
from growabc.rejection import (ReferenceTableEntry,  # noqa: E402
                               accept_top_k_distance)


def metrics(results, workload, trace):
    path = results / ("%s_trace%d.json" % (workload, trace))
    values = json.loads(path.read_text())["result"]["metrics"]
    return {k: v["value"] for k, v in values.items()}


def untraced_entry_s(results, workload):
    """Mean time of one table entry per worker, from entries_per_s."""
    return workloads.WORKERS / metrics(results, workload, 0)["entries_per_s"]


def entry_busy_s(m):
    """Mean time of one table entry inside the workers."""
    busy = (m["table.worker_busy_frac"] * workloads.WORKERS
            * m["table.build_s"])
    return busy / m["table.rows_written"], busy


def distance_seconds_at_1e5(reps=3):
    rng = np.random.default_rng(0)
    size = 100_000
    theta = rng.random((size, 2))
    ext = rng.normal(size=(size, 2)) * (1.0, 100.0) + (5.0, 500.0)
    table = [ReferenceTableEntry(i + 1, i, tuple(theta[i]), tuple(ext[i]))
             for i in range(size)]
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        accept_top_k_distance(table, (5.0, 500.0), np.array([1.0, 100.0]),
                              RunConfig().accept_k)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def verdict(kind, roadmap, ours):
    if kind == "value":
        return "agrees" if 0.75 <= ours / roadmap <= 1.33 else "DISAGREES"
    return "agrees" if abs(ours - roadmap) <= 0.10 else "DISAGREES"


def main(results):
    ls, gpa, price = (metrics(results, w, 1)
                      for w in ("dmc_ls", "dmc_gp", "price_ls"))
    ls_entry, ls_busy = entry_busy_s(ls)
    gp_entry, gp_busy = entry_busy_s(gpa)
    pr_entry, pr_busy = entry_busy_s(price)
    # growth inside table entries: all growth minus the observed networks
    ls_growth = (ls["models.grow_self_s"] + ls["summaries.evaluate_s"]
                 - ls["experiment.observed_s"])
    rows = [
        ("DMC entry, method LS (traced)", "value", 0.065, ls_entry, "s"),
        ("DMC entry, method LS (untraced)", "value", 0.065,
         untraced_entry_s(results, "dmc_ls"), "s"),
        ("DMC LS: growth share of entry time", "share", 0.5,
         ls_growth / ls_busy, ""),
        ("DMC LS: LS-fit share of entry time", "share", 0.5,
         ls["curvefit.fit_s.power"] / ls_busy, ""),
        ("DMC entry, method GPa (traced)", "value", 1.39, gp_entry, "s"),
        ("DMC entry, method GPa (untraced)", "value", 1.39,
         untraced_entry_s(results, "dmc_gp"), "s"),
        ("GPa: fit_map share of entry time", "share", 0.9,
         gpa["gp.fit_map_s"] / gp_busy, ""),
        ("GPa: Gram builds per fit_map (one series)", "value", 703.0,
         gpa["gp.gram_calls_per_fit"], "calls"),
        ("Price entry, method LS (traced)", "value", 0.147, pr_entry, "s"),
        ("Price entry, method LS (untraced)", "value", 0.147,
         untraced_entry_s(results, "price_ls"), "s"),
        ("Price LS: digamma share of entry time", "share", 0.85,
         price["curvefit.fit_s.digamma"] / pr_busy, ""),
        ("Price LS: failed entries", "share", 8 / 20,
         price["table.rows_failed"] / price["table.rows_written"], ""),
        ("Seed graph per build", "value", 0.0004,
         ls["graph.seed_ms"] / ls["graph.seed_builds"] / 1e3, "s"),
        ("accept_top_k_distance, B=1e5", "value", 0.55,
         distance_seconds_at_1e5(), "s"),
    ]
    def show(kind, value, unit):
        if kind == "share":
            return "%.0f%%" % (value * 100)
        return ("%.3g %s" % (value, unit)).strip()

    print("| figure | ROADMAP | benchmark | verdict |")
    print("|---|---|---|---|")
    for name, kind, roadmap, ours, unit in rows:
        print("| %s | %s | %s | %s |" % (
            name, show(kind, roadmap, unit), show(kind, ours, unit),
            verdict(kind, roadmap, ours)))

if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "results")
