"""Experiment runner: ABC acceptance against a reference table,
replicate simulation studies, and timing reports."""

import csv
import json
import os
import time
from dataclasses import replace

import numpy as np

from .config import DENSITY_METHODS, config_hash
from .errors import ConfigError
from .graph import count_triangles, induced_triangles, sample_nodes
from .models import GrowthPlan
from .pool import pool_map
from .rejection import (
    accept_top_k_density,
    accept_top_k_distance,
    columns_of,
    posterior_stats,
    standardization_sds,
    draw_prior,
)
from .seeding import aux_seed, fill_seed, observed_seed
from .table import (
    build_reference_table,
    grow_to,
    load_reference_table,
    simulate_observed,
)


def compute_sds(cfg, entries):
    """Per-summary standardization sds, from the extrapolated table
    values or from auxiliary full-size simulations."""
    if cfg.standardization == "extrapolated":
        return standardization_sds(columns_of(entries).ext).sds
    vectors = []
    for i in range(cfg.aux_count):
        rng = np.random.default_rng(aux_seed(cfg.master_seed, i))
        theta = draw_prior(cfg.prior_box(), rng)
        vectors.append(simulate_observed(cfg, theta, rng))
    return standardization_sds(vectors).sds


def _checked_table(cfg, table_path, out_dir, workers, resume):
    """Validate, build the table (resume it, or build only a missing one)
    and load it, refusing an interrupted table, one with fewer usable
    rows than ``accept_k``, or one with fewer than 2 when its rows give
    the standardization sds; returns (entries, failed count, sds), the
    sds None for the density methods, which read none."""
    cfg.validate()
    if cfg.accept_k > cfg.table_size:
        raise ConfigError("accept_k exceeds table_size")
    os.makedirs(out_dir, exist_ok=True)
    if resume or not os.path.exists(table_path):
        build_reference_table(cfg, table_path, workers=workers)
    entries, failed, _ = load_reference_table(table_path, config_hash(cfg))
    if len(entries) + failed < cfg.table_size:
        raise ConfigError(
            "%s holds %d of %d rows; resume it with build-table"
            % (table_path, len(entries) + failed, cfg.table_size))
    if cfg.accept_k > len(entries):
        raise ConfigError("accept_k exceeds the usable table size")
    if cfg.method in DENSITY_METHODS:
        return entries, failed, None
    if cfg.standardization == "extrapolated" and len(entries) < 2:
        raise ConfigError("%s holds %d usable rows; the sds need 2"
                          % (table_path, len(entries)))
    return entries, failed, compute_sds(cfg, entries)


def write_json(path, obj):
    """Write ``obj`` as key-sorted, indented JSON ending in a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_abc(cfg, entries, observed, sds, fill_rng=None):
    """One acceptance pass with the configured method."""
    k = cfg.accept_k
    if cfg.method not in DENSITY_METHODS:
        return accept_top_k_distance(entries, observed, sds, k,
                                     method=cfg.method)
    inflate = 1.0 if cfg.method == "GPa" else cfg.inflate
    if fill_rng is None:
        fill_rng = np.random.default_rng(fill_seed(cfg.master_seed, 0, 0))
    return accept_top_k_density(entries, observed, k, inflate, fill_rng,
                                method=cfg.method)


def _observed_for(args):
    cfg, truth_idx, rep = args
    truth = cfg.truth_list()[truth_idx]
    rng = np.random.default_rng(observed_seed(cfg.master_seed, truth_idx,
                                              rep))
    return truth_idx, rep, simulate_observed(cfg, truth, rng)


def run_experiment(cfg, out_dir, workers=None):
    """Replicate simulation study: per truth, simulate observed
    networks at n_o, run acceptance against a shared table, and report
    posterior-mean averages, SD, and RMSE.

    Writes table.csv (reused if present), posterior_means.csv, and
    experiment_stats.json under ``out_dir``.
    """
    # also builds the seed graph, which the observed runs' workers inherit
    entries, failed, sds = _checked_table(
        cfg, os.path.join(out_dir, "table.csv"), out_dir, workers, True)

    truths = cfg.truth_list()
    jobs = [(cfg, t, r) for t in range(len(truths))
            for r in range(cfg.exp_replicates)]
    workers = cfg.workers if workers is None else workers
    observed_results = list(pool_map(_observed_for, jobs, workers))

    names = cfg.theta_names()
    means_path = os.path.join(out_dir, "posterior_means.csv")
    per_truth = {t: [] for t in range(len(truths))}
    fills_total = 0
    with open(means_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["truth_idx", "replicate"]
                        + ["true_%s" % n for n in names]
                        + ["mean_%s" % n for n in names])
        for truth_idx, rep, observed in observed_results:
            fill_rng = np.random.default_rng(
                fill_seed(cfg.master_seed, truth_idx, rep))
            posterior = run_abc(cfg, entries, observed, sds, fill_rng)
            fills_total += posterior.zero_density_fills
            mean = posterior.thetas().mean(axis=0)
            per_truth[truth_idx].append(mean)
            writer.writerow([str(truth_idx), str(rep)]
                            + [repr(v) for v in truths[truth_idx]]
                            + [repr(float(v)) for v in mean])

    report = {
        "method": cfg.method,
        "n_o": cfg.n_o,
        "n_s": cfg.n_s,
        "table_size": cfg.table_size,
        "failed_entries": failed,
        "zero_density_fills": fills_total,
        "truths": [],
    }
    for truth_idx, truth in enumerate(truths):
        arr = np.asarray(per_truth[truth_idx], dtype=float)
        avg = arr.mean(axis=0)
        sd = arr.std(axis=0)  # population sd, so rmse^2 = sd^2 + bias^2
        bias = avg - np.asarray(truth)
        rmse = np.sqrt(sd ** 2 + bias ** 2)
        report["truths"].append({
            "truth": list(truth),
            "avg_posterior_mean": avg.tolist(),
            "sd": sd.tolist(),
            "rmse": rmse.tolist(),
            "bias": bias.tolist(),
        })
    write_json(os.path.join(out_dir, "experiment_stats.json"), report)
    return report


def abc_run(cfg, table_path, out_dir, observed=None, workers=None):
    """Single acceptance run against an existing (or new) table.

    ``observed``: summary vector; if None, the study's first replicate
    (truth 0, replicate 0) is simulated. Writes posterior.csv and
    stats.json. An interrupted table is refused, not resumed.
    """
    entries, failed, sds = _checked_table(cfg, table_path, out_dir, workers,
                                          False)
    truth = None
    if observed is None:
        truth = cfg.truth_list()[0]
        observed = _observed_for((cfg, 0, 0))[2]
    posterior = run_abc(cfg, entries, observed, sds)

    names = cfg.theta_names()
    post_path = os.path.join(out_dir, "posterior.csv")
    with open(post_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "entry_id"] + list(names) + ["score"])
        for rank, ((theta, score), entry_id) in enumerate(
                zip(posterior.accepted, posterior.entry_ids), start=1):
            writer.writerow([str(rank), str(entry_id)]
                            + [repr(float(t)) for t in theta]
                            + [repr(float(score))])
    stats = posterior_stats(posterior, truth=truth)
    stats["failed_entries"] = failed
    stats["observed"] = [float(v) for v in observed]
    write_json(os.path.join(out_dir, "stats.json"), stats)
    return posterior


def _time_entry_build(cfgs, reps):
    """Mean seconds per entry build for each config in ``cfgs``. Entries
    1..reps are built in turn for every config, the first config
    rotating, so a drift in the host's speed hits all configs alike.
    As in ``timeit``, the garbage collector is off while a build is
    timed: a full collection of a large caller's heap (tens of ms) would
    otherwise land in whichever build its allocations happen to fall."""
    import gc

    from .table import _build_entry

    totals = [0.0] * len(cfgs)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for b in range(1, reps + 1):
            for i in np.roll(np.arange(len(cfgs)), b):
                start = time.perf_counter()
                _build_entry((cfgs[i], b))
                totals[i] += time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return [total / reps for total in totals]


def _time_observed_summary(cfg, reps):
    """Seconds to compute the triangle summary on a full n_o network,
    from scratch, vs on an induced subsample."""
    rng = np.random.default_rng(observed_seed(cfg.master_seed, 0, 0))
    theta = draw_prior(cfg.prior_box(), rng)
    _, g = grow_to(cfg, theta, rng, GrowthPlan(cfg.n_o))
    start = time.perf_counter()
    for _ in range(reps):
        count_triangles(g)
    full = (time.perf_counter() - start) / reps
    start = time.perf_counter()
    for _ in range(reps):
        induced_triangles(g, sample_nodes(g, cfg.n_star, rng))
    sub = (time.perf_counter() - start) / reps
    return full, sub


def timing_report(cfg, out_path, n_o_list=None, table_sizes=(10, 100),
                  methods=("S", "LS")):
    """Wall-clock shape report: per-entry build time per method and
    n_o, observed-summary time full vs subsampled, and projected total
    pipeline time per table size."""
    cfg.validate()
    if n_o_list is None:
        n_o_list = [cfg.n_o]
    for n_o in n_o_list:  # refuse a bad n_o before timing anything
        replace(cfg, n_o=n_o).validate()
    if cfg.n_star > min(n_o_list):
        raise ConfigError("n_star=%d exceeds n_o=%d, the network the "
                          "subsampled summary is timed on"
                          % (cfg.n_star, min(n_o_list)))
    reps = max(1, cfg.timing_reps)
    rows = []
    for n_o in n_o_list:
        per_entry = dict(zip(methods, _time_entry_build(
            [replace(cfg, method=m, n_o=n_o) for m in methods], reps)))
        for method in methods:
            rows.append(("entry_build", method, n_o, "",
                         repr(per_entry[method])))
        full, sub = _time_observed_summary(replace(cfg, n_o=n_o), reps)
        rows.append(("observed_summary", "full", n_o, "", repr(full)))
        rows.append(("observed_summary", "subsampled", n_o, "", repr(sub)))
        for size in table_sizes:
            for method in methods:
                total = per_entry[method] * size + full
                rows.append(("total", method, n_o, size, repr(total)))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "method", "n_o", "table_size", "seconds"])
        for row in rows:
            writer.writerow([str(v) for v in row])
    return rows
