"""Correctness checks on the program's outputs.

Each check returns a list of error strings; an empty list means the
check passed. The acceptance oracle is independent of the program's
rejection code: NumPy distances ranked with ``lexsort`` on
(distance, entry_id), and NumPy densities ranked on (-density,
entry_id) for their positive part.
"""

import csv
from collections import namedtuple

import numpy as np

from growabc.config import config_hash

TableArrays = namedtuple(
    "TableArrays", ["header_hash", "ids", "theta", "ext", "var", "corr",
                    "failed"])

# Largest posterior-mean RMSE per parameter accepted on each build
# workload at full size, pooled over every replicate of a run's passes:
# 1.5 x the largest pooled value seen over the 5-11 tuning runs per
# workload, rounded up (results/BASELINE.md).
RMSE_TOLERANCE = {
    "dmc_ls": (0.05, 0.20),
    "dmc_gp": (0.075, 0.27),
    "price_ls": (1.9, 0.0022),
}


def read_posterior_ids(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = header.index("entry_id")
        return [int(row[col]) for row in reader if row]


def _usable(arrays):
    ok = ~arrays.failed
    return arrays.ids[ok], arrays.ext[ok], ok


def oracle_distance_ids(arrays, observed, k):
    """Ids of the k nearest usable entries by standardized Euclidean
    distance, sds taken from the usable entries' summaries."""
    ids, ext, _ = _usable(arrays)
    sds = ext.std(axis=0, ddof=1)
    sds = np.where(sds == 0.0, 1.0, sds)
    z = (ext - np.asarray(observed, dtype=float)) / sds
    dist = np.sqrt(np.einsum("ij,ij->i", z, z))
    order = np.lexsort((ids, dist))
    return ids[order[:k]].tolist()


def oracle_densities(arrays, observed, inflate):
    """Reconstructed bivariate-normal densities of the usable entries."""
    ids, ext, ok = _usable(arrays)
    v1, v2 = arrays.var[ok, 0], arrays.var[ok, 1]
    corr = arrays.corr[ok]
    z1 = (observed[0] - ext[:, 0]) / np.sqrt(v1 * inflate)
    z2 = (observed[1] - ext[:, 1]) / np.sqrt(v2 * inflate)
    omc = 1.0 - corr * corr
    quad = (z1 * z1 - 2.0 * corr * z1 * z2 + z2 * z2) / omc
    norm = 2.0 * np.pi * inflate * np.sqrt(v1 * v2 * omc)
    with np.errstate(under="ignore"):
        return ids, np.exp(-0.5 * quad) / norm


def accepted_ids_errors(arrays, cfg, observed, ids, fills):
    """Compare accepted entry ids (in rank order) with the oracle."""
    k = cfg.accept_k
    ids = [int(i) for i in ids]
    tag = "%s acceptance for observed %s" % (cfg.method, list(observed))
    if len(ids) != k:
        return ["%s: %d ids accepted, expected %d" % (tag, len(ids), k)]
    if cfg.method in ("S", "LS", "RE", "GPc"):
        want = oracle_distance_ids(arrays, observed, k)
        if ids != want:
            return ["%s: accepted ids %s differ from the oracle %s"
                    % (tag, ids, want)]
        return []
    inflate = 1.0 if cfg.method == "GPa" else cfg.inflate
    all_ids, dens = oracle_densities(arrays, observed, inflate)
    pos = dens > 0.0
    order = np.lexsort((all_ids[pos], -dens[pos]))
    want = all_ids[pos][order][:k].tolist()
    errors = []
    if ids[:len(want)] != want:
        errors.append("%s: positive-density ids %s differ from the oracle %s"
                      % (tag, ids[:len(want)], want))
    if fills != k - len(want):
        errors.append("%s: %d zero-density fills, expected %d"
                      % (tag, fills, k - len(want)))
    zero_ids = set(all_ids[~pos].tolist())
    filled = ids[len(want):]
    if len(set(filled)) != len(filled) or not set(filled) <= zero_ids:
        errors.append("%s: fills %s are not distinct zero-density entries"
                      % (tag, filled))
    return errors


def table_errors(arrays, cfg, report):
    """Every entry has a row, failed rows included, under the config
    hash; the study counted the failed rows."""
    errors = []
    if arrays.header_hash != config_hash(cfg):
        errors.append("table header hash %s != config hash %s"
                      % (arrays.header_hash, config_hash(cfg)))
    want = list(range(1, cfg.table_size + 1))
    if sorted(arrays.ids.tolist()) != want:
        errors.append("table rows are not entries 1..%d" % cfg.table_size)
    if report is not None and report["failed_entries"] != int(
            arrays.failed.sum()):
        errors.append("study counted %d failed entries, table has %d"
                      % (report["failed_entries"], int(arrays.failed.sum())))
    return errors


def pooled_rmse(per_pass):
    """RMSE per parameter over every replicate of the run's passes,
    from each pass's RMSE over its replicates (all passes have the same
    replicate count)."""
    return np.sqrt(np.mean(np.square(per_pass), axis=0)).tolist()


def rmse_errors(workload, cfg, rmse, tiny):
    """Posterior-mean RMSE per parameter within the recorded tolerance.
    At the smoke-test size the bound is the prior box width."""
    if tiny:
        tol = tuple(h - l for l, h in zip(cfg.prior_low, cfg.prior_high))
    else:
        tol = RMSE_TOLERANCE[workload]
    errors = []
    for name, value, bound in zip(cfg.theta_names(), rmse, tol):
        if not value <= bound:
            errors.append("posterior-mean RMSE of %s is %r > %r"
                          % (name, value, bound))
    return errors


def identity_errors(records):
    """Passes with one master seed must write byte-identical
    table.csv and posterior_means.csv; at least one pair must exist."""
    first = {}
    errors = []
    compared = 0
    for rec in records:
        seen = first.setdefault(rec.master_seed, rec)
        if seen is rec:
            continue
        compared += 1
        if not seen.digests or seen.digests != rec.digests:
            errors.append("passes %d and %d (master seed %d) wrote different "
                          "outputs" % (seen.index, rec.index, rec.master_seed))
    if not compared:
        errors.append("no two passes share a master seed: byte identity "
                      "was not checked")
    return errors
