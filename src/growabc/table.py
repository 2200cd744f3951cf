"""Reference-table construction and CSV persistence.

One row per prior draw: the parameters, the per-entry RNG seed, and the
extrapolated (or, for method S, exact) summary values at n_o; GP-based
methods additionally store predictive variances and the inter-summary
correlation. An entry fails only when its fit does (``NotConverged``,
``SingularKernel`` or ``OverflowError``): it then writes nan values and
``failed=1``. Any other exception stops the build, and
``RunConfig.validate`` refuses an invalid config before any entry is
built; an edge-list seed file is read, and so checked, by the first
entry. Rows are written incrementally and builds are resumable by entry
id, guarded by a config hash in the header comment. Resuming cuts off a
last row without its newline (a build killed mid-write), and reading
refuses a row whose field count differs from the header's.
"""

import csv
import math
import os

import numpy as np

from . import curvefit, gp
from .config import GP_METHODS, config_hash
from .errors import ConfigError, NotConverged, SingularKernel
from .graph import er_seed
from .ingest import read_edge_list, seed_subgraph
from .models import GrowthPlan, directed_seed, grow_dmc, grow_price
from .pool import pool_map
from .rejection import ReferenceTableEntry, draw_prior
from .seeding import mix_seed
from .summaries import evaluate


def build_seed_graph(cfg):
    if cfg.seed_type == "edgelist":
        g, node_ts = read_edge_list(cfg.seed_path,
                                    directed=cfg.model == "price")
        if cfg.seed_cutoff is None:
            return g
        return seed_subgraph(g, node_ts, cfg.seed_cutoff)
    if cfg.model == "price":
        return directed_seed(cfg.seed_n, cfg.seed_p, cfg.seed_rng)
    return er_seed(cfg.seed_n, cfg.seed_p, cfg.seed_rng)


def grow_to(cfg, theta, rng, n_target, checkpoints, specs):
    """Grow the configured model to n_target, tracking the given
    summaries; returns (TrackedSeries, final graph)."""
    seed = build_seed_graph(cfg)
    plan = GrowthPlan(n_target=n_target, checkpoints=tuple(checkpoints),
                      summaries=tuple(specs))
    grow = grow_dmc if cfg.model == "dmc" else grow_price
    return grow(seed, cfg.growth_params(theta), plan, rng, return_graph=True)


def simulate_observed(cfg, theta, rng):
    """Full-size simulation: summary vector of a model draw at n_o."""
    specs = cfg.summary_specs()
    _, g = grow_to(cfg, theta, rng, cfg.n_o, (), ())
    return tuple(evaluate(spec, g, rng) for spec in specs)


def _entry_values(cfg, theta, rng):
    """Extrapolated summaries (plus GP fields) for one table entry."""
    specs = cfg.summary_specs()
    if cfg.method == "S":
        return simulate_observed(cfg, theta, rng), None, None

    series, _ = grow_to(cfg, theta, rng, cfg.n_s, cfg.checkpoints(), specs)
    grid = np.asarray(series.checkpoints, dtype=float)
    if cfg.method not in GP_METHODS:  # LS and RE
        ext = []
        for spec in specs:
            family = curvefit.DEFAULT_FAMILY_BY_KIND[spec.kind]
            fit = curvefit.fit_series(grid, series.column(spec.name), family)
            ext.append(curvefit.extrapolate(fit, cfg.n_o))
        return tuple(ext), None, None

    # GP methods: power-law mean initialized from the least-squares fit
    fits, means, variances = [], [], []
    for spec in specs:
        col = series.column(spec.name)
        ls = curvefit.fit_series(grid, col, "power")
        kspec = gp.KernelSpec(cfg.kernel,
                              gp.DEFAULT_WARP_BY_KIND[spec.kind])
        fit = gp.fit_map(grid, col, kspec, ls)
        pred = gp.predict(fit, cfg.n_o)
        fits.append(fit)
        means.append(pred.mean)
        variances.append(pred.variance)
    if len(specs) == 2:
        corr = gp.summary_correlation(
            fits, [series.column(s.name) for s in specs]).value
    else:
        corr = 0.0
    return tuple(means), tuple(variances), corr


def _build_entry(args):
    cfg, entry_id = args
    seed_val = mix_seed(cfg.master_seed, entry_id)
    rng = np.random.default_rng(seed_val)
    theta = draw_prior(cfg.prior_box(), rng)
    try:
        ext, gpvars, gpcorr = _entry_values(cfg, theta, rng)
        return (entry_id, seed_val, theta, ext, gpvars, gpcorr, False)
    except (NotConverged, SingularKernel, OverflowError):
        # only a fit fails an entry; any other fault stops the build
        nans = (math.nan,) * len(cfg.summary_specs())
        return (entry_id, seed_val, theta, nans, nans, math.nan, True)


def table_columns(cfg):
    names = [s.name for s in cfg.summary_specs()]
    cols = ["entry_id", "rng_seed"] + list(cfg.theta_names())
    cols += ["ext_%s" % n for n in names]
    if cfg.method in GP_METHODS:
        cols += ["gpvar_%s" % n for n in names] + ["gp_corr"]
    cols.append("failed")
    return cols


def _format_row(cfg, result):
    entry_id, seed_val, theta, ext, gpvars, gpcorr, failed = result
    values = list(theta) + list(ext)
    if cfg.method in GP_METHODS:
        values += list(gpvars) + [gpcorr]
    return ([str(entry_id), str(seed_val)]
            + [repr(float(v)) for v in values] + [str(int(failed))])


def _table_rows(path, expected_hash=None):
    """Yield a table's header row, then its data rows. Checks the
    ``# config=`` line against ``expected_hash`` when one is given;
    raises ConfigError on a row whose field count is not the header's."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# config="):
            raise ConfigError("%s has no config hash line" % path)
        found = first.strip().split("=", 1)[1]
        if expected_hash is not None and found != expected_hash:
            raise ConfigError(
                "config hash mismatch: table %s vs config %s"
                % (found, expected_hash))
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError("%s has no header row" % path)
        yield header
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(
                    "%s line %d: %d fields, the header has %d"
                    % (path, reader.line_num + 1, len(row), len(header)))
            yield row


def build_reference_table(cfg, out_path, workers=None):
    """Build (or resume) the reference table CSV; returns the path."""
    cfg.validate()
    chash = config_hash(cfg)
    done = set()
    if os.path.exists(out_path):
        with open(out_path, "rb+") as fh:  # drop a row torn mid-write
            fh.truncate(fh.read().rfind(b"\n") + 1)
        if os.path.getsize(out_path) > 0:
            rows = _table_rows(out_path, chash)
            next(rows)  # header
            done = {int(row[0]) for row in rows}
    jobs = [(cfg, b) for b in range(1, cfg.table_size + 1) if b not in done]

    with open(out_path, "a" if done else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not done:
            fh.write("# config=%s\n" % chash)
            writer.writerow(table_columns(cfg))
        workers = cfg.workers if workers is None else workers
        for result in pool_map(_build_entry, jobs, workers):
            writer.writerow(_format_row(cfg, result))
    return out_path


def load_reference_table(path, expected_hash=None):
    """Read a table CSV back into ReferenceTableEntry objects.

    Returns (entries, failed_count, header columns). Failed rows are
    excluded from the entries but counted.
    """
    entries = []
    failed = 0
    rows = _table_rows(path, expected_hash)
    header = next(rows)
    theta_cols = [i for i, c in enumerate(header)
                  if not c.startswith(("entry_id", "rng_seed", "ext_",
                                       "gpvar_", "gp_corr", "failed"))]
    ext_cols = [i for i, c in enumerate(header) if c.startswith("ext_")]
    var_cols = [i for i, c in enumerate(header) if c.startswith("gpvar_")]
    corr_col = header.index("gp_corr") if "gp_corr" in header else None
    failed_col = header.index("failed")
    for row in rows:
        if row[failed_col] == "1":
            failed += 1
            continue
        entries.append(ReferenceTableEntry(
            entry_id=int(row[0]),
            rng_seed=int(row[1]),
            theta=tuple(float(row[i]) for i in theta_cols),
            ext_summaries=tuple(float(row[i]) for i in ext_cols),
            gp_variances=(tuple(float(row[i]) for i in var_cols)
                          if var_cols else None),
            gp_correlation=(float(row[corr_col])
                            if corr_col is not None else None),
        ))
    return entries, failed, header
