"""Reference-table construction and CSV persistence.

One row per prior draw: the parameters, the per-entry RNG seed, and the
extrapolated (or, for method S, exact) summary values at n_o; GP-based
methods additionally store predictive variances and the inter-summary
correlation. An entry is one unit of work: ``entry_stream`` gives its
seed, rng and theta, ``grow_to`` grows it on that rng by
``RunConfig.entry_plan()``, and ``extrapolate_series`` fits the grown
series, growing nothing; method S grows it to n_o by
``simulate_observed``. An entry fails only when its fit does
(``NotConverged``, ``SingularKernel`` or ``OverflowError``): it then
writes nan values and ``failed=1``. Any other exception stops the build,
and ``RunConfig.validate`` refuses an invalid config before any entry is
built. The seed graph is built once, before any entry (an edge-list seed
file is read, and so checked, then, and the entries' growth plan is
checked against its size); the SciPy modules the entries call are
imported then too, before the pool forks, so its forked processes
inherit them. Rows are written incrementally and builds are resumable by
entry id, guarded by a config hash in the header comment. Resuming
checks that hash, then cuts off a last row without its newline (a build
killed mid-write), and reading refuses a row whose field count differs
from the header's. Reading returns the usable rows as a
``rejection.ReferenceTable``, whose NumPy columns every acceptance pass
against the table reuses.
"""

import csv
import functools
import math
import os

import numpy as np

from . import curvefit, gp
from .config import GP_METHODS, config_hash
from .errors import ConfigError, NotConverged, PlanInvalid, SingularKernel
from .graph import er_seed
from .ingest import read_edge_list, seed_subgraph
from .models import GrowthPlan, directed_seed, grow_dmc, grow_price
from .pool import pool_map
from .rejection import ReferenceTable, ReferenceTableEntry, draw_prior
from .seeding import mix_seed
from .summaries import evaluate


def build_seed_graph(cfg):
    """The configured seed graph, built once per seed and cached, so
    callers grow copies of it and never change it. A random seed is
    keyed on its model and parameters; an edge-list seed on its path,
    mtime and size, so an edited file is read again. A random seed keeps
    a running triangle count, cheap at its size; an edge-list seed keeps
    one (and its bitmasks, about n**2 / 8 bytes) only when the config's
    table entries grow with one, so that their growth starts from it
    without counting the seed's triangles again."""
    if cfg.seed_type == "edgelist":
        path = os.path.abspath(cfg.seed_path)
        st = os.stat(path)
        return _edge_list_seed(path, st.st_mtime_ns, st.st_size,
                               cfg.model == "price", cfg.seed_cutoff,
                               cfg.entry_plan().tracks_triangles)
    return _random_seed(cfg.model, cfg.seed_n, cfg.seed_p, cfg.seed_rng)


@functools.lru_cache(maxsize=4)
def _edge_list_seed(path, mtime_ns, size, directed, cutoff, track):
    g, node_ts = read_edge_list(path, directed=directed)
    if cutoff is not None:
        g = seed_subgraph(g, node_ts, cutoff)
    return g.copy(track_triangles=track)


@functools.lru_cache(maxsize=16)
def _random_seed(model, seed_n, seed_p, seed_rng):
    if model == "price":
        return directed_seed(seed_n, seed_p, seed_rng)
    return er_seed(seed_n, seed_p, seed_rng)


def grow_to(cfg, theta, rng, plan):
    """Grow the configured model from its seed graph by ``plan``, a
    GrowthPlan; returns (TrackedSeries, final graph)."""
    grow = grow_dmc if cfg.model == "dmc" else grow_price
    return grow(build_seed_graph(cfg), cfg.growth_params(theta), plan, rng)


def simulate_observed(cfg, theta, rng):
    """Full-size simulation: summary vector of a model draw at n_o."""
    specs = cfg.summary_specs()
    _, g = grow_to(cfg, theta, rng, GrowthPlan(cfg.n_o))
    return tuple(evaluate(spec, g, rng) for spec in specs)


def entry_stream(cfg, entry_id):
    """Table entry ``entry_id``'s stream: (rng_seed, rng, theta), theta
    being the rng's first draw. The entry grows on from that rng."""
    rng_seed = mix_seed(cfg.master_seed, entry_id)
    rng = np.random.default_rng(rng_seed)
    return rng_seed, rng, draw_prior(cfg.prior_box(), rng)


def extrapolate_series(cfg, series):
    """Fit a grown entry's TrackedSeries, growing nothing: (values at
    n_o, GP variances, GP correlation), the GP fields None for LS, RE."""
    specs = cfg.summary_specs()
    grid = np.asarray(series.checkpoints, dtype=float)
    if cfg.method not in GP_METHODS:  # LS and RE
        ext = []
        for spec in specs:
            fit = curvefit.fit_series(grid, series.column(spec.name),
                                      spec.family)
            ext.append(curvefit.extrapolate(fit, cfg.n_o))
        return tuple(ext), None, None

    # GP methods: power-law mean initialized from the least-squares fit
    fits, means, variances = [], [], []
    for spec in specs:
        col = series.column(spec.name)
        ls = curvefit.fit_series(grid, col, "power")
        kspec = gp.KernelSpec(cfg.kernel, spec.warp)
        fit = gp.fit_map(grid, col, kspec, ls)
        pred = gp.predict(fit, cfg.n_o)
        fits.append(fit)
        means.append(pred.mean)
        variances.append(pred.variance)
    if len(specs) == 2:
        corr = gp.summary_correlation(fits).value
    else:
        corr = 0.0
    return tuple(means), tuple(variances), corr


def _build_entry(args):
    cfg, entry_id = args
    seed_val, rng, theta = entry_stream(cfg, entry_id)
    try:
        if cfg.method == "S":
            values = simulate_observed(cfg, theta, rng), None, None
        else:
            series, _ = grow_to(cfg, theta, rng, cfg.entry_plan())
            values = extrapolate_series(cfg, series)
        return (entry_id, seed_val, theta, *values, False)
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


def _check_hash_line(path, first, expected_hash):
    """Raise ConfigError unless ``first`` is a ``# config=`` line whose
    hash is ``expected_hash`` (any hash if that is None)."""
    if not first.startswith("# config="):
        raise ConfigError("%s has no config hash line" % path)
    found = first.strip().split("=", 1)[1]
    if expected_hash is not None and found != expected_hash:
        raise ConfigError("config hash mismatch: table %s vs config %s"
                          % (found, expected_hash))


def _table_rows(path, expected_hash=None):
    """Yield a table's header row, then its data rows. Checks the
    ``# config=`` line against ``expected_hash`` when one is given;
    raises ConfigError on a row whose field count is not the header's."""
    with open(path, newline="") as fh:
        _check_hash_line(path, fh.readline(), expected_hash)
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


def _load_task_scipy(cfg):
    """Import the SciPy modules that the config's table entries and
    observed networks call, and no other:

    - ``scipy.linalg`` and ``scipy.optimize`` for the GP methods;
    - ``scipy.special`` for a digamma-family fit (LS and RE).

    Growth, summaries and triangle counts call no SciPy, so an LS, RE or
    S build of DMC summaries imports none.
    """
    if cfg.method in GP_METHODS:
        gp.load_scipy()
    if cfg.method in ("LS", "RE") and any(
            spec.family == "digamma" for spec in cfg.summary_specs()):
        curvefit.load_scipy()


def build_reference_table(cfg, out_path, workers=None):
    """Build (or resume) the reference table CSV; returns the path.

    The seed graph is built, and the SciPy modules that the config's
    tasks call are imported (``_load_task_scipy``), here, before the pool
    forks: its forked processes inherit both and import no SciPy
    themselves, and this process, which computes entries beside them,
    has both already. ``run_experiment``'s observed-network pool, forked
    after this call, inherits them too."""
    cfg.validate()
    try:  # an edge-list seed can be too large for the entries' plan
        cfg.entry_plan().validate(build_seed_graph(cfg).node_count)
    except PlanInvalid as exc:
        raise ConfigError(str(exc)) from exc
    _load_task_scipy(cfg)
    chash = config_hash(cfg)
    done = set()
    if os.path.exists(out_path):
        with open(out_path, "rb+") as fh:
            data = fh.read()
            end = data.rfind(b"\n") + 1
            if end:  # refuse another config's table before any edit
                _check_hash_line(out_path, data[:data.find(b"\n")].decode(),
                                 chash)
            fh.truncate(end)  # drop a row torn mid-write
        if end:
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

    Returns (entries, failed_count, header columns), the entries as a
    ``ReferenceTable``. Failed rows are excluded from the entries but
    counted.
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
    return ReferenceTable(entries), failed, header
