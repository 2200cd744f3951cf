"""Reference table, distances, reconstructed-normal densities,
top-k acceptance, and posterior summaries.

A ``ReferenceTable`` is an immutable sequence of ``ReferenceTableEntry``
that builds its entry-id, theta and extrapolated-summary columns once,
on first use. Distance acceptance (methods S, LS, RE, GPc) is one NumPy
selection over those columns; a plain list of entries gets its columns
built for the call. Density acceptance (GPa, GPb) scores the entries
one at a time. Both refuse a non-finite observed vector.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateCovariance,
    EmptyPosterior,
    KTooLarge,
    LengthMismatch,
    MissingGpFields,
    NonFiniteInput,
    TooFewInputs,
)


@dataclass(frozen=True)
class PriorBox:
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("bound vectors differ in length")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def dim(self):
        return len(self.lower)


@dataclass(frozen=True)
class ReferenceTableEntry:
    entry_id: int
    rng_seed: int
    theta: tuple
    ext_summaries: tuple
    gp_variances: Optional[tuple] = None
    gp_correlation: Optional[float] = None

    def __post_init__(self):
        if (self.gp_variances is None) != (self.gp_correlation is None):
            raise MissingGpFields(
                "gp_variances and gp_correlation must be given together")


TableColumns = namedtuple("TableColumns", ["entry_ids", "thetas", "ext"])


class ReferenceTable(tuple):
    """An immutable sequence of ReferenceTableEntry whose columns are
    built once, on first use; being immutable, they cannot go stale."""

    @functools.cached_property
    def columns(self):
        """(entry_ids int64, thetas, ext) arrays, one row per entry."""
        return TableColumns(
            np.array([e.entry_id for e in self], dtype=np.int64),
            np.array([e.theta for e in self], dtype=float),
            np.array([e.ext_summaries for e in self], dtype=float))


def columns_of(table):
    """The columns of a ReferenceTable, or of a plain sequence of
    entries, built for this call."""
    if isinstance(table, ReferenceTable):
        return table.columns
    return ReferenceTable(table).columns


@dataclass
class AbcPosterior:
    accepted: list   # (theta, score) pairs, sorted by score
    method: str
    k: int
    zero_density_fills: int = 0
    entry_ids: tuple = ()  # of the accepted entries, in the same order

    def thetas(self):
        return np.array([t for t, _ in self.accepted], dtype=float)


def draw_prior(box, rng):
    """Componentwise uniform draw from the prior box."""
    lo = np.asarray(box.lower, dtype=float)
    hi = np.asarray(box.upper, dtype=float)
    return tuple(lo + rng.random(box.dim) * (hi - lo))


StandardizationResult = namedtuple("StandardizationResult",
                                   ["sds", "replaced"])


def standardization_sds(vectors):
    """Per-summary sample standard deviations of the given summary
    vectors (auxiliary full-size simulations or extrapolated table
    values). Zero sds are replaced by 1 and flagged."""
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise TooFewInputs("at least two summary vectors are needed")
    sds = arr.std(axis=0, ddof=1)
    replaced = sds == 0.0
    sds = np.where(replaced, 1.0, sds)
    return StandardizationResult(sds, replaced)


def std_euclidean(x, y, sds):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sds = np.asarray(sds, dtype=float)
    if not (len(x) == len(y) == len(sds)):
        raise LengthMismatch("vector lengths differ")
    z = (x - y) / sds
    return float(np.sqrt(np.dot(z, z)))


def accept_top_k_distance(table, observed, sds, k, method="LS"):
    """Keep the k entries with the smallest standardized distances;
    exact ties break deterministically by entry_id. Each distance
    equals ``std_euclidean`` of its row bit for bit: ``vecdot`` sums a
    row in the order ``np.dot`` does, where ``einsum`` may not."""
    if k > len(table):
        raise KTooLarge("k=%d > table size %d" % (k, len(table)))
    # a scalar check: np.isfinite(...).all() costs ~10x more per call
    if not all(map(math.isfinite, observed)):
        raise NonFiniteInput("observed summaries must be finite")
    cols = columns_of(table)
    observed = np.asarray(observed, dtype=float)
    sds = np.asarray(sds, dtype=float)
    # broadcasting would quietly accept a 1-vector
    if not (cols.ext.shape[1:] == observed.shape == sds.shape):
        raise LengthMismatch("vector lengths differ")
    z = (cols.ext - observed) / sds
    dist = np.sqrt(np.vecdot(z, z))
    top = np.lexsort((cols.entry_ids, dist))[:k]
    return AbcPosterior(
        accepted=[(tuple(t), d) for t, d in zip(cols.thetas[top].tolist(),
                                                dist[top].tolist())],
        method=method, k=k, entry_ids=tuple(cols.entry_ids[top].tolist()))


def bivariate_density(mean, variances, corr, observed, inflate=1.0):
    """Bivariate normal pdf at ``observed`` for the reconstructed
    summary distribution, with the covariance scaled by ``inflate``."""
    v1, v2 = float(variances[0]), float(variances[1])
    if v1 <= 0.0 or v2 <= 0.0 or not abs(corr) < 1.0 or inflate <= 0.0:
        raise DegenerateCovariance(
            "need positive variances, |corr| < 1, positive inflate")
    z1 = (observed[0] - mean[0]) / math.sqrt(v1 * inflate)
    z2 = (observed[1] - mean[1]) / math.sqrt(v2 * inflate)
    omc = 1.0 - corr * corr
    quad = (z1 * z1 - 2.0 * corr * z1 * z2 + z2 * z2) / omc
    # quad >= 0 when |corr| < 1; residuals too large for a float make it
    # inf, or nan as inf - inf, and either way the density's limit is 0
    if not math.isfinite(quad):
        return 0.0
    norm = 2.0 * math.pi * inflate * math.sqrt(v1 * v2 * omc)
    try:
        return math.exp(-0.5 * quad) / norm
    except OverflowError:
        return 0.0


def accept_top_k_density(table, observed, k, inflate, rng, method="GPa"):
    """Keep the k entries with the highest reconstructed-normal density.

    Entries whose densities underflow to zero, or whose residuals
    overflow (density 0 in the limit), only fill remaining slots,
    chosen uniformly at random among themselves; the number of such
    fills is reported on the posterior. The density is bivariate, so an
    ``observed`` vector or an entry that does not hold exactly two
    summaries raises LengthMismatch.
    """
    if k > len(table):
        raise KTooLarge("k=%d > table size %d" % (k, len(table)))
    if not all(map(math.isfinite, observed)):
        raise NonFiniteInput("observed summaries must be finite")
    if len(observed) != 2:
        raise LengthMismatch("observed has %d summaries, the density needs 2"
                             % len(observed))
    for e in table:
        if e.gp_variances is None or e.gp_correlation is None:
            raise MissingGpFields("entry %d lacks GP fields" % e.entry_id)
        if len(e.ext_summaries) != 2:
            raise LengthMismatch("entry %d has %d summaries, the density "
                                 "needs 2" % (e.entry_id,
                                              len(e.ext_summaries)))
    densities = [
        (bivariate_density(e.ext_summaries, e.gp_variances,
                           e.gp_correlation, observed, inflate), e)
        for e in table
    ]
    positive = sorted(((d, e) for d, e in densities if d > 0.0),
                      key=lambda t: (-t[0], t[1].entry_id))
    picked = [(e, d) for d, e in positive[:k]]
    fills = k - len(picked)
    if fills:
        zeros = [e for d, e in densities if d == 0.0]
        picks = rng.choice(len(zeros), size=fills, replace=False)
        picked.extend((zeros[int(i)], 0.0) for i in picks)
    return AbcPosterior(accepted=[(e.theta, d) for e, d in picked],
                        method=method, k=k, zero_density_fills=fills,
                        entry_ids=tuple(e.entry_id for e, _ in picked))


def posterior_stats(posterior, truth=None):
    """Per-parameter mean, (population) variance, and 2.5%/97.5%
    linear-interpolation quantiles; with a known truth, also the squared
    error of the posterior mean."""
    if not posterior.accepted:
        raise EmptyPosterior("no accepted entries")
    thetas = posterior.thetas()
    stats = {
        "mean": thetas.mean(axis=0).tolist(),
        "variance": thetas.var(axis=0).tolist(),
        "q2.5": np.quantile(thetas, 0.025, axis=0).tolist(),
        "q97.5": np.quantile(thetas, 0.975, axis=0).tolist(),
        "k": posterior.k,
        "method": posterior.method,
        "zero_density_fills": posterior.zero_density_fills,
    }
    if truth is not None:
        err = thetas.mean(axis=0) - np.asarray(truth, dtype=float)
        stats["squared_error"] = (err ** 2).tolist()
    return stats
