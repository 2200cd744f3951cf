"""Summary statistics evaluated on graph snapshots during growth."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import WrongDirectedness
from .graph import induced_triangles, sample_nodes

# per kind: the least-squares family (``curvefit``) and the GP kernel
# warp (``gp``) that its checkpoint series is extrapolated with
KINDS = {
    "avg_degree": ("power", "sqrt"),
    "triangle_count": ("power", "identity"),
    "sample_triangle_count": ("power_offset", "identity"),
    "in_degree_mean": ("inverse", "sqrt"),
    "in_degree_variance": ("digamma", "identity"),
}

SAMPLED_KINDS = ("sample_triangle_count",)
DIRECTED_KINDS = ("in_degree_mean", "in_degree_variance")


@dataclass(frozen=True)
class SummarySpec:
    """One tracked statistic.

    ``n_star`` and ``replicates`` only matter for sampled kinds: a fresh
    node sample is drawn per replicate and the replicate mean is the
    recorded value.
    """

    kind: str
    n_star: Optional[int] = None
    replicates: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown summary kind %r" % (self.kind,))
        if self.kind in SAMPLED_KINDS:
            if self.n_star is None or self.n_star < 3:
                raise ValueError("sampled triangle kinds need n_star >= 3")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")

    @property
    def name(self):
        return self.kind

    @property
    def family(self):
        """The least-squares family this summary is extrapolated with."""
        return KINDS[self.kind][0]

    @property
    def warp(self):
        """The GP kernel warp this summary is extrapolated with."""
        return KINDS[self.kind][1]


@dataclass
class TrackedSeries:
    """Per-realization summary values at the checkpoint node counts."""

    checkpoints: tuple
    values: np.ndarray  # shape (len(checkpoints), n_summaries)
    summary_names: tuple = field(default_factory=tuple)

    def column(self, which):
        if isinstance(which, str):
            which = self.summary_names.index(which)
        return self.values[:, which]


def evaluate(spec, g, rng=None):
    """Evaluate one summary on the current graph state."""
    if g.node_count == 0:
        raise ValueError("summary of an empty graph")
    kind = spec.kind
    if kind == "avg_degree":
        return g.average_degree()
    if kind == "triangle_count":
        return float(g.triangle_count)
    if kind == "sample_triangle_count":
        total = 0
        for _ in range(spec.replicates):
            total += induced_triangles(g, sample_nodes(g, spec.n_star, rng))
        return total / spec.replicates
    if kind in DIRECTED_KINDS:
        if not g.directed:
            raise WrongDirectedness("%s needs a directed graph" % kind)
        degs = np.asarray(g.in_degrees(), dtype=float)
        if kind == "in_degree_mean":
            return float(degs.mean())
        return float(degs.var())  # population variance
    raise ValueError("unknown summary kind %r" % (kind,))


def replicate_variance_reduction(g, n_star, k, rng, trials):
    """Monte Carlo variance of the single vs k-replicate-averaged
    sample triangle count, over ``trials`` independent evaluations."""
    if k < 1 or trials < 1:
        raise ValueError("k and trials must be >= 1")
    single = SummarySpec("sample_triangle_count", n_star=n_star, replicates=1)
    avg = SummarySpec("sample_triangle_count", n_star=n_star, replicates=k)
    singles = np.array([evaluate(single, g, rng) for _ in range(trials)])
    avgs = np.array([evaluate(avg, g, rng) for _ in range(trials)])
    return float(singles.var(ddof=1)), float(avgs.var(ddof=1))
