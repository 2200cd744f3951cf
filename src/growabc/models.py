"""Mechanistic growth models: duplication-divergence (DMC) and the
Price citation model. Both grow a seed graph to a target size and
record summaries at checkpoint node counts."""

from dataclasses import dataclass

import numpy as np

from .errors import CountTooLarge, PlanInvalid
from .graph import er_seed
from .summaries import TrackedSeries, evaluate


@dataclass(frozen=True)
class DmcParams:
    q_m: float  # edge-removal probability
    q_c: float  # complementation (anchor edge) probability

    def __post_init__(self):
        if not 0.0 <= self.q_m <= 1.0:
            raise ValueError("q_m must be in [0, 1]")
        if not 0.0 <= self.q_c <= 1.0:
            raise ValueError("q_c must be in [0, 1]")


@dataclass(frozen=True)
class PriceParams:
    k0: float       # attachment offset added to the in-degree
    p: float        # binomial success probability for the out-degree
    out_cap: int = 610

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("k0 must be > 0")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.out_cap < 1:
            raise ValueError("out_cap must be >= 1")


@dataclass(frozen=True)
class GrowthPlan:
    n_target: int
    checkpoints: tuple = ()
    summaries: tuple = ()

    @property
    def tracks_triangles(self):
        """Whether growth keeps a running triangle count: only when a
        summary read at the checkpoints needs one."""
        return bool(self.checkpoints) and any(
            spec.kind == "triangle_count" for spec in self.summaries)

    def validate(self, seed_size):
        if seed_size >= self.n_target:
            raise PlanInvalid("seed size %d >= target %d"
                              % (seed_size, self.n_target))
        cps = self.checkpoints
        if self.summaries and not cps:
            raise PlanInvalid("summaries requested but no checkpoints")
        if cps:
            if any(b <= a for a, b in zip(cps, cps[1:])):
                raise PlanInvalid("checkpoints must be strictly increasing")
            if cps[0] <= seed_size:
                raise PlanInvalid("first checkpoint %d <= seed size %d"
                                  % (cps[0], seed_size))
            if cps[-1] > self.n_target:
                raise PlanInvalid("last checkpoint %d > target %d"
                                  % (cps[-1], self.n_target))


def dmc_step(g, params, rng):
    """One duplication-mutation-complementation step.

    Picks an anchor uniformly, duplicates its links, then for each
    neighbor removes one of the two parallel edges with probability q_m
    (the victim chosen by a fair coin), and finally links the duplicate
    to the anchor with probability q_c.

    Draw order, which fixes the stream: one integer for the anchor; then,
    for each neighbor in ascending id order, one uniform tested against
    q_m and, if below, one more tested against 0.5 (below: the anchor
    loses the edge, else the duplicate does); then one uniform tested
    against q_c. The uniforms are drawn in blocks that never exceed what
    the remaining steps of that order still need, so the stream is the
    same as with one ``rng.random()`` call per draw. The draws made, the
    graph is changed once, to its final state, by ``Graph.add_duplicate``
    in one pass: the anchor loses its lost edges, and the duplicate is
    added with only the edges it keeps, the link to the anchor among
    them. The anchor is the graph's own int object of its id, so the
    link puts no new int object in the duplicate's list. A directed graph
    is refused, as ``grow_dmc`` refuses it.
    """
    if g.directed:
        raise PlanInvalid("DMC growth needs an undirected seed")
    v = g._ids[rng.integers(g.node_count)]  # the graph's own int object
    nbrs = g.neighbors(v)  # ascending
    d = len(nbrs)
    q_m = params.q_m
    # a block holds no more than the rest of the step still needs: one
    # draw for each neighbor from j on, and one for the link
    draws = rng.random(d + 1).tolist()
    i = 0
    kept, lost = [], []     # the duplicate's edges; the anchor's losses
    for j, w in enumerate(nbrs):
        if i == len(draws):
            draws += rng.random(d - j + 1).tolist()
        i += 1
        if draws[i - 1] < q_m:
            if i == len(draws):
                draws += rng.random(d - j + 1).tolist()
            i += 1
            if draws[i - 1] >= 0.5:
                continue
            lost.append(w)
        kept.append(w)
    if i == len(draws):
        draws += rng.random(1).tolist()
    if draws[i] < params.q_c:
        kept.append(v)
    g.add_duplicate(v, kept, lost)


def preferential_sample(in_degrees, k0, count, rng):
    """Draw ``count`` distinct candidate indices, sequentially, each
    with probability proportional to k0 + in-degree; chosen weights are
    removed before the next draw."""
    n = len(in_degrees)
    if count > n:
        raise CountTooLarge("count=%d > %d candidates" % (count, n))
    if count == 0:
        return set()
    weights = k0 + np.asarray(in_degrees, dtype=float)
    chosen = set()
    for _ in range(count):
        cum = np.cumsum(weights)
        r = rng.random() * cum[-1]
        idx = int(np.searchsorted(cum, r, side="right"))
        idx = min(idx, n - 1)
        chosen.add(idx)
        weights[idx] = 0.0
    return chosen


def price_step(g, params, rng):
    """Add one node to a directed graph, citing existing nodes drawn
    preferentially; the out-degree is Binomial(out_cap, p) clamped to
    the current node count."""
    x = int(rng.binomial(params.out_cap, params.p))
    x = min(x, g.node_count)
    targets = preferential_sample(g.in_degrees(), params.k0, x, rng)
    g.add_node_with_edges(targets)


def _grow(seed, step, params, plan, rng):
    """Grow a copy of ``seed`` by ``step(g, params, rng)``, one node per
    call; returns (TrackedSeries, grown graph). The copy keeps a running
    triangle count only when the plan reads one at its checkpoints."""
    plan.validate(seed.node_count)
    g = seed.copy(track_triangles=plan.tracks_triangles)
    cps = set(plan.checkpoints)
    rows = []
    for n in range(g.node_count + 1, plan.n_target + 1):
        step(g, params, rng)  # adds node n - 1, so the graph holds n nodes
        if n in cps:
            rows.append([evaluate(spec, g, rng) for spec in plan.summaries])
    values = np.asarray(rows, dtype=float)
    if values.size == 0:
        values = values.reshape(0, len(plan.summaries))
    return TrackedSeries(
        checkpoints=tuple(plan.checkpoints),
        values=values,
        summary_names=tuple(s.name for s in plan.summaries),
    ), g


def grow_dmc(seed, params, plan, rng):
    """Grow an undirected seed with the DMC model, tracking summaries
    at the plan's checkpoints; returns (TrackedSeries, grown graph).
    Deterministic given the rng stream."""
    if seed.directed:
        raise PlanInvalid("DMC growth needs an undirected seed")
    return _grow(seed, dmc_step, params, plan, rng)


def grow_price(seed, params, plan, rng):
    """Grow a directed seed with the Price model; new edges point from
    the new node to existing nodes, never duplicated. Returns
    (TrackedSeries, grown graph)."""
    if not seed.directed:
        raise PlanInvalid("Price growth needs a directed seed")
    return _grow(seed, price_step, params, plan, rng)


def directed_seed(n_seed, p, rng_seed):
    """Small directed ER seed for desk-scale Price runs: ``er_seed``'s
    draw with each edge oriented from the higher id to the lower."""
    return er_seed(n_seed, p, rng_seed, directed=True)
