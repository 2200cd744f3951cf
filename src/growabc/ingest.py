"""Edge-list ingestion for empirical networks.

Format: one ``u v`` pair per line (whitespace separated, 0-based
integer ids), with an optional third integer timestamp column. A
timestamp cutoff designates the early nodes as the seed subgraph for
model growth.
"""

from array import array
from dataclasses import dataclass
from typing import Optional

from .errors import EdgeListParseError, MissingTimestamps
from .graph import Graph
from .summaries import evaluate


@dataclass
class ObservedNetwork:
    graph: Graph
    summaries_at_no: tuple
    provenance: dict
    seed_graph: Optional[Graph] = None


def _edge_lines(path):
    """Yield ``(lineno, u, v, ts)`` for each edge line of an edge-list
    file, ``ts`` None without a timestamp column; a bad line or
    self-loop raises EdgeListParseError."""
    have_ts = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) not in (2, 3):
                raise EdgeListParseError(lineno, "expected 2 or 3 columns")
            try:
                u, v = int(parts[0]), int(parts[1])
                ts = int(parts[2]) if len(parts) == 3 else None
            except ValueError:
                raise EdgeListParseError(lineno, "non-integer field")
            if u < 0 or v < 0:
                raise EdgeListParseError(lineno, "negative node id")
            if have_ts is None:
                have_ts = ts is not None
            elif have_ts != (ts is not None):
                raise EdgeListParseError(lineno, "inconsistent timestamps")
            if u == v:
                raise EdgeListParseError(lineno, "self-loop %d %d" % (u, v))
            yield lineno, u, v, ts


def read_edge_list(path, directed=False):
    """Parse an edge-list file into (Graph, node timestamps or None); a
    bad line, self-loop or repeated edge raises EdgeListParseError. The
    columns are read into 64-bit integer arrays (a field beyond that
    range is refused) and the graph is built from them in bulk
    (``Graph.from_edges``); a repeat is then traced to its line by
    parsing the file again."""
    us, vs, tss = array("q"), array("q"), array("q")
    for lineno, u, v, ts in _edge_lines(path):
        try:
            us.append(u)
            vs.append(v)
            if ts is not None:
                tss.append(ts)
        except OverflowError:
            raise EdgeListParseError(lineno, "integer field out of range")
    n = max(max(us, default=-1), max(vs, default=-1)) + 1
    try:
        g = Graph.from_edges(n, zip(us, vs), directed=directed)
    except ValueError:
        _refuse_first_repeat(path)
        raise
    node_ts = None
    if tss:
        node_ts = {}
        for u, v, ts in zip(us, vs, tss):
            node_ts[u] = min(node_ts.get(u, ts), ts)
            node_ts[v] = min(node_ts.get(v, ts), ts)
    return g, node_ts


def _refuse_first_repeat(path):
    """Raise EdgeListParseError at the first line whose edge, in either
    direction, an earlier line already gave."""
    seen = set()
    for lineno, u, v, _ in _edge_lines(path):
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(lineno,
                                     "edge %d %d already present" % (u, v))
        seen.add(key)


def seed_subgraph(g, node_ts, cutoff):
    """Induced subgraph on the nodes first seen at or before ``cutoff``,
    relabelled densely in the order of their old ids."""
    if node_ts is None:
        raise MissingTimestamps(
            "seed cutoff given but the file has no timestamp column")
    order = sorted(u for u, ts in node_ts.items() if ts <= cutoff)
    relabel = {old: new for new, old in enumerate(order)}
    return Graph.from_edges(
        len(order), ((relabel[u], relabel[v]) for u, v in g.edges()
                     if u in relabel and v in relabel), directed=g.directed)


def ingest_observed(path, specs, seed_cutoff=None, directed=False, rng=None):
    """Load an observed network and compute its summary vector; with a
    cutoff, also expose the early-timestamp seed subgraph."""
    g, node_ts = read_edge_list(path, directed=directed)
    seed_graph = None
    if seed_cutoff is not None:
        seed_graph = seed_subgraph(g, node_ts, seed_cutoff)
    summaries = tuple(evaluate(spec, g, rng) for spec in specs)
    return ObservedNetwork(
        graph=g,
        summaries_at_no=summaries,
        provenance={"kind": "ingested", "path": str(path)},
        seed_graph=seed_graph,
    )
