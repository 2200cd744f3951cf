"""Edge-list ingestion for empirical networks.

Format: one ``u v`` pair per line (whitespace separated, 0-based
integer ids), with an optional third integer timestamp column. A
timestamp cutoff designates the early nodes as the seed subgraph for
model growth.
"""

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


def read_edge_list(path, directed=False):
    """Parse an edge-list file into (Graph, node timestamps or None)."""
    edges = []
    max_id = -1
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
            edges.append((u, v, ts))
            max_id = max(max_id, u, v)
    g = Graph(directed=directed)
    for _ in range(max_id + 1):
        g.add_node()
    node_ts = {} if have_ts else None
    for u, v, ts in edges:
        g.add_edge(u, v)
        if have_ts:
            node_ts[u] = min(node_ts.get(u, ts), ts)
            node_ts[v] = min(node_ts.get(v, ts), ts)
    return g, node_ts


def seed_subgraph(g, node_ts, cutoff):
    """Induced subgraph on the nodes first seen at or before ``cutoff``,
    relabelled densely in the order of their old ids."""
    if node_ts is None:
        raise MissingTimestamps(
            "seed cutoff given but the file has no timestamp column")
    order = sorted(u for u, ts in node_ts.items() if ts <= cutoff)
    relabel = {old: new for new, old in enumerate(order)}
    sub = Graph(directed=g.directed)
    for _ in order:
        sub.add_node()
    for u, v in g.edges():
        if u in relabel and v in relabel:
            sub.add_edge(relabel[u], relabel[v])
    return sub


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
