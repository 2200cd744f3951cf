"""Growing graph with incremental edge bookkeeping and triangle counts.

Node ids are dense integers assigned in insertion order; nodes are never
removed. Each node's neighbours are a strictly ascending Python list of
ids, 18-29 B per edge on DMC graphs of 500-5,000 nodes. Growth only
ever links a new node, which takes the largest id, so every growth
mutation ends in one append (``Graph._append``) that adds the new id at
the end of each neighbour's list, and the lists stay sorted at no cost;
the checked public mutations find their place by bisection.
Triangles are counted on the undirected projection. A graph built with
``track_triangles=True`` keeps a running count: beside its neighbour
lists it holds one Python ``int`` per node, a bitmask of the node's
neighbours, and each mutation updates the count by popcounts of those
masks (O(degree) integer operations on n-bit masks, about n**2 / 8
bytes of masks in all). Any other graph holds no masks, keeps no count
and counts its triangles from scratch when asked (``count_triangles``,
NumPy only: degree-ordered arcs intersected as bit rows over blocks of
columns), so a graph whose count is read once, or never, pays nothing
per mutation. Beside the checked public mutations,
``Graph.add_duplicate`` applies a whole DMC duplication in one pass and
checks nothing, for its ids come from the graph itself; it serves
undirected graphs only. ``Graph.from_edges`` builds a graph from an edge
list in bulk. The module imports no SciPy.
"""

import itertools
import operator
from bisect import bisect_left, bisect_right, insort
from collections import deque

import numpy as np

from .errors import (
    ConnectivityUnreachable,
    EmptyGraph,
    MissingEdge,
    SampleTooLarge,
    UnknownNode,
)


class Graph:
    """Mutable growing graph, undirected or directed.

    The undirected projection is always maintained (``_adj``, one
    strictly ascending neighbour list per node). With ``track_triangles``
    the graph also keeps a neighbour bitmask per node (``_bits``, about
    n**2 / 8 bytes in all) and, from their popcounts, a running triangle
    count of the projection; otherwise it holds neither, and
    ``triangle_count`` counts from scratch on each read. Self-loops are
    rejected; a directed graph never holds both u->v and v->u, and
    besides the projection keeps only ascending in-neighbour lists
    (``_in``): u's out-neighbours are ``_adj[u]`` less ``_in[u]``, and
    each arc is one edge. The public mutations check their ids;
    ``add_duplicate``, the DMC step's mutation, trusts its caller to take
    them from the graph and drops edges from the projection only, so it
    serves undirected graphs only. Every added node goes through
    ``_append``.
    """

    def __init__(self, directed=False, track_triangles=False):
        self.directed = bool(directed)
        self._adj = []          # undirected projection neighbour lists
        self._in = [] if directed else None
        self._edge_count = 0    # projection edges
        # running triangle count and projection neighbour bitmasks (bit w
        # of _bits[u] set iff u-w is an edge); None when counted on demand
        self._triangle_count = 0 if track_triangles else None
        self._bits = [] if track_triangles else None

    @classmethod
    def from_edges(cls, n, edges, directed=False):
        """Untracked graph on nodes ``0..n-1`` with ``edges``, pairs
        (u, v) meaning u->v when directed, built in bulk: each list is
        appended to and then sorted once. The ends of each pair must be
        distinct ids below n, unchecked; an edge listed twice, in either
        direction, raises ValueError.
        """
        g = cls(directed=directed)
        adj = g._adj = [[] for _ in range(n)]
        ins = g._in = [[] for _ in range(n)] if directed else None
        # one int object per id, shared by every list that holds it,
        # whatever objects the pairs hold
        ids = list(range(n))
        for u, v in edges:
            adj[u].append(ids[v])
            adj[v].append(ids[u])
            if directed:
                ins[v].append(ids[u])
        for a in itertools.chain(adj, ins or ()):
            a.sort()
        if any(any(map(operator.eq, a, itertools.islice(a, 1, None)))
               for a in adj):
            raise ValueError("an edge is listed twice")
        g._edge_count = sum(map(len, adj)) // 2
        return g

    @property
    def node_count(self):
        return len(self._adj)

    @property
    def edge_count(self):
        return self._edge_count

    @property
    def arc_count(self):
        return self._edge_count if self.directed else 0

    @property
    def tracks_triangles(self):
        return self._triangle_count is not None

    @property
    def triangle_count(self):
        if self._triangle_count is None:
            return count_triangles(self)
        return self._triangle_count

    def _check_node(self, u):
        if not 0 <= u < len(self._adj):
            raise UnknownNode(u)

    def _append(self, nbrs):
        """Add a node adjacent to ``nbrs``; returns the new id. Nothing
        is checked: ``nbrs`` must hold distinct ids of this graph in
        ascending order, and becomes the new node's own list.

        Each neighbor's list, and a directed graph's in-neighbor lists,
        gain the new id at the end. A running triangle count increases
        by the number of projection edges among the neighbors (each such
        edge closes one new triangle); each is counted once, from its
        higher end, as the popcount of its bitmask and the mask of the
        lower neighbors.
        """
        adj = self._adj
        u = len(adj)
        bits = self._bits
        if bits is None:
            for w in nbrs:
                adj[w].append(u)
        else:
            bit = 1 << u
            mask = closed = 0
            for w in nbrs:
                adj[w].append(u)
                bw = bits[w]
                closed += (bw & mask).bit_count()
                bits[w] = bw | bit
                mask |= 1 << w
            bits.append(mask)
            self._triangle_count += closed
        adj.append(nbrs)
        if self.directed:
            ins = self._in
            for w in nbrs:
                ins[w].append(u)
            ins.append([])
        self._edge_count += len(nbrs)
        return u

    def add_node(self):
        return self._append([])

    def add_node_with_edges(self, neighbors):
        """Add a node connected to ``neighbors``; returns the new id. The
        ids are checked once per call, before anything changes."""
        nbrs = sorted(neighbors)
        if len(set(nbrs)) != len(nbrs):
            raise ValueError("duplicate neighbor ids")
        if nbrs and (nbrs[0] < 0 or nbrs[-1] >= len(self._adj)):
            raise UnknownNode(nbrs[0] if nbrs[0] < 0 else nbrs[-1])
        return self._append(nbrs)

    def add_duplicate(self, v, kept, lost):
        """Drop v's edges to ``lost``, then add a node adjacent to
        ``kept``; returns the new id. This is the one mutation of a DMC
        step, applied in a single pass.

        The neighbor lists, bitmasks, running triangle count and edge
        count end as after ``remove_edge(v, w)`` for each w in ``lost``,
        in order, followed by ``add_node_with_edges(kept)``. Nothing is
        checked: the graph must be undirected, each id in ``lost`` a
        distinct neighbor of v, and ``kept`` distinct ids of this graph
        (v among them or not), as the step takes them from the graph.
        The caller's lists are neither kept nor changed.
        """
        if lost:
            adj = self._adj
            gone = set(lost)
            adj[v] = [w for w in adj[v] if w not in gone]
            bits = self._bits
            if bits is None:
                for w in lost:
                    a = adj[w]
                    del a[bisect_left(a, v)]
            else:
                # each lost edge v-w takes the triangles v and w still share
                bv = bits[v]
                bit = 1 << v
                closed = 0
                for w in lost:
                    a = adj[w]
                    del a[bisect_left(a, v)]
                    bv ^= 1 << w
                    bits[w] = bw = bits[w] ^ bit
                    closed -= (bv & bw).bit_count()
                bits[v] = bv
                self._triangle_count += closed
            self._edge_count -= len(lost)
        return self._append(sorted(kept))

    def has_edge(self, u, v):
        """Edge presence in the undirected projection."""
        self._check_node(u)
        self._check_node(v)
        return _find(self._adj[u], v) >= 0

    def add_edge(self, u, v):
        """Add edge u-v (u->v when directed)."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError("self-loops are not allowed")
        adj = self._adj
        if _find(adj[u], v) >= 0:
            raise ValueError("edge (%d, %d) already present" % (u, v))
        bits = self._bits
        if bits is not None:
            bu, bv = bits[u], bits[v]
            self._triangle_count += (bu & bv).bit_count()
            bits[u] = bu | 1 << v
            bits[v] = bv | 1 << u
        insort(adj[u], v)
        insort(adj[v], u)
        self._edge_count += 1
        if self.directed:
            insort(self._in[v], u)

    def remove_edge(self, u, v):
        self._check_node(u)
        self._check_node(v)
        adj = self._adj
        i = _find(adj[u], v)
        if i < 0:
            raise MissingEdge((u, v))
        bits = self._bits
        if bits is not None:
            bits[u] = bu = bits[u] ^ 1 << v
            bits[v] = bv = bits[v] ^ 1 << u
            self._triangle_count -= (bu & bv).bit_count()
        del adj[u][i]
        del adj[v][bisect_left(adj[v], u)]
        self._edge_count -= 1
        if self.directed:
            # the arc is u->v or v->u; exactly one of these is present
            i = _find(self._in[v], u)
            if i >= 0:
                del self._in[v][i]
            else:
                del self._in[u][bisect_left(self._in[u], v)]

    def neighbors(self, u):
        """u's projection neighbours: the graph's own ascending list, to
        be read, not changed."""
        self._check_node(u)
        return self._adj[u]

    def degree(self, u):
        self._check_node(u)
        return len(self._adj[u])

    def in_degrees(self):
        if not self.directed:
            return None
        return [len(s) for s in self._in]

    def average_degree(self):
        if self.node_count == 0:
            raise EmptyGraph("average degree of the empty graph")
        return 2.0 * self._edge_count / self.node_count

    def is_connected(self):
        n = self.node_count
        if n <= 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == n

    def copy(self, track_triangles=None):
        """Independent copy. It keeps a running triangle count when
        ``track_triangles`` says so (by default, when this graph does),
        starting from this graph's count and bitmasks; a tracked copy of
        an untracked graph counts once from scratch and builds its
        bitmasks from the neighbor lists."""
        if track_triangles is None:
            track_triangles = self.tracks_triangles
        g = Graph(directed=self.directed)
        g._adj = [a.copy() for a in self._adj]
        if self.directed:
            g._in = [a.copy() for a in self._in]
        g._edge_count = self._edge_count
        if track_triangles:
            g._triangle_count = self.triangle_count
            g._bits = (list(self._bits) if self._bits is not None
                       else [_mask(s) for s in self._adj])
        return g

    def edges(self):
        """Projection edges as sorted (u, v) pairs with u < v; for
        directed graphs the directed arcs (u, v) meaning u->v."""
        if self.directed:
            for u, a in enumerate(self._adj):
                ins = set(self._in[u])
                for v in a:
                    if v not in ins:
                        yield (u, v)
        else:
            for u, a in enumerate(self._adj):
                for v in a[bisect_right(a, u):]:
                    yield (u, v)


def _find(a, x):
    """Index of x in the ascending list a, or -1."""
    i = bisect_left(a, x)
    return i if i < len(a) and a[i] == x else -1


def _mask(ids):
    """Bitmask with bit w set for each id w."""
    m = 0
    for w in ids:
        m |= 1 << w
    return m


def er_seed(n_seed, p, rng_seed, max_retries=10_000, directed=False):
    """Connected Erdos-Renyi G(n, p) seed graph.

    Disconnected draws are redrawn from a deterministically incremented
    RNG stream, up to ``max_retries`` attempts. The seed keeps a running
    triangle count, cheap at seed size, so that growth which tracks
    triangles starts from it without a from-scratch count. A directed
    seed orients each drawn edge from the higher id to the lower.
    """
    if n_seed < 1:
        raise ValueError("n_seed must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0 and n_seed > 1:
        raise ConnectivityUnreachable("p=0 cannot connect %d nodes" % n_seed)
    for attempt in range(max_retries):
        rng = np.random.default_rng([int(rng_seed), attempt])
        g = Graph(directed=directed, track_triangles=True)
        for _ in range(n_seed):
            g.add_node()
        for i in range(n_seed):
            for j in range(i + 1, n_seed):
                if rng.random() < p:
                    g.add_edge(j, i)
        if g.is_connected():
            return g
    raise ConnectivityUnreachable(
        "no connected draw in %d attempts" % max_retries)


def sample_nodes(g, n_star, rng):
    """Uniform node sample without replacement: a list of distinct ids,
    Python ints, in the order drawn."""
    if not 1 <= n_star <= g.node_count:
        raise SampleTooLarge(
            "n_star=%d outside [1, %d]" % (n_star, g.node_count))
    return rng.choice(g.node_count, size=n_star, replace=False).tolist()


def induced_triangles(g, ids):
    """Triangle count of the subgraph induced by the node ids ``ids``,
    each a distinct id of ``g``; a repeated id raises ValueError.

    Cost proportional to the degrees of the sampled nodes: each is read
    once, into the set of its sampled neighbours. Each triangle is seen
    once per induced edge, hence the final division by three.
    """
    nodes = set(ids)
    for u in nodes:
        g._check_node(u)
    if len(nodes) != len(ids):
        raise ValueError("repeated sample id")
    near = {u: nodes.intersection(g._adj[u]) for u in nodes}
    per_edge = 0
    for u, near_u in near.items():
        for v in near_u:
            if v > u:
                per_edge += len(near_u & near[v])
    return per_edge // 3


# count_triangles: target ranks per block of bit rows (a row takes 256
# bytes), and the bytes of rows gathered at once; both bound the working
# memory of a count
_BLOCK_COLUMNS = 2048
_GATHER_BYTES = 256 * 1024


def count_triangles(g):
    """Exact triangle count of the undirected projection, from scratch.

    Each edge is oriented from the lower to the higher (degree, id)
    rank, so a triangle is the one path a -> b -> c closed by a -> c,
    and no node has more than O(sqrt(edges)) out-arcs (the "forward"
    scheme of Chiba & Nishizeki 1985 and Latapy 2008). The count is the
    sum over arcs a -> b of the out-neighbors a and b share, taken by
    bit-parallel intersections over blocks of target ranks. In each
    block, every node with an out-arc into the block gets one compact
    ``uint64`` bit row over the block's columns, and the popcounts of
    ``row[a] & row[b]`` are summed over the arcs a -> b whose endpoints
    both have a row, gathered a bounded chunk at a time. NumPy only.
    """
    adj = g._adj
    n = len(adj)
    deg = np.fromiter(map(len, adj), dtype=np.int32, count=n)
    order = np.argsort(deg, kind="stable")
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    # arcs into each node from its lower-ranked neighbors, by target rank
    src = rank[np.fromiter(
        itertools.chain.from_iterable(map(adj.__getitem__, order.tolist())),
        dtype=np.int32, count=int(deg.sum(dtype=np.int64)))]
    dst = np.repeat(np.arange(n, dtype=np.int32), deg[order])
    up = src < dst
    src, dst = src[up], dst[up]
    del deg, order, rank, up  # free the temporaries before the blocks
    if len(src) == 0:
        return 0
    in_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=in_ptr[1:])
    row_of = np.full(n, -1, dtype=np.int64)
    total = 0
    for c0 in range(0, n, _BLOCK_COLUMNS):
        lo, hi = in_ptr[c0], in_ptr[min(c0 + _BLOCK_COLUMNS, n)]
        if lo == hi:
            continue
        # the block's arcs grouped by source: one bit row per source
        by_src = np.argsort(src[lo:hi], kind="stable")
        owner = src[lo:hi][by_src]
        col = dst[lo:hi][by_src] - c0
        new = _run_starts(owner)
        owners = owner[new]
        words = (min(_BLOCK_COLUMNS, n - c0) + 63) >> 6
        key = (np.cumsum(new) - 1) * words + (col >> 6)
        at = np.flatnonzero(_run_starts(key))
        rows = np.zeros((len(owners), words), dtype=np.uint64)
        rows.flat[key[at]] = np.bitwise_or.reduceat(
            np.left_shift(np.uint64(1), (col & 63).astype(np.uint64)), at)
        row_of[owners] = np.arange(len(owners))
        # the in-arcs a -> b of each owner b whose source a owns a row too
        starts = in_ptr[owners]
        lens = in_ptr[owners + 1] - starts
        ends = np.cumsum(lens)
        arc = np.repeat(starts - ends + lens, lens) + np.arange(ends[-1])
        ra = row_of[src[arc]]
        rb = np.repeat(np.arange(len(owners)), lens)
        both = ra >= 0
        ra, rb = ra[both], rb[both]
        step = _GATHER_BYTES // (8 * words)
        for i in range(0, len(ra), step):
            total += int(np.bitwise_count(
                rows[ra[i:i + step]] & rows[rb[i:i + step]]).sum(
                    dtype=np.int64))
        row_of[owners] = -1
    return total


def _run_starts(a):
    """True where a sorted array's value differs from the one before."""
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new


def write_edge_list(g, path):
    with open(path, "w") as fh:
        for u, v in g.edges():
            fh.write("%d %d\n" % (u, v))
