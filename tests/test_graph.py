import functools
import itertools
import sys

import numpy as np
import pytest
from scipy.stats import binom

from growabc import graph
from growabc.config import RunConfig
from growabc.errors import (
    ConnectivityUnreachable,
    EmptyGraph,
    MissingEdge,
    SampleTooLarge,
    UnknownNode,
)
from growabc.graph import (
    Graph,
    count_triangles,
    er_seed,
    induced_triangles,
    sample_nodes,
    write_edge_list,
)
from growabc.models import (
    DmcParams,
    GrowthPlan,
    PriceParams,
    directed_seed,
    grow_dmc,
    grow_price,
)
from growabc.table import build_seed_graph


def brute_force_triangles(g):
    """O(n^3) oracle: trace(A^3) / 6 on the undirected projection, taken
    as the sum of (A @ A) * A (one matrix product, exact in float64)."""
    n = g.node_count
    a = np.zeros((n, n), dtype=float)
    for u in range(n):
        for v in g.neighbors(u):
            a[u, v] = 1.0
    return int(round(np.vdot(a @ a, a) / 6.0))


def complete_graph(n, track_triangles=True):
    g = Graph(track_triangles=track_triangles)
    for _ in range(n):
        g.add_node()
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def random_graph(n, p, rng, track_triangles=True):
    """G(n, p) that keeps a running triangle count, so the tests that
    mutate it check the incremental bookkeeping."""
    g = Graph(track_triangles=track_triangles)
    for _ in range(n):
        g.add_node()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


class TestErSeed:
    def test_complete_graph_forced(self):
        g = er_seed(3, 1.0, 12345)
        assert g.node_count == 3
        assert g.edge_count == 3
        assert g.triangle_count == 1

    def test_no_edges_possible(self):
        with pytest.raises(ConnectivityUnreachable):
            er_seed(2, 0.0, 0)

    def test_edge_count_in_binomial_interval(self):
        # central 0.9999 interval of Binomial(C(30,2), 0.2)
        lo = binom.ppf(0.00005, 435, 0.2)
        hi = binom.ppf(0.99995, 435, 0.2)
        g = er_seed(30, 0.2, 7)
        assert g.is_connected()
        assert lo <= g.edge_count <= hi

    def test_deterministic(self):
        g1 = er_seed(30, 0.2, 99)
        g2 = er_seed(30, 0.2, 99)
        assert list(g1.edges()) == list(g2.edges())

    def test_single_node(self):
        g = er_seed(1, 0.0, 0)
        assert g.node_count == 1
        assert g.edge_count == 0


class TestAddNodeWithEdges:
    def test_k3_to_k4(self):
        g = complete_graph(3)
        g.add_node_with_edges([0, 1, 2])
        assert g.triangle_count == 4

    def test_no_neighbors(self):
        g = complete_graph(3)
        g.add_node_with_edges([])
        assert g.triangle_count == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        g = random_graph(20, 0.3, rng)
        nbrs = rng.choice(20, size=5, replace=False).tolist()
        g.add_node_with_edges(nbrs)
        assert g.triangle_count == brute_force_triangles(g)

    def test_unknown_node(self):
        g = complete_graph(3)
        with pytest.raises(UnknownNode):
            g.add_node_with_edges([0, 99])

    def test_duplicate_neighbors_rejected(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.add_node_with_edges([0, 0])

    def test_negative_id_is_unknown(self):
        g = complete_graph(3)
        with pytest.raises(UnknownNode):
            g.add_node_with_edges([1, -1])
        assert (g.node_count, g.edge_count) == (3, 3)

    def test_duplicates_refused_before_any_change(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.add_node_with_edges([2, 0, 2])
        assert g.node_count == 3
        assert (g.edge_count, g.triangle_count) == (3, 1)
        assert all(len(g.neighbors(u)) == 2 for u in range(3))

    def test_directed_matches_arc_loop(self):
        rng = np.random.default_rng(5)
        bulk = Graph(directed=True)
        loop = Graph(directed=True)
        for g in (bulk, loop):
            for _ in range(12):
                g.add_node()
            for u, v in ((1, 0), (2, 0), (2, 1), (5, 3), (7, 2)):
                g.add_edge(u, v)
        for _ in range(40):
            k = int(rng.integers(0, 6))
            targets = sorted(rng.choice(bulk.node_count, size=k,
                                        replace=False).tolist())
            bulk.add_node_with_edges(targets)
            u = loop.add_node()
            for t in targets:
                loop.add_edge(u, t)
        assert list(bulk.edges()) == list(loop.edges())
        assert bulk.arc_count == loop.arc_count
        assert bulk.edge_count == loop.edge_count
        assert bulk.in_degrees() == loop.in_degrees()
        assert bulk.triangle_count == loop.triangle_count
        assert bulk.triangle_count == brute_force_triangles(bulk)


class TestRemoveEdge:
    def test_k4(self):
        g = complete_graph(4)
        g.remove_edge(0, 1)
        assert g.triangle_count == 2

    def test_path(self):
        g = Graph()
        for _ in range(3):
            g.add_node()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_edge(0, 1)
        assert g.triangle_count == 0

    def test_missing_edge(self):
        g = complete_graph(3)
        g.remove_edge(0, 1)
        with pytest.raises(MissingEdge):
            g.remove_edge(0, 1)

    def test_round_trips_preserve_count(self):
        rng = np.random.default_rng(11)
        g = random_graph(25, 0.25, rng)
        for _ in range(30):
            edges = list(g.edges())
            u, v = edges[rng.integers(len(edges))]
            g.remove_edge(u, v)
            assert g.triangle_count == brute_force_triangles(g)
            g.add_edge(u, v)
            assert g.triangle_count == brute_force_triangles(g)


def _duplicate_both_ways(g, v, kept, lost):
    """Copies of ``g`` after ``add_duplicate`` and after the checked
    mutations it stands for: the ``remove_edge`` loop, then
    ``add_node_with_edges``."""
    fast, ref = g.copy(), g.copy()
    u = fast.add_duplicate(v, kept, lost)
    for w in lost:
        ref.remove_edge(v, w)
    assert ref.add_node_with_edges(kept) == u == g.node_count
    return fast, ref


def assert_same_graph(fast, ref):
    assert fast._adj == ref._adj
    assert fast.edge_count == ref.edge_count
    assert fast._bits == ref._bits
    assert fast._triangle_count == ref._triangle_count
    assert fast.triangle_count == brute_force_triangles(fast)


# (graph size, v, kept, lost) on a complete graph
DUPLICATE_CASES = {
    # the duplicate links to its anchor, as when the q_c draw succeeds
    "kept_holds_v": (5, 0, [1, 2, 0], [3]),
    # 0-1 and 0-2 share the neighbors 3 and 4, and each other
    "lost_ends_share_neighbors": (5, 0, [3, 4], [1, 2]),
    "empty_kept": (4, 1, [], [0, 2, 3]),
    "empty_lost": (4, 2, [0, 1, 3, 2], []),
    "lone_node": (1, 0, [], []),
}


class TestAddDuplicate:
    @pytest.mark.parametrize("tracked", [True, False],
                             ids=["tracked", "untracked"])
    @pytest.mark.parametrize("case", DUPLICATE_CASES)
    def test_matches_the_checked_mutations(self, case, tracked):
        n, v, kept, lost = DUPLICATE_CASES[case]
        g = complete_graph(n, track_triangles=tracked)
        fast, ref = _duplicate_both_ways(g, v, kept, lost)
        assert_same_graph(fast, ref)
        assert fast.tracks_triangles == tracked
        if tracked:
            assert_bitmasks_match(fast)

    @pytest.mark.parametrize("tracked", [True, False],
                             ids=["tracked", "untracked"])
    def test_random_splits(self, tracked):
        # each step splits an anchor's neighbors at random into kept,
        # lost or both, the way a DMC step does
        rng = np.random.default_rng(17)
        g = random_graph(15, 0.4, rng, track_triangles=tracked)
        for _ in range(60):
            v = int(rng.integers(g.node_count))
            kept, lost = [], []
            for w in sorted(g.neighbors(v)):
                r = rng.random()
                if r < 0.3:
                    lost.append(w)
                elif r < 0.6:
                    kept.append(w)
                elif r < 0.8:
                    lost.append(w)
                    kept.append(w)
            if rng.random() < 0.5:
                kept.append(v)
            fast, g = _duplicate_both_ways(g, v, kept, lost)
            assert_same_graph(fast, g)
        if tracked:
            assert_bitmasks_match(g)


    @pytest.mark.parametrize("tracked", [True, False],
                             ids=["tracked", "untracked"])
    @pytest.mark.parametrize("case", DUPLICATE_CASES)
    def test_leaves_the_callers_lists_alone(self, case, tracked):
        # DUPLICATE_CASES is shared by every parametrization: a change
        # to its lists would corrupt the tests that run after this one
        n, v, kept, lost = DUPLICATE_CASES[case]
        before = (list(kept), list(lost))
        g = complete_graph(n, track_triangles=tracked)
        u = g.add_duplicate(v, kept, lost)
        assert g.neighbors(u) is not kept and g.neighbors(v) is not lost
        # appends to every list, the duplicate's among them
        g.add_node_with_edges(range(g.node_count))
        assert (kept, lost) == before


def neighbour_bytes_per_edge(g):
    """Bytes of the neighbour containers, the outer lists with them, per
    projection edge."""
    outer = [g._adj] + ([g._in] if g.directed else [])
    size = sum(sys.getsizeof(a) + sum(map(sys.getsizeof, a)) for a in outer)
    return size / g.edge_count


def test_dmc_neighbour_lists_take_at_most_32_bytes_per_edge():
    # 131 B per edge when the neighbours were sets
    _, g = grow_dmc(er_seed(30, 0.2, 1), DmcParams(0.25, 0.5),
                    GrowthPlan(5000), np.random.default_rng(0))
    assert not g.tracks_triangles
    assert g.edge_count == 217_794
    assert neighbour_bytes_per_edge(g) <= 32


def assert_adjacency_invariants(g, pairs, arcs):
    """Lists strictly ascending, the projection symmetric and equal to
    ``pairs`` (edges as (low, high) ids), ``has_edge`` and the
    in-neighbour lists as the oracle says, and a running triangle count
    exact."""
    lists = g._adj + (g._in if g.directed else [])
    for a in lists:
        assert all(x < y for x, y in zip(a, a[1:])), a
    held = {(u, w) for u, a in enumerate(g._adj) for w in a}
    assert held == {(w, u) for u, w in held}
    assert {(u, w) for u, w in held if u < w} == pairs
    assert 2 * g.edge_count == sum(map(len, g._adj))
    n = g.node_count
    for u in range(n):
        for w in range(n):
            assert g.has_edge(u, w) == ((min(u, w), max(u, w)) in pairs)
    if g.directed:
        assert {(u, w) for w, a in enumerate(g._in) for u in a} == arcs
    if g.tracks_triangles:
        assert g.triangle_count == brute_force_triangles(g)


class TestAdjacencyInvariants:
    """Random sequences of every mutation and of copies, checked after
    each step against a set-of-pairs oracle."""

    @pytest.mark.parametrize("tracked", [True, False],
                             ids=["tracked", "untracked"])
    @pytest.mark.parametrize("directed", [False, True],
                             ids=["undirected", "directed"])
    def test_random_operation_sequences(self, directed, tracked):
        rng = np.random.default_rng(53 + 2 * directed + tracked)
        g = Graph(directed=directed, track_triangles=tracked)
        pairs, arcs = set(), set()
        ops = ["add_node", "add_edge", "remove_edge", "add_node_with_edges",
               "copy"] + ([] if directed else ["add_duplicate"])
        for _ in range(200):
            op = ops[rng.integers(len(ops))]
            n = g.node_count
            if op == "add_node" or n < 2:
                g.add_node()
            elif op == "add_edge":
                u, w = (int(x) for x in rng.choice(n, size=2, replace=False))
                if (min(u, w), max(u, w)) not in pairs:
                    g.add_edge(u, w)
                    pairs.add((min(u, w), max(u, w)))
                    arcs.add((u, w))
            elif op == "remove_edge" and pairs:
                u, w = sorted(pairs)[rng.integers(len(pairs))]
                g.remove_edge(*((w, u) if rng.random() < 0.5 else (u, w)))
                pairs.remove((u, w))
                arcs.discard((u, w))
                arcs.discard((w, u))
            elif op == "add_node_with_edges":
                k = int(rng.integers(0, min(6, n) + 1))
                nbrs = rng.choice(n, size=k, replace=False).tolist()
                u = g.add_node_with_edges(nbrs)
                pairs.update((w, u) for w in nbrs)
                arcs.update((u, w) for w in nbrs)
            elif op == "add_duplicate":
                v = int(rng.integers(n))
                kept, lost = [], []
                for w in g.neighbors(v):
                    r = rng.random()
                    if r < 0.3:
                        lost.append(w)
                    elif r < 0.7:
                        kept.append(w)
                if rng.random() < 0.5:
                    kept.append(v)
                u = g.add_duplicate(v, kept, lost)
                pairs.difference_update((min(v, w), max(v, w)) for w in lost)
                pairs.update((w, u) for w in kept)
            elif op == "copy":
                track = [None, True, False][rng.integers(3)]
                g = g.copy(track_triangles=track)
            assert_adjacency_invariants(g, pairs, arcs)


class TestSampleNodes:
    def test_full_sample(self):
        g = complete_graph(5)
        s = sample_nodes(g, 5, np.random.default_rng(0))
        assert sorted(s) == list(range(5))

    def test_python_int_ids(self):
        # plain ints: np.int64 ids would slow the per-node set
        # intersections of induced_triangles
        s = sample_nodes(complete_graph(30), 12, np.random.default_rng(1))
        assert isinstance(s, list) and len(set(s)) == 12
        assert all(type(i) is int for i in s)

    def test_zero_too_small(self):
        g = complete_graph(5)
        with pytest.raises(SampleTooLarge):
            sample_nodes(g, 0, np.random.default_rng(0))

    def test_too_large(self):
        g = complete_graph(5)
        with pytest.raises(SampleTooLarge):
            sample_nodes(g, 6, np.random.default_rng(0))

    def test_uniform_frequencies(self):
        # single-node samples: each node within 5 sigma of uniform
        g = complete_graph(20)
        rng = np.random.default_rng(5)
        draws = 100_000
        counts = np.zeros(20)
        for _ in range(draws):
            (i,) = sample_nodes(g, 1, rng)
            counts[i] += 1
        expected = draws / 20
        sigma = np.sqrt(draws * (1 / 20) * (19 / 20))
        assert np.all(np.abs(counts - expected) <= 5 * sigma)


class TestInducedTriangles:
    def test_k4_full(self):
        g = complete_graph(4)
        assert induced_triangles(g, sample_nodes(
            g, 4, np.random.default_rng(0))) == 4

    def test_pair_sample(self):
        g = complete_graph(4)
        assert induced_triangles(g, [0, 1]) == 0

    def test_repeated_id_refused(self):
        g = complete_graph(4)
        with pytest.raises(ValueError, match="repeated"):
            induced_triangles(g, [0, 1, 2, 1])

    def test_unknown_id_refused(self):
        with pytest.raises(UnknownNode):
            induced_triangles(complete_graph(4), [0, 4])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        g = random_graph(30, 0.3, rng)
        s = sample_nodes(g, 12, rng)
        nodes = sorted(s)
        expected = sum(
            1 for a, b, c in itertools.combinations(nodes, 3)
            if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c))
        assert induced_triangles(g, s) == expected

    def test_all_nodes_equals_population(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g = random_graph(15, 0.4, rng)
            s = sample_nodes(g, 15, rng)
            assert induced_triangles(g, s) == g.triangle_count


class TestAverageDegree:
    def test_k4(self):
        assert complete_graph(4).average_degree() == 3.0

    def test_path(self):
        g = Graph()
        for _ in range(3):
            g.add_node()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert g.average_degree() == pytest.approx(4 / 3)

    def test_edgeless(self):
        g = Graph()
        for _ in range(10):
            g.add_node()
        assert g.average_degree() == 0.0

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            Graph().average_degree()

    def test_relabel_invariant(self):
        rng = np.random.default_rng(17)
        g = random_graph(12, 0.4, rng)
        perm = rng.permutation(12)
        h = Graph()
        for _ in range(12):
            h.add_node()
        for u, v in g.edges():
            h.add_edge(int(perm[u]), int(perm[v]))
        assert h.average_degree() == pytest.approx(g.average_degree())


class TestInvariants:
    def test_random_operation_sequences(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = random_graph(int(rng.integers(5, 20)), 0.3, rng)
            for _ in range(15):
                if rng.random() < 0.5 and g.edge_count > 0:
                    before = g.triangle_count
                    edges = list(g.edges())
                    u, v = edges[rng.integers(len(edges))]
                    g.remove_edge(u, v)
                    assert g.triangle_count <= before
                else:
                    before = g.triangle_count
                    k = int(rng.integers(0, min(5, g.node_count) + 1))
                    nbrs = rng.choice(g.node_count, size=k,
                                      replace=False).tolist()
                    g.add_node_with_edges(nbrs)
                    assert g.triangle_count >= before
                assert g.triangle_count == brute_force_triangles(g)
                degsum = sum(g.degree(u) for u in range(g.node_count))
                assert g.edge_count == degsum // 2

    def test_scan_matches_counter(self):
        rng = np.random.default_rng(29)
        g = random_graph(25, 0.3, rng)
        assert count_triangles(g) == g.triangle_count


def scipy_product_triangles(g):
    """The ``scipy.sparse`` count that ``count_triangles`` replaced: with
    U the 0/1 matrix of the edges oriented from the lower to the higher
    (degree, id) rank, the sum of (U @ U) * U."""
    sparse = pytest.importorskip("scipy.sparse")
    adj = g._adj
    n = len(adj)
    deg = np.fromiter(map(len, adj), dtype=np.int64, count=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    src = np.repeat(np.arange(n), deg)
    dst = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.int64,
                      count=int(deg.sum()))
    up = rank[dst] > rank[src]
    u = sparse.csr_array((np.ones(int(up.sum()), dtype=np.int64),
                          (src[up], dst[up])), shape=(n, n))
    return int((u @ u).multiply(u).sum())


def networkx_triangles(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.node_count))
    h.add_edges_from(g.edges())
    return sum(nx.triangles(h).values()) // 3


def _star(leaves):
    g = Graph()
    hub = g.add_node()
    for _ in range(leaves):
        g.add_node_with_edges([hub])
    return g


def _dmc_graph(q_m, q_c, n=1000):
    _, g = grow_dmc(er_seed(30, 0.2, 1), DmcParams(q_m, q_c), GrowthPlan(n),
                    np.random.default_rng(0))
    return g


def _price_graph():
    _, g = grow_price(directed_seed(30, 0.2, 1), PriceParams(2.5, 0.005),
                      GrowthPlan(600), np.random.default_rng(0))
    return g


COUNT_CASES = {
    "empty": lambda: Graph(),
    "edgeless": lambda: random_graph(6, 0.0, np.random.default_rng(0),
                                     track_triangles=False),
    "k4": lambda: complete_graph(4, track_triangles=False),
    "star": lambda: _star(12),
    "er_seed": lambda: er_seed(30, 0.2, 7).copy(track_triangles=False),
    "er_dense": lambda: er_seed(40, 0.6, 3).copy(track_triangles=False),
    "dmc_truth_1000": lambda: _dmc_graph(0.25, 0.5),
    "dmc_dense_corner_1000": lambda: _dmc_graph(0.15, 0.9),
    "price_projection": _price_graph,
}


class TestCountTriangles:
    @pytest.mark.parametrize("case", COUNT_CASES)
    def test_matches_brute_force(self, case):
        g = COUNT_CASES[case]()
        assert not g.tracks_triangles
        expected = brute_force_triangles(g) if g.node_count else 0
        assert count_triangles(g) == expected
        assert g.triangle_count == expected

    @pytest.mark.parametrize("case", COUNT_CASES)
    def test_matches_networkx(self, case):
        g = COUNT_CASES[case]()
        assert count_triangles(g) == networkx_triangles(g)


def _sparse_random(n, avg_degree, seed, isolated=0.0):
    """Untracked random graph of about ``avg_degree * n / 2`` edges among
    a random share ``1 - isolated`` of its n nodes; the others, ids
    spread over the whole range, stay isolated."""
    rng = np.random.default_rng(seed)
    g = Graph()
    for _ in range(n):
        g.add_node()
    live = np.flatnonzero(rng.random(n) >= isolated)
    if len(live) < 2:
        return g
    for u, v in rng.choice(live, size=(int(avg_degree * n / 2), 2)):
        if u != v and not g.has_edge(u, v):
            g.add_edge(int(u), int(v))
    return g


def _dmc_3000():
    _, g = grow_dmc(er_seed(30, 0.2, 1), DmcParams(0.25, 0.5),
                    GrowthPlan(3000), np.random.default_rng(2))
    return g


def _price_3000():
    _, g = grow_price(directed_seed(30, 0.2, 1), PriceParams(1.0, 0.01),
                      GrowthPlan(3000), np.random.default_rng(3))
    return g


# sizes around one and two 64-bit words and one 2,048-column block, a
# third of the nodes isolated, a DMC graph and a Price citation graph
# (counted on its undirected projection)
SCALE_CASES = dict(
    {"n%d" % n: functools.partial(_sparse_random, n, 20.0, n)
     for n in (0, 1, 63, 64, 65, 2047, 2048, 2049)},
    isolated_3000=functools.partial(_sparse_random, 3000, 30.0, 7, 1 / 3),
    dmc_3000=_dmc_3000,
    price_3000=_price_3000,
)


class TestCountTrianglesAtScale:
    """The column-blocked bitset count against three oracles, at the
    default block sizes and at small ones that split a graph into many
    column blocks and each block's rows into many gathers."""

    @pytest.fixture(scope="class")
    def graphs(self):
        built = {}

        def get(case):
            if case not in built:
                g = SCALE_CASES[case]()
                assert not g.tracks_triangles
                built[case] = (g, scipy_product_triangles(g))
            return built[case]

        return get

    @pytest.mark.parametrize("case", SCALE_CASES)
    def test_matches_oracles(self, graphs, case):
        g, expected = graphs(case)
        assert count_triangles(g) == expected
        assert brute_force_triangles(g) == expected
        assert networkx_triangles(g) == expected
        if g.node_count >= 2047:
            assert expected > 0

    @pytest.mark.parametrize("columns,gather", [(64, 64), (100, 48),
                                                (1000, 4096)])
    @pytest.mark.parametrize("case", [c for c in SCALE_CASES
                                      if c not in ("n0", "n1")])
    def test_small_blocks(self, graphs, monkeypatch, case, columns, gather):
        g, expected = graphs(case)
        monkeypatch.setattr(graph, "_BLOCK_COLUMNS", columns)
        monkeypatch.setattr(graph, "_GATHER_BYTES", gather)
        assert count_triangles(g) == expected


class TestTrackedCopy:
    def test_untracked_into_tracked_starts_from_the_count(self):
        rng = np.random.default_rng(31)
        g = random_graph(30, 0.3, rng, track_triangles=False)
        tracked = g.copy(track_triangles=True)
        assert tracked.tracks_triangles and not g.tracks_triangles
        assert tracked._triangle_count == brute_force_triangles(g)
        for _ in range(40):
            if rng.random() < 0.4:
                u, v = list(tracked.edges())[rng.integers(
                    tracked.edge_count)]
                tracked.remove_edge(u, v)
            else:
                k = int(rng.integers(0, 6))
                tracked.add_node_with_edges(rng.choice(
                    tracked.node_count, size=k, replace=False).tolist())
            assert tracked.triangle_count == brute_force_triangles(tracked)

    def test_copy_keeps_or_drops_tracking(self):
        g = complete_graph(5)
        assert g.copy().tracks_triangles
        untracked = g.copy(track_triangles=False)
        assert not untracked.tracks_triangles
        assert not untracked.copy().tracks_triangles
        untracked.remove_edge(0, 1)
        assert (g.triangle_count, untracked.triangle_count) == (10, 7)

    def test_untracked_mutations_skip_the_count(self):
        g = random_graph(20, 0.3, np.random.default_rng(2),
                         track_triangles=False)
        g.add_node_with_edges([0, 1, 2, 3])
        g.remove_edge(*next(g.edges()))
        assert g._triangle_count is None
        assert g.triangle_count == brute_force_triangles(g)


def assert_bitmasks_match(g):
    """Each node's bitmask is its projection neighbor set."""
    assert len(g._bits) == g.node_count
    for u in range(g.node_count):
        assert g._bits[u] == sum(1 << w for w in g.neighbors(u)), u


def assert_arcs_match(g, arcs):
    """The graph's arcs, in-degrees and arc count are those of ``arcs``."""
    assert set(g.edges()) == arcs
    in_degrees = [0] * g.node_count
    for _, v in arcs:
        in_degrees[v] += 1
    assert g.in_degrees() == in_degrees
    assert g.arc_count == g.edge_count == len(arcs)


def _random_arcs(n, p, rng):
    g = Graph(directed=True, track_triangles=True)
    for _ in range(n):
        g.add_node()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(*((j, i) if rng.random() < 0.5 else (i, j)))
    return g


def _cached_seed(directed):
    return build_seed_graph(RunConfig(model="price" if directed else "dmc",
                                      seed_n=25, seed_p=0.3, seed_rng=4))


BITMASK_STARTS = {
    "fresh": lambda directed, rng: (_random_arcs(15, 0.3, rng) if directed
                                    else random_graph(15, 0.3, rng)),
    "tracked_copy_of_untracked": lambda directed, rng: (
        _random_arcs(15, 0.3, rng) if directed
        else random_graph(15, 0.3, rng)).copy(track_triangles=False).copy(
            track_triangles=True),
    "cached_seed_copy": lambda directed, rng: _cached_seed(directed).copy(),
}


class TestBitmasks:
    """The running count is kept by popcounts of per-node neighbor
    bitmasks; after any mutation both must be exact."""

    @pytest.mark.parametrize("start", BITMASK_STARTS)
    @pytest.mark.parametrize("directed", [False, True],
                             ids=["undirected", "directed"])
    def test_random_mutation_sequence(self, start, directed):
        rng = np.random.default_rng(41 + 2 * list(BITMASK_STARTS).index(
            start) + directed)
        if start == "cached_seed_copy":
            seed = _cached_seed(directed)
            seed_state = (list(seed._bits), seed.triangle_count)
        g = BITMASK_STARTS[start](directed, rng)
        assert g.tracks_triangles and g.directed == directed
        assert g.triangle_count == brute_force_triangles(g)
        assert_bitmasks_match(g)
        # directed graphs: the arcs this test has put in, kept by hand
        arcs = set(g.edges()) if directed else None
        for _ in range(150):
            op = rng.random()
            n = g.node_count
            if op < 0.35 and g.edge_count:
                u, v = list(g.edges())[rng.integers(g.edge_count)]
                g.remove_edge(*((v, u) if rng.random() < 0.5 else (u, v)))
                if directed:
                    arcs.remove((u, v))
            elif op < 0.7:
                u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
                    if directed:
                        arcs.add((u, v))
            else:
                # any order: each closed triangle counts once either way
                k = int(rng.integers(0, min(8, n) + 1))
                nbrs = rng.choice(n, size=k, replace=False).tolist()
                u = g.add_node_with_edges(nbrs)
                if directed:
                    arcs.update((u, w) for w in nbrs)
            assert g.triangle_count == brute_force_triangles(g)
            assert_bitmasks_match(g)
            if directed:
                assert_arcs_match(g, arcs)
        if start == "cached_seed_copy":
            assert (seed._bits, seed.triangle_count) == seed_state

    def test_seeds_carry_bitmasks(self):
        for g in (er_seed(30, 0.2, 7), directed_seed(30, 0.2, 7)):
            assert g.tracks_triangles
            assert_bitmasks_match(g)

    def test_untracked_graphs_hold_none(self):
        rng = np.random.default_rng(43)
        tracked = random_graph(20, 0.3, rng)
        untracked = tracked.copy(track_triangles=False)
        untracked.add_node_with_edges([0, 1, 2])
        untracked.add_edge(3, 20)
        untracked.remove_edge(*next(untracked.edges()))
        untracked.add_node()
        assert untracked._bits is None and untracked._triangle_count is None
        assert Graph()._bits is None
        assert Graph(directed=True)._bits is None
        _, grown = grow_dmc(er_seed(30, 0.2, 1), DmcParams(0.25, 0.5),
                            GrowthPlan(200), rng)
        assert grown._bits is None
        assert_bitmasks_match(tracked)  # the source keeps its own


class TestDirected:
    def test_projection_triangles(self):
        g = Graph(directed=True)
        for _ in range(3):
            g.add_node()
        g.add_edge(1, 0)
        g.add_edge(2, 0)
        g.add_edge(2, 1)
        assert g.triangle_count == 1
        assert g.arc_count == 3
        assert g.in_degrees() == [2, 1, 0]

    def test_no_self_loops(self):
        g = Graph(directed=True)
        g.add_node()
        with pytest.raises(ValueError):
            g.add_edge(0, 0)

    def test_no_parallel_projection_edges(self):
        g = Graph(directed=True)
        g.add_node()
        g.add_node()
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            g.add_edge(1, 0)


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    g = random_graph(10, 0.4, rng)
    path = tmp_path / "g.edgelist"
    write_edge_list(g, path)
    from growabc.ingest import read_edge_list

    h, ts = read_edge_list(path)
    assert ts is None
    assert list(h.edges()) == list(g.edges())
