import hashlib

import numpy as np
import pytest
from scipy.stats import chisquare, spearmanr

from growabc.errors import CountTooLarge, PlanInvalid
from growabc.graph import Graph, count_triangles, er_seed
from growabc.models import (
    DmcParams,
    GrowthPlan,
    PriceParams,
    directed_seed,
    dmc_step,
    grow_dmc,
    grow_price,
    preferential_sample,
)
from growabc.summaries import SummarySpec

from test_graph import brute_force_triangles, complete_graph


TRACK_BOTH = (SummarySpec("avg_degree"), SummarySpec("triangle_count"))


class TestDmcStep:
    def test_no_removal_full_complement(self):
        g = complete_graph(3)
        dmc_step(g, DmcParams(q_m=0.0, q_c=1.0), np.random.default_rng(0))
        assert g.node_count == 4
        assert g.edge_count == 6
        assert g.triangle_count == 4

    def test_full_removal_no_complement(self):
        for seed in range(10):
            g = complete_graph(3)
            dmc_step(g, DmcParams(q_m=1.0, q_c=0.0),
                     np.random.default_rng(seed))
            assert g.node_count == 4
            assert g.edge_count == 3

    def test_single_node_complement_frequency(self):
        hits = 0
        runs = 10_000
        rng = np.random.default_rng(42)
        for _ in range(runs):
            g = Graph()
            g.add_node()
            dmc_step(g, DmcParams(q_m=0.5, q_c=0.5), rng)
            assert g.node_count == 2
            hits += g.edge_count
        assert hits / runs == pytest.approx(0.5, abs=0.02)

    def test_triangle_counter_stays_exact(self):
        rng = np.random.default_rng(7)
        g = er_seed(10, 0.4, 3)
        params = DmcParams(q_m=0.4, q_c=0.6)
        for _ in range(30):
            dmc_step(g, params, rng)
            assert g.triangle_count == brute_force_triangles(g)


def reference_dmc_step(g, params, rng):
    """One DMC step with one rng call per draw and every edge of the
    duplicate added before the removals: the draw order dmc_step keeps."""
    v = int(rng.integers(g.node_count))
    nbrs = sorted(g.neighbors(v))
    u = g.add_node_with_edges(nbrs)
    for w in nbrs:
        if rng.random() < params.q_m:
            if rng.random() < 0.5:
                g.remove_edge(v, w)
            else:
                g.remove_edge(u, w)
    if rng.random() < params.q_c:
        g.add_edge(u, v)


class TestDmcStream:
    @pytest.mark.parametrize("q_m", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("q_c", [0.0, 0.5, 1.0])
    def test_same_draws_and_graph_as_one_call_per_draw(self, q_m, q_c):
        params = DmcParams(q_m, q_c)
        for seed in range(3):
            # dmc_step keeps the running count; the reference counts
            # from scratch
            fast = er_seed(10, 0.4, seed)
            ref = fast.copy(track_triangles=False)
            rng_fast = np.random.default_rng(seed)
            rng_ref = np.random.default_rng(seed)
            for _ in range(300):
                dmc_step(fast, params, rng_fast)
                reference_dmc_step(ref, params, rng_ref)
            assert sorted(fast.edges()) == sorted(ref.edges())
            assert fast.node_count == ref.node_count
            assert fast.edge_count == ref.edge_count
            assert fast.triangle_count == ref.triangle_count
            assert (rng_fast.bit_generator.state
                    == rng_ref.bit_generator.state)

    def test_golden_graph(self):
        # pinned from the one-call-per-draw step
        _, g = grow_dmc(er_seed(30, 0.2, 1), DmcParams(0.25, 0.5),
                        GrowthPlan(1000), np.random.default_rng(0))
        assert g.edge_count == 18_522
        assert g.triangle_count == 58_002
        text = "".join("%d %d\n" % e for e in g.edges())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1712f09c8480c4f1eb66400158978cf61059c5c8536513cc3671c64a3db25168")


# the corners of the default prior box, and the corners of the model
TRACKING_THETAS = [(0.15, 0.1), (0.15, 0.9), (0.35, 0.1), (0.35, 0.9),
                   (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


class TestTriangleTracking:
    @pytest.mark.parametrize("theta", TRACKING_THETAS)
    def test_tracked_and_untracked_growth_agree(self, theta):
        params = DmcParams(*theta)
        seed = er_seed(30, 0.2, 1)
        tracked = seed.copy(track_triangles=True)
        untracked = seed.copy(track_triangles=False)
        rng_t, rng_u = np.random.default_rng(9), np.random.default_rng(9)
        for step in range(1, 271):
            dmc_step(tracked, params, rng_t)
            dmc_step(untracked, params, rng_u)
            if step % 15 == 0:
                assert tracked.triangle_count == untracked.triangle_count
        assert list(tracked.edges()) == list(untracked.edges())
        assert tracked.triangle_count == brute_force_triangles(untracked)
        assert rng_t.bit_generator.state == rng_u.bit_generator.state

    @pytest.mark.parametrize("theta", TRACKING_THETAS)
    def test_grow_tracks_only_when_a_checkpoint_reads_triangles(self,
                                                                theta):
        seed = er_seed(30, 0.2, 1)
        plans = {
            True: GrowthPlan(300, (150, 300), TRACK_BOTH),
            False: GrowthPlan(300, (150, 300), (SummarySpec("avg_degree"),)),
            None: GrowthPlan(300),
        }
        grown = {key: grow_dmc(seed, DmcParams(*theta), plan,
                               np.random.default_rng(4))
                 for key, plan in plans.items()}
        series, tracked = grown[True]
        for key, (_, g) in grown.items():
            assert g.tracks_triangles == bool(key)
            assert list(g.edges()) == list(tracked.edges())
        assert series.column("triangle_count")[-1] == count_triangles(
            grown[None][1])


class TestDmcBookkeeping:
    """Each step's one-pass mutation keeps the bitmasks, edge count and
    running triangle count of the graph it changes."""

    @pytest.mark.parametrize("theta", TRACKING_THETAS)
    def test_after_every_step(self, theta):
        params = DmcParams(*theta)
        g = er_seed(30, 0.2, 1).copy(track_triangles=True)
        rng = np.random.default_rng(9)
        for step in range(1, 271):
            dmc_step(g, params, rng)
            assert g._bits == [sum(1 << w for w in s) for s in g._adj]
            assert 2 * g.edge_count == sum(map(len, g._adj))
            if step % 15 == 0:
                assert g.triangle_count == brute_force_triangles(g)

    def test_directed_graph_refused(self):
        # used to run and add arcs
        g = directed_seed(10, 0.4, 1)
        before = sorted(g.edges())
        with pytest.raises(PlanInvalid, match="undirected seed"):
            dmc_step(g, DmcParams(0.3, 0.5), np.random.default_rng(0))
        assert g.node_count == 10 and sorted(g.edges()) == before


class TestGrowDmc:
    def test_single_checkpoint(self):
        seed = er_seed(30, 0.2, 7)
        plan = GrowthPlan(35, (35,), TRACK_BOTH)
        series, _ = grow_dmc(seed, DmcParams(0.3, 0.5), plan,
                             np.random.default_rng(0))
        assert series.checkpoints == (35,)
        assert series.values.shape == (1, 2)

    def test_full_grid_row_count(self):
        seed = er_seed(30, 0.2, 7)
        plan = GrowthPlan(500, tuple(range(35, 501, 5)), TRACK_BOTH)
        series, _ = grow_dmc(seed, DmcParams(0.3, 0.5), plan,
                             np.random.default_rng(0))
        assert series.values.shape == (94, 2)

    def test_reproducible(self):
        seed = er_seed(30, 0.2, 7)
        plan = GrowthPlan(120, tuple(range(35, 121, 5)), TRACK_BOTH)
        a, _ = grow_dmc(seed, DmcParams(0.25, 0.5), plan,
                        np.random.default_rng(5))
        b, _ = grow_dmc(seed, DmcParams(0.25, 0.5), plan,
                        np.random.default_rng(5))
        assert np.array_equal(a.values, b.values)
        assert seed.node_count == 30  # input untouched

    def test_plan_invalid(self):
        seed = er_seed(30, 0.2, 7)
        with pytest.raises(PlanInvalid):
            grow_dmc(seed, DmcParams(0.3, 0.5),
                     GrowthPlan(25, (26,), TRACK_BOTH),
                     np.random.default_rng(0))
        with pytest.raises(PlanInvalid):
            grow_dmc(seed, DmcParams(0.3, 0.5),
                     GrowthPlan(100, (20,), TRACK_BOTH),
                     np.random.default_rng(0))
        with pytest.raises(PlanInvalid):
            grow_dmc(seed, DmcParams(0.3, 0.5),
                     GrowthPlan(100, (60, 50), TRACK_BOTH),
                     np.random.default_rng(0))

    def test_summary_variance_grows_with_n(self):
        # checkpoint-wise variance over realizations trends upward
        seed = er_seed(30, 0.2, 7)
        cps = tuple(range(35, 501, 15))
        plan = GrowthPlan(500, cps, TRACK_BOTH)
        params = DmcParams(0.5, 0.25)
        values = np.array([
            grow_dmc(seed, params, plan, np.random.default_rng(1000 + i))[0]
            .values
            for i in range(150)
        ])
        for j in range(2):
            var = values[:, :, j].var(axis=0)
            rho, _ = spearmanr(cps, var)
            assert rho > 0.9

    def test_log_slope_positive_in_polynomial_regime(self):
        seed = er_seed(30, 0.2, 7)
        cps = tuple(range(35, 301, 5))
        plan = GrowthPlan(300, cps, TRACK_BOTH)
        for i, q_m in enumerate((0.15, 0.25, 0.35)):
            series, _ = grow_dmc(seed, DmcParams(q_m, 0.5), plan,
                                 np.random.default_rng(50 + i))
            for j in range(2):
                s = series.values[:, j]
                assert np.all(s > 0)
                slope = np.polyfit(np.log(cps), np.log(s), 1)[0]
                assert slope > 0


class TestPreferentialSample:
    def test_zero_count(self):
        assert preferential_sample([1, 2, 3], 1.0, 0,
                                   np.random.default_rng(0)) == set()

    def test_count_too_large(self):
        with pytest.raises(CountTooLarge):
            preferential_sample([1, 2], 1.0, 3, np.random.default_rng(0))

    def test_uniform_when_degrees_equal(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            (i,) = preferential_sample([2] * 5, 1.0, 1, rng)
            counts[i] += 1
        _, p = chisquare(counts)
        assert p > 0.001

    def test_weight_ratio(self):
        # weights (1, 10): second candidate wins with prob 10/11
        rng = np.random.default_rng(9)
        draws = 100_000
        second = 0
        for _ in range(draws):
            (i,) = preferential_sample([0, 9], 1.0, 1, rng)
            second += i
        assert second / draws == pytest.approx(10 / 11, abs=0.01)

    def test_distinct_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            picked = preferential_sample([0, 1, 2, 3], 0.5, 3, rng)
            assert len(picked) == 3


class TestDirectedSeed:
    @pytest.mark.parametrize("n_seed,p,rng_seed", [
        (1, 0.0, 0), (2, 1.0, 3), (10, 0.3, 1), (20, 0.2, 4), (30, 0.2, 7),
        (40, 0.6, 3)])
    def test_orients_the_er_seed_draw_from_higher_to_lower_id(
            self, n_seed, p, rng_seed):
        und = er_seed(n_seed, p, rng_seed)
        oracle = Graph(directed=True, track_triangles=True)
        for _ in range(n_seed):
            oracle.add_node()
        for u, v in und.edges():
            oracle.add_edge(max(u, v), min(u, v))
        g = directed_seed(n_seed, p, rng_seed)
        assert g.directed and g.tracks_triangles
        assert list(g.edges()) == list(oracle.edges())
        assert g.in_degrees() == oracle.in_degrees()
        assert g._bits == oracle._bits == und._bits
        assert (g.arc_count, g.edge_count, g.triangle_count) == (
            und.edge_count, und.edge_count, und.triangle_count)


class TestGrowPrice:
    def test_p_zero_isolated_newcomers(self):
        seed = directed_seed(20, 0.2, 4)
        m0 = seed.arc_count
        plan = GrowthPlan(100, (50, 100),
                         (SummarySpec("in_degree_mean"),))
        series, g = grow_price(seed, PriceParams(k0=1.0, p=0.0, out_cap=10),
                               plan, np.random.default_rng(0))
        assert g.arc_count == m0
        assert series.values[:, 0] == pytest.approx([m0 / 50, m0 / 100])

    def test_p_one_degenerate_binomial(self):
        seed = directed_seed(20, 0.2, 4)
        plan = GrowthPlan(60, (), ())
        _, g = grow_price(seed, PriceParams(k0=1.0, p=1.0, out_cap=2),
                          plan, np.random.default_rng(0))
        out_degree = [0] * g.node_count
        for u, _ in g.edges():
            out_degree[u] += 1
        assert out_degree[20:] == [2] * 40

    def test_mean_out_degree_matches_binomial_mean(self):
        seed = directed_seed(700, 0.02, 4)
        plan = GrowthPlan(3700, (), ())
        _, g = grow_price(seed, PriceParams(k0=1.0, p=0.02, out_cap=610),
                          plan, np.random.default_rng(2))
        added = g.arc_count - seed.arc_count
        assert added / 3000 == pytest.approx(12.2, abs=0.2)

    def test_directedness_enforced(self):
        with pytest.raises(PlanInvalid):
            grow_price(er_seed(10, 0.3, 1), PriceParams(1.0, 0.1, 10),
                       GrowthPlan(20, (), ()), np.random.default_rng(0))
        with pytest.raises(PlanInvalid):
            grow_dmc(directed_seed(10, 0.3, 1), DmcParams(0.3, 0.3),
                     GrowthPlan(20, (), ()), np.random.default_rng(0))

    def test_no_duplicate_citations(self):
        seed = directed_seed(10, 0.3, 1)
        plan = GrowthPlan(200, (), ())
        _, g = grow_price(seed, PriceParams(k0=1.0, p=0.5, out_cap=8),
                          plan, np.random.default_rng(3))
        arcs = list(g.edges())
        assert all(u != v for u, v in arcs)
        assert len(set(arcs)) == len(arcs) == g.arc_count


def test_param_validation():
    with pytest.raises(ValueError):
        DmcParams(q_m=-0.1, q_c=0.5)
    with pytest.raises(ValueError):
        DmcParams(q_m=0.1, q_c=1.5)
    with pytest.raises(ValueError):
        PriceParams(k0=0.0, p=0.5)
    with pytest.raises(ValueError):
        PriceParams(k0=1.0, p=0.5, out_cap=0)
