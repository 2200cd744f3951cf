import numpy as np
import pytest

from growabc.errors import SampleTooLarge, WrongDirectedness
from growabc.graph import Graph, er_seed
from growabc.models import DmcParams, GrowthPlan, grow_dmc
from growabc.summaries import (
    SummarySpec,
    evaluate,
    replicate_variance_reduction,
)

from test_graph import complete_graph


@pytest.fixture(scope="module")
def dmc_graph():
    seed = er_seed(30, 0.2, 7)
    _, g = grow_dmc(seed, DmcParams(0.5, 0.25), GrowthPlan(400, (), ()),
                    np.random.default_rng(1))
    return g


class TestEvaluate:
    def test_triangle_count_k4(self):
        spec = SummarySpec("triangle_count")
        assert evaluate(spec, complete_graph(4)) == 4.0

    def test_in_degree_moments(self):
        g = Graph(directed=True)
        g.add_node()
        g.add_node()
        g.add_edge(0, 1)
        assert evaluate(SummarySpec("in_degree_mean"), g) == 0.5
        assert evaluate(SummarySpec("in_degree_variance"), g) == 0.25

    def test_full_sample_is_population_count(self):
        g = complete_graph(6)
        spec = SummarySpec("sample_triangle_count", n_star=6, replicates=3)
        assert evaluate(spec, g, np.random.default_rng(0)) == 20.0

    def test_wrong_directedness(self):
        with pytest.raises(WrongDirectedness):
            evaluate(SummarySpec("in_degree_mean"), complete_graph(3))

    def test_sample_too_large(self):
        spec = SummarySpec("sample_triangle_count", n_star=10)
        with pytest.raises(SampleTooLarge):
            evaluate(spec, complete_graph(5), np.random.default_rng(0))

    def test_deterministic_kinds_ignore_rng(self):
        g = complete_graph(5)
        for kind in ("avg_degree", "triangle_count"):
            spec = SummarySpec(kind)
            assert evaluate(spec, g) == evaluate(
                spec, g, np.random.default_rng(123))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SummarySpec("unknown_kind")
        with pytest.raises(ValueError):
            SummarySpec("sample_triangle_count", n_star=2)
        with pytest.raises(ValueError):
            SummarySpec("avg_degree", replicates=0)

    def test_in_degree_mean_times_n_is_arc_count(self):
        from growabc.models import PriceParams, directed_seed, grow_price

        seed = directed_seed(15, 0.3, 1)
        _, g = grow_price(seed, PriceParams(1.0, 0.4, 6),
                          GrowthPlan(80, (), ()), np.random.default_rng(0))
        mean = evaluate(SummarySpec("in_degree_mean"), g)
        assert mean * g.node_count == pytest.approx(g.arc_count)


class TestReplicateAveraging:
    def test_mean_invariant_in_replicates(self, dmc_graph):
        # averaging is unbiased: k=1 and k=20 agree within 3 combined se
        rng = np.random.default_rng(2)
        trials = 400
        one = SummarySpec("sample_triangle_count", n_star=60, replicates=1)
        twenty = SummarySpec("sample_triangle_count", n_star=60,
                             replicates=20)
        a = np.array([evaluate(one, dmc_graph, rng) for _ in range(trials)])
        b = np.array([evaluate(twenty, dmc_graph, rng)
                      for _ in range(trials)])
        se = np.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert abs(a.mean() - b.mean()) <= 3 * se

    def test_variance_reduction_order(self, dmc_graph):
        rng = np.random.default_rng(3)
        var_single, var_avg = replicate_variance_reduction(
            dmc_graph, n_star=60, k=10, rng=rng, trials=300)
        assert var_avg < var_single

    def test_k1_matches_single(self, dmc_graph):
        rng = np.random.default_rng(4)
        var_single, var_avg = replicate_variance_reduction(
            dmc_graph, n_star=60, k=1, rng=rng, trials=400)
        ratio = var_avg / var_single
        assert 0.7 < ratio < 1.4  # equal up to Monte Carlo noise
