import math

import numpy as np
import pytest
from scipy.stats import kstest, norm

from growabc.errors import (
    DegenerateCovariance,
    EmptyPosterior,
    KTooLarge,
    LengthMismatch,
    MissingGpFields,
    NonFiniteInput,
    TooFewInputs,
)
from growabc.rejection import (
    PriorBox,
    ReferenceTable,
    ReferenceTableEntry,
    accept_top_k_density,
    accept_top_k_distance,
    bivariate_density,
    draw_prior,
    posterior_stats,
    standardization_sds,
    std_euclidean,
)


def entry(i, theta, summaries, variances=None, corr=None):
    return ReferenceTableEntry(entry_id=i, rng_seed=100 + i, theta=theta,
                               ext_summaries=summaries,
                               gp_variances=variances, gp_correlation=corr)


class TestPrior:
    def test_degenerate_box(self):
        box = PriorBox((0.3, 0.7), (0.3, 0.7))
        assert draw_prior(box, np.random.default_rng(0)) == (0.3, 0.7)

    def test_inside_box(self):
        box = PriorBox((0.15, 0.1), (0.35, 0.9))
        rng = np.random.default_rng(1)
        for _ in range(200):
            q_m, q_c = draw_prior(box, rng)
            assert 0.15 <= q_m <= 0.35
            assert 0.1 <= q_c <= 0.9

    def test_marginals_uniform(self):
        box = PriorBox((0.15, 0.1), (0.35, 0.9))
        rng = np.random.default_rng(2)
        draws = np.array([draw_prior(box, rng) for _ in range(3000)])
        for j, (lo, hi) in enumerate(((0.15, 0.35), (0.1, 0.9))):
            u = (draws[:, j] - lo) / (hi - lo)
            assert kstest(u, "uniform").pvalue > 0.001

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            PriorBox((0.5,), (0.4,))
        with pytest.raises(ValueError):
            PriorBox((0.1, 0.2), (0.3,))


class TestStandardization:
    def test_two_vectors(self):
        result = standardization_sds([(0.0, 0.0), (2.0, 4.0)])
        assert result.sds == pytest.approx((math.sqrt(2), 2 * math.sqrt(2)))
        assert not result.replaced.any()

    def test_zero_sd_replaced(self):
        result = standardization_sds([(1.0, 5.0), (1.0, 7.0), (1.0, 6.0)])
        assert result.sds[0] == 1.0
        assert result.replaced[0]
        assert not result.replaced[1]

    def test_too_few(self):
        with pytest.raises(TooFewInputs):
            standardization_sds([(1.0, 2.0)])

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(40, 3))
        result = standardization_sds(arr)
        assert result.sds == pytest.approx(arr.std(axis=0, ddof=1))


class TestDistance:
    def test_pythagorean(self):
        assert std_euclidean((3.0, 4.0), (0.0, 0.0), (1.0, 1.0)) == 5.0

    def test_standardized(self):
        d = std_euclidean((1.0, 2.0), (3.0, 6.0), (2.0, 4.0))
        assert d == pytest.approx(math.sqrt(2))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            std_euclidean((1.0,), (1.0, 2.0), (1.0, 1.0))


def random_table():
    rng = np.random.default_rng(4)
    return [entry(i, (rng.uniform(0, 1), rng.uniform(0, 1)),
                  tuple(rng.normal(10, 3, 2))) for i in range(30)]


class TestTopKDistance:
    def _table(self):
        return random_table()

    def test_k_equals_table(self):
        table = self._table()
        post = accept_top_k_distance(table, (10.0, 10.0), (1.0, 1.0),
                                     k=len(table))
        assert len(post.accepted) == 30

    def test_exact_match_first(self):
        table = self._table()
        target = table[17].ext_summaries
        post = accept_top_k_distance(table, target, (1.0, 1.0), k=3)
        assert post.accepted[0][0] == table[17].theta
        assert post.accepted[0][1] == 0.0

    def test_matches_sort_oracle(self):
        table = self._table()
        sds = (3.0, 3.0)
        obs = (9.0, 11.0)
        post = accept_top_k_distance(table, obs, sds, k=10)
        oracle = sorted(std_euclidean(e.ext_summaries, obs, sds)
                        for e in table)[:10]
        assert [s for _, s in post.accepted] == pytest.approx(oracle)

    def test_selection_invariant_under_common_rescale(self):
        table = self._table()
        obs = (9.0, 11.0)
        a = accept_top_k_distance(table, obs, (2.0, 5.0), k=10)
        b = accept_top_k_distance(table, obs, (4.0, 10.0), k=10)
        assert [t for t, _ in a.accepted] == [t for t, _ in b.accepted]

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            accept_top_k_distance(self._table(), (0.0, 0.0), (1.0, 1.0),
                                  k=31)

    def test_tie_break_by_entry_id(self):
        table = [entry(i, (float(i), 0.0), (5.0, 5.0)) for i in (7, 3, 9)]
        post = accept_top_k_distance(table, (5.0, 5.0), (1.0, 1.0), k=2)
        assert [t for t, _ in post.accepted] == [(3.0, 0.0), (7.0, 0.0)]

    def test_entry_ids_of_equal_thetas(self):
        table = [entry(i, (0.5, 0.5), (float(i), 0.0)) for i in (4, 2, 8)]
        post = accept_top_k_distance(table, (7.0, 0.0), (1.0, 1.0), k=3)
        assert post.entry_ids == (8, 4, 2)


def loop_top_k_distance(table, observed, sds, k):
    """The per-entry loop that the columnar selection replaced, kept as
    its oracle: (accepted pairs, entry ids)."""
    scored = sorted(
        ((std_euclidean(e.ext_summaries, observed, sds), e.entry_id, e)
         for e in table),
        key=lambda t: (t[0], t[1]))
    top = scored[:k]
    return ([(e.theta, dist) for dist, _, e in top],
            tuple(i for _, i, _ in top))


class TestColumnarDistance:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_distances_equal_std_euclidean_bitwise(self, m):
        # a row sum in another order (einsum, (z*z).sum) differs in the
        # last bit on about 0.5% of rows at m = 2
        rng = np.random.default_rng(m)
        scale = rng.uniform(0.1, 100.0, m)
        ext = rng.normal(size=(10_000, m)) * scale
        table = ReferenceTable(entry(i, (0.0,), tuple(row))
                               for i, row in enumerate(ext))
        observed = tuple(rng.normal(size=m) * scale)
        sds = tuple(rng.uniform(0.5, 2.0, m) * scale)
        post = accept_top_k_distance(table, observed, sds, k=len(table))
        got = dict(zip(post.entry_ids, (d for _, d in post.accepted)))
        mismatched = [e.entry_id for e in table
                      if got[e.entry_id]
                      != std_euclidean(e.ext_summaries, observed, sds)]
        assert mismatched == []

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("as_list", [False, True])
    def test_matches_the_loop(self, seed, as_list):
        # summaries on a coarse grid give many equal distances, and
        # thetas from a pool of three give equal thetas
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 60))
        ids = rng.permutation(size * 3)[:size]
        pool = rng.uniform(0.0, 1.0, (3, 2))
        entries = [entry(int(i), tuple(pool[rng.integers(3)]),
                         tuple(rng.integers(-3, 4, 2).astype(float)))
                   for i in ids]
        observed = tuple(rng.integers(-2, 3, 2).astype(float))
        sds = (1.0, float(rng.choice([1.0, 2.0, 0.5])))
        k = int(rng.integers(1, size + 1))
        table = entries if as_list else ReferenceTable(entries)
        post = accept_top_k_distance(table, observed, sds, k, method="RE")
        accepted, entry_ids = loop_top_k_distance(entries, observed, sds, k)
        assert post.accepted == accepted
        assert post.entry_ids == entry_ids
        assert post.method == "RE" and post.k == k

    def test_columns_are_built_once(self):
        table = ReferenceTable(random_table())
        columns = table.columns
        accept_top_k_distance(table, (9.0, 11.0), (3.0, 3.0), k=5)
        assert table.columns is columns
        assert columns.entry_ids.dtype == np.int64
        assert columns.ext.shape == (30, 2)
        assert columns.thetas.shape == (30, 2)

    def test_sequence_behaviour(self):
        entries = random_table()
        table = ReferenceTable(entries)
        assert len(table) == 30
        assert list(table) == entries
        assert table[3] is entries[3]
        with pytest.raises(TypeError):
            table[0] = entries[1]

    @pytest.mark.parametrize("observed,sds", [
        ((1.0,), (1.0, 1.0)),
        ((1.0, 1.0), (1.0,)),
        ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
    ])
    def test_length_mismatch(self, observed, sds):
        # broadcasting would accept a 1-vector against two summaries
        table = ReferenceTable(random_table())
        with pytest.raises(LengthMismatch):
            accept_top_k_distance(table, observed, sds, k=3)

    @pytest.mark.parametrize("observed", [
        (math.nan, 10.0), (1.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_observed(self, observed):
        # a nan used to score every entry nan and accept entries 1-3
        with pytest.raises(NonFiniteInput):
            accept_top_k_distance(ReferenceTable(random_table()), observed,
                                  (1.0, 1.0), k=3)


class TestBivariateDensity:
    def test_standard_normal_at_mean(self):
        d = bivariate_density((0.0, 0.0), (1.0, 1.0), 0.0, (0.0, 0.0))
        assert d == pytest.approx(1.0 / (2.0 * math.pi))

    def test_inflation_scales_peak(self):
        d = bivariate_density((0.0, 0.0), (1.0, 1.0), 0.0, (0.0, 0.0),
                              inflate=100.0)
        assert d == pytest.approx(1.0 / (2.0 * math.pi * 100.0))

    def test_uncorrelated_factorizes(self):
        mean, variances = (1.0, -2.0), (4.0, 9.0)
        x = (2.5, 0.5)
        d = bivariate_density(mean, variances, 0.0, x)
        oracle = norm.pdf(x[0], 1.0, 2.0) * norm.pdf(x[1], -2.0, 3.0)
        assert d == pytest.approx(oracle, rel=1e-12)

    def test_correlated_matches_scipy(self):
        from scipy.stats import multivariate_normal

        mean, variances, corr = (1.0, 2.0), (2.0, 5.0), 0.6
        cov = np.array([[2.0, corr * math.sqrt(10.0)],
                        [corr * math.sqrt(10.0), 5.0]])
        x = (0.0, 4.0)
        d = bivariate_density(mean, variances, corr, x)
        assert d == pytest.approx(
            multivariate_normal(mean, cov).pdf(x), rel=1e-12)

    def test_far_tail_underflows_to_zero(self):
        d = bivariate_density((0.0, 0.0), (1e-6, 1e-6), 0.0, (100.0, 100.0))
        assert d == 0.0

    @pytest.mark.parametrize("corr", [0.5, -0.5])
    def test_overflowing_residuals_score_zero(self, corr):
        # z1**2 and 2 * corr * z1 * z2 both overflow to inf: at corr 0.5
        # their difference used to make the density nan
        assert bivariate_density((10.0, 50.0), (1.0, 4.0), corr,
                                 (1e200, 1e200)) == 0.0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateCovariance):
            bivariate_density((0.0, 0.0), (0.0, 1.0), 0.0, (0.0, 0.0))
        with pytest.raises(DegenerateCovariance):
            bivariate_density((0.0, 0.0), (1.0, 1.0), 1.0, (0.0, 0.0))
        with pytest.raises(DegenerateCovariance):
            bivariate_density((0.0, 0.0), (1.0, 1.0), 0.0, (0.0, 0.0),
                              inflate=0.0)


class TestTopKDensity:
    def _table(self, variances=(1.0, 1.0), corr=0.0):
        rng = np.random.default_rng(5)
        return [entry(i, (rng.uniform(0, 1), rng.uniform(0, 1)),
                      tuple(rng.normal(10, 3, 2)), variances, corr)
                for i in range(30)]

    def test_ranking_matches_density_oracle(self):
        table = self._table()
        obs = (10.0, 10.0)
        post = accept_top_k_density(table, obs, k=10, inflate=1.0,
                                    rng=np.random.default_rng(0))
        oracle = sorted(
            (bivariate_density(e.ext_summaries, e.gp_variances,
                               e.gp_correlation, obs) for e in table),
            reverse=True)[:10]
        assert [s for _, s in post.accepted] == pytest.approx(oracle)
        assert post.zero_density_fills == 0

    def test_ranking_invariant_under_inflation_when_positive(self):
        table = self._table()
        obs = (10.0, 10.0)
        a = accept_top_k_density(table, obs, k=10, inflate=1.0,
                                 rng=np.random.default_rng(0))
        b = accept_top_k_density(table, obs, k=10, inflate=50.0,
                                 rng=np.random.default_rng(0))
        assert [t for t, _ in a.accepted] == [t for t, _ in b.accepted]

    def test_all_zero_fills_uniformly(self):
        # tiny variances put every entry in the far tail: densities all
        # underflow, so acceptance is a uniform draw among the entries
        table = self._table(variances=(1e-9, 1e-9))
        obs = (1000.0, 1000.0)
        counts = np.zeros(30)
        trials = 2000
        rng = np.random.default_rng(6)
        for _ in range(trials):
            post = accept_top_k_density(table, obs, k=3, inflate=1.0,
                                        rng=rng)
            assert post.zero_density_fills == 3
            for theta, score in post.accepted:
                assert score == 0.0
                counts[[e.theta for e in table].index(theta)] += 1
        from scipy.stats import chisquare

        assert chisquare(counts).pvalue > 0.001

    def test_inflation_reduces_fills(self):
        # moderate tail: inflate=1 underflows, inflate=100 does not
        table = self._table(variances=(1.0, 1.0))
        obs = (70.0, 70.0)
        tight = accept_top_k_density(table, obs, k=5, inflate=1.0,
                                     rng=np.random.default_rng(7))
        wide = accept_top_k_density(table, obs, k=5, inflate=100.0,
                                    rng=np.random.default_rng(7))
        assert tight.zero_density_fills > 0
        assert wide.zero_density_fills < tight.zero_density_fills

    def test_entry_ids_follow_accepted_order(self):
        # equal thetas; the fills are drawn from the zero-density entries
        table = [entry(i, (0.5, 0.5), (10.0 + 100.0 * i, 10.0), (1.0, 1.0),
                       0.0) for i in range(6)]
        post = accept_top_k_density(table, (110.0, 10.0), k=4, inflate=1.0,
                                    rng=np.random.default_rng(0))
        assert post.zero_density_fills == 3
        assert post.entry_ids[0] == 1
        assert len(set(post.entry_ids)) == 4
        by_id = {e.entry_id: e for e in table}
        for (theta, score), i in zip(post.accepted, post.entry_ids):
            assert theta == by_id[i].theta
            assert score == (bivariate_density(
                by_id[i].ext_summaries, (1.0, 1.0), 0.0, (110.0, 10.0))
                if i == 1 else 0.0)

    @pytest.mark.parametrize("n_positive_corr", [3, 1])
    def test_overflowing_residuals_fill_as_zero_density(self,
                                                        n_positive_corr):
        # an entry whose density was nan joined neither list: with three
        # such entries the fills raised ValueError, with one they were
        # drawn from the other four entries only
        table = [entry(i, (0.1 * i, 0.5), (10.0, 50.0), (1.0, 4.0),
                       0.5 if i < n_positive_corr else -0.5)
                 for i in range(5)]
        for seed in range(5):
            post = accept_top_k_density(table, (1e200, 1e200), k=3,
                                        inflate=1.0,
                                        rng=np.random.default_rng(seed))
            assert post.zero_density_fills == 3
            assert [score for _, score in post.accepted] == [0.0] * 3
            want = np.random.default_rng(seed).choice(5, size=3,
                                                      replace=False)
            assert post.entry_ids == tuple(want.tolist())

    def test_missing_gp_fields(self):
        table = [entry(0, (0.5, 0.5), (1.0, 1.0))]
        with pytest.raises(MissingGpFields):
            accept_top_k_density(table, (1.0, 1.0), k=1, inflate=1.0,
                                 rng=np.random.default_rng(0))

    @pytest.mark.parametrize("observed", [(1.0, 2.0, 99.0), (1.0,)],
                             ids=["three", "one"])
    def test_length_mismatch(self, observed):
        # the third value used to be ignored, and a 1-vector raised
        # IndexError
        with pytest.raises(LengthMismatch):
            accept_top_k_density(ReferenceTable(self._table()), observed,
                                 k=3, inflate=1.0,
                                 rng=np.random.default_rng(0))

    @pytest.mark.parametrize("observed", [(2.0, 2.0, 0.0), (2.0, 2.0, 1e9)],
                             ids=["near", "far"])
    def test_three_summary_table_is_refused(self, observed):
        # both vectors used to accept the same ids: only the first two
        # summaries were scored
        table = [entry(i, (0.1 * i, 0.5), (float(i), 2.0, float(i)),
                       (1.0, 1.0, 1.0), 0.0) for i in range(5)]
        with pytest.raises(LengthMismatch):
            accept_top_k_density(table, observed, k=2, inflate=1.0,
                                 rng=np.random.default_rng(0))

    @pytest.mark.parametrize("observed", [
        (math.nan, 10.0), (10.0, math.inf), (-math.inf, 10.0)])
    def test_non_finite_observed(self, observed):
        with pytest.raises(NonFiniteInput):
            accept_top_k_density(self._table(), observed, k=3, inflate=1.0,
                                 rng=np.random.default_rng(0))

    def test_gp_fields_must_come_together(self):
        with pytest.raises(MissingGpFields):
            entry(0, (0.5, 0.5), (1.0, 1.0), variances=(1.0, 1.0))

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            accept_top_k_density(self._table(), (0.0, 0.0), k=31,
                                 inflate=1.0, rng=np.random.default_rng(0))


class TestPosteriorStats:
    def test_single_point(self):
        post = accept_top_k_distance(
            [entry(0, (0.2, 0.7), (1.0, 1.0))], (1.0, 1.0), (1.0, 1.0), k=1)
        stats = posterior_stats(post, truth=(0.25, 0.5))
        assert stats["mean"] == [0.2, 0.7]
        assert stats["variance"] == [0.0, 0.0]
        assert stats["q2.5"] == [0.2, 0.7]
        assert stats["squared_error"] == pytest.approx(
            [0.05 ** 2, 0.2 ** 2])

    def test_decile_grid_mean(self):
        table = [entry(i, (0.1 * (i + 1), 0.0), (float(i), float(i)))
                 for i in range(10)]
        post = accept_top_k_distance(table, (0.0, 0.0), (1.0, 1.0), k=10)
        stats = posterior_stats(post)
        assert stats["mean"][0] == pytest.approx(0.55)

    def test_quantiles_match_numpy(self):
        rng = np.random.default_rng(8)
        thetas = rng.uniform(0, 1, size=(50, 2))
        table = [entry(i, tuple(thetas[i]), (0.0, 0.0))
                 for i in range(50)]
        post = accept_top_k_distance(table, (0.0, 0.0), (1.0, 1.0), k=50)
        stats = posterior_stats(post)
        assert stats["q2.5"] == pytest.approx(
            np.quantile(thetas, 0.025, axis=0))
        assert stats["q97.5"] == pytest.approx(
            np.quantile(thetas, 0.975, axis=0))

    def test_identical_copies(self):
        table = [entry(i, (0.3, 0.6), (0.0, 0.0)) for i in range(5)]
        post = accept_top_k_distance(table, (0.0, 0.0), (1.0, 1.0), k=5)
        stats = posterior_stats(post)
        assert stats["mean"] == [0.3, 0.6]
        assert stats["variance"] == [0.0, 0.0]

    def test_empty_posterior(self):
        from growabc.rejection import AbcPosterior

        with pytest.raises(EmptyPosterior):
            posterior_stats(AbcPosterior([], "LS", 0))
