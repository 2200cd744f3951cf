import csv
import faulthandler
import json
import multiprocessing
import os
import sys
import time

import numpy as np
import pytest

from growabc.config import (
    RunConfig,
    apply_overrides,
    config_hash,
    load_config,
    parse_config_text,
)
from growabc.errors import (
    ConfigError,
    EdgeListParseError,
    MissingTimestamps,
)
from growabc.experiment import (
    _observed_for,
    abc_run,
    compute_sds,
    run_abc,
    run_experiment,
    timing_report,
)
from growabc.rejection import (
    ReferenceTableEntry,
    accept_top_k_density,
    draw_prior,
    standardization_sds,
)
from growabc.seeding import (
    AUX_OFFSET,
    FILL_OFFSET,
    OBSERVED_OFFSET,
    aux_seed,
    fill_seed,
    mix_seed,
    observed_seed,
)
from growabc.graph import Graph, er_seed, write_edge_list
from growabc.ingest import ingest_observed, read_edge_list, seed_subgraph
from growabc.pool import pool_map
from growabc.summaries import SummarySpec, evaluate
from growabc.table import (
    build_reference_table,
    build_seed_graph,
    load_reference_table,
    simulate_observed,
)
from growabc import cli, experiment, graph, table


SMALL = dict(n_s=60, n_o=80, table_size=6, accept_k=3, exp_replicates=3,
             timing_reps=1)


def small_cfg(**kw):
    merged = dict(SMALL)
    merged.update(kw)
    return RunConfig(**merged)


class TestConfig:
    def test_parse_text(self):
        cfg = parse_config_text(
            "model = dmc\n"
            "# a comment\n"
            "n_s = 200  # trailing comment\n"
            "prior_low = 0.2, 0.3\n"
            "seed_cutoff = none\n"
            "inflate = 50\n")
        assert cfg.model == "dmc"
        assert cfg.n_s == 200
        assert cfg.prior_low == (0.2, 0.3)
        assert cfg.seed_cutoff is None
        assert cfg.inflate == 50.0

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("bogus = 1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("n_s = soon\n")

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), ["method=GPb", "accept_k=10"])
        assert cfg.method == "GPb"
        assert cfg.accept_k == 10
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["no-equals-sign"])

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("method = S\nmaster_seed = 7\n")
        cfg = load_config(str(path), ["master_seed=9"])
        assert cfg.method == "S"
        assert cfg.master_seed == 9

    def test_hash_semantics(self):
        a = RunConfig()
        assert config_hash(a) == config_hash(RunConfig())
        assert config_hash(a) != config_hash(RunConfig(master_seed=1))
        # non-semantic fields do not change the hash
        assert config_hash(a) == config_hash(RunConfig(workers=4,
                                                       timing_reps=9))

    def test_validate(self):
        with pytest.raises(ConfigError):
            RunConfig(model="barabasi").validate()
        with pytest.raises(ConfigError):
            RunConfig(method="MCMC").validate()
        with pytest.raises(ConfigError):
            RunConfig(n_s=2000, n_o=1000).validate()
        with pytest.raises(ConfigError):
            RunConfig(method="RE").validate()  # needs sampled summary
        RunConfig().validate()

    @pytest.mark.parametrize("method", ["RE", "LS"])
    def test_sampled_summary_larger_than_first_checkpoint(self, method):
        # n_star=100 above the first checkpoint (35) used to validate,
        # then fail every entry with SampleTooLarge
        sampled = "avg_degree,sample_triangle_count"
        with pytest.raises(ConfigError):
            RunConfig(method=method, summaries=sampled).validate()
        RunConfig(method=method, summaries=sampled, n_star=35).validate()

    def test_sampled_summary_larger_than_n_o_for_method_s(self):
        sampled = "avg_degree,sample_triangle_count"
        RunConfig(method="S", summaries=sampled, n_star=1000).validate()
        with pytest.raises(ConfigError):
            RunConfig(method="S", summaries=sampled, n_star=1001).validate()

    def test_checkpoints(self):
        cfg = RunConfig(n_s=500)
        cps = cfg.checkpoints()
        assert cps[0] == 35 and cps[-1] == 500 and len(cps) == 94

    def test_summary_specs_and_truths(self):
        cfg = RunConfig(summaries="avg_degree,sample_triangle_count",
                        n_star=80, replicates=4,
                        truths="0.2:0.5;0.3:0.7")
        specs = cfg.summary_specs()
        assert specs[0] == SummarySpec("avg_degree")
        assert specs[1].n_star == 80 and specs[1].replicates == 4
        assert cfg.truth_list() == [(0.2, 0.5), (0.3, 0.7)]
        with pytest.raises(ConfigError):
            RunConfig(truths="0.2").truth_list()


class TestTableBuild:
    def test_ls_schema_and_determinism(self, tmp_path):
        cfg = small_cfg()
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        build_reference_table(cfg, p1)
        build_reference_table(cfg, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        entries, failed, header = load_reference_table(p1, config_hash(cfg))
        assert header == ["entry_id", "rng_seed", "q_m", "q_c",
                          "ext_avg_degree", "ext_triangle_count", "failed"]
        assert failed == 0
        assert [e.entry_id for e in entries] == [1, 2, 3, 4, 5, 6]
        box = cfg.prior_box()
        for e in entries:
            for t, lo, hi in zip(e.theta, box.lower, box.upper):
                assert lo <= t <= hi
            assert all(np.isfinite(v) for v in e.ext_summaries)
            assert e.gp_variances is None

    def test_resume_matches_uninterrupted_build(self, tmp_path):
        cfg = small_cfg()
        full = str(tmp_path / "full.csv")
        build_reference_table(cfg, full)
        lines = open(full).read().splitlines(keepends=True)
        partial = str(tmp_path / "partial.csv")
        with open(partial, "w") as fh:
            fh.writelines(lines[:5])  # hash line + header + 3 entries
        build_reference_table(cfg, partial)
        assert open(partial).read() == open(full).read()

    def test_resume_after_torn_last_row(self, tmp_path):
        # a build killed 12 characters into entry 3's row; resuming used
        # to append entry 4 onto that line, which then loaded as an
        # 8-field entry 3 with q_m ~ 1.96e18, and entry 4 was lost
        cfg = RunConfig(n_s=100, n_o=200, table_size=6, workers=1)
        full = tmp_path / "full.csv"
        build_reference_table(cfg, str(full))
        lines = full.read_bytes().splitlines(keepends=True)
        assert lines[4][:12] == b"3,1790961137"
        torn = tmp_path / "torn.csv"
        torn.write_bytes(b"".join(lines[:4]) + lines[4][:12])
        with pytest.raises(ConfigError):
            load_reference_table(str(torn))
        build_reference_table(cfg, str(torn))
        assert torn.read_bytes() == full.read_bytes()
        entries, failed, _ = load_reference_table(str(torn))
        assert [e.entry_id for e in entries] == [1, 2, 3, 4, 5, 6]

    def test_hash_mismatch_refuses_resume(self, tmp_path):
        cfg = small_cfg()
        path = str(tmp_path / "t.csv")
        build_reference_table(cfg, path)
        with pytest.raises(ConfigError):
            build_reference_table(small_cfg(master_seed=1), path)
        with pytest.raises(ConfigError):
            load_reference_table(path, config_hash(small_cfg(master_seed=1)))

    def test_method_s_schema(self, tmp_path):
        cfg = small_cfg(method="S", table_size=3)
        path = str(tmp_path / "s.csv")
        build_reference_table(cfg, path)
        entries, _, header = load_reference_table(path)
        assert "ext_avg_degree" in header
        assert len(entries) == 3

    def test_gp_table_has_variance_and_corr(self, tmp_path):
        cfg = small_cfg(method="GPa", table_size=4)
        path = str(tmp_path / "gp.csv")
        build_reference_table(cfg, path)
        entries, failed, header = load_reference_table(path)
        assert header[-4:] == ["gpvar_avg_degree", "gpvar_triangle_count",
                               "gp_corr", "failed"]
        assert failed == 0
        for e in entries:
            assert all(v > 0 for v in e.gp_variances)
            assert -1.0 <= e.gp_correlation <= 1.0

    def test_tables_of_one_master_seed_pair_row_by_row(self, tmp_path):
        # theta is entry b's first draw, and these summaries draw nothing
        # at the checkpoints, so row b of an S table is row b of an LS or
        # GPa table grown on to n_o. RE is left out: its sampled summary
        # draws from the growth stream.
        pairs = []
        for method in ("S", "LS", "GPa"):
            cfg = RunConfig(n_s=60, n_o=80, table_size=4, workers=1,
                            method=method)
            path = build_reference_table(cfg, str(tmp_path / method))
            with open(path) as fh:
                rows = list(csv.DictReader(fh.readlines()[1:]))
            pairs.append([(r["entry_id"], r["rng_seed"], r["q_m"], r["q_c"])
                          for r in rows])
        assert [p[0] for p in pairs[0]] == ["1", "2", "3", "4"]
        assert pairs[1] == pairs[0] and pairs[2] == pairs[0]


class TestIngest:
    def test_triangle_file(self, tmp_path):
        path = tmp_path / "tri.edges"
        path.write_text("0 1\n1 2\n2 0\n")
        obs = ingest_observed(str(path), (SummarySpec("triangle_count"),))
        assert obs.summaries_at_no == (1.0,)
        assert obs.graph.node_count == 3
        assert obs.seed_graph is None

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n1 two\n2 0\n")
        with pytest.raises(EdgeListParseError) as err:
            read_edge_list(str(path))
        assert err.value.line_number == 2

    def test_column_count_enforced(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2 3\n")
        with pytest.raises(EdgeListParseError):
            read_edge_list(str(path))

    def test_inconsistent_timestamps(self, tmp_path):
        path = tmp_path / "mixed.edges"
        path.write_text("0 1 5\n1 2\n")
        with pytest.raises(EdgeListParseError):
            read_edge_list(str(path))

    @pytest.mark.parametrize("text,directed,line", [
        ("0 1\n1 2\n2 2\n", False, 3),
        ("0 1\n1 2\n2 1\n", False, 3),
        ("0 1\n1 2\n0 1\n", False, 3),
        ("1 0\n2 1\n0 1\n", True, 3),
        ("1 0\n1 0\n", True, 2),
    ], ids=["self_loop", "repeated_edge", "repeated_line",
            "reciprocal_arc", "repeated_arc"])
    def test_self_loop_and_repeated_edge_line_number(self, tmp_path, text,
                                                     directed, line):
        # these used to raise a bare ValueError from Graph.add_edge
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(EdgeListParseError) as err:
            read_edge_list(str(path), directed=directed)
        assert err.value.line_number == line

    @staticmethod
    def _hub_arcs(directed):
        """A star on node 0, a second hub at node 7 and random edges,
        shuffled, each with a random orientation."""
        rng = np.random.default_rng(29 + directed)
        n = 400
        pairs = {(0, w) for w in range(1, n)}
        pairs.update((7, w) for w in range(8, n, 2))
        while len(pairs) < 1600:
            u, w = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            pairs.add((u, w))
        arcs = [(w, u) if rng.random() < 0.5 else (u, w)
                for u, w in sorted(pairs)]
        return [arcs[i] for i in rng.permutation(len(arcs))]

    @pytest.mark.parametrize("directed", [False, True],
                             ids=["undirected", "directed"])
    def test_bulk_build_matches_add_edge(self, tmp_path, directed):
        arcs = self._hub_arcs(directed)
        path = tmp_path / "hubs.edges"
        path.write_text("".join("%d %d\n" % a for a in arcs))
        g, _ = read_edge_list(str(path), directed=directed)
        ref = Graph(directed=directed)
        for _ in range(400):
            ref.add_node()
        for u, v in arcs:
            ref.add_edge(u, v)
        assert g._adj == ref._adj and g._in == ref._in
        assert (g.node_count, g.edge_count) == (400, 1600)
        assert list(g.edges()) == list(ref.edges())
        assert g.in_degrees() == ref.in_degrees()
        assert g.triangle_count == ref.triangle_count
        # one int object per id, not one per parsed field
        lists = g._adj + (g._in if directed else [])
        assert len({id(w) for a in lists for w in a}) <= g.node_count

    @pytest.mark.parametrize("directed", [False, True],
                             ids=["undirected", "directed"])
    def test_planted_repeat_is_reported_at_its_line(self, tmp_path,
                                                    directed):
        arcs = self._hub_arcs(directed)
        # line 901 gives line 3's pair reversed (in directed mode the
        # other arc of the pair), line 1201 repeats line 10 as it is
        lines = arcs[:900] + [arcs[2][::-1]] + arcs[900:1199] + [arcs[9]]
        lines += arcs[1199:]
        path = tmp_path / "hubs.edges"
        path.write_text("".join("%d %d\n" % a for a in lines))
        with pytest.raises(EdgeListParseError) as err:
            read_edge_list(str(path), directed=directed)
        assert err.value.line_number == 901
        # without the first, the second repeat moves up to line 1200
        path.write_text("".join("%d %d\n" % a for a in lines[:900]
                                + lines[901:]))
        with pytest.raises(EdgeListParseError) as err:
            read_edge_list(str(path), directed=directed)
        assert err.value.line_number == 1200

    def test_round_trip(self, tmp_path):
        g = er_seed(12, 0.3, 2)
        path = str(tmp_path / "rt.edges")
        write_edge_list(g, path)
        back, node_ts = read_edge_list(path)
        assert node_ts is None
        assert sorted(back.edges()) == sorted(g.edges())
        assert back.triangle_count == g.triangle_count

    def test_cutoff_seed_subgraph(self, tmp_path):
        path = tmp_path / "ts.edges"
        path.write_text("0 1 1\n1 2 1\n2 0 1\n2 3 9\n3 4 9\n")
        obs = ingest_observed(str(path), (SummarySpec("avg_degree"),),
                              seed_cutoff=5)
        assert obs.seed_graph.node_count == 3
        assert obs.seed_graph.edge_count == 3
        assert obs.graph.node_count == 5

    def test_edgelist_seed_with_cutoff(self, tmp_path):
        path = tmp_path / "ts.edges"
        path.write_text("0 1 1\n1 2 1\n2 0 1\n2 3 9\n3 4 9\n")
        cfg = small_cfg(seed_type="edgelist", seed_path=str(path),
                        seed_cutoff=5)
        seed = build_seed_graph(cfg)
        assert (seed.node_count, seed.edge_count) == (3, 3)
        nots = tmp_path / "nots.edges"
        nots.write_text("0 1\n1 2\n")
        with pytest.raises(ConfigError):
            build_seed_graph(small_cfg(seed_type="edgelist",
                                       seed_path=str(nots), seed_cutoff=5))

    def test_cutoff_without_timestamps(self, tmp_path):
        path = tmp_path / "nots.edges"
        path.write_text("0 1\n1 2\n")
        with pytest.raises(MissingTimestamps):
            ingest_observed(str(path), (SummarySpec("avg_degree"),),
                            seed_cutoff=5)

    @pytest.mark.parametrize("text", ["0 1\n%d 2\n" % 2 ** 63,
                                      "0 1 5\n1 2 %d\n" % -2 ** 64],
                             ids=["node_id", "timestamp"])
    def test_field_beyond_64_bits_line_number(self, tmp_path, text):
        # the columns are 64-bit integer arrays
        path = tmp_path / "big.edges"
        path.write_text(text)
        with pytest.raises(EdgeListParseError, match="out of range") as err:
            read_edge_list(str(path))
        assert err.value.line_number == 2


class TestAbcRun:
    def test_outputs(self, tmp_path):
        cfg = small_cfg()
        out = str(tmp_path / "run")
        posterior = abc_run(cfg, str(tmp_path / "table.csv"), out)
        assert len(posterior.accepted) == 3
        with open(os.path.join(out, "posterior.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "entry_id", "q_m", "q_c", "score"]
        assert len(rows) == 4
        scores = [float(r[4]) for r in rows[1:]]
        assert scores == sorted(scores)
        stats = json.load(open(os.path.join(out, "stats.json")))
        assert stats["k"] == 3
        assert stats["method"] == "LS"
        assert len(stats["observed"]) == 2
        assert "squared_error" in stats

    def test_explicit_observed_vector(self, tmp_path):
        cfg = small_cfg()
        table = str(tmp_path / "table.csv")
        build_reference_table(cfg, table)
        entries, _, _ = load_reference_table(table)
        target = entries[2]
        posterior = abc_run(cfg, table, str(tmp_path / "run"),
                            observed=target.ext_summaries)
        assert posterior.accepted[0][0] == target.theta
        assert posterior.accepted[0][1] == 0.0


class TestStreams:
    def test_stream_layout(self):
        for master in (0, 5):
            for t, r in ((0, 0), (0, 7), (2, 3)):
                index = t * 100_000 + r
                assert observed_seed(master, t, r) == mix_seed(
                    master, OBSERVED_OFFSET + index)
                assert fill_seed(master, t, r) == mix_seed(
                    master, FILL_OFFSET + index)
            assert aux_seed(master, 4) == mix_seed(master, AUX_OFFSET + 4)

    def test_observed_network_of_a_replicate(self):
        cfg = small_cfg(truths="0.25:0.5;0.3:0.6", master_seed=2)
        rng = np.random.default_rng(mix_seed(2, OBSERVED_OFFSET + 100_002))
        assert _observed_for((cfg, 1, 2)) == (
            1, 2, simulate_observed(cfg, (0.3, 0.6), rng))

    @pytest.mark.parametrize("method", ["LS", "GPa"])
    def test_abc_run_accepts_the_studys_first_replicate(self, tmp_path,
                                                        method):
        cfg = small_cfg(method=method, master_seed=5)
        table = str(tmp_path / "table.csv")
        out = tmp_path / "run"
        abc_run(cfg, table, str(out))
        rng = np.random.default_rng(mix_seed(5, OBSERVED_OFFSET))
        observed = simulate_observed(cfg, cfg.truth_list()[0], rng)
        assert _observed_for((cfg, 0, 0))[2] == observed
        stats = json.loads((out / "stats.json").read_text())
        assert stats["observed"] == list(observed)
        entries, _, _ = load_reference_table(table)
        want = run_abc(cfg, entries, observed, compute_sds(cfg, entries),
                       np.random.default_rng(mix_seed(5, FILL_OFFSET)))
        with open(out / "posterior.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["entry_id"]) for r in rows] == list(want.entry_ids)
        assert [float(r["score"]) for r in rows] \
            == [float(score) for _, score in want.accepted]

    @pytest.mark.xfail(strict=True, reason="sampled summaries draw their "
                       "node samples from the growth stream")
    def test_sampled_summary_leaves_the_grown_graph_unchanged(self):
        # an entry's graph must not depend on which summaries it tracks,
        # or a sampled-summary table does not pair row by row with S
        grown = []
        for summaries in ("avg_degree,triangle_count",
                          "avg_degree,sample_triangle_count"):
            cfg = small_cfg(summaries=summaries, n_star=35, n_s=200,
                            n_o=400)
            rng = np.random.default_rng(mix_seed(cfg.master_seed, 1))
            theta = draw_prior(cfg.prior_box(), rng)
            _, g = table.grow_to(cfg, theta, rng, cfg.entry_plan())
            grown.append(list(g.edges()))
        assert grown[0] == grown[1]


class TestAcceptanceSettings:
    def test_auxiliary_sds_come_from_the_aux_seeds(self):
        cfg = small_cfg(standardization="auxiliary", aux_count=3,
                        master_seed=4)
        vectors = []
        for i in range(3):
            rng = np.random.default_rng(mix_seed(4, AUX_OFFSET + i))
            theta = draw_prior(cfg.prior_box(), rng)
            vectors.append(simulate_observed(cfg, theta, rng))
        sds = compute_sds(cfg, entries=None)
        assert sds.tolist() == standardization_sds(vectors).sds.tolist()

    def test_density_methods_score_with_their_inflate_and_fill_rng(self):
        # tight variances: at inflate 1 and 2 most densities underflow,
        # so fills drawn by the default fill rng are in both posteriors
        rng = np.random.default_rng(8)
        entries = [ReferenceTableEntry(
            entry_id=i, rng_seed=i, theta=(rng.uniform(), rng.uniform()),
            ext_summaries=tuple(rng.normal(10.0, 3.0, 2)),
            gp_variances=(1e-3, 1e-3), gp_correlation=0.2)
            for i in range(40)]
        observed = (10.0, 10.0)

        def expected(inflate, fill_seed, method):
            return accept_top_k_density(
                entries, observed, 10, inflate,
                np.random.default_rng(fill_seed), method=method)

        fill_seed = mix_seed(6, FILL_OFFSET)
        for method, inflate in (("GPa", 1.0), ("GPb", 2.0)):
            cfg = small_cfg(method=method, inflate=2.0, accept_k=10,
                            master_seed=6)
            got = run_abc(cfg, entries, observed, sds=None)
            want = expected(inflate, fill_seed, method)
            assert (got.accepted, got.entry_ids, got.zero_density_fills,
                    got.method) == (want.accepted, want.entry_ids,
                                    want.zero_density_fills, method)
            assert want.zero_density_fills > 0
            # either wrong setting would change the posterior
            for other in (expected(3.0 - inflate, fill_seed, method),
                          expected(inflate, fill_seed + 1, method)):
                assert (other.accepted, other.entry_ids) != (
                    want.accepted, want.entry_ids)


class TestExperiment:
    def test_report_and_rmse_identity(self, tmp_path):
        cfg = small_cfg(table_size=8)
        out = str(tmp_path / "exp")
        report = run_experiment(cfg, out)
        with open(os.path.join(out, "posterior_means.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["truth_idx", "replicate", "true_q_m", "true_q_c",
                           "mean_q_m", "mean_q_c"]
        assert len(rows) == 1 + cfg.exp_replicates
        means = np.array([[float(r[4]), float(r[5])] for r in rows[1:]])
        block = report["truths"][0]
        assert block["avg_posterior_mean"] == pytest.approx(
            means.mean(axis=0))
        # population sd makes the identity exact
        rmse_sq = np.array(block["rmse"]) ** 2
        assert rmse_sq == pytest.approx(np.array(block["sd"]) ** 2
                                        + np.array(block["bias"]) ** 2)
        box = cfg.prior_box()
        for row in means:
            for v, lo, hi in zip(row, box.lower, box.upper):
                assert lo <= v <= hi

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg(table_size=8)
        outs = [str(tmp_path / name) for name in ("one", "two")]
        for out in outs:
            run_experiment(cfg, out)
        for name in ("posterior_means.csv", "experiment_stats.json",
                     "table.csv"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, name

    def test_pool_matches_serial(self, tmp_path):
        # 8 entries and 4 observed networks: both pools run at workers=2
        # and at workers=3
        cfg = small_cfg(table_size=8, exp_replicates=4)
        outs = {w: str(tmp_path / ("w%d" % w)) for w in (1, 2, 3)}
        for w, out in outs.items():
            run_experiment(cfg, out, workers=w)
        for name in ("posterior_means.csv", "experiment_stats.json",
                     "table.csv"):
            a = open(os.path.join(outs[1], name), "rb").read()
            for w in (2, 3):
                b = open(os.path.join(outs[w], name), "rb").read()
                assert a == b, (name, w)


def _pool_job(job):
    """(index, pause in s, fail?, log dir) -> (index, pid). Each run
    appends its index to a file of the log dir named for its process."""
    i, pause, fail, log = job
    with open(os.path.join(log, str(os.getpid())), "a") as fh:
        fh.write("%d\n" % i)
    time.sleep(pause)
    if fail:
        raise ValueError("job %d" % i)
    return i, os.getpid()


def _dying_job(job):
    """(index, pause in s, die?, log dir, caller's pid) -> (index, pid),
    run and logged as ``_pool_job`` runs it; a job marked to die then
    ends its process at once, without cleanup, unless that is the
    caller."""
    i, pause, die, log, caller = job
    result = _pool_job((i, pause, False, log))
    if die and os.getpid() != caller:
        os._exit(1)
    return result


def _pool_runs(log):
    """{pid: indices of the jobs it ran} from the log dir."""
    return {int(p): sorted(map(int, (log / p).read_text().split()))
            for p in os.listdir(log)}


class TestPool:
    # at workers=2 the pool forks one process and hands it jobs 0 and 1,
    # one running and one queued, before the caller takes job 2

    @pytest.fixture(autouse=True)
    def time_bound(self):
        # a pool that hangs, on a job or in its shutdown, ends the run
        # with every thread's traceback after 60 s instead of hanging it
        faulthandler.dump_traceback_later(60, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()

    def test_many_short_jobs_on_more_workers_than_cores(self, tmp_path):
        # with threads switching as often as they can, between the
        # caller's loop and the executor's own threads, every job still
        # runs once and the results come back in order
        count = 300
        jobs = [(i, 0.001 * (i % 3), False, str(tmp_path))
                for i in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = list(pool_map(_pool_job, jobs,
                                    2 * (os.cpu_count() or 1) + 1))
        finally:
            sys.setswitchinterval(interval)
        assert [i for i, _ in results] == list(range(count))
        runs = _pool_runs(tmp_path)
        assert sorted(sum(runs.values(), [])) == list(range(count))
        assert os.getpid() in runs and len(runs) >= 2

    def test_caller_and_forked_process_both_compute(self, tmp_path):
        jobs = [(i, 0.02, False, str(tmp_path)) for i in range(12)]
        results = list(pool_map(_pool_job, jobs, 2))
        assert [i for i, _ in results] == list(range(12))
        runs = _pool_runs(tmp_path)
        assert len(runs) == 2 and os.getpid() in runs
        assert sorted(sum(runs.values(), [])) == list(range(12))
        assert {pid for _, pid in results} == set(runs)

    @pytest.mark.parametrize("workers,count", [(2, 12), (8, 4), (0, 4)])
    def test_forks_at_most_one_fewer_than_jobs(self, monkeypatch, tmp_path,
                                               workers, count):
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        jobs = [(i, 0.0, False, str(tmp_path)) for i in range(count)]
        assert [i for i, _ in pool_map(_pool_job, jobs, workers)] == list(
            range(count))
        assert len(forks) == min(workers or os.cpu_count(), count) - 1

    def test_last_job_goes_to_the_free_process(self, tmp_path):
        # job 0 ends first, while the forked process still has job 1 to
        # run: job 3, the last, is not queued behind job 1 but left to
        # the caller, free after job 2
        pauses = (0.05, 0.6, 0.2, 0.05)
        jobs = [(i, p, False, str(tmp_path)) for i, p in enumerate(pauses)]
        assert [i for i, _ in pool_map(_pool_job, jobs, 2)] == [0, 1, 2, 3]
        runs = _pool_runs(tmp_path)
        assert runs.pop(os.getpid()) == [2, 3]
        assert list(runs.values()) == [[0, 1]]

    def test_caller_job_raises_at_its_position(self, tmp_path):
        # job 2 fails at once in the caller, while the forked process is
        # on jobs 0 and 1: those two come back, then job 2 raises, and no
        # later job starts
        jobs = [(i, 0.3 if i < 2 else 0.0, i == 2, str(tmp_path))
                for i in range(8)]
        got = []
        with pytest.raises(ValueError, match="job 2"):
            for i, _ in pool_map(_pool_job, jobs, 2):
                got.append(i)
        assert got == [0, 1]
        runs = _pool_runs(tmp_path)
        assert runs.pop(os.getpid()) == [2]
        assert list(runs.values()) == [[0, 1]]

    def test_forked_job_raises_at_its_position(self, tmp_path):
        # job 0 fails at once in the forked process while the caller is
        # on job 2: nothing comes back before job 0 raises, and no job
        # after the queued job 1 starts
        jobs = [(i, 0.5 if i == 2 else 0.0, i == 0, str(tmp_path))
                for i in range(8)]
        got = []
        with pytest.raises(ValueError, match="job 0"):
            for i, _ in pool_map(_pool_job, jobs, 2):
                got.append(i)
        assert got == []
        runs = _pool_runs(tmp_path)
        assert runs.pop(os.getpid()) == [2]
        assert list(runs.values()) == [[0, 1]]

    def test_forked_job_raising_stops_claims_before_its_turn(self, tmp_path):
        # two forked processes hold jobs 0 to 3; job 1 fails at once
        # while job 0 still runs and the caller is on job 4: the caller
        # claims nothing more, waits for job 0, then job 1 raises
        jobs = [(i, {0: 1.0, 1: 0.0, 4: 0.5}.get(i, 0.05), i == 1,
                 str(tmp_path)) for i in range(8)]
        got = []
        with pytest.raises(ValueError, match="job 1"):
            for i, _ in pool_map(_pool_job, jobs, 3):
                got.append(i)
        assert got == [0]
        runs = _pool_runs(tmp_path)
        assert runs.pop(os.getpid()) == [4]
        assert sorted(sum(runs.values(), [])) == [0, 1, 2, 3]

    def test_forked_process_dying_mid_job_breaks_the_pool(self, tmp_path):
        # the forked process ends on job 0 while the caller runs job 2:
        # the pool raises at job 0's position and leaves no process
        from concurrent.futures.process import BrokenProcessPool

        jobs = [(i, 0.3 if i == 2 else 0.05, i == 0, str(tmp_path),
                 os.getpid()) for i in range(8)]
        got = []
        start = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            for i, _ in pool_map(_dying_job, jobs, 2):
                got.append(i)
        assert time.monotonic() - start < 10
        assert got == []
        assert multiprocessing.active_children() == []
        assert 2 in _pool_runs(tmp_path)[os.getpid()]

    def test_closing_after_the_first_result_stops_the_pool(self, tmp_path):
        # the jobs still queued are cancelled and the forked process
        # ends: closing waits only for the jobs it holds
        jobs = [(i, 0.1, False, str(tmp_path)) for i in range(12)]
        results = pool_map(_pool_job, jobs, 2)
        assert next(results)[0] == 0
        start = time.monotonic()
        results.close()
        assert time.monotonic() - start < 2
        assert multiprocessing.active_children() == []
        assert len(sum(_pool_runs(tmp_path).values(), [])) < len(jobs)


class TestSeedGraph:
    def test_built_once_per_run(self, tmp_path, monkeypatch):
        # every er_seed call, in this process or a pool worker, appends
        # one line; the workers fork after the seed is built
        calls = tmp_path / "calls"
        er = table.er_seed

        def counted(*args):
            with open(calls, "a") as fh:
                fh.write("%d\n" % os.getpid())
            return er(*args)

        monkeypatch.setattr(table, "er_seed", counted)
        table._random_seed.cache_clear()
        cfg = small_cfg(table_size=8, exp_replicates=4, seed_rng=5)
        run_experiment(cfg, str(tmp_path / "exp"), workers=2)
        abc_run(cfg, str(tmp_path / "exp" / "table.csv"),
                str(tmp_path / "run"))
        assert calls.read_text().splitlines() == [str(os.getpid())]
        assert build_seed_graph(cfg) is build_seed_graph(cfg)

    def test_edited_edge_list_is_read_again(self, tmp_path):
        path = tmp_path / "seed.edges"
        path.write_text("0 1\n1 2\n2 0\n")
        cfg = small_cfg(seed_type="edgelist", seed_path=str(path))
        first = build_seed_graph(cfg)
        assert build_seed_graph(cfg) is first
        path.write_text("0 1\n1 2\n2 3\n3 0\n")
        second = build_seed_graph(cfg)
        assert (first.node_count, second.node_count) == (3, 4)
        assert (first.triangle_count, second.triangle_count) == (1, 0)

    def test_tracked_growth_does_not_count_the_seed_again(self, tmp_path,
                                                           monkeypatch):
        counted = []
        count = graph.count_triangles
        monkeypatch.setattr(graph, "count_triangles",
                            lambda g: counted.append(g.node_count)
                            or count(g))
        path = tmp_path / "seed.edges"
        path.write_text("".join("%d %d\n" % (i, (i + 1) % 12)
                                for i in range(12)) + "0 2\n")
        for name, cfg in (
                ("er", small_cfg(table_size=4, seed_rng=11)),
                ("edgelist", small_cfg(table_size=4, seed_type="edgelist",
                                       seed_path=str(path)))):
            del counted[:]
            build_reference_table(cfg, str(tmp_path / (name + ".csv")),
                                  workers=1)
            # at most the one count that loads an edge-list seed
            assert counted == ([] if name == "er" else [12])

    def test_entries_grow_copies_of_the_seed(self, tmp_path):
        cfg = small_cfg(table_size=4)
        seed = build_seed_graph(cfg)
        edges = list(seed.edges())
        build_reference_table(cfg, str(tmp_path / "table.csv"), workers=1)
        assert list(build_seed_graph(cfg).edges()) == edges


class TestUntrackedGraphs:
    """Only a graph that keeps a running triangle count holds neighbor
    bitmasks; any other graph keeps its neighbor sets alone."""

    def test_observed_networks_hold_no_bitmasks(self, monkeypatch):
        seen = []
        evaluate = table.evaluate

        def recorded(spec, g, rng):
            seen.append(g)
            return evaluate(spec, g, rng)

        monkeypatch.setattr(table, "evaluate", recorded)
        for cfg in (small_cfg(), small_cfg(model="price",
                                           prior_low=(2.0, 0.005),
                                           prior_high=(3.0, 0.01),
                                           summaries="in_degree_mean")):
            del seen[:]
            table.simulate_observed(cfg, cfg.prior_low,
                                    np.random.default_rng(0))
            assert seen and all(g.node_count == cfg.n_o for g in seen)
            assert all(g._bits is None and not g.tracks_triangles
                       for g in seen)

    def test_edge_list_seed_without_tracked_growth(self, tmp_path):
        path = tmp_path / "seed.edges"
        path.write_text("".join("%d %d %d\n" % (i, (i + 1) % 12, i)
                                for i in range(12)) + "0 2 0\n")
        g, node_ts = read_edge_list(str(path))
        assert g._bits is None
        assert seed_subgraph(g, node_ts, 6)._bits is None
        cfg = small_cfg(seed_type="edgelist", seed_path=str(path),
                        summaries="avg_degree")
        _, grown = table.grow_to(cfg, (0.25, 0.5), np.random.default_rng(1),
                                 cfg.entry_plan())
        assert grown._bits is None and not grown.tracks_triangles


class TestTiming:
    def test_report_schema(self, tmp_path):
        cfg = small_cfg(n_star=40)
        path = str(tmp_path / "timing.csv")
        timing_report(cfg, path, n_o_list=[80], table_sizes=(2,))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "method", "n_o", "table_size", "seconds"]
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"entry_build", "observed_summary", "total"}
        for row in rows[1:]:
            assert float(row[4]) >= 0.0

    def test_n_o_below_n_s_is_refused_before_timing(self, tmp_path,
                                                     monkeypatch):
        # an n_o of 40 used to be timed: entries grown to n_s=60 and
        # extrapolated back to 40
        def timed(*args):
            raise AssertionError("timed before every n_o was validated")

        monkeypatch.setattr(experiment, "_time_entry_build", timed)
        path = str(tmp_path / "timing.csv")
        with pytest.raises(ConfigError, match="n_s must be <= n_o"):
            timing_report(small_cfg(), path, n_o_list=[80, 40])
        assert not os.path.exists(path)

    def test_n_star_above_n_o_is_refused_before_timing(self, tmp_path,
                                                       monkeypatch):
        # the default n_star=100 used to be clamped to the 80-node
        # network, so the subsampled row timed another sample size
        def timed(*args):
            raise AssertionError("timed before n_star was checked")

        monkeypatch.setattr(experiment, "_time_entry_build", timed)
        monkeypatch.setattr(experiment, "_time_observed_summary", timed)
        cfg = RunConfig(n_s=60, n_o=80, timing_reps=1)
        assert cfg.n_star == 100
        path = str(tmp_path / "timing.csv")
        with pytest.raises(ConfigError, match="n_star=100 exceeds n_o=80"):
            timing_report(cfg, path)
        with pytest.raises(ConfigError, match="n_star=90 exceeds n_o=80"):
            timing_report(RunConfig(n_s=60, n_o=80, n_star=90), path,
                          n_o_list=[200, 80])
        assert not os.path.exists(path)


class TestCli:
    def _cfg_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "n_s = 60\nn_o = 80\ntable_size = 6\naccept_k = 3\n"
            "exp_replicates = 2\ntiming_reps = 1\n")
        return str(path)

    def test_seed_gen_and_ingest(self, tmp_path, capsys):
        cfg = self._cfg_file(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["seed-gen", "--config", cfg, "--out", out]) == 0
        seed_path = os.path.join(out, "seed.edgelist")
        assert os.path.exists(seed_path)
        assert cli.main(["ingest", "--config", cfg, "--out", out,
                         seed_path]) == 0
        record = json.load(open(os.path.join(out, "observed.json")))
        assert record["nodes"] == 30
        assert "avg_degree" in record["summaries"]

    def test_ingest_samples_from_the_observed_stream(self, tmp_path):
        path = str(tmp_path / "net.edges")
        write_edge_list(er_seed(40, 0.3, 5), path)
        out = str(tmp_path / "out")
        assert cli.main(["ingest", "--set", "master_seed=7", "--set",
                         "summaries=avg_degree,sample_triangle_count",
                         "--set", "n_star=20", "--out", out, path]) == 0
        record = json.load(open(os.path.join(out, "observed.json")))
        g, _ = read_edge_list(path)
        specs = (SummarySpec("avg_degree"),
                 SummarySpec("sample_triangle_count", n_star=20))

        def summaries(seed):
            rng = np.random.default_rng(seed)
            return {s.name: evaluate(s, g, rng) for s in specs}

        want = summaries(mix_seed(7, OBSERVED_OFFSET))
        assert record["summaries"] == want
        # another stream samples other nodes
        assert summaries(mix_seed(7, OBSERVED_OFFSET + 1)) != want

    def test_build_abc_experiment_timing(self, tmp_path):
        cfg = self._cfg_file(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["build-table", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "table.csv"))
        assert cli.main(["abc-run", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "posterior.csv"))
        assert cli.main(["experiment", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "experiment_stats.json"))
        assert cli.main(["timing", "--config", cfg, "--out", out,
                         "--n-o-list", "80", "--table-sizes", "2",
                         "--set", "n_star=40"]) == 0
        assert os.path.exists(os.path.join(out, "timing.csv"))

    def test_timing_n_star_above_n_o_exit_code(self, tmp_path, capsys):
        cfg = self._cfg_file(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["timing", "--config", cfg, "--out", out,
                         "--n-o-list", "80", "--table-sizes", "2"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: ConfigError: n_star=100 exceeds n_o=80")
        assert not os.path.exists(os.path.join(out, "timing.csv"))

    def test_timing_n_o_below_n_s_exit_code(self, tmp_path, capsys):
        cfg = self._cfg_file(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["timing", "--config", cfg, "--out", out,
                         "--n-o-list", "40", "--table-sizes", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: ConfigError:")
        assert not os.path.exists(os.path.join(out, "timing.csv"))

    def test_override_flag(self, tmp_path):
        cfg = self._cfg_file(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["build-table", "--config", cfg, "--out", out,
                         "--set", "table_size=2", "--set",
                         "accept_k=2"]) == 0
        with open(os.path.join(out, "table.csv")) as fh:
            rows = [r for r in fh.read().splitlines() if r]
        assert len(rows) == 4  # hash line + header + 2 entries

    def test_non_finite_observed_exit_code(self, tmp_path, capsys):
        # used to write a posterior of entries 1-3 with nan scores
        cfg = self._cfg_file(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["build-table", "--config", cfg, "--out", out]) == 0
        capsys.readouterr()
        assert cli.main(["abc-run", "--config", cfg, "--out", out,
                         "--observed", "nan,10"]) == 1
        assert capsys.readouterr().err.startswith("error: NonFiniteInput:")
        assert not os.path.exists(os.path.join(out, "posterior.csv"))

    def test_error_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["build-table", "--set", "bogus=1",
                         "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:")
