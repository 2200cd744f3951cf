"""Configs are refused up front, and an entry fails only when its fit
does. Each refused config below used to pass ``validate`` and then fail
every entry, grow from the wrong seed, fail after the table was built,
or raise TypeError."""

import csv
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from growabc import experiment, table
from growabc.config import (DENSITY_METHODS, METHODS, RunConfig,
                            apply_overrides)
from growabc.errors import ConfigError
from growabc.experiment import abc_run, run_experiment
from growabc.graph import er_seed, write_edge_list
from growabc.rejection import (ReferenceTable, standardization_sds,
                               std_euclidean)
from growabc.seeding import aux_seed, fill_seed, mix_seed, observed_seed
from growabc.table import (build_reference_table, load_reference_table,
                           simulate_observed)

BASE = dict(n_s=60, n_o=80, table_size=4, workers=1)

# override strings on BASE; {tmp} is the test's scratch directory
PROBES = {
    "kernel_typo": ["method=GPa", "kernel=linear_plus_rbff"],
    "in_degree_with_dmc": ["summaries=avg_degree,in_degree_mean"],
    "edgelist_without_path": ["seed_type=edgelist"],
    "edgelist_missing_file": ["seed_type=edgelist",
                              "seed_path={tmp}/missing.edges"],
    "first_checkpoint_below_seed": ["checkpoint_start=20"],
    "seed_above_n_s": ["seed_n=70"],
    "gp_with_four_checkpoints": ["method=GPa", "n_s=50"],
    "seed_type_typo": ["seed_type=edgelst"],
    "standardization_typo": ["standardization=auxilliary"],
    "truth_of_wrong_dimension": ["truths=0.25"],
    "empty_n_s": ["n_s="],
    # accept_k=-1 used to accept all but the last row and raise nothing;
    # accept_k=0 built the whole table, then raised EmptyPosterior
    "negative_accept_k": ["accept_k=-1"],
    "zero_accept_k": ["accept_k=0"],
    "zero_table_size": ["table_size=0"],
    "zero_exp_replicates": ["exp_replicates=0"],
    # raised DegenerateCovariance only at acceptance
    "gpb_with_zero_inflate": ["method=GPb", "inflate=0"],
    # raised TooFewInputs only after the build
    "auxiliary_with_one_draw": ["standardization=auxiliary", "aux_count=1"],
    # built all 4 rows with gp_corr 1.0, then abc_run raised
    # DegenerateCovariance; under LS one summary counted twice
    "gpa_with_a_summary_named_twice": ["method=GPa",
                                       "summaries=avg_degree,avg_degree"],
    "summary_named_twice": ["summaries=avg_degree, avg_degree"],
    # wrote table.csv, then raised TooFewInputs from compute_sds
    "one_row_table": ["table_size=1", "accept_k=1"],
}


@pytest.mark.parametrize("name", PROBES)
def test_probed_config_fails_before_any_entry(tmp_path, monkeypatch, name):
    # an edge-list seed file is read once, before any entry, and raises
    # there; no data row is written
    missing_file = name == "edgelist_missing_file"
    built, build_entry = [], table._build_entry
    monkeypatch.setattr(table, "_build_entry",
                        lambda job: built.append(job[1]) or build_entry(job))
    path = tmp_path / "table.csv"
    with pytest.raises(FileNotFoundError if missing_file else ConfigError):
        cfg = apply_overrides(RunConfig(**BASE), [
            item.format(tmp=tmp_path) for item in PROBES[name]])
        build_reference_table(cfg, str(path))
    assert built == []
    if path.exists():
        assert len(path.read_text().splitlines()) == 2  # hash + header


@pytest.mark.parametrize("overrides", [
    dict(prior_high=(1.5, 0.9)),
    dict(truths="0.25:1.5"),
    dict(model="price", prior_low=(0.0, 0.001), prior_high=(5.0, 0.01),
         summaries="in_degree_mean", truths="2.5:0.005"),
    dict(checkpoint_start=55, summaries="avg_degree,sample_triangle_count",
         n_star=35),
    # GPa and GPb accept by a bivariate density: one summary used to
    # fit every entry and then raise IndexError, a third one was
    # dropped from acceptance with gp_corr written as 0.0
    dict(method="GPa", summaries="avg_degree"),
    dict(method="GPb", n_star=35,
         summaries="avg_degree,triangle_count,sample_triangle_count"),
], ids=["q_m_above_one", "truth_outside_model", "k0_zero",
        "fewer_checkpoints_than_ls_parameters", "gpa_with_one_summary",
        "gpb_with_three_summaries"])
def test_other_invalid_configs_are_refused_up_front(tmp_path, overrides):
    cfg = RunConfig(**dict(BASE, **overrides))
    with pytest.raises(ConfigError):
        build_reference_table(cfg, str(tmp_path / "table.csv"))
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("summaries", [
    "avg_degree", "avg_degree,triangle_count,sample_triangle_count"])
def test_gpc_takes_any_number_of_summaries(summaries):
    # GPc accepts by distance
    RunConfig(**dict(BASE, method="GPc", n_star=35,
                     summaries=summaries)).validate()


def _default_text(value):
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_every_default_round_trips_through_its_text(name):
    text = _default_text(getattr(RunConfig(), name))
    assert apply_overrides(RunConfig(), ["%s=%s" % (name, text)]) \
        == RunConfig()


def test_fit_failures_are_still_recorded(tmp_path):
    # digamma fits of in_degree_variance run off to a -> inf and do not
    # converge on entries 9, 14 and 16; those entries fail, the build
    # goes on
    cfg = RunConfig(model="price", prior_low=(0.5, 0.001),
                    prior_high=(5.0, 0.01),
                    summaries="in_degree_mean,in_degree_variance",
                    n_s=300, checkpoint_start=40, n_o=4000, table_size=16,
                    master_seed=0, workers=1)
    path = tmp_path / "table.csv"
    build_reference_table(cfg, str(path))
    rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
    assert [int(r["entry_id"]) for r in rows if r["failed"] == "1"] \
        == [9, 14, 16]


@pytest.mark.parametrize("run", ["experiment", "abc_run"])
def test_accept_k_above_table_size_is_refused_before_the_build(tmp_path,
                                                                run):
    # the default accept_k=50 used to build all 8 entries and then raise
    cfg = RunConfig(n_s=100, n_o=200, table_size=8, workers=1)
    table_path = tmp_path / "table.csv"
    with pytest.raises(ConfigError):
        if run == "experiment":
            run_experiment(cfg, str(tmp_path))
        else:
            abc_run(cfg, str(table_path), str(tmp_path / "run"))
    assert not table_path.exists()


def _fail_rows(table_path, count):
    """Rewrite the first ``count`` rows of a built table as failed
    entries."""
    lines = table_path.read_text().splitlines(keepends=True)
    header = lines[1].strip().split(",")
    for i in range(2, 2 + count):
        row = lines[i].strip().split(",")
        for j, col in enumerate(header):
            if col.startswith("ext_"):
                row[j] = "nan"
        row[-1] = "1"
        lines[i] = ",".join(row) + "\n"
    table_path.write_text("".join(lines))


@pytest.mark.parametrize("run", ["experiment", "abc_run"])
def test_accept_k_above_the_usable_rows_is_refused(tmp_path, run):
    # abc_run used to raise KTooLarge from inside acceptance here, while
    # run_experiment raised ConfigError
    cfg = RunConfig(n_s=60, n_o=80, table_size=6, accept_k=3, workers=1)
    table_path = tmp_path / "table.csv"
    build_reference_table(cfg, str(table_path))
    _fail_rows(table_path, 4)  # four of six rows failed: two usable
    entries, failed, _ = load_reference_table(str(table_path))
    assert (len(entries), failed) == (2, 4)
    with pytest.raises(ConfigError, match="usable table size"):
        if run == "experiment":
            run_experiment(cfg, str(tmp_path))
        else:
            abc_run(cfg, str(table_path), str(tmp_path / "run"),
                    observed=(1.0, 1.0))
    assert not (tmp_path / "run" / "posterior.csv").exists()
    assert not (tmp_path / "posterior_means.csv").exists()


def test_loaded_table_is_a_reference_table(tmp_path):
    cfg = RunConfig(n_s=60, n_o=80, table_size=4, workers=1)
    path = build_reference_table(cfg, str(tmp_path / "table.csv"))
    entries, _, _ = load_reference_table(path)
    assert isinstance(entries, ReferenceTable)
    assert entries.columns.entry_ids.tolist() == [1, 2, 3, 4]
    assert entries.columns.ext.tolist() == [list(e.ext_summaries)
                                            for e in entries]


def test_posterior_ids_of_equal_thetas(tmp_path):
    # with a point prior every entry has the same theta; posterior.csv
    # used to map all accepted thetas back to one entry id (6)
    cfg = RunConfig(n_s=60, n_o=80, table_size=6, accept_k=3, workers=1,
                    prior_low=(0.25, 0.5), prior_high=(0.25, 0.5))
    table_path = str(tmp_path / "table.csv")
    posterior = abc_run(cfg, table_path, str(tmp_path / "run"))
    with open(tmp_path / "run" / "posterior.csv") as fh:
        ids = [int(r["entry_id"]) for r in csv.DictReader(fh)]
    entries, _, _ = load_reference_table(table_path)
    sds = standardization_sds([e.ext_summaries for e in entries]).sds
    with open(tmp_path / "run" / "stats.json") as fh:
        observed = np.asarray(json.load(fh)["observed"])
    nearest = sorted(entries, key=lambda e: (
        std_euclidean(e.ext_summaries, observed, sds), e.entry_id))
    assert ids == [e.entry_id for e in nearest[:3]]
    assert list(posterior.entry_ids) == ids
    assert len(set(ids)) == 3


def test_edge_list_seed_above_the_first_checkpoint_is_refused(tmp_path,
                                                              monkeypatch):
    # validate passed, table.csv got its hash and header, then the first
    # entry raised PlanInvalid: first checkpoint 40 <= seed size 60
    seed_path = tmp_path / "seed.edges"
    write_edge_list(er_seed(60, 0.2, 3), str(seed_path))
    cfg = RunConfig(seed_type="edgelist", seed_path=str(seed_path), n_s=100,
                    n_o=200, checkpoint_start=40, table_size=4, workers=1)
    built, build_entry = [], table._build_entry
    monkeypatch.setattr(table, "_build_entry",
                        lambda job: built.append(job[1]) or build_entry(job))
    path = tmp_path / "table.csv"
    with pytest.raises(ConfigError, match="first checkpoint 40 <= seed "
                                          "size 60"):
        build_reference_table(cfg, str(path))
    assert built == []
    assert not path.exists()


def test_refused_resume_leaves_the_table_unchanged(tmp_path):
    # the torn row used to be cut before the hash mismatch was raised
    cfg = RunConfig(n_s=60, n_o=80, table_size=3, workers=1)
    path = tmp_path / "table.csv"
    build_reference_table(cfg, str(path))
    full = path.read_bytes()
    path.write_bytes(full + b"4,123,0.2")
    with pytest.raises(ConfigError, match="config hash mismatch"):
        build_reference_table(replace(cfg, master_seed=9), str(path))
    assert path.read_bytes() == full + b"4,123,0.2"
    build_reference_table(cfg, str(path))
    assert path.read_bytes() == full


def test_abc_run_refuses_an_interrupted_table(tmp_path):
    # abc_run used to accept entries (3, 1) from the first 3 of 6 rows
    # and write failed_entries: 0
    cfg = RunConfig(n_s=60, n_o=80, table_size=6, accept_k=2, workers=1)
    path = tmp_path / "table.csv"
    build_reference_table(cfg, str(path))
    full = path.read_bytes()
    path.write_bytes(b"".join(full.splitlines(keepends=True)[:-3]))
    run_dir = tmp_path / "run"
    with pytest.raises(ConfigError, match="3 of 6 rows; resume it with "
                                          "build-table"):
        abc_run(cfg, str(path), str(run_dir))
    assert not (run_dir / "posterior.csv").exists()
    build_reference_table(cfg, str(path))
    assert path.read_bytes() == full
    abc_run(cfg, str(path), str(run_dir))
    assert (run_dir / "posterior.csv").exists()


@pytest.mark.parametrize("run", ["experiment", "abc_run"])
def test_one_usable_row_is_refused_for_the_sds(tmp_path, run):
    # the table passed every check, then compute_sds raised TooFewInputs
    cfg = RunConfig(n_s=60, n_o=80, table_size=3, accept_k=1, workers=1)
    table_path = tmp_path / "table.csv"
    build_reference_table(cfg, str(table_path))
    _fail_rows(table_path, 2)
    with pytest.raises(ConfigError, match="1 usable rows; the sds need 2"):
        if run == "experiment":
            run_experiment(cfg, str(tmp_path))
        else:
            abc_run(cfg, str(table_path), str(tmp_path / "run"),
                    observed=(1.0, 1.0))


@pytest.mark.parametrize("method", METHODS)
def test_a_one_row_table_needs_density_acceptance_or_auxiliary_sds(method):
    cfg = RunConfig(**dict(BASE, method=method, table_size=1, accept_k=1,
                           summaries="avg_degree,sample_triangle_count",
                           n_star=35))
    if method in DENSITY_METHODS:
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match="table_size >= 2"):
            cfg.validate()
    replace(cfg, standardization="auxiliary", aux_count=2).validate()


@pytest.mark.parametrize("standardization", ["extrapolated", "auxiliary"])
@pytest.mark.parametrize("method", DENSITY_METHODS)
def test_density_methods_compute_no_sds(tmp_path, monkeypatch, method,
                                        standardization):
    # a one-row table raised TooFewInputs from compute_sds, and under
    # auxiliary aux_count networks were grown to n_o; acceptance by
    # density reads neither
    grown = []
    monkeypatch.setattr(experiment, "simulate_observed",
                        lambda *a: grown.append(a) or simulate_observed(*a))
    cfg = RunConfig(**dict(BASE, method=method, table_size=1, accept_k=1,
                           standardization=standardization, aux_count=3))
    posterior = abc_run(cfg, str(tmp_path / "table.csv"),
                        str(tmp_path / "run"))
    assert list(posterior.entry_ids) == [1]
    assert len(grown) == 1  # the observed network


# per bound: its smallest refused value, its largest allowed one, and
# two streams that the refused value would seed alike
@pytest.mark.parametrize("refused, allowed, same_seed", [
    (dict(exp_replicates=100_001), dict(exp_replicates=100_000),
     (observed_seed(0, 0, 100_000), observed_seed(0, 1, 0))),
    (dict(table_size=10**9), dict(table_size=10**9 - 1),
     (mix_seed(0, 10**9), observed_seed(0, 0, 0))),
    (dict(truths=";".join(["0.25:0.5"] * 10_001)),
     dict(truths=";".join(["0.25:0.5"] * 10_000)),
     (observed_seed(0, 10_000, 0), aux_seed(0, 0))),
    (dict(standardization="auxiliary", aux_count=10**9 + 1),
     dict(standardization="auxiliary", aux_count=10**9),
     (aux_seed(0, 10**9), fill_seed(0, 0, 0))),
], ids=["exp_replicates", "table_size", "truths", "aux_count"])
def test_stream_index_collisions_are_refused(refused, allowed, same_seed):
    # validated only: building at these sizes would take hours
    assert same_seed[0] == same_seed[1]
    cfg = RunConfig(truths="0.25:0.5;0.3:0.6")
    with pytest.raises(ConfigError):
        replace(cfg, **refused).validate()
    replace(cfg, **allowed).validate()
