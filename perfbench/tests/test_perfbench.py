"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import rss  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from growabc import experiment, table  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_the_gated_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in workloads.WORKLOADS if name not in workloads.EXTRA]
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: (m["unit"]) for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    if not trace:
        assert all(values[m["name"]] > 0 for m in spec)
    elif workload == "accept_reuse":
        assert values["rejection.entries_scored"] > 0
        assert values["models.nodes_grown"] == 0
    else:
        # spans made in the pool workers reached the main process
        assert values["table.rows_written"] > 0
        assert values["models.nodes_grown"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("dmc_ls", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout


@pytest.fixture(scope="module")
def accept_table(tmp_path_factory):
    cfg = workloads.run_config(workloads.WORKLOADS["accept_reuse"], True)
    work = tmp_path_factory.mktemp("accept")
    source, errors = workloads.build_source_table(True, 5, str(work))
    assert errors == []
    path = str(work / "table.csv")
    arrays = workloads.write_accept_table(cfg, path, source,
                                          np.random.default_rng(5))
    return workloads.LoadedTable(cfg, path, arrays)


def test_accept_table_is_a_valid_resample(accept_table):
    a = accept_table.arrays
    cfg = accept_table.cfg
    ok = ~a.failed
    assert len(a.ids) == cfg.table_size
    assert len(accept_table.entries) == ok.sum()
    assert abs(a.failed.mean() - workloads.FAILED_ROW_SHARE) < 0.05
    assert (a.var[ok] > 0).all() and (np.abs(a.corr[ok]) < 1).all()
    assert ((a.theta >= cfg.prior_low) & (a.theta <= cfg.prior_high)).all()
    assert len({tuple(t) for t in a.theta}) == len(a.ids)


@pytest.mark.parametrize("method", ["LS", "GPa", "GPb"])
def test_swapped_accepted_id_fails_the_check(accept_table, method):
    s = accept_table
    cfg = replace(s.cfg, method=method)
    observed = workloads.observed_pool(cfg, 1, 1, from_prior=True)[0]
    post = experiment.run_abc(cfg, s.entries, observed, s.sds,
                              np.random.default_rng(2))
    ids = [s.theta_to_id[t] for t, _ in post.accepted]
    fills = post.zero_density_fills
    assert checks.accepted_ids_errors(s.arrays, cfg, observed, ids,
                                      fills) == []
    swapped = [ids[1], ids[0]] + ids[2:]
    assert checks.accepted_ids_errors(s.arrays, cfg, observed, swapped,
                                      fills)
    outsider = next(i for i in s.arrays.ids[~s.arrays.failed]
                    if i not in ids)
    replaced = [int(outsider)] + ids[1:]
    assert checks.accepted_ids_errors(s.arrays, cfg, observed, replaced,
                                      fills)


def test_pool_workers_report_their_peak_rss(tmp_path):
    cfg = workloads.run_config(workloads.WORKLOADS["dmc_ls"], True)
    rss.install()
    try:
        table.build_reference_table(cfg, str(tmp_path / "t.csv"),
                                    workers=workloads.WORKERS)
        peak = rss.pool_peak_kb()
    finally:
        rss.uninstall()
    # two workers, each holding at least the interpreter and NumPy
    assert peak > 2 * 10_000
    assert table._build_entry.__module__ == "growabc.table"


def test_identity_check_flags_changed_bytes():
    a = workloads.PassRecord(0, 7, False, digests={"table.csv": "x"})
    b = workloads.PassRecord(1, 7, True, digests={"table.csv": "x"})
    c = workloads.PassRecord(2, 7, True, digests={"table.csv": "y"})
    assert checks.identity_errors([a, b]) == []
    assert checks.identity_errors([a, b, c])
    assert checks.identity_errors([a])  # nothing compared is a failure


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ((1, 1), None, "table.build", 0.0, 10.0, None, {}),
        ((2, 1), (1, 1), "table.entry", 1.0, 6.0, 1, {}),
        ((3, 1), (1, 1), "table.entry", 2.0, 8.0, 2, {}),  # parallel worker
        ((2, 2), (2, 1), "models.grow", 1.0, 3.0, 1, {}),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(3.0)
    assert selfs[(2, 1)] == pytest.approx(3.0)
    assert selfs[(3, 1)] == pytest.approx(6.0)


def test_rmse_is_pooled_over_the_replicates_of_every_pass():
    # two passes of equal replicate count: RMSEs 3 and 4 pool to 12.5**.5
    assert checks.pooled_rmse([[3.0, 0.0], [4.0, 0.0]]) == pytest.approx(
        [12.5 ** 0.5, 0.0])
    cfg = workloads.run_config(workloads.WORKLOADS["dmc_ls"], False)
    tol = checks.RMSE_TOLERANCE["dmc_ls"]
    assert checks.rmse_errors("dmc_ls", cfg, list(tol), False) == []
    assert checks.rmse_errors("dmc_ls", cfg, [tol[0] * 1.01, 0.0], False)
    assert checks.rmse_errors("dmc_ls", cfg, [float("nan"), 0.0], False)
