"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
the criteria complete; each test also asserts, so a failing criterion
fails the suite.
"""

import math
import os
import time

import numpy as np
import pytest

from growabc.config import RunConfig
from growabc.curvefit import evaluate_form, fit_series
from growabc.experiment import (
    _time_entry_build,
    _time_observed_summary,
    run_experiment,
)
from growabc.gp import (
    GpFit,
    GpHyper,
    KernelSpec,
    gram_matrix,
    kernel_value,
    predict,
)
from growabc.graph import er_seed
from growabc.models import DmcParams, GrowthPlan, grow_dmc
from growabc.rejection import ReferenceTableEntry, accept_top_k_density
from growabc.summaries import replicate_variance_reduction

from test_graph import brute_force_triangles, random_graph

GRID = np.arange(35, 501, 5, dtype=float)


def report(num, label, ok, detail):
    print("CRITERION %d (%s): %s — %s"
          % (num, label, "PASS" if ok else "FAIL", detail))


def test_criterion_1_triangle_oracle():
    t0 = time.perf_counter()
    checks = 0
    mismatches = 0
    max_nodes = 0
    for seq in range(1000):
        rng = np.random.default_rng([100, seq])
        g = random_graph(int(rng.integers(4, 20)), 0.3, rng)
        n_ops = 260 if seq % 25 == 0 else 12
        for _ in range(n_ops):
            if g.node_count < 200 and (rng.random() < 0.7
                                       or g.edge_count == 0):
                m = int(rng.integers(0, min(g.node_count, 8) + 1))
                nbrs = rng.choice(g.node_count, size=m, replace=False)
                g.add_node_with_edges([int(v) for v in nbrs])
            else:
                edges = list(g.edges())
                u, v = edges[int(rng.integers(len(edges)))]
                g.remove_edge(u, v)
            checks += 1
            max_nodes = max(max_nodes, g.node_count)
            if g.triangle_count != brute_force_triangles(g):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(1, "triangle maintenance vs brute force", ok,
           "%d steps over 1000 sequences (max %d nodes), %d mismatches, "
           "%.1fs" % (checks, max_nodes, mismatches, elapsed))
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_2_ls_exact_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)

    def signed(lo, hi):
        return rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])

    draws = {
        "power": lambda: (rng.uniform(0.1, 5.0), rng.uniform(0.3, 1.8)),
        "power_offset": lambda: (rng.uniform(0.1, 5.0),
                                 rng.uniform(0.3, 1.8), signed(0.5, 5.0)),
        "inverse": lambda: (rng.uniform(1.0, 100.0),
                            rng.uniform(0.5, 10.0)),
        "digamma": lambda: (rng.uniform(0.1, 5.0), rng.uniform(0.5, 2.0),
                            signed(0.5, 5.0)),
    }
    worst_rel = 0.0
    worst_sse = 0.0
    failures = 0
    for family, draw in draws.items():
        for _ in range(100):
            params = draw()
            s = evaluate_form(family, params, GRID)
            fit = fit_series(GRID, s, family)
            rel = max(abs(f - t) / abs(t)
                      for f, t in zip(fit.form.params, params))
            worst_rel = max(worst_rel, rel)
            worst_sse = max(worst_sse, fit.residual_sse)
            if rel > 1e-6 or fit.residual_sse >= 1e-10:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    report(2, "least-squares exact recovery", ok,
           "400 noiseless fits, worst rel err %.2e, worst SSE %.2e, "
           "%d failures, %.1fs" % (worst_rel, worst_sse, failures, elapsed))
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_3_gp_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    families = ("linear_plus_rbf", "linear_only", "linear_times_rbf")
    warps = ("sqrt", "identity")
    worst_mean = 0.0
    worst_var = 0.0
    worst_eig = 0.0
    for trial in range(50):
        spec = KernelSpec(families[trial % 3], warps[trial % 2])
        # scale alpha to the warped inputs so the linear-kernel part has
        # O(10) magnitude under either warp; keeps the Gram matrix well
        # conditioned and the oracle comparison meaningful in doubles
        w_max2 = 1000.0 if spec.warp == "sqrt" else 1000.0 ** 2
        hyper = GpHyper(
            alpha=rng.uniform(0.05, 0.5) * 500.0 / w_max2,
            gamma=rng.uniform(0.0, 1.0),
            beta=(rng.uniform(0.0, 2.0)
                  if spec.family == "linear_plus_rbf" else 0.0),
            rho=rng.uniform(5.0, 100.0),
            sigma2=rng.uniform(0.5, 2.0),
        )
        mean_params = (rng.uniform(0.1, 2.0), rng.uniform(0.3, 1.5))
        s = mean_params[0] * GRID ** mean_params[1] \
            + rng.normal(0, 1.0, len(GRID))
        k = gram_matrix(spec, hyper, GRID)
        eig_floor = np.linalg.eigvalsh(k).min() / np.trace(k)
        worst_eig = min(worst_eig, eig_floor)

        fit = GpFit(mean_params=mean_params, hyper=hyper, spec=spec,
                    log_posterior=0.0, grid=GRID, values=s)
        pred = predict(fit, 1000)
        k_inv = np.linalg.inv(k)
        k_star = gram_matrix(spec, hyper, np.array([1000.0]), GRID,
                             noise=False)[0]
        resid = s - mean_params[0] * GRID ** mean_params[1]
        mean = mean_params[0] * 1000.0 ** mean_params[1] \
            + k_star @ k_inv @ resid
        var = kernel_value(spec, hyper, 1000, 1000) \
            - k_star @ k_inv @ k_star
        worst_mean = max(worst_mean,
                         abs(pred.mean - mean) / max(abs(mean), 1e-12))
        worst_var = max(worst_var,
                        abs(pred.variance - var) / max(abs(var), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = (worst_mean <= 1e-8 and worst_var <= 1e-8
          and worst_eig >= -1e-8 and elapsed < 120.0)
    report(3, "GP vs explicit-inverse oracle", ok,
           "50 fits, worst rel err mean %.2e / variance %.2e, min scaled "
           "eigenvalue %.2e, %.1fs"
           % (worst_mean, worst_var, worst_eig, elapsed))
    assert worst_mean <= 1e-8
    assert worst_var <= 1e-8
    assert worst_eig >= -1e-8
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_4_desk_scale_study(tmp_path):
    t0 = time.perf_counter()
    base = dict(model="dmc", truths="0.25:0.5", n_s=500, n_o=1000,
                table_size=1000, accept_k=50, exp_replicates=20,
                master_seed=0)
    avgs = {}
    for method in ("LS", "S"):
        cfg = RunConfig(method=method, **base)
        rep = run_experiment(cfg, str(tmp_path / method))
        avgs[method] = np.array(rep["truths"][0]["avg_posterior_mean"])
    diff = np.abs(avgs["LS"] - avgs["S"])
    truth_err = np.abs(avgs["S"] - np.array([0.25, 0.5]))
    elapsed = time.perf_counter() - t0
    ok = (diff[0] <= 0.03 and diff[1] <= 0.10
          and truth_err[0] <= 0.05 and truth_err[1] <= 0.15)
    report(4, "desk-scale LS vs S simulation study", ok,
           "B=1000 k=50 reps=20; |LS-S| = (%.4f, %.4f) vs (0.03, 0.10); "
           "|S-truth| = (%.4f, %.4f) vs (0.05, 0.15); %.0fs"
           % (diff[0], diff[1], truth_err[0], truth_err[1], elapsed))
    assert diff[0] <= 0.03
    assert diff[1] <= 0.10
    assert truth_err[0] <= 0.05
    assert truth_err[1] <= 0.15


def test_criterion_5_replicate_variance_ratios():
    t0 = time.perf_counter()
    seed = er_seed(30, 0.2, 1)
    _, g = grow_dmc(seed, DmcParams(0.5, 0.25), GrowthPlan(1000, (), ()),
                    np.random.default_rng(11))
    ratios = {}
    for k in (10, 20):
        var_single, var_avg = replicate_variance_reduction(
            g, n_star=100, k=k, rng=np.random.default_rng(k), trials=500)
        ratios[k] = var_avg / var_single
    elapsed = time.perf_counter() - t0
    ok = (1 / 20 <= ratios[10] <= 1 / 5
          and 1 / 40 <= ratios[20] <= 1 / 10 and elapsed < 300.0)
    report(5, "subsample-averaging variance reduction", ok,
           "k=10 ratio %.4f in [0.05, 0.2]; k=20 ratio %.4f in "
           "[0.025, 0.1]; %.1fs" % (ratios[10], ratios[20], elapsed))
    assert 1 / 20 <= ratios[10] <= 1 / 5
    assert 1 / 40 <= ratios[20] <= 1 / 10
    assert elapsed < 300.0


def test_criterion_6_timing_shape():
    from dataclasses import replace

    cfg = RunConfig(master_seed=0)
    # LS does the same work at both targets; timing its entries in turn
    # keeps a drift in the host's speed out of the spread
    ls_1k, ls_4k = _time_entry_build(
        [replace(cfg, method="LS", n_o=n_o) for n_o in (1000, 4000)], 4)
    (s_1k,) = _time_entry_build([replace(cfg, method="S", n_o=1000)], 2)
    (s_4k,) = _time_entry_build([replace(cfg, method="S", n_o=4000)], 1)
    full, sub = _time_observed_summary(replace(cfg, n_o=5000), 1)
    ls_spread = max(ls_1k, ls_4k) / min(ls_1k, ls_4k)
    s_ratio = s_4k / s_1k
    ok = ls_spread < 1.2 and s_ratio >= 3.0 and sub < full
    report(6, "timing shape", ok,
           "LS per-entry %.3fs @1000 vs %.3fs @4000 (spread %.2f < 1.2); "
           "S %.3fs @1000 vs %.3fs @4000 (ratio %.1f >= 3); observed "
           "summary full %.3fs vs subsampled %.4fs @5000"
           % (ls_1k, ls_4k, ls_spread, s_1k, s_4k, s_ratio, full, sub))
    assert ls_spread < 1.2
    assert s_ratio >= 3.0
    assert sub < full


def test_criterion_7_zero_density_pathology():
    # GP predictive variances scaled down by 1e-6: sd = 1e-3 per summary
    variances = (1e-6, 1e-6)
    observed = (0.0, 0.0)
    radii = [0.01, 0.01, 0.1, 0.1, 0.1, 0.1, 0.1, 5.0, 5.0, 5.0]
    table = [
        ReferenceTableEntry(entry_id=i, rng_seed=i, theta=(0.1 * i, 0.5),
                            ext_summaries=(r / math.sqrt(2),
                                           r / math.sqrt(2)),
                            gp_variances=variances, gp_correlation=0.0)
        for i, r in enumerate(radii)
    ]
    tight = accept_top_k_density(table, observed, k=5, inflate=1.0,
                                 rng=np.random.default_rng(0))
    wide = accept_top_k_density(table, observed, k=5, inflate=100.0,
                                rng=np.random.default_rng(0))
    ok = (tight.zero_density_fills >= 1
          and wide.zero_density_fills < tight.zero_density_fills)
    report(7, "GPa zero-density fills vs inflation", ok,
           "inflate=1 fills=%d (>=1); inflate=100 fills=%d (strictly "
           "fewer)" % (tight.zero_density_fills, wide.zero_density_fills))
    assert tight.zero_density_fills >= 1
    assert wide.zero_density_fills < tight.zero_density_fills


def test_criterion_8_determinism(tmp_path):
    cfg = RunConfig(n_s=100, n_o=150, table_size=40, accept_k=10,
                    exp_replicates=3, master_seed=5)
    outs = [str(tmp_path / name) for name in ("first", "second")]
    for out in outs:
        run_experiment(cfg, out)
    identical = {}
    for name in ("table.csv", "posterior_means.csv",
                 "experiment_stats.json"):
        with open(os.path.join(outs[0], name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            b = fh.read()
        identical[name] = a == b
    ok = all(identical.values())
    report(8, "end-to-end determinism", ok,
           ", ".join("%s %s" % (n, "identical" if v else "DIFFERS")
                     for n, v in identical.items()))
    assert ok


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
