import functools
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from growabc.curvefit import fit_series
from growabc.errors import NotConverged, SingularKernel, TooFewPoints
from growabc.gp import (
    GpExtrapolator,
    GpFit,
    GpHyper,
    KernelSpec,
    fit_map,
    gram_matrix,
    kernel_value,
    predict,
    summary_correlation,
)

GRID = np.arange(35, 501, 5, dtype=float)


def random_hyper(rng, family):
    # moderate scales keep the Gram matrix well conditioned, so the
    # Cholesky path and the explicit-inverse oracle agree tightly
    return GpHyper(
        alpha=rng.uniform(0.05, 0.5),
        gamma=rng.uniform(0.0, 1.0),
        beta=rng.uniform(0.0, 2.0) if family == "linear_plus_rbf" else 0.0,
        rho=rng.uniform(5.0, 100.0),
        sigma2=rng.uniform(0.5, 2.0),
    )


def dense_oracle(spec, hyper, grid, s, mean_params, n_o):
    """Explicit-inverse GP prediction, independent of the Cholesky path."""
    a, c = mean_params
    k = gram_matrix(spec, hyper, grid)
    k_inv = np.linalg.inv(k)
    k_star = gram_matrix(spec, hyper, np.array([float(n_o)]), grid,
                         noise=False)[0]
    resid = s - a * grid ** c
    mean = a * n_o ** c + k_star @ k_inv @ resid
    var = kernel_value(spec, hyper, n_o, n_o) - k_star @ k_inv @ k_star
    return float(mean), float(var)


def kernel_derivatives(spec, hyper, grid):
    """d(Gram)/d(theta) for each free kernel parameter, in _pack order."""
    from growabc.gp import _pack

    x = np.asarray(grid, dtype=float)
    w = np.sqrt(x) if spec.warp == "sqrt" else x
    outer = np.outer(w, w)
    d2 = (x[:, None] - x[None, :]) ** 2
    rbf = np.exp(-d2 / (2.0 * hyper.rho ** 2))
    drbf_drho = rbf * d2 / hyper.rho ** 3
    grads = {"sigma2": np.eye(len(x)), "alpha": outer,
             "gamma": np.ones_like(outer), "beta": rbf,
             "rho": hyper.beta * drbf_drho}
    if spec.family == "linear_times_rbf":
        grads.update(alpha=outer * rbf, gamma=rbf,
                     rho=(hyper.alpha * outer + hyper.gamma) * drbf_drho)
    return [grads[name] for name in _pack(spec)]


def full_objective(spec, hyper, grid, s, mean_params, centers, sds):
    """The MAP objective over (a, c, kernel parameters), a not profiled
    out, from gram_matrix and scipy's cho_factor."""
    from scipy.linalg import cho_factor, cho_solve

    from growabc.gp import _pack

    cho = cho_factor(gram_matrix(spec, hyper, grid), lower=True)
    r = s - mean_params[0] * grid ** mean_params[1]
    nll = 0.5 * float(r @ cho_solve(cho, r)) \
        + np.sum(np.log(np.diag(cho[0]))) \
        + 0.5 * len(grid) * np.log(2.0 * np.pi)
    for v, c0, sd in zip(mean_params, centers, sds):
        nll += 0.5 * ((v - c0) / sd) ** 2
    for name in _pack(spec):
        nll += 0.5 * getattr(hyper, name) ** 2
    return nll


def dense_amplitude(k_inv, h, s, center, sd):
    """MAP amplitude of the mean a*h from an explicit inverse."""
    return (h @ k_inv @ s + center / sd ** 2) / (h @ k_inv @ h + 1 / sd ** 2)


def profiled_amplitude(spec, hyper, s, c, center=0.4, sd=1.0):
    """The objective's closed-form amplitude on GRID."""
    from growabc.gp import _amplitude, _chol_with_jitter

    chol = _chol_with_jitter(gram_matrix(spec, hyper, GRID))
    return _amplitude(chol, s, GRID ** c, center, sd)[0]


@functools.cache
def dmc_series(master_seed=0):
    """Checkpoint grid and summary columns (avg_degree, triangle_count)
    of entry 1 of the dmc_gp benchmark's RunConfig: a grown DMC
    series."""
    from growabc.config import RunConfig
    from growabc.table import entry_stream, grow_to

    cfg = RunConfig(method="GPa", n_s=500, n_o=1000, truths="0.25:0.5",
                    table_size=8, accept_k=3, exp_replicates=4,
                    master_seed=master_seed)
    _, rng, theta = entry_stream(cfg, 1)
    series, _ = grow_to(cfg, theta, rng, cfg.entry_plan())
    return (np.asarray(series.checkpoints, dtype=float),
            [np.asarray(series.column(sp.name), dtype=float)
             for sp in cfg.summary_specs()])


def manual_fit(spec, hyper, grid, s, mean_params):
    return GpFit(mean_params=mean_params, hyper=hyper, spec=spec,
                 log_posterior=0.0, grid=np.asarray(grid, float),
                 values=np.asarray(s, float))


class TestKernelValue:
    def test_sqrt_warp_dot_product(self):
        spec = KernelSpec("linear_plus_rbf", "sqrt")
        hyper = GpHyper(alpha=1.0, gamma=0.0, beta=0.0, rho=1.0, sigma2=0.0)
        assert kernel_value(spec, hyper, 4, 9) == pytest.approx(6.0)

    def test_identity_warp_with_noise(self):
        spec = KernelSpec("linear_plus_rbf", "identity")
        hyper = GpHyper(alpha=1.0, gamma=0.0, beta=0.0, rho=1.0, sigma2=2.0)
        assert kernel_value(spec, hyper, 10, 10) == pytest.approx(102.0)

    def test_linear_only_omits_rbf(self):
        hyper = GpHyper(alpha=1.0, gamma=0.5, beta=9.9, rho=10.0, sigma2=0.0)
        plus = kernel_value(KernelSpec("linear_plus_rbf", "identity"),
                            hyper, 10, 12)
        only = kernel_value(KernelSpec("linear_only", "identity"),
                            hyper, 10, 12)
        assert only == pytest.approx(1.0 * 10 * 12 + 0.5)
        assert plus > only

    def test_linear_times_rbf(self):
        spec = KernelSpec("linear_times_rbf", "identity")
        hyper = GpHyper(alpha=2.0, gamma=1.0, beta=0.0, rho=10.0, sigma2=0.5)
        expected = (2.0 * 3 * 5 + 1.0) * np.exp(-(3 - 5) ** 2 / 200.0)
        assert kernel_value(spec, hyper, 3, 5) == pytest.approx(expected)
        assert kernel_value(spec, hyper, 3, 3) == pytest.approx(
            2.0 * 9 + 1.0 + 0.5)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            KernelSpec("cubic", "identity")
        with pytest.raises(ValueError):
            KernelSpec("linear_only", "log")

    @pytest.mark.parametrize("family", ["linear_plus_rbf", "linear_only",
                                        "linear_times_rbf"])
    @pytest.mark.parametrize("warp", ["sqrt", "identity"])
    def test_gram_psd(self, family, warp):
        rng = np.random.default_rng(abs(hash((family, warp))) % 2 ** 31)
        for _ in range(5):
            hyper = random_hyper(rng, family)
            k = gram_matrix(KernelSpec(family, warp), hyper, GRID)
            eigvals = np.linalg.eigvalsh(k)
            assert eigvals.min() >= -1e-8 * np.trace(k)


IRREGULAR_GRID = np.unique(np.random.default_rng(3).integers(35, 501, 60)
                           ).astype(float)


class TestRbfGather:
    """The RBF block is exp over the distinct squared distances,
    gathered back onto the matrix; it must equal exp over the whole
    matrix bit for bit, also where it underflows."""

    @pytest.mark.parametrize("grid", [GRID, IRREGULAR_GRID],
                             ids=["default", "irregular"])
    @pytest.mark.parametrize("rho", ["min_spacing", 25.0])
    @pytest.mark.parametrize("cross", [False, True],
                             ids=["square", "cross"])
    def test_equals_exp_of_the_matrix(self, grid, rho, cross):
        from growabc.gp import _assemble, _grid_terms

        if rho == "min_spacing":
            rho = float(np.min(np.diff(grid)))
        spec = KernelSpec("linear_plus_rbf", "identity")
        x = np.array([1000.0, 37.5]) if cross else grid
        terms = _grid_terms(spec, x, grid)
        d2 = (x[:, None] - grid[None, :]) ** 2
        hyper = GpHyper(alpha=0.5, gamma=0.1, beta=2.0, rho=rho, sigma2=1.0)
        _, _, rbf = _assemble(spec, vars(hyper), terms)
        expected = np.exp(d2 * (-0.5 / rho ** 2))
        assert rbf.shape == expected.shape
        assert rbf.tobytes() == expected.tobytes()
        if rho < 25.0 and not cross:
            # part of the block takes exp's slow underflow path
            assert (d2 * (-0.5 / rho ** 2) < -708.0).any()


class TestObjective:
    START = {"alpha": 0.3, "gamma": 0.4, "beta": 1.5, "rho": 40.0,
             "sigma2": 0.8}

    @pytest.mark.parametrize("family", ["linear_plus_rbf", "linear_only",
                                        "linear_times_rbf"])
    @pytest.mark.parametrize("warp", ["sqrt", "identity"])
    def test_gradient_matches_finite_differences(self, family, warp):
        from growabc.gp import _neg_log_posterior, _neg_log_posterior_grad
        from growabc.gp import _pack

        rng = np.random.default_rng(7)
        s = 0.4 * GRID ** 1.1 + rng.normal(0, 1.0, len(GRID))
        spec = KernelSpec(family, warp)
        theta = np.array([1.11] + [self.START[n] for n in _pack(spec)])
        args = (spec, GRID, s, (0.4, 1.1), (1.0, 1.1))
        value, grad = _neg_log_posterior_grad(theta, *args)
        assert value == _neg_log_posterior(theta, *args)
        for i in range(len(theta)):
            h = 1e-6 * max(1.0, abs(theta[i]))
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd = (_neg_log_posterior(up, *args)
                  - _neg_log_posterior(down, *args)) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-3, abs=1e-3)

    def test_one_gram_per_objective_evaluation(self, monkeypatch):
        import growabc.gp as gp

        counts = {"gram": 0, "objective": 0}
        assemble, objective = gp._assemble, gp._neg_log_posterior_grad

        def counted_assemble(*args, **kwargs):
            counts["gram"] += 1
            return assemble(*args, **kwargs)

        def counted_objective(*args):
            counts["objective"] += 1
            return objective(*args)

        monkeypatch.setattr(gp, "_assemble", counted_assemble)
        monkeypatch.setattr(gp, "_neg_log_posterior_grad", counted_objective)
        rng = np.random.default_rng(5)
        s = 0.4 * GRID ** 1.1 + rng.normal(0, 0.5, len(GRID))
        fit_map(GRID, s, KernelSpec("linear_plus_rbf", "identity"),
                fit_series(GRID, s, "power"))
        # plus one for the final factor, which gives the amplitude
        assert counts["objective"] > 0
        assert counts["gram"] == counts["objective"] + 1

    @pytest.mark.parametrize("family", ["linear_plus_rbf", "linear_only",
                                        "linear_times_rbf"])
    @pytest.mark.parametrize("warp", ["sqrt", "identity"])
    def test_gradient_matches_dense_oracle(self, family, warp):
        from growabc.gp import _neg_log_posterior_grad, _pack

        rng = np.random.default_rng(11)
        spec = KernelSpec(family, warp)
        for _ in range(5):
            # noise at 1% of the mean prior variance keeps cond(K) < 1e5
            hyper = random_hyper(rng, family)
            prior_var = np.diag(gram_matrix(spec, hyper, GRID, noise=False))
            hyper = replace(hyper, sigma2=hyper.sigma2 * prior_var.mean()
                            / 100.0)
            names = _pack(spec)
            theta = np.array([rng.uniform(1.0, 1.2)]
                             + [getattr(hyper, n) for n in names])
            s = 0.4 * GRID ** 1.1 + rng.normal(0, 1.0, len(GRID))
            _, grad = _neg_log_posterior_grad(theta, spec, GRID, s,
                                              (0.4, 1.1), (1.0, 1.1))
            k_inv = np.linalg.inv(gram_matrix(spec, hyper, GRID))
            h = GRID ** theta[0]
            a_hat = dense_amplitude(k_inv, h, s, 0.4, 1.0)
            a = k_inv @ (s - a_hat * h)
            for i, dk in enumerate(kernel_derivatives(spec, hyper, GRID)):
                trace, quad = 0.5 * np.sum(k_inv * dk), 0.5 * a @ dk @ a
                expected = trace - quad + theta[1 + i]
                scale = abs(trace) + abs(quad) + abs(theta[1 + i])
                assert abs(grad[1 + i] - expected) <= 1e-8 * scale, names[i]

    @pytest.mark.parametrize("family", ["linear_plus_rbf", "linear_only",
                                        "linear_times_rbf"])
    @pytest.mark.parametrize("warp", ["sqrt", "identity"])
    def test_value_equals_gram_and_cho_factor(self, family, warp):
        from scipy.linalg import cho_factor, cho_solve

        from growabc.gp import _neg_log_posterior, _pack

        rng = np.random.default_rng(12)
        spec = KernelSpec(family, warp)
        centers, sds = (0.4, 1.1), (1.0, 1.1)
        for _ in range(10):
            hyper = random_hyper(rng, family)
            theta = np.array([rng.uniform(1.0, 1.2)]
                             + [getattr(hyper, n) for n in _pack(spec)])
            s = 0.4 * GRID ** 1.1 + rng.normal(0, 1.0, len(GRID))
            h = GRID ** theta[0]
            cho = cho_factor(gram_matrix(spec, hyper, GRID), lower=True)
            k_s, k_h = cho_solve(cho, np.array([s, h]).T).T
            a = (h @ k_s + centers[0] / sds[0] ** 2) \
                / (h @ k_h + 1.0 / sds[0] ** 2)
            nll = 0.5 * float((s - a * h) @ (k_s - a * k_h)) \
                + 0.5 * (2.0 * np.sum(np.log(np.diag(cho[0])))) \
                + 0.5 * len(GRID) * np.log(2.0 * np.pi)
            for v, c0, sd in zip((a, theta[0]), centers, sds):
                nll += 0.5 * ((v - c0) / sd) ** 2
            nll += 0.5 * float(theta[1:] @ theta[1:])
            assert _neg_log_posterior(theta, spec, GRID, s, centers,
                                      sds) == nll

    @pytest.mark.parametrize("family", ["linear_plus_rbf", "linear_only",
                                        "linear_times_rbf"])
    @pytest.mark.parametrize("warp", ["sqrt", "identity"])
    def test_profiled_amplitude_is_stationary(self, family, warp):
        # d/da of the full objective at the profiled a, from an explicit
        # inverse: -h^T K^-1 (s - a h) + (a - a0) / sd_a^2 = 0
        rng = np.random.default_rng(14)
        spec = KernelSpec(family, warp)
        for _ in range(10):
            hyper = random_hyper(rng, family)
            c = rng.uniform(1.0, 1.2)
            s = 0.4 * GRID ** 1.1 + rng.normal(0, 1.0, len(GRID))
            h = GRID ** c
            k_inv = np.linalg.inv(gram_matrix(spec, hyper, GRID))
            a = profiled_amplitude(spec, hyper, s, c)
            parts = (h @ k_inv @ s, a * (h @ k_inv @ h), (a - 0.4) / 1.0)
            slope = -parts[0] + parts[1] + parts[2]
            assert abs(slope) <= 1e-8 * sum(abs(v) for v in parts)

    @pytest.mark.parametrize("family", ["linear_plus_rbf", "linear_only",
                                        "linear_times_rbf"])
    @pytest.mark.parametrize("warp", ["sqrt", "identity"])
    def test_profiled_value_is_below_full_objective(self, family, warp):
        from growabc.gp import _neg_log_posterior, _pack

        rng = np.random.default_rng(15)
        spec = KernelSpec(family, warp)
        centers, sds = (0.4, 1.1), (1.0, 1.1)
        for _ in range(10):
            hyper = random_hyper(rng, family)
            c = rng.uniform(1.0, 1.2)
            s = 0.4 * GRID ** 1.1 + rng.normal(0, 1.0, len(GRID))
            theta = np.array([c] + [getattr(hyper, n) for n in _pack(spec)])
            value = _neg_log_posterior(theta, spec, GRID, s, centers, sds)
            a = profiled_amplitude(spec, hyper, s, c)
            for delta in (1e-4, 1e-2, 1.0):
                for sign in (-1, 1):
                    full = full_objective(spec, hyper, GRID, s,
                                          (a + sign * delta * abs(a), c),
                                          centers, sds)
                    assert value <= full

    def test_overflowing_quadratic_form_is_a_failed_evaluation(self):
        # the Gram factors, but s^T K^-1 s overflows: a failed evaluation,
        # with no RuntimeWarning
        from growabc.gp import _neg_log_posterior_grad

        grid = np.linspace(35, 500, 94)
        theta = np.array([1.1, 0.5, 0.1, 1.0, 25.0, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = _neg_log_posterior_grad(
                theta, KernelSpec("linear_plus_rbf", "identity"), grid,
                1e200 * np.cos(grid), (0.4, 1.1), (1.0, 1.1))
        assert value == 1e30
        assert np.array_equal(grad, np.zeros_like(theta))

    def test_non_finite_gram_is_a_failed_evaluation(self):
        # alpha=1e305 overflows the linear part of the Gram to inf; the
        # Cholesky used to raise ValueError out of the optimizer
        from growabc.gp import _chol_with_jitter, _neg_log_posterior_grad

        grid = np.linspace(35, 500, 94)
        theta = np.array([1.1, 1e305, 0.4, 1.5, 40.0, 0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = _neg_log_posterior_grad(
                theta, KernelSpec("linear_plus_rbf", "identity"), grid,
                0.4 * grid ** 1.1, (0.4, 1.1), (1.0, 1.1))
        assert value == 1e30
        assert np.array_equal(grad, np.zeros_like(theta))
        # the factorization reads the lower triangle only; an inf in the
        # upper one must still be refused
        k = np.eye(4)
        k[0, 3] = np.inf
        with pytest.raises(SingularKernel):
            _chol_with_jitter(k)


class TestFitMap:
    def test_near_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        s = 0.4 * GRID ** 1.1 + rng.normal(0, 1e-6, len(GRID))
        ls = fit_series(GRID, s, "power")
        fit = fit_map(GRID, s, KernelSpec("linear_plus_rbf", "identity"), ls)
        assert fit.mean_params[0] == pytest.approx(0.4, abs=1e-3)
        assert fit.mean_params[1] == pytest.approx(1.1, abs=1e-3)
        assert fit.hyper.sigma2 < 1e-6

    def test_alpha_floor_active(self):
        # near-noiseless data: the likelihood and the prior both push the
        # linear-kernel scale down, so it pins at the lower bound
        rng = np.random.default_rng(1)
        s = 2.0 * GRID ** 0.5 + rng.normal(0, 1e-2, len(GRID))
        ls = fit_series(GRID, s, "power")
        fit = fit_map(GRID, s, KernelSpec("linear_only", "sqrt"), ls)
        assert fit.hyper.alpha == pytest.approx(0.05)

    def test_rho_floor_is_grid_spacing(self):
        rng = np.random.default_rng(2)
        s = 0.4 * GRID ** 1.1 + rng.normal(0, 0.5, len(GRID))
        ls = fit_series(GRID, s, "power")
        fit = fit_map(GRID, s, KernelSpec("linear_plus_rbf", "identity"), ls)
        assert fit.hyper.rho >= 5.0

    def test_optimum_beats_default_start(self):
        from growabc.gp import ALPHA_MIN, _neg_log_posterior, _pack

        rng = np.random.default_rng(3)
        spec = KernelSpec("linear_plus_rbf", "identity")
        lower = {"alpha": ALPHA_MIN, "gamma": 0.0, "beta": 0.0,
                 "rho": 5.0, "sigma2": 0.0}
        for _ in range(15):
            a = rng.uniform(0.2, 2.0)
            c = rng.uniform(0.5, 1.5)
            s = a * GRID ** c + rng.normal(0, rng.uniform(0.1, 2.0),
                                           len(GRID))
            ls = fit_series(GRID, s, "power")
            fit = fit_map(GRID, s, spec, ls)
            a0, c0 = ls.form.params
            centers, sds = (a0, c0), (max(abs(a0), 1.0), max(abs(c0), 1.0))
            init = np.array([c0] + [max(lower[n], 0.5) for n in _pack(spec)])
            init_obj = _neg_log_posterior(init, spec, GRID, s, centers, sds)
            assert -fit.log_posterior <= init_obj + 1e-9

    def test_dmc_gp_triangle_fit_leaves_the_amplitude_ridge(self):
        # RunConfig of the dmc_gp benchmark, master seed 2, entry 1. The
        # search over (a, c, kernel) stopped on the a-c ridge at a point
        # that is not stationary: log posterior -31534.03, a = -0.30,
        # c = -0.07.
        grid, (_, s) = dmc_series(master_seed=2)
        fit = fit_map(grid, s, KernelSpec("linear_plus_rbf", "identity"),
                      fit_series(grid, s, "power"))
        assert fit.log_posterior >= -6035.0
        assert 1.9 < fit.mean_params[1] < 2.1

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        s = 0.4 * GRID ** 1.1 + rng.normal(0, 0.5, len(GRID))
        ls = fit_series(GRID, s, "power")
        spec = KernelSpec("linear_plus_rbf", "identity")
        a = fit_map(GRID, s, spec, ls)
        b = fit_map(GRID, s, spec, ls)
        assert a.mean_params == b.mean_params
        assert a.hyper == b.hyper

    def test_too_few_checkpoints(self):
        ls = fit_series(GRID, 2 * GRID, "power")
        with pytest.raises(TooFewPoints):
            fit_map(GRID[:3], (2 * GRID)[:3],
                    KernelSpec("linear_only", "identity"), ls)

    def test_repeated_node_count_is_refused(self):
        # equal Gram rows made rho's lower bound 0, and the search
        # divided by it
        x = np.array([100, 100, 200, 300, 400, 500, 600], dtype=float)
        y = 2.0 * x ** 0.8
        with pytest.raises(ValueError, match="node count 100 is repeated"):
            fit_map(x, y, KernelSpec("linear_plus_rbf", "identity"),
                    fit_series(x, y, "power"))
        with pytest.raises(ValueError, match="node count 100 is repeated"):
            GpExtrapolator().fit(x, y)

    def test_unconverged_init_rejected(self):
        from growabc.curvefit import FunctionalForm, LsFit

        bad = LsFit(FunctionalForm("power", (np.nan, np.nan)), np.inf, False)
        with pytest.raises(NotConverged):
            fit_map(GRID, 2 * GRID, KernelSpec("linear_only", "identity"),
                    bad)


class TestPredict:
    def test_zero_residual_reverts_to_mean(self):
        spec = KernelSpec("linear_plus_rbf", "identity")
        hyper = GpHyper(alpha=0.05, gamma=1e-8, beta=0.0, rho=5.0,
                        sigma2=0.0)
        s = 0.3 * GRID ** 1.2
        fit = manual_fit(spec, hyper, GRID, s, (0.3, 1.2))
        pred = predict(fit, 1000)
        assert pred.mean == pytest.approx(0.3 * 1000 ** 1.2, rel=1e-6)

    def test_interpolates_training_point_without_noise(self):
        rng = np.random.default_rng(5)
        spec = KernelSpec("linear_plus_rbf", "identity")
        hyper = GpHyper(alpha=0.5, gamma=0.1, beta=1.0, rho=8.0, sigma2=0.0)
        s = 0.3 * GRID ** 1.2 + rng.normal(0, 3.0, len(GRID))
        fit = manual_fit(spec, hyper, GRID, s, (0.3, 1.2))
        i = 40
        pred = predict(fit, GRID[i])
        assert pred.mean == pytest.approx(s[i],
                                          abs=1e-6 * max(1.0, abs(s[i])))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            family = ["linear_plus_rbf", "linear_only",
                      "linear_times_rbf"][trial % 3]
            warp = ["sqrt", "identity"][trial % 2]
            spec = KernelSpec(family, warp)
            hyper = random_hyper(rng, family)
            mean_params = (rng.uniform(0.1, 2.0), rng.uniform(0.3, 1.5))
            s = mean_params[0] * GRID ** mean_params[1] \
                + rng.normal(0, 1.0, len(GRID))
            fit = manual_fit(spec, hyper, GRID, s, mean_params)
            pred = predict(fit, 1000)
            mean, var = dense_oracle(spec, hyper, GRID, s, mean_params, 1000)
            k_nn = kernel_value(spec, hyper, 1000, 1000)
            assert pred.mean == pytest.approx(mean, rel=1e-8, abs=1e-8)
            assert abs(pred.variance - var) \
                <= 1e-8 * max(abs(var), abs(k_nn))

    @pytest.mark.parametrize("family", ["linear_plus_rbf", "linear_only",
                                        "linear_times_rbf"])
    @pytest.mark.parametrize("warp", ["sqrt", "identity"])
    def test_fit_map_results_match_dense_oracle(self, family, warp):
        # MAP fits of a grown series leave the Gram far less well
        # conditioned than random_hyper does, so both paths may differ
        # by the solve's rounding, which grows with cond(K)
        grid, columns = dmc_series()
        spec = KernelSpec(family, warp)
        for s in columns:
            fit = fit_map(grid, s, spec, fit_series(grid, s, "power"))
            pred = predict(fit, 1000)
            mean, var = dense_oracle(spec, fit.hyper, grid, s,
                                     fit.mean_params, 1000)
            k_nn = kernel_value(spec, fit.hyper, 1000, 1000)
            tol = 64 * np.finfo(float).eps \
                * np.linalg.cond(gram_matrix(spec, fit.hyper, grid))
            assert abs(pred.mean - mean) <= tol * abs(mean)
            assert abs(pred.variance - var) <= tol * max(abs(var), k_nn)

    def test_fit_is_frozen(self):
        # the cached solve is computed once from the fields, so no field
        # may change after it
        spec = KernelSpec("linear_only", "identity")
        hyper = GpHyper(alpha=0.5, gamma=0.1, beta=0.0, rho=5.0, sigma2=1.0)
        fit = manual_fit(spec, hyper, GRID, 2 * GRID, (2.0, 1.0))
        before = predict(fit, 1000)
        assert fit.solve is fit.solve
        with pytest.raises(FrozenInstanceError):
            fit.values = 3 * GRID
        with pytest.raises(FrozenInstanceError):
            fit.hyper = replace(hyper, sigma2=2.0)
        assert predict(fit, 1000) == before

    def test_variance_shrinks_with_more_checkpoints(self):
        spec = KernelSpec("linear_plus_rbf", "identity")
        hyper = GpHyper(alpha=0.5, gamma=0.1, beta=1.0, rho=50.0,
                        sigma2=0.1)
        s = 0.3 * GRID ** 1.2
        prev = None
        for count in (10, 30, 60, 94):
            fit = manual_fit(spec, hyper, GRID[:count], s[:count],
                             (0.3, 1.2))
            var = predict(fit, 600).variance
            if prev is not None:
                assert var <= prev * (1 + 1e-8)
            prev = var

    def test_inflated_noise_grows_variance(self):
        spec = KernelSpec("linear_plus_rbf", "identity")
        base = GpHyper(alpha=0.5, gamma=0.1, beta=1.0, rho=20.0, sigma2=0.1)
        loud = GpHyper(alpha=0.5, gamma=0.1, beta=1.0, rho=20.0,
                       sigma2=10.0)
        s = 0.3 * GRID ** 1.2
        v0 = predict(manual_fit(spec, base, GRID, s, (0.3, 1.2)),
                     1000).variance
        v1 = predict(manual_fit(spec, loud, GRID, s, (0.3, 1.2)),
                     1000).variance
        assert v1 > v0

    def test_invalid_target(self):
        spec = KernelSpec("linear_only", "identity")
        hyper = GpHyper(alpha=0.5, gamma=0.1, beta=0.0, rho=5.0, sigma2=1.0)
        fit = manual_fit(spec, hyper, GRID, 2 * GRID, (2.0, 1.0))
        with pytest.raises(ValueError):
            predict(fit, 0)


class TestSummaryCorrelation:
    def _fit_pair(self, s1, s2):
        # constant-diagonal kernel: standardization weights every
        # checkpoint equally
        spec = KernelSpec("linear_plus_rbf", "identity")
        hyper = GpHyper(alpha=0.0, gamma=0.5, beta=0.5, rho=20.0,
                        sigma2=0.5)
        return [manual_fit(spec, hyper, GRID, s1, (0.0, 1.0)),
                manual_fit(spec, hyper, GRID, s2, (0.0, 1.0))]

    def test_identical_columns(self):
        rng = np.random.default_rng(7)
        s = rng.normal(0, 1, len(GRID))
        result = summary_correlation(self._fit_pair(s, s))
        assert result.value == pytest.approx(1.0)
        assert not result.degenerate

    def test_negated_column(self):
        rng = np.random.default_rng(8)
        s = rng.normal(0, 1, len(GRID))
        result = summary_correlation(self._fit_pair(s, -s))
        assert result.value == pytest.approx(-1.0)

    def test_white_noise_near_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(0, 1, len(GRID))
            b = rng.normal(0, 1, len(GRID))
            result = summary_correlation(self._fit_pair(a, b))
            assert abs(result.value) < 0.35

    @pytest.mark.parametrize("family", ["linear_plus_rbf", "linear_only",
                                        "linear_times_rbf"])
    @pytest.mark.parametrize("warp", ["sqrt", "identity"])
    def test_standardization_matches_kernel_value(self, family, warp):
        # residuals are standardized by the Gram's diagonal on the grid;
        # the result must equal the one from per-point kernel_value sds
        rng = np.random.default_rng(13)
        spec = KernelSpec(family, warp)
        for _ in range(10):
            hyper = random_hyper(rng, family)
            s1, s2 = rng.normal(0, 1, (2, len(GRID)))
            fits = [manual_fit(spec, hyper, GRID, s, (0.5, 1.0))
                    for s in (s1, s2)]
            sd = np.sqrt([kernel_value(spec, hyper, n, n) for n in GRID])
            mean = 0.5 * GRID ** 1.0
            expected = np.corrcoef((s1 - mean) / sd, (s2 - mean) / sd)[0, 1]
            result = summary_correlation(fits)
            assert result.value == min(1.0, max(-1.0, float(expected)))

    def test_fits_on_different_grids_are_refused(self):
        s = np.random.default_rng(16).normal(0, 1, len(GRID))
        fits = self._fit_pair(s, s)
        fits[1] = replace(fits[1], grid=GRID + 1.0)
        with pytest.raises(ValueError, match="one grid"):
            summary_correlation(fits)
        fits[1] = replace(fits[1], grid=GRID[:-1], values=s[:-1])
        with pytest.raises(ValueError, match="one grid"):
            summary_correlation(fits)

    def test_degenerate_residuals(self):
        s = np.zeros(len(GRID))
        result = summary_correlation(self._fit_pair(s, s))
        assert result.value == 0.0
        assert result.degenerate


class TestEstimatorApi:
    def test_fit_predict_with_std(self):
        rng = np.random.default_rng(10)
        s = 0.4 * GRID ** 1.1 + rng.normal(0, 0.3, len(GRID))
        est = GpExtrapolator(kernel="linear_plus_rbf", warp="identity")
        est.fit(GRID, s)
        mean, std = est.predict([1000.0], return_std=True)
        assert mean.shape == (1,)
        assert std[0] > 0
        assert mean[0] == pytest.approx(0.4 * 1000 ** 1.1, rel=0.2)

    def test_get_set_params(self):
        est = GpExtrapolator()
        assert est.get_params() == {"kernel": "linear_plus_rbf",
                                    "warp": "identity"}
        est.set_params(warp="sqrt")
        assert est.warp == "sqrt"
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotConverged):
            GpExtrapolator().predict([100.0])
