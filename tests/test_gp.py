import numpy as np
import pytest

from growabc.curvefit import fit_series
from growabc.errors import NotConverged, TooFewPoints
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
        theta = np.array([0.38, 1.11] + [self.START[n] for n in _pack(spec)])
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
        gram, objective = gp.gram_matrix, gp._neg_log_posterior_grad

        def counted_gram(*args, **kwargs):
            counts["gram"] += 1
            return gram(*args, **kwargs)

        def counted_objective(*args):
            counts["objective"] += 1
            return objective(*args)

        monkeypatch.setattr(gp, "gram_matrix", counted_gram)
        monkeypatch.setattr(gp, "_neg_log_posterior_grad", counted_objective)
        rng = np.random.default_rng(5)
        s = 0.4 * GRID ** 1.1 + rng.normal(0, 0.5, len(GRID))
        fit_map(GRID, s, KernelSpec("linear_plus_rbf", "identity"),
                fit_series(GRID, s, "power"))
        # plus one for the final solve that predictions reuse
        assert counts["objective"] > 0
        assert counts["gram"] == counts["objective"] + 1


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
            init = np.array([a0, c0]
                            + [max(lower[n], 0.5) for n in _pack(spec)])
            init_obj = _neg_log_posterior(init, spec, GRID, s, centers, sds)
            assert -fit.log_posterior <= init_obj + 1e-9

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
        result = summary_correlation(self._fit_pair(s, s), [s, s])
        assert result.value == pytest.approx(1.0)
        assert not result.degenerate

    def test_negated_column(self):
        rng = np.random.default_rng(8)
        s = rng.normal(0, 1, len(GRID))
        result = summary_correlation(self._fit_pair(s, -s), [s, -s])
        assert result.value == pytest.approx(-1.0)

    def test_white_noise_near_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(0, 1, len(GRID))
            b = rng.normal(0, 1, len(GRID))
            result = summary_correlation(self._fit_pair(a, b), [a, b])
            assert abs(result.value) < 0.35

    def test_degenerate_residuals(self):
        s = np.zeros(len(GRID))
        result = summary_correlation(self._fit_pair(s, s), [s, s])
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
