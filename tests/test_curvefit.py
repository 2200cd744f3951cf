import warnings

import mpmath
import numpy as np
import pytest

from growabc.config import RunConfig
from growabc.curvefit import (
    EULER_GAMMA,
    CurveExtrapolator,
    FunctionalForm,
    LsFit,
    evaluate_form,
    extrapolate,
    fit_series,
)
from growabc.errors import NonFiniteInput, NotConverged, TooFewPoints
from growabc.rejection import draw_prior
from growabc.seeding import mix_seed
from growabc.table import (
    build_reference_table,
    grow_to,
    load_reference_table,
    simulate_observed,
)

GRID = np.arange(35, 501, 5, dtype=float)
POWER_FAMILIES = ("power", "power_offset")
FAMILIES = POWER_FAMILIES + ("inverse", "digamma")


def tracked_series(cfg, entry_id):
    """The checkpoint grid and the tracked columns of one table entry,
    grown exactly as the table build grows it."""
    rng = np.random.default_rng(mix_seed(cfg.master_seed, entry_id))
    theta = draw_prior(cfg.prior_box(), rng)
    series, _ = grow_to(cfg, theta, rng, cfg.entry_plan())
    grid = np.asarray(series.checkpoints, dtype=float)
    return grid, {spec.kind: series.column(spec.name)
                  for spec in cfg.summary_specs()}


def profile_floor(n, s, family, cs=np.linspace(-4.0, 5.0, 2001)):
    """Least SSE of the power family over a dense exponent grid, the
    linear parameters at each exponent from a pseudo-inverse."""
    basis = n[None, :, None] ** cs[:, None, None]
    if family == "power_offset":
        basis = np.concatenate([basis, np.ones_like(basis)], axis=2)
    coef = np.linalg.pinv(basis) @ s
    resid = s - (basis @ coef[:, :, None])[:, :, 0]
    return float(np.einsum("km,km->k", resid, resid).min())


def sse_gradient_cosines(n, s, fit):
    """|d SSE / d theta_j| scaled to a cosine: |J_j . r| / (|J_j| |r|)."""
    a, c = fit.form.params[:2]
    resid = evaluate_form(fit.form.family, fit.form.params, n) - s
    cols = [n ** c, a * n ** c * np.log(n)]
    if fit.form.family == "power_offset":
        cols.append(np.ones_like(n))
    jac = np.column_stack(cols)
    return np.abs(jac.T @ resid) / (np.linalg.norm(jac, axis=0)
                                    * np.linalg.norm(resid))


@pytest.fixture(scope="module")
def power_series():
    """Both summaries of 50 DMC entries at n_s=500, plus noisy
    synthetic power and power_offset series."""
    cfg = RunConfig(method="LS", n_s=500, n_o=1000)
    out = []
    for b in range(1, 51):
        grid, cols = tracked_series(cfg, b)
        out.extend((grid, col) for col in cols.values())
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, c = rng.uniform(0.1, 5), rng.uniform(0.3, 1.8)
        for offset in (0.0, rng.uniform(-5, 5)):
            clean = a * GRID ** c + offset
            out.append((GRID, clean + rng.normal(0, 0.02 * np.mean(clean),
                                                 GRID.size)))
    return out


# The config that made 2 of 4 entries fail with NotConverged: the
# power_offset fits of entries 2 and 4 (sampled triangle counts) stalled
# on the c -> 0, a -> inf, d -> -inf ridge at SSE 4609.3 and 2868.5,
# while the exponent profile has interior minima below these bounds.
FOUND_CFG = dict(summaries="avg_degree,sample_triangle_count", n_s=100,
                 n_o=200, n_star=35, table_size=4, workers=1)
FOUND_SSE_BOUNDS = {2: 4536.7, 4: 2479.4}


class TestFit:
    def test_power_exact(self):
        fit = fit_series(GRID, 2.0 * GRID ** 1.5, "power")
        assert fit.converged
        assert fit.form.params == pytest.approx((2.0, 1.5), rel=1e-6)
        assert fit.residual_sse < 1e-10

    def test_constant_series(self):
        fit = fit_series(GRID, np.full_like(GRID, 5.0), "power")
        assert fit.form.params[0] == pytest.approx(5.0, abs=1e-6)
        assert fit.form.params[1] == pytest.approx(0.0, abs=1e-6)

    def test_power_offset_exact(self):
        fit = fit_series(GRID, 3.0 * GRID ** 0.8 - 7.0, "power_offset")
        assert fit.form.params == pytest.approx((3.0, 0.8, -7.0), rel=1e-6)

    def test_inverse_exact(self):
        fit = fit_series(GRID, 10.0 / GRID + 3.0, "inverse")
        assert fit.form.params == pytest.approx((10.0, 3.0), rel=1e-6)

    def test_digamma_exact(self):
        s = evaluate_form("digamma", (0.7, 1.3, 2.0), GRID)
        fit = fit_series(GRID, s, "digamma")
        assert fit.form.params == pytest.approx((0.7, 1.3, 2.0), rel=1e-5)
        assert fit.residual_sse < 1e-10

    def test_digamma_identity_at_unit_argument(self):
        # at a*n = 1 the model value is 1 + d: psi(2) = 1 - euler_gamma
        oracle = float(mpmath.digamma(2)) + EULER_GAMMA
        assert oracle == pytest.approx(1.0, abs=1e-12)
        value = evaluate_form("digamma", (0.02, 1.0, 4.0), np.array([50.0]))
        assert value[0] == pytest.approx(1.0 + 4.0, rel=1e-12)

    def test_all_zero_series(self):
        fit = fit_series(GRID, np.zeros_like(GRID), "power")
        assert fit.converged
        assert extrapolate(fit, 10_000) == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_zero_series_extrapolates_to_zero(self, family):
        # inverse used to take the shortcut's (0, 1): a / n + c = 1
        fit = fit_series(GRID, np.zeros_like(GRID), family)
        assert fit.converged and fit.residual_sse == 0.0
        assert extrapolate(fit, 10_000) == 0.0

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_series(np.array([10.0]), np.array([1.0]), "power")

    def test_non_finite_input(self):
        s = 2.0 * GRID
        s[3] = np.nan
        with pytest.raises(NonFiniteInput):
            fit_series(GRID, s, "power")

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        s = 0.3 * GRID ** 1.2 + rng.normal(0, 5, len(GRID))
        a = fit_series(GRID, s, "power")
        b = fit_series(GRID, s, "power")
        assert a.form.params == b.form.params

    def test_scale_equivariance(self):
        s = 1.7 * GRID ** 0.9
        base = fit_series(GRID, s, "power")
        scaled = fit_series(GRID, 10.0 * s, "power")
        assert scaled.form.params[0] == pytest.approx(
            10.0 * base.form.params[0], rel=1e-6)
        assert scaled.form.params[1] == pytest.approx(
            base.form.params[1], abs=1e-6)

    def test_noiseless_residuals_small_all_families(self):
        rng = np.random.default_rng(1)
        cases = {
            "power": lambda: (rng.uniform(0.1, 5), rng.uniform(0.3, 1.8)),
            "power_offset": lambda: (rng.uniform(0.1, 5),
                                     rng.uniform(0.3, 1.8),
                                     rng.uniform(-5, 5)),
            "inverse": lambda: (rng.uniform(1, 100), rng.uniform(0, 10)),
            "digamma": lambda: (rng.uniform(0.1, 5), rng.uniform(0.5, 2),
                                rng.uniform(-5, 5)),
        }
        for family, draw in cases.items():
            for _ in range(5):
                params = draw()
                s = evaluate_form(family, params, GRID)
                fit = fit_series(GRID, s, family)
                assert fit.residual_sse < 1e-8, (family, params)


class TestExtrapolate:
    def test_power_closed_form(self):
        fit = fit_series(GRID, 2.0 * GRID ** 1.5, "power")
        assert extrapolate(fit, 100) == pytest.approx(2000.0, rel=1e-9)

    def test_inverse_limit(self):
        fit = LsFit(FunctionalForm("inverse", (10.0, 3.0)), 0.0, True)
        assert extrapolate(fit, 10 ** 6) == pytest.approx(3.0, abs=1e-4)

    def test_digamma_at_one(self):
        fit = LsFit(FunctionalForm("digamma", (1.0, 1.0, 0.0)), 0.0, True)
        oracle = float(mpmath.digamma(2) + mpmath.euler)
        assert extrapolate(fit, 1) == pytest.approx(oracle, rel=1e-12)
        assert extrapolate(fit, 1) == pytest.approx(1.0, rel=1e-12)

    def test_not_converged(self):
        fit = LsFit(FunctionalForm("power", (np.nan, np.nan)), np.inf, False)
        with pytest.raises(NotConverged):
            extrapolate(fit, 100)

    def test_overflow(self):
        fit = LsFit(FunctionalForm("power", (1e300, 5.0)), 0.0, True)
        with pytest.raises(OverflowError):
            extrapolate(fit, 10 ** 6)

    def test_monotone_in_n_for_increasing_power(self):
        fit = LsFit(FunctionalForm("power", (0.5, 1.2)), 0.0, True)
        values = [extrapolate(fit, n) for n in (600, 1000, 5000, 10_000)]
        assert values == sorted(values)


class TestEstimatorApi:
    def test_fit_predict(self):
        est = CurveExtrapolator(family="power")
        est.fit(GRID, 2.0 * GRID ** 1.5)
        assert est.converged_
        assert est.predict([100.0])[0] == pytest.approx(2000.0, rel=1e-6)

    def test_get_set_params(self):
        est = CurveExtrapolator()
        assert est.get_params() == {"family": "power"}
        est.set_params(family="inverse")
        assert est.family == "inverse"
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotConverged):
            CurveExtrapolator().predict([100.0])


class TestVariableProjection:
    def test_global_minimum_against_dense_profile(self, power_series):
        for n, s in power_series:
            for family in POWER_FAMILIES:
                fit = fit_series(n, s, family)
                assert fit.converged
                floor = profile_floor(n, s, family)
                assert fit.residual_sse <= (1.0 + 1e-12) * floor, family

    def test_sse_gradient_is_zero(self, power_series):
        for n, s in power_series:
            for family in POWER_FAMILIES:
                fit = fit_series(n, s, family)
                assert sse_gradient_cosines(n, s, fit).max() < 1e-8, family

    def test_rank_deficient_offset_basis_at_zero_exponent(self):
        # every power_offset scan passes c = 0, where [n**c, 1] has rank 1
        for s in (np.full_like(GRID, 5.0), 2.0 + np.log(GRID)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = fit_series(GRID, s, "power_offset")
            assert np.all(np.isfinite(fit.form.params))

    def test_runaway_exponent_is_unconverged_and_silent(self):
        # the best fit puts all weight on the first point (c -> -inf)
        s = np.zeros_like(GRID)
        s[0] = 1.0
        for family in POWER_FAMILIES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = fit_series(GRID, s, family)
            assert not fit.converged


class TestFoundSampledTriangleFits:
    @pytest.mark.parametrize("method", ["RE", "LS"])
    def test_no_failed_entries(self, method, tmp_path):
        cfg = RunConfig(method=method, **FOUND_CFG)
        path = str(tmp_path / "t.csv")
        build_reference_table(cfg, path)
        entries, failed, _ = load_reference_table(path)
        assert failed == 0
        assert [e.entry_id for e in entries] == [1, 2, 3, 4]

    def test_interior_minimum_and_no_warnings(self):
        cfg = RunConfig(method="LS", **FOUND_CFG)
        for b in range(1, 5):
            grid, cols = tracked_series(cfg, b)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fits = {spec.kind: fit_series(grid, cols[spec.kind],
                                              spec.family)
                        for spec in cfg.summary_specs()}
            assert all(fit.converged for fit in fits.values())
            if b in FOUND_SSE_BOUNDS:
                fit = fits["sample_triangle_count"]
                assert fit.form.family == "power_offset"
                assert fit.residual_sse <= FOUND_SSE_BOUNDS[b]


class TestFoundArclessPriceInverse:
    """p = 0: the Price graph never gains an arc, so every tracked
    in-degree mean is 0 and so is the value at n_o; the inverse fit
    used to extrapolate the all-zero series to 1."""

    CFG = RunConfig(model="price", summaries="in_degree_mean,"
                    "in_degree_variance", seed_n=1, prior_low=(0.5, 0.0),
                    prior_high=(5.0, 0.0), n_s=100, n_o=200,
                    checkpoint_start=40, truths="2.5:0.0", table_size=4,
                    accept_k=2, exp_replicates=1)

    def test_entries_extrapolate_to_zero(self, tmp_path):
        cfg = self.CFG
        path = str(tmp_path / "t.csv")
        build_reference_table(cfg, path)
        entries, failed, header = load_reference_table(path)
        assert failed == 0 and len(entries) == 4
        at = [c for c in header if c.startswith("ext_")].index(
            "ext_in_degree_mean")
        assert [e.ext_summaries[at] for e in entries] == [0.0] * 4
        rng = np.random.default_rng(0)
        assert simulate_observed(cfg, (2.5, 0.0), rng)[0] == 0.0


# The price_ls benchmark config: the digamma fits of in_degree_variance.
PRICE_CFG = RunConfig(model="price", method="LS", prior_low=(0.5, 0.001),
                      prior_high=(5.0, 0.01),
                      summaries="in_degree_mean,in_degree_variance",
                      n_s=300, checkpoint_start=40, n_o=4000, table_size=48,
                      master_seed=0)


def digamma_gradient_cosines(n, s, fit):
    """|d SSE / d theta_j| scaled to a cosine, with the model's Jacobian
    in (a, c, d) from 30-digit digamma and trigamma values."""
    a, c, _ = fit.form.params
    resid = evaluate_form("digamma", fit.form.params, n) - s
    with mpmath.workdps(30):
        x = [mpmath.mpf(a) * int(v) + 1 for v in n]
        h = np.array([float(mpmath.digamma(v) + mpmath.euler) for v in x])
        trigamma = np.array([float(mpmath.psi(1, v)) for v in x])
    jac = np.column_stack([c * h ** (c - 1.0) * trigamma * n,
                           h ** c * np.log(h), np.ones_like(n)])
    return np.abs(jac.T @ resid) / (np.linalg.norm(jac, axis=0)
                                    * np.linalg.norm(resid))


@pytest.fixture(scope="module")
def price_digamma_fits():
    """Entry id -> (grid, series, fit) for the 48 entries; a fit that
    raised a RuntimeWarning is stored as the warning."""
    out = {}
    for b in range(1, 49):
        grid, cols = tracked_series(PRICE_CFG, b)
        s = cols["in_degree_variance"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fit = fit_series(grid, s, "digamma")
            except RuntimeWarning as warning:
                fit = warning
        out[b] = (grid, s, fit)
    return out


class TestDigammaPriceSeries:
    def test_no_runtime_warnings(self, price_digamma_fits):
        # the scan and the polish reach a*n far beyond the grid's range
        raised = [b for b, (_, _, fit) in price_digamma_fits.items()
                  if isinstance(fit, RuntimeWarning)]
        assert raised == []

    def test_converged_fits_are_stationary(self, price_digamma_fits):
        # a bounded solver reported entries 24 and 29 converged while
        # stopped on its a >= 1e-9 bound (cosines 4e-6 and 2.1e-4)
        for b, (n, s, fit) in price_digamma_fits.items():
            if fit.converged:
                assert digamma_gradient_cosines(n, s, fit).max() < 1e-8, b

    def test_found_entries_converge(self, price_digamma_fits):
        # entry 8 was reported unconverged at SSE 2.1687 and entry 45 at
        # a stationary point; entry 8 has an interior minimum below 2.0444
        fit8, fit45 = price_digamma_fits[8][2], price_digamma_fits[45][2]
        assert fit8.converged and fit8.residual_sse <= 2.0444
        assert fit45.converged

    def test_at_most_eleven_failures(self, price_digamma_fits):
        failed = [b for b, (_, _, fit) in price_digamma_fits.items()
                  if not fit.converged]
        assert len(failed) <= 11, failed


class TestOpenPowerOffsetDefects:
    """Fits whose infimum is a limit model the family cannot reach. A
    fallback to the limit model would make both converge."""

    @pytest.mark.xfail(strict=True, reason="c -> 0 limit: a + b log n")
    def test_log_series_converges(self):
        fit = fit_series(GRID, 2.0 + np.log(GRID), "power_offset")
        assert fit.converged

    @pytest.mark.xfail(strict=True, reason="c -> inf limit: a constant")
    def test_trendless_sampled_triangle_series_converges(self):
        cfg = RunConfig(method="RE", summaries="avg_degree,"
                        "sample_triangle_count", n_s=100, n_o=200,
                        n_star=35, table_size=16, master_seed=1)
        grid, cols = tracked_series(cfg, 12)
        fit = fit_series(grid, cols["sample_triangle_count"], "power_offset")
        assert fit.converged
