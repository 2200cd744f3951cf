"""Per-realization functional-form fits on the linear scale and their
evaluation at larger network sizes.

Families:
  power:         a * n**c
  power_offset:  a * n**c + d
  inverse:       a / n + c
  digamma:       (euler_gamma + digamma(a*n + 1))**c + d

The objective is the plain sum of squared errors (SSE) in original units
(not log-log), and every fit is deterministic (no RNG):

- power, power_offset: variable projection (Golub & Pereyra, 1973). The
  amplitude ``a`` and the offset ``d`` enter linearly, so at each exponent
  ``c`` of a fixed grid they are solved in closed form and the SSE profile
  over ``c`` is read off. From the grid minimum, damped Gauss-Newton with
  the analytic Jacobian polishes the fit; the linear parameters are
  re-solved at every trial exponent.
- inverse: linear in both parameters, one ``lstsq`` solve.
- digamma: ``a`` sits inside the nonlinearity, so ``scipy.optimize
  .least_squares`` runs from a deterministic multi-start grid.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.special import digamma as psi0
from scipy.special import polygamma

from .errors import NonFiniteInput, NotConverged, TooFewPoints

EULER_GAMMA = float(np.euler_gamma)

FAMILIES = ("power", "power_offset", "inverse", "digamma")

PARAM_NAMES = {
    "power": ("a", "c"),
    "power_offset": ("a", "c", "d"),
    "inverse": ("a", "c"),
    "digamma": ("a", "c", "d"),
}

# Power families: exponent grid of the profile scan (step 0.05, with an
# exact 0), and the Gauss-Newton polish's limits. The polish stops when
# its step would remove at most a _GTOL**2 share of the SSE, or move the
# fitted values by at most _EPS_FIT times the norm of the series.
_C_GRID = np.arange(-60, 81) / 20.0
_GTOL = 1e-7
_EPS_FIT = 1e-14
_MAX_ITER = 100
_MIN_STEP = 2.0 ** -30

# Digamma multi-start grid over (a, c); a log-spaced, c linear.
_A_GRID = np.logspace(-3, 3, 5)
_C_STARTS = np.linspace(0.1, 3.0, 5)
_N_REFINE = 3  # optimizer runs from the best grid points by initial SSE


@dataclass(frozen=True)
class FunctionalForm:
    family: str
    params: tuple

    def __call__(self, n):
        return evaluate_form(self.family, np.asarray(self.params, float), n)


@dataclass(frozen=True)
class LsFit:
    form: FunctionalForm
    residual_sse: float
    converged: bool


def evaluate_form(family, params, n):
    n = np.asarray(n, dtype=float)
    if family == "power":
        a, c = params
        return a * n ** c
    if family == "power_offset":
        a, c, d = params
        return a * n ** c + d
    if family == "inverse":
        a, c = params
        return a / n + c
    if family == "digamma":
        a, c, d = params
        h = EULER_GAMMA + psi0(a * n + 1.0)
        return h ** c + d
    raise ValueError("unknown family %r" % (family,))


def _jacobian(family, params, n):
    n = np.asarray(n, dtype=float)
    if family == "power":
        a, c = params
        nc = n ** c
        return np.column_stack([nc, a * nc * np.log(n)])
    if family == "power_offset":
        a, c, d = params
        nc = n ** c
        return np.column_stack([nc, a * nc * np.log(n), np.ones_like(n)])
    if family == "inverse":
        return np.column_stack([1.0 / n, np.ones_like(n)])
    if family == "digamma":
        a, c, d = params
        h = EULER_GAMMA + psi0(a * n + 1.0)
        dh_da = polygamma(1, a * n + 1.0) * n
        with np.errstate(divide="ignore", invalid="ignore"):
            d_dc = np.where(h > 0, h ** c * np.log(h), 0.0)
        return np.column_stack([c * h ** (c - 1.0) * dh_da,
                                d_dc, np.ones_like(n)])
    raise ValueError("unknown family %r" % (family,))


def _power_profile(n, s, cs, with_offset):
    """Linear parameters and SSE of the power family at each exponent.

    For every ``c`` in ``cs`` the amplitude ``a`` (and, with the offset,
    ``d``) is the closed-form least-squares solution on the basis
    ``[n**c]`` (``[n**c, 1]``). Returns arrays ``(a, d, sse)``; an
    exponent whose basis or fit is not finite scores ``sse = inf``.
    The offset basis is rank-deficient at ``c = 0``, where the fit is
    the constant ``d = mean(s)`` with ``a = 0``. Callers hold the
    ``np.errstate`` that silences overflow at extreme exponents.
    """
    x = n[:, None] ** cs
    if with_offset:
        xm = x.mean(axis=0)
        xc = x - xm
        sxx = np.einsum("ij,ij->j", xc, xc)
        a = (s - s.mean()) @ xc / sxx
        a[sxx == 0.0] = 0.0
        d = s.mean() - a * xm
    else:
        a = s @ x / np.einsum("ij,ij->j", x, x)
        d = 0.0 * a
    r = x * a + d - s[:, None]
    sse = np.einsum("ij,ij->j", r, r)
    sse[~np.isfinite(sse)] = np.inf
    return a, d, sse


def _solve_linear(n, s, c, with_offset):
    """Closed-form linear parameters at exponent ``c``: (params, sse)."""
    a, d, sse = _power_profile(n, s, np.array([c]), with_offset)
    params = (a[0], c, d[0]) if with_offset else (a[0], c)
    return np.array(params), float(sse[0])


def _fit_power(n, s, family):
    """Variable projection: the linear parameters are solved in closed
    form at every exponent, so the fit searches ``c`` alone. A scan of
    the exponent grid picks the start. Gauss-Newton steps on all
    parameters then move ``c``, halved until the SSE falls by at least a
    quarter of the linear model's prediction (Armijo), which damps the
    overshoot of large-residual fits.

    The polish stops on its tolerance when the Gauss-Newton step would
    remove at most a ``_GTOL**2`` share of the SSE, or move the fitted
    values by rounding only; only then is the fit converged.
    """
    with_offset = family == "power_offset"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sse = _power_profile(n, s, _C_GRID, with_offset)[2]
        k = int(np.argmin(sse))
        if not np.isfinite(sse[k]):
            n_params = 3 if with_offset else 2
            return LsFit(FunctionalForm(family, (np.nan,) * n_params),
                         np.inf, False)
        x, sse = _solve_linear(n, s, _C_GRID[k], with_offset)
        floor = _EPS_FIT * float(np.sqrt(s @ s))
        stopped = False
        for _ in range(_MAX_ITER):
            if sse == 0.0:
                stopped = True
                break
            r = evaluate_form(family, x, n) - s
            jac = _jacobian(family, x, n)
            if not np.all(np.isfinite(jac)):
                break
            scale = np.sqrt(np.einsum("ij,ij->j", jac, jac))
            scale[scale == 0.0] = 1.0
            step = np.linalg.lstsq(jac / scale, -r, rcond=None)[0] / scale
            # the linear model's SSE falls by `gain` over the full step,
            # and its slope along the step is -2 * gain
            gain = float(np.sum((jac @ step) ** 2))
            stopped = np.sqrt(gain) <= _GTOL * np.sqrt(sse) + floor
            t = 1.0
            while t >= _MIN_STEP:
                x_new, sse_new = _solve_linear(n, s, x[1] + t * step[1],
                                               with_offset)
                # a final step is below the SSE's rounding: take it
                # unless it leaves the finite range
                if (sse - sse_new >= 0.5 * t * gain
                        or (stopped and np.isfinite(sse_new))):
                    x, sse = x_new, sse_new
                    break
                t *= 0.5
            if stopped or t < _MIN_STEP:
                break
    converged = bool(stopped and np.all(np.isfinite(x)))
    return LsFit(FunctionalForm(family, tuple(float(v) for v in x)),
                 sse, converged)


def _digamma_starts(n, s):
    grid = [np.array([a0, c0, 0.0]) for a0 in _A_GRID for c0 in _C_STARTS]
    # Screen the grid by initial SSE and refine only the best few.
    sses = []
    for x0 in grid:
        r = evaluate_form("digamma", x0, n) - s
        sses.append(float(np.dot(r, r)) if np.all(np.isfinite(r)) else np.inf)
    order = np.argsort(sses, kind="stable")[:_N_REFINE]
    # plus an offset start anchored at the series minimum
    return [grid[i] for i in order] + [np.array([1.0, 1.0, float(np.min(s))])]


def fit_series(n, s, family):
    """Least-squares fit of one functional family to a tracked series."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    n = np.asarray(n, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (np.all(np.isfinite(n)) and np.all(np.isfinite(s))):
        raise NonFiniteInput("series contains non-finite values")
    n_params = len(PARAM_NAMES[family])
    if len(np.unique(n)) < n_params:
        raise TooFewPoints(
            "%d distinct points < %d parameters" % (len(np.unique(n)),
                                                    n_params))
    if np.all(s == 0.0):
        params = (0.0, 1.0) if n_params == 2 else (0.0, 1.0, 0.0)
        return LsFit(FunctionalForm(family, params), 0.0, True)

    if family in ("power", "power_offset"):
        return _fit_power(n, s, family)

    if family == "inverse":
        design = np.column_stack([1.0 / n, np.ones_like(n)])
        params, *_ = np.linalg.lstsq(design, s, rcond=None)
        resid = design @ params - s
        return LsFit(FunctionalForm(family, tuple(params)),
                     float(np.dot(resid, resid)), True)

    best = None
    for x0 in _digamma_starts(n, s):
        try:
            res = least_squares(
                lambda p: evaluate_form(family, p, n) - s,
                x0,
                jac=lambda p: _jacobian(family, p, n),
                bounds=([1e-9, -np.inf, -np.inf], np.inf),
                method="trf",
                xtol=1e-15, ftol=1e-15, gtol=1e-14,
                max_nfev=400,
            )
        except (ValueError, np.linalg.LinAlgError):
            continue
        sse = float(np.dot(res.fun, res.fun))
        if best is None or sse < best[0]:
            best = (sse, res)
    if best is None:
        return LsFit(FunctionalForm(family, (np.nan,) * n_params),
                     np.inf, False)
    sse, res = best
    converged = bool(res.success and np.all(np.isfinite(res.x)))
    return LsFit(FunctionalForm(family, tuple(float(v) for v in res.x)),
                 sse, converged)


def extrapolate(fit, n_o):
    """Evaluate a converged fit at ``n_o`` nodes."""
    if not fit.converged:
        raise NotConverged("cannot extrapolate an unconverged fit")
    if n_o <= 0:
        raise ValueError("n_o must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(fit.form(float(n_o)))
    if not np.isfinite(value):
        raise OverflowError("extrapolated value is not finite")
    return value


DEFAULT_FAMILY_BY_KIND = {
    "avg_degree": "power",
    "triangle_count": "power",
    "sample_triangle_count": "power_offset",
    "in_degree_mean": "inverse",
    "in_degree_variance": "digamma",
}


class CurveExtrapolator:
    """sklearn-style estimator wrapping :func:`fit_series`.

    ``fit(X, y)`` takes node counts (1-d or a single column) and summary
    values; ``predict(X)`` evaluates the fitted form.
    """

    def __init__(self, family="power"):
        self.family = family

    def get_params(self, deep=True):
        return {"family": self.family}

    def set_params(self, **params):
        for key, value in params.items():
            if not hasattr(self, key):
                raise ValueError("invalid parameter %r" % (key,))
            setattr(self, key, value)
        return self

    def fit(self, X, y):
        n = np.asarray(X, dtype=float).reshape(-1)
        fit = fit_series(n, y, self.family)
        self.fit_ = fit
        self.params_ = fit.form.params
        self.residual_sse_ = fit.residual_sse
        self.converged_ = fit.converged
        return self

    def predict(self, X):
        if not hasattr(self, "fit_"):
            raise NotConverged("estimator is not fitted")
        n = np.asarray(X, dtype=float).reshape(-1)
        return np.array([extrapolate(self.fit_, v) for v in n])
