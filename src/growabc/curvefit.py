"""Per-realization functional-form fits on the linear scale and their
evaluation at larger network sizes.

  family         form                                       nonlinear
  power          a * n**c                                   c
  power_offset   a * n**c + d                               c
  inverse        a / n + c                                  -
  digamma        (euler_gamma + digamma(a*n + 1))**c + d    log a, c

One deterministic routine minimises the sum of squared errors (SSE) in
original units by variable projection (Golub & Pereyra, 1973): the other
parameters enter linearly and are solved in closed form, so the SSE
profile is scanned on a grid of the nonlinear ones and its lowest local
minima are polished. ``log a`` keeps the digamma ``a`` positive. The
inverse fit is the power_offset solve at ``c = -1``. Only the digamma
family calls SciPy (``scipy.special``), imported on its first use.
"""

import functools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import NonFiniteInput, NotConverged, TooFewPoints

EULER_GAMMA = float(np.euler_gamma)

PARAM_NAMES = {
    "power": ("a", "c"),
    "power_offset": ("a", "c", "d"),
    "inverse": ("a", "c"),
    "digamma": ("a", "c", "d"),
}

# Scan grids. Power families: c at step 0.05, with an exact 0. Digamma,
# whose profile has several basins and narrow ridges: log a in tenths of
# a decade over [1e-9, 1e3] by c at step 0.01 over [-1, 4].
_C_GRID = np.arange(-60, 81) / 20.0
_DIGAMMA_LOG_A = np.arange(-90, 31) / 10.0 * np.log(10.0)
_DIGAMMA_C = np.arange(-100, 401) / 100.0
# per family: the nonlinear parameters' positions, and the starts polished
_SEARCH = {"power": ([1], 1), "power_offset": ([1], 1), "digamma": ([0, 1], 3)}
# The polish stops when its step would remove at most a _GTOL**2 share
# of the SSE, or move the fitted values by at most _EPS_FIT times the
# norm of the series.
_GTOL = 1e-7
_EPS_FIT = 1e-14
_MAX_ITER = 100
_MIN_STEP = 2.0 ** -30
_FD_STEP = 1e-6


@functools.cache
def load_scipy():
    """``scipy.special``'s digamma and polygamma, and the Taylor
    coefficients of ``euler_gamma + digamma(1 + x)``, highest first,
    imported and built on first use: only the digamma family needs
    them."""
    from scipy.special import digamma, polygamma, zeta

    h_series = [(-1.0) ** k * zeta(k) for k in range(9, 1, -1)] + [0.0]
    return SimpleNamespace(digamma=digamma, polygamma=polygamma,
                           h_series=h_series)


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


def _digamma_h(x):
    """``euler_gamma + digamma(x + 1)``; the sum cancels for small ``x``,
    where its Taylor series is summed instead."""
    special = load_scipy()
    series = np.polyval(special.h_series, np.minimum(x, 0.01))
    return np.where(x < 0.01, series, EULER_GAMMA + special.digamma(x + 1.0))


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
        return _digamma_h(a * n) ** c + d
    raise ValueError("unknown family %r" % (family,))


def _jacobian(family, params, n):
    """Jacobian in the search coordinates (digamma: ``log a``)."""
    if family == "digamma":
        a, c, d = params
        h = _digamma_h(a * n)
        dh_dlog_a = load_scipy().polygamma(1, a * n + 1.0) * a * n
        return np.column_stack([c * h ** (c - 1.0) * dh_dlog_a,
                                h ** c * np.log(h), np.ones_like(n)])
    nc = n ** params[1]
    return np.column_stack([nc, params[0] * nc * np.log(n)]
                           + [np.ones_like(n)] * (len(params) - 2))


def _power_profile(n, s, cs, with_offset):
    """Closed-form ``(a, d, sse)`` of the power family on the basis
    ``[n**c]`` (``[n**c, 1]``) at each exponent in ``cs``; a non-finite
    fit scores ``sse = inf``. The offset basis is rank-deficient at
    ``c = 0``, where the fit is ``d = mean(s)`` with ``a = 0``. Callers
    hold the ``np.errstate`` that silences overflow at extreme ``c``."""
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


def _digamma_profile(n, s, log_a, c):
    """Offset ``d = mean(s - h**c)`` and SSE of the digamma family at
    ``log a`` by each ``c``; the rest as in :func:`_power_profile`."""
    x = _digamma_h(np.exp(log_a) * n) ** np.asarray(c)[..., None]
    d = s.mean() - x.mean(axis=-1)
    sse = np.sum((x + d[..., None] - s) ** 2, axis=-1)
    return d, np.where(np.isfinite(sse), sse, np.inf)


def _solve(family, n, s, theta):
    """Parameters and SSE at the nonlinear parameters ``theta``."""
    if family == "digamma":
        d, sse = _digamma_profile(n, s, theta[0], theta[1])
        return np.array([np.exp(theta[0]), theta[1], d]), float(sse)
    a, d, sse = _power_profile(n, s, theta, family == "power_offset")
    params = (a[0], theta[0], d[0])[:len(PARAM_NAMES[family])]
    return np.array(params), float(sse[0])


def _scan_starts(n, s, family):
    """The scan's lowest finite local minima, lowest first; ties keep
    grid order, so a single start is the argmin."""
    if family == "digamma":
        sse = np.array([_digamma_profile(n, s, log_a, _DIGAMMA_C)[1]
                        for log_a in _DIGAMMA_LOG_A])
        grid = np.meshgrid(_DIGAMMA_LOG_A, _DIGAMMA_C, indexing="ij")
    else:
        sse = _power_profile(n, s, _C_GRID, family == "power_offset")[2]
        grid = [_C_GRID]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(sse, 1, constant_values=np.inf), (3,) * sse.ndim)
    local = sse <= windows.min(axis=tuple(range(sse.ndim, 2 * sse.ndim)))
    idx = np.flatnonzero(local & np.isfinite(sse))
    idx = idx[np.argsort(sse.ravel()[idx], kind="stable")][:_SEARCH[family][1]]
    return np.column_stack([g.ravel() for g in grid])[idx]


def _newton_step(n, s, family, theta):
    """Newton's step on the SSE profile and the fall it predicts, or None
    where the Hessian, from central differences of the gradient (by the
    envelope theorem, the SSE's in ``theta`` alone), is not definite."""
    def half_grad(theta):
        x = _solve(family, n, s, theta)[0]
        r = evaluate_form(family, x, n) - s
        return _jacobian(family, x, n)[:, _SEARCH[family][0]].T @ r

    hess = np.column_stack([half_grad(theta + e) - half_grad(theta - e)
                            for e in _FD_STEP * np.eye(len(theta))])
    hess = (hess + hess.T) / (4.0 * _FD_STEP)
    if not np.all(np.isfinite(hess)) or np.linalg.eigvalsh(hess).min() <= 0:
        return None
    grad = half_grad(theta)
    step = -np.linalg.solve(hess, grad)
    return step, float(-grad @ step)


def _polish(n, s, family, theta):
    """Damped Gauss-Newton from the nonlinear parameters ``theta``; the
    linear ones are re-solved at every trial point. A step is halved
    until the SSE falls by at least a quarter of the linear model's
    prediction (Armijo). With two nonlinear parameters the Gauss-Newton
    Hessian can miss most of the curvature across a narrow valley, and
    halved steps zig-zag, so a failed full step is retried along
    Newton's. The fit is converged only if the polish stops on its
    tolerance (see ``_GTOL``)."""
    x, sse = _solve(family, n, s, theta)
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
        step = step[_SEARCH[family][0]]
        newton = len(theta) > 1
        t = 1.0
        while t >= _MIN_STEP:
            theta_new = theta + t * step
            x_new, sse_new = _solve(family, n, s, theta_new)
            # a final step is below the SSE's rounding: take it
            # unless it leaves the finite range
            if (sse - sse_new >= 0.5 * t * gain
                    or (stopped and np.isfinite(sse_new))):
                theta, x, sse = theta_new, x_new, sse_new
                break
            retry = newton and _newton_step(n, s, family, theta)
            newton = False
            if retry:
                step, gain = retry
            else:
                t *= 0.5
        if stopped or t < _MIN_STEP:
            break
    converged = bool(stopped and np.all(np.isfinite(x)))
    return LsFit(FunctionalForm(family, tuple(float(v) for v in x)),
                 sse, converged)


def fit_series(n, s, family):
    """Least-squares fit of one functional family to a tracked series.
    Of the polished starts, the lowest converged fit is kept (the lowest
    fit if none converged)."""
    if family not in PARAM_NAMES:
        raise ValueError("unknown family %r" % (family,))
    n = np.asarray(n, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (np.all(np.isfinite(n)) and np.all(np.isfinite(s))):
        raise NonFiniteInput("series contains non-finite values")
    n_params = len(PARAM_NAMES[family])
    # by sort and diff: np.unique imports numpy.ma on first use, in every
    # forked pool worker
    distinct = int(np.count_nonzero(np.diff(np.sort(n)))) + (n.size > 0)
    if distinct < n_params:
        raise TooFewPoints("%d distinct points < %d parameters"
                           % (distinct, n_params))
    if np.all(s == 0.0):
        params = (0.0, 1.0) if n_params == 2 else (0.0, 1.0, 0.0)
        return LsFit(FunctionalForm(family, params), 0.0, True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if family == "inverse":
            x, sse = _solve("power_offset", n, s, np.array([-1.0]))
            return LsFit(FunctionalForm(family, (float(x[0]), float(x[2]))),
                         sse, True)
        fits = [_polish(n, s, family, theta)
                for theta in _scan_starts(n, s, family)]
    return min(fits, key=lambda fit: (not fit.converged, fit.residual_sse),
               default=LsFit(FunctionalForm(family, (np.nan,) * n_params),
                             np.inf, False))


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
