"""Gaussian-process extrapolation of tracked summaries.

A per-realization GP with power-law mean a * n**c and a composite
kernel: a warped linear (dot-product) part plus or times an RBF part,
with observation noise on the diagonal. Hyperparameters are estimated
by MAP under truncated-normal priors (projected quasi-Newton with a
fixed multi-start list), and the predictive mean/variance at a larger
node count is read off the usual conditional-normal formulas.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from .errors import NotConverged, SingularKernel, TooFewPoints

KERNEL_FAMILIES = ("linear_plus_rbf", "linear_only", "linear_times_rbf")
WARPS = ("sqrt", "identity")

ALPHA_MIN = 0.05
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class KernelSpec:
    family: str = "linear_plus_rbf"
    warp: str = "identity"

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError("unknown kernel family %r" % (self.family,))
        if self.warp not in WARPS:
            raise ValueError("unknown warp %r" % (self.warp,))


@dataclass(frozen=True)
class GpHyper:
    alpha: float
    gamma: float
    rho: float
    sigma2: float
    beta: float = 0.0  # RBF scale; only used by linear_plus_rbf


@dataclass
class GpFit:
    mean_params: tuple  # (a, c)
    hyper: GpHyper
    spec: KernelSpec
    log_posterior: float
    grid: np.ndarray
    values: np.ndarray
    _cho: object = None
    _weights: Optional[np.ndarray] = None  # K^-1 (s - mu)


@dataclass(frozen=True)
class GpPredictive:
    mean: float
    variance: float


CorrelationResult = namedtuple("CorrelationResult", ["value", "degenerate"])


def _warp(x, warp):
    return np.sqrt(x) if warp == "sqrt" else np.asarray(x, dtype=float)


def gram_matrix(spec, hyper, x, y=None, noise=True):
    """Covariance matrix between node-count vectors x and y."""
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    wx = _warp(x, spec.warp)[:, None]
    wy = _warp(y, spec.warp)[None, :]
    lin = hyper.alpha * wx * wy + hyper.gamma
    if spec.family == "linear_only":
        k = lin
    else:
        rbf = np.exp(-((x[:, None] - y[None, :]) ** 2)
                     / (2.0 * hyper.rho ** 2))
        if spec.family == "linear_plus_rbf":
            k = lin + hyper.beta * rbf
        else:
            k = lin * rbf
    if noise and hyper.sigma2 != 0.0:
        k = k + hyper.sigma2 * (x[:, None] == y[None, :])
    return k


def kernel_value(spec, hyper, n1, n2):
    """Covariance between the summary at n1 and at n2 nodes."""
    if n1 <= 0 or n2 <= 0:
        raise ValueError("node counts must be positive")
    return float(gram_matrix(spec, hyper, [float(n1)], [float(n2)])[0, 0])


def _mean(mean_params, n):
    a, c = mean_params
    return a * np.asarray(n, dtype=float) ** c


def _chol_with_jitter(k):
    scale = np.trace(k) / k.shape[0]
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0
    for jit in _JITTERS:
        try:
            return cho_factor(k + jit * scale * np.eye(k.shape[0]),
                              lower=True)
        except np.linalg.LinAlgError:
            continue
    raise SingularKernel("Cholesky failed after jitter escalation")


def _pack(spec):
    """Names of the free hyperparameters for a kernel family."""
    if spec.family == "linear_plus_rbf":
        return ("alpha", "gamma", "beta", "rho", "sigma2")
    if spec.family == "linear_only":
        return ("alpha", "gamma", "sigma2")
    return ("alpha", "gamma", "rho", "sigma2")


def _hyper_from_vector(spec, vec):
    names = _pack(spec)
    kw = dict(zip(names, (float(v) for v in vec)))
    kw.setdefault("beta", 0.0)
    kw.setdefault("rho", 1.0)
    return GpHyper(**kw)


def _kernel_param_grads(spec, hyper, grid):
    """d(Gram)/d(theta) for each free kernel parameter, in _pack order."""
    x = np.asarray(grid, dtype=float)
    w = _warp(x, spec.warp)
    outer = w[:, None] * w[None, :]
    ones = np.ones((len(x), len(x)))
    eye = np.eye(len(x))
    grads = {"sigma2": eye}
    if spec.family == "linear_only":
        grads["alpha"] = outer
        grads["gamma"] = ones
    else:
        d2 = (x[:, None] - x[None, :]) ** 2
        rbf = np.exp(-d2 / (2.0 * hyper.rho ** 2))
        drbf_drho = rbf * d2 / hyper.rho ** 3
        if spec.family == "linear_plus_rbf":
            grads["alpha"] = outer
            grads["gamma"] = ones
            grads["beta"] = rbf
            grads["rho"] = hyper.beta * drbf_drho
        else:  # linear_times_rbf
            lin = hyper.alpha * outer + hyper.gamma
            grads["alpha"] = outer * rbf
            grads["gamma"] = rbf
            grads["rho"] = lin * drbf_drho
    return [grads[name] for name in _pack(spec)]


def _neg_log_posterior_grad(theta, spec, grid, s, prior_centers, prior_sds):
    """Objective and its analytic gradient for the MAP optimizer, from
    one Gram matrix and one Cholesky factor (GPML Alg. 2.1, eq. 5.9).

    A value >= 1e29 marks a failed evaluation and comes with a zero
    gradient, which keeps the optimizer from following it."""
    mean_params = theta[:2]
    hyper = _hyper_from_vector(spec, theta[2:])
    zero = np.zeros_like(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        r = s - _mean(mean_params, grid)
    if not np.all(np.isfinite(r)):
        return 1e30, zero
    try:
        cho = _chol_with_jitter(gram_matrix(spec, hyper, grid))
    except SingularKernel:
        return 1e30, zero
    alpha_vec = cho_solve(cho, r)
    logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
    nll = 0.5 * float(r @ alpha_vec) + 0.5 * logdet \
        + 0.5 * len(grid) * math.log(2.0 * math.pi)
    # mean-parameter priors: normal centered at the LS estimates
    for v, c0, sd in zip(mean_params, prior_centers, prior_sds):
        nll += 0.5 * ((v - c0) / sd) ** 2
    # kernel-parameter priors: positively truncated standard normals
    for v in theta[2:]:
        nll += 0.5 * v * v
    nll = nll if np.isfinite(nll) else 1e30
    if nll >= 1e29:
        return nll, zero

    a, c = mean_params
    k_inv = cho_solve(cho, np.eye(len(grid)))
    grad = np.empty_like(theta)
    nc = np.asarray(grid, float) ** c  # d(mean)/da
    dmu_dc = a * nc * np.log(grid)
    grad[0] = -float(nc @ alpha_vec) \
        + (a - prior_centers[0]) / prior_sds[0] ** 2
    grad[1] = -float(dmu_dc @ alpha_vec) \
        + (c - prior_centers[1]) / prior_sds[1] ** 2
    for i, dk in enumerate(_kernel_param_grads(spec, hyper, grid)):
        grad[2 + i] = 0.5 * float(np.sum(k_inv * dk)) \
            - 0.5 * float(alpha_vec @ dk @ alpha_vec) + theta[2 + i]
    return nll, (grad if np.all(np.isfinite(grad)) else zero)


def _neg_log_posterior(theta, spec, grid, s, prior_centers, prior_sds):
    """Value of the MAP objective alone."""
    return _neg_log_posterior_grad(theta, spec, grid, s, prior_centers,
                                   prior_sds)[0]


def fit_map(grid, s, spec, ls_init, min_spacing=None):
    """MAP estimate of mean and kernel parameters for one series."""
    grid = np.asarray(grid, dtype=float)
    s = np.asarray(s, dtype=float)
    if len(grid) < 5:
        raise TooFewPoints("GP fitting needs at least 5 checkpoints")
    if not ls_init.converged:
        raise NotConverged("least-squares initialization did not converge")
    if min_spacing is None:
        min_spacing = float(np.min(np.diff(np.sort(grid))))

    a0, c0 = ls_init.form.params[:2]
    prior_centers = (a0, c0)
    prior_sds = (max(abs(a0), 1.0), max(abs(c0), 1.0))

    names = _pack(spec)
    lower = {"alpha": ALPHA_MIN, "gamma": 0.0, "beta": 0.0,
             "rho": min_spacing, "sigma2": 0.0}
    bounds = [(None, None), (None, None)] + [(lower[n], None) for n in names]

    # residual scale guides the noise / RBF starting values
    resid = s - _mean((a0, c0), grid)
    rvar = max(float(np.var(resid)), 1e-12)
    start_sets = []
    for frac in (1.0, 0.1):
        kern0 = {"alpha": max(ALPHA_MIN, 0.5), "gamma": 0.1,
                 "beta": frac * rvar, "rho": max(min_spacing, 5 * min_spacing),
                 "sigma2": frac * rvar}
        start_sets.append([a0, c0] + [kern0[n] for n in names])
    start_sets.append([a0, c0] + [max(lower[n], 0.5) for n in names])

    args = (spec, grid, s, prior_centers, prior_sds)
    best = None
    for x0 in start_sets:
        res = minimize(_neg_log_posterior_grad, np.asarray(x0, float),
                       args=args, jac=True,
                       method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 500, "ftol": 1e-12,
                                "gtol": 1e-8})
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not np.isfinite(best.fun) or best.fun >= 1e29:
        raise NotConverged("no MAP start converged")

    fit = GpFit(
        mean_params=(float(best.x[0]), float(best.x[1])),
        hyper=_hyper_from_vector(spec, best.x[2:]),
        spec=spec,
        log_posterior=-float(best.fun),
        grid=grid,
        values=s,
    )
    _ensure_solve(fit)
    return fit


def _ensure_solve(fit):
    if fit._cho is None or fit._weights is None:
        k = gram_matrix(fit.spec, fit.hyper, fit.grid)
        fit._cho = _chol_with_jitter(k)
        r = fit.values - _mean(fit.mean_params, fit.grid)
        fit._weights = cho_solve(fit._cho, r)


def predict(fit, n_o):
    """Posterior predictive mean and variance at ``n_o`` nodes.

    The variance includes the noise term: the prediction targets the
    realized statistic, not the latent mean.
    """
    if n_o <= 0:
        raise ValueError("n_o must be positive")
    _ensure_solve(fit)
    x = np.array([float(n_o)])
    k_star = gram_matrix(fit.spec, fit.hyper, x, fit.grid, noise=False)[0]
    mean = float(_mean(fit.mean_params, x)[0] + k_star @ fit._weights)
    k_nn = kernel_value(fit.spec, fit.hyper, n_o, n_o)  # includes sigma2
    var = k_nn - float(k_star @ cho_solve(fit._cho, k_star))
    if var <= 0.0:
        var = 1e-12 * max(abs(k_nn), 1.0)
    return GpPredictive(mean=mean, variance=var)


def summary_correlation(fits, columns):
    """Pearson correlation of standardized GP residuals of two summaries
    tracked on the same checkpoint grid of one realization."""
    if len(fits) != 2 or len(columns) != 2:
        raise ValueError("exactly two summaries are required")
    resids = []
    for fit, s in zip(fits, columns):
        s = np.asarray(s, dtype=float)
        if len(s) != len(fit.grid):
            raise ValueError("series length does not match the fit grid")
        sd = np.sqrt(np.array([kernel_value(fit.spec, fit.hyper, n, n)
                               for n in fit.grid]))
        sd[sd == 0.0] = 1.0
        resids.append((s - _mean(fit.mean_params, fit.grid)) / sd)
    r0, r1 = resids
    if np.std(r0) == 0.0 or np.std(r1) == 0.0:
        return CorrelationResult(0.0, True)
    corr = float(np.corrcoef(r0, r1)[0, 1])
    corr = min(1.0, max(-1.0, corr))
    return CorrelationResult(corr, False)


DEFAULT_WARP_BY_KIND = {
    "avg_degree": "sqrt",
    "triangle_count": "identity",
    "sample_triangle_count": "identity",
    "in_degree_mean": "sqrt",
    "in_degree_variance": "identity",
}


class GpExtrapolator:
    """sklearn-style estimator: fit a GP to (node counts, values) and
    predict the summary (optionally with its sd) at new node counts."""

    def __init__(self, kernel="linear_plus_rbf", warp="identity"):
        self.kernel = kernel
        self.warp = warp

    def get_params(self, deep=True):
        return {"kernel": self.kernel, "warp": self.warp}

    def set_params(self, **params):
        for key, value in params.items():
            if not hasattr(self, key):
                raise ValueError("invalid parameter %r" % (key,))
            setattr(self, key, value)
        return self

    def fit(self, X, y):
        from .curvefit import fit_series

        n = np.asarray(X, dtype=float).reshape(-1)
        ls = fit_series(n, y, "power")
        self.fit_ = fit_map(n, y, KernelSpec(self.kernel, self.warp), ls)
        self.log_posterior_ = self.fit_.log_posterior
        return self

    def predict(self, X, return_std=False):
        if not hasattr(self, "fit_"):
            raise NotConverged("estimator is not fitted")
        n = np.asarray(X, dtype=float).reshape(-1)
        preds = [predict(self.fit_, v) for v in n]
        means = np.array([p.mean for p in preds])
        if return_std:
            return means, np.array([math.sqrt(p.variance) for p in preds])
        return means
