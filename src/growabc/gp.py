"""Gaussian-process extrapolation of tracked summaries.

A per-realization GP with power-law mean a * n**c and a composite
kernel: a warped linear (dot-product) part plus or times an RBF part,
with observation noise on the diagonal. Parameters are estimated by
MAP under normal priors on (a, c) and truncated-normal priors on the
kernel parameters. The mean is linear in a, so for given c and kernel
parameters the MAP a is closed form (GPML sec. 2.7); the search
(projected quasi-Newton from a fixed list of starts) runs over c and
the kernel parameters of that profiled objective. The predictive
mean/variance at a larger node count is read off the usual
conditional-normal formulas. The hyperparameter-free parts of the Gram
matrix (warped node counts, squared distances, noise positions) are
built once per fit_map grid. The SciPy routines (``scipy.linalg`` and
``scipy.optimize``) are imported on the first fit or prediction.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import NotConverged, SingularKernel, TooFewPoints

KERNEL_FAMILIES = ("linear_plus_rbf", "linear_only", "linear_times_rbf")
WARPS = ("sqrt", "identity")

ALPHA_MIN = 0.05
MIN_CHECKPOINTS = 5  # fewest grid points fit_map accepts
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


@functools.cache
def load_scipy():
    """The LAPACK/BLAS routines and the optimizer this module calls,
    imported on first use and bound once per process."""
    from scipy.linalg import cho_solve
    from scipy.linalg.blas import dger
    from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
    from scipy.optimize import minimize

    return SimpleNamespace(cho_solve=cho_solve, dger=dger, dpotrf=dpotrf,
                           dpotri=dpotri, dpotrs=dpotrs, minimize=minimize)


def _warp(x, warp):
    return np.sqrt(x) if warp == "sqrt" else np.asarray(x, dtype=float)


def _grid_terms(spec, x, y=None):
    """Warped x and y, squared distances, the index of the noise
    entries, and the distinct squared distances with the index that
    maps them back onto the matrix: the parts of the Gram that no
    hyperparameter changes."""
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    d2 = (x[:, None] - y[None, :]) ** 2
    d2_unique, d2_index = np.unique(d2, return_inverse=True)
    return (_warp(x, spec.warp), _warp(y, spec.warp), d2,
            np.nonzero(x[:, None] == y[None, :]),
            (d2_unique, d2_index.reshape(d2.shape)))


def _assemble(spec, kp, terms, noise=True):
    """Gram matrix from _grid_terms and the kernel parameters ``kp`` (a
    mapping by name), with its RBF part and, for linear_times_rbf, its
    linear part. The RBF exponential is taken once per distinct
    distance: a grid's d2 repeats each spacing many times, and exp is
    ~16x slower where it underflows, as a third of a 94-point block does
    when rho is near the grid spacing."""
    wx, wy, _, same, (d2_unique, d2_index) = terms
    k = np.multiply.outer(kp["alpha"] * wx, wy)
    k += kp["gamma"]
    lin = rbf = None
    if spec.family != "linear_only":
        rbf = np.exp(d2_unique * (-0.5 / kp["rho"] ** 2)).take(d2_index)
        if spec.family == "linear_plus_rbf":
            k += kp["beta"] * rbf
        else:
            lin = k.copy()
            k *= rbf
    if noise and kp["sigma2"] != 0.0:
        k[same] += kp["sigma2"]
    return k, lin, rbf


def gram_matrix(spec, hyper, x, y=None, noise=True):
    """Covariance matrix between node-count vectors x and y."""
    return _assemble(spec, vars(hyper), _grid_terms(spec, x, y), noise)[0]


def kernel_value(spec, hyper, n1, n2):
    """Covariance between the summary at n1 and at n2 nodes."""
    if n1 <= 0 or n2 <= 0:
        raise ValueError("node counts must be positive")
    return float(gram_matrix(spec, hyper, [float(n1)], [float(n2)])[0, 0])


def _mean(mean_params, n):
    a, c = mean_params
    return a * np.asarray(n, dtype=float) ** c


def _chol_with_jitter(k):
    if not np.isfinite(k).all():
        raise SingularKernel("Gram matrix is not finite")
    scale = np.trace(k) / k.shape[0]
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0
    dpotrf = load_scipy().dpotrf
    for jit in _JITTERS:
        c, info = dpotrf(k + jit * scale * np.eye(k.shape[0]) if jit else k,
                         lower=1, clean=1)
        if info == 0:
            return c, True
    raise SingularKernel("Cholesky failed after jitter escalation")


def _amplitude(chol, s, h, center, sd):
    """MAP amplitude a of the mean a*h under its normal prior, given the
    Cholesky factor of K, and K^-1 (s - a*h): one solve with the two
    right-hand sides s and h (GPML sec. 2.7, explicit basis functions)."""
    sol, _ = load_scipy().dpotrs(chol, np.array([s, h]).T, lower=1)
    ks, kh = sol[:, 0], sol[:, 1]
    a = (h @ ks + center / sd ** 2) / (h @ kh + 1.0 / sd ** 2)
    return a, ks - a * kh


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


def _neg_log_posterior_grad(theta, spec, grid, s, prior_centers, prior_sds,
                            terms=None):
    """MAP objective over theta = (c, kernel parameters) with the mean
    amplitude a profiled out, and its analytic gradient, from one Gram
    matrix and one Cholesky factor (GPML Alg. 2.1, eq. 5.9). By the
    envelope theorem the gradient is that of the full objective at the
    closed-form a. ``terms`` are the grid's _grid_terms, built here if
    not given.

    A value >= 1e29 marks a failed evaluation and comes with a zero
    gradient, which keeps the optimizer from following it."""
    c = theta[0]
    kp = dict(zip(_pack(spec), theta[1:]))
    (a0, c0), (sd_a, sd_c) = prior_centers, prior_sds
    zero = np.zeros_like(theta)
    if terms is None:
        terms = _grid_terms(spec, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        h = grid ** c
        k, lin, rbf = _assemble(spec, kp, terms)
        try:
            chol, _ = _chol_with_jitter(k)
        except SingularKernel:
            return 1e30, zero
        a, alpha_vec = _amplitude(chol, s, h, a0, sd_a)
        # mean-parameter priors: normal centred at the LS estimates;
        # kernel-parameter priors: positively truncated standard normals
        nll = 0.5 * float((s - a * h) @ alpha_vec) \
            + float(np.sum(np.log(np.diagonal(chol)))) \
            + 0.5 * len(grid) * math.log(2.0 * math.pi) \
            + 0.5 * ((a - a0) / sd_a) ** 2 + 0.5 * ((c - c0) / sd_c) ** 2 \
            + 0.5 * float(theta[1:] @ theta[1:])
        if not np.isfinite(nll):
            return 1e30, zero
        if nll >= 1e29:
            return nll, zero

        grad = np.empty_like(theta)
        grad[0] = -a * float((h * np.log(grid)) @ alpha_vec) \
            + (c - c0) / sd_c ** 2
        # Kernel gradients are 0.5 * tr(W dK/dtheta), W = K^-1 - alpha
        # alpha^T. dpotri leaves K^-1 in the lower half (the upper half is
        # zero, dpotrf clean=1). With its diagonal halved and a rank-one
        # update by -alpha alpha^T / 2 it becomes a matrix m whose sum
        # against any symmetric dK is 0.5 * tr(W dK); m is used through
        # its C-ordered transpose.
        lapack = load_scipy()
        m, _ = lapack.dpotri(chol, lower=1, overwrite_c=1)
        m.flat[::len(grid) + 1] *= 0.5
        m = lapack.dger(-0.5, alpha_vec, alpha_vec, a=m, overwrite_a=1).T
        w, _, d2, same, _ = terms
        m_rbf = None if rbf is None else m * rbf
        m_lin = m if lin is None else m_rbf
        traces = {"sigma2": m[same].sum(), "alpha": w @ m_lin @ w,
                  "gamma": m_lin.sum()}
        if spec.family == "linear_plus_rbf":
            traces["beta"] = m_rbf.sum()
        if rbf is not None:
            # d(rbf)/d(rho) = rbf * d2 / rho^3, times beta or lin
            rho_sum = kp["beta"] * np.vdot(m_rbf, d2) if lin is None \
                else np.vdot(m_rbf * lin, d2)
            traces["rho"] = rho_sum / kp["rho"] ** 3
        for i, name in enumerate(_pack(spec), 1):
            grad[i] = float(traces[name]) + theta[i]
    return nll, (grad if np.all(np.isfinite(grad)) else zero)


def _neg_log_posterior(theta, *args):
    """Value of the MAP objective alone."""
    return _neg_log_posterior_grad(theta, *args)[0]


def fit_map(grid, s, spec, ls_init):
    """MAP estimate of mean and kernel parameters for one series: the
    search runs over the exponent c and the kernel parameters, with the
    amplitude a in closed form."""
    grid = np.asarray(grid, dtype=float)
    s = np.asarray(s, dtype=float)
    if len(grid) < MIN_CHECKPOINTS:
        raise TooFewPoints("GP fitting needs at least %d checkpoints"
                           % MIN_CHECKPOINTS)
    if not ls_init.converged:
        raise NotConverged("least-squares initialization did not converge")
    min_spacing = float(np.min(np.diff(np.sort(grid))))

    a0, c0 = ls_init.form.params[:2]
    prior_centers = (a0, c0)
    prior_sds = (max(abs(a0), 1.0), max(abs(c0), 1.0))

    names = _pack(spec)
    lower = {"alpha": ALPHA_MIN, "gamma": 0.0, "beta": 0.0,
             "rho": min_spacing, "sigma2": 0.0}
    bounds = [(None, None)] + [(lower[n], None) for n in names]

    # residual scale guides the noise / RBF starting values; its floor
    # follows the series' scale, so that a near-noiseless series starts
    # where the Gram factors without jitter
    resid = s - _mean((a0, c0), grid)
    rvar = max(float(np.var(resid)), 1e-12 * max(float(np.var(s)), 1.0))
    kern_starts = [{"alpha": max(ALPHA_MIN, 0.5), "gamma": 0.1,
                    "beta": frac * rvar,
                    "rho": max(min_spacing, 5 * min_spacing),
                    "sigma2": frac * rvar} for frac in (1.0, 0.1)]
    kern_starts.append({n: max(v, 0.5) for n, v in lower.items()})
    kern_starts.append(dict(lower, beta=0.1 * rvar, sigma2=0.1 * rvar))

    args = (spec, grid, s, prior_centers, prior_sds, _grid_terms(spec, grid))
    best = None
    minimize = load_scipy().minimize
    for kern0 in kern_starts:
        res = minimize(_neg_log_posterior_grad,
                       np.array([c0] + [kern0[n] for n in names], float),
                       args=args, jac=True,
                       method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 500, "ftol": 1e-12,
                                "gtol": 1e-8})
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not np.isfinite(best.fun) or best.fun >= 1e29:
        raise NotConverged("no MAP start converged")

    c = float(best.x[0])
    hyper = _hyper_from_vector(spec, best.x[1:])
    cho = _chol_with_jitter(gram_matrix(spec, hyper, grid))
    a, weights = _amplitude(cho[0], s, grid ** c, a0, prior_sds[0])
    return GpFit(mean_params=(float(a), c), hyper=hyper, spec=spec,
                 log_posterior=-float(best.fun), grid=grid, values=s,
                 _cho=cho, _weights=weights)


def _ensure_solve(fit):
    if fit._cho is None or fit._weights is None:
        k = gram_matrix(fit.spec, fit.hyper, fit.grid)
        fit._cho = _chol_with_jitter(k)
        r = fit.values - _mean(fit.mean_params, fit.grid)
        fit._weights = load_scipy().cho_solve(fit._cho, r)


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
    var = k_nn - float(k_star @ load_scipy().cho_solve(fit._cho, k_star))
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
        sd = np.sqrt(np.diag(gram_matrix(fit.spec, fit.hyper, fit.grid)))
        sd[sd == 0.0] = 1.0
        resids.append((s - _mean(fit.mean_params, fit.grid)) / sd)
    r0, r1 = resids
    if np.std(r0) == 0.0 or np.std(r1) == 0.0:
        return CorrelationResult(0.0, True)
    corr = float(np.corrcoef(r0, r1)[0, 1])
    corr = min(1.0, max(-1.0, corr))
    return CorrelationResult(corr, False)


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
