"""Maximum-likelihood fitting of the five models.

Every fit is a one-dimensional search over the log of the model's rate.
For a fixed rate each two-parameter model has a unique best shape, so the
shape is profiled out: PGDUSE in closed form, theta = -n / sum(log G1),
and GDUSE by one bracketed root of its strictly decreasing alpha score.
DUSE and KME have no shape.  The search brackets the maximum by stepping
the rate by factors of 2 from 1/mean until the profile slope changes sign,
runs a bounded Brent search on the profile log-likelihood, and polishes
the result with ``brentq`` on the profile slope, which by the envelope
theorem is the rate component of the analytic score at the profiled shape.
A fit is certified by the score norm and a negative profile curvature.
The exponential model uses its closed-form estimate n / sum(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .distributions import (
    _MODELS,
    Dataset,
    ModelKind,
    ParamVector,
    ScalarParam,
    _coerce,
    _log_f,
    _pg_log_ratio,
    log_pdf,
    validate_params,
)
from .errors import EmptyDataset

__all__ = [
    "FitOptions",
    "FitResult",
    "log_likelihood",
    "score_pgduse",
    "fit_mle",
    "fit_ed_closed_form",
]

# the bracket steps the rate by this factor, at most this many times
_RATE_STEP = math.log(2.0)
_MAX_RATE_STEPS = 64
# Brent only has to land near the maximum: below about sqrt(eps) the
# profile is too flat to order points, and the slope polish takes over
_SEARCH_XATOL = 1e-5
# log-rate offset of the central difference that signs the curvature
_CURVATURE_STEP = 1e-4
# objective value at log-rates where the profile does not exist
_INFEASIBLE = 1e300


@dataclass(frozen=True)
class FitOptions:
    """Controls for the profile-likelihood search.

    ``max_iters`` bounds the Brent iterations and those of the slope
    polish; a fit that runs out of either is reported as not converged.
    ``step_tol`` is the log-rate tolerance of the polish.
    """

    max_iters: int = 5000
    grad_tol: float = 1e-6
    step_tol: float = 1e-10

    def __post_init__(self):
        if self.grad_tol <= 0.0 or self.step_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit."""

    kind: ModelKind
    params: ParamVector
    log_likelihood: float
    converged: bool
    iterations: int
    grad_norm: float

    def param_dict(self) -> dict[str, float]:
        return dict(zip(self.kind.param_names, self.params.as_tuple()))


def log_likelihood(kind: ModelKind, p, data: Dataset) -> float:
    """Joint log-likelihood: the sum of per-observation log densities."""
    if data.n == 0:
        raise EmptyDataset("log-likelihood of an empty sample")
    return float(np.sum(log_pdf(kind, p, data.observations)))


def score_pgduse(p, data: Dataset) -> np.ndarray:
    """Analytic gradient (d/d lambda, d/d theta) of the PGDUSE log-likelihood.

    Matches central finite differences of :func:`log_likelihood` to
    roundoff; its lambda component is the slope of the PGDUSE profile.
    """
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    x = data.observations
    n = data.n
    d = np.exp(-lam * x)
    # x * exp(1 - lam*x - exp(-lam*x)) / (exp(1 - exp(-lam*x)) - 1); both
    # factors are evaluated through expm1 so the x -> 0 ratio x/t survives
    ratio = x * np.exp(1.0 - lam * x - d) / np.expm1(-np.expm1(-lam * x))
    d_lam = n / lam - x.sum() + np.sum(x * d) + (theta - 1.0) * np.sum(ratio)
    d_theta = n / theta + np.sum(_pg_log_ratio(lam, x))
    return np.array([d_lam, d_theta])


def _score_gduse(params: tuple[float, ...], data: Dataset) -> np.ndarray:
    """Analytic gradient (d/d alpha, d/d beta) of the GDUSE log-likelihood."""
    alpha, beta = params
    x = data.observations
    log_f = _log_f(beta, x)
    fa = np.exp(alpha * log_f)
    d_alpha = data.n / alpha + np.sum(log_f * (1.0 + fa))
    # d log F / d beta = x / expm1(beta*x), which is 0 once expm1 overflows
    with np.errstate(over="ignore"):
        dlogf = x / np.expm1(beta * x)
    d_beta = data.n / beta - data.total + np.sum((alpha * fa + alpha - 1.0) * dlogf)
    return np.array([d_alpha, d_beta])


def _score_kme(params: tuple[float, ...], data: Dataset) -> np.ndarray:
    """Analytic derivative of the KME log-likelihood in its rate theta."""
    (theta,) = params
    x = data.observations
    return np.array([data.n / theta - data.total - np.sum(x * np.exp(-theta * x))])


_SCORES = {
    ModelKind.PGDUSE: score_pgduse,
    ModelKind.GDUSE: _score_gduse,
    ModelKind.DUSE: lambda params, data: score_pgduse((params[0], 1.0), data)[:1],
    ModelKind.KME: _score_kme,
    ModelKind.ED: lambda params, data: np.array([data.n / params[0] - data.total]),
}


def _score(kind: ModelKind, params: tuple[float, ...], data: Dataset) -> np.ndarray:
    """Analytic gradient of the log-likelihood of ``kind`` at ``params``."""
    return _SCORES[kind](params, data)


def _gduse_alpha_hat(beta: float, data: Dataset) -> float | None:
    """The alpha maximizing the GDUSE likelihood at ``beta``, or None.

    With L = log F(x; beta) < 0, the alpha score
    h(alpha) = n/alpha + sum(L * (1 + exp(alpha*L))) is strictly
    decreasing (L**2 exp(alpha*L) <= 4 / (e*alpha)**2 < 1/alpha**2), and
    n/alpha + 2 sum(L) <= h(alpha) <= n/alpha + sum(L) places its root in
    [n / (-2 sum L), n / (-sum L)].  There is none once sum(L) rounds to 0.
    """
    log_f = _log_f(beta, data.observations)
    total = float(np.sum(log_f))
    # that interval widened by 2 at each end, so rounding cannot flip a sign
    hi = 2.0 * data.n / -total if total < 0.0 else math.inf
    if not 0.0 < hi < math.inf:
        return None

    def alpha_score(alpha: float) -> float:
        return data.n / alpha + total + float(np.dot(log_f, np.exp(alpha * log_f)))

    return brentq(alpha_score, hi / 8.0, hi)


def _profile(kind: ModelKind, rate: float, data: Dataset) -> tuple[float, ...] | None:
    """Parameters at ``rate`` with the shape at its maximizer.

    Returns None where the profile does not exist, which is once
    sum(log G1) (PGDUSE) or sum(log F) (GDUSE) rounds to 0: the best shape
    would be infinite.
    """
    if kind is ModelKind.PGDUSE:
        total = float(np.sum(_pg_log_ratio(rate, data.observations)))
        theta = -data.n / total if total < 0.0 else math.inf
        return (rate, theta) if 0.0 < theta < math.inf else None
    if kind is ModelKind.GDUSE:
        alpha = _gduse_alpha_hat(rate, data)
        return None if alpha is None else (alpha, rate)
    return (rate,)


def _bracket(slope, u0: float) -> tuple[float, float, bool]:
    """Log-rates a < b around the profile maximum, stepping out from ``u0``.

    The third value is True when slope(a) > 0 > slope(b).  Otherwise the
    walk met a log-rate without a profile, or ran out of steps, and (a, b)
    is its last step taken (the step back from ``u0`` if it took none).
    """
    rising = slope(u0) > 0.0
    step = _RATE_STEP if rising else -_RATE_STEP
    u = u0
    for _ in range(_MAX_RATE_STEPS):
        s = slope(u + step)
        if not math.isfinite(s):
            break
        u += step
        if (s > 0.0) != rising:
            return min(u - step, u), max(u - step, u), True
    return min(u - step, u), max(u - step, u), False


def fit_ed_closed_form(data: Dataset) -> ScalarParam:
    """Exact exponential MLE n / sum(x)."""
    return ScalarParam(data.n / data.total)


def fit_mle(kind: ModelKind, data: Dataset, opts: FitOptions = FitOptions()) -> FitResult:
    """Maximize the log-likelihood of ``kind`` on ``data``.

    The search runs over u = log(rate) of the profile log-likelihood, so
    the parameters stay positive; the result is deterministic.
    ``iterations`` counts the Brent and the polish iterations.
    ``converged`` requires a bracketed maximum, a search and polish that
    finished within ``opts.max_iters``, a score norm within
    ``grad_tol * (1 + |logL|)`` and a negative profile curvature.
    """
    if data.n == 0:
        raise EmptyDataset("cannot fit an empty sample")

    if kind is ModelKind.ED:
        params = fit_ed_closed_form(data)
        value = log_likelihood(kind, params, data)
        return FitResult(
            kind=kind,
            params=params,
            log_likelihood=value,
            converged=True,
            iterations=0,
            grad_norm=float(np.linalg.norm(_score(kind, params.as_tuple(), data))),
        )

    rate_index = _MODELS[kind].rate_index

    def slope(u: float) -> float:
        """Profile slope in the rate at log-rate u: the score's rate component."""
        params = _profile(kind, math.exp(u), data)
        return math.nan if params is None else float(_score(kind, params, data)[rate_index])

    def objective(u: float) -> float:
        params = _profile(kind, math.exp(u), data)
        value = math.nan if params is None else log_likelihood(kind, params, data)
        return -value if math.isfinite(value) else _INFEASIBLE

    a, b, bracketed = _bracket(slope, math.log(1.0 / data.mean))
    search = minimize_scalar(
        objective,
        bounds=(a, b),
        method="bounded",
        options=dict(xatol=_SEARCH_XATOL, maxiter=opts.max_iters),
    )
    u = float(search.x)
    iterations = int(search.nit)
    polished = True
    s = slope(u)
    if bracketed and math.isfinite(s) and s != 0.0:
        lo, hi = (u, b) if s > 0.0 else (a, u)
        u, info = brentq(
            slope,
            lo,
            hi,
            xtol=opts.step_tol,
            maxiter=opts.max_iters,
            full_output=True,
            disp=False,
        )
        polished = info.converged
        iterations += info.iterations

    params_tuple = _profile(kind, math.exp(u), data)
    params = validate_params(kind, params_tuple)
    value = log_likelihood(kind, params, data)
    grad_norm = float(np.linalg.norm(_score(kind, params_tuple, data)))
    h = _CURVATURE_STEP
    curvature = (slope(u + h) - slope(u - h)) / (2.0 * h)
    converged = (
        bracketed
        and bool(search.success)
        and polished
        and grad_norm <= opts.grad_tol * (1.0 + abs(value))
        and curvature < 0.0
    )
    return FitResult(
        kind=kind,
        params=params,
        log_likelihood=value,
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
    )
