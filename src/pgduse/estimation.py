"""Maximum-likelihood fitting of the five models.

Every fit is a one-dimensional root-find over the log of the model's rate.
For a fixed rate each two-parameter model has a unique best shape, so the
shape is profiled out: PGDUSE in closed form, theta = -n / sum(log G1),
and GDUSE by one bracketed root of its strictly decreasing alpha score.
DUSE and KME have no shape.  By the envelope theorem the slope of the
profile log-likelihood is the rate component of the analytic score at the
profiled shape.  The fit steps the rate by factors of 2 from n / sum(x)
until that slope changes sign, and the maximum is then the one root of the
slope in the bracket, found by ``brentq``.  The exponential model takes its
closed-form estimate n / sum(x) and skips both steps.  Each model's
profile (``_PROFILES``, the one per-model table here) gives the shape and
the whole score in one pass.  A memo that lives for one fit evaluates no
log-rate twice, and every fit, ED's closed form included, takes its
parameters and its certificate from the memo entry at its last log-rate.

Every fit is certified the same way: the score per log-parameter,
p * grad(logL), has norm at most 1e-6 * n, and the profile curvature in
the log-rate is negative.  Both are unchanged when the data are
rescaled.  The tolerances are fixed and the fit takes no options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _MODELS,
    Dataset,
    ModelKind,
    ParamVector,
    ScalarParam,
    _coerce,
    _log_f,
    _not_a_kind,
    _pg_log_ratio,
    _pg_parts,
    log_pdf,
    validate_params,
)
from .errors import DomainError, EmptyDataset

__all__ = [
    "FitResult",
    "log_likelihood",
    "score_pgduse",
    "fit_mle",
    "fit_ed_closed_form",
]

# the bracket steps the rate by this factor, at most this many times
_RATE_STEP = math.log(2.0)
_MAX_RATE_STEPS = 64
# log of the largest finite rate
_MAX_LOG_RATE = math.log(np.finfo(float).max)
# log-rate offset of the central difference that signs the curvature
_CURVATURE_STEP = 1e-4
# a fit is certified when the score per log-parameter has norm <= this * n
_GRAD_TOL = 1e-6
# log-rate tolerance of the root-find
_STEP_TOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit."""

    kind: ModelKind
    params: ParamVector
    log_likelihood: float
    converged: bool
    iterations: int
    grad_norm: float
    # distinct log-rates at which the fit evaluated its profile slope
    slope_evaluations: int

    def param_dict(self) -> dict[str, float]:
        return dict(zip(self.kind.param_names, self.params.as_tuple()))


def log_likelihood(kind: ModelKind, p, data: Dataset) -> float:
    """Joint log-likelihood: the sum of per-observation log densities, -inf past the doubles."""
    if data.n == 0:
        raise EmptyDataset("log-likelihood of an empty sample")
    with np.errstate(over="ignore"):
        return float(np.sum(log_pdf(kind, p, data.observations)))


def _pg_d_lam(lam: float, theta: float, data: Dataset, parts) -> float:
    """d logL / d lambda of PGDUSE, from the ``_pg_parts`` at ``lam``."""
    x = data.observations
    lx, e, _, expm1_t = parts
    # x * exp(1 - lam*x - exp(-lam*x)) / (exp(1 - exp(-lam*x)) - 1); both
    # factors are evaluated through expm1 so the x -> 0 ratio x/t survives
    ratio = x * np.exp(1.0 - lx - e) / expm1_t
    return data.n / lam - data.total + np.sum(x * e) + (theta - 1.0) * np.sum(ratio)


def score_pgduse(p, data: Dataset) -> np.ndarray:
    """Analytic gradient (d/d lambda, d/d theta) of the PGDUSE log-likelihood.

    Matches central finite differences of :func:`log_likelihood` to
    roundoff; its lambda component is the slope of the PGDUSE profile.
    """
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    parts = _pg_parts(lam, data.observations)
    d_theta = data.n / theta + np.sum(_pg_log_ratio(parts))
    return np.array([_pg_d_lam(lam, theta, data, parts), d_theta])


# Profiles: at a rate, the parameters with the shape at its maximizer and
# the whole analytic score there, whose rate component is the profile slope
# by the envelope theorem.  None once sum(log G1) (PGDUSE) or sum(log F)
# (GDUSE) rounds to 0: the best shape would be infinite.

def _pgduse_profile(rate: float, data: Dataset):
    parts = _pg_parts(rate, data.observations)
    total = float(np.sum(_pg_log_ratio(parts)))
    theta = -data.n / total if total < 0.0 else math.inf
    if not 0.0 < theta < math.inf:
        return None
    return (rate, theta), (_pg_d_lam(rate, theta, data, parts), data.n / theta + total)


def _gduse_profile(beta: float, data: Dataset):
    """The best alpha at ``beta``, and the score (d/d alpha, d/d beta).

    With L = log F(x; beta) < 0, the alpha score
    h(alpha) = n/alpha + sum(L * (1 + exp(alpha*L))) is strictly
    decreasing (L**2 exp(alpha*L) <= 4 / (e*alpha)**2 < 1/alpha**2), and
    n/alpha + 2 sum(L) <= h(alpha) <= n/alpha + sum(L) places its root in
    [n / (-2 sum L), n / (-sum L)].  There is none once sum(L) rounds to 0.
    """
    x = data.observations
    log_f = _log_f(beta, x)
    n, total = data.n, float(np.sum(log_f))
    # that interval widened by 2 at each end, so rounding cannot flip a sign
    hi = 2.0 * n / -total if total < 0.0 else math.inf
    if not 0.0 < hi < math.inf:
        return None

    def alpha_score(alpha: float) -> float:
        return n / alpha + total + float(np.dot(log_f, np.exp(alpha * log_f)))

    from scipy.optimize import brentq
    alpha = brentq(alpha_score, hi / 8.0, hi)
    fa = np.exp(alpha * log_f)
    d_alpha = n / alpha + np.sum(log_f * (1.0 + fa))
    # d log F / d beta = x / expm1(beta*x), which is 0 once expm1 overflows
    with np.errstate(over="ignore"):
        dlogf = x / np.expm1(beta * x)
    d_beta = n / beta - data.total + np.sum((alpha * fa + alpha - 1.0) * dlogf)
    return (alpha, beta), (d_alpha, d_beta)


_PROFILES = {
    ModelKind.PGDUSE: _pgduse_profile,
    ModelKind.GDUSE: _gduse_profile,
    # theta = 1 needs no log G1; the 0 * ratio term keeps the score's NaNs
    ModelKind.DUSE: lambda rate, data: (
        (rate,), (_pg_d_lam(rate, 1.0, data, _pg_parts(rate, data.observations)),)),
    ModelKind.KME: lambda rate, data: ((rate,), (data.n / rate - data.total - np.sum(
        data.observations * np.exp(-rate * data.observations)),)),
    ModelKind.ED: lambda rate, data: ((rate,), (data.n / rate - data.total,)),
}


def _bracket(slope, u0: float) -> tuple[float, float, bool]:
    """Log-rates around the profile maximum, stepping out from ``u0``.

    Returns (a, b, True) with slope(a) > 0 >= slope(b) once the slope
    changes sign.  Otherwise the walk met a log-rate without a profile, or
    ran out of steps, and it returns (u, u, False) with u the last log-rate
    of the walk.
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
    return u, u, False


def fit_ed_closed_form(data: Dataset) -> ScalarParam:
    """Exact exponential MLE n / sum(x)."""
    return ScalarParam(data.n / data.total)


def fit_mle(kind: ModelKind, data: Dataset) -> FitResult:
    """Maximize the log-likelihood of ``kind`` on ``data``.

    The fit runs over u = log(rate) of the profile log-likelihood, so the
    parameters stay positive; the result is deterministic.  ED takes its
    closed-form rate n / sum(x); every other model brackets a sign change
    of the profile slope and finds its root with one ``brentq``, whose
    iterations ``iterations`` counts (0 for ED).  Where the walk finds no
    sign change, the fit reports the last log-rate of the walk.
    ``converged`` requires a bracketed root found within scipy's default
    100 iterations (to a log-rate tolerance of 1e-10), a score per
    log-parameter with norm at most 1e-6 * n (``grad_norm``, from the
    profile's score at the result) and a negative profile curvature.

    Raises DomainError when n / sum(x) is not a positive finite double:
    the sample must then be rescaled.
    """
    if data.n == 0:
        raise EmptyDataset("cannot fit an empty sample")
    rate = data.n / data.total
    if not 0.0 < rate < math.inf:
        raise DomainError(f"n / sum(x) = {rate!r} is not a finite positive rate; "
                          "rescale the sample")
    try:
        profile, rate_index = _PROFILES[kind], _MODELS[kind].rate_index
    except (KeyError, TypeError):
        raise _not_a_kind(kind) from None
    # (params, score) or None by log-rate, for this fit only
    memo: dict[float, tuple | None] = {}

    def evaluate(u: float):
        if u not in memo:
            memo[u] = profile(math.exp(u), data) if u < _MAX_LOG_RATE else None
        return memo[u]

    def slope(u: float) -> float:
        at = evaluate(u)
        return math.nan if at is None else float(at[1][rate_index])

    u = math.log(rate)
    iterations, found = 0, True
    if kind is ModelKind.ED:
        # the closed form, at the exact rate rather than exp(log(rate))
        memo[u] = profile(rate, data)
    else:
        a, b, found = _bracket(slope, u)
        u = a
        if found:
            from scipy.optimize import brentq
            u, info = brentq(slope, a, b, xtol=_STEP_TOL, full_output=True, disp=False)
            found, iterations = info.converged, info.iterations

    params_tuple, score = evaluate(u)
    params = validate_params(kind, params_tuple)
    value = log_likelihood(kind, params, data)
    grad_norm = float(np.linalg.norm(np.multiply(params_tuple, score)))
    h = _CURVATURE_STEP
    curvature = (slope(u + h) - slope(u - h)) / (2.0 * h)
    return FitResult(
        kind=kind,
        params=params,
        log_likelihood=value,
        converged=found and grad_norm <= _GRAD_TOL * data.n and curvature < 0.0,
        iterations=iterations,
        grad_norm=grad_norm,
        slope_evaluations=len(memo),
    )
