"""Moments, generating functions, and entropy for the two-parameter model.

Each analytic quantity comes in two independent routes:

* a series route that expands ``(exp(1 - exp(-lam*x)) - 1)**(theta - 1)``
  with the generalized binomial theorem and integrates term by term, and
* an adaptive-quadrature route that integrates the density directly.

The series route is exact term-for-term for integer ``theta`` (the
expansion terminates), and for non-integer ``theta`` the terms decay like
an algebraic power of the index; the driver then sums the head exactly
and closes the tail with a fitted power law evaluated through the Hurwitz
zeta function.  Every series value is validated against quadrature in the
test suite.

After swapping the order of summation and integration, each term reduces
to a Poisson-weighted mean ``E[h(M)]`` with ``M ~ Poisson(k - shift)``:

* raw moments:      h(m) = (m + 1)**-(r + 1)
* mgf / cf:         h(m) = 1 / (lam*(m + 1) - t)      (t -> i*t for the cf)
* Renyi entropy:    h(m) = 1 / (m + delta)

These means are computed in a normalized form that never exponentiates
large magnitudes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, zeta

from .distributions import (
    _MODELS,
    ModelKind,
    PgduseParams,
    _coerce,
    pdf,
    quantile,
)
from .errors import DomainError, LogOfZero, QuadFailure, SeriesDivergence

__all__ = [
    "SeriesOptions",
    "QuadOptions",
    "raw_moment_series",
    "raw_moment_quadrature",
    "mgf",
    "mgf_quadrature",
    "cf",
    "cf_quadrature",
    "cgf",
    "renyi_entropy",
    "renyi_entropy_series",
    "mean",
    "variance",
    "central_moment",
    "skewness",
    "kurtosis",
]

_E = math.e
_EM1 = math.e - 1.0


@dataclass(frozen=True)
class SeriesOptions:
    """Truncation controls for the series expansions."""

    abs_tol: float = 1e-12
    max_terms: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be > 0, got {self.abs_tol!r}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms!r}")


@dataclass(frozen=True)
class QuadOptions:
    """Accuracy controls for the adaptive-quadrature routes."""

    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol!r}")
        if self.max_subdivisions < 10:
            raise DomainError(f"max_subdivisions must be >= 10, got {self.max_subdivisions!r}")


# ----------------------------------------------------------------------
# Poisson-weighted means
# ----------------------------------------------------------------------

def _poisson_mean(h_vec: Callable, h_mp: Callable, z: float):
    """E[h(M)] for M ~ Poisson(z), extended by the same power sum to z <= 0.

    For z < 0 the defining sum alternates and cancels roughly like
    exp(2|z|), so those few terms (they arise only for small series
    indices) are summed under mpmath with enough guard digits.
    """
    if z < 0.0:
        with mpmath.workdps(25 + int(2.5 * abs(z))):
            zz = mpmath.mpf(z)
            weight = mpmath.exp(-zz)
            total = weight * h_mp(0)
            m = 0
            while True:
                weight = weight * zz / (m + 1)
                m += 1
                term = weight * h_mp(m)
                total += term
                if m > abs(z) + 10 and abs(term) < mpmath.mpf("1e-40") * (1 + abs(total)):
                    break
                if m > 100000:
                    raise SeriesDivergence("inner Poisson sum failed to converge")
            if isinstance(total, mpmath.mpc):
                return complex(total)
            return float(total)
    if z < 40.0:
        m_max = int(3.0 * z) + 80
        m = np.arange(m_max + 1)
        ratio = np.concatenate(([1.0], z / m[1:]))
        weights = np.cumprod(ratio)
        return math.exp(-z) * np.sum(weights * h_vec(m))
    half = 12.0 * math.sqrt(z) + 25.0
    lo = max(int(z - half), 0)
    hi = int(z + half) + 1
    m = np.arange(lo, hi + 1)
    weights = np.exp(m * math.log(z) - z - gammaln(m + 1.0))
    return np.sum(weights * h_vec(m))


# ----------------------------------------------------------------------
# binomial-series driver with power-law tail closure
# ----------------------------------------------------------------------

def _binomial_series(
    power: float,
    shift: float,
    h_vec: Callable,
    h_mp: Callable,
    tail_exponent: float,
    opts: SeriesOptions,
    complex_valued: bool = False,
):
    """Sum over k of C(power, k) * (-1)**k * E[h(M)], M ~ Poisson(k - shift).

    Stops when two consecutive terms fall below ``abs_tol`` (exact
    termination for nonnegative-integer ``power``).  If the budget runs out
    first, the remaining tail is closed analytically: the terms behave like
    ``k**(-tail_exponent) * (c0 + c1/k + c2/k**2 + c3/k**3)``, whose sum
    over k >= K is a combination of Hurwitz zeta values.  A held-out term
    cross-checks the fit; any mismatch raises :class:`SeriesDivergence`.
    """
    coeff = 1.0
    total = 0j if complex_valued else 0.0
    terms: list = []
    below = 0
    for k in range(opts.max_terms):
        if coeff == 0.0:
            return total
        term = coeff * _poisson_mean(h_vec, h_mp, k - shift)
        terms.append(term)
        total += term
        if abs(term) < opts.abs_tol:
            below += 1
            if below >= 2:
                return total
        else:
            below = 0
        coeff *= (k - power) / (k + 1.0)

    if tail_exponent <= 1.0:
        raise SeriesDivergence(
            f"series tail decays like k**-{tail_exponent:g}; the sum diverges"
        )
    count = len(terms)
    if count < 48:
        raise SeriesDivergence(
            f"series did not converge within max_terms={opts.max_terms} and the "
            "budget is too small for tail extrapolation (needs >= 48 terms)"
        )
    magnitudes = [abs(t) for t in terms[int(0.75 * count):]]
    if any(b > a * (1.0 + 1e-9) for a, b in zip(magnitudes, magnitudes[1:])):
        raise SeriesDivergence("series terms are not decaying; tail fit refused")

    nodes = [count - 1, int(0.8 * (count - 1)), int(0.65 * (count - 1)), int(0.5 * (count - 1))]
    matrix = np.array([[kk ** -float(i) for i in range(4)] for kk in nodes])
    rhs = np.array(
        [terms[kk] * float(kk) ** tail_exponent for kk in nodes],
        dtype=complex if complex_valued else float,
    )
    coefs = np.linalg.solve(matrix, rhs)
    probe = int(0.57 * (count - 1))
    predicted = sum(coefs[i] * probe ** -float(i) for i in range(4)) * probe ** -tail_exponent
    if abs(predicted - terms[probe]) > 5e-3 * abs(terms[probe]) + 1e-300:
        raise SeriesDivergence("series tail is not a smooth power law; extrapolation refused")
    tail = sum(coefs[i] * zeta(tail_exponent + i, count) for i in range(4))
    return total + tail


# ----------------------------------------------------------------------
# quadrature plumbing
# ----------------------------------------------------------------------

def _upper_limit(kind: ModelKind, params, decay_rate: float, margin_rate: float = 1.0) -> float:
    """Integration cutoff: the far quantile plus an exponential-decay margin."""
    top = float(quantile(kind, params, 1.0 - 1e-13))
    return top + 45.0 / (decay_rate * margin_rate)


def _interior_points(kind: ModelKind, params) -> list[float]:
    return [float(quantile(kind, params, q)) for q in (0.25, 0.5, 0.75)]


def _checked_quad(func, lo, hi, opts: QuadOptions, points=None, weight=None, wvar=None):
    kwargs = dict(epsabs=1e-300, epsrel=opts.rel_tol, limit=opts.max_subdivisions, full_output=1)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar, epsabs=1e-14)
    elif points is not None:
        kwargs.update(points=[p for p in points if lo < p < hi])
    result = quad(func, lo, hi, **kwargs)
    value, abserr = result[0], result[1]
    if len(result) > 3 or not math.isfinite(value):
        if not math.isfinite(value) or abserr > 1e3 * opts.rel_tol * max(abs(value), 1e-300):
            raise QuadFailure(
                f"quadrature on [{lo:g}, {hi:g}] failed: value={value!r}, "
                f"abserr={abserr!r}: {result[-1] if len(result) > 3 else 'non-finite'}"
            )
    return value


# ----------------------------------------------------------------------
# raw moments
# ----------------------------------------------------------------------

def raw_moment_series(p: PgduseParams, r: int, opts: SeriesOptions = SeriesOptions()) -> float:
    """r-th raw moment E[X**r] by term-by-term integration of the expansion.

    The double sum is ``theta * r! / ((e-1)**theta * lam**r)`` times the
    binomial-series kernel; for ``theta = 2`` it reduces term-for-term to
    the familiar two-sum expression over ``2**m / (m! (1+m)**(r+1))``.

    Raises
    ------
    SeriesDivergence
        If the term budget is exhausted and tail closure is impossible.
    """
    if r < 1 or int(r) != r:
        raise DomainError(f"moment order must be a positive integer, got {r!r}")
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    r = int(r)
    prefactor = theta * math.factorial(r) / (_EM1 ** theta * lam ** r)
    exponent = -(r + 1.0)

    def h_vec(m):
        return (m + 1.0) ** exponent

    def h_mp(m):
        return mpmath.mpf(m + 1) ** exponent

    kernel = _binomial_series(theta - 1.0, theta, h_vec, h_mp, theta + r + 1.0, opts)
    return prefactor * kernel


def raw_moment_quadrature(
    kind: ModelKind, p, r: int, opts: QuadOptions = QuadOptions()
) -> float:
    """r-th raw moment by adaptive quadrature of ``x**r * pdf(x)``.

    Integrates over [0, quantile(1 - 1e-12)]; serves as the independent
    oracle for :func:`raw_moment_series`.
    """
    if r < 1 or int(r) != r:
        raise DomainError(f"moment order must be a positive integer, got {r!r}")
    params = _coerce(kind, p)
    top = float(quantile(kind, params, 1.0 - 1e-12))

    def integrand(x):
        return x ** r * pdf(kind, params, x)

    return _checked_quad(integrand, 0.0, top, opts, points=_interior_points(kind, params))


# ----------------------------------------------------------------------
# generating functions
# ----------------------------------------------------------------------

def mgf(p: PgduseParams, t: float, opts: SeriesOptions = SeriesOptions()) -> float:
    """Moment generating function E[exp(t X)]; finite only for t < lam."""
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    t = float(t)
    if t >= lam:
        raise DomainError(f"mgf requires t < lambda ({lam:g}), got t={t:g}")
    prefactor = theta * lam / _EM1 ** theta

    def h_vec(m):
        return 1.0 / (lam * (m + 1.0) - t)

    def h_mp(m):
        return 1 / (lam * (m + 1) - mpmath.mpf(t))

    kernel = _binomial_series(theta - 1.0, theta, h_vec, h_mp, theta + 1.0, opts)
    return prefactor * kernel


def mgf_quadrature(p: PgduseParams, t: float, opts: QuadOptions = QuadOptions()) -> float:
    """Quadrature oracle for :func:`mgf`: integral of exp(t*x) * pdf(x)."""
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    t = float(t)
    if t >= lam:
        raise DomainError(f"mgf requires t < lambda ({lam:g}), got t={t:g}")
    params = (lam, theta)
    top = _upper_limit(ModelKind.PGDUSE, params, lam - t if t > 0.0 else lam)

    def integrand(x):
        return math.exp(t * x) * pdf(ModelKind.PGDUSE, params, x)

    return _checked_quad(
        integrand, 0.0, top, opts, points=_interior_points(ModelKind.PGDUSE, params)
    )


def cf(p: PgduseParams, t: float, opts: SeriesOptions = SeriesOptions()) -> complex:
    """Characteristic function E[exp(i t X)]; the mgf series at i*t."""
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    t = float(t)
    prefactor = theta * lam / _EM1 ** theta

    def h_vec(m):
        return 1.0 / (lam * (m + 1.0) - 1j * t)

    def h_mp(m):
        return 1 / (lam * (m + 1) - mpmath.mpc(0, t))

    kernel = _binomial_series(
        theta - 1.0, theta, h_vec, h_mp, theta + 1.0, opts, complex_valued=True
    )
    return complex(prefactor * kernel)


def cf_quadrature(p: PgduseParams, t: float, opts: QuadOptions = QuadOptions()) -> complex:
    """Oscillatory-quadrature oracle for :func:`cf`.

    Uses the QUADPACK cosine/sine weights on the bulk of the support; an
    initial plain-quadrature slice absorbs the integrable density
    singularity at 0 when theta < 1.
    """
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    t = float(t)
    params = (lam, theta)
    if t == 0.0:
        top0 = float(quantile(ModelKind.PGDUSE, params, 1.0 - 1e-13))
        value = _checked_quad(
            lambda x: pdf(ModelKind.PGDUSE, params, x),
            0.0,
            top0,
            opts,
            points=_interior_points(ModelKind.PGDUSE, params),
        )
        return complex(value, 0.0)
    top = _upper_limit(ModelKind.PGDUSE, params, lam)
    split = min(0.05 / abs(t), top / 8.0)
    density = lambda x: pdf(ModelKind.PGDUSE, params, x)
    re = _checked_quad(lambda x: math.cos(t * x) * density(x), 0.0, split, opts)
    im = _checked_quad(lambda x: math.sin(t * x) * density(x), 0.0, split, opts)
    re += _checked_quad(density, split, top, opts, weight="cos", wvar=t)
    im += _checked_quad(density, split, top, opts, weight="sin", wvar=t)
    return complex(re, im)


def cgf(p: PgduseParams, t: float, opts: SeriesOptions = SeriesOptions()) -> complex:
    """Cumulant generating function: principal-branch log of the cf."""
    value = cf(p, t, opts)
    if abs(value) < 1e-300:
        raise LogOfZero(f"cf({t:g}) is numerically zero; its log is undefined")
    return cmath.log(value)


# ----------------------------------------------------------------------
# Renyi entropy
# ----------------------------------------------------------------------

def renyi_entropy(
    kind: ModelKind, p, delta: float, opts: QuadOptions = QuadOptions()
) -> float:
    """Renyi entropy of order delta: log(integral of pdf**delta) / (1 - delta).

    Quadrature is the primary definition here.  For shape parameters below
    1 the density blows up at 0 and ``pdf**delta`` stops being integrable
    once ``delta * (shape - 1) <= -1``; that case raises
    :class:`QuadFailure` instead of returning a garbage number.
    """
    delta = float(delta)
    if delta <= 0.0 or delta == 1.0:
        raise DomainError(f"Renyi order must be positive and != 1, got {delta!r}")
    params = _coerce(kind, p)
    model = _MODELS[kind]
    if delta * model.edge_exponent(params) <= -1.0:
        raise QuadFailure(
            f"pdf**{delta:g} is not integrable at 0 for {kind.value} with these parameters"
        )
    top = _upper_limit(kind, params, params[model.rate_index], margin_rate=min(delta, 1.0))

    def integrand(x):
        return pdf(kind, params, x) ** delta

    value = _checked_quad(integrand, 0.0, top, opts, points=_interior_points(kind, params))
    if value <= 0.0:
        raise QuadFailure("integral of pdf**delta came out non-positive")
    return math.log(value) / (1.0 - delta)


def renyi_entropy_series(
    p: PgduseParams, delta: float, opts: SeriesOptions = SeriesOptions()
) -> float:
    """Series route for the PGDUSE Renyi entropy.

    Expands ``(exp(1 - exp(-lam*x)) - 1)**(delta*(theta-1))`` binomially
    and the remaining ``exp(-c * exp(-lam*x))`` factor as a power series,
    then integrates term by term:

        integral of g**delta =
            (theta*lam)**delta / (lam * (e-1)**(theta*delta))
            * sum_k C(delta*(theta-1), k) (-1)**k E[1/(M+delta)],
            with M ~ Poisson(k - delta*theta).

    Non-integrable parameter combinations surface as
    :class:`SeriesDivergence` (the tail exponent drops to 1 or below).
    """
    delta = float(delta)
    if delta <= 0.0 or delta == 1.0:
        raise DomainError(f"Renyi order must be positive and != 1, got {delta!r}")
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    power = delta * (theta - 1.0)
    prefactor = (theta * lam) ** delta / (lam * _EM1 ** (theta * delta))

    def h_vec(m):
        return 1.0 / (m + delta)

    def h_mp(m):
        return 1 / (m + mpmath.mpf(delta))

    kernel = _binomial_series(power, delta * theta, h_vec, h_mp, power + 2.0, opts)
    value = prefactor * kernel
    if value <= 0.0:
        raise SeriesDivergence("series for the entropy integral lost positivity")
    return math.log(value) / (1.0 - delta)


# ----------------------------------------------------------------------
# convenience summaries
# ----------------------------------------------------------------------

def mean(p: PgduseParams, opts: SeriesOptions = SeriesOptions()) -> float:
    return raw_moment_series(p, 1, opts)


def variance(p: PgduseParams, opts: SeriesOptions = SeriesOptions()) -> float:
    m1 = raw_moment_series(p, 1, opts)
    m2 = raw_moment_series(p, 2, opts)
    return m2 - m1 * m1


def central_moment(p: PgduseParams, r: int, opts: SeriesOptions = SeriesOptions()) -> float:
    """Central moment E[(X - E X)**r] for r in {1, 2, 3, 4}."""
    if r not in (1, 2, 3, 4):
        raise DomainError(f"central moments implemented for r in 1..4, got {r!r}")
    if r == 1:
        return 0.0
    m = [raw_moment_series(p, i, opts) for i in range(1, r + 1)]
    if r == 2:
        return m[1] - m[0] ** 2
    if r == 3:
        return m[2] - 3.0 * m[0] * m[1] + 2.0 * m[0] ** 3
    return m[3] - 4.0 * m[0] * m[2] + 6.0 * m[0] ** 2 * m[1] - 3.0 * m[0] ** 4


def skewness(p: PgduseParams, opts: SeriesOptions = SeriesOptions()) -> float:
    return central_moment(p, 3, opts) / central_moment(p, 2, opts) ** 1.5


def kurtosis(p: PgduseParams, opts: SeriesOptions = SeriesOptions()) -> float:
    """Plain (non-excess) kurtosis mu4 / mu2**2."""
    return central_moment(p, 4, opts) / central_moment(p, 2, opts) ** 2
