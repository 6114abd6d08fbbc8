"""Moments, generating functions, and entropy for the two-parameter model.

Every model's rate is a pure scale: X = Y/rate, with Y at rate 1.  Every
route works on Y and rescales once (the mgf and cf at s = t/rate, a raw
moment by rate**-r, the Renyi entropy by -log(rate)), so it serves every
rate the double range holds.  Each quantity comes in two independent routes:

* a series route that integrates a power series of the density in
  u = 1 - exp(-y) term by term, and
* a quadrature route that integrates the density directly: one
  tanh-sinh integral of a log-space integrand over the half-line, on 30
  mass-sized intervals, by scipy's ``tanhsinh`` rule written here in
  numpy, its nodes passed to ``log_pdf`` as one array per level.  The cf
  runs that rule on its head, up to the first quarter period, where cos
  and sin keep their sign, and QUADPACK's Fourier weights only on the
  oscillating tail, one float per distinct node, straight to the density
  kernel.

The series route.  With u = 1 - exp(-y) the cdf is
((e**u - 1)/(e - 1))**theta, and its density in u is
theta/(e-1)**theta * u**(theta-1) * P(u), P(u) = ((e**u - 1)/u)**(theta-1) e**u.
P has no singularity in |u| < 2 pi, so its Taylor coefficients c_n fall
geometrically on [0, 1], and against u**(theta-1) each power of u
integrates to a Beta function (DLMF 5.12.1):

* mgf / cf:       E[exp(s Y)] = theta/(e-1)**theta sum_n c_n B(theta+n, 1-s)
* moments:        E[(Y-m)**r] = theta/(e-1)**theta sum_n c_n I_r(theta+n),
                  I_r(a) = integral of u**(a-1) (-log(1-u) - m)**r = Y_r(kappa)/a
* Renyi entropy:  the coefficients of P**delta against B(delta(theta-1)+1+n, delta)

Y_r is the complete Bell polynomial of kappa_1 = digamma(a+1) - digamma(1) - m
and kappa_k = (-1)**k [polygamma(k-1, 1) - polygamma(k-1, a+1)] (Comtet,
Advanced Combinatorics, 1974, 3.3).  A raw moment takes m = 0, and every
central moment, so the variance, skewness and kurtosis, the unit-rate
mean: one series per order, where raw moments would cancel.  The
raw-moment, mgf and Renyi weights are positive (the cf's bounded by
positive ones), and for theta >= 1 so is every c_n, so no term there
cancels another's digits.  The paper's binomial double series alternates
instead: for the mgf at t = 0.3 and theta = 50 its terms reach 3e26
against a sum near 1e4.

One generator, Knuth's recurrence for the exponential of a power series,
gives both the c_n and the Bell polynomials.  A sum stops when its terms
fall below the double's resolution past their peak near term
(theta + 1)/2 (delta (theta + 1)/2 for the Renyi entropy), inside one
window that its peak sizes, and no route takes an option.  A peak at or
past term 1925 (theta >= 3849) raises :class:`SeriesDivergence`.  Every
quadrature works to a relative error of 1e-10 (the cf's QUADPACK pieces
to 1e-14 absolute, where that is looser), and every series value is
validated against quadrature in the test suite.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from typing import Callable

import numpy as np

from .distributions import (
    _EM1,
    _LOG_EM1,
    _MODELS,
    ModelKind,
    PgduseParams,
    _coerce,
    _count,
    _real,
    cdf,
    log_pdf,
    pdf,
    quantile,
)
from .errors import DomainError, LogOfZero, QuadFailure, SeriesDivergence

__all__ = [
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

_EPS = float(np.finfo(float).eps)
# a quadrature whose error estimate exceeds this times its value is refused
_REL_TOL = 1e-10


# ----------------------------------------------------------------------
# the u-series: one exponential power series against Beta weights
# ----------------------------------------------------------------------

def _even_zetas(count: int) -> list:
    """zeta(2), zeta(4), ..., zeta(2*count), from zeta(2) = pi**2/6 and
    (n + 1/2) zeta(2n) = sum_(k=1..n-1) zeta(2k) zeta(2n - 2k), whose terms
    are all positive."""
    z = [math.pi ** 2 / 6.0]
    for n in range(2, count + 1):
        z.append(sum(z[k] * z[n - 2 - k] for k in range(n - 1)) / (n + 0.5))
    return z


# j * beta_j = (-1)**(j+1) zeta(2j) / (2 pi)**(2j), j = 1..30, where
# beta_j is the coefficient of u**(2j) in log((e**u - 1)/u) - u/2, and
# j * beta_j that of v**j in v * d/dv of it, v = u**2 (DLMF 24.2.1 and
# 25.6.2; no Bernoulli number is formed)
_LOG_PHI_SLOPES = [(-1) ** (j + 1) * z / (2.0 * math.pi) ** (2 * j)
                   for j, z in enumerate(_even_zetas(30), start=1)]
# b * j * beta_j below this changes log P on [0, 1] by less than a
# tenth of an ulp, and the next ones by 40 times less each
_NEGLIGIBLE = 1e-17
# the largest peak a series takes: at a >= 700 the Poisson weights' running
# product (a/e)**n / n! reaches about e**(a/e) at n = a/e, which overflows a
# double past a = 709.78 e = 1929
_MAX_PEAK = 1925.0


def _exp_series(slopes: list, count: int, first=1.0) -> list:
    """The first ``count`` coefficients e_n of first * exp(sum_k l_k x**k).

    ``slopes[k - 1]`` is k * l_k, a float or an array, and
    e_n = (1/n) sum_(k=1..n) k l_k e_(n-k) (Knuth, TAOCP vol. 2, 4.7).
    """
    e = [first]
    for n in range(1, count):
        e.append(sum(map(operator.mul, slopes, reversed(e))) / n)
    return e


def _u_series(a: float, b: float, weights: Callable):
    """sum_n c_n w_n, c_n the Taylor coefficients of P(u) / P(1), as a Python number.

    log P(u) = a*u + b * sum_j beta_j u**(2j), where the sum is the even
    part of log((e**u - 1)/u) - u/2, so log P(1) = a + b (log(e-1) - 1/2).
    P has no singularity closer than u = +-2 pi i, so c_n falls like
    (2 pi)**-n past its peak near n = a.  The c_n are the product of two
    series, each divided by its value at u = 1: that of the even part's
    exponential in v = u**2, from :func:`_exp_series`, and the Poisson
    weights a**n exp(-a) / n! of exp(a*u), whose factor exp(-a) is spread
    over the first steps where it would underflow by itself.  So the c_n
    sum to 1 at u = 1 and none overflows at a large shape.
    ``weights(count)`` gives w_n for n < count: bounded, and growing less
    than geometrically, so that the terms keep the geometric fall of c_n.

    The sum takes one window of a + 18 sqrt(a) + 22 terms, the peak and
    the Poisson weights' spread with the geometric fall past them.  Past
    the peak it stops at the first n where the pair |t_n| + |t_(n-1)| is
    below eps times the sum and has fallen from the pair before it by a
    ratio q that leaves the geometric rest, pair * q / (1 - q), below eps
    times the sum too (Cauchy's estimate |c_n| <= M(rho) / rho**n,
    rho < 2 pi).  A peak a >= ``_MAX_PEAK``, a sum whose every term
    underflows, and one that does not stop inside its window raise
    :class:`SeriesDivergence`.
    """
    if not a < _MAX_PEAK:
        raise SeriesDivergence(f"the series peaks near term {a:g}; from term {_MAX_PEAK:g} "
                               "on its Poisson weights overflow a double")
    slopes = list(itertools.takewhile(lambda s: abs(s) >= _NEGLIGIBLE,
                                      (b * s for s in _LOG_PHI_SLOPES)))
    first = math.exp(b * (0.5 - _LOG_EM1))
    peak = math.ceil(a)
    # exp(-a) in one factor below 700, else spread over the steps up to the peak
    head = 1 if a < 700.0 else peak
    count = int(a + 18.0 * math.sqrt(a)) + 22
    even = np.zeros(count)
    even[::2] = _exp_series(slopes, (count + 1) // 2, first)
    steps = a / np.arange(1.0, count)
    steps[:head] *= math.exp(-a / head)
    spread = np.exp(-a / head * np.maximum(head - np.arange(count), 0))
    poisson = spread * np.concatenate(([1.0], np.cumprod(steps)))
    terms = np.convolve(even, poisson)[:count] * weights(count)
    partial = np.cumsum(terms)
    # in units of the largest term, so that no product below underflows
    size = np.abs(terms)
    unit = size.max()
    if not unit > 0.0:
        raise SeriesDivergence("every term of the series underflows")
    pair = (size[1:] + size[:-1]) / unit      # pair[n - 1] = |t_n| + |t_(n-1)|
    bound = _EPS / unit * np.abs(partial[3:])
    # pair_n (pair_(n-2) + bound) <= bound pair_(n-2): pair_n / (1 - q) <= bound, n >= 3
    done = pair[2:] * (pair[:-2] + bound) <= bound * pair[:-2]
    done[:max(0, peak - 3)] = False
    if not done.any():
        raise SeriesDivergence(f"the series did not converge within its {count} terms")
    result = partial[3 + int(done.argmax())]
    return complex(result) if np.iscomplexobj(result) else float(result)


def _log_gamma_shift(z, a):
    """log Gamma(z + a) - log Gamma(z), for Re z > 0 and Re(z + a) > 0.

    Real or complex.  Both arguments are raised by the same integer m until
    their real parts reach 10 (log Gamma(w + 1) = log Gamma(w) + log w);
    there the difference of Stirling's series (DLMF 5.11.1) is
    (z - 1/2) log(1 + a/z) + a log(z + a) - a plus the differences of its
    correction terms.  Neither log Gamma is formed on its own, so two large
    ones never cancel.  A complex value is right up to a multiple of 2 pi i.
    """
    real = not (isinstance(z, complex) or isinstance(a, complex))
    log = math.log if real else cmath.log
    w = z + a
    m = max(0, math.ceil(10.0 - min(z.real, w.real)))
    shift = sum(log(z + k) - log(w + k) for k in range(m))
    z, w = z + m, w + m
    x = a / z
    if real:
        log1p = math.log1p(x)
    else:
        # Kahan's log(1 + x) = x log(y) / (y - 1), y = 1 + x, keeps the digits of a small x
        y = 1.0 + x
        log1p = x if y == 1.0 else log(y) * x / (y - 1.0)
    value = (z - 0.5) * log1p + a * log(w) - a + shift
    zi, wi = 1.0 / z, 1.0 / w
    z2, w2 = zi * zi, wi * wi
    for c in _STIRLING:
        value += c * (wi - zi)
        zi, wi = zi * z2, wi * w2
    return value


# B_2k / (2k (2k - 1)), k = 1..8: Stirling's series for log Gamma; at
# |w| >= 10 the first omitted term is below 2e-18
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _log_beta(p, q):
    """log B(p, q) for Re p, Re q > 0: log Gamma of the argument of smaller
    modulus minus :func:`_log_gamma_shift` of the other by it."""
    if abs(q) > abs(p):
        p, q = q, p
    log_gamma = _log_gamma_shift(1.0, q - 1.0) if isinstance(q, complex) else math.lgamma(q)
    return log_gamma - _log_gamma_shift(p, q)


# ----------------------------------------------------------------------
# quadrature plumbing
# ----------------------------------------------------------------------

def _at_unit_rate(kind: ModelKind, p):
    """``p`` checked once: its rate, and the typed vector of Y (rate 1) that
    ``pdf``, ``log_pdf`` and ``quantile`` accept at every node unchecked."""
    params = list(_coerce(kind, p))
    model = _MODELS[kind]
    rate, params[model.rate_index] = params[model.rate_index], 1.0
    return rate, model.param_class(*params)


def _over_rate(t, rate: float, below: float = math.inf) -> float:
    """s = t/rate, the mgf or cf argument of Y: finite and below ``below``."""
    s = _real("t", t) / rate
    if not -math.inf < s < below:
        raise DomainError(f"t/lambda must be finite and < {below:g}, got t={t!r}, lambda={rate!r}")
    return s


def _moment_at(rate: float, r: int, fraction: float, scale: int) -> float:
    """E[X**r] = fraction * 2**scale * rate**-r, with frexp's exact power of
    two of the rate in ldexp: the moment underflows to 0.0 or a subnormal,
    and raises :class:`DomainError` where it overflows."""
    mantissa, exponent = math.frexp(rate)
    try:
        return math.ldexp(fraction * mantissa ** -r, scale - r * exponent)
    except OverflowError:
        raise DomainError(f"E[X**{r}] overflows a double at lambda = {rate!r}") from None


# the cuts of ``_integral``: the quantiles at 0, 2**-k and 1 - 2**-k for
# the 15 k below, 30 intervals with the last out to +inf.  The mass of an
# interval falls geometrically towards either tail, so the nodes follow the
# density into both; k steps by one up to 5 and then by about a quarter of
# itself, so that far out, where an interval holds little of the integral,
# the intervals are few and wide
_CUT_EXPONENTS = np.array([50, 40, 32, 26, 21, 17, 14, 11, 9, 7, 5, 4, 3, 2, 1])
_CUT_LEVELS = np.concatenate(([0.0], 2.0 ** -_CUT_EXPONENTS, 1.0 - 2.0 ** -_CUT_EXPONENTS[-2::-1]))
# the ends of the cf's QUADPACK pieces: every other upper cut level, from the
# median to 1 - 2**-50
_TAIL_LEVELS = _CUT_LEVELS[_CUT_LEVELS >= 0.5][::2]


def _tanh_sinh_pairs():
    """The step h0 and, per level, the abscissa-weight pairs of the rule.

    Level k has step h0 / 2**k and adds the odd multiples j of it (level 0
    every j); a pair holds 1 - x_j = 1 / (exp(u2) cosh(u2)), stored as the
    complement so that nodes near an end keep their digits, and the weight
    (pi/2) cosh(jh) / cosh(u2)**2, u2 = (pi/2) sinh(jh).  h0 makes the last
    complement 4 times the smallest normal double (scipy's base step).  The
    first entry joins levels 0-2, which run as one; each entry also holds
    the nodes t of [0, 1], for the tail's map x = 1/t - 1 + a and its
    factor 1/t**2.
    """
    fmin = 4.0 * np.finfo(float).smallest_normal
    h0 = np.float64(math.asinh(math.log(2.0 / fmin - 1.0) / math.pi) / 8)
    levels = []
    with np.errstate(over="ignore"):
        for k in range(11):
            jh = (np.arange(9) if k == 0 else np.arange(1, 8 * 2 ** k + 1, 2)) * (h0 / 2 ** k)
            u2 = math.pi / 2 * np.sinh(jh)
            levels.append((1 / (np.exp(u2) * np.cosh(u2)), math.pi / 2 * np.cosh(jh) / np.cosh(u2) ** 2))
        levels[0][1][0] /= 2                   # the centre, j = 0, is a node of both sides
        table = []
        for xc, w in [tuple(map(np.concatenate, zip(*levels[:3])))] + levels[3:]:
            t = np.stack((1.0 - 0.5 * xc, 0.5 * xc))
            table.append((xc, np.stack((w, w)), 1 / t - 1, t ** -2.0))
    return h0, table


_H0, _PAIRS = _tanh_sinh_pairs()
# the right side of an interval keeps its nodes' abscissae, the left side negates them,
# so the outermost node of either side is its largest
_OUTWARD = np.array([[1.0], [-1.0]])


def _tanh_sinh(func: Callable, a: np.ndarray, b: np.ndarray):
    """Integrals of ``func`` over [a_i, b_i], a_i <= b_i, b_i finite or +inf.

    The double-exponential rule of Takahasi & Mori (1974) with the level
    sums and error estimate of Bailey, Jeyabalan & Li (2005, Exp. Math.
    14(3)), as scipy's ``tanhsinh`` runs it with ``rtol=_REL_TOL``: levels
    0-2 at once and then one level at a time up to 10, a node that rounds
    onto an end weighted 0, a non-finite value replaced by that of the
    side's outermost finite node, [a, inf) mapped to [0, 1] by
    x = 1/t - 1 + a.  ``func`` takes and returns a 1-d array: the first
    call holds every interval's midpoint (a NaN there ends the interval)
    and its nodes of levels 0-2, each later call the nodes of the intervals
    still open.  Returns the integrals, their error estimates and a status
    per interval: 0 converged, -2 still open after level 10, -3 non-finite.
    """
    n = a.size
    tail = np.isinf(b)
    lo, hi = np.where(tail, 0.0, a), np.where(tail, 1.0, b)
    half = (hi - lo) / 2
    base, move = np.stack((hi, lo), axis=1)[:, :, None], np.stack((-half, half), axis=1)[:, :, None]
    lo, hi, half = lo[:, None, None], hi[:, None, None], half[:, None, None]
    value, error, status = np.zeros(n), np.zeros(n), np.where(a == b, 0, -1)
    # per side, its outermost node with a finite value and a weight so far:
    # (the outward abscissa, value, weight); and the last two level sums
    edge = np.zeros((n, 2, 3))
    edge[:, :, :2] = -np.inf, np.nan
    sums = np.zeros((n, 2))
    i = np.flatnonzero(status == -1)
    with np.errstate(all="ignore"):
        mid = np.where(np.isinf(a), 0.0, np.where(tail, a + 1.0, (a + b) / 2))
        for level, (xc, w, tail_x, tail_jac) in enumerate(_PAIRS, start=2):
            rows, m, h = i.size, xc.size, _H0 / 2 ** level
            t = base[i] + move[i] * xc
            wt = w * half[i]
            wt[(t <= lo[i]) | (t >= hi[i])] = 0.0
            x, r = t.copy(), tail[i]
            x[r] = tail_x + a[i[r], None, None]
            if level == 2:
                fx = func(np.concatenate((mid, x.ravel())))
                fmid, fx = fx[:n], fx[n:].reshape(t.shape)
            else:
                fx = func(x.ravel()).reshape(t.shape)
            fx[r] *= tail_jac
            bad = ~np.isfinite(fx) | (wt == 0.0)
            out = t * _OUTWARD
            out[bad] = -np.inf
            k = np.arange(0, 2 * rows * m, m) + out.argmax(axis=2).ravel()
            node = np.stack((out.ravel()[k], fx.ravel()[k], wt.ravel()[k]), axis=1).reshape(rows, 2, 3)
            e = edge[i]
            np.copyto(e, node, where=node[:, :, :1] > e[:, :, :1])
            edge[i] = e
            np.copyto(fx, e[:, :, 1:2], where=bad)
            fw = fx * wt
            sn = fw.reshape(rows, -1).sum(axis=1) * h
            if level == 2:
                # each side's first 9 pairs are level 0, its first 17 levels 0-1
                prev2 = fw[:, :, :9].reshape(rows, -1).sum(axis=1) * (4 * h)
                prev1 = fw[:, :, :17].reshape(rows, -1).sum(axis=1) * (2 * h)
            else:
                prev2, prev1 = sums[i].T
                sn = prev1 / 2 + sn
            d1, d2 = np.abs(sn - prev1), np.abs(sn - prev2)
            d3 = _EPS * np.abs(fw).max(axis=(1, 2))
            d4 = np.abs(e[:, :, 1] * e[:, :, 2]).max(axis=1)
            guess = d1 ** (np.log(d1) / np.log(d2))
            guess[d1 == 0.0] = 0.0
            err = np.maximum(np.maximum(guess, d1 ** 2), np.maximum(d3, d4))
            err = np.minimum(np.maximum(err, _EPS * np.abs(sn)), d1)
            value[i], error[i], sums[i, 0], sums[i, 1] = sn, err, prev1, sn
            done = err / np.abs(sn) < _REL_TOL
            status[i[done]] = 0
            status[i[~done & ~np.isfinite(sn)]] = -3
            if level == 2:
                nan = np.isnan(fmid)
                value[nan] = error[nan] = np.nan
                status[nan & (a != b)] = -3
            i = np.flatnonzero(status == -1)
            if not i.size:
                break
    status[i] = -2
    return value, error, status


def _integral(kind: ModelKind, typed, log_integrand: Callable, lo: float = 0.0,
              hi: float = math.inf, extra=()) -> float:
    """Integral of exp(log_integrand(x)) > 0 over [lo, hi], by tanh-sinh.

    One :func:`_tanh_sinh` run covers the intervals between lo, the cut
    quantiles inside (lo, hi), the ``extra`` cuts and hi (merged where they
    round together, as the lower quantiles do at small shapes); the
    double-exponential map takes the singularity at 0 and an infinite hi.
    In log space exp(t*x) * pdf never overflows.  An unconverged interval's
    error estimate bounds nothing, so it may hold at most an ulp of the
    value, as tails that underflow do.
    """
    cuts = quantile(kind, typed, _CUT_LEVELS)
    cuts = np.unique(np.concatenate(([lo], cuts[(cuts > lo) & (cuts < hi)], extra, [hi])))
    integral, error, status = _tanh_sinh(lambda x: np.exp(log_integrand(x)), cuts[:-1], cuts[1:])
    value, abserr = float(np.sum(integral)), float(np.sum(error))
    stray = float(np.sum((integral + error)[status != 0]))
    if not (0.0 < value < math.inf and abserr <= _REL_TOL * value and stray <= _EPS * value):
        raise QuadFailure(f"tanh-sinh quadrature failed: value={value!r}, abserr={abserr!r}, "
                          f"{np.count_nonzero(status)} of {status.size} intervals open")
    return value


def _checked_quad(func, lo: float, hi: float, weight: str, wvar: float) -> float:
    """QUADPACK's integral of func(y) * weight(wvar * y) over [lo, hi],
    ``weight`` "cos" or "sin", to 1e-14 absolute or ``_REL_TOL`` relative;
    refused if QUADPACK flags it (a full output past three items) or if it
    is not finite."""
    from scipy.integrate import quad
    result = quad(func, lo, hi, weight=weight, wvar=wvar, epsabs=1e-14, epsrel=_REL_TOL,
                  limit=2000, full_output=1)
    value = result[0]
    if len(result) > 3 or not math.isfinite(value):
        raise QuadFailure(
            f"quadrature on [{lo:g}, {hi:g}] failed: value={value!r}, "
            f"abserr={result[1]!r}: {result[-1] if len(result) > 3 else 'non-finite'}"
        )
    return value


# ----------------------------------------------------------------------
# raw moments
# ----------------------------------------------------------------------

def _moment_weights(theta: float, r: int, centre: float) -> Callable:
    """w_n = theta I_r(a) / r! = theta y_r(a) / a, a = theta + n, n < count,
    I_r(a) the integral of u**(a-1) (-log(1-u) - centre)**r: y_r is the
    coefficient of x**r in exp(sum_k q_k x**k), q_k = kappa_k / k! but
    q_1 = kappa_1 - centre, from :func:`_exp_series`."""
    def weights(count: int) -> np.ndarray:
        from scipy.special import binom, digamma, zeta
        k = np.arange(1.0, r + 1.0)
        # the slopes k q_k at a = theta: digamma(a + 1) + Euler's gamma for
        # k = 1, and zeta(k) - zeta(k, a + 1) for k >= 2
        slopes = np.concatenate(([digamma(theta + 1.0) + np.euler_gamma],
                                 zeta(k[1:], 1.0) - zeta(k[1:], theta + 1.0)))
        if theta < 1e-2:
            # the difference cancels where k*theta is small: there take its
            # Taylor series about theta = 0, sum_j (-1)**(j+1) C(k+j-1, j) zeta(k+j) theta**j,
            # whose eleventh term is below 1e-20 of the first
            j = np.arange(1.0, 11.0)
            taylor = ((-1.0) ** (j + 1) * binom(k[:, None] + j - 1, j) * zeta(k[:, None] + j)
                      * theta ** j).sum(axis=1)
            slopes = np.where(k * theta < 1e-2, taylor, slopes)
        # from a to a + 1 each k q_k grows by (a + 1)**-k
        steps = (theta + np.arange(1.0, count)) ** -k[:, None]
        slopes = np.cumsum(np.concatenate((slopes[:, None], steps), axis=1), axis=1)
        slopes[0] -= centre
        bell = _exp_series(list(slopes), r + 1)[r]
        return theta / (theta + np.arange(count)) * bell
    return weights


def _unit_moment(theta: float, r: int, centre: float = 0.0) -> tuple:
    """E[(Y - centre)**r], Y at unit rate, as frexp's (fraction, exponent) of
    r! e/(e-1) sum_n c_n w_n: r! = factorial / 2**bits * 2**bits, the fraction rounded once."""
    series = _u_series((theta + 1.0) / 2.0, theta - 1.0, _moment_weights(theta, r, centre))
    factorial = math.factorial(r)
    bits = factorial.bit_length()
    fraction, scale = math.frexp(math.e / _EM1 * series)
    return fraction * (factorial / (1 << bits)), scale + bits


def raw_moment_series(p: PgduseParams, r: int) -> float:
    """r-th raw moment E[X**r] by term-by-term integration of the u-series.

    E[X**r] = lam**-r r! e/(e-1) sum_n c_n theta y_r(theta + n) / (theta + n),
    the sum at unit rate (:func:`_unit_moment`), and r! and lam**-r applied in
    base-2 log space (:func:`_moment_at`): it underflows to 0.0 or a subnormal.

    Raises
    ------
    SeriesDivergence
        If the series peaks at or past term 1925 (theta >= 3849).
    DomainError
        If the moment overflows a double.
    """
    r = _count("moment order", r, 1)
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    return _moment_at(lam, r, *_unit_moment(theta, r))


def raw_moment_quadrature(kind: ModelKind, p, r: int) -> float:
    """r-th raw moment: rate**-r times the integral of exp(r*log(y) + log_pdf(y)).

    The independent oracle for :func:`raw_moment_series`.
    """
    r = _count("moment order", r, 1)
    rate, unit = _at_unit_rate(kind, p)
    value = _integral(kind, unit, lambda y: r * np.log(y) + log_pdf(kind, unit, y))
    return _moment_at(rate, r, *math.frexp(value))


# ----------------------------------------------------------------------
# generating functions
# ----------------------------------------------------------------------

def _beta_ratios(first: float, step) -> Callable:
    """w_n = B(first + n, step) / B(first, step) for n < count, the products
    of (first + k) / (first + k + step)."""
    def weights(count: int) -> np.ndarray:
        k = first + np.arange(count - 1.0)
        return np.cumprod(np.concatenate(([1.0], k / (k + step))))
    return weights


def _generating_series(theta: float, s):
    """E[exp(s Y)], Y at unit rate, for s = t/lam from :func:`_over_rate`:
    e/(e-1) * theta B(theta, 1-s) * sum_n c_n w_n, w_n = B(theta+n, 1-s) / B(theta, 1-s).

    Where theta B(theta, 1-s) underflows, the value is 0 without the sum:
    Re(1 - s) > 0, so every |w_n| <= 1, and sum_n |c_n| is 1 for
    theta >= 1 and O(1) below.
    """
    c = 1.0 - s
    log, exp = (cmath.log, cmath.exp) if isinstance(c, complex) else (math.log, math.exp)
    # theta B(theta, c) = Gamma(theta+1) Gamma(c) / Gamma(theta+c) = (theta + c) B(theta+1, c)
    log_ratio = log(theta + c) + _log_beta(theta + 1.0, c)
    try:
        ratio = exp(log_ratio)
    except OverflowError:
        raise DomainError(f"E[exp(t X)] overflows a double at t/lambda = {s!r}") from None
    if ratio == 0.0:
        return 0j if isinstance(c, complex) else 0.0
    series = _u_series((theta + 1.0) / 2.0, theta - 1.0, _beta_ratios(theta, c))
    return math.e / _EM1 * ratio * series


def mgf(p: PgduseParams, t: float) -> float:
    """Moment generating function E[exp(t X)]; finite only for t < lam."""
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    return _generating_series(theta, _over_rate(t, lam, 1.0))


def mgf_quadrature(p: PgduseParams, t: float) -> float:
    """Quadrature oracle for :func:`mgf`: the integral of exp(s*y + log_pdf(y)), s = t/lam."""
    rate, unit = _at_unit_rate(ModelKind.PGDUSE, p)
    s = _over_rate(t, rate, 1.0)
    return _integral(ModelKind.PGDUSE, unit,
                     lambda y: s * y + log_pdf(ModelKind.PGDUSE, unit, y))


def cf(p: PgduseParams, t: float) -> complex:
    """Characteristic function E[exp(i t X)]; the mgf series at i*t."""
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    return complex(_generating_series(theta, 1j * _over_rate(t, lam)))


def cf_quadrature(p: PgduseParams, t: float) -> complex:
    """Quadrature oracle for :func:`cf`: E[exp(i s Y)], s = t/lam.

    At s = 0 it is the integral of the density.  Otherwise the support
    splits at the first quarter period, split = min(pi/(2|s|), top), with
    top the quantile at 1 - 2**-50 plus 10 (the mass past it is about
    4e-20).

    * The head [0, split], where cos(s y) and sin(|s| y) are both >= 0:
      below x0 = split * 2**-1000 the cos part is the mass cdf(x0) and the
      sin part 0, each off by at most |s| x0 cdf(x0), below an ulp; on
      [x0, split] each part is one positive tanh-sinh integral of
      :func:`_integral`, cut at the cut quantiles inside and at
      split * 2**-k, k = 1..8.  Where cdf(split) underflows there is no
      head.
    * The tail [split, top], where they oscillate: QUADPACK's cosine and
      sine weights (QAWO) on pieces that end at every other upper cut
      quantile.  A piece that QUADPACK flags raises :class:`QuadFailure`.
      The cos and sin passes place most nodes at the same y, so the
      density is cached for the duration of one call: each distinct node
      costs one scalar ``pdf`` call, and the values are those of one call
      per node.
    """
    kind = ModelKind.PGDUSE
    rate, unit = _at_unit_rate(kind, p)
    s = _over_rate(t, rate)
    if s == 0.0:
        return complex(_integral(kind, unit, lambda y: log_pdf(kind, unit, y)))
    ends = quantile(kind, unit, _TAIL_LEVELS)
    top = float(ends[-1]) + 10.0
    w = abs(s)
    split = min(math.pi / 2.0 / w, top)
    x0 = math.ldexp(split, -1000)
    re = im = 0.0
    below, head = cdf(kind, unit, np.array([x0, split]))
    if head > 0.0:
        cuts = split * 2.0 ** -np.arange(1.0, 9.0)
        re = float(below) + _integral(
            kind, unit, lambda y: np.log(np.cos(w * y)) + log_pdf(kind, unit, y), x0, split, cuts)
        im = _integral(
            kind, unit, lambda y: np.log(np.sin(w * y)) + log_pdf(kind, unit, y), x0, split, cuts)
    # a cache that outlived the call would serve a repeated (p, t) without
    # computing it
    density = functools.cache(lambda y: pdf(kind, unit, y))
    edges = np.concatenate(([split], ends[ends > split], [top]))
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        if lo < hi:
            re += _checked_quad(density, lo, hi, "cos", w)
            im += _checked_quad(density, lo, hi, "sin", w)
    return complex(re, im if s > 0.0 else -im)


def cgf(p: PgduseParams, t: float) -> complex:
    """Cumulant generating function: principal-branch log of the cf."""
    value = cf(p, t)
    if abs(value) < 1e-300:
        raise LogOfZero(f"cf({t:g}) is numerically zero; its log is undefined")
    return cmath.log(value)


# ----------------------------------------------------------------------
# Renyi entropy
# ----------------------------------------------------------------------

def _order(delta) -> float:
    """The Renyi order as a float, which must be positive, finite and != 1."""
    delta = _real("Renyi order", delta)
    if not 0.0 < delta < math.inf or delta == 1.0:
        raise DomainError(f"Renyi order must be positive, finite and != 1, got {delta!r}")
    return delta


def renyi_entropy(kind: ModelKind, p, delta: float) -> float:
    """Renyi entropy of order delta: log(integral of exp(delta*log_pdf)) / (1 - delta).

    Quadrature is the primary definition here, at unit rate less log(rate).
    For shape parameters below 1 the density blows up at 0 and
    ``pdf**delta`` stops being integrable once ``delta * (shape - 1) <= -1``;
    that case raises :class:`QuadFailure` instead of returning a garbage number.
    """
    delta = _order(delta)
    rate, unit = _at_unit_rate(kind, p)
    if delta * _MODELS[kind].edge_exponent(unit.as_tuple()) <= -1.0:
        raise QuadFailure(
            f"pdf**{delta:g} is not integrable at 0 for {kind.value} with these parameters"
        )
    value = _integral(kind, unit, lambda y: delta * log_pdf(kind, unit, y))
    return math.log(value) / (1.0 - delta) - math.log(rate)


def renyi_entropy_series(p: PgduseParams, delta: float) -> float:
    """Series route for the PGDUSE Renyi entropy.

    pdf**delta in u is (theta/(e-1)**theta)**delta u**(alpha-1) P(u)**delta
    (1-u)**(delta-1) lam**delta, alpha = delta*(theta-1) + 1, so

        integral of pdf**delta =
            lam**(delta-1) (theta e/(e-1))**delta B(alpha, delta) sum_n d_n w_n,

    d_n the coefficients of (P(u)/P(1))**delta and
    w_n = B(alpha+n, delta) / B(alpha, delta).  The prefactor is taken in
    log space, where its lam**(delta - 1) gives the scale family's
    -log(lam), so the entropy stays finite at every rate.  Where
    alpha <= 0, pdf**delta is not integrable at 0 and the series raises
    :class:`SeriesDivergence`.
    """
    delta = _order(delta)
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    power = delta * (theta - 1.0)
    alpha = power + 1.0
    if not alpha > 0.0:
        raise SeriesDivergence(
            f"pdf**{delta:g} is not integrable at 0: delta*(theta-1) + 1 = {alpha:g} <= 0"
        )
    kernel = _u_series(delta * (theta + 1.0) / 2.0, power, _beta_ratios(alpha, delta))
    if not kernel > 0.0:
        raise SeriesDivergence("series for the entropy integral lost positivity")
    log_unit = (delta * (math.log(theta) + 1.0 - _LOG_EM1) + _log_beta(alpha, delta)
                + math.log(kernel))
    return log_unit / (1.0 - delta) - math.log(lam)


# ----------------------------------------------------------------------
# convenience summaries
# ----------------------------------------------------------------------

def mean(p: PgduseParams) -> float:
    return raw_moment_series(p, 1)


def variance(p: PgduseParams) -> float:
    return central_moment(p, 2)


def _about_mean(theta: float, *orders: int) -> list:
    """E[(Y - E Y)**r], Y at unit rate, as frexp pairs for each r in
    ``orders``; an even one that is not positive raises SeriesDivergence
    rather than give a negative variance or a complex skewness."""
    centre = math.ldexp(*_unit_moment(theta, 1))
    moments = [_unit_moment(theta, r, centre) for r in orders]
    if any(r % 2 == 0 and not m[0] > 0.0 for r, m in zip(orders, moments)):
        raise SeriesDivergence(f"an even central moment is not positive: {dict(zip(orders, moments))}")
    return moments


def central_moment(p: PgduseParams, r: int) -> float:
    """Central moment E[(X - E X)**r] for any integer r >= 1: the unit-rate
    moment about the mean, rescaled by :func:`_moment_at`."""
    r = _count("moment order", r, 1)
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    return 0.0 if r == 1 else _moment_at(lam, r, *_about_mean(theta, r)[0])


def _standardized(p: PgduseParams, r: int, name: str) -> float:
    """mu_r / mu2**(r/2) at unit rate, which the rate does not change, as
    (mu_r/mu2) / mu2**(r/2 - 1): mu2**(r/2) underflows at a tiny theta."""
    mu2, mu_r = (math.ldexp(*m) for m in _about_mean(_coerce(ModelKind.PGDUSE, p)[1], 2, r))
    value = mu_r / mu2 / (math.sqrt(mu2) if r == 3 else mu2)
    if not math.isfinite(value):
        raise DomainError(f"the {name} overflows a double")
    return value


def skewness(p: PgduseParams) -> float:
    """Skewness mu3 / mu2**1.5."""
    return _standardized(p, 3, "skewness")


def kurtosis(p: PgduseParams) -> float:
    """Plain (non-excess) kurtosis mu4 / mu2**2."""
    return _standardized(p, 4, "kurtosis")
