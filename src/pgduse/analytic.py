"""Moments, generating functions, and entropy for the two-parameter model.

Each analytic quantity comes in two independent routes:

* a series route that expands ``(exp(1 - exp(-lam*x)) - 1)**(theta - 1)``
  with the generalized binomial theorem and integrates term by term, and
* a quadrature route that integrates the density directly: one
  tanh-sinh integral of a log-space integrand over the half-line, by
  scipy's ``tanhsinh`` rule written here in numpy, its nodes passed to
  ``log_pdf`` as one array per level, or for the cf QUADPACK's Fourier
  weights, one float per distinct node, straight to the density kernel.

The series route is exact term-for-term for integer ``theta`` (the
expansion terminates), and for non-integer ``theta`` the terms decay like
an algebraic power of the index; the driver then sums the head exactly
and closes the tail with a fitted power law evaluated through the Hurwitz
zeta function.  Every series value is validated against quadrature in the
test suite.

The tolerances are fixed: a series stops after two consecutive terms below
1e-12, and every quadrature works to a relative error of 1e-10.  The one
option is the series term budget, ``SeriesOptions.max_terms``.

After swapping the order of summation and integration, each term reduces
to a Poisson-weighted mean ``E[h(M)]`` with ``M ~ Poisson(k - shift)``:

* raw moments:      h(m) = (m + 1)**-(r + 1)
* mgf / cf:         h(m) = 1 / (m + 1 - t/lam)        (t -> i*t for the cf)
* Renyi entropy:    h(m) = 1 / (m + delta)

These means are computed in a normalized form that never exponentiates
large magnitudes.  For the first few k the Poisson mean k - shift is
negative and the defining sum alternates; there each mean is the Kummer
series of an integral over [0, 1] (DLMF 13.4.1), whose terms do not
cancel.  The outer sum over k does cancel, so those means are summed in
30-digit decimal arithmetic and rounded once.  The other means are taken
in runs of 8, 16, 32 and then 64 terms: one matrix holds the Poisson
weights of a run's means over a shared window of m, and one product with
h(m) gives them all.  Every weight comes from its log, and each mean is
divided by its row's weight sum, which cancels the rounding the logs share;
the means keep about 1e-14 at every z, 1000 included.  The terms still
enter the sum one at a time, so a run never moves where a series stops or
whether it raises.  The mgf and cf take h in units of 1/lam, so they
depend on lam and t only through t/lam, and no rate scales a weight or h.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable

import numpy as np

from .distributions import (
    _MODELS,
    ModelKind,
    PgduseParams,
    _coerce,
    _count,
    log_pdf,
    pdf,
    quantile,
)
from .errors import DomainError, LogOfZero, QuadFailure, SeriesDivergence

__all__ = [
    "SeriesOptions",
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

_EM1 = math.e - 1.0
_EPS = float(np.finfo(float).eps)
# a series ends after two consecutive terms below this
_ABS_TOL = 1e-12
# a quadrature whose error estimate exceeds this times its value is refused
_REL_TOL = 1e-10


@dataclass(frozen=True)
class SeriesOptions:
    """Term budget of the series expansions, an integer >= 1: a series still
    running after ``max_terms`` terms has its tail closed by a power-law fit."""

    max_terms: int = 200

    def __post_init__(self):
        object.__setattr__(self, "max_terms", _count("max_terms", self.max_terms, 1))


# ----------------------------------------------------------------------
# Poisson-weighted means
# ----------------------------------------------------------------------

# The series terms take their means in runs: the first of this many, each
# next run twice as long, up to the longest.  A run costs one matrix
# product; the means a series that stops inside a run did not need are the
# waste.
_FIRST_RUN = 8
_LONGEST_RUN = 64
# log z at z = 0, where m*log(z) would be 0*(-inf): the row's weights are
# then 1 at m = 0 and below 1e-300 elsewhere
_TINY = float(np.finfo(float).tiny)


def _reach(z: float) -> tuple[int, int]:
    """The first and last m whose Poisson(z) weight a mean takes: z -+
    (12 sqrt(z) + 25), past which the weights are below 1e-30 of their peak."""
    half = 12.0 * math.sqrt(z) + 25.0
    return max(int(z - half), 0), int(z + half) + 1


def _poisson_means(h_vec: Callable, z: np.ndarray, gammaln: Callable) -> np.ndarray:
    """E[h(M)] for M ~ Poisson(z), at every z >= 0 of an ascending array.

    Each row of one weight matrix holds the weights of one z over the m
    that any row reaches, so the means are one product W @ h(m); past its
    own reach a row's weights only shrink.  A row holds
    exp(m log z - z - log m!), and its mean is divided by the row's sum:
    the rounding of log z is shared by the row, so it amounts to a slightly
    different z and cancels.  The -z keeps the logs below 0 near their
    peak at m = z, so exp cannot overflow.
    """
    m = np.arange(_reach(z[0])[0], _reach(z[-1])[1] + 1)
    rows = z[:, None]
    weights = np.multiply(m, np.log(np.maximum(rows, _TINY)))   # the logs, built in place
    weights -= rows
    weights -= gammaln(m + 1.0)
    np.exp(weights, out=weights)
    h = h_vec(m)
    if np.iscomplexobj(h):
        # W @ h would copy W to complex, three times slower
        means = weights @ h.real + 1j * (weights @ h.imag)
    else:
        means = weights @ h
    return means / weights.sum(axis=1)


def _series_means(h_vec: Callable, h_neg: Callable, shift: float, count: int, gammaln: Callable):
    """E[h(M)], M ~ Poisson(k - shift), for k = 0 .. count - 1, as Python numbers.

    Where z = k - shift < 0 the defining sum alternates and cancels
    roughly like exp(2|z|); ``h_neg(-z)`` then gives the same value from a
    series with no cancellation (:func:`_reciprocal_mean`,
    :func:`_power_mean`).  The other means come from :func:`_poisson_means`
    in runs of ``_FIRST_RUN`` up to ``_LONGEST_RUN`` terms, each computed
    when the caller asks for its first mean.
    """
    k = 0
    while k < count and k < shift:
        yield h_neg(shift - k)
        k += 1
    size = _FIRST_RUN
    while k < count:
        stop = min(k + size, count)
        yield from _poisson_means(h_vec, np.arange(k, stop) - shift, gammaln).tolist()
        k, size = stop, min(2 * size, _LONGEST_RUN)


# The z < 0 means enter an alternating outer sum whose terms can be 1e4
# times its value, so a mean a few ulps off shows in the result.  They are
# summed in decimal arithmetic with this many digits, 13 more than a
# double holds, and rounded once.
_DIGITS = 30
# Past m = 2w each term is at most half the one before, so this many more
# terms take the tail below _TAIL of the sum.
_EXTRA_TERMS = 100
_TAIL = Decimal("1e-20")


def _reciprocal_mean(w: float, shift: float, tau: complex = 0.0):
    """E[h(M)], h(m) = 1 / (m + shift - tau), M ~ Poisson(-w), w > 0.

    With b = shift - tau this is the sum over m of w**m / prod_(j=0..m)
    (j + b): the Kummer series of integral_0^1 u**(b-1) exp(w*(1-u)) du
    (DLMF 13.4.1).  For real tau the terms are positive; for complex tau,
    Re b > 0, their moduli fall once m passes w.  A complex ``tau`` gives
    a complex mean.
    """
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        ratio = Decimal(w)
        b_re = Decimal(shift) - Decimal(tau.real)
        b_im = -Decimal(tau.imag)
        norm = b_re * b_re + b_im * b_im
        t_re, t_im = b_re / norm, -b_im / norm          # the m = 0 term, 1/b
        s_re, s_im = t_re, t_im
        for m in range(1, int(2.0 * w) + _EXTRA_TERMS):
            d_re = m + b_re                              # term *= ratio / (d_re + i*b_im)
            k = ratio / (d_re * d_re + b_im * b_im)
            t_re, t_im = k * (t_re * d_re + t_im * b_im), k * (t_im * d_re - t_re * b_im)
            s_re += t_re
            s_im += t_im
            if m > 2.0 * w and abs(t_re) + abs(t_im) <= _TAIL * (abs(s_re) + abs(s_im)):
                if isinstance(tau, complex):
                    return complex(float(s_re), float(s_im))
                return float(s_re)
    raise SeriesDivergence(f"inner Poisson sum at z = {-w:g} failed to converge")


def _power_mean(s: int, w: float) -> float:
    """E[(M + 1)**-s], M ~ Poisson(-w), w > 0, for integer s >= 1.

    Equals the sum of (w**m / m!) * h_(s-1)(1, 1/2, ..., 1/(m+1)) / (m+1),
    where h_k is the complete homogeneous symmetric polynomial; adding the
    variable x updates it in place as h_k += x * h_(k-1).  All terms are
    positive.
    """
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        h = [Decimal(1)] * s               # h_k(1) = 1 for every k
        weight = total = Decimal(1)        # w**m / m! and the sum, at m = 0
        ww = Decimal(w)
        for m in range(1, int(2.0 * w) + _EXTRA_TERMS):
            x = Decimal(1) / (m + 1)
            for k in range(1, s):
                h[k] += x * h[k - 1]
            weight = weight * ww / m
            term = weight * h[-1] * x
            total += term
            if m > 2.0 * w and term <= _TAIL * total:
                return float(total)
    raise SeriesDivergence(f"inner Poisson sum at z = {-w:g} failed to converge")


# ----------------------------------------------------------------------
# binomial-series driver with power-law tail closure
# ----------------------------------------------------------------------

def _binomial_series(
    power: float,
    shift: float,
    h_vec: Callable,
    h_neg: Callable,
    tail_exponent: float,
    opts: SeriesOptions,
):
    """Sum over k of C(power, k) * (-1)**k * E[h(M)], M ~ Poisson(k - shift).

    ``h_vec`` is h on an array of m; ``h_neg(w)`` is the mean at k - shift = -w.
    A complex h gives a complex sum, and either is a Python number.

    The means arrive from :func:`_series_means`, a run of terms at a time,
    but the sum takes them one by one, so where it stops and what it raises
    do not depend on the runs.  A run starts only when the sum needs its
    first mean, after the zero coefficient that ends an integer ``power``.

    Stops when two consecutive terms fall below ``_ABS_TOL`` (exact
    termination for nonnegative-integer ``power``).  If the budget runs out
    first, the remaining tail is closed analytically: the terms behave like
    ``k**(-tail_exponent) * (c0 + c1/k + c2/k**2 + c3/k**3)``, whose sum
    over k >= K is a combination of Hurwitz zeta values.  A held-out term
    cross-checks the fit; any mismatch raises :class:`SeriesDivergence`.
    """
    from scipy.special import gammaln, zeta  # once per series, not per term
    coeff = 1.0
    total = 0.0
    terms: list = []
    below = 0
    means = _series_means(h_vec, h_neg, shift, opts.max_terms, gammaln)
    for k in range(opts.max_terms):
        if coeff == 0.0:
            return total
        term = coeff * next(means)
        terms.append(term)
        total += term
        if abs(term) < _ABS_TOL:
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
    rhs = np.array([terms[kk] * float(kk) ** tail_exponent for kk in nodes])
    coefs = np.linalg.solve(matrix, rhs)
    probe = int(0.57 * (count - 1))
    predicted = sum(coefs[i] * probe ** -float(i) for i in range(4)) * probe ** -tail_exponent
    if abs(predicted - terms[probe]) > 5e-3 * abs(terms[probe]) + 1e-300:
        raise SeriesDivergence("series tail is not a smooth power law; extrapolation refused")
    tail = sum(coefs[i] * zeta(tail_exponent + i, count) for i in range(4))
    return total + tail.item()


# ----------------------------------------------------------------------
# quadrature plumbing
# ----------------------------------------------------------------------

def _validated(kind: ModelKind, p):
    """``p`` checked once: its floats, and the typed vector that ``pdf``,
    ``log_pdf`` and ``quantile`` accept at every quadrature node without
    checking it again."""
    params = _coerce(kind, p)
    return params, _MODELS[kind].param_class(*params)


# the cuts of ``_integral``: the quantiles at 0, 2**-k and 1 - 2**-k,
# k = 50..1.  Each interval holds half the mass of its neighbour towards
# the median, so the nodes follow the density into both tails
_CUT_LEVELS = np.concatenate(([0.0], 2.0 ** -np.arange(50, 0, -1), 1.0 - 2.0 ** -np.arange(2, 51)))


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


def _integral(kind: ModelKind, typed, log_integrand: Callable) -> float:
    """Integral of exp(log_integrand(x)) > 0 over the half-line, by tanh-sinh.

    One :func:`_tanh_sinh` run covers the intervals between the cut
    quantiles (merged where they round together, as the lower ones do at
    small shapes) and out to +inf; the double-exponential map takes the
    singularity at 0 and the infinite limit.  In log space exp(t*x) * pdf
    never overflows.  An unconverged interval's error estimate bounds
    nothing, so it may hold at most an ulp of the value, as tails that
    underflow do.
    """
    cuts = np.unique(quantile(kind, typed, _CUT_LEVELS))
    integral, error, status = _tanh_sinh(lambda x: np.exp(log_integrand(x)), cuts,
                                         np.append(cuts[1:], np.inf))
    value, abserr = float(np.sum(integral)), float(np.sum(error))
    stray = float(np.sum((integral + error)[status != 0]))
    if not (0.0 < value < math.inf and abserr <= _REL_TOL * value and stray <= _EPS * value):
        raise QuadFailure(f"tanh-sinh quadrature failed: value={value!r}, abserr={abserr!r}, "
                          f"{np.count_nonzero(status)} of {status.size} intervals open")
    return value


def _checked_quad(func, lo, hi, weight=None, wvar=None):
    """QUADPACK's integral of ``func`` over [lo, hi], refused if QUADPACK
    flags it (a full output past three items) or if it is not finite."""
    from scipy.integrate import quad
    kwargs = dict(epsabs=1e-300, epsrel=_REL_TOL, limit=2000, full_output=1)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar, epsabs=1e-14)
    result = quad(func, lo, hi, **kwargs)
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

def raw_moment_series(p: PgduseParams, r: int, opts: SeriesOptions = SeriesOptions()) -> float:
    """r-th raw moment E[X**r] by term-by-term integration of the expansion.

    The double sum is ``theta * r! / ((e-1)**theta * lam**r)`` times the
    binomial-series kernel; for ``theta = 2`` it reduces term-for-term to
    the familiar two-sum expression over ``2**m / (m! (1+m)**(r+1))``.
    The kernel does not depend on lam: the moment at lam = 1 is scaled by
    lam**-r in log space, so it underflows to 0.0 or a subnormal.

    Raises
    ------
    SeriesDivergence
        If the term budget is exhausted and tail closure is impossible.
    DomainError
        If the moment overflows a double.
    """
    r = _count("moment order", r, 1)
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    exponent = -(r + 1.0)
    kernel = _binomial_series(theta - 1.0, theta, lambda m: (m + 1.0) ** exponent,
                              lambda w: _power_mean(r + 1, w), theta + r + 1.0, opts)
    unit = theta * math.factorial(r) / _EM1 ** theta * kernel        # the moment at lam = 1
    # lam**-r in base-2 log space: frexp splits unit and lam into fractions
    # and exact powers of two, so only ldexp can overflow or underflow
    fraction, scale = math.frexp(unit)
    mantissa, exponent = math.frexp(lam)
    try:
        return math.ldexp(fraction * mantissa ** -r, scale - r * exponent)
    except OverflowError:
        raise DomainError(f"E[X**{r}] overflows a double at lambda = {lam!r}") from None


def raw_moment_quadrature(kind: ModelKind, p, r: int) -> float:
    """r-th raw moment: the integral of exp(r*log(x) + log_pdf(x)).

    The independent oracle for :func:`raw_moment_series`.
    """
    r = _count("moment order", r, 1)
    _, typed = _validated(kind, p)
    return _integral(kind, typed, lambda x: r * np.log(x) + log_pdf(kind, typed, x))


# ----------------------------------------------------------------------
# generating functions
# ----------------------------------------------------------------------

def _generating_series(lam: float, theta: float, tau, opts: SeriesOptions):
    """E[exp(tau X)] by the binomial series, for real tau < lam or imaginary tau.

    h is in units of 1/lam, so the value depends on lam and tau only
    through tau/lam, as it does for a scale family."""
    s = tau / lam
    if not cmath.isfinite(s):
        raise DomainError(f"t/lambda must be finite, got |t| = {abs(tau)!r}, lambda = {lam!r}")
    prefactor = theta / _EM1 ** theta
    kernel = _binomial_series(theta - 1.0, theta, lambda m: 1.0 / (m + 1.0 - s),
                              lambda w: _reciprocal_mean(w, 1.0, s), theta + 1.0, opts)
    return prefactor * kernel


def _argument(t, below: float = math.inf) -> float:
    """``t`` as a float, which must be finite and below ``below``."""
    try:
        t = float(t)
    except (TypeError, ValueError):
        raise DomainError(f"t must be a real number, got {t!r}") from None
    if not -math.inf < t < below:
        bound = "" if below == math.inf else f" and < lambda ({below:g})"
        raise DomainError(f"t must be finite{bound}, got t={t!r}")
    return t


def mgf(p: PgduseParams, t: float, opts: SeriesOptions = SeriesOptions()) -> float:
    """Moment generating function E[exp(t X)]; finite only for t < lam."""
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    return _generating_series(lam, theta, _argument(t, lam), opts)


def mgf_quadrature(p: PgduseParams, t: float) -> float:
    """Quadrature oracle for :func:`mgf`: the integral of exp(t*x + log_pdf(x))."""
    (lam, _), typed = _validated(ModelKind.PGDUSE, p)
    t = _argument(t, lam)
    return _integral(ModelKind.PGDUSE, typed,
                     lambda x: t * x + log_pdf(ModelKind.PGDUSE, typed, x))


def cf(p: PgduseParams, t: float, opts: SeriesOptions = SeriesOptions()) -> complex:
    """Characteristic function E[exp(i t X)]; the mgf series at i*t."""
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    return complex(_generating_series(lam, theta, 1j * _argument(t), opts))


def cf_quadrature(p: PgduseParams, t: float) -> complex:
    """Oscillatory-quadrature oracle for :func:`cf`.

    At t = 0 it is the integral of the density.  Otherwise, since
    tanh-sinh cannot certify a Fourier integral at large |t|/lambda, it
    uses the QUADPACK cosine/sine weights on the bulk of the support; an
    initial plain slice absorbs the density singularity at 0 (theta < 1).
    A piece that QUADPACK flags raises :class:`QuadFailure`.  The cos and
    sin passes over each piece place most nodes at the same x, so the
    density is cached for the duration of one call: each distinct node
    costs one ``pdf`` call, and the values are those of one call per node.
    """
    (lam, _), typed = _validated(ModelKind.PGDUSE, p)
    t = _argument(t)
    if t == 0.0:
        return complex(_integral(ModelKind.PGDUSE, typed,
                                 lambda x: log_pdf(ModelKind.PGDUSE, typed, x)))
    # a cache that outlived the call would serve a repeated (p, t) without
    # computing it
    density = functools.cache(lambda x: pdf(ModelKind.PGDUSE, typed, x))
    # the cutoff: the far quantile plus an exponential-decay margin
    top = float(quantile(ModelKind.PGDUSE, typed, 1.0 - 1e-13)) + 45.0 / lam
    split = min(0.05 / abs(t), top / 8.0)
    re = _checked_quad(lambda x: math.cos(t * x) * density(x), 0.0, split)
    im = _checked_quad(lambda x: math.sin(t * x) * density(x), 0.0, split)
    re += _checked_quad(density, split, top, weight="cos", wvar=t)
    im += _checked_quad(density, split, top, weight="sin", wvar=t)
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

def _order(delta) -> float:
    """The Renyi order as a float, which must be positive, finite and != 1."""
    try:
        delta = float(delta)
    except (TypeError, ValueError):
        raise DomainError(f"Renyi order must be a real number, got {delta!r}") from None
    if not 0.0 < delta < math.inf or delta == 1.0:
        raise DomainError(f"Renyi order must be positive, finite and != 1, got {delta!r}")
    return delta


def renyi_entropy(kind: ModelKind, p, delta: float) -> float:
    """Renyi entropy of order delta: log(integral of exp(delta*log_pdf)) / (1 - delta).

    Quadrature is the primary definition here.  For shape parameters below
    1 the density blows up at 0 and ``pdf**delta`` stops being integrable
    once ``delta * (shape - 1) <= -1``; that case raises
    :class:`QuadFailure` instead of returning a garbage number.
    """
    delta = _order(delta)
    params, typed = _validated(kind, p)
    if delta * _MODELS[kind].edge_exponent(params) <= -1.0:
        raise QuadFailure(
            f"pdf**{delta:g} is not integrable at 0 for {kind.value} with these parameters"
        )
    value = _integral(kind, typed, lambda x: delta * log_pdf(kind, typed, x))
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

    The prefactor is taken in log space, where its lam**(delta - 1) gives
    the scale family's -log(lam), so the entropy stays finite at every rate.
    Non-integrable parameter combinations surface as
    :class:`SeriesDivergence` (the tail exponent drops to 1 or below).
    """
    delta = _order(delta)
    lam, theta = _coerce(ModelKind.PGDUSE, p)
    power = delta * (theta - 1.0)
    kernel = _binomial_series(power, delta * theta, lambda m: 1.0 / (m + delta),
                              lambda w: _reciprocal_mean(w, delta), power + 2.0, opts)
    if kernel <= 0.0:
        raise SeriesDivergence("series for the entropy integral lost positivity")
    # the log of the prefactor is delta*log(theta) + (delta - 1)*log(lam)
    # - theta*delta*log(e - 1); its lam term, divided by 1 - delta, is -log(lam)
    log_unit = delta * math.log(theta) - theta * delta * math.log(_EM1) + math.log(kernel)
    return log_unit / (1.0 - delta) - math.log(lam)


# ----------------------------------------------------------------------
# convenience summaries
# ----------------------------------------------------------------------

def mean(p: PgduseParams, opts: SeriesOptions = SeriesOptions()) -> float:
    return raw_moment_series(p, 1, opts)


def variance(p: PgduseParams, opts: SeriesOptions = SeriesOptions()) -> float:
    return central_moment(p, 2, opts)


def _central(m: list, r: int) -> float:
    """E[(X - E X)**r] for r in {2, 3, 4} from the raw moments m[i] = E X**(i+1)."""
    if r == 2:
        return m[1] - m[0] ** 2
    if r == 3:
        return m[2] - 3.0 * m[0] * m[1] + 2.0 * m[0] ** 3
    return m[3] - 4.0 * m[0] * m[2] + 6.0 * m[0] ** 2 * m[1] - 3.0 * m[0] ** 4


def central_moment(p: PgduseParams, r: int, opts: SeriesOptions = SeriesOptions()) -> float:
    """Central moment E[(X - E X)**r] for r in {1, 2, 3, 4}."""
    if r not in (1, 2, 3, 4):
        raise DomainError(f"central moments implemented for r in 1..4, got {r!r}")
    if r == 1:
        return 0.0
    return _central([raw_moment_series(p, i, opts) for i in range(1, int(r) + 1)], r)


def skewness(p: PgduseParams, opts: SeriesOptions = SeriesOptions()) -> float:
    m = [raw_moment_series(p, i, opts) for i in (1, 2, 3)]
    return _central(m, 3) / _central(m, 2) ** 1.5


def kurtosis(p: PgduseParams, opts: SeriesOptions = SeriesOptions()) -> float:
    """Plain (non-excess) kurtosis mu4 / mu2**2."""
    m = [raw_moment_series(p, i, opts) for i in (1, 2, 3, 4)]
    return _central(m, 4) / _central(m, 2) ** 2
