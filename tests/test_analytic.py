import cmath
import functools
import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate

import pgduse.analytic
import pgduse.distributions
from pgduse import (
    DomainError,
    ModelKind,
    PgduseError,
    PgduseParams,
    QuadFailure,
    SeriesDivergence,
    central_moment,
    cf,
    cf_quadrature,
    cgf,
    kurtosis,
    mean,
    mgf,
    mgf_quadrature,
    raw_moment_quadrature,
    raw_moment_series,
    renyi_entropy,
    renyi_entropy_series,
    sample,
    skewness,
    variance,
)
from pgduse.analytic import _log_beta, _u_series

from conftest import GRID_LAMBDAS, GRID_THETAS

E = math.e

def two_sum_moment_theta2(lam, r, m_terms=60):
    """The printed two-sum reduction of the moment series at theta = 2."""
    s2 = sum((-1.0) ** m * 2.0 ** m / (math.factorial(m) * (1 + m) ** (r + 1))
             for m in range(m_terms))
    s1 = sum((-1.0) ** m / (math.factorial(m) * (1 + m) ** (r + 1))
             for m in range(m_terms))
    pref = 2.0 * lam * E * math.factorial(r) / ((E - 1.0) ** 2 * lam ** (r + 1))
    return pref * (E * s2 - s1)


def two_sum_mgf_theta2(lam, t, m_terms=60):
    s2 = sum((-1.0) ** m * 2.0 ** m / (math.factorial(m) * (lam + lam * m - t))
             for m in range(m_terms))
    s1 = sum((-1.0) ** m / (math.factorial(m) * (lam + lam * m - t))
             for m in range(m_terms))
    return 2.0 * lam * E / (E - 1.0) ** 2 * (E * s2 - s1)


# ----------------------------------------------------------------------
# the u-series and its Beta functions against mpmath
# ----------------------------------------------------------------------

def _mp_p_ratio(theta, u):
    """P(u) / P(1), P(u) = ((e**u - 1)/u)**(theta - 1) e**u, at 40 digits."""
    with mpmath.workdps(40):
        theta, u = mpmath.mpf(theta), mpmath.mpmathify(u)
        em1 = mpmath.e - 1
        return complex(((mpmath.expm1(u) / u / em1) ** (theta - 1) * mpmath.exp(u - 1)))


@pytest.mark.parametrize("theta", (1e-300, 0.05, 0.5, 1.0, 2.5, 20.0, 200.0))
def test_u_series_coefficients_sum_to_the_closed_form(theta):
    # weights u**n turn the sum into P(u)/P(1) itself, a closed form, at
    # real points and on the unit circle, where every coefficient counts
    # with its phase.  There the terms may cancel (to 3.5e-9 at theta = 20,
    # u = exp(2.5i)), so the error is relative to P(|u|)/P(1), the sum of
    # their moduli where no coefficient is negative.  The Poisson weights
    # of exp(a*u) hold about a ulps where a small u makes the first ones count
    a = (theta + 1) / 2
    for u in (0.25, 0.5, 1.0, cmath.exp(1j), cmath.exp(2.5j), -1.0):
        got = _u_series(a, theta - 1, lambda count: u ** np.arange(count))
        want = _mp_p_ratio(theta, u)
        scale = max(abs(want), abs(_mp_p_ratio(theta, abs(u))))
        assert abs(got - want) <= 1e-14 * max(1.0, a / 20) * scale


@pytest.mark.parametrize("p, q", [
    (3.5, 0.7), (0.7, 3.5), (1e-300, 2.0), (2.0, 1e-12), (1001.0, 1001.0), (3.5, 1e300),
    (201.0, 1.0 - 0.3j), (3.5, 1.0 - 60j), (1.05, 1.0 - 1e6j), (1.0, 1.0 + 1e-250j), (1.5, 1e3 + 1e3j),
], ids=str)
def test_log_beta_matches_mpmath(p, q):
    # log B(p, q) = log Gamma(small) - [log Gamma(p + q) - log Gamma(large)],
    # up to a multiple of 2 pi i, within a few ulps of those two parts;
    # log Gamma(p + q) alone is 6.9e302 at (3.5, 1e300), where the part in
    # brackets is 2418
    with mpmath.workdps(40 + max(0, int(math.log10(max(abs(p), abs(q)))))):
        mp, mq = mpmath.mpmathify(p), mpmath.mpmathify(q)
        small, large = sorted((mp, mq), key=abs)
        parts = (mpmath.loggamma(small), mpmath.loggamma(mp + mq) - mpmath.loggamma(large))
        want = parts[0] - parts[1]
        got = _log_beta(p, q)
        gap = complex(mpmath.mpmathify(got) - want)
    assert isinstance(got, complex) == isinstance(q, complex)
    winding = round(gap.imag / (2 * math.pi))
    assert abs(gap - 2j * math.pi * winding) <= 8e-16 * max(1.0, *(abs(complex(x)) for x in parts))


def _mp_expectation(g, lam, theta, power=1):
    """E[g(X)] at 30 digits by the substitution w = F(u), so X is a function
    of w on (0, 1): u = log(1 + (e-1) w**(1/theta)) and X = -log(1-u)/lam.
    Below w = 1/2, w = s**power tames an algebraic singularity at 0; above
    it, 1 - u comes from v = 1 - w = exp(-y) without cancelling, and the
    factor exp(-y) makes the integrand decay."""
    with mpmath.workdps(40):
        lam, theta, e = mpmath.mpf(lam), mpmath.mpf(theta), mpmath.e

        def low(s):
            u = mpmath.log1p((e - 1) * s ** (power / theta))
            return g(-mpmath.log1p(-u) / lam) * power * s ** (power - 1)

        def high(y):
            v = mpmath.exp(-y)
            one_minus_u = -mpmath.log1p((e - 1) * mpmath.expm1(mpmath.log1p(-v) / theta) / e)
            return g(-mpmath.log(one_minus_u) / lam) * v

        cuts = [mpmath.mpf(0)] + [mpmath.mpf(10) ** -k for k in range(40, 0, -2)]
        low_part = mpmath.quad(low, cuts + [mpmath.mpf(2) ** (-1 / mpmath.mpf(power))])
        return low_part + mpmath.quad(high, [mpmath.log(2), 2, 5, 10, 20, 40, 80, mpmath.inf])


def _mp_renyi(lam, theta, delta):
    """The Renyi entropy as log(E[pdf(X)**(delta-1)]) / (1 - delta), at 30 digits."""
    lam_, theta_ = mpmath.mpf(lam), mpmath.mpf(theta)

    def g(x):
        u = -mpmath.expm1(-lam_ * x)
        log_pdf = (mpmath.log(theta_ * lam_) + (theta_ - 1) * mpmath.log(mpmath.expm1(u)) + u
                   - theta_ * mpmath.log(mpmath.e - 1) - lam_ * x)
        return mpmath.exp((delta - 1) * log_pdf)

    # near 0, pdf**(delta-1) dw grows like w**(q - 1), q = 1 + (delta-1)(theta-1)/theta
    q = 1 + (delta - 1) * (theta_ - 1) / theta_
    with mpmath.workdps(40):
        return mpmath.log(_mp_expectation(g, lam, theta, max(1, 1 / q))) / (1 - delta)


@functools.cache
def _mp_central(theta, r):
    """E[(X - E X)**r] at unit rate, at 30 digits (r = 1 gives the mean)."""
    if r == 1:
        return _mp_expectation(lambda x: x, 1, theta)
    m = _mp_central(theta, 1)
    return _mp_expectation(lambda x: (x - m) ** r, 1, theta)


# the values the binomial series got wrong: a mean off by 1e17, negative
# second moments and variances, an mgf off by 35%, a cf off by 1.3e-2 and a
# Renyi entropy where the oracle refuses; and the summaries at large shapes,
# where raw moments near log(theta) cancelled to 1.2e-10 in the skewness
REFERENCES = {
    "mean-100": (lambda: mean((1.0, 100.0)), lambda: _mp_expectation(lambda x: x, 1, 100)),
    "variance-50": (lambda: variance((1.0, 50.0)),
                    lambda: _mp_expectation(lambda x: x * x, 1, 50)
                    - _mp_expectation(lambda x: x, 1, 50) ** 2),
    "moment2-50": (lambda: raw_moment_series((1.0, 50.0), 2),
                   lambda: _mp_expectation(lambda x: x * x, 1, 50)),
    "mgf-50": (lambda: mgf((1.0, 50.0), 0.3), lambda: _mp_expectation(lambda x: mpmath.exp(0.3 * x), 1, 50)),
    "cf-50": (lambda: cf((1.0, 50.0), 0.3), lambda: _mp_expectation(lambda x: mpmath.expj(0.3 * x), 1, 50)),
    "mgf-far-left": (lambda: mgf((1.0, 2.5), -1e3),
                     lambda: _mp_expectation(lambda x: mpmath.exp(-1000 * x), 1, 2.5)),
    "cf-small-shape": (lambda: cf((0.5, 0.2), 30.0),
                       lambda: _mp_expectation(lambda x: mpmath.expj(30 * x), 0.5, 0.2)),
    "renyi-edge": (lambda: renyi_entropy_series((1.0, 0.5), 1.98), lambda: _mp_renyi(1, 0.5, 1.98)),
    "central5-50": (lambda: central_moment((1.0, 50.0), 5), lambda: _mp_central(50, 5)),
}
for _theta in (1000, 3000):
    REFERENCES.update({
        f"variance-{_theta}": (lambda t=_theta: variance((1.0, t)), lambda t=_theta: _mp_central(t, 2)),
        f"skewness-{_theta}": (lambda t=_theta: skewness((1.0, t)),
                               lambda t=_theta: _mp_central(t, 3) / _mp_central(t, 2) ** 1.5),
        f"kurtosis-{_theta}": (lambda t=_theta: kurtosis((1.0, t)),
                               lambda t=_theta: _mp_central(t, 4) / _mp_central(t, 2) ** 2),
    })


@pytest.mark.parametrize("case", REFERENCES)
def test_series_match_30_digit_references(case):
    series, reference = REFERENCES[case]
    got, want = series(), complex(reference())
    assert type(got) is (complex if case.startswith("cf") else float)
    # the u-series' error grows with the shape: the summaries at theta = 3000
    # measure 3.4e-13 (variance) to 6.4e-12 (skewness)
    assert abs(got - want) <= (1e-11 if case.endswith(("-1000", "-3000")) else 1e-13) * abs(want)


def _mp_mgf_from_survival(t, theta):
    """E[exp(t X)] at unit rate = 1 + t * integral of exp(t x) (1 - F(x)), at
    30 digits.  At a tiny shape F is near 1 everywhere, and
    1 - F = -expm1(theta log G) keeps its digits; log G is taken from
    1 - u = exp(-x) past x = 1, where G is near 1."""
    with mpmath.workdps(40):
        t, theta, e = mpmath.mpf(t), mpmath.mpf(theta), mpmath.e

        def survival(x):
            if x < 1:
                log_g = mpmath.log(mpmath.expm1(-mpmath.expm1(-x)) / (e - 1))
            else:
                log_g = mpmath.log1p(e * mpmath.expm1(-mpmath.exp(-x)) / (e - 1))
            return -mpmath.expm1(theta * log_g)

        cuts = [0] + [mpmath.mpf(10) ** -k for k in range(30, 0, -3)] + [1, 4, 16, 64, mpmath.inf]
        return 1 + t * mpmath.quad(lambda x: mpmath.exp(t * x) * survival(x), cuts)


@pytest.mark.parametrize("theta", (1e-300, 1e-10, 0.05))
def test_mgf_at_a_tiny_shape(theta):
    # nearly all the mass sits at 0, and the mgf is finite, near 1
    for t in (-2.0, 0.9):
        want = _mp_mgf_from_survival(t, theta)
        assert mgf((1.0, theta), t) == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("theta", (1e-10, 1e-3, 0.05))
def test_moments_at_a_small_shape(theta):
    # kappa_k(theta) is a difference that cancels as theta -> 0; below
    # k*theta = 1e-2 it comes from its Taylor series instead
    for r in (1, 2):
        want = _mp_expectation(lambda x: x ** r, 1, theta)
        assert raw_moment_series((1.0, theta), r) == pytest.approx(float(want), rel=1e-14)


def test_moments_vanish_in_proportion_to_a_tiny_shape():
    # E[X**r] / theta tends to a constant as theta -> 0
    for r in (1, 2, 4):
        limit = raw_moment_series((1.0, 1e-20), r) / 1e-20
        assert raw_moment_series((1.0, 1e-300), r) / 1e-300 == pytest.approx(limit, rel=1e-15)


# ----------------------------------------------------------------------
# raw moments
# ----------------------------------------------------------------------

def test_first_moment_theta1_frozen():
    # (e/(e-1)) * sum (-1)^m / (m! (1+m)^2), oracle: quadrature of x*pdf
    closed = E / (E - 1.0) * sum(
        (-1.0) ** m / (math.factorial(m) * (1 + m) ** 2) for m in range(40)
    )
    value = raw_moment_series(PgduseParams(1.0, 1.0), 1)
    oracle = raw_moment_quadrature(ModelKind.PGDUSE, (1.0, 1.0), 1)
    assert value == pytest.approx(closed, rel=1e-12)
    assert value == pytest.approx(oracle, rel=1e-9)
    assert oracle == pytest.approx(1.2602020107602854, rel=1e-10)


def test_first_moment_theta2_matches_two_sum_form():
    for lam in GRID_LAMBDAS:
        for r in (1, 2, 3):
            printed = two_sum_moment_theta2(lam, r)
            assert raw_moment_series(PgduseParams(lam, 2.0), r) == pytest.approx(
                printed, rel=1e-12
            )
    assert raw_moment_series(PgduseParams(1.0, 2.0), 1) == pytest.approx(
        1.834838403029303, rel=1e-9
    )


def test_moment_scale_family():
    half = raw_moment_series(PgduseParams(2.0, 1.0), 1)
    unit = raw_moment_series(PgduseParams(1.0, 1.0), 1)
    assert half == pytest.approx(unit / 2.0, rel=1e-12)


@pytest.mark.parametrize("theta", GRID_THETAS)
def test_moment_scaling_invariance(theta):
    # mu_r * lam**r must not depend on lam
    for r in (1, 2, 3, 4):
        values = [
            raw_moment_series(PgduseParams(lam, theta), r) * lam ** r
            for lam in GRID_LAMBDAS
        ]
        spread = (max(values) - min(values)) / abs(values[0])
        assert spread < 1e-9


def test_raw_moment_quadrature_exponential_sanity():
    assert raw_moment_quadrature(ModelKind.ED, (1.0,), 1) == pytest.approx(1.0, abs=1e-9)
    assert raw_moment_quadrature(ModelKind.ED, (1.0,), 2) == pytest.approx(2.0, abs=1e-9)


def test_raw_moment_rejects_bad_order():
    with pytest.raises(DomainError):
        raw_moment_series(PgduseParams(1.0, 1.0), 0)
    with pytest.raises(DomainError):
        raw_moment_quadrature(ModelKind.PGDUSE, (1.0, 1.0), -1)


# rates from the bottom to the top of the double range
RATES = (1e-300, 1e-200, 1e-3, 1.0, 1e3, 1e200, 1e300)
# each kind's parameters with its rate set to lam
AT_RATE = {ModelKind.PGDUSE: lambda lam: (lam, 2.5), ModelKind.GDUSE: lambda lam: (1.5, lam),
           ModelKind.DUSE: lambda lam: (lam,), ModelKind.KME: lambda lam: (lam,),
           ModelKind.ED: lambda lam: (lam,)}
# the moment routes as functions of (lam, r): the series and every kind's oracle
MOMENT_ROUTES = [lambda lam, r: raw_moment_series(PgduseParams(lam, 2.5), r)] + [
    lambda lam, r, kind=kind: raw_moment_quadrature(kind, AT_RATE[kind](lam), r)
    for kind in ModelKind]


@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_moments_scale_by_a_power_of_the_rate(r):
    # E[X**r] at lam is the unit-rate moment times lam**-r: within 2 ulps
    # where that is a normal double, exact where it is subnormal (r = 2 at
    # lam = 1e160) or underflows to 0, and a DomainError where it overflows.
    # So are the central moments and the variance, each summed at unit rate
    # about the mean, and skewness and kurtosis do not depend on lam at all
    routes = MOMENT_ROUTES + [lambda lam, r: central_moment(PgduseParams(lam, 2.5), r)]
    if r == 2:
        routes.append(lambda lam, r: variance(PgduseParams(lam, 2.5)))
    for route in routes:
        unit = route(1.0, r)
        with mpmath.workdps(40):
            for lam in RATES + (1e-100, 1e100, 1e150, 1e160):
                want = mpmath.mpf(unit) * mpmath.mpf(lam) ** -r
                if want > sys.float_info.max:
                    with pytest.raises(DomainError):
                        route(lam, r)
                else:
                    assert route(lam, r) == pytest.approx(float(want), rel=4.5e-16, abs=0.0)
    for summary in (skewness, kurtosis):
        assert {summary((lam, 2.5)) for lam in RATES + (1e-100, 1e100, 1e150)} == {summary((1.0, 2.5))}


def test_variance_positive_on_grid():
    for lam in GRID_LAMBDAS:
        for theta in GRID_THETAS:
            assert variance(PgduseParams(lam, theta)) > 0.0


def test_series_means_come_in_runs_within_the_budget(monkeypatch):
    # a sum asks for its weights once, for one window of a + 18 sqrt(a) + 22
    # terms, a the peak of the series
    sizes = []
    u_series = pgduse.analytic._u_series

    def spy(a, b, weights):
        def counted(count):
            sizes.append(count)
            return weights(count)
        return u_series(a, b, counted)

    monkeypatch.setattr(pgduse.analytic, "_u_series", spy)
    # a = (theta + 1)/2
    for theta, window in ((0.5, 38), (1.0, 41), (2.0, 45), (2.5, 47), (5.0, 56), (150.0, 253)):
        raw_moment_series(PgduseParams(1.0, theta), 2)
        assert sizes == [window]
        sizes.clear()
    # the Renyi series peaks at a = delta (theta + 1)/2 = 87.5
    renyi_entropy_series(PgduseParams(1.0, 2.5), 50.0)
    assert sizes == [277]


@pytest.mark.parametrize("call, error", [
    (lambda: raw_moment_series((1.0, 2.5), 171), DomainError),
    (lambda: mean((1.0, 3849.0)), SeriesDivergence),
    (lambda: mean((1.0, 1e300)), SeriesDivergence),
    (lambda: mgf((1.0, 3849.0), 0.3), SeriesDivergence),
    (lambda: renyi_entropy_series((1.0, 1924.0), 2.0), SeriesDivergence),
    (lambda: renyi_entropy_series((1.0, 2.5), 1e300), SeriesDivergence),
], ids=["moment-171", "mean-3849", "mean-1e300", "mgf-3849", "renyi-1924", "renyi-order-1e300"])
def test_out_of_reach_series_raise_a_pgduse_error(call, error):
    # E[X**171] overflows a double at unit rate; the others peak at or past
    # term 1925, where the Poisson weights of the series overflow
    with pytest.raises(error):
        call()


# a shape from the bottom of the double range to its top, across the peak
# a = 700 (theta = 1399), where the Poisson weights start to spread their
# exp(-a), and the reach of 1925, where they would overflow; t from far
# left to far right, and Renyi orders to 1e300
SWEEP_THETAS = (1e-300, 1e-10, 0.5, 2.5, 50.0, 700.0, 1398.0, 1500.0, 3000.0, 3849.0, 1e5, 1e300)
SWEEP_CALLS = (
    [lambda p, r=r: raw_moment_series(p, r) for r in (1, 2, 4)]
    + [lambda p, t=t: mgf(p, t) for t in (-1e6, -1.0, 0.5, 0.999)]
    + [lambda p, t=t, route=route: route(p, t) for route in (cf, cgf) for t in (-1e3, 3.0, 1e6)]
    + [lambda p, d=d: renyi_entropy_series(p, d) for d in (1e-300, 0.5, 2.0, 1e3, 1e300)]
    + [variance, skewness, kurtosis])


def test_series_sweep_warns_nothing_and_raises_only_pgduse_errors():
    # every series route at every shape either returns or raises one of
    # the package's errors, and no numpy warning escapes a sum whose terms
    # all underflow (mgf at theta = 1398, t = -1e6) or overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta, call in itertools.product(SWEEP_THETAS, SWEEP_CALLS):
            try:
                value = call(PgduseParams(1.0, theta))
            except PgduseError:
                continue
            assert cmath.isfinite(value)


@pytest.mark.parametrize("theta", (1e-150, 1e-300))
def test_skewness_and_kurtosis_at_a_tiny_shape(theta):
    # mu2**1.5 and mu2**2 underflow here, but the standardized moments do
    # not: skewness * sqrt(theta) and kurtosis * theta tend to constants
    assert skewness((1.0, theta)) * math.sqrt(theta) == pytest.approx(1.48971434769907, rel=1e-13)
    assert kurtosis((1.0, theta)) * theta == pytest.approx(3.08176226111899, rel=1e-13)


def test_a_kurtosis_past_the_double_range_is_a_domain_error():
    # about 3.08 / theta, past the largest double at a subnormal theta
    with pytest.raises(DomainError):
        kurtosis((1.0, 1e-310))
    assert skewness((1.0, 1e-310)) == pytest.approx(1.48971434769907 / math.sqrt(1e-310), rel=1e-6)


def test_large_orders_and_shapes_within_reach():
    # the same quantities where they fit a double and the series' reach:
    # r! and lam**-r meet in log space, and a large shape only needs more terms
    want = _mp_expectation(lambda x: x ** 171, 10, 2.5)
    assert raw_moment_series((10.0, 2.5), 171) == pytest.approx(float(want), rel=1e-13)
    want = _mp_expectation(lambda x: x, 1, 1500)
    assert mean((1.0, 1500.0)) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("theta", (1.0, 2.0, 2.5))
def test_series_routes_return_python_numbers(theta):
    # every sum is a numpy reduction, converted once
    p = PgduseParams(1.0, theta)
    for value in (raw_moment_series(p, 2), mgf(p, 0.3), mean(p), variance(p), skewness(p),
                  kurtosis(p), central_moment(p, 3), renyi_entropy_series(p, 2.0)):
        assert type(value) is float
    assert type(cf(p, 0.7)) is complex
    assert type(cgf(p, 0.7)) is complex


# ----------------------------------------------------------------------
# mgf / cf / cgf
# ----------------------------------------------------------------------

def test_mgf_at_zero_is_one():
    for lam in GRID_LAMBDAS:
        for theta in GRID_THETAS:
            assert mgf(PgduseParams(lam, theta), 0.0) == pytest.approx(1.0, abs=1e-10)


def test_mgf_theta2_at_zero_component_sums():
    # the two inner sums of the printed theta = 2 form at t = 0
    s2 = sum((-1.0) ** m * 2.0 ** m / (math.factorial(m) * (1 + m)) for m in range(40))
    s1 = sum((-1.0) ** m / (math.factorial(m) * (1 + m)) for m in range(40))
    assert s2 == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, abs=1e-14)
    assert s1 == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
    assert two_sum_mgf_theta2(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert mgf(PgduseParams(1.0, 2.0), 0.3) == pytest.approx(
        two_sum_mgf_theta2(1.0, 0.3), rel=1e-12
    )


def test_mgf_against_quadrature_oracle():
    value = mgf(PgduseParams(1.0, 1.0), 0.5)
    oracle = mgf_quadrature(PgduseParams(1.0, 1.0), 0.5)
    assert oracle == pytest.approx(2.3629167644742886, rel=1e-9)
    assert value == pytest.approx(oracle, rel=1e-6)


def test_mgf_domain_boundary():
    with pytest.raises(DomainError):
        mgf(PgduseParams(1.0, 1.0), 1.0)
    with pytest.raises(DomainError):
        mgf_quadrature(PgduseParams(1.0, 1.0), 2.0)


def test_cf_cgf_at_zero():
    for lam in GRID_LAMBDAS:
        for theta in GRID_THETAS:
            value = cf(PgduseParams(lam, theta), 0.0)
            assert value.real == pytest.approx(1.0, abs=1e-10)
            assert value.imag == pytest.approx(0.0, abs=1e-10)
            k = cgf(PgduseParams(lam, theta), 0.0)
            assert abs(k) < 1e-10


def test_cf_against_oscillatory_quadrature():
    value = cf(PgduseParams(1.0, 1.0), 1.0)
    oracle = cf_quadrature(PgduseParams(1.0, 1.0), 1.0)
    assert oracle.real == pytest.approx(0.3442670491739716, abs=1e-9)
    assert oracle.imag == pytest.approx(0.5404007433137896, abs=1e-9)
    assert value.real == pytest.approx(oracle.real, abs=1e-6)
    assert value.imag == pytest.approx(oracle.imag, abs=1e-6)


def test_cf_modulus_bounded():
    for lam in GRID_LAMBDAS:
        for theta in GRID_THETAS:
            for t in (0.5, 1.0, 3.0):
                assert abs(cf(PgduseParams(lam, theta), t)) <= 1.0 + 1e-9


def test_cgf_is_log_of_cf():
    p = PgduseParams(1.0, 2.0)
    value = cgf(p, 0.7)
    assert np.exp(value) == pytest.approx(cf(p, 0.7), rel=1e-12)


# t/lambda of the mgf, and of the cf and cgf: both signs, the tiny ratio of
# an O(1) t at a huge rate, and 0.  The cf oracle takes three, as each
# call runs four QUADPACK passes
SCALE_FAMILY = {mgf: (-2.0, -1e-250, 0.0, 0.3, 0.9), cf: (-3.0, 1e-250, 0.5, 3.0),
                cgf: (-3.0, 1e-250, 0.5, 3.0), mgf_quadrature: (-2.0, -1e-250, 0.0, 0.3, 0.9),
                cf_quadrature: (-0.5, 1e-250, 3.0)}


@pytest.mark.parametrize("route", SCALE_FAMILY, ids=lambda f: f.__name__)
@pytest.mark.parametrize("theta", (0.5, 2.5, 7.5))
def test_generating_functions_are_a_scale_family(route, theta):
    # X at rate lam is X at rate 1 over lam, so E[exp(t X)] at lam is the
    # unit-rate value at t/lam, bit for bit, however far lam is from 1
    for lam in (1e-300, 1e-200, 1e-3, 0.5, 2.0, 1e3, 1e200, 1e300):
        for s in SCALE_FAMILY[route]:
            t = s * lam
            value = route(PgduseParams(lam, theta), t)
            assert value == route(PgduseParams(1.0, theta), t / lam)
            assert cmath.isfinite(value)


def test_an_overflowing_t_over_lambda_is_a_domain_error():
    with pytest.raises(DomainError):
        mgf(PgduseParams(1e-10, 2.5), -1e300)
    with pytest.raises(DomainError):
        cf(PgduseParams(1e-300, 2.5), 1e300)


# ----------------------------------------------------------------------
# Renyi entropy
# ----------------------------------------------------------------------

def test_renyi_closed_form_theta1():
    # substitution u = exp(-x) collapses the integral of g^2 for theta = 1
    closed = -math.log((E / (E - 1.0)) ** 2 * (1.0 - 3.0 * math.exp(-2.0)) / 4.0)
    assert closed == pytest.approx(0.9898298780100712, abs=1e-15)
    assert renyi_entropy(ModelKind.PGDUSE, (1.0, 1.0), 2.0) == pytest.approx(closed, rel=1e-9)
    assert renyi_entropy_series(PgduseParams(1.0, 1.0), 2.0) == pytest.approx(
        closed, rel=1e-9
    )


def test_renyi_exponential_sanity():
    assert renyi_entropy(ModelKind.ED, (1.0,), 2.0) == pytest.approx(math.log(2.0), rel=1e-9)


def test_renyi_scale_shift():
    base = renyi_entropy(ModelKind.PGDUSE, (1.0, 2.0), 2.0)
    halved = renyi_entropy(ModelKind.PGDUSE, (2.0, 2.0), 2.0)
    assert halved == pytest.approx(base - math.log(2.0), rel=1e-9)


@pytest.mark.parametrize("theta, delta", [(0.5, 0.5), (2.5, 0.5), (2.5, 2.0), (7.5, 3.0)])
def test_renyi_series_is_a_scale_family(theta, delta):
    # the entropy at lam is the unit-rate entropy - log(lam), bit for bit
    # and finite at every rate the double range holds, by the series and
    # by every kind's oracle (theta is GDUSE's alpha too)
    at_rate = {**AT_RATE, ModelKind.PGDUSE: lambda lam: (lam, theta),
               ModelKind.GDUSE: lambda lam: (theta, lam)}
    routes = [lambda lam: renyi_entropy_series(PgduseParams(lam, theta), delta)] + [
        lambda lam, kind=kind: renyi_entropy(kind, at_rate[kind](lam), delta) for kind in ModelKind]
    for route in routes:
        unit = route(1.0)
        for lam in RATES:
            value = route(lam)
            assert value == unit - math.log(lam) and math.isfinite(value)


@pytest.mark.parametrize("delta", (0.5, 2.0, 3.0))
def test_renyi_series_matches_quadrature(delta):
    for theta in (1.0, 2.0):
        q = renyi_entropy(ModelKind.PGDUSE, (1.0, theta), delta)
        s = renyi_entropy_series(PgduseParams(1.0, theta), delta)
        assert s == pytest.approx(q, rel=1e-5, abs=1e-8)


def test_renyi_series_keeps_its_digits_where_the_outer_sum_cancels():
    # theta = 5, delta > 2: the sum of |terms| is about 1e4 times the
    # value, so a few ulps lost in each z < 0 mean show up here.
    # Reference: log(integral of pdf**delta) / (1 - delta) with mpmath at
    # 60 digits
    value = renyi_entropy_series(PgduseParams(2.0, 5.0), 2.6633423704598)
    assert value == pytest.approx(0.58906649289810885194, rel=1e-12)


def test_renyi_non_integrable_reports_failure():
    # delta*(1 - theta) >= 1: the integrand is not integrable at the origin
    with pytest.raises(QuadFailure):
        renyi_entropy(ModelKind.PGDUSE, (1.0, 0.5), 2.0)
    with pytest.raises(SeriesDivergence):
        renyi_entropy_series(PgduseParams(1.0, 0.5), 2.0)
    with pytest.raises(QuadFailure):
        renyi_entropy(ModelKind.GDUSE, (0.4, 1.0), 2.0)


def _mp_log_pdf(kind, params, x):
    """The log-density at the working precision, written from the cdfs."""
    log_em1 = mpmath.log(mpmath.e - 1)
    if kind is ModelKind.PGDUSE:
        lam, theta = map(mpmath.mpf, params)
        f = -mpmath.expm1(-lam * x)
        return (mpmath.log(theta * lam) + (theta - 1) * mpmath.log(mpmath.expm1(f))
                - theta * log_em1 + f - lam * x)
    if kind is ModelKind.GDUSE:
        alpha, beta = map(mpmath.mpf, params)
        f = -mpmath.expm1(-beta * x)
        return mpmath.log(alpha * beta) + (alpha - 1) * mpmath.log(f) + f ** alpha - beta * x - log_em1
    theta = mpmath.mpf(params[0])
    if kind is ModelKind.KME:
        return 1 + mpmath.log(theta) - log_em1 - theta * x + mpmath.expm1(-theta * x)
    return mpmath.log(theta) - theta * x


def _mp_integral(kind, params, log_integrand):
    """Integral of exp(log_integrand) over (0, inf) at 30 digits, split
    at a few quantiles so each piece is smooth."""
    cuts = [float(c) for c in pgduse.distributions.quantile(kind, params, [0.1, 0.5, 0.9, 0.999])]
    with mpmath.workdps(30):
        return mpmath.quad(lambda x: mpmath.exp(log_integrand(x)), [0] + cuts + [mpmath.inf])


@pytest.mark.parametrize("kind, params", [
    (ModelKind.PGDUSE, (0.5, 0.5)), (ModelKind.PGDUSE, (2.0, 5.0)), (ModelKind.PGDUSE, (1.0, 1e6)),
    (ModelKind.GDUSE, (0.5, 2.3)), (ModelKind.KME, (1.0,)), (ModelKind.ED, (2.0,)),
], ids=str)
def test_quadrature_oracles_match_mpmath(kind, params):
    # the tanh-sinh oracles over the whole half-line, within 1e-10 of
    # 30-digit integrals; Renyi entropies are scaled by max(1, |H|)
    for r in (1, 2, 3, 4):
        want = _mp_integral(kind, params, lambda x: r * mpmath.log(x) + _mp_log_pdf(kind, params, x))
        assert raw_moment_quadrature(kind, params, r) == pytest.approx(float(want), rel=1e-10)
    edge = pgduse.distributions._MODELS[kind].edge_exponent(params)
    for delta in (0.5, 2.5):
        if delta * edge <= -1.0:
            with pytest.raises(QuadFailure):
                renyi_entropy(kind, params, delta)
            continue
        integral = _mp_integral(kind, params, lambda x: delta * _mp_log_pdf(kind, params, x))
        want = float(mpmath.log(integral) / (1 - delta))
        assert renyi_entropy(kind, params, delta) == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


@pytest.mark.parametrize("t", (-1.0, 0.4, 0.95, 0.99))
def test_quadrature_oracles_match_mpmath_for_the_mgf(t):
    # exp(t*x + log_pdf) stays finite where exp(t*x) alone would overflow
    kind, params = ModelKind.PGDUSE, (1.0, 2.0)
    want = _mp_integral(kind, params, lambda x: t * x + _mp_log_pdf(kind, params, x))
    assert mgf_quadrature(params, t) == pytest.approx(float(want), rel=1e-10)


def test_quadrature_refuses_an_open_interval(monkeypatch):
    # an interval that stopped before converging fails the oracle even
    # when the summed error estimate looks small
    real = pgduse.analytic._tanh_sinh

    def stop_the_largest(func, a, b):
        integral, error, status = real(func, a, b)
        status[np.argmax(integral)] = -2
        return integral, error, status

    monkeypatch.setattr(pgduse.analytic, "_tanh_sinh", stop_the_largest)
    with pytest.raises(QuadFailure):
        raw_moment_quadrature(ModelKind.PGDUSE, (1.0, 2.0), 1)


def _oracle_integrands(kind, typed):
    """The oracles' log-integrands: moments 1-4, the Renyi orders 0.5 and
    2.5, the cf at t = 0 and, for PGDUSE, the mgf at t = -1 and lam/2."""
    log_pdf = lambda x: pgduse.distributions.log_pdf(kind, typed, x)
    integrands = [lambda x, r=r: r * np.log(x) + log_pdf(x) for r in (1, 2, 3, 4)]
    integrands += [lambda x, d=d: d * log_pdf(x) for d in (0.5, 2.5)] + [log_pdf]
    if kind is ModelKind.PGDUSE:
        integrands += [lambda x, t=t: t * x + log_pdf(x) for t in (-1.0, typed.lam / 2)]
    return integrands


@pytest.mark.parametrize("kind, params", [
    *[(ModelKind.PGDUSE, (1.0, theta)) for theta in (1e-3, 0.5, 1.0, 2.5, 5.0, 1e6)],
    (ModelKind.GDUSE, (0.5, 2.3)), (ModelKind.KME, (1.0,)), (ModelKind.ED, (2.0,)),
], ids=str)
def test_tanh_sinh_is_scipys_rule(kind, params):
    # on the oracles' own intervals, interval by interval: the status of
    # scipy.integrate.tanhsinh, and its integral and error estimate within
    # 1e-14.  The Renyi order 2.5 is not integrable at the smaller shapes,
    # where both rules must fail alike
    _, typed = pgduse.analytic._at_unit_rate(kind, params)
    cuts = np.unique(pgduse.distributions.quantile(kind, typed, pgduse.analytic._CUT_LEVELS))
    upper = np.append(cuts[1:], np.inf)
    for log_integrand in _oracle_integrands(kind, typed):
        func = lambda x: np.exp(log_integrand(x))
        with np.errstate(all="ignore"):
            want = scipy.integrate.tanhsinh(func, cuts, upper, rtol=pgduse.analytic._REL_TOL)
        integral, error, status = pgduse.analytic._tanh_sinh(func, cuts, upper)
        np.testing.assert_array_equal(status, want.status)
        np.testing.assert_allclose(integral, want.integral, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(error, want.error, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("call", [
    lambda: renyi_entropy(ModelKind.PGDUSE, (1.0, 0.5), 1.98),
    lambda: renyi_entropy(ModelKind.GDUSE, (0.01, 1.0), 1.0101),
    lambda: mgf_quadrature((1.0, 2.0), 1.0 - 1e-9),
    lambda: cf_quadrature((0.5, 0.05), 0.0),
    lambda: mgf_quadrature((0.5, 0.05), 0.1),
], ids=["renyi-pgduse", "renyi-gduse", "mgf-near-the-rate", "cf-at-0", "mgf-small-shape"])
def test_oracles_refuse_an_unconverged_integral(call):
    # each leaves an interval open that holds more than an ulp of the value
    with pytest.raises(QuadFailure):
        call()


def test_quadpack_gate_refuses_a_flagged_result(monkeypatch):
    # a result QUADPACK flags (a fourth item, its message) is refused even
    # when its error estimate is tiny; the cf imports quad at each call
    def flagged(*args, **kwargs):
        return 0.5, 1e-13, {}, "roundoff error is detected"

    monkeypatch.setattr(scipy.integrate, "quad", flagged)
    with pytest.raises(QuadFailure):
        cf_quadrature((1, 2), 1.0)


def test_quadrature_at_a_small_shape():
    # at theta = 1e-3 the lower cut quantiles underflow to 0 and merge,
    # and the intervals below 1e-125, where x**4 * pdf underflows to 0,
    # stop unconverged with nothing in them
    params = (1.0, 1e-3)
    want = raw_moment_series(params, 4)
    assert raw_moment_quadrature(ModelKind.PGDUSE, params, 4) == pytest.approx(want, rel=1e-10)


def test_renyi_domain_checks():
    with pytest.raises(DomainError):
        renyi_entropy(ModelKind.ED, (1.0,), 1.0)
    with pytest.raises(DomainError):
        renyi_entropy_series(PgduseParams(1.0, 1.0), -0.5)


# float() would parse "0.5" and read None or 0.5j as a bare TypeError
@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf, "0.5", None, 0.5j))
@pytest.mark.parametrize("fn", [
    mgf, mgf_quadrature, cf, cgf, cf_quadrature,
    lambda p, delta: renyi_entropy(ModelKind.PGDUSE, p, delta), renyi_entropy_series,
], ids=["mgf", "mgf_quadrature", "cf", "cgf", "cf_quadrature", "renyi_entropy",
        "renyi_entropy_series"])
def test_non_finite_argument_is_a_domain_error(fn, value):
    with pytest.raises(DomainError):
        fn(PgduseParams(1.0, 2.0), value)



# ----------------------------------------------------------------------
# derived summaries
# ----------------------------------------------------------------------

def test_central_moment_identities():
    p = PgduseParams(1.0, 2.0)
    m1 = raw_moment_series(p, 1)
    m2 = raw_moment_series(p, 2)
    assert central_moment(p, 1) == 0.0
    assert central_moment(p, 2) == pytest.approx(m2 - m1 ** 2, rel=1e-12)
    assert variance(p) == pytest.approx(central_moment(p, 2), rel=1e-12)
    # any order: the binomial sum of raw moments, which cancels little at theta = 2
    for r in (5, 6):
        raw = [1.0] + [raw_moment_series(p, k) for k in range(1, r + 1)]
        want = sum(math.comb(r, k) * raw[k] * (-m1) ** (r - k) for k in range(r + 1))
        assert central_moment(p, r) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("summary, sums", [
    (mean, 1), (variance, 2), (skewness, 3), (kurtosis, 3),
    (lambda p: central_moment(p, 1), 0),
    (lambda p: central_moment(p, 3), 2),
    (lambda p: central_moment(p, 4), 2),
], ids=["mean", "variance", "skewness", "kurtosis", "central1", "central3", "central4"])
def test_summaries_sum_each_raw_moment_once(monkeypatch, summary, sums):
    # one u-series for the mean and one about it per central order the
    # summary needs: no raw moment beyond the first is summed
    peaks = []
    real = pgduse.analytic._u_series

    def counting(a, b, weights):
        peaks.append(a)
        return real(a, b, weights)

    monkeypatch.setattr(pgduse.analytic, "_u_series", counting)
    summary(PgduseParams(1.0, 2.5))
    assert len(peaks) == sums


def test_skewness_and_kurtosis_are_floats_or_raise(monkeypatch):
    # at theta = 50 the binomial series gave a negative variance and a
    # complex skewness; a variance that does not come out positive raises
    p = PgduseParams(1.0, 50.0)
    for summary in (skewness, kurtosis):
        assert type(summary(p)) is float
    # every even central moment -1, as frexp's (fraction, exponent)
    monkeypatch.setattr(pgduse.analytic, "_unit_moment",
                        lambda theta, r, centre=0.0: (-0.5 if r % 2 == 0 else 0.5, 1))
    for summary in (variance, skewness, kurtosis, lambda p: central_moment(p, 4)):
        with pytest.raises(SeriesDivergence):
            summary(p)


def test_skewness_kurtosis_against_sample():
    p = PgduseParams(1.0, 2.0)
    xs = sample(ModelKind.PGDUSE, p, 200000, seed=4)
    centred = xs - xs.mean()
    sk = np.mean(centred ** 3) / np.mean(centred ** 2) ** 1.5
    ku = np.mean(centred ** 4) / np.mean(centred ** 2) ** 2
    assert skewness(p) == pytest.approx(sk, abs=0.05)
    assert kurtosis(p) == pytest.approx(ku, abs=0.25)


def test_quadrature_validates_once_and_skips_the_masks(monkeypatch):
    # every route validates the parameters once and hands the typed
    # vector to each node.  The cf's nodes are single floats on the
    # support, which pdf must take straight to the kernel; the tanh-sinh
    # routes pass whole arrays of nodes through the masked path
    validated = []
    real_validate = pgduse.distributions.validate_params

    def counting_validate(kind, raw):
        validated.append(kind)
        return real_validate(kind, raw)

    real_on_support = pgduse.distributions._on_support
    cutoff_quantile = pgduse.distributions._MODELS[ModelKind.PGDUSE].quantile

    def refuse(kernel, *args):
        # the cf's one quantile call, for its cutoff, is not a node
        if kernel is not cutoff_quantile:
            raise AssertionError("a quadrature node went through the masked array path")
        return real_on_support(kernel, *args)

    monkeypatch.setattr(pgduse.distributions, "validate_params", counting_validate)
    routes = [
        lambda: raw_moment_quadrature(ModelKind.PGDUSE, (1.0, 2.0), 2),
        lambda: mgf_quadrature((1.0, 2.0), 0.5),
        lambda: cf_quadrature((1.0, 2.0), 0.0),
        lambda: renyi_entropy(ModelKind.PGDUSE, (1.0, 2.0), 2.0),
    ]
    for kind, params in ((ModelKind.GDUSE, (2.0, 1.0)), (ModelKind.KME, (1.0,))):
        routes += [lambda k=kind, p=params: raw_moment_quadrature(k, p, 1),
                   lambda k=kind, p=params: renyi_entropy(k, p, 0.5)]
    for route in routes:
        validated.clear()
        assert math.isfinite(abs(route()))
        assert len(validated) == 1
    monkeypatch.setattr(pgduse.distributions, "_on_support", refuse)
    validated.clear()
    assert math.isfinite(abs(cf_quadrature((1.0, 2.0), 1.0)))
    assert len(validated) == 1


@pytest.mark.parametrize("kind, params", [
    (ModelKind.PGDUSE, (1.0, 0.5)), (ModelKind.PGDUSE, (1.3, 2.5)), (ModelKind.GDUSE, (0.5, 2.3)),
    (ModelKind.DUSE, (0.8,)), (ModelKind.KME, (1.0,)), (ModelKind.ED, (2.0,)),
    (ModelKind.PGDUSE, (1.0, 0.05)), (ModelKind.PGDUSE, (2.0, 1e3)),
])
def test_one_float_matches_the_array_path(kind, params):
    # the one-float shortcut, which serves the cf's QUADPACK nodes on a
    # numpy scalar, agrees bit for bit with a one-point array, also on
    # both sides of lam*x = ln 2, where _pg_log_ratio switches branches
    fns = (pgduse.distributions.pdf, pgduse.distributions.log_pdf, pgduse.distributions.cdf,
           pgduse.distributions.survival)
    switch = math.log(2.0) / params[0]
    for x in (-1.0, -0.0, 0.0, 5e-324, 1e-300, 0.3, 7.0, 60.0, 800.0, math.inf, math.nan,
              switch, math.nextafter(switch, 0.0), math.nextafter(switch, math.inf)):
        for fn in fns:
            one, arr = fn(kind, params, x), fn(kind, params, np.array([x]))[0]
            assert isinstance(one, float)
            assert one == arr or (math.isnan(one) and math.isnan(arr)), (fn.__name__, x)


# cf_quadrature with one pdf call per QUADPACK node and no cache
CF_ONE_CALL_PER_NODE = {
    ((1.0, 0.05), -3.0): "(0.8958859723319099-0.06996247842603477j)",
    ((1.0, 0.05), 0.3): "(0.992729080282948+0.029741979946006757j)",
    ((1.0, 0.05), 30.0): "(0.7968836180730205+0.06271569341066391j)",
    ((1.0, 2.5), -3.0): "(-0.08304019363559703+0.018460591584971927j)",
    ((1.0, 2.5), 0.3): "(0.7736892395915494+0.5295378881938194j)",
    ((1.0, 2.5), 30.0): "(-0.0001241234802916233-0.00012403864028481777j)",
    ((2.0, 1e3), -3.0): "(0.06275693107349525+0.2842605671593231j)",
    ((2.0, 1e3), 0.3): "(0.36467948929543825+0.9115606145042672j)",
    ((2.0, 1e3), 30.0): "(-4.433072841716142e-10+3.9230190623795735e-10j)",
}


@pytest.mark.parametrize("params, t", CF_ONE_CALL_PER_NODE)
def test_cf_quadrature_evaluates_each_node_once(monkeypatch, params, t):
    # the four QUADPACK passes share most nodes; each distinct node costs
    # one pdf call, through the name the bench tracer wraps, and the values
    # stay those of one call per node to the last bit
    nodes = []
    real_pdf = pgduse.analytic.pdf

    def counting_pdf(kind, typed, x):
        nodes.append(x)
        return real_pdf(kind, typed, x)

    monkeypatch.setattr(pgduse.analytic, "pdf", counting_pdf)
    assert repr(cf_quadrature(params, t)) == CF_ONE_CALL_PER_NODE[params, t]
    assert len(nodes) == len(set(nodes)) > 0
    # the cache lives for one call: a second call evaluates every node again
    nodes.clear()
    cf_quadrature(params, t)
    assert len(nodes) == len(set(nodes)) > 0


@pytest.mark.parametrize("kind, params", [
    (ModelKind.PGDUSE, (1.0, 1.7e308)), (ModelKind.GDUSE, (1.7e308, 1.0)),
])
def test_one_float_at_a_huge_shape_warns_nothing(kind, params):
    # the kernels overflow inside at this shape; a float takes the same
    # silenced path as a one-point array (the suite makes a warning an error)
    for fn in (pgduse.distributions.pdf, pgduse.distributions.log_pdf,
               pgduse.distributions.cdf, pgduse.distributions.survival):
        one, arr = fn(kind, params, 1e-300), fn(kind, params, np.array([1e-300]))[0]
        assert isinstance(one, float) and one == arr, fn.__name__


@pytest.mark.parametrize("make", [
    lambda v: sample(ModelKind.ED, (1.0,), v, 1),
    lambda v: pgduse.OrderSpec(v, 1),
    lambda v: pgduse.OrderSpec(3, v),
    lambda v: raw_moment_series((1.0, 2.0), v),
    lambda v: raw_moment_quadrature(ModelKind.PGDUSE, (1.0, 2.0), v),
    lambda v: central_moment((1.0, 2.0), v),
], ids=["sample_size", "order_n", "order_r", "moment_series", "moment_quadrature", "central_moment"])
def test_budgets_and_sizes_are_integers(make):
    # refused up front: range() would raise a bare TypeError, int(nan) a
    # ValueError, and int(n) would draw fewer values than asked
    for value in (2.5, math.nan, math.inf, "3"):
        with pytest.raises(DomainError):
            make(value)
    assert sample(ModelKind.ED, (1.0,), np.int32(3), 1).shape == (3,)
    assert central_moment((1.0, 2.0), 2.0) == central_moment((1.0, 2.0), 2)


def test_only_the_budgets_are_options():
    # the series size themselves from their peak and the fit takes
    # scipy's brentq budget: the package exports no options class
    assert [name for name in dir(pgduse) if name.endswith("Options")] == []
