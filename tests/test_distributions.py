import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from pgduse import (
    ArityMismatch,
    Dataset,
    DomainError,
    EmptyDataset,
    ModelKind,
    NonPositiveObservation,
    NonPositiveParameter,
    PgduseParams,
    cdf,
    hazard,
    ks_pvalue,
    ks_statistic,
    log_pdf,
    median,
    pdf,
    quantile,
    sample,
    score_pgduse,
    survival,
    validate_params,
)
from pgduse.estimation import _SCORES

from conftest import ALL_KINDS, GRID_LAMBDAS, grid_params

E = math.e


# ----------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------

def test_validate_params_accepts_benchmark_mle():
    p = validate_params(ModelKind.PGDUSE, [0.03362141, 3.80657627])
    assert p.lam == 0.03362141 and p.theta == 3.80657627


@pytest.mark.parametrize("raw", [[0.0], [-1.0], [float("nan")], [float("inf")]])
def test_validate_params_rejects_nonpositive(raw):
    with pytest.raises(NonPositiveParameter):
        validate_params(ModelKind.ED, raw)


@pytest.mark.parametrize(
    "kind,raw",
    [
        (ModelKind.PGDUSE, [1.0]),
        (ModelKind.GDUSE, [1.0, 2.0, 3.0]),
        (ModelKind.ED, [1.0, 2.0]),
    ],
)
def test_validate_params_arity(kind, raw):
    with pytest.raises(ArityMismatch):
        validate_params(kind, raw)


def test_dataset_invariants():
    d = Dataset([3.0, 1.0, 2.0])
    assert d.n == 3
    assert d.total == 6.0
    assert list(d.sorted_values) == [1.0, 2.0, 3.0]
    assert list(d.observations) == [3.0, 1.0, 2.0]
    with pytest.raises(EmptyDataset):
        Dataset([])
    with pytest.raises(NonPositiveObservation):
        Dataset([1.0, -2.0])
    with pytest.raises(NonPositiveObservation):
        Dataset([1.0, float("nan")])


# ----------------------------------------------------------------------
# cdf
# ----------------------------------------------------------------------

def test_cdf_limits():
    p = PgduseParams(1.0, 1.0)
    assert cdf(ModelKind.PGDUSE, p, 1e3) == pytest.approx(1.0, abs=1e-12)
    for kind in ALL_KINDS:
        for params in grid_params(kind):
            assert cdf(kind, params, 0.0) == 0.0
            assert cdf(kind, params, -1.0) == 0.0


def test_cdf_value_against_quadrature_oracle():
    # oracle: integrate the density over [0, 1] to 1e-10
    p = (1.0, 2.0)
    oracle, err = quad(lambda x: pdf(ModelKind.PGDUSE, p, x), 0.0, 1.0,
                       epsabs=1e-14, epsrel=1e-12, limit=500)
    assert err < 1e-10
    assert oracle == pytest.approx(0.26323934972685736, abs=1e-10)
    assert cdf(ModelKind.PGDUSE, p, 1.0) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cdf_nondecreasing_on_grid(kind):
    for params in grid_params(kind):
        top = quantile(kind, params, 1.0 - 1e-9)
        xs = np.linspace(0.0, top, 1000)
        values = cdf(kind, params, xs)
        assert np.all(np.diff(values) >= 0.0)
        assert values[-1] >= 1.0 - 1e-8


def test_pgduse_theta_one_is_duse():
    for lam in GRID_LAMBDAS:
        xs = np.linspace(0.0, 20.0 / lam, 500)
        gap = np.abs(cdf(ModelKind.PGDUSE, (lam, 1.0), xs) - cdf(ModelKind.DUSE, (lam,), xs))
        assert np.max(gap) < 1e-12


_UNIT_SHAPE_POINTS = np.concatenate([[0.0, 1e-300, 1e-9], np.logspace(-6, 3, 200)])


@pytest.mark.parametrize("fn", [cdf, survival, log_pdf, quantile], ids=lambda f: f.__name__)
@pytest.mark.parametrize("a", (0.01824, 0.5, 1.0, 2.0))
def test_duse_is_pgduse_at_unit_theta(fn, a):
    # DUSE is defined as PGDUSE with theta = 1, so the two agree bit for bit
    points = np.linspace(0.0, 1.0, 200, endpoint=False) if fn is quantile else _UNIT_SHAPE_POINTS
    np.testing.assert_array_equal(fn(ModelKind.DUSE, (a,), points),
                                  fn(ModelKind.PGDUSE, (a, 1.0), points))


@pytest.mark.parametrize("a", (0.01824, 0.5, 1.0, 2.0))
def test_duse_score_is_pgduse_lambda_score_at_unit_theta(lawless, a):
    got = _SCORES[ModelKind.DUSE]((a,), lawless)
    assert got.shape == (1,)
    assert got[0] == score_pgduse((a, 1.0), lawless)[0]


# ----------------------------------------------------------------------
# pdf / log_pdf
# ----------------------------------------------------------------------

def test_pdf_at_origin():
    assert pdf(ModelKind.PGDUSE, (1.0, 2.0), 0.0) == 0.0
    assert pdf(ModelKind.PGDUSE, (1.0, 0.5), 0.0) == math.inf  # integrable blow-up
    assert pdf(ModelKind.ED, (0.01384327,), 0.0) == pytest.approx(0.01384327, rel=1e-15)


def test_pdf_normalizes_at_benchmark_params():
    p = (0.03362141, 3.80657627)
    top = quantile(ModelKind.PGDUSE, p, 1.0 - 1e-12)
    total, _ = quad(lambda x: pdf(ModelKind.PGDUSE, p, x), 0.0, top,
                    epsabs=1e-12, epsrel=1e-11, limit=1000)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pdf_normalizes_on_grid(kind):
    for params in grid_params(kind):
        top = quantile(kind, params, 1.0 - 1e-10)
        total, _ = quad(lambda x: pdf(kind, params, x), 0.0, top,
                        epsabs=1e-12, epsrel=1e-10, limit=1000,
                        points=[quantile(kind, params, q) for q in (0.25, 0.5, 0.75)])
        assert abs(total - 1.0) < 1e-7


def test_log_pdf_frozen_value():
    # log(lam/(e-1)) + 1 - lam*x - exp(-lam*x) at lam = x = 1, theta = 1
    expected = -math.log(E - 1.0) - math.exp(-1.0)
    assert expected == pytest.approx(-0.9092042957843604, abs=1e-15)
    assert log_pdf(ModelKind.PGDUSE, (1.0, 1.0), 1.0) == pytest.approx(expected, abs=1e-12)


def test_pgduse_log_pdf_keeps_digits_at_large_theta():
    # mpmath at 60 digits: log(theta) + (theta-1)*log G1 + log(lam) + 1
    # - lam*x - exp(-lam*x) - log(e-1) = -1.0694580211541892433...
    got = log_pdf(ModelKind.PGDUSE, (1.0, 1e17), 40.0)
    assert got == pytest.approx(-1.0694580211541892, rel=1e-13)


def test_log_pdf_at_origin_and_negative():
    assert log_pdf(ModelKind.PGDUSE, (1.0, 2.0), 0.0) == -math.inf
    assert log_pdf(ModelKind.PGDUSE, (1.0, 2.0), -3.0) == -math.inf


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_exp_log_pdf_matches_pdf(kind):
    params = grid_params(kind)[0]
    xs = np.linspace(1e-3, 30.0, 100)
    assert np.array_equal(np.exp(log_pdf(kind, params, xs)), pdf(kind, params, xs))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_log_pdf_agrees_with_log_of_pdf(kind):
    for params in grid_params(kind):
        xs = np.linspace(0.05, 25.0, 120)
        dens = np.asarray(pdf(kind, params, xs))
        keep = dens >= 1e-300
        gap = np.abs(np.asarray(log_pdf(kind, params, xs))[keep] - np.log(dens[keep]))
        assert np.max(gap) < 1e-10


# ----------------------------------------------------------------------
# survival / hazard
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_survival_is_complement(kind):
    for params in grid_params(kind):
        assert survival(kind, params, 0.0) == 1.0
        xs = np.linspace(0.0, 20.0, 200)
        gap = np.abs(survival(kind, params, xs) - (1.0 - np.asarray(cdf(kind, params, xs))))
        assert np.max(gap) < 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_hazard_times_survival_is_pdf(kind):
    for params in grid_params(kind):
        xs = np.linspace(0.01, quantile(kind, params, 1.0 - 1e-11), 300)
        s = np.asarray(survival(kind, params, xs))
        keep = s > 1e-12
        h = np.asarray(hazard(kind, params, xs))[keep]
        g = np.asarray(pdf(kind, params, xs))[keep]
        assert np.max(np.abs(h * s[keep] - g) / np.maximum(g, 1e-300)) < 1e-10


def test_hazard_frozen_value():
    d = cdf(ModelKind.PGDUSE, (1.0, 2.0), 1.0)
    expected = pdf(ModelKind.PGDUSE, (1.0, 2.0), 1.0) / (1.0 - d)
    assert hazard(ModelKind.PGDUSE, (1.0, 2.0), 1.0) == pytest.approx(expected, rel=1e-12)
    assert hazard(ModelKind.PGDUSE, (1.0, 2.0), 1.0) == pytest.approx(0.5610693815457461, rel=1e-12)


@pytest.mark.parametrize("x, expected", [
    # mpmath at 200 digits: (e - exp((1 - exp(-2.3*x))**0.5)) / (e - 1)
    (20.0, 8.329595684302004e-21),
    (50.0, 9.00128826387783e-51),
])
def test_gduse_survival_keeps_its_upper_tail(x, expected):
    got = survival(ModelKind.GDUSE, (0.5, 2.3), x)
    assert abs(got - expected) <= 1e-13 * expected


# the hazard tends to the rate as x -> inf: lambda, beta, theta, theta, theta
_RATED = [
    (ModelKind.PGDUSE, (1.3, 2.5), 1.3),
    (ModelKind.PGDUSE, (1.0, 0.5), 1.0),
    (ModelKind.GDUSE, (0.5, 2.3), 2.3),
    (ModelKind.GDUSE, (2.0, 0.7), 0.7),
    (ModelKind.DUSE, (0.8,), 0.8),
    (ModelKind.KME, (1.5,), 1.5),
    (ModelKind.ED, (2.0,), 2.0),
]


def test_hazard_finite_when_survival_underflows():
    assert survival(ModelKind.ED, (1.0,), 1e6) == 0.0
    assert hazard(ModelKind.ED, (1.0,), 1e6) == 1.0
    for kind, params, rate in _RATED:
        for rx in (745.0, 1e4, 1e6):
            assert hazard(kind, params, rx / rate) == pytest.approx(rate, rel=1e-12)


@pytest.mark.parametrize("kind, params, rate", _RATED, ids=lambda v: str(v))
def test_hazard_edge_values(kind, params, rate):
    points = (math.inf, math.nan, -1.0, 0.0)
    expected = (rate, math.nan, 0.0, pdf(kind, params, 0.0))
    as_array = hazard(kind, params, np.array(points))
    for x, want, got in zip(points, expected, as_array):
        for value in (hazard(kind, params, x), got):
            if math.isnan(want):
                assert math.isnan(value)
            elif x == math.inf:
                assert value == pytest.approx(want, rel=1e-12)
            else:
                assert value == want
    if kind is ModelKind.GDUSE and params[0] < 1.0:
        assert as_array[3] == math.inf


# ----------------------------------------------------------------------
# the whole surface against mpmath, from x = 1e-300/rate to 1e6/rate
# ----------------------------------------------------------------------

def _mp_logs(kind, params, rate, x):
    """log G, log(1 - G) and log g at the working precision.

    Every difference from 1 goes through expm1 or log1p, so the reference
    keeps its digits at x = 1e-300 and past the underflow of the survival.
    """
    rx = mpmath.mpf(rate) * mpmath.mpf(x)
    d = mpmath.exp(-rx)
    big_f = -mpmath.expm1(-rx)
    log_f = mpmath.log(big_f) if rx < 1 else mpmath.log1p(-d)
    log_em1 = mpmath.log(mpmath.e - 1)
    if kind in (ModelKind.PGDUSE, ModelKind.DUSE):
        theta = mpmath.mpf(params[1]) if kind is ModelKind.PGDUSE else 1
        if rx < 1:
            log_g1 = mpmath.log(mpmath.expm1(big_f)) - log_em1
        else:
            log_g1 = mpmath.log1p(mpmath.e * mpmath.expm1(-d) / (mpmath.e - 1))
        return (theta * log_g1, mpmath.log(-mpmath.expm1(theta * log_g1)),
                mpmath.log(theta * rate) + (theta - 1) * log_g1 - rx + big_f - log_em1)
    if kind is ModelKind.GDUSE:
        alpha = mpmath.mpf(params[0])
        fa = mpmath.exp(alpha * log_f)
        return (mpmath.log(mpmath.expm1(fa)) - log_em1,
                1 - log_em1 + mpmath.log(-mpmath.expm1(mpmath.expm1(alpha * log_f))),
                mpmath.log(alpha * rate) + (alpha - 1) * log_f + fa - rx - log_em1)
    if kind is ModelKind.KME:
        return (1 - log_em1 + mpmath.log(-mpmath.expm1(-big_f)),
                mpmath.log(mpmath.expm1(d)) - log_em1,
                1 - log_em1 + mpmath.log(rate) - rx - big_f)
    return log_f, -rx, mpmath.log(rate) - rx


_SWEEP_FNS = {
    cdf: lambda lc, ls, lp: lc,
    survival: lambda lc, ls, lp: ls,
    pdf: lambda lc, ls, lp: lp,
    log_pdf: lambda lc, ls, lp: lp,
    hazard: lambda lc, ls, lp: lp - ls,
}
_SWEEP_POINTS = (1e-300, 1e-100, 1e-30, 1e-10, 1e-5, 1e-3, 0.01, 0.1, 0.5, 1.0,
                 2.0, 5.0, 10.0, 20.0, 40.0, 100.0, 300.0, 720.0, 1e4, 1e6)
_EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("kind, params, rate", [
    (ModelKind.PGDUSE, (1.0, 1e-3), 1.0),
    (ModelKind.PGDUSE, (3.0, 1e6), 3.0),
    (ModelKind.PGDUSE, (0.5, 1e17), 0.5),
    (ModelKind.PGDUSE, (1.3, 2.5), 1.3),
    (ModelKind.GDUSE, (1e-3, 1.0), 1.0),
    (ModelKind.GDUSE, (50.0, 0.7), 0.7),
    (ModelKind.GDUSE, (0.5, 2.3), 2.3),
    (ModelKind.DUSE, (0.8,), 0.8),
    (ModelKind.KME, (1.5,), 1.5),
    (ModelKind.KME, (1e-3,), 1e-3),
    (ModelKind.ED, (2.0,), 2.0),
], ids=lambda v: str(v))
def test_surface_matches_mpmath(kind, params, rate):
    # Compared in log space.  The bound is 1e-12 plus 16 ulp of |log v|
    # and of the condition number |x d(log v)/dx|, which measures what
    # rounding x itself costs (about rate*x for the survival far out)
    xs = np.array(_SWEEP_POINTS) / rate
    misses = []
    with mpmath.workdps(50):
        for fn, pick in _SWEEP_FNS.items():
            got = fn(kind, params, xs)
            for x, value in zip(xs, got):
                def log_v(t):
                    return pick(*_mp_logs(kind, params, rate, mpmath.exp(t)))

                t, h = mpmath.log(x), mpmath.mpf("1e-12")
                want = log_v(t)
                slope = (log_v(t + h) - log_v(t - h)) / (2 * h)
                tol = 1e-12 + 16 * _EPS * float(abs(want) + abs(slope))
                if fn is log_pdf:
                    err = abs(value - float(want))
                elif mpmath.exp(want) < np.finfo(float).tiny:
                    # subnormal or underflowed: only absolute digits remain
                    err = 0.0 if abs(value - float(mpmath.exp(want))) <= 1e-320 else math.inf
                else:
                    err = abs(math.log(value) - float(want)) if value > 0.0 else math.inf
                if not err <= tol:
                    misses.append((fn.__name__, float(x), value, float(mpmath.exp(want))))
    assert misses == []


# ----------------------------------------------------------------------
# quantile / median
# ----------------------------------------------------------------------

def test_quantile_zero_and_domain():
    for kind in ALL_KINDS:
        params = grid_params(kind)[0]
        assert quantile(kind, params, 0.0) == 0.0
        with pytest.raises(DomainError):
            quantile(kind, params, -0.1)
        with pytest.raises(DomainError):
            quantile(kind, params, 1.0)


def test_quantile_median_against_bisection_oracle():
    root = brentq(lambda x: cdf(ModelKind.PGDUSE, (1.0, 1.0), x) - 0.5, 1e-12, 60.0,
                  xtol=1e-14)
    closed = quantile(ModelKind.PGDUSE, (1.0, 1.0), 0.5)
    assert closed == pytest.approx(root, abs=1e-12)
    assert closed == pytest.approx(0.9678854057726787, abs=1e-14)


def test_median_is_quantile_half():
    p = PgduseParams(0.03362141, 3.80657627)
    assert median(p) == quantile(ModelKind.PGDUSE, p, 0.5)
    assert cdf(ModelKind.PGDUSE, p, median(p)) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("lam", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("theta", (0.5, 1.0, 5.0))
def test_quantile_cdf_round_trip(lam, theta):
    for x in (0.1, 1.0, 10.0):
        q = cdf(ModelKind.PGDUSE, (lam, theta), x)
        if 1.0 - q < 1e-7:
            # one ulp of q already moves x by more than the tolerance there
            continue
        assert quantile(ModelKind.PGDUSE, (lam, theta), q) == pytest.approx(x, rel=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cdf_quantile_round_trip(kind):
    for params in grid_params(kind):
        for q in (1e-6, 0.01, 0.25, 0.5, 0.9, 0.999):
            assert cdf(kind, params, quantile(kind, params, q)) == pytest.approx(q, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(0.05, 20.0),
    theta=st.floats(0.05, 20.0),
    q=st.floats(1e-9, 1.0, exclude_max=True),
)
def test_quantile_round_trip_property(lam, theta, q):
    x = quantile(ModelKind.PGDUSE, (lam, theta), q)
    assert x >= 0.0
    assert cdf(ModelKind.PGDUSE, (lam, theta), x) == pytest.approx(q, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(0.05, 20.0),
    theta=st.floats(0.05, 20.0),
    a=st.floats(0.0, 50.0),
    b=st.floats(0.0, 50.0),
)
def test_cdf_monotone_property(lam, theta, a, b):
    lo, hi = sorted((a, b))
    assert cdf(ModelKind.PGDUSE, (lam, theta), lo) <= cdf(ModelKind.PGDUSE, (lam, theta), hi)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def test_sample_empty_and_deterministic():
    assert sample(ModelKind.PGDUSE, (1.0, 2.0), 0, 5).size == 0
    a = sample(ModelKind.GDUSE, (2.0, 1.0), 64, seed=123)
    b = sample(ModelKind.GDUSE, (2.0, 1.0), 64, seed=123)
    assert np.array_equal(a, b)
    assert np.all(a > 0.0)


def test_sample_passes_ks_against_generating_cdf():
    xs = sample(ModelKind.PGDUSE, (1.0, 2.0), 10000, seed=99)
    d = ks_statistic(Dataset(xs), lambda x: cdf(ModelKind.PGDUSE, (1.0, 2.0), x))
    assert ks_pvalue(d, 10000, "asymptotic") > 0.01
    assert ks_pvalue(d, 10000, "exact") > 0.01
