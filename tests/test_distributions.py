import math
import os
import sys
import threading
import time
import tracemalloc
from functools import partial

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
    OrderSpec,
    PgduseParams,
    ScalarParam,
    cdf,
    compare,
    fit_mle,
    hazard,
    ks_pvalue,
    ks_statistic,
    log_pdf,
    median,
    mgf,
    order_stat_cdf,
    order_stat_pdf,
    pdf,
    quantile,
    renyi_entropy,
    sample,
    score_pgduse,
    survival,
    validate_params,
)
from pgduse import distributions
from pgduse.distributions import _BLOCK
from pgduse.estimation import _PROFILES

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


@pytest.mark.parametrize("make", [
    lambda: PgduseParams("1", "2"),
    lambda: PgduseParams(b"1", 2),
    lambda: ScalarParam(bytearray(b"3")),
    lambda: distributions.GduseParams(np.str_("2"), 1),
    lambda: validate_params(ModelKind.ED, ["3"]),
], ids=["pgduse-str", "pgduse-bytes", "scalar-bytearray", "gduse-np-str", "validate-str"])
def test_parameters_refuse_text(make):
    # float() would parse each of these; every other scalar input refuses text too
    with pytest.raises(DomainError):
        make()


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


_PG = ModelKind.PGDUSE


@pytest.mark.parametrize("call,error", [
    (partial(pdf, _PG, ("a", 2), 1.0), DomainError),
    (partial(pdf, _PG, (None, 2), 1.0), DomainError),
    (partial(validate_params, _PG, None), DomainError),
    (partial(cdf, _PG, (1, 2), "abc"), DomainError),
    (partial(cdf, _PG, (1, 2), None), DomainError),
    (partial(quantile, _PG, (1, 2), "x"), DomainError),
    (partial(mgf, PgduseParams(1, 2), "x"), DomainError),
    (partial(renyi_entropy, _PG, (1, 2), "x"), DomainError),
    (partial(Dataset, ["a"]), NonPositiveObservation),
    # text iterates as characters and bytes as their codes: "12" was (1, 2)
    # and b"12" was (49, 50)
    (partial(pdf, _PG, "12", 1.0), DomainError),
    (partial(validate_params, _PG, b"12"), DomainError),
    (partial(validate_params, ModelKind.ED, bytearray(b"5")), DomainError),
], ids=["param-str", "param-none", "params-none", "x-str", "x-none", "q-str",
        "mgf-t", "renyi-order", "dataset", "params-text", "params-bytes", "params-bytearray"])
def test_non_numeric_input_is_a_library_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("fn", [cdf, pdf, log_pdf, survival, hazard, quantile],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("x", [
    [0.5, None], ["0.5", 2.0], np.array(["0.5"]), np.array([0.5], dtype=object),
    [0.5j], [np.datetime64("2020-01-01")], 10 ** 400,
], ids=["none-inside", "text-inside", "text-array", "object-array", "complex",
        "datetime", "huge-int"])
def test_points_that_are_not_real_numbers_are_a_domain_error(fn, x):
    # none of these may become NaN, be parsed, or be read as a number
    with pytest.raises(DomainError):
        fn(_PG, (1, 2), x)


@pytest.mark.parametrize("x", [
    0.5, 1, True, np.float32(0.5), np.int8(1), np.array(0.5), [0.5, 2], [True, 3],
    np.arange(3), np.arange(3, dtype=np.uint8), np.linspace(0.0, 0.9, 4, dtype=np.float32),
], ids=["float", "int", "bool", "float32", "int8", "0-d", "list", "bool-list",
        "int-array", "uint8-array", "float32-array"])
def test_real_numbers_of_every_kind_are_evaluation_points(x):
    as_float = np.asarray(x, dtype=float)
    for fn in (cdf, quantile):
        got = fn(_PG, (1, 2), x if fn is cdf else np.asarray(x) * 0.25)
        want = fn(_PG, (1, 2), as_float if fn is cdf else as_float * 0.25)
        assert type(got) is type(want) is (float if as_float.ndim == 0 else np.ndarray)
        assert np.array_equal(got, want)


def test_a_float_array_goes_to_the_kernels_uncopied():
    grid = np.linspace(0.0, 3.0, 7)
    assert distributions._split_input(grid)[0] is grid


@pytest.mark.parametrize("call", [
    partial(fit_mle, "pgduse", Dataset([1.0, 2.0, 3.0])),
    partial(compare, Dataset([1.0, 2.0, 3.0]), ["weibull"]),
    partial(sample, "ed", (1.0,), 3, 1),
    partial(pdf, "ed", ScalarParam(1.0), 1.0),
    partial(pdf, [1], (1.0,), 1.0),
    partial(ModelKind.parse, None),
    partial(order_stat_cdf, (1, 2), None, 1.0),
    partial(order_stat_pdf, (1, 2), None, 1.0),
], ids=["fit", "compare", "sample", "typed-pdf", "list-kind", "parse", "order-cdf", "order-pdf"])
def test_a_str_or_none_for_a_kind_or_spec_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


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
    params, got = _PROFILES[ModelKind.DUSE](a, lawless)
    assert params == (a,) and len(got) == 1
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
    (ModelKind.PGDUSE, (1.0, 1e300), 1.0),
    (ModelKind.PGDUSE, (2.0, 1e305), 2.0),
    (ModelKind.PGDUSE, (1.3, 2.5), 1.3),
    (ModelKind.GDUSE, (1e-3, 1.0), 1.0),
    (ModelKind.GDUSE, (50.0, 0.7), 0.7),
    (ModelKind.GDUSE, (1e10, 1.0), 1.0),
    (ModelKind.GDUSE, (1e16, 0.3), 0.3),
    (ModelKind.GDUSE, (1e305, 1.0), 1.0),
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


_SHAPES = (1e-3, 2.0, 1e3, 1e6, 1e17)
_PROBS = (1e-300, 1e-100, 1e-20, 1e-5, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-5, 1 - 1e-9,
          1 - 1e-12, 1 - 1e-15)


def _mp_quantile(kind, shape, q):
    """The quantile at rate 1, and the v = 1 - exp(-x) it inverts to, with
    1 - v taken naively at 400 digits."""
    q, e1 = mpmath.mpf(q), mpmath.e - 1
    if kind is ModelKind.PGDUSE:
        v = mpmath.log1p(e1 * q ** (1 / mpmath.mpf(shape)))
    elif kind is ModelKind.GDUSE:
        v = mpmath.log1p(e1 * q) ** (1 / mpmath.mpf(shape))
    else:
        # KME: 1 - q = D(exp(-x)), so exp(-x) = log1p((e - 1)(1 - q))
        v = 1 - mpmath.log1p(e1 * (1 - q))
    return -mpmath.log(1 - v), v


def _quantile_misses(kind, params, shape, probs=_PROBS):
    # A stable inversion loses a relative ulp of q, or, where v is near 1,
    # of 1 - v, whichever costs less: the bound is 1e-14 plus 16 ulp of
    # |dx/dlog q| * min(1, (1 - v)/v).  A subtraction of q**(1/shape)
    # from 1 loses far more near q = 1 at large shapes.  Values below
    # the double range keep only absolute digits
    got = quantile(kind, params, np.array(probs))
    misses = []
    with mpmath.workdps(400):
        for q, value in zip(probs, got):
            want, v = _mp_quantile(kind, shape, q)
            slope = mpmath.diff(lambda t: _mp_quantile(kind, shape, mpmath.exp(t))[0],
                                mpmath.log(q))
            tol = 1e-14 * want + 16 * _EPS * abs(slope) * (1 - v) / max(v, 1 - v) + 1e-320
            if not (math.isfinite(value) and abs(value - want) <= tol):
                misses.append((q, value, float(want)))
    return misses


@pytest.mark.parametrize("kind", (ModelKind.PGDUSE, ModelKind.GDUSE))
@pytest.mark.parametrize("shape", _SHAPES)
def test_quantile_keeps_both_tails_at_any_shape(kind, shape):
    params = (1.0, shape) if kind is ModelKind.PGDUSE else (shape, 1.0)
    assert _quantile_misses(kind, params, shape) == []
    assert np.all(np.isfinite(sample(kind, params, 5, seed=1)))


def test_kme_quantile_keeps_both_tails():
    # the form through q alone cancels as q -> 1: 3.7e-6 off at 1 - 1e-12
    near_half = (0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53, 0.5 + 2.0 ** -52)
    assert _quantile_misses(ModelKind.KME, (1.0,), None, _PROBS + near_half) == []


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


@pytest.mark.parametrize("seed", (-1, 2.5, math.nan, "3", None))
def test_sample_seed_is_a_nonnegative_integer(seed):
    # numpy would raise a bare ValueError or TypeError, or draw from the
    # operating system's entropy for None
    with pytest.raises(DomainError, match="seed"):
        sample(ModelKind.ED, (1.0,), 3, seed)
    assert np.array_equal(sample(ModelKind.ED, (1.0,), 3, np.int64(2**31 - 1)),
                          sample(ModelKind.ED, (1.0,), 3, 2**31 - 1))


def test_sample_passes_ks_against_generating_cdf():
    xs = sample(ModelKind.PGDUSE, (1.0, 2.0), 10000, seed=99)
    d = ks_statistic(Dataset(xs), lambda x: cdf(ModelKind.PGDUSE, (1.0, 2.0), x))
    assert ks_pvalue(d, 10000, "asymptotic") > 0.01
    assert ks_pvalue(d, 10000, "exact") > 0.01


# ----------------------------------------------------------------------
# blocked evaluation
# ----------------------------------------------------------------------

_EDGE_POINTS = (0.0, -1.0, math.nan, math.inf, 1e-300, 1e6)
_EDGE_PROBS = (0.0, math.nan, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1e-15)


def _straddle(base, values):
    """``base`` with ``values`` at both ends and on both sides of every block edge."""
    out, k = base.copy(), len(values)
    out[:k] = out[-k:] = values
    for edge in range(_BLOCK, out.size, _BLOCK):
        out[edge - k:edge] = values
        after = out[edge:edge + k]
        after[:] = values[::-1][:after.size]
    return out


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _spy_on_threads(monkeypatch) -> list:
    """Every thread started from here on, appended to the returned list."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


@pytest.mark.parametrize("size", (_BLOCK, _BLOCK + 1, 3 * _BLOCK + 17))
def test_blocked_values_equal_one_whole_array_call(size, monkeypatch):
    rng = np.random.default_rng(size)
    xs = _straddle(rng.exponential(3.0, size), _EDGE_POINTS)
    qs = _straddle(rng.random(size), _EDGE_PROBS)
    huge = {ModelKind.PGDUSE: [(1.0, 1e300)], ModelKind.GDUSE: [(1e305, 1.0)]}
    calls = [partial(order_stat_pdf, (1.0, 2.0), OrderSpec(50, 25), xs),
             partial(hazard, ModelKind.PGDUSE, (1.0, 2.0), xs[:size - size % 2].reshape(2, -1).T)]
    for kind in ALL_KINDS:
        for params in grid_params(kind)[::5] + huge.get(kind, []):
            calls += [partial(fn, kind, params, xs) for fn in _SWEEP_FNS]
            calls.append(partial(quantile, kind, params, qs))
    started = _spy_on_threads(monkeypatch)
    blocked = [call() for call in calls]
    # the helper shares the blocks wherever there are two blocks and two CPUs
    assert bool(started) == (size > _BLOCK and _CPUS >= 2)
    assert len(started) <= len(calls)
    assert not any(thread.is_alive() for thread in started)
    # one block as large as the input: the kernel's single whole-array call
    monkeypatch.setattr(distributions, "_BLOCK", size)
    for call, got in zip(calls, blocked):
        want = call()
        assert np.array_equal(got, want, equal_nan=True), call
        assert np.array_equal(np.signbit(got), np.signbit(want)), call


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    xs = _straddle(np.random.default_rng(3).exponential(3.0, 3 * _BLOCK + 5), _EDGE_POINTS)
    calls = [partial(fn, kind, grid_params(kind)[0], xs) for kind in ALL_KINDS for fn in _SWEEP_FNS]
    shared = [call() for call in calls]
    monkeypatch.setattr(distributions, "_SHARE_BLOCKS", False)
    started = _spy_on_threads(monkeypatch)
    for call, want in zip(calls, shared):
        got = call()
        assert np.array_equal(got, want, equal_nan=True), call
        assert np.array_equal(np.signbit(got), np.signbit(want)), call
    assert started == []


def test_a_kernel_error_in_its_third_block_reaches_the_caller():
    threads = threading.active_count()

    def kernel(params, x):
        if x[0] == 2 * _BLOCK:
            raise ZeroDivisionError("third block")
        return x

    with pytest.raises(ZeroDivisionError, match="third block"):
        distributions._blocked(kernel, (), np.arange(5.0 * _BLOCK))
    assert threading.active_count() == threads


@pytest.mark.skipif(_CPUS < 2, reason="one usable CPU: the caller takes every block")
def test_an_error_in_the_helper_reaches_the_caller():
    threads, caller = threading.active_count(), threading.get_ident()
    helper_failed = threading.Event()

    def kernel(params, x):
        if threading.get_ident() == caller:
            # hold the caller's first block until the helper has taken one
            assert helper_failed.wait(10.0)
            return x
        helper_failed.set()
        raise ZeroDivisionError("helper")

    with pytest.raises(ZeroDivisionError, match="helper"):
        distributions._blocked(kernel, (), np.arange(5.0 * _BLOCK))
    assert threading.active_count() == threads


@pytest.mark.skipif(_CPUS < 2, reason="one usable CPU: the caller takes every block")
def test_an_error_in_the_caller_leaves_the_helper_no_more_blocks(monkeypatch):
    threads, caller = threading.active_count(), threading.get_ident()
    helper_blocks = []

    def kernel(params, x):
        if threading.get_ident() == caller:
            raise ZeroDivisionError("caller")
        helper_blocks.append(x[0])
        time.sleep(0.001)
        return x

    monkeypatch.setattr(distributions, "_BLOCK", 1)
    with pytest.raises(ZeroDivisionError, match="caller"):
        distributions._blocked(kernel, (), np.arange(1000.0))
    assert threading.active_count() == threads
    assert len(helper_blocks) < 500


def test_concurrent_calls_keep_every_block_under_a_short_switch_interval():
    # more callers than CPUs, each with its helper, switching every microsecond:
    # a block taken twice or never would leave np.empty's garbage or a wrong value
    xs = np.linspace(-1.0, 60.0, 7 * _BLOCK + 3)
    want = hazard(_PG, (1.0, 2.0), xs)
    results = {}

    def caller(i):
        results[i] = [hazard(_PG, (1.0, 2.0), xs) for _ in range(5)]

    callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert sorted(results) == [0, 1, 2, 3]
    for outs in results.values():
        for got in outs:
            assert np.array_equal(got, want)


def test_every_thread_silences_the_kernels_warnings():
    # negative points and 0 in every block: log(0) and log of a negative
    # warn, and the test configuration turns RuntimeWarning into an error
    xs = np.tile([-1.0, 0.0, -0.0, 0.5, 2.0], 20_000)
    for kind in ALL_KINDS:
        for params in (grid_params(kind)[0], grid_params(kind)[-1]):
            for fn in (log_pdf, hazard):
                fn(kind, params, xs)


def test_array_calls_keep_about_one_output_live():
    # a whole-array kernel holds a dozen temporaries of the input's size;
    # blocks hold them at _BLOCK points, next to the output and its masks
    xs = np.linspace(0.0, 50.0, 1_000_000)
    qs = np.linspace(0.0, 1.0, 1_000_000, endpoint=False)
    for call in (partial(hazard, ModelKind.PGDUSE, (1.0, 2.0), xs),
                 partial(quantile, ModelKind.GDUSE, (0.5, 2.3), qs)):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes, (call, peak / out.nbytes)
