import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from pgduse import (
    DomainError,
    ModelKind,
    OrderSpec,
    PgduseParams,
    cdf,
    median,
    order_stat_cdf,
    order_stat_pdf,
    pdf,
    quantile,
    sample,
    survival,
    system_lifetime_cdf,
)

P = PgduseParams(1.0, 2.0)


def test_order_spec_validation():
    with pytest.raises(DomainError):
        OrderSpec(0, 1)
    with pytest.raises(DomainError):
        OrderSpec(3, 4)
    with pytest.raises(DomainError):
        OrderSpec(3, 0)


def test_rank_times_huge_theta():
    # the maximum of n draws is PGDUSE at shape n*theta; past the largest
    # float that shape is refused rather than turned into NaN
    xs = np.array([0.0, 1.0, 700.0, 709.0, 710.0, 720.0, 1e3])
    got = order_stat_pdf((1.0, 1e306), OrderSpec(100, 100), xs)
    assert np.array_equal(got, pdf(ModelKind.PGDUSE, (1.0, 1e308), xs))
    assert np.all(np.isfinite(got)) and got[3] > 0.1
    with pytest.raises(DomainError):
        order_stat_pdf((1.0, 1e306), OrderSpec(200, 200), xs)


def test_single_observation_reduces_to_parent():
    xs = np.linspace(0.0, 6.0, 50)
    got = order_stat_pdf(P, OrderSpec(1, 1), xs)
    assert np.allclose(got, pdf(ModelKind.PGDUSE, P, xs), rtol=1e-12, atol=0)
    got_cdf = order_stat_cdf(P, OrderSpec(1, 1), xs)
    assert np.allclose(got_cdf, cdf(ModelKind.PGDUSE, P, xs), rtol=1e-12, atol=1e-15)


def test_minimum_pdf_specialization():
    x = 0.5
    expected = 5.0 * survival(ModelKind.PGDUSE, P, x) ** 4 * pdf(ModelKind.PGDUSE, P, x)
    assert order_stat_pdf(P, OrderSpec(5, 1), x) == pytest.approx(expected, rel=1e-12)


def test_order_stat_pdf_normalizes():
    top = quantile(ModelKind.PGDUSE, P, 1.0 - 1e-12)
    total, _ = quad(lambda x: order_stat_pdf(P, OrderSpec(3, 3), x), 0.0, top,
                    epsabs=1e-12, epsrel=1e-10, limit=500)
    assert total == pytest.approx(1.0, abs=1e-7)


def test_max_min_identities():
    xs = np.linspace(0.05, 8.0, 60)
    g = np.asarray(cdf(ModelKind.PGDUSE, P, xs))
    s = np.asarray(survival(ModelKind.PGDUSE, P, xs))
    got_max = np.asarray(order_stat_cdf(P, OrderSpec(4, 4), xs))
    got_min = np.asarray(order_stat_cdf(P, OrderSpec(4, 1), xs))
    assert np.max(np.abs(got_max - g ** 4)) < 1e-12
    assert np.max(np.abs(got_min - (1.0 - s ** 4))) < 1e-12


def test_order_cdf_monte_carlo_at_median():
    spec = OrderSpec(3, 2)
    m = median(P)
    expected = order_stat_cdf(P, spec, m)
    assert expected == pytest.approx(0.5, abs=1e-12)  # binomial at G = 1/2
    draws = sample(ModelKind.PGDUSE, P, 3 * 100_000, seed=11).reshape(100_000, 3)
    second = np.sort(draws, axis=1)[:, 1]
    assert np.mean(second <= m) == pytest.approx(expected, abs=0.005)


def test_rank_monotonicity_and_partition():
    xs = np.linspace(0.1, 6.0, 40)
    n = 5
    stacked = [np.asarray(order_stat_cdf(P, OrderSpec(n, r), xs)) for r in range(1, n + 1)]
    for lower, higher in zip(stacked, stacked[1:]):
        assert np.all(higher <= lower + 1e-14)
    g = np.asarray(cdf(ModelKind.PGDUSE, P, xs))
    s = np.asarray(survival(ModelKind.PGDUSE, P, xs))
    total = sum(
        math.comb(n, i) * g ** i * s ** (n - i) for i in range(0, n + 1)
    )
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_pdf_differentiates_cdf():
    spec = OrderSpec(4, 2)
    xs = np.linspace(0.3, 4.0, 25)
    h = 1e-5
    fd = (
        np.asarray(order_stat_cdf(P, spec, xs + h)) - np.asarray(order_stat_cdf(P, spec, xs - h))
    ) / (2.0 * h)
    dens = np.asarray(order_stat_pdf(P, spec, xs))
    assert np.max(np.abs(fd - dens) / dens) < 1e-5


def test_system_lifetime_topologies():
    t = np.linspace(0.0, 5.0, 30)
    series = np.asarray(system_lifetime_cdf(P, 3, "series", t))
    parallel = np.asarray(system_lifetime_cdf(P, 3, "parallel", t))
    assert np.all(series >= parallel)
    single = np.asarray(system_lifetime_cdf(P, 1, "series", t))
    assert np.allclose(single, cdf(ModelKind.PGDUSE, P, t), rtol=1e-13, atol=1e-16)
    assert np.allclose(
        np.asarray(system_lifetime_cdf(P, 1, "parallel", t)), single, rtol=0, atol=0
    )
    with pytest.raises(DomainError):
        system_lifetime_cdf(P, 3, "mesh", 1.0)


@pytest.mark.parametrize("topology", [None, 1, b"series"])
def test_topology_that_is_not_a_string_is_a_domain_error(topology):
    with pytest.raises(DomainError, match="topology"):
        system_lifetime_cdf(P, 3, topology, 1.0)


def test_parallel_two_component_frozen_value():
    single = cdf(ModelKind.PGDUSE, P, 1.0)
    got = system_lifetime_cdf(P, 2, "parallel", 1.0)
    assert got == pytest.approx(single ** 2, rel=1e-12)
    assert got == pytest.approx(0.06929495524461872, rel=1e-10)


def test_origin_limits_without_nan():
    # G**(r-1)*g is 0*inf at the origin when theta < 1; the merged form
    # must resolve it: r*theta > 1 -> 0, < 1 -> inf, = 1 -> finite
    weak = PgduseParams(1.0, 0.5)
    assert order_stat_pdf(weak, OrderSpec(3, 3), 0.0) == 0.0
    assert order_stat_pdf(weak, OrderSpec(3, 1), 0.0) == math.inf
    two = order_stat_pdf(weak, OrderSpec(3, 2), 0.0)  # r*theta = 1
    coef = 2.0 * math.comb(3, 2)  # n!/((r-1)!(n-r)!)
    assert two == pytest.approx(coef * 0.5 * 1.0 / (math.e - 1.0), rel=1e-12)


@pytest.mark.parametrize("r", (1, 1000, 2000))
def test_order_stat_cdf_large_sample_matches_mpmath(r):
    # the binomial upper-tail sum at 50 digits; n = 2000 once overflowed
    n = 2000
    x = float(quantile(ModelKind.PGDUSE, P, r / (n + 1.0)))
    with mpmath.workdps(50):
        g1 = (mpmath.exp(1 - mpmath.exp(-mpmath.mpf(x))) - 1) / (mpmath.e - 1)
        big_g = g1 ** 2
        want = mpmath.fsum(mpmath.binomial(n, i) * big_g ** i * (1 - big_g) ** (n - i)
                           for i in range(r, n + 1))
    got = order_stat_cdf(P, OrderSpec(n, r), x)
    assert got == pytest.approx(float(want), rel=1e-12)
