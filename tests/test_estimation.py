import math
import warnings

import numpy as np
import pytest

import pgduse.distributions
import pgduse.estimation
from pgduse import (
    Dataset,
    DomainError,
    ModelKind,
    PgduseParams,
    compare,
    fit_ed_closed_form,
    fit_mle,
    log_likelihood,
    sample,
    score_pgduse,
)

E = math.e
# generating parameters near each model's fit to the bearing data
GENERATORS = {
    ModelKind.PGDUSE: (0.0336, 3.807),
    ModelKind.GDUSE: (4.739, 0.0355),
    ModelKind.DUSE: (0.01824,),
    ModelKind.KME: (0.009545,),
    ModelKind.ED: (0.013843,),
}


# ----------------------------------------------------------------------
# log-likelihood values on the benchmark data
# ----------------------------------------------------------------------

def test_log_likelihood_at_published_estimates(lawless):
    got = log_likelihood(ModelKind.PGDUSE, (0.03362141, 3.80657627), lawless)
    assert got == pytest.approx(-113.003, abs=5e-3)
    got = log_likelihood(ModelKind.ED, (0.01384327,), lawless)
    assert got == pytest.approx(-121.4393, abs=5e-3)
    got = log_likelihood(ModelKind.KME, (0.009544456,), lawless)
    assert got == pytest.approx(-123.1065, abs=5e-3)


def test_log_likelihood_is_sum_of_log_pdf(lawless):
    from pgduse import log_pdf

    p = (0.03362141, 3.80657627)
    assert log_likelihood(ModelKind.PGDUSE, p, lawless) == pytest.approx(
        float(np.sum(log_pdf(ModelKind.PGDUSE, p, lawless.observations))), rel=1e-15
    )
    # a sum past the largest double is -inf, without numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_likelihood(ModelKind.ED, (1,), Dataset([1e308, 1e308])) == -math.inf


# ----------------------------------------------------------------------
# analytic score
# ----------------------------------------------------------------------

def test_score_near_zero_at_published_mle(lawless):
    grad = score_pgduse((0.03362141, 3.80657627), lawless)
    value = log_likelihood(ModelKind.PGDUSE, (0.03362141, 3.80657627), lawless)
    assert np.linalg.norm(grad) / (1.0 + abs(value)) < 1e-3


def test_score_theta_component_at_theta_one(lawless):
    lam = 0.02
    x = lawless.observations
    identity = lawless.n - lawless.n * math.log(E - 1.0) + float(
        np.sum(np.log(np.expm1(-np.expm1(-lam * x))))
    )
    grad = score_pgduse((lam, 1.0), lawless)
    assert grad[1] == pytest.approx(identity, rel=1e-12)


def test_score_matches_central_differences(lawless):
    lam, theta = 0.02, 2.0
    analytic = score_pgduse((lam, theta), lawless)
    fd = np.empty(2)
    for j, (value, step) in enumerate(((lam, 1e-6 * lam), (theta, 1e-6 * theta))):
        hi = [lam, theta]
        lo = [lam, theta]
        hi[j] = value + step
        lo[j] = value - step
        fd[j] = (
            log_likelihood(ModelKind.PGDUSE, hi, lawless)
            - log_likelihood(ModelKind.PGDUSE, lo, lawless)
        ) / (2.0 * step)
    assert np.max(np.abs(fd - analytic) / np.abs(analytic)) < 1e-6


@pytest.mark.parametrize("kind", list(GENERATORS), ids=lambda k: k.value)
def test_every_model_score_matches_central_differences(lawless, kind):
    # each profile returns the whole score at the parameters it profiled;
    # 0.8 and 1.25 x the generator's rate keep the rate component away from
    # its zero, while the shape component is about 0 at the profiled shape
    rate_index = pgduse.distributions._MODELS[kind].rate_index
    for factor in (0.8, 1.25):
        rate = factor * GENERATORS[kind][rate_index]
        params, analytic = pgduse.estimation._PROFILES[kind](rate, lawless)
        assert params[rate_index] == rate and len(analytic) == len(params)
        if kind is ModelKind.PGDUSE:
            # the certificate reads the public score, bit for bit
            assert analytic == tuple(score_pgduse(params, lawless))
        for j, value in enumerate(params):
            step = 1e-6 * value
            hi = list(params)
            lo = list(params)
            hi[j] = value + step
            lo[j] = value - step
            fd = (
                log_likelihood(kind, hi, lawless) - log_likelihood(kind, lo, lawless)
            ) / (2.0 * step)
            if j == rate_index:
                assert abs(fd - analytic[j]) < 1e-6 * abs(analytic[j]), (factor, j)
            else:
                assert abs(analytic[j]) < 1e-9, factor
                assert abs(fd - analytic[j]) < 1e-6, factor


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------

def test_fit_ed_closed_form(lawless):
    assert fit_ed_closed_form(lawless).value == pytest.approx(23.0 / 1661.48, rel=1e-15)
    assert fit_ed_closed_form(Dataset([1.0])).value == 1.0
    assert fit_ed_closed_form(Dataset([2.0, 2.0, 2.0])).value == 0.5


def test_fit_ed_via_fit_mle(lawless):
    result = fit_mle(ModelKind.ED, lawless)
    assert result.converged
    assert result.iterations == 0
    assert result.params.value == pytest.approx(lawless.n / lawless.total, rel=1e-15)


def test_fit_pgduse_reproduces_benchmark(lawless):
    result = fit_mle(ModelKind.PGDUSE, lawless)
    lam, theta = result.params.as_tuple()
    assert result.converged
    assert lam == pytest.approx(0.03362141, abs=5e-5)
    assert theta == pytest.approx(3.80657627, abs=5e-3)
    assert result.log_likelihood == pytest.approx(-113.003, abs=5e-3)
    assert result.grad_norm <= 1e-6 * (1.0 + abs(result.log_likelihood))


def test_fit_gduse_reproduces_benchmark(lawless):
    result = fit_mle(ModelKind.GDUSE, lawless)
    alpha, beta = result.params.as_tuple()
    assert result.converged
    assert alpha == pytest.approx(4.73914452, abs=5e-2)
    assert beta == pytest.approx(0.03553247, abs=5e-4)
    assert result.log_likelihood == pytest.approx(-113.0466, abs=5e-3)


def test_fit_duse_parameter_matches_but_not_published_loglik(lawless):
    result = fit_mle(ModelKind.DUSE, lawless)
    assert result.params.value == pytest.approx(0.01824005, abs=1e-4)
    # independently recomputed value; the published -127.4622 fails its
    # own score equation at the published estimate
    assert result.log_likelihood == pytest.approx(-119.24, abs=0.05)


def test_fit_kme_reproduces_benchmark(lawless):
    result = fit_mle(ModelKind.KME, lawless)
    assert result.params.value == pytest.approx(0.009544456, abs=1e-5)
    assert result.log_likelihood == pytest.approx(-123.1065, abs=5e-3)


def test_fit_is_deterministic(lawless):
    a = fit_mle(ModelKind.PGDUSE, lawless)
    b = fit_mle(ModelKind.PGDUSE, lawless)
    assert a.params.as_tuple() == b.params.as_tuple()
    assert a.iterations == b.iterations


def test_fit_positivity_under_jitter():
    # heavily skewed tiny sample; log-space search keeps params positive
    data = Dataset([1e-4, 2e-4, 5.0, 80.0])
    for kind in ModelKind:
        result = fit_mle(kind, data)
        assert all(v > 0.0 for v in result.params.as_tuple())


def test_single_observation_accepted():
    result = fit_mle(ModelKind.PGDUSE, Dataset([5.0]))
    assert all(v > 0.0 for v in result.params.as_tuple())


def test_pgduse_dominates_duse(lawless):
    pg = fit_mle(ModelKind.PGDUSE, lawless)
    du = fit_mle(ModelKind.DUSE, lawless)
    assert pg.log_likelihood >= du.log_likelihood - 1e-9


def test_synthetic_recovery_within_ten_percent():
    true = PgduseParams(0.05, 3.0)
    xs = sample(ModelKind.PGDUSE, true, 5000, seed=42)
    result = fit_mle(ModelKind.PGDUSE, Dataset(xs))
    lam, theta = result.params.as_tuple()
    assert result.converged
    assert abs(lam - 0.05) / 0.05 < 0.10
    assert abs(theta - 3.0) / 3.0 < 0.10


# ----------------------------------------------------------------------
# profile-likelihood search
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [23, 100, 1000])
@pytest.mark.parametrize("kind", list(GENERATORS), ids=lambda k: k.value)
def test_seeded_sweep_reaches_the_maximum(kind, n):
    truth = GENERATORS[kind]
    for seed in (1, 2, 3):
        data = Dataset(sample(kind, truth, n, seed=seed))
        rows = {row.kind: row for row in compare(data).rows}
        assert all(row.converged for row in rows.values())
        assert rows[kind].log_likelihood >= log_likelihood(kind, truth, data)
        assert rows[ModelKind.PGDUSE].log_likelihood >= rows[ModelKind.DUSE].log_likelihood


def test_log_likelihood_calls_per_fit_capped(lawless, monkeypatch):
    # the root-find works on the profile slope alone: log_likelihood is
    # called once, for the result, and each log-rate is profiled once
    calls = {"loglik": 0}
    rates = []
    original = pgduse.estimation.log_likelihood

    def counting(*args, **kwargs):
        calls["loglik"] += 1
        return original(*args, **kwargs)

    def spied(profile):
        def wrapper(rate, data):
            rates.append(rate)
            return profile(rate, data)
        return wrapper

    monkeypatch.setattr(pgduse.estimation, "log_likelihood", counting)
    for kind, profile in list(pgduse.estimation._PROFILES.items()):
        monkeypatch.setitem(pgduse.estimation._PROFILES, kind, spied(profile))
    synthetic = Dataset(sample(ModelKind.PGDUSE, GENERATORS[ModelKind.PGDUSE], 1000, seed=5))
    for data in (lawless, synthetic):
        for kind in ModelKind:
            calls["loglik"] = 0
            rates.clear()
            result = fit_mle(kind, data)
            assert result.converged
            assert calls["loglik"] == 1
            assert len(set(rates)) == len(rates) == result.slope_evaluations
            if kind is ModelKind.ED:
                # the closed form at the exact rate, and the curvature check
                assert result.slope_evaluations == 3
            else:
                assert 4 <= result.slope_evaluations <= 10


# repr of (params, logL, grad_norm) of every bearing-data fit; the
# single-pass profiles must reproduce the score-based root-find bit for bit
_BEARING_FITS = {
    ModelKind.PGDUSE: "((0.033622995972553645, 3.8068710158908416), "
                      "-113.00300900113609, 5.827389186397116e-11)",
    ModelKind.GDUSE: "((4.739087227238598, 0.03553221472055972), "
                     "-113.04657101758423, 4.686061392450266e-13)",
    ModelKind.DUSE: "((0.01824011874648117,), -119.23991930698392, 1.463279180990689e-11)",
    ModelKind.KME: "((0.009544953869348697,), -123.10646373124057, 2.872896558199122e-11)",
    ModelKind.ED: "((0.0138430796639141,), -121.43930619297953, 0.0)",
}


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_bearing_fits_are_pinned_bit_for_bit(lawless, kind):
    result = fit_mle(kind, lawless)
    got = (result.params.as_tuple(), result.log_likelihood, result.grad_norm)
    assert repr(got) == _BEARING_FITS[kind]


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_fit_is_invariant_to_the_units_of_the_data(lawless, kind):
    # x -> c*x divides the rate by c, keeps the shape and shifts logL by
    # -n log c; the certificate must not depend on c either
    rate_index = pgduse.distributions._MODELS[kind].rate_index
    base = fit_mle(kind, lawless)
    for k in range(-300, 301, 50):
        c = 10.0 ** k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_mle(kind, Dataset(lawless.observations * c))
        assert result.converged, k
        for j, (got, want) in enumerate(zip(result.params.as_tuple(), base.params.as_tuple())):
            expected = want / c if j == rate_index else want
            assert got == pytest.approx(expected, rel=1e-9), (k, j)
        shifted = base.log_likelihood - lawless.n * math.log(c)
        assert result.log_likelihood == pytest.approx(shifted, rel=1e-9), k


@pytest.mark.parametrize("values", [[9e307, 9e307, 8e307], [1e-310, 2e-310, 5e-310]])
def test_sample_scale_outside_the_rate_range_is_a_domain_error(values):
    # n / sum(x) is 0 when the sum overflows and inf when it is subnormal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = Dataset(values)
    for kind in ModelKind:
        with pytest.raises(DomainError, match="rescale"):
            fit_mle(kind, data)


def test_degenerate_sample_is_not_certified():
    # with every observation equal the PGDUSE and GDUSE likelihoods grow
    # without bound in the rate; the search must stop without raising, also
    # where the rate it walks to would pass the largest double
    for data in (Dataset([5.0]), Dataset([3.0, 3.0, 3.0]), Dataset([1e-307] * 3)):
        for kind in (ModelKind.PGDUSE, ModelKind.GDUSE):
            result = fit_mle(kind, data)
            assert not result.converged
            assert all(0.0 < v < math.inf for v in result.params.as_tuple())


def test_large_sample_pgduse_fit_converges():
    # a sample on which one start of the former 8-start simplex search
    # ran to its evaluation limit and reported converged = False
    truth = GENERATORS[ModelKind.PGDUSE]
    data = Dataset(sample(ModelKind.PGDUSE, truth, 100_000, seed=1))
    result = fit_mle(ModelKind.PGDUSE, data)
    assert result.converged
    assert result.log_likelihood >= log_likelihood(ModelKind.PGDUSE, truth, data)
    lam, theta = result.params.as_tuple()
    assert abs(lam - truth[0]) / truth[0] < 0.02
    assert abs(theta - truth[1]) / truth[1] < 0.02
