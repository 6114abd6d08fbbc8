"""Acceptance gate: benchmark reproduction and numerical contracts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criterion 3 carries a known-irreconcilable subcheck:
the published exponential-model rate 0.01384327 cannot equal the closed
form 23/1661.48 = 0.01384308 within its stated 1e-7 window on the data as
printed; the check is asserted as stated and documents the arithmetic.
"""

import math

import numpy as np
import pytest

from pgduse import (
    Dataset,
    ModelKind,
    PgduseParams,
    QuadFailure,
    SeriesDivergence,
    bic,
    cdf,
    cf,
    cf_quadrature,
    cgf,
    fit_mle,
    ks_pvalue,
    ks_statistic,
    log_likelihood,
    mgf,
    mgf_quadrature,
    order_stat_cdf,
    OrderSpec,
    quantile,
    raw_moment_quadrature,
    raw_moment_series,
    renyi_entropy,
    renyi_entropy_series,
    sample,
    score_pgduse,
    survival,
)
from scipy.integrate import quad

GRID_LAMBDAS = (0.5, 1.0, 2.0)
GRID_THETAS = (0.5, 1.0, 2.0, 5.0)


def close(label, got, want, tol):
    return (label, abs(got - want) <= tol, got, want, tol)


def true_check(label, ok):
    return (label, bool(ok), ok, True, "-")


def report(name, checks):
    failures = [
        f"{label}: got {got!r}, want {want!r} +- {tol}"
        for label, ok, got, want, tol in checks
        if not ok
    ]
    print(f"ACCEPTANCE {name}: {'PASS' if not failures else 'FAIL'} "
          f"({len(checks) - len(failures)}/{len(checks)} checks)")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"{name}: " + "; ".join(failures)


# ----------------------------------------------------------------------
# criteria 1-4: benchmark table rows
# ----------------------------------------------------------------------

def test_criterion_1_pgduse_row(lawless_rows):
    row = lawless_rows[ModelKind.PGDUSE]
    lam, theta = row.params
    report("criterion 1 (PGDUSE row)", [
        close("lambda_hat", lam, 0.03362141, 5e-5),
        close("theta_hat", theta, 3.80657627, 5e-3),
        close("logL", row.log_likelihood, -113.003, 5e-3),
        close("AIC", row.aic, 230.006, 1e-2),
        close("BIC", row.bic, 232.277, 1e-2),
        close("KS", row.ks_d, 0.11025, 1e-3),
        close("p", row.p_value, 0.9425, 5e-3),
        true_check("converged", row.converged),
    ])


def test_criterion_2_gduse_row(lawless_rows):
    row = lawless_rows[ModelKind.GDUSE]
    alpha, beta = row.params
    report("criterion 2 (GDUSE row)", [
        close("alpha_hat", alpha, 4.73914452, 5e-2),
        close("beta_hat", beta, 0.03553247, 5e-4),
        close("logL", row.log_likelihood, -113.0466, 5e-3),
        close("AIC", row.aic, 230.0931, 1e-2),
        close("BIC", row.bic, 232.3641, 1e-2),
        true_check("converged", row.converged),
    ])


def test_criterion_3_ed_row(lawless, lawless_rows):
    row = lawless_rows[ModelKind.ED]
    closed_form = lawless.n / lawless.total
    report("criterion 3 (ED row)", [
        # documented spec defect: 23/1661.48 = 0.0138430797, which sits
        # 1.9e-7 from the published 0.01384327; asserted as stated
        close("theta_hat (published +- 1e-7)", row.params[0], 0.01384327, 1e-7),
        close("theta_hat equals closed form", row.params[0], closed_form, 1e-15),
        close("logL", row.log_likelihood, -121.4393, 5e-3),
        close("AIC", row.aic, 244.8786, 1e-2),
        close("BIC", row.bic, 246.0141, 1e-2),
        close("KS", row.ks_d, 0.30673, 1e-3),
    ])


def test_criterion_4_kme_row(lawless_rows):
    row = lawless_rows[ModelKind.KME]
    report("criterion 4 (KME row)", [
        close("theta_hat", row.params[0], 0.009544456, 1e-5),
        close("logL", row.log_likelihood, -123.1065, 5e-3),
        close("AIC", row.aic, 248.2129, 1e-2),
        true_check("converged", row.converged),
    ])


# ----------------------------------------------------------------------
# criterion 5: documented discrepancies
# ----------------------------------------------------------------------

def test_criterion_5_documented_discrepancies(lawless, lawless_table, lawless_rows):
    duse = lawless_rows[ModelKind.DUSE]
    published = {
        "duse_logL": -127.4622,
        "duse_bic": 261.1954,
        "kme_logL": -123.1065,
        "kme_bic": 252.4839,
    }
    log_n = math.log(lawless.n)
    duse_offset = published["duse_bic"] - bic(published["duse_logL"], 1, lawless.n)
    kme_offset = published["kme_bic"] - bic(published["kme_logL"], 1, lawless.n)
    notes = " ".join(lawless_table.footnotes).lower()
    report("criterion 5 (audited deviations)", [
        close("a_hat", duse.params[0], 0.01824005, 1e-4),
        close("DUSE logL (recomputed oracle)", duse.log_likelihood, -119.24, 0.05),
        close("DUSE published BIC = k1 BIC + log n", duse_offset, log_n, 1e-3),
        close("KME published BIC = k1 BIC + log n", kme_offset, log_n, 1e-3),
        true_check("footnote block present", len(lawless_table.footnotes) == 2),
        true_check("footnotes mention DUSE logL", "duse" in notes and "-127.4622" in notes),
        true_check("footnotes mention k=1", "k=1" in notes),
    ])


# ----------------------------------------------------------------------
# criterion 6: model ranking
# ----------------------------------------------------------------------

def test_criterion_6_ranking(lawless_rows):
    pg = lawless_rows[ModelKind.PGDUSE]
    others = [row for kind, row in lawless_rows.items() if kind is not ModelKind.PGDUSE]
    report("criterion 6 (PGDUSE ranks first)", [
        true_check("highest logL", all(pg.log_likelihood > o.log_likelihood for o in others)),
        true_check("highest p", all(pg.p_value > o.p_value for o in others)),
        true_check("lowest AIC", all(pg.aic < o.aic for o in others)),
        true_check("lowest BIC", all(pg.bic < o.bic for o in others)),
        true_check("lowest KS", all(pg.ks_d < o.ks_d for o in others)),
    ])


# ----------------------------------------------------------------------
# criterion 7: series vs quadrature oracles
# ----------------------------------------------------------------------

def test_criterion_7_series_oracles():
    checks = []
    for lam in GRID_LAMBDAS:
        for theta in GRID_THETAS:
            p = PgduseParams(lam, theta)
            for r in (1, 2, 3, 4):
                series = raw_moment_series(p, r)
                oracle = raw_moment_quadrature(ModelKind.PGDUSE, p, r)
                checks.append(close(
                    f"moment lam={lam} th={theta} r={r}", series / oracle, 1.0, 1e-6,
                ))
            for t in (-1.0, 0.0, 0.4 * lam):
                series = mgf(p, t)
                oracle = mgf_quadrature(p, t)
                checks.append(close(
                    f"mgf lam={lam} th={theta} t={t:g}", series / oracle, 1.0, 1e-6,
                ))
            for t in (0.0, 1.0):
                series = cf(p, t)
                oracle = cf_quadrature(p, t)
                checks.append(close(
                    f"cf lam={lam} th={theta} t={t:g}",
                    abs(series - oracle) / abs(oracle), 0.0, 1e-6,
                ))
            for delta in (0.5, 2.0, 3.0):
                if delta * (1.0 - theta) >= 1.0:
                    raised_quad = raised_series = False
                    try:
                        renyi_entropy(ModelKind.PGDUSE, p, delta)
                    except QuadFailure:
                        raised_quad = True
                    try:
                        renyi_entropy_series(p, delta)
                    except SeriesDivergence:
                        raised_series = True
                    checks.append(true_check(
                        f"entropy lam={lam} th={theta} d={delta:g} non-integrable flagged",
                        raised_quad and raised_series,
                    ))
                    continue
                series = renyi_entropy_series(p, delta)
                oracle = renyi_entropy(ModelKind.PGDUSE, p, delta)
                scale = max(abs(oracle), 1.0)
                checks.append(close(
                    f"entropy lam={lam} th={theta} d={delta:g}",
                    abs(series - oracle) / scale, 0.0, 1e-5,
                ))
    report("criterion 7 (series vs quadrature grid)", checks)


# ----------------------------------------------------------------------
# criterion 8: property suite
# ----------------------------------------------------------------------

def test_criterion_8_property_suite(lawless):
    checks = []
    # normalization within 1e-7
    for lam in GRID_LAMBDAS:
        for theta in GRID_THETAS:
            p = (lam, theta)
            top = quantile(ModelKind.PGDUSE, p, 1.0 - 1e-10)
            from pgduse import pdf

            total, _ = quad(lambda x: pdf(ModelKind.PGDUSE, p, x), 0.0, top,
                            epsabs=1e-12, epsrel=1e-10, limit=1000,
                            points=[quantile(ModelKind.PGDUSE, p, q) for q in (0.25, 0.5, 0.75)])
            checks.append(close(f"normalization lam={lam} th={theta}", total, 1.0, 1e-7))
    # quantile round trips within 1e-9
    rt_ok = True
    for lam in GRID_LAMBDAS:
        for theta in GRID_THETAS:
            for q in (1e-6, 0.1, 0.5, 0.9, 0.999):
                err = abs(cdf(ModelKind.PGDUSE, (lam, theta), quantile(ModelKind.PGDUSE, (lam, theta), q)) - q)
                rt_ok = rt_ok and err <= 1e-9
            for x in (0.1, 1.0, 10.0):
                q = cdf(ModelKind.PGDUSE, (lam, theta), x)
                if 1.0 - q < 1e-7:  # q within a few ulps of 1: x not recoverable
                    continue
                back = quantile(ModelKind.PGDUSE, (lam, theta), q)
                rt_ok = rt_ok and abs(back - x) <= 1e-9 * max(1.0, x)
    checks.append(true_check("quantile/cdf round trips (1e-9)", rt_ok))
    # theta = 1 submodel identity within 1e-12
    xs = np.linspace(0.0, 30.0, 400)
    gap = max(
        float(np.max(np.abs(
            np.asarray(cdf(ModelKind.PGDUSE, (lam, 1.0), xs))
            - np.asarray(cdf(ModelKind.DUSE, (lam,), xs))
        )))
        for lam in GRID_LAMBDAS
    )
    checks.append(close("PGDUSE(theta=1) vs DUSE sup-gap", gap, 0.0, 1e-12))
    # analytic score vs central differences within 1e-6 relative
    lam, theta = 0.02, 2.0
    analytic = score_pgduse((lam, theta), lawless)
    fd = np.empty(2)
    for j, (value, step) in enumerate(((lam, 1e-6 * lam), (theta, 1e-6 * theta))):
        hi, lo = [lam, theta], [lam, theta]
        hi[j] = value + step
        lo[j] = value - step
        fd[j] = (log_likelihood(ModelKind.PGDUSE, hi, lawless)
                 - log_likelihood(ModelKind.PGDUSE, lo, lawless)) / (2.0 * step)
    checks.append(close(
        "score vs finite differences",
        float(np.max(np.abs(fd - analytic) / np.abs(analytic))), 0.0, 1e-6,
    ))
    # order-statistic extreme identities within 1e-12
    p = PgduseParams(1.0, 2.0)
    grid = np.linspace(0.05, 8.0, 100)
    g = np.asarray(cdf(ModelKind.PGDUSE, p, grid))
    s = np.asarray(survival(ModelKind.PGDUSE, p, grid))
    max_gap = float(np.max(np.abs(np.asarray(order_stat_cdf(p, OrderSpec(4, 4), grid)) - g ** 4)))
    min_gap = float(np.max(np.abs(np.asarray(order_stat_cdf(p, OrderSpec(4, 1), grid)) - (1 - s ** 4))))
    checks.append(close("order-stat maximum identity", max_gap, 0.0, 1e-12))
    checks.append(close("order-stat minimum identity", min_gap, 0.0, 1e-12))
    # generating functions at the origin within 1e-10
    origin_ok = True
    for lam in GRID_LAMBDAS:
        for theta in GRID_THETAS:
            pp = PgduseParams(lam, theta)
            origin_ok = origin_ok and abs(mgf(pp, 0.0) - 1.0) <= 1e-10
            origin_ok = origin_ok and abs(cf(pp, 0.0) - 1.0) <= 1e-10
            origin_ok = origin_ok and abs(cgf(pp, 0.0)) <= 1e-10
    checks.append(true_check("mgf(0)=1, cf(0)=1+0i, cgf(0)=0 (1e-10)", origin_ok))
    report("criterion 8 (property suite)", checks)


# ----------------------------------------------------------------------
# criterion 9: statistical self-consistency
# ----------------------------------------------------------------------

def test_criterion_9_self_consistency():
    true = PgduseParams(0.05, 3.0)
    xs = sample(ModelKind.PGDUSE, true, 5000, seed=42)
    fit = fit_mle(ModelKind.PGDUSE, Dataset(xs))
    lam, theta = fit.params.as_tuple()

    big = sample(ModelKind.PGDUSE, (1.0, 2.0), 10000, seed=99)
    d = ks_statistic(Dataset(big), lambda x: cdf(ModelKind.PGDUSE, (1.0, 2.0), x))
    p_exact = ks_pvalue(d, 10000, "exact")
    p_asym = ks_pvalue(d, 10000, "asymptotic")
    report("criterion 9 (self-consistency)", [
        close("lambda recovery (rel)", abs(lam - 0.05) / 0.05, 0.0, 0.10),
        close("theta recovery (rel)", abs(theta - 3.0) / 3.0, 0.0, 0.10),
        true_check("synthetic fit converged", fit.converged),
        true_check("seeded sample passes KS at 1% (exact)", p_exact > 0.01),
        true_check("seeded sample passes KS at 1% (asymptotic)", p_asym > 0.01),
    ])
