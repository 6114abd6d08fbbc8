import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import kstwo

from pgduse import (
    Dataset,
    DomainError,
    ModelKind,
    aic,
    bic,
    cdf,
    compare,
    ecdf,
    ks_pvalue,
    ks_statistic,
    sample,
)

E = math.e


# ----------------------------------------------------------------------
# ECDF
# ----------------------------------------------------------------------

def test_ecdf_simple_steps():
    view = ecdf(Dataset([1.0, 2.0, 3.0]))
    assert np.allclose(view.steps, [1 / 3, 2 / 3, 1.0])
    assert view.steps[-1] == 1.0


def test_ecdf_ties_jump_together():
    view = ecdf(Dataset([2.0, 2.0]))
    assert view.value_at(2.0) == 1.0
    assert view.value_at(1.9999) == 0.0


def test_ecdf_lawless_tied_point(lawless):
    view = ecdf(lawless)
    assert view.value_at(68.64) == pytest.approx(14.0 / 23.0, abs=0)


def test_ecdf_takes_real_points_only(lawless):
    # a NaN point once read 1.0 and text was parsed as a number
    view = ecdf(lawless)
    assert math.isnan(view.value_at(math.nan))
    values = view.value_at([math.nan, 68.64, math.inf])
    assert math.isnan(values[0]) and values[1:].tolist() == [14.0 / 23.0, 1.0]
    assert isinstance(view.value_at(68.64), float)
    for x in (None, "50", ["50"], [1.0, None]):
        with pytest.raises(DomainError):
            view.value_at(x)


# ----------------------------------------------------------------------
# KS statistic
# ----------------------------------------------------------------------

def test_ks_statistic_brute_force_oracle():
    data = Dataset([1.0, 2.0, 3.0])
    model = lambda x: -np.expm1(-np.asarray(x, dtype=float))
    # brute force: all six step comparisons
    xs = np.sort(data.observations)
    n = len(xs)
    candidates = []
    for i, x in enumerate(xs, start=1):
        candidates.append(abs(model(x) - (i - 1) / n))
        candidates.append(abs(i / n - model(x)))
    assert max(candidates) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert ks_statistic(data, model) == pytest.approx(max(candidates), abs=1e-15)
    assert ks_statistic(data, model) == pytest.approx(0.632121, abs=1e-6)


def test_ks_statistic_ignores_input_order():
    model = lambda x: -np.expm1(-np.asarray(x, dtype=float))
    a = ks_statistic(Dataset([3.0, 1.0, 2.0]), model)
    b = ks_statistic(Dataset([1.0, 2.0, 3.0]), model)
    assert a == b


def test_ks_statistic_lawless_rows(lawless_rows):
    assert lawless_rows[ModelKind.PGDUSE].ks_d == pytest.approx(0.11025, abs=1e-3)
    assert lawless_rows[ModelKind.ED].ks_d == pytest.approx(0.30673, abs=1e-3)
    assert lawless_rows[ModelKind.GDUSE].ks_d == pytest.approx(0.11793, abs=1e-3)


# ----------------------------------------------------------------------
# KS p-value
# ----------------------------------------------------------------------

def test_ks_pvalue_published_value_is_asymptotic():
    # the reference analysis reports 0.9425 at d = 0.11025, n = 23; only
    # the asymptotic series reproduces it (the exact law gives 0.9139)
    assert ks_pvalue(0.11025, 23, "asymptotic") == pytest.approx(0.9425, abs=5e-3)
    assert ks_pvalue(0.11025, 23, "exact") == pytest.approx(0.9138550918733085, abs=1e-10)


def test_ks_pvalue_exact_matches_scipy():
    for d in (0.05, 0.11025, 0.2, 0.35):
        for n in (5, 23, 60):
            assert ks_pvalue(d, n, "exact") == pytest.approx(
                float(kstwo.sf(d, n)), abs=1e-10
            )


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that sees this suite's path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


_SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # scipy takes most of a second to import, so each call that needs a
    # scipy module imports it, and the package and its CLI load none.
    # mpmath is a test dependency only, and no series sums in decimal
    code = ("import sys, pgduse, pgduse.cli; "
            f"print('scipy.stats' in sys.modules, 'mpmath' in sys.modules, "
            f"'decimal' in sys.modules, {_SCIPY_LOADED})")
    assert _fresh_python(code).strip() == "False False False []"


# the first call of every function that imports scipy where it runs:
# brentq (both GDUSE sites), kolmogorov, kstwo, betainc, the moment
# series' binom, digamma and zeta, and quad; the tanh-sinh oracle imports none
_LAZY_CALLS = """
import pgduse
from pgduse import ModelKind
fit = pgduse.fit_mle(ModelKind.GDUSE, pgduse.load_dataset("lawless"))
values = [
    fit.params, fit.log_likelihood, fit.iterations, fit.converged,
    pgduse.ks_pvalue(0.11025, 23), pgduse.ks_pvalue(0.11025, 23, "exact"),
    pgduse.order_stat_cdf((1.0, 2.0), pgduse.OrderSpec(5, 2), 0.7),
    pgduse.raw_moment_series((1.0, 2.5), 1),
    pgduse.raw_moment_quadrature(ModelKind.PGDUSE, (1.0, 2.5), 1),
    pgduse.cf_quadrature((1.0, 2.0), 0.7),
]
"""


def test_every_lazy_scipy_import_works_in_a_cold_interpreter():
    # the rest of the suite runs with scipy already imported by its test
    # modules; here each call is the first in a process that holds numpy only
    cold = _fresh_python(
        "import sys, pgduse\n"
        f"assert not {_SCIPY_LOADED}\n"
        + _LAZY_CALLS + "print(repr(values))"
    )
    warm = {}
    exec(_LAZY_CALLS, warm)
    assert cold.strip() == repr(warm["values"])


def test_only_the_cf_oracle_loads_scipy_integrate():
    # the tanh-sinh rule is numpy; QUADPACK, for the cf at t != 0, is scipy's
    code = (
        "import sys, pgduse\n"
        "from pgduse import ModelKind\n"
        "pgduse.raw_moment_quadrature(ModelKind.PGDUSE, (1.0, 2.5), 2)\n"
        "pgduse.mgf_quadrature((1.0, 2.5), 0.3)\n"
        "pgduse.renyi_entropy(ModelKind.KME, (1.0,), 2.0)\n"
        "pgduse.cf_quadrature((1.0, 2.5), 0.0)\n"
        "print('scipy.integrate' in sys.modules)\n"
        "pgduse.cf_quadrature((1.0, 2.5), 0.7)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    assert _fresh_python(code).split() == ["False", "True"]


def test_ks_pvalue_asymptotic_series_terms():
    # 2*(0.5717 - 0.1069 + 0.0065 - 0.0001) at d = 0.11025, n = 23
    a = 2.0 * 23.0 * 0.11025 ** 2
    terms = [(-1.0) ** (k - 1) * math.exp(-a * k * k) for k in range(1, 6)]
    assert terms[0] == pytest.approx(0.5717, abs=5e-4)
    assert ks_pvalue(0.11025, 23, "asymptotic") == pytest.approx(
        2.0 * sum(terms), abs=1e-8
    )


def test_ks_pvalue_edge_cases():
    assert ks_pvalue(0.0, 23) == 1.0
    assert ks_pvalue(0.0, 1, "exact") == 1.0
    assert ks_pvalue(1.0, 10, "exact") == 0.0
    with pytest.raises(DomainError):
        ks_pvalue(-0.1, 5)
    with pytest.raises(DomainError):
        ks_pvalue(1.5, 5)
    with pytest.raises(DomainError):
        ks_pvalue(0.5, 0)
    with pytest.raises(DomainError):
        ks_pvalue(0.5, 10, "bootstrap")
    # the method is checked before the d = 0 shortcut
    with pytest.raises(DomainError):
        ks_pvalue(0.0, 5, "bootstrap")
    # d must be a real number: None and text once leaked TypeError and
    # ValueError, and "0.1" was parsed
    for d in (None, "x", "0.1", b"0.1", 0.1j):
        with pytest.raises(DomainError):
            ks_pvalue(d, 5)


def test_sample_size_must_be_a_positive_integer():
    # a fractional or NaN n once gave p = 1.0 or NaN instead of an error
    for n in (2.5, math.nan, math.inf, 0, -3, "23"):
        with pytest.raises(DomainError):
            ks_pvalue(0.1, n)
        with pytest.raises(DomainError):
            bic(-1.0, 2, n)
    for n in (23, np.int64(23), np.int32(23), 23.0):
        assert ks_pvalue(0.11025, n) == ks_pvalue(0.11025, 23)
        assert ks_pvalue(0.11025, n, "exact") == ks_pvalue(0.11025, 23, "exact")
        assert bic(-113.003, 2, n) == bic(-113.003, 2, 23)


def test_parameter_count_must_be_a_non_negative_integer():
    # a text k once leaked a bare TypeError and a fractional one gave a value
    for k in (2.5, math.nan, math.inf, -1, "2", None):
        with pytest.raises(DomainError):
            aic(-1.0, k)
        with pytest.raises(DomainError):
            bic(-1.0, k, 23)
    for k in (2, np.int64(2), 2.0):
        assert aic(-113.003, k) == aic(-113.003, 2) == 230.006
        assert bic(-113.003, k, 23) == bic(-113.003, 2, 23)
    assert aic(-1.0, 0) == 2.0
    # so must the log-likelihood: None and "1" leaked a bare TypeError
    for value in (None, "1", b"1", 1j):
        with pytest.raises(DomainError):
            aic(value, 2)
        with pytest.raises(DomainError):
            bic(value, 2, 5)
    assert aic(np.float64(-113.003), 2) == 230.006


def test_ks_pvalue_monotone_in_d():
    for method in ("exact", "asymptotic"):
        values = [ks_pvalue(d, 23, method) for d in np.arange(0.02, 0.5, 0.02)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_ks_methods_gap_at_small_n():
    # the asymptotic p-value sits above the exact one at n = 23, by as
    # much as ~0.053 around d = 0.15; both are reported, asymptotic is
    # the benchmark's convention
    gaps = []
    for d in np.arange(0.05, 0.401, 0.01):
        exact = ks_pvalue(float(d), 23, "exact")
        asym = ks_pvalue(float(d), 23, "asymptotic")
        assert asym >= exact - 1e-9
        gaps.append(asym - exact)
    assert max(gaps) < 0.06


# ----------------------------------------------------------------------
# information criteria
# ----------------------------------------------------------------------

def test_aic_bic_values():
    assert aic(-113.003, 2) == pytest.approx(230.006, abs=1e-9)
    assert bic(-113.003, 2, 23) == pytest.approx(232.277, abs=1e-3)
    assert aic(0.0, 0) == 0.0
    assert bic(0.0, 0, 1) == 0.0


def test_aic_bic_identity_per_row(lawless_table):
    for row in lawless_table.rows:
        k, n = row.param_count, lawless_table.n
        assert row.aic == pytest.approx(-2.0 * row.log_likelihood + 2 * k, rel=1e-15)
        assert row.bic == pytest.approx(
            -2.0 * row.log_likelihood + k * math.log(n), rel=1e-15
        )
        assert row.aic - row.bic == pytest.approx(2 * k - k * math.log(n), abs=1e-12)


# ----------------------------------------------------------------------
# comparison table
# ----------------------------------------------------------------------

def test_compare_ranks_pgduse_first(lawless_table):
    assert lawless_table.best().kind is ModelKind.PGDUSE
    aics = [row.aic for row in lawless_table.rows]
    assert aics == sorted(aics)
    assert all(row.converged for row in lawless_table.rows)


def test_compare_pgduse_wins_every_criterion(lawless_rows):
    pg = lawless_rows[ModelKind.PGDUSE]
    for kind, row in lawless_rows.items():
        if kind is ModelKind.PGDUSE:
            continue
        assert pg.log_likelihood > row.log_likelihood
        assert pg.p_value > row.p_value
        assert pg.aic < row.aic
        assert pg.bic < row.bic
        assert pg.ks_d < row.ks_d


def test_compare_single_model_matches_direct_fit(lawless):
    from pgduse import fit_mle

    table = compare(lawless, [ModelKind.ED])
    assert len(table.rows) == 1
    row = table.rows[0]
    direct = fit_mle(ModelKind.ED, lawless)
    assert row.params == direct.params.as_tuple()
    assert row.log_likelihood == direct.log_likelihood


def test_compare_footnotes_document_deviations(lawless_table):
    notes = " ".join(lawless_table.footnotes).lower()
    assert "duse" in notes
    assert "k=1" in notes or "k = 1" in notes
    assert len(lawless_table.footnotes) == 2


def test_compare_requires_models(lawless):
    with pytest.raises(DomainError):
        compare(lawless, [])


def test_model_drawn_sample_has_small_distance():
    params = (1.0, 2.0)
    xs = sample(ModelKind.PGDUSE, params, 10000, seed=99)
    d = ks_statistic(Dataset(xs), lambda x: cdf(ModelKind.PGDUSE, params, x))
    assert d < 0.02
