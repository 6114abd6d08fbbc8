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


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; only the exact KS
    # p-value needs it, and it loads it on first use
    code = "import sys, pgduse, pgduse.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


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
