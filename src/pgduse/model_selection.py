"""Goodness of fit and model comparison: ECDF, KS test, AIC/BIC, ranking.

The exact Kolmogorov-Smirnov p-value is scipy's ``kstwo`` survival function
(the Simard-L'Ecuyer algorithm); the asymptotic alternative is the
Kolmogorov series 2 * sum_k (-1)**(k-1) exp(-2 k^2 n d^2), evaluated by
``scipy.special.kolmogorov`` at sqrt(n) * d.  The reference analysis
this package reproduces reports asymptotic p-values (at n = 23 the exact
ones differ by up to ~0.05), so ``asymptotic`` is the default method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import (Dataset, ModelKind, _count, _dataset, _real, _split_input,
                            _wrap_output, cdf)
from .errors import DomainError
from .estimation import FitResult, fit_mle

__all__ = [
    "EcdfView",
    "ComparisonRow",
    "ComparisonTable",
    "ecdf",
    "ks_statistic",
    "ks_pvalue",
    "aic",
    "bic",
    "compare",
    "DEFAULT_MODEL_ORDER",
]

DEFAULT_MODEL_ORDER = tuple(ModelKind)


@dataclass(frozen=True)
class EcdfView:
    """Right-continuous empirical cdf: step i/n at the i-th sorted point."""

    points: np.ndarray
    steps: np.ndarray

    def value_at(self, x) -> np.ndarray:
        """ECDF evaluated at ``x`` (fraction of sample <= x), NaN at a NaN point."""
        x, scalar = _split_input(x)
        values = np.searchsorted(self.points, x, side="right") / len(self.points)
        values[np.isnan(x)] = np.nan
        return _wrap_output(values, scalar)


def ecdf(data: Dataset) -> EcdfView:
    """Empirical distribution function of the sample."""
    n = _dataset(data).n
    return EcdfView(points=data.sorted_values, steps=np.arange(1, n + 1) / n)


def ks_statistic(data: Dataset, model_cdf: Callable) -> float:
    """Two-sided KS distance between the sample ECDF and ``model_cdf``.

    D_n = max over sorted points of max(F(x_(i)) - (i-1)/n, i/n - F(x_(i))).
    """
    xs = _dataset(data).sorted_values
    n = data.n
    f = np.asarray(model_cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(f - (i - 1) / n), np.max(i / n - f)))


def ks_pvalue(d: float, n: int, method: str = "asymptotic") -> float:
    """P(D_n >= d) under the null, clamped to [0, 1].

    ``method`` is ``"exact"`` (the finite-n law, ``scipy.stats.kstwo``) or
    ``"asymptotic"`` (the Kolmogorov limit, ``scipy.special.kolmogorov``
    at sqrt(n) * d; the default, and what the reference analysis reports).
    """
    d = _real("KS statistic", d)
    if not 0.0 <= d <= 1.0:
        raise DomainError(f"KS statistic must lie in [0, 1], got {d!r}")
    n = _count("sample size", n, 1)
    if method not in ("exact", "asymptotic"):
        raise DomainError(f"method must be 'exact' or 'asymptotic', got {method!r}")
    if d == 0.0:
        return 1.0
    # scipy takes most of a second to import, so every scipy import in the
    # package sits in the call that needs it and ``import pgduse`` loads numpy only
    if method == "exact":
        from scipy.stats import kstwo
        return min(max(float(kstwo.sf(d, n)), 0.0), 1.0)
    from scipy.special import kolmogorov
    return min(max(float(kolmogorov(math.sqrt(n) * d)), 0.0), 1.0)


def aic(log_likelihood: float, k: int) -> float:
    """Akaike information criterion -2 logL + 2k."""
    return -2.0 * _real("log-likelihood", log_likelihood) + 2.0 * _count("parameter count", k, 0)


def bic(log_likelihood: float, k: int, n: int) -> float:
    """Bayesian information criterion -2 logL + k log n."""
    k = _count("parameter count", k, 0)
    return -2.0 * _real("log-likelihood", log_likelihood) + k * math.log(_count("sample size", n, 1))


@dataclass(frozen=True)
class ComparisonRow:
    """Fit plus goodness-of-fit summaries for one model on one dataset."""

    kind: ModelKind
    params: tuple[float, ...]
    log_likelihood: float
    aic: float
    bic: float
    ks_d: float
    p_value: float
    param_count: int
    converged: bool
    fit: FitResult

    def param_dict(self) -> dict[str, float]:
        return dict(zip(self.kind.param_names, self.params))


@dataclass(frozen=True)
class ComparisonTable:
    """Comparison rows ranked by AIC, plus documented-deviation footnotes."""

    rows: tuple[ComparisonRow, ...]
    footnotes: tuple[str, ...]
    n: int

    def best(self) -> ComparisonRow:
        return self.rows[0]


_DUSE_FOOTNOTE = (
    "DUSE: log-likelihood is recomputed from the fitted parameter "
    "(about -119.24 on the built-in bearing data); the reference analysis "
    "reports -127.4622, which is inconsistent with its own score equation."
)
_BIC_FOOTNOTE = (
    "DUSE/KME: AIC and BIC use the true parameter count k=1; the reference "
    "analysis computed their BIC with k=2 (an offset of exactly log n)."
)


def _fit_row(kind: ModelKind, data: Dataset, pvalue_method: str = "asymptotic") -> ComparisonRow:
    """Fit one model and attach its criteria, KS distance and p-value."""
    fit = fit_mle(kind, data)
    params = fit.params.as_tuple()
    d = ks_statistic(data, lambda x: cdf(kind, params, x))
    return ComparisonRow(
        kind=kind,
        params=params,
        log_likelihood=fit.log_likelihood,
        aic=aic(fit.log_likelihood, kind.arity),
        bic=bic(fit.log_likelihood, kind.arity, data.n),
        ks_d=d,
        p_value=ks_pvalue(d, data.n, pvalue_method),
        param_count=kind.arity,
        converged=fit.converged,
        fit=fit,
    )


def compare(
    data: Dataset,
    kinds: Sequence[ModelKind] = DEFAULT_MODEL_ORDER,
    pvalue_method: str = "asymptotic",
) -> ComparisonTable:
    """Fit each model, attach criteria, and rank rows by ascending AIC.

    Rows that fail to converge are flagged, never dropped.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise DomainError("compare needs at least one model kind")
    rows = sorted((_fit_row(kind, data, pvalue_method) for kind in kinds),
                  key=lambda row: row.aic)
    footnotes = []
    if any(row.kind is ModelKind.DUSE for row in rows):
        footnotes.append(_DUSE_FOOTNOTE)
    if any(row.kind in (ModelKind.DUSE, ModelKind.KME) for row in rows):
        footnotes.append(_BIC_FOOTNOTE)
    return ComparisonTable(rows=tuple(rows), footnotes=tuple(footnotes), n=data.n)
