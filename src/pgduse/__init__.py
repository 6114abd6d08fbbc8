"""Power-generalized DUS lifetime distributions.

A numpy/scipy library around the PGDUS transform of the exponential
baseline (the PGDUSE distribution) and its four companion models (GDUSE,
DUSE, KME, ED): the full distribution-function surface, series and
quadrature analytics, maximum-likelihood fitting, and goodness-of-fit
model comparison, plus a small CLI (``pgduse --help``).
"""

__version__ = "0.1.0"

from .analytic import (
    QuadOptions,
    SeriesOptions,
    cf,
    cf_quadrature,
    cgf,
    central_moment,
    kurtosis,
    mean,
    mgf,
    mgf_quadrature,
    raw_moment_quadrature,
    raw_moment_series,
    renyi_entropy,
    renyi_entropy_series,
    skewness,
    variance,
)
from .datasets import LAWLESS_BALL_BEARINGS, load_dataset
from .distributions import (
    Dataset,
    GduseParams,
    ModelKind,
    ParamVector,
    PgduseParams,
    ScalarParam,
    cdf,
    hazard,
    log_pdf,
    median,
    pdf,
    quantile,
    sample,
    survival,
    validate_params,
)
from .errors import (
    ArityMismatch,
    DomainError,
    EmptyDataset,
    LogOfZero,
    NonPositiveObservation,
    NonPositiveParameter,
    ParseError,
    PgduseError,
    QuadFailure,
    SeriesDivergence,
)
from .estimation import (
    FitOptions,
    FitResult,
    fit_ed_closed_form,
    fit_mle,
    log_likelihood,
    score_pgduse,
)
from .model_selection import (
    ComparisonRow,
    ComparisonTable,
    EcdfView,
    aic,
    bic,
    compare,
    ecdf,
    ks_pvalue,
    ks_statistic,
)
from .order_statistics import (
    OrderSpec,
    order_stat_cdf,
    order_stat_pdf,
    system_lifetime_cdf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
