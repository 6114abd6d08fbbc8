"""Order statistics of an i.i.d. PGDUSE sample; series/parallel lifetimes.

Built from the parent distribution functions G and g through the standard
identities

    pdf_(r)(x) = n! / ((r-1)! (n-r)!) * G**(r-1) * (1-G)**(n-r) * g
    cdf_(r)(x) = sum_{i=r..n} C(n, i) * G**i * (1-G)**(n-i)
               = I_G(r, n - r + 1)    (the regularized incomplete beta)

so the minimum (r = 1) and maximum (r = n) are the lifetimes of series and
parallel systems of n identical components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _MODELS,
    ArrayLike,
    ModelKind,
    PgduseParams,
    _coerce,
    _count,
    _on_support,
    _split_input,
    _wrap_output,
    cdf,
)
from .errors import DomainError

__all__ = ["OrderSpec", "order_stat_pdf", "order_stat_cdf", "system_lifetime_cdf"]


@dataclass(frozen=True)
class OrderSpec:
    """Rank r within a sample of size n, 1 <= r <= n."""

    n: int
    r: int

    def __post_init__(self):
        n, r = _count("sample size", self.n, 1), _count("rank", self.r, 1)
        if r > n:
            raise DomainError(f"rank must be an integer in [1, {n}], got {self.r!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)


def order_stat_pdf(p: PgduseParams, spec: OrderSpec, x: ArrayLike):
    """Density of the r-th smallest of n draws at ``x``.

    G**(r-1) * g is the PGDUSE density at shape r*theta over r, so this
    is C(n, r) * pdf((lam, r*theta), x) * (1 - G)**(n-r), summed in log
    space from the record's kernels.  The 0 * inf that a naive
    ``G**(r-1) * g`` hits at the origin (where G = 0 while g may diverge)
    never arises.  Raises :class:`DomainError` if r*theta overflows.
    """
    params = _coerce(ModelKind.PGDUSE, p)
    n, r = spec.n, spec.r
    if not math.isfinite(r * params[1]):
        raise DomainError(f"rank times theta must be finite, got {r} * {params[1]!r}")
    log_coef = math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
    model = _MODELS[ModelKind.PGDUSE]

    def kernel(params, xs):
        lam, theta = params
        logs = log_coef + model.log_pdf((lam, r * theta), xs)
        if n > r:
            logs = logs + (n - r) * model.log_sf(params, xs)
        return np.exp(logs)

    arr, scalar = _split_input(x)
    return _wrap_output(_on_support(kernel, params, arr, 0.0, closed=True), scalar)


def order_stat_cdf(p: PgduseParams, spec: OrderSpec, x: ArrayLike):
    """P(r-th smallest of n draws <= x) = I_G(r, n - r + 1)."""
    from scipy.special import betainc
    params = _coerce(ModelKind.PGDUSE, p)
    arr, scalar = _split_input(x)
    out = betainc(spec.r, spec.n - spec.r + 1, cdf(ModelKind.PGDUSE, params, arr))
    return _wrap_output(np.clip(out, 0.0, 1.0), scalar)


def system_lifetime_cdf(p: PgduseParams, n: int, topology: str, t: ArrayLike):
    """Failure-time cdf of a series or parallel system of n components.

    A series system dies with its first failing component (rank 1); a
    parallel system with its last (rank n).
    """
    topo = topology.strip().lower() if isinstance(topology, str) else None
    if topo == "series":
        spec = OrderSpec(n, 1)
    elif topo == "parallel":
        spec = OrderSpec(n, n)
    else:
        raise DomainError(f"topology must be 'series' or 'parallel', got {topology!r}")
    return order_stat_cdf(p, spec, t)
