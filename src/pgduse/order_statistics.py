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
from scipy.special import betainc

from .distributions import (
    _LOG_EM1,
    _MODELS,
    ArrayLike,
    ModelKind,
    PgduseParams,
    _coerce,
    _on_support,
    _pg_log_ratio,
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
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"sample size must be an integer >= 1, got {self.n!r}")
        if int(self.r) != self.r or not 1 <= self.r <= self.n:
            raise DomainError(f"rank must be an integer in [1, {self.n}], got {self.r!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "r", int(self.r))


def order_stat_pdf(p: PgduseParams, spec: OrderSpec, x: ArrayLike):
    """Density of the r-th smallest of n draws at ``x``.

    Evaluated in log space with the powers of G and g merged, so the
    0 * inf products that a naive ``G**(r-1) * g`` hits at the origin
    (where G = 0 while g may diverge) resolve to the correct limit.
    """
    params = _coerce(ModelKind.PGDUSE, p)
    n, r = spec.n, spec.r
    log_coef = math.log(r) + math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
    log_sf = _MODELS[ModelKind.PGDUSE].log_sf

    def kernel(params, xs):
        lam, theta = params
        # log(G**(r-1) * g) = log(theta*lam) + 1 - lam*x - exp(-lam*x) - log(e-1)
        #                     + (r*theta - 1)*log G1
        logs = (log_coef + math.log(theta) + math.log(lam) + 1.0 - _LOG_EM1
                - lam * xs - np.exp(-lam * xs))
        merged = r * theta - 1.0
        if merged != 0.0:
            logs = logs + merged * _pg_log_ratio(lam, xs)
        if n > r:
            logs = logs + (n - r) * log_sf(params, xs)
        return np.exp(logs)

    arr, scalar = _split_input(x)
    return _wrap_output(_on_support(kernel, params, arr, 0.0, closed=True), scalar)


def order_stat_cdf(p: PgduseParams, spec: OrderSpec, x: ArrayLike):
    """P(r-th smallest of n draws <= x) = I_G(r, n - r + 1)."""
    params = _coerce(ModelKind.PGDUSE, p)
    arr, scalar = _split_input(x)
    out = betainc(spec.r, spec.n - spec.r + 1, cdf(ModelKind.PGDUSE, params, arr))
    return _wrap_output(np.clip(out, 0.0, 1.0), scalar)


def system_lifetime_cdf(p: PgduseParams, n: int, topology: str, t: ArrayLike):
    """Failure-time cdf of a series or parallel system of n components.

    A series system dies with its first failing component (rank 1); a
    parallel system with its last (rank n).
    """
    topo = topology.strip().lower()
    if topo == "series":
        spec = OrderSpec(n, 1)
    elif topo == "parallel":
        spec = OrderSpec(n, n)
    else:
        raise DomainError(f"topology must be 'series' or 'parallel', got {topology!r}")
    return order_stat_cdf(p, spec, t)
