"""Reference values that do not come from the code under test.

Everything here is written from the model definitions in the paper, not
from ``pgduse``: float64 formulas for sampling and log-likelihoods,
mpmath formulas (40 digits) for the distribution surface and order
statistics, and independent adaptive quadrature of the float density for
the analytic quantities.  KS p-values come from scipy.

All five models transform the exponential baseline F(x) = 1 - exp(-r x):

    pgduse(lam, theta)  G = ((exp(F) - 1) / (e - 1))**theta
    gduse(alpha, beta)  G = (exp(F**alpha) - 1) / (e - 1)
    duse(a)             pgduse with theta = 1
    kme(theta)          G = e / (e - 1) * (1 - exp(-F))
    ed(theta)           G = F
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
from scipy import integrate, special, stats

KINDS = ("pgduse", "gduse", "duse", "kme", "ed")
ARITY = {"pgduse": 2, "gduse": 2, "duse": 1, "kme": 1, "ed": 1}
EM1 = math.e - 1.0
LOG_EM1 = math.log(EM1)
DPS = 40


def rate(kind: str, p) -> float:
    return p[1] if kind == "gduse" else p[0]


# ----------------------------------------------------------------------
# float64: sampling and log-likelihood
# ----------------------------------------------------------------------

def np_quantile(kind: str, p, u: np.ndarray) -> np.ndarray:
    """Closed-form inverse cdf, solved for the baseline F and then x."""
    u = np.asarray(u, dtype=float)
    if kind in ("pgduse", "duse"):
        theta = p[1] if kind == "pgduse" else 1.0
        big_f = np.log1p(EM1 * u ** (1.0 / theta))
    elif kind == "gduse":
        big_f = np.log1p(EM1 * u) ** (1.0 / p[0])
    elif kind == "kme":
        big_f = -np.log1p(-u * EM1 / math.e)
    else:
        big_f = u
    return -np.log1p(-big_f) / rate(kind, p)


def np_log_pdf(kind: str, p, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    r = rate(kind, p)
    big_f = -np.expm1(-r * x)
    if kind in ("pgduse", "duse"):
        theta = p[1] if kind == "pgduse" else 1.0
        out = math.log(theta * r) - r * x + big_f - theta * LOG_EM1
        if theta != 1.0:
            out = out + (theta - 1.0) * np.log(np.expm1(big_f))
        return out
    if kind == "gduse":
        alpha = p[0]
        return (math.log(alpha * r) - r * x + (alpha - 1.0) * np.log(big_f)
                + big_f ** alpha - LOG_EM1)
    if kind == "kme":
        return math.log(math.e / EM1) + math.log(r) - r * x - big_f
    return math.log(r) - r * x


def np_cdf(kind: str, p, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    big_f = -np.expm1(-rate(kind, p) * x)
    if kind in ("pgduse", "duse"):
        theta = p[1] if kind == "pgduse" else 1.0
        return (np.expm1(big_f) / EM1) ** theta
    if kind == "gduse":
        return np.expm1(big_f ** p[0]) / EM1
    if kind == "kme":
        return -math.e / EM1 * np.expm1(-big_f)
    return big_f


def log_likelihood(kind: str, p, x: np.ndarray) -> float:
    return float(math.fsum(np_log_pdf(kind, p, x)))


def ks_distance(kind: str, p, x: np.ndarray) -> float:
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    f = np_cdf(kind, p, xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(f - (i - 1) / n), np.max(i / n - f)))


def ks_pvalue(d: float, n: int, method: str) -> float:
    if method == "exact":
        return float(stats.kstwo.sf(d, n))
    return float(special.kolmogorov(math.sqrt(n) * d))


# ----------------------------------------------------------------------
# mpmath: distribution surface
# ----------------------------------------------------------------------

def _mp(v):
    return mpmath.mpf(float(v))


def _parts(kind: str, p, x):
    """(D, F) = (exp(-r x), 1 - exp(-r x)) at 40 digits."""
    d = mpmath.exp(-_mp(rate(kind, p)) * x)
    return d, -mpmath.expm1(-_mp(rate(kind, p)) * x)


def mp_cdf(kind: str, p, x):
    _, big_f = _parts(kind, p, x)
    e1 = mpmath.e - 1
    if kind in ("pgduse", "duse"):
        theta = _mp(p[1]) if kind == "pgduse" else 1
        return (mpmath.expm1(big_f) / e1) ** theta
    if kind == "gduse":
        return mpmath.expm1(big_f ** _mp(p[0])) / e1
    if kind == "kme":
        return -mpmath.e / e1 * mpmath.expm1(-big_f)
    return big_f


def mp_sf(kind: str, p, x):
    """Survival written around D = exp(-r x) so the far tail keeps its digits."""
    d, _ = _parts(kind, p, x)
    e1 = mpmath.e - 1
    if kind in ("pgduse", "duse"):
        theta = _mp(p[1]) if kind == "pgduse" else 1
        a = -mpmath.e * mpmath.expm1(-d) / e1          # 1 - G**(1/theta)
        return -mpmath.expm1(theta * mpmath.log1p(-a))
    if kind == "gduse":
        b = -mpmath.expm1(_mp(p[0]) * mpmath.log1p(-d))  # 1 - F**alpha
        return -mpmath.e * mpmath.expm1(-b) / e1
    if kind == "kme":
        return mpmath.expm1(d) / e1
    return d


def mp_pdf(kind: str, p, x):
    d, big_f = _parts(kind, p, x)
    e1 = mpmath.e - 1
    dfdx = _mp(rate(kind, p)) * d
    if kind in ("pgduse", "duse"):
        theta = _mp(p[1]) if kind == "pgduse" else 1
        dg = theta * (mpmath.expm1(big_f) / e1) ** (theta - 1) * mpmath.exp(big_f) / e1
    elif kind == "gduse":
        alpha = _mp(p[0])
        dg = alpha * big_f ** (alpha - 1) * mpmath.exp(big_f ** alpha) / e1
    elif kind == "kme":
        dg = mpmath.e / e1 * mpmath.exp(-big_f)
    else:
        dg = 1
    return dg * dfdx


def mp_quantile(kind: str, p, q):
    q = mpmath.mpf(q)
    e1 = mpmath.e - 1
    if kind in ("pgduse", "duse"):
        theta = _mp(p[1]) if kind == "pgduse" else 1
        big_f = mpmath.log1p(e1 * q ** (1 / theta))
    elif kind == "gduse":
        big_f = mpmath.log1p(e1 * q) ** (1 / _mp(p[0]))
    elif kind == "kme":
        big_f = -mpmath.log1p(-q * e1 / mpmath.e)
    else:
        big_f = q
    return -mpmath.log1p(-big_f) / _mp(rate(kind, p))


def mp_surface(fn: str, kind: str, p, x):
    """Value of surface function ``fn`` at float ``x`` (q for quantile)."""
    if fn == "cdf":
        return mp_cdf(kind, p, x)
    if fn == "survival":
        return mp_sf(kind, p, x)
    if fn == "pdf":
        return mp_pdf(kind, p, x)
    if fn == "log_pdf":
        return mpmath.log(mp_pdf(kind, p, x))
    if fn == "hazard":
        return mp_pdf(kind, p, x) / mp_sf(kind, p, x)
    if fn == "quantile":
        return mp_quantile(kind, p, x)
    raise ValueError(fn)


EPS = float(np.finfo(float).eps)


def surface_reference(fn: str, kind: str, p, x: float) -> tuple[float, float]:
    """(value, tolerance) for one checkpoint.

    The tolerance is 1e-9 relative plus the error that rounding the input
    itself causes (32 ulp times |x f'(x)|, the condition of the problem),
    plus 1e-300 absolute so results below the normal range may flush.
    """
    with mpmath.workdps(DPS):
        xm = _mp(x)
        value = mp_surface(fn, kind, p, xm)
        slope = mpmath.diff(lambda t: mp_surface(fn, kind, p, t), xm)
        tol = 1e-9 * abs(value) + 32 * EPS * abs(xm * slope) + mpmath.mpf("1e-300")
        if fn == "log_pdf":
            tol += 1e-12
        return float(value), float(tol)


def sample_probabilities(kind: str, p, probs) -> list[float]:
    with mpmath.workdps(DPS):
        return [float(mp_quantile(kind, p, q)) for q in probs]


# ----------------------------------------------------------------------
# mpmath: order statistics of the pgduse parent
# ----------------------------------------------------------------------

def _order_log_pdf(p, n: int, r: int, x):
    g_cdf, g_sf, g_pdf = mp_cdf("pgduse", p, x), mp_sf("pgduse", p, x), mp_pdf("pgduse", p, x)
    log_coef = mpmath.loggamma(n + 1) - mpmath.loggamma(r) - mpmath.loggamma(n - r + 1)
    out = log_coef + mpmath.log(g_pdf)
    if r > 1:
        out += (r - 1) * mpmath.log(g_cdf)
    if n > r:
        out += (n - r) * mpmath.log(g_sf)
    return out


def order_reference(fn: str, p, n: int, r: int, x: float) -> tuple[float, float]:
    """(value, tolerance) for order_stat_pdf / order_stat_cdf at ``x``."""
    with mpmath.workdps(DPS):
        xm = _mp(x)
        pdf_val = mpmath.exp(_order_log_pdf(p, n, r, xm))
        if fn == "cdf":
            value = mpmath.betainc(r, n - r + 1, 0, mp_cdf("pgduse", p, xm), regularized=True)
            slope = pdf_val
        else:
            value = pdf_val
            slope = mpmath.diff(lambda t: mpmath.exp(_order_log_pdf(p, n, r, t)), xm)
        tol = 1e-9 * abs(value) + 64 * EPS * abs(xm * slope) + mpmath.mpf("1e-300")
        return float(value), float(tol)


def system_reference(p, n: int, topology: str, x: float) -> tuple[float, float]:
    r = 1 if topology == "series" else n
    return order_reference("cdf", p, n, r, x)


# ----------------------------------------------------------------------
# independent quadrature: analytic quantities of pgduse
# ----------------------------------------------------------------------

def _float_log_pdf(p):
    lam, theta = p

    def log_g(x: float) -> float:
        big_f = -math.expm1(-lam * x)
        out = math.log(theta * lam) - lam * x + big_f - theta * LOG_EM1
        if theta != 1.0:
            out += (theta - 1.0) * math.log(math.expm1(big_f))
        return out

    return log_g


def _positive(log_integrand):
    """exp of a log-integrand, 0 at the origin where the log is undefined."""
    return lambda x: math.exp(log_integrand(x)) if x > 0.0 else 0.0


def _split_points(p) -> tuple[float, float]:
    lo, hi = np_quantile("pgduse", p, np.array([0.05, 0.95]))
    return float(lo), float(hi)


def _integral(func, p) -> float:
    """Integral of func over (0, inf), split at the 5% and 95% quantiles."""
    a, b = _split_points(p)
    kw = dict(epsabs=0.0, epsrel=1e-12, limit=500)
    total = 0.0
    for lo, hi in ((0.0, a), (a, b), (b, math.inf)):
        total += integrate.quad(func, lo, hi, **kw)[0]
    return total


def raw_moment(p, r: int) -> float:
    log_g = _float_log_pdf(p)
    return _integral(_positive(lambda x: r * math.log(x) + log_g(x)), p)


def mgf(p, t: float) -> float:
    log_g = _float_log_pdf(p)
    return _integral(_positive(lambda x: t * x + log_g(x)), p)


def cf(p, t: float) -> complex:
    g = _positive(_float_log_pdf(p))
    a, _ = _split_points(p)
    kw = dict(epsabs=0.0, epsrel=1e-12, limit=500)
    re = integrate.quad(lambda x: math.cos(t * x) * g(x), 0.0, a, **kw)[0]
    im = integrate.quad(lambda x: math.sin(t * x) * g(x), 0.0, a, **kw)[0]
    re += integrate.quad(g, a, math.inf, weight="cos", wvar=t, limlst=200)[0]
    im += integrate.quad(g, a, math.inf, weight="sin", wvar=t, limlst=200)[0]
    return complex(re, im)


def cgf(p, t: float) -> complex:
    return cmath.log(cf(p, t))


def renyi(p, delta: float):
    """Renyi entropy, or None where pdf**delta is not integrable at 0."""
    if delta * (1.0 - p[1]) >= 1.0:
        return None
    log_g = _float_log_pdf(p)
    return math.log(_integral(_positive(lambda x: delta * log_g(x)), p)) / (1.0 - delta)
