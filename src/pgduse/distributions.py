"""Distribution surface for the five DUS-family lifetime models.

All models are built from the exponential baseline F(x) = 1 - exp(-rate*x):

======  ==========================================================  ======
model   cdf G(x)                                                    params
======  ==========================================================  ======
PGDUSE  ((exp(1 - exp(-lam*x)) - 1) / (e - 1))**theta               lam, theta
GDUSE   (exp((1 - exp(-beta*x))**alpha) - 1) / (e - 1)              alpha, beta
DUSE    PGDUSE with theta = 1                                       a
KME     (e / (e - 1)) * (1 - exp(-(1 - exp(-theta*x))))             theta
ED      1 - exp(-theta*x)                                           theta
======  ==========================================================  ======

Each model is one record in ``_MODELS``: its parameter names and class,
the position of its rate, the power of x in its density at the origin,
and three log kernels, log cdf, log survival and log density, plus its
quantile.  The public functions below look the record up and share one
evaluation path: cdf, survival and pdf are ``exp`` of one log kernel,
and the hazard is exp(log density - log survival).  Past rate*x = 700
each log survival follows its exponential asymptote, so survival and
hazard keep their digits after the survival underflows.

Every function here is pure and accepts scalar or array-like evaluation
points, returning a ``float`` for scalar input and an ``ndarray`` otherwise.
Values of x below 0 follow the plotting-friendly convention cdf = 0,
pdf = 0, survival = 1.

An array of more than ``_BLOCK`` points goes through its kernel one block
at a time.  A kernel is a chain of a dozen or more whole-array ufuncs, and
in blocks of 16384 points (128 KB) their temporaries stay in L2 instead of
streaming through memory.  Every kernel is elementwise, so the values are
the same bit for bit.  Where the process may use two or more CPUs, the
calling thread and one helper thread share the blocks, since numpy
releases the GIL inside each ufunc.  Only one helper: every thread holds
its own block's temporaries, so more threads would raise the peak memory
over the output's size, and the GIL caps how far they would scale.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    ArityMismatch,
    DomainError,
    EmptyDataset,
    NonPositiveObservation,
    NonPositiveParameter,
)

__all__ = [
    "ModelKind",
    "PgduseParams",
    "GduseParams",
    "ScalarParam",
    "ParamVector",
    "Dataset",
    "validate_params",
    "cdf",
    "pdf",
    "log_pdf",
    "survival",
    "hazard",
    "quantile",
    "median",
    "sample",
]

_E = math.e
_EM1 = math.e - 1.0
_LOG_EM1 = math.log(math.e - 1.0)
_LOG_E_EM1 = math.log(math.e / (math.e - 1.0))
_LN2 = math.log(2.0)

ArrayLike = Union[float, Sequence[float], np.ndarray]


class ModelKind(Enum):
    """Tags for the five candidate lifetime models."""

    PGDUSE = "pgduse"
    GDUSE = "gduse"
    DUSE = "duse"
    KME = "kme"
    ED = "ed"

    @property
    def arity(self) -> int:
        return len(self.param_names)

    @property
    def param_names(self) -> tuple[str, ...]:
        return _MODELS[self].param_names

    @classmethod
    def parse(cls, name: str) -> "ModelKind":
        try:
            return cls(name.strip().lower())
        except (AttributeError, ValueError):
            valid = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown model {name!r}; expected one of: {valid}") from None


def _require_positive(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(value) or value <= 0.0:
        raise NonPositiveParameter(f"{name} must be positive and finite, got {value!r}")
    return value


def _count(name: str, value, low: int) -> int:
    """``value`` as an int, which must be integral and >= ``low``."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return count


@dataclass(frozen=True)
class PgduseParams:
    """Rate lam (1/time) and shape theta (dimensionless), both > 0."""

    lam: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _require_positive("lambda", self.lam))
        object.__setattr__(self, "theta", _require_positive("theta", self.theta))

    def as_tuple(self) -> tuple[float, ...]:
        return (self.lam, self.theta)


@dataclass(frozen=True)
class GduseParams:
    """Shape alpha (dimensionless) and rate beta (1/time), both > 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _require_positive("alpha", self.alpha))
        object.__setattr__(self, "beta", _require_positive("beta", self.beta))

    def as_tuple(self) -> tuple[float, ...]:
        return (self.alpha, self.beta)


@dataclass(frozen=True)
class ScalarParam:
    """Single positive rate parameter (1/time) for DUSE, KME, and ED."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", _require_positive("parameter", self.value))

    def as_tuple(self) -> tuple[float, ...]:
        return (self.value,)


ParamVector = Union[PgduseParams, GduseParams, ScalarParam]


def validate_params(kind: ModelKind, raw: Sequence[float]) -> ParamVector:
    """Build a typed, positivity-checked parameter vector for ``kind``.

    Raises
    ------
    ArityMismatch
        If ``raw`` does not have exactly ``kind.arity`` entries.
    NonPositiveParameter
        If any entry is <= 0 or non-finite.
    DomainError
        If ``kind`` is not a ModelKind, or ``raw`` is not a sequence of
        real numbers.
    """
    try:
        model = _MODELS[kind]
    except (KeyError, TypeError):
        raise _not_a_kind(kind) from None
    try:
        raw = tuple(raw)
    except TypeError:
        raise DomainError(f"parameters must be a sequence of numbers, got {raw!r}") from None
    if len(raw) != len(model.param_names):
        raise ArityMismatch(
            f"{kind.value} takes {kind.arity} parameter(s), got {len(raw)}"
        )
    return model.param_class(*raw)


def _not_a_kind(kind) -> DomainError:
    return DomainError(f"expected a ModelKind, got {kind!r}")


def _coerce(kind: ModelKind, p) -> tuple[float, ...]:
    """Accept either a typed parameter vector or a raw sequence."""
    if isinstance(p, (PgduseParams, GduseParams, ScalarParam)):
        try:
            expected = _MODELS[kind].param_class
        except (KeyError, TypeError):
            raise _not_a_kind(kind) from None
        if not isinstance(p, expected):
            raise ArityMismatch(
                f"{kind.value} expects {expected.__name__}, got {type(p).__name__}"
            )
        return p.as_tuple()
    return validate_params(kind, p).as_tuple()


class Dataset:
    """Validated sample of strictly positive, finite failure times.

    Attributes
    ----------
    observations : ndarray
        The sample in input order (read-only view).
    sorted_values : ndarray
        Nondecreasing copy of the sample.
    n : int
        Sample size.
    total : float
        Arithmetic sum of the sample.
    """

    __slots__ = ("observations", "sorted_values", "n", "total")

    def __init__(self, observations: ArrayLike):
        try:
            obs = np.atleast_1d(np.asarray(observations, dtype=float)).copy()
        except (TypeError, ValueError) as exc:
            raise NonPositiveObservation(f"observations must be real numbers: {exc}") from None
        if obs.ndim != 1:
            raise NonPositiveObservation("observations must form a one-dimensional sample")
        if obs.size == 0:
            raise EmptyDataset("dataset contains no observations")
        if not np.all(np.isfinite(obs)) or np.any(obs <= 0.0):
            bad = obs[~(np.isfinite(obs) & (obs > 0.0))][0]
            raise NonPositiveObservation(f"observations must be positive and finite, got {bad!r}")
        obs.setflags(write=False)
        srt = np.sort(obs)
        srt.setflags(write=False)
        self.observations = obs
        self.sorted_values = srt
        self.n = int(obs.size)
        # inf once the sum passes the largest double; fit_mle rejects that scale
        with np.errstate(over="ignore"):
            self.total = float(obs.sum())

    @property
    def mean(self) -> float:
        return self.total / self.n

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"Dataset(n={self.n}, min={self.sorted_values[0]:g}, "
            f"max={self.sorted_values[-1]:g}, total={self.total:g})"
        )


# ----------------------------------------------------------------------
# stable building blocks
# ----------------------------------------------------------------------

# past rate*x = 700 exp(-rate*x) nears the subnormal range, so each log
# survival switches to its exponential asymptote there; what that drops
# is of relative size exp(-700) times the shape
_TAIL = 700.0
# past a relative exp(-40) = 4e-18, below half an ulp, an asymptote is exact
_PLAIN = 40.0


def _log_f(rate: float, x: np.ndarray) -> np.ndarray:
    """log F = log(1 - exp(-rate*x)), -inf at 0, with the absolute digits near
    F = 1 that its callers need; ``_log1mexp`` keeps the relative ones."""
    with np.errstate(divide="ignore"):
        return np.log(-np.expm1(-rate * x))


def _log1mexp(a: np.ndarray) -> np.ndarray:
    """log(1 - exp(-a)) for a >= 0, with its relative digits at both ends.

    expm1 below a = ln 2 and log1p above it (Maechler 2012), so neither
    a -> 0 nor a -> inf cancels.  -inf at a = 0.
    """
    with np.errstate(divide="ignore"):
        return np.where(a > _LN2, np.log1p(-np.exp(-a)), np.log(-np.expm1(-a)))


def _far_tail(log_sf: np.ndarray, rx: np.ndarray, offset: float, exact=None) -> np.ndarray:
    """``log_sf`` with its asymptote y = offset - rate*x wherever rate*x > _TAIL.

    y is off by a relative exp(y), which shows only at shapes past about
    e**660; there the model's ``exact(y)`` is used while y > -_PLAIN.
    """
    far = offset - rx
    if exact is not None and offset > _TAIL - _PLAIN:
        far = np.where(far > -_PLAIN, exact(far), far)
    return np.where(rx > _TAIL, far, log_sf)


def _pg_parts(lam: float, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """lam*x, exp(-lam*x), t = -expm1(-lam*x) and expm1(t): log G1's temporaries."""
    lx = lam * x
    t = -np.expm1(-lx)
    return lx, np.exp(-lx), t, np.expm1(t)


def _pg_log_ratio(parts: tuple[np.ndarray, ...]) -> np.ndarray:
    """log G1 = log((exp(1 - exp(-lam*x)) - 1) / (e - 1)) from ``_pg_parts``.

    Below t = 1 - exp(-lam*x) = 1/2 the direct log(expm1(t)) keeps the
    x -> 0 behaviour exact; above it the ratio is rewritten as
    1 + e*expm1(-exp(-lam*x))/(e-1) so the x -> inf end never cancels.
    Returns -inf at x = 0.
    """
    _, e, t, expm1_t = parts
    with np.errstate(divide="ignore"):
        small = np.log(expm1_t) - _LOG_EM1
        z = _E * np.expm1(-e) / _EM1
        # float rounding can land a hair below -1 at x = 0
        big = np.log1p(np.maximum(z, -1.0))
    return np.where(t < 0.5, small, big)


def _split_input(x: ArrayLike) -> tuple[np.ndarray, bool]:
    # np.asarray turns None into NaN
    if x is None:
        raise DomainError("evaluation points must be real numbers, got None")
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"evaluation points must be real numbers: {exc}") from None
    return np.atleast_1d(arr), arr.ndim == 0


def _wrap_output(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


# ----------------------------------------------------------------------
# per-model log kernels: f(params, x) with x >= 0 (q in [0, 1) for quantiles)
# ----------------------------------------------------------------------

def _pg_log_cdf(params, x):
    lam, theta = params
    return theta * _pg_log_ratio(_pg_parts(lam, x))


def _pg_log_sf(params, x):
    lam, theta = params
    # log(1 - G1**theta); far out 1 - G1 = e*exp(-lam*x)/(e-1), and the
    # survival is 1 - exp(-theta times that)
    parts = _pg_parts(lam, x)
    return _far_tail(_log1mexp(-theta * _pg_log_ratio(parts)), parts[0],
                     math.log(theta) + _LOG_E_EM1, lambda y: _log1mexp(np.exp(y)))


def _pg_log_pdf(params, x):
    lam, theta = params
    # log of theta * G1**(theta-1) * G1'.  Only log G1 is scaled, by
    # theta - 1, so no two large terms cancel at large theta
    if theta == 1.0:
        lx = lam * x
        parts = lx, np.exp(-lx)
    else:
        parts = _pg_parts(lam, x)
    out = math.log(theta) + math.log(lam) - _LOG_EM1 + 1.0 - parts[0] - parts[1]
    if theta != 1.0:
        # (theta-1)*(-inf) at x=0 encodes the 0 / +inf density limit
        out = out + (theta - 1.0) * _pg_log_ratio(parts)
    return out


def _pg_quantile(params, q):
    # G1 = q**(1/theta); 1 - G1 = -expm1(log(q)/theta) keeps the upper tail
    # at any theta, and the direct form below G1 = 1/4 (lam*x < 0.44) x's
    # relative digits.  y = -lam*x is built in place, cheaper on samples
    lam, theta = params
    y = np.log(q)
    y *= 1.0 / theta
    np.expm1(y, out=y)
    y *= _EM1 / _E
    np.log1p(y, out=y)
    np.log(np.negative(y, out=y), out=y)
    low = q < 0.25 ** theta
    y[low] = np.log1p(-np.log1p(np.power(q[low], 1.0 / theta) * _EM1))
    y *= -1.0 / lam
    return y


def _unit_shape(pg_kernel):
    """The DUSE kernel: ``pg_kernel`` at theta = 1."""
    return lambda params, x: pg_kernel((params[0], 1.0), x)


def _log_dus_sf(v):
    """log(1 - D(1 - v)) = log(e/(e-1)) + log(1 - exp(-v)) for v in [0, 1].

    D(u) = expm1(u)/(e-1) is the DUS transform.  Exactly 0 at v = 1, so
    its exp never rounds above 1.
    """
    return _LOG_E_EM1 + _log1mexp(v)


def _log_dus(u):
    """log D(u) = log(1 - D(1 - u)) + u - 1, exactly 0 at u = 1."""
    return _log_dus_sf(u) + (u - 1.0)


def _gduse_log_sf(params, x):
    # 1 - G = 1 - D(F**alpha), and 1 - F**alpha = -expm1(alpha*log F);
    # far out that is 1 - exp(-alpha*exp(-beta*x))
    alpha, beta = params
    bx = beta * x
    return _far_tail(_log_dus_sf(-np.expm1(alpha * _log1mexp(bx))), bx,
                     math.log(alpha) + _LOG_E_EM1,
                     lambda y: _log_dus_sf(-np.expm1(-np.exp(y - _LOG_E_EM1))))


def _gduse_log_pdf(params, x):
    # log F = log1mexp(beta*x) keeps its relative digits where F is a
    # hair below 1, which alpha - 1 scales
    alpha, beta = params
    bx = beta * x
    log_f = _log1mexp(bx)
    fa = np.exp(alpha * log_f)
    out = math.log(alpha) + math.log(beta) - _LOG_EM1 - bx + fa
    if alpha != 1.0:
        out = out + (alpha - 1.0) * log_f
    return out


def _gduse_quantile(params, q):
    # F = w**(1/alpha), w = log1p(q*(e-1)); 1 - F = -expm1(log(w)/alpha)
    # keeps the upper tail at any alpha, with log w through 1 - q, exact
    # for q > 1/2.  Where F < 1/4 the direct form keeps x's relative digits
    alpha, beta = params
    w = np.log1p(q * _EM1)
    log_w = np.where(q > 0.5, np.log1p(np.log1p((q - 1.0) * (_EM1 / _E))), np.log(w))
    x = -np.log(-np.expm1(log_w / alpha))
    low = w < 0.25 ** alpha
    x[low] = -np.log1p(-np.power(w[low], 1.0 / alpha))
    return x / beta


def _kme_log_sf(params, x):
    # 1 - G = D(exp(-theta*x))
    tx = params[0] * x
    return _far_tail(_log_dus(np.exp(-tx)), tx, -_LOG_EM1)


def _kme_quantile(params, q):
    # 1 - G = D(exp(-theta*x)) gives theta*x = -log u, u = log1p((1-q)(e-1)).
    # Above q = 1/2, where 1 - q is exact, r = u keeps the upper tail.  Below
    # it r = u - 1 = log1p(-q(e-1)/e) keeps x's relative digits, u = hi + lo
    # exactly, and log u = log(hi) + lo/hi.  Both sides take the same ufuncs,
    # as a boolean mask costs more than the log on unsorted samples
    high = q > 0.5
    low = 1.0 - high
    # log1p of (1 - q)(e - 1) above q = 1/2 and of -q(e - 1)/e below
    r = np.log1p((high - q) * (_EM1 / _E + high * (_EM1 - _EM1 / _E)))
    hi = r + low
    lo = r - (hi - low)
    return -(np.log(hi) + lo / hi) / params[0]


_Kernel = Callable[[tuple, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class _Model:
    """One model: its parameters and its kernels, each written once.

    The kernels are log G, log(1 - G) and log g, all <= 0 except log g,
    and the quantile.  Every public function but the quantile is ``exp``
    of one log kernel, or of log g - log(1 - G) for the hazard.
    """

    param_names: tuple[str, ...]
    param_class: type
    rate_index: int
    # power of x in the density as x -> 0 (negative means a singularity)
    edge_exponent: Callable[[tuple], float]
    log_cdf: _Kernel
    log_sf: _Kernel
    log_pdf: _Kernel
    quantile: _Kernel

    def cdf(self, params, x):
        return np.exp(self.log_cdf(params, x))

    def sf(self, params, x):
        return np.exp(self.log_sf(params, x))

    def pdf(self, params, x):
        with np.errstate(over="ignore"):
            return np.exp(self.log_pdf(params, x))

    def hazard(self, params, x):
        # past rate*x = _TAIL and log(shape) + 2*_PLAIN the hazard is the
        # rate to the last bit.  Holding x there keeps the rounding of the
        # two logs from differing by up to ulp(rate*x), and gives the rate
        # at x = inf.  Every model's shape is 1 + its edge exponent
        hold = max(_TAIL, math.log1p(max(self.edge_exponent(params), 0.0)) + 2.0 * _PLAIN)
        x = np.minimum(x, hold / params[self.rate_index])
        with np.errstate(over="ignore"):
            return np.exp(self.log_pdf(params, x) - self.log_sf(params, x))


def _flat_edge(params) -> float:
    return 0.0


_MODELS = {
    ModelKind.PGDUSE: _Model(
        ("lambda", "theta"), PgduseParams, 0, lambda p: p[1] - 1.0,
        log_cdf=_pg_log_cdf, log_sf=_pg_log_sf, log_pdf=_pg_log_pdf, quantile=_pg_quantile,
    ),
    ModelKind.GDUSE: _Model(
        ("alpha", "beta"), GduseParams, 1, lambda p: p[0] - 1.0,
        log_cdf=lambda p, x: _log_dus(np.exp(p[0] * _log1mexp(p[1] * x))),
        log_sf=_gduse_log_sf,
        log_pdf=_gduse_log_pdf,
        quantile=_gduse_quantile,
    ),
    ModelKind.DUSE: _Model(
        ("a",), ScalarParam, 0, _flat_edge,
        *map(_unit_shape, (_pg_log_cdf, _pg_log_sf, _pg_log_pdf, _pg_quantile)),
    ),
    # KME: G = 1 - D(1 - F), with F = -expm1(-theta*x) so the cdf stays
    # accurate for small x where G is tiny
    ModelKind.KME: _Model(
        ("theta",), ScalarParam, 0, _flat_edge,
        log_cdf=lambda p, x: _log_dus_sf(-np.expm1(-p[0] * x)),
        log_sf=_kme_log_sf,
        log_pdf=lambda p, x: 1.0 - _LOG_EM1 + math.log(p[0]) - p[0] * x + np.expm1(-p[0] * x),
        quantile=_kme_quantile,
    ),
    ModelKind.ED: _Model(
        ("theta",), ScalarParam, 0, _flat_edge,
        log_cdf=lambda p, x: _log_f(p[0], x),
        log_sf=lambda p, x: -p[0] * x,
        log_pdf=lambda p, x: math.log(p[0]) - p[0] * x,
        quantile=lambda p, q: -np.log1p(-q) / p[0],
    ),
}


_BLOCK = 16384


# with two usable CPUs a helper thread shares the blocks of a large array
_SHARE_BLOCKS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1) >= 2


def _blocked(kernel: _Kernel, params, arr: np.ndarray) -> np.ndarray:
    """``kernel(params, arr)``, evaluated _BLOCK points at a time.

    Every kernel is elementwise, so the values are those of one call.
    With two or more usable CPUs the caller and one helper thread take
    block starts from one shared iterator (``next`` on a range iterator
    is atomic under the GIL) until none are left.  Only one helper, as
    each thread holds its own block's temporaries: the peak stays near
    one output.  numpy's error state is per thread and a new thread
    starts with the defaults, so each loop silences warnings itself.
    The helper's exception is raised in the caller, and no thread
    outlives the call.
    """
    if arr.size <= _BLOCK:
        return kernel(params, arr)
    flat = arr.reshape(-1)
    out = np.empty(flat.shape)
    starts = iter(range(0, flat.size, _BLOCK))

    def run():
        with np.errstate(all="ignore"):
            for start in starts:
                out[start:start + _BLOCK] = kernel(params, flat[start:start + _BLOCK])

    if not _SHARE_BLOCKS:
        run()
        return out.reshape(arr.shape)
    failed: list[BaseException] = []

    def helper():
        try:
            run()
        except BaseException as exc:  # re-raised in the caller
            failed.append(exc)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        run()
    finally:
        for _ in starts:  # if the caller failed, leave the helper no more blocks
            pass
        thread.join()
    if failed:
        raise failed[0]
    return out.reshape(arr.shape)


def _on_support(kernel: _Kernel, params, arr: np.ndarray, fill: float, closed: bool):
    """``kernel`` on every point, then ``fill`` below 0 (and at 0 unless ``closed``).

    The kernel sees the points off the support too, so its warnings are
    silenced; NaN passes through it as NaN.
    """
    with np.errstate(all="ignore"):
        out = _blocked(kernel, params, arr)
    out[arr < 0.0 if closed else arr <= 0.0] = fill
    return out


def _evaluate(kind: ModelKind, p, x: ArrayLike, kernel_name: str, fill: float,
              closed: bool = False):
    """The public path: validate, evaluate one kernel of the record, wrap.

    One float on the support of ``pdf``, the cf oracle's case, skips the
    masks and goes straight to the kernel, which silences its own overflow.
    It goes as a numpy scalar, not a one-point array: scalar arithmetic
    skips the array machinery, and the ufuncs run the same loops, so the
    value is the same bit for bit.
    The quantile's probabilities must lie in [0, 1) or be NaN.
    """
    params = _coerce(kind, p)
    kernel = getattr(_MODELS[kind], kernel_name)
    if kernel_name == "pdf" and isinstance(x, float) and x >= 0.0:
        return float(kernel(params, np.float64(x)))
    arr, scalar = _split_input(x)
    if kernel_name == "quantile":
        valid = np.isnan(arr) | ((arr >= 0.0) & (arr < 1.0))
        if not np.all(valid):
            raise DomainError(f"quantile requires 0 <= q < 1, got {float(arr[~valid][0])!r}")
    return _wrap_output(_on_support(kernel, params, arr, fill, closed), scalar)


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------

def cdf(kind: ModelKind, p, x: ArrayLike):
    """Cumulative distribution function of ``kind`` at ``x``.

    Parameters
    ----------
    kind : ModelKind
    p : ParamVector or sequence of float
        Typed parameters or raw values (validated on the fly).
    x : float or array-like
        Evaluation points; values below 0 return 0 by convention.
    """
    return _evaluate(kind, p, x, "cdf", 0.0)


def pdf(kind: ModelKind, p, x: ArrayLike):
    """Probability density of ``kind`` at ``x``.

    Defined as ``exp(log_pdf(...))`` so the two agree to the last bit.
    For shape parameters below 1 the density diverges at x = 0; the
    integrable singularity is reported as ``inf`` rather than an error.
    """
    return _evaluate(kind, p, x, "pdf", 0.0, closed=True)


def log_pdf(kind: ModelKind, p, x: ArrayLike):
    """Log-density of ``kind`` at ``x``, computed without overflow.

    Returns -inf wherever the density is zero (including x < 0).
    """
    return _evaluate(kind, p, x, "log_pdf", -np.inf, closed=True)


def survival(kind: ModelKind, p, x: ArrayLike):
    """Survival function 1 - cdf, as ``exp`` of its own log kernel.

    It keeps its relative digits where the cdf is near 1, and it is 0
    only where the true value underflows.
    """
    return _evaluate(kind, p, x, "sf", 1.0)


def hazard(kind: ModelKind, p, x: ArrayLike):
    """Failure-rate function pdf / survival, as exp(log_pdf - log survival).

    Finite wherever the density is: it keeps its digits after the
    survival underflows, and tends to the model's rate (lambda, beta,
    theta, theta, theta) as x -> inf, which is its value at x = inf.
    At x = 0 it is pdf(0); below 0 it is 0.
    """
    return _evaluate(kind, p, x, "hazard", 0.0, closed=True)


def quantile(kind: ModelKind, p, q: ArrayLike):
    """Quantile function; closed form for every model.

    ``q`` must lie in [0, 1); the essential supremum at q = 1 is infinite
    and raises :class:`DomainError`, as do negative probabilities.
    """
    # log(0) = -inf, at q = 0 (filled with 0) or where 1 - q**(1/shape)
    # underflows, gives the correct limit
    return _evaluate(kind, p, q, "quantile", 0.0)


def median(p: PgduseParams) -> float:
    """Median of the two-parameter PGDUSE model; quantile at q = 0.5."""
    return quantile(ModelKind.PGDUSE, p, 0.5)


def sample(kind: ModelKind, p, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` variates by inverse-transform sampling; ``n`` is an integer >= 0.

    Deterministic for a fixed ``seed``, an integer >= 0; every returned
    value is strictly positive.  The closed-form quantile makes rejection
    schemes unnecessary.
    """
    params = _coerce(kind, p)
    n = _count("sample size", n, 0)
    rng = np.random.default_rng(_count("seed", seed, 0))
    u = rng.random(n)
    # open the lower endpoint so the transform stays positive
    while np.any(u == 0.0):
        zeros = u == 0.0
        u[zeros] = rng.random(int(zeros.sum()))
    return np.asarray(quantile(kind, params, u))
