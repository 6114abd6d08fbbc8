"""The benchmark's workloads: seeded inputs, requests, and their checks.

A workload is a cycle of requests that repeats in a closed loop: one
caller sends a request only after the previous one returned.  Every input
comes from ``numpy.random.default_rng`` keyed by the seed, the workload
and the cycle, so the same seed gives the same inputs.  References are
computed here, before any timing, from ``reference`` (never from the code
under test).  Library calls look names up on the ``pgduse`` package and
``pgduse.cli`` at call time, so the tracer's wrappers see them.

Outcomes of a check are a list of failures; an empty list means the
request met its reference.  A failure is one of

* ``known``: a documented defect of the library, named in KNOWN_DEFECTS;
* ``nonconverged``: the library itself reported a fit as not converged;
* ``timeout``: the run's time guard stopped the request;
* ``wrong`` / ``raised``: an output missed its reference, or an error
  nobody expected.  Only these make a run incorrect.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

KNOWN_DEFECTS = {
    "gduse-survival-upper-tail": (
        "GDUSE survival loses its upper tail: log(-expm1(-beta*x)) rounds, so the "
        "value loses digits from beta*x ~ 10 and is -0.0 from beta*x ~ 37 "
        "(survival(GDUSE, (0.5, 2.3), 20) returns -0.0)"),
    "hazard-where-survival-underflows": (
        "hazard is pdf / survival, so it loses digits where survival is subnormal and "
        "returns inf where survival underflows to 0, though the true hazard is finite "
        "(hazard(ED, (1,), 1e6) returns inf; PGDUSE from lam*x ~ 708)"),
    "order-stat-cdf-overflow": (
        "order_stat_cdf raises OverflowError for n >~ 1030, because math.comb "
        "no longer fits a float (order_stat_cdf at n = 2000)"),
}

BEARING_FITS = {
    "pgduse": (0.03362141, 3.80657627),
    "gduse": (4.73914452, 0.03553247),
    "duse": (0.01824005,),
    "kme": (0.009544456,),
    "ed": (0.0138430797,),
}
LAWLESS = (
    17.88, 28.92, 33.00, 41.52, 42.12, 45.60, 48.80, 51.84, 51.96, 54.12, 55.56, 67.80,
    68.64, 68.64, 68.88, 84.12, 93.12, 98.64, 105.12, 105.84, 127.92, 128.04, 173.40,
)
WORKLOAD_IDS = {"small_compare": 1, "large_fit": 2, "surface_scan": 3, "analytics": 4}


@dataclass(frozen=True)
class Failure:
    kind: str
    detail: str
    defect: str | None = None


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], list]
    inputs: tuple = ()               # what the library receives; the self-test hashes it
    work_bytes: int = 0


@dataclass
class Workload:
    name: str
    pool: list                       # one request list per distinct input cycle
    probe: str = "python"            # the speed probe whose work resembles this workload

    def cycle(self, index: int) -> list:
        return self.pool[index % len(self.pool)]


def rng_for(seed: int, workload: str, *keys: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload], *keys])


def _jittered(rng, params, spread=0.1):
    return tuple(float(v * math.exp(rng.uniform(-spread, spread))) for v in params)


def _draw(rng, kind: str, params, n: int) -> np.ndarray:
    u = rng.random(n)
    u[u == 0.0] = 0.5
    return ref.np_quantile(kind, params, u)


def _raised(exc) -> list:
    if isinstance(exc, TimeoutError):
        return [Failure("timeout", str(exc))]
    return [Failure("raised", f"{type(exc).__name__}: {exc}")]


def _close(label, got, want, tol) -> list:
    if got is None or not (abs(got - want) <= tol):
        return [Failure("wrong", f"{label}: got {got!r}, want {want!r} +- {tol:g}")]
    return []


# ----------------------------------------------------------------------
# checks shared by the fitting workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """One fitted model as the library reported it."""

    kind: str
    params: tuple
    log_likelihood: float
    aic: float
    bic: float
    ks_d: float
    p_value: float
    converged: bool

    @classmethod
    def of(cls, row) -> "Row":
        return cls(row.kind.value, tuple(row.params), row.log_likelihood, row.aic, row.bic,
                   row.ks_d, row.p_value, row.converged)


def check_row(row: Row, x: np.ndarray, method: str, generator=None) -> list:
    """One fitted model against independent log-likelihood, KS and p-value."""
    kind = row.kind
    params = row.params
    n = x.size
    ll = ref.log_likelihood(kind, params, x)
    k = ref.ARITY[kind]
    out = _close(f"{kind} logL", row.log_likelihood, ll, 1e-8 * max(1.0, abs(ll)))
    out += _close(f"{kind} AIC", row.aic, -2.0 * ll + 2 * k, 1e-7 * max(1.0, abs(ll)))
    out += _close(f"{kind} BIC", row.bic, -2.0 * ll + k * math.log(n), 1e-7 * max(1.0, abs(ll)))
    d = ref.ks_distance(kind, params, x)
    out += _close(f"{kind} KS", row.ks_d, d, 1e-9)
    tol = 1e-6 if method == "exact" else 1e-9
    out += _close(f"{kind} p ({method})", row.p_value, ref.ks_pvalue(row.ks_d, n, method), tol)
    if kind == "ed":
        out += _close("ed closed form", params[0], n / math.fsum(x), 1e-12 * params[0])
    if generator is not None and generator[0] == kind:
        at_truth = generator[2]
        if ll < at_truth - 1e-9 * abs(at_truth):
            out.append(Failure("wrong", f"{kind} logL at fit {ll!r} < logL at the generating "
                                        f"parameters {at_truth!r}"))
    if not row.converged:
        out.append(Failure("nonconverged", f"{kind} fit reported not converged"))
    return out


def check_table(table, x: np.ndarray, method: str, generator=None) -> list:
    rows = [Row.of(r) for r in table.rows]
    out = []
    if sorted(r.kind for r in rows) != sorted(ref.KINDS):
        return [Failure("wrong", f"compare returned models {[r.kind for r in rows]}")]
    if any(a.aic > b.aic for a, b in zip(rows, rows[1:])):
        out.append(Failure("wrong", "rows are not ranked by ascending AIC"))
    for row in rows:
        out += check_row(row, x, method, generator)
    by_kind = {r.kind: r for r in rows}
    # DUSE is PGDUSE at theta = 1, so the larger model can never fit worse
    pg, du = by_kind["pgduse"].log_likelihood, by_kind["duse"].log_likelihood
    if pg < du - 1e-7 * abs(du):
        out.append(Failure("wrong", f"pgduse logL {pg!r} below its submodel duse {du!r}"))
    return out


# Acceptance-suite values for the Lawless rows (tests/test_acceptance.py,
# criteria 1, 2, 4, 5 and 6).  The published ED rate is not used: it is
# the suite's documented, intentionally failing value; the closed form
# n / sum(x) is checked instead.
LAWLESS_ROWS = {
    "pgduse": {"params": ((0.03362141, 5e-5), (3.80657627, 5e-3)), "logL": (-113.003, 5e-3),
               "aic": (230.006, 1e-2), "bic": (232.277, 1e-2), "ks": (0.11025, 1e-3),
               "p": (0.9425, 5e-3)},
    "gduse": {"params": ((4.73914452, 5e-2), (0.03553247, 5e-4)), "logL": (-113.0466, 5e-3),
              "aic": (230.0931, 1e-2), "bic": (232.3641, 1e-2)},
    "duse": {"params": ((0.01824005, 1e-4),), "logL": (-119.24, 0.05)},
    "kme": {"params": ((0.009544456, 1e-5),), "logL": (-123.1065, 5e-3), "aic": (248.2129, 1e-2)},
    "ed": {"logL": (-121.4393, 5e-3), "aic": (244.8786, 1e-2), "bic": (246.0141, 1e-2),
           "ks": (0.30673, 1e-3)},
}


def check_lawless(rows: dict, footnotes=None) -> list:
    """rows: model -> dict with params, logL, aic, bic, ks, p (asymptotic)."""
    out = []
    for kind, want in LAWLESS_ROWS.items():
        got = rows.get(kind)
        if got is None:
            out.append(Failure("wrong", f"lawless: no {kind} row"))
            continue
        for j, (value, tol) in enumerate(want.get("params", ())):
            out += _close(f"lawless {kind} param {j}", got["params"][j], value, tol)
        for key in ("logL", "aic", "bic", "ks", "p"):
            if key in want and key in got:
                out += _close(f"lawless {kind} {key}", got[key], want[key][0], want[key][1])
    pg = rows["pgduse"]
    others = [r for k, r in rows.items() if k != "pgduse"]
    if not all(pg["logL"] > o["logL"] and pg["aic"] < o["aic"] and pg["ks"] < o["ks"]
               for o in others):
        out.append(Failure("wrong", "lawless: pgduse does not rank first (criterion 6)"))
    if footnotes is not None and len(footnotes) != 2:
        out.append(Failure("wrong", f"lawless: expected 2 footnotes, got {len(footnotes)}"))
    return out


def _rows_of(table) -> dict:
    return {r.kind.value: {"params": r.params, "logL": r.log_likelihood, "aic": r.aic,
                           "bic": r.bic, "ks": r.ks_d, "p": r.p_value} for r in table.rows}


# ----------------------------------------------------------------------
# small_compare
# ----------------------------------------------------------------------

class _Cli:
    """Runs ``pgduse.cli.main`` in-process with stdout and stderr captured."""

    def __init__(self, pg_cli):
        self.pg_cli = pg_cli

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pg_cli.main(argv)
        return code, out.getvalue(), err.getvalue()


def _parse_table(text: str) -> tuple[dict, list]:
    rows, notes = {}, []
    for line in text.splitlines()[1:]:
        if line.startswith("#"):
            notes.append(line)
            continue
        tok = line.split()
        names = tok[1:-6]
        params = tuple(float(v) for v in names[1::2])
        ll, aic, bic, ks, p = (float(v) for v in tok[-6:-1])
        rows[tok[0]] = {"params": params, "logL": ll, "aic": aic, "bic": bic, "ks": ks, "p": p,
                        "converged": tok[-1] == "true"}
    return rows, notes


def build_small_compare(pg, pg_cli, seed: int, tiny: bool, workdir: Path) -> Workload:
    lawless = np.array(LAWLESS)
    cli = _Cli(pg_cli)
    sizes = (23, 100) if tiny else (23, 100, 1000)
    kinds = ("pgduse", "ed") if tiny else ref.KINDS
    pool = []
    for c in range(2 if tiny else 8):
        rng = rng_for(seed, "small_compare", c)
        reqs = [_lawless_api(pg, lawless, "asymptotic")]
        for kind in kinds:
            for n in sizes:
                truth = _jittered(rng, BEARING_FITS[kind])
                x = _draw(rng, kind, truth, n)
                method = "exact" if (kind, n) == ("pgduse", 23) else "asymptotic"
                reqs.append(_synthetic_compare(pg, kind, truth, x, method))
        reqs.append(_cli_compare(cli))
        fit_kind = ref.KINDS[c % len(ref.KINDS)]
        truth = _jittered(rng, BEARING_FITS[fit_kind])
        x = _draw(rng, fit_kind, truth, 100)
        path = workdir / f"fit-{c}.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in x))
        reqs.append(_cli_fit(cli, fit_kind, truth, x, path))
        reqs.append(_cli_plotdata(cli, lawless, workdir / f"plot-{c}"))
        if not tiny:
            reqs.append(_lawless_api(pg, lawless, "exact"))
        pool.append(reqs)
    return Workload("small_compare", pool)


def _lawless_api(pg, lawless, method) -> Request:
    def call():
        return pg.compare(pg.load_dataset("lawless"), pvalue_method=method)

    def check(table, exc):
        if exc is not None:
            return _raised(exc)
        out = check_table(table, lawless, method)
        if method == "asymptotic":
            out += check_lawless(_rows_of(table), table.footnotes)
        return out

    return Request(f"compare.lawless.{method}", call, check, ("lawless", method))


def _synthetic_compare(pg, kind, truth, x, method) -> Request:
    data = pg.Dataset(x)
    generator = (kind, truth, ref.log_likelihood(kind, truth, x))

    def call():
        return pg.compare(data, pvalue_method=method)

    def check(table, exc):
        if exc is not None:
            return _raised(exc)
        return check_table(table, x, method, generator)

    return Request(f"compare.{kind}.n{x.size}.{method}", call, check, (x, method))


def _cli_compare(cli) -> Request:
    def call():
        return cli(["compare", "--data", "lawless"])

    def check(result, exc):
        if exc is not None:
            return _raised(exc)
        code, text, err = result
        if code != 0:
            return [Failure("wrong", f"cli compare exit {code}: {err.strip()}")]
        rows, notes = _parse_table(text)
        out = check_lawless(rows, notes)
        if next(iter(rows), None) != "pgduse":
            out.append(Failure("wrong", "cli compare: pgduse is not the first row"))
        return out

    return Request("cli.compare.lawless", call, check, ("lawless",))


def _cli_fit(cli, kind, truth, x, path) -> Request:
    generator = (kind, truth, ref.log_likelihood(kind, truth, x))

    def call():
        return cli(["fit", "--model", kind, "--data", str(path), "--format", "json"])

    def check(result, exc):
        if exc is not None:
            return _raised(exc)
        code, text, err = result
        doc = json.loads(text) if text.strip() else {}
        if code not in (0, 3) or doc.get("model") != kind:
            return [Failure("wrong", f"cli fit exit {code}: {err.strip()}")]
        params = tuple(doc["params"][name] for name in _PARAM_NAMES[kind])
        row = Row(kind, params, doc["log_likelihood"], doc["aic"], doc["bic"], doc["ks_d"],
                  doc["p_value"], doc["converged"])
        out = check_row(row, x, "asymptotic", generator)
        if (code == 3) == doc["converged"]:
            out.append(Failure("wrong", f"cli fit exit {code} disagrees with converged"))
        return out

    return Request(f"cli.fit.{kind}", call, check, (kind, path.read_text()))


_PARAM_NAMES = {"pgduse": ("lambda", "theta"), "gduse": ("alpha", "beta"), "duse": ("a",),
                "kme": ("theta",), "ed": ("theta",)}


def _cli_plotdata(cli, lawless, prefix: Path) -> Request:
    pg_truth = BEARING_FITS["pgduse"]
    top_ref = float(ref.np_quantile("pgduse", pg_truth, np.array([0.999]))[0])
    srt = np.sort(lawless)

    def call():
        return cli(["plotdata", "--data", "lawless", "--out", str(prefix)])

    def check(result, exc):
        if exc is not None:
            return _raised(exc)
        code, text, err = result
        paths = text.split()
        if code != 0 or len(paths) != 3:
            return [Failure("wrong", f"cli plotdata exit {code}, outputs {paths}: {err.strip()}")]
        tables = {}
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                header = handle.readline().split()
                tables[Path(path).stem.rsplit("_", 1)[-1]] = (header, np.loadtxt(handle, ndmin=2))
        out = []
        header, ecdf = tables["ecdf"]
        grid = ecdf[:, 0]
        if ecdf.shape != (512, 7) or header[:3] != ["x", "ecdf", "pgduse"]:
            return [Failure("wrong", f"plotdata ecdf shape {ecdf.shape}, header {header}")]
        steps = np.searchsorted(srt, grid, side="right") / srt.size
        out += _close("plotdata ecdf column", float(np.max(np.abs(ecdf[:, 1] - steps))), 0.0, 1e-15)
        cdf_gap = float(np.max(np.abs(ecdf[:, 2] - ref.np_cdf("pgduse", pg_truth, grid))))
        out += _close("plotdata pgduse cdf column", cdf_gap, 0.0, 5e-3)
        out += _close("plotdata grid top", float(grid[-1]), top_ref, 1e-2 * top_ref)
        for name in ("density", "hazard"):
            values = tables[name][1][:, 1:]
            if values.shape != (512, 5) or not np.all(np.isfinite(values)) or np.any(values < 0):
                out.append(Failure("wrong", f"plotdata {name} table is not finite and >= 0"))
        return out

    return Request("cli.plotdata.lawless", call, check, ("lawless",))


# ----------------------------------------------------------------------
# large_fit
# ----------------------------------------------------------------------

def build_large_fit(pg, seed: int, tiny: bool) -> Workload:
    n = 2000 if tiny else 100_000
    pool = []
    for c in range(2 if tiny else 3):
        rng = rng_for(seed, "large_fit", c)
        truth = _jittered(rng, BEARING_FITS["pgduse"])
        x = _draw(rng, "pgduse", truth, n)
        data = pg.Dataset(x)
        generator = ("pgduse", truth, ref.log_likelihood("pgduse", truth, x))
        pool.append([_large_fit_request(pg, data, x, kind, generator)
                     for kind in ("pgduse", "gduse")])
    return Workload("large_fit", pool, probe="vector")


def _large_fit_request(pg, data, x, kind, generator) -> Request:
    def call():
        k = pg.ModelKind(kind)
        fit = pg.fit_mle(k, data)
        params = fit.params.as_tuple()
        d = pg.ks_statistic(data, lambda v: pg.cdf(k, params, v))
        ll = fit.log_likelihood
        return Row(kind, params, ll, pg.aic(ll, k.arity), pg.bic(ll, k.arity, data.n),
                   d, pg.ks_pvalue(d, data.n), fit.converged)

    def check(row, exc):
        if exc is not None:
            return _raised(exc)
        return check_row(row, x, "asymptotic", generator)

    return Request(f"fit.{kind}.n{x.size}", call, check, (kind, x))


# ----------------------------------------------------------------------
# surface_scan
# ----------------------------------------------------------------------

SURFACE_PARAMS = {
    "pgduse": (1.0, 2.0),
    "gduse": (0.5, 2.3),
    "duse": (1.0,),
    "kme": (1.0,),
    "ed": (1.0,),
}
# points named in the defect list; the grid always contains them
NAMED_X = (20.0, 50.0, 1e6)
SMALLEST_NORMAL = float(np.finfo(float).tiny)
ORDER_SPECS = ((5, 1), (50, 25), (500, 500), (2000, 1000))
SYSTEM_N = 20
CHECKPOINTS = 8


def _surface_grid(rng, kind, params, n):
    """Seeded points: 90% distributed like the model, 10% log-uniform far tail."""
    bulk = _draw(rng, kind, params, n - n // 10 - len(NAMED_X))
    tail = np.exp(rng.uniform(math.log(10.0), math.log(1e6), n // 10))
    return np.sort(np.concatenate([bulk, tail, NAMED_X]))


def _probabilities(rng, n):
    extreme = 10.0 ** -rng.uniform(6.0, 15.0, n // 20)
    u = np.concatenate([rng.random(n - 2 * (n // 20)), extreme, 1.0 - extreme])
    u[u == 0.0] = 0.5
    return np.sort(u)


def _checkpoints(rng, grid: np.ndarray, must=()) -> np.ndarray:
    """Checkpoint indices: half from the lower 90% of the grid, half above."""
    n = grid.size
    split = int(0.9 * n)
    picks = np.concatenate([rng.integers(0, split, CHECKPOINTS // 2),
                            rng.integers(split, n, CHECKPOINTS // 2),
                            np.searchsorted(grid, must)])
    return np.unique(picks)


def _classify_surface(fn, kind, x, got, want, tol, true_sf) -> Failure:
    detail = f"{fn}({kind}) at {x!r}: got {got!r}, want {want!r} +- {tol:.3g}"
    if fn == "hazard" and (got == math.inf or true_sf < SMALLEST_NORMAL):
        return Failure("known", detail, "hazard-where-survival-underflows")
    if kind == "gduse" and fn in ("survival", "hazard") and SURFACE_PARAMS["gduse"][1] * x >= 5.0:
        return Failure("known", detail, "gduse-survival-upper-tail")
    return Failure("wrong", detail)


def _array_invariants(fn, kind, values: np.ndarray, n: int) -> list:
    out = []
    if values.shape != (n,):
        return [Failure("wrong", f"{fn}({kind}) returned shape {values.shape}")]
    if fn == "hazard":
        inf = np.isinf(values)
        if inf.any():
            out.append(Failure("known", f"hazard({kind}) is inf at {int(inf.sum())} points",
                               "hazard-where-survival-underflows"))
        finite = values[~inf]
    else:
        finite = values
    if np.isnan(finite).any() or (fn != "log_pdf" and np.isinf(finite).any()):
        out.append(Failure("wrong", f"{fn}({kind}) is not finite at x > 0"))
    if fn in ("cdf", "survival") and (np.any(values > 1.0) or np.any(values < 0.0)):
        out.append(Failure("wrong", f"{fn}({kind}) leaves [0, 1]"))
    if fn in ("cdf", "survival", "pdf", "hazard", "quantile") and np.signbit(values).any():
        defect = "gduse-survival-upper-tail" if (kind, fn) == ("gduse", "survival") else None
        out.append(Failure("known" if defect else "wrong",
                           f"{fn}({kind}) returns -0.0 at {int(np.signbit(values).sum())} points",
                           defect))
    if fn == "quantile" and np.any(np.diff(values) < 0.0):
        out.append(Failure("wrong", f"quantile({kind}) is not monotone"))
    if fn == "log_pdf" and np.isinf(values).any():
        out.append(Failure("wrong", f"log_pdf({kind}) is infinite at x > 0"))
    return out


def _surface_request(pg, fn, kind, params, points, idx) -> Request:
    refs = []
    for i in idx:
        x = float(points[i])
        true_sf = ref.surface_reference("survival", kind, params, x)[0] if fn == "hazard" else 1.0
        refs.append((x, *ref.surface_reference(fn, kind, params, x), true_sf))

    def call():
        return getattr(pg, fn)(pg.ModelKind(kind), params, points)

    def check(values, exc):
        if exc is not None:
            return _raised(exc)
        values = np.asarray(values)
        out = _array_invariants(fn, kind, values, points.size)
        for i, (x, want, tol, true_sf) in zip(idx, refs):
            got = float(values[i])
            if not abs(got - want) <= tol:
                out.append(_classify_surface(fn, kind, x, got, want, tol, true_sf))
        return out

    return Request(f"{fn}.{kind}", call, check, (params, points), 16 * points.size)


def _sample_request(pg, kind, params, n, sample_seed) -> Request:
    probs = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    cuts = ref.sample_probabilities(kind, params, probs)

    def call():
        return pg.sample(pg.ModelKind(kind), params, n, sample_seed)

    def check(values, exc):
        if exc is not None:
            return _raised(exc)
        values = np.asarray(values)
        if values.shape != (n,) or not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            return [Failure("wrong", f"sample({kind}) is not {n} finite positive values")]
        out = []
        for q, cut in zip(probs, cuts):
            frac = np.count_nonzero(values <= cut) / n
            out += _close(f"sample({kind}) fraction below its {q} quantile", frac, q,
                          6.0 * math.sqrt(q * (1.0 - q) / n) + 1.0 / n)
        return out

    return Request(f"sample.{kind}", call, check, (params, n, sample_seed), 8 * n)


def _order_request(pg, fn, spec, points, idx, system=None) -> Request:
    p = SURFACE_PARAMS["pgduse"]
    n, r = spec
    if system:
        refs = [ref.system_reference(p, n, system, float(points[i])) for i in idx]
        label = f"system_lifetime_cdf.{system}"
    else:
        refs = [ref.order_reference(fn, p, n, r, float(points[i])) for i in idx]
        label = f"order_stat_{fn}.n{n}"

    def call():
        if system:
            return pg.system_lifetime_cdf(p, n, system, points)
        spec_obj = pg.OrderSpec(n, r)
        func = pg.order_stat_cdf if fn == "cdf" else pg.order_stat_pdf
        return func(p, spec_obj, points)

    def check(values, exc):
        if isinstance(exc, OverflowError) and fn == "cdf" and not system:
            return [Failure("known", f"order_stat_cdf n={n}: {exc}", "order-stat-cdf-overflow")]
        if exc is not None:
            return _raised(exc)
        values = np.asarray(values)
        out = []
        if values.shape != points.shape or not np.all(np.isfinite(values)):
            out.append(Failure("wrong", f"{label} is not finite"))
        for i, (want, tol) in zip(idx, refs):
            got = float(values[i])
            if not abs(got - want) <= tol:
                out.append(Failure("wrong", f"{label} at {points[i]!r}: got {got!r}, "
                                            f"want {want!r} +- {tol:.3g}"))
        return out

    return Request(label, call, check, (spec, points), 16 * points.size)


def build_surface_scan(pg, seed: int, tiny: bool) -> Workload:
    n = 10_000 if tiny else 1_000_000
    n_order = 1_000 if tiny else 10_000
    rng = rng_for(seed, "surface_scan", 0)
    reqs = []
    for m, (kind, params) in enumerate(SURFACE_PARAMS.items()):
        grid = _surface_grid(rng, kind, params, n)
        probs = _probabilities(rng, n)
        grid_idx = _checkpoints(rng, grid, NAMED_X)
        prob_idx = _checkpoints(rng, probs, (probs[0], probs[-1]))
        for fn in ("cdf", "pdf", "log_pdf", "survival", "hazard"):
            reqs.append(_surface_request(pg, fn, kind, params, grid, grid_idx))
        reqs.append(_surface_request(pg, "quantile", kind, params, probs, prob_idx))
        reqs.append(_sample_request(pg, kind, params, n, int(rng.integers(2**31))))
    order_grid = np.sort(_draw(rng, "pgduse", SURFACE_PARAMS["pgduse"], n_order))
    order_idx = _checkpoints(rng, order_grid)
    for spec in ORDER_SPECS:
        for fn in ("pdf", "cdf"):
            reqs.append(_order_request(pg, fn, spec, order_grid, order_idx))
    for topology in ("series", "parallel"):
        reqs.append(_order_request(pg, "cdf", (SYSTEM_N, 1), order_grid, order_idx, topology))
    return Workload("surface_scan", [reqs], probe="vector")


# ----------------------------------------------------------------------
# analytics
# ----------------------------------------------------------------------

GRID_LAMBDAS = (0.5, 1.0, 2.0)
GRID_THETAS = (0.5, 1.0, 2.0, 2.5, 5.0)   # criterion 7 grid plus 2.5 (tail closure)


def build_analytics(pg, seed: int, tiny: bool) -> Workload:
    points = [(1.0, 2.0), (1.0, 2.5)] if tiny else [
        (lam, theta) for lam in GRID_LAMBDAS for theta in GRID_THETAS]
    rng = rng_for(seed, "analytics", 0)
    reqs = []
    for p in points:
        reqs += _analytic_point(pg, p, rng)
    return Workload("analytics", [reqs])


def _analytic_point(pg, p, rng) -> list:
    """Moments 1..4, mgf, cf, cgf and two Renyi orders, each by both routes."""
    lam, _ = p
    t_mgf = float(rng.uniform(-1.0, 0.4 * lam))
    t_cf = float(rng.uniform(0.3, 1.2))
    deltas = (float(rng.uniform(0.4, 0.8)), float(rng.uniform(2.05, 2.95)))
    params = pg.PgduseParams(*p)
    kind = pg.ModelKind.PGDUSE
    reqs = []
    for r in (1, 2, 3, 4):
        want = ref.raw_moment(p, r)
        reqs += [
            _analytic("moment", p, f"r={r}", "series", lambda r=r: pg.raw_moment_series(params, r),
                      want, "ratio", 1e-6),
            _analytic("moment", p, f"r={r}", "quad",
                      lambda r=r: pg.raw_moment_quadrature(kind, params, r), want, "ratio", 1e-6),
        ]
    want = ref.mgf(p, t_mgf)
    reqs += [
        _analytic("mgf", p, f"t={t_mgf!r}", "series", lambda: pg.mgf(params, t_mgf),
                  want, "ratio", 1e-6),
        _analytic("mgf", p, f"t={t_mgf!r}", "quad", lambda: pg.mgf_quadrature(params, t_mgf),
                  want, "ratio", 1e-6),
    ]
    want = ref.cf(p, t_cf)
    reqs += [
        _analytic("cf", p, f"t={t_cf!r}", "series", lambda: pg.cf(params, t_cf), want, "rel", 1e-6),
        _analytic("cf", p, f"t={t_cf!r}", "quad", lambda: pg.cf_quadrature(params, t_cf),
                  want, "rel", 1e-6),
    ]
    want = cmath.log(want)
    reqs += [
        _analytic("cgf", p, f"t={t_cf!r}", "series", lambda: pg.cgf(params, t_cf),
                  want, "scaled", 1e-6),
        _analytic("cgf", p, f"t={t_cf!r}", "quad",
                  lambda: cmath.log(pg.cf_quadrature(params, t_cf)), want, "scaled", 1e-6),
    ]
    for delta in deltas:
        want = ref.renyi(p, delta)
        reqs += [
            _analytic("renyi", p, f"delta={delta!r}", "series",
                      lambda d=delta: pg.renyi_entropy_series(params, d),
                      want, "scaled", 1e-5, pg.SeriesDivergence),
            _analytic("renyi", p, f"delta={delta!r}", "quad",
                      lambda d=delta: pg.renyi_entropy(kind, params, d),
                      want, "scaled", 1e-5, pg.QuadFailure),
        ]
    return reqs


def _analytic(quantity, p, arg, route, call, want, mode, tol, flags=None) -> Request:
    """Series or quadrature value against the independent integral.

    Tolerances are those of acceptance criterion 7.  ``want`` is None where
    the integral does not exist; the route must then raise ``flags``.
    """
    where = f"{quantity} {arg} lam={p[0]} theta={p[1]} ({route})"

    def check(got, exc):
        if want is None:
            if flags is not None and isinstance(exc, flags):
                return []
            return [Failure("wrong", f"{where}: non-integrable, not flagged ({got!r}, {exc!r})")]
        if exc is not None:
            return _raised(exc)
        if mode == "ratio":
            err = abs(got / want - 1.0)
        elif mode == "rel":
            err = abs(got - want) / abs(want)
        else:
            err = abs(got - want) / max(abs(want), 1.0)
        if not err <= tol:
            return [Failure("wrong", f"{where}: got {got!r}, want {want!r}, error {err:.3g}")]
        return []

    return Request(f"{quantity}.{route}", call, check, (p, arg))


def build(name: str, pg, pg_cli, seed: int, tiny: bool, workdir: Path) -> Workload:
    if name == "small_compare":
        return build_small_compare(pg, pg_cli, seed, tiny, workdir)
    if name == "large_fit":
        return build_large_fit(pg, seed, tiny)
    if name == "surface_scan":
        return build_surface_scan(pg, seed, tiny)
    if name == "analytics":
        return build_analytics(pg, seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
