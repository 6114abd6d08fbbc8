"""Spans and counts around the public functions of each pgduse module.

The tracer edits nothing under ``src/``.  It replaces each public function
of a ``pgduse`` module by a recording wrapper in every namespace where a
caller looks the name up: the defining module, every module that imported
the name (``pgduse.estimation.log_pdf``, ``pgduse.analytic.pdf``,
``pgduse.model_selection.fit_mle`` ...) and the package itself.  Calls
inside one module go through that module's globals, so they are seen too.

Each span records its name, a tag derived from the arguments (input size,
model kind, KS method, order-statistic n), its duration, and the part of
that duration spent in spans of other layers.  ``layer self time`` is the
duration minus that part: the work a layer did itself.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli",
    "datasets",
    "model_selection",
    "estimation",
    "analytic",
    "order_statistics",
    "distributions",
)

SURFACE_FNS = ("cdf", "pdf", "log_pdf", "survival", "hazard", "quantile")
KIND_NAMES = ("pgduse", "gduse", "duse", "kme", "ed")
QUANTITIES = {
    "moment": ("raw_moment_series", "raw_moment_quadrature"),
    "mgf": ("mgf", "mgf_quadrature"),
    "cf": ("cf", "cf_quadrature"),
    "renyi": ("renyi_entropy_series", "renyi_entropy"),
}
ORDER_NS = (5, 50, 500, 2000)
SMALL_POINTS = 1000
LARGE_POINTS = 10_000
SPAN_CAP = 50_000

# Every per-layer metric, in the order printed.  "exact" counts come from
# the first traced cycle, whose inputs depend only on the seed.
PER_LAYER = (
    [(f"estimation.loglik_calls_per_fit.{k}", "count") for k in KIND_NAMES]
    + [(f"estimation.fit_mle.ms.{k}", "ms") for k in KIND_NAMES]
    + [("estimation.log_likelihood.us", "us"), ("estimation.converged_frac", "ratio")]
    + [(f"distributions.{fn}.mpts_s", "Mpts/s") for fn in SURFACE_FNS + ("sample",)]
    + [("distributions.scalar_call_us", "us"), ("distributions.small_call_us", "us")]
    + [(f"analytic.series.ms.{q}", "ms") for q in QUANTITIES]
    + [(f"analytic.quad.ms.{q}", "ms") for q in QUANTITIES]
    + [(f"analytic.quad.pdf_calls.{q}", "count") for q in QUANTITIES]
    + [("analytic.quad.pdf_share", "ratio")]
    + [
        ("model_selection.compare.self_ms", "ms"),
        ("model_selection.ks_statistic.us", "us"),
        ("model_selection.ks_pvalue.exact.ms", "ms"),
        ("model_selection.ks_pvalue.asymptotic.us", "us"),
    ]
    + [(f"order_statistics.order_stat_cdf.ms.{n}", "ms") for n in ORDER_NS]
    + [
        ("order_statistics.order_stat_pdf.ms", "ms"),
        ("order_statistics.system_lifetime_cdf.ms", "ms"),
        ("cli.main.self_ms", "ms"),
        ("datasets.load_dataset.us", "us"),
        ("setup.analytic_import_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
)
EXACT = {name for name, _ in PER_LAYER if ".loglik_calls_per_fit." in name or ".pdf_calls." in name}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size_tag(points: int, scalar: bool) -> str:
    if scalar:
        return "scalar"
    if points <= SMALL_POINTS:
        return "small"
    return "large" if points >= LARGE_POINTS else "mid"


def _surface_tag(args, kwargs):
    x = _arg(args, kwargs, 2, "x", kwargs.get("q"))
    if np.ndim(x) == 0:
        return "scalar", 1
    points = int(np.size(x))
    return _size_tag(points, False), points


def _sample_tag(args, kwargs):
    points = int(_arg(args, kwargs, 2, "n", 0))
    return _size_tag(points, False), points


def _pvalue_tag(args, kwargs):
    return str(_arg(args, kwargs, 2, "method", "asymptotic")), 0


def _order_tag(args, kwargs):
    return f"n{_arg(args, kwargs, 1, 'spec').n}", 0


def _kind_tag(args, kwargs):
    return _arg(args, kwargs, 0, "kind").value, 0


def _no_tag(args, kwargs):
    return "", 0


TAGGERS = {
    **{f"distributions.{fn}": _surface_tag for fn in SURFACE_FNS},
    "distributions.sample": _sample_tag,
    "model_selection.ks_pvalue": _pvalue_tag,
    "order_statistics.order_stat_cdf": _order_tag,
    "order_statistics.order_stat_pdf": _order_tag,
    "estimation.fit_mle": _kind_tag,
}
QUAD_NAMES = {f"analytic.{quad}" for _, quad in QUANTITIES.values()}


class Stat:
    """Sums over the calls of one (function, tag, entry) key."""

    __slots__ = ("calls", "incl", "layer_self", "points", "inner_loglik",
                 "inner_pdf", "inner_pdf_s", "converged")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.layer_self = 0.0
        self.points = 0
        self.inner_loglik = 0
        self.inner_pdf = 0
        self.inner_pdf_s = 0.0
        self.converged = 0


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.stats: dict = defaultdict(Stat)
        self.first: dict = defaultdict(Stat)
        self.recording_first = False
        self.stack: list = []
        self.spans: list = []
        self.request_id = 0
        self._next_span = 0
        self.n_loglik = 0
        self.n_pdf = 0
        self.pdf_s = 0.0
        self._bindings = self._plan()

    # -- wrapping ---------------------------------------------------------

    def _plan(self):
        modules = {layer: importlib.import_module(f"pgduse.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                key = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, self._wrap(key, layer, obj, TAGGERS.get(key, _no_tag)))
        namespaces = list(modules.values()) + [importlib.import_module("pgduse")]
        bindings = []
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    bindings.append((module, name, obj, wrappers[id(obj)][1]))
        return bindings

    def install(self):
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original, _ in self._bindings:
            setattr(module, name, original)

    def _wrap(self, key, layer, fn, tagger):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        is_pdf = key == "distributions.pdf"
        is_loglik = key == "estimation.log_likelihood"
        is_fit = key == "estimation.fit_mle"
        is_quad = key in QUAD_NAMES

        def wrapper(*args, **kwargs):
            tag, points = tagger(args, kwargs)
            parent = stack[-1] if stack else None
            tracer._next_span += 1
            # [key, layer, t0, foreign, span id, loglik0, pdf0, pdf_s0]
            frame = [key, layer, 0.0, 0.0, tracer._next_span,
                     tracer.n_loglik, tracer.n_pdf, tracer.pdf_s]
            stack.append(frame)
            result = None
            frame[2] = t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[3]
                entry = parent is None or parent[1] != layer
                if parent is not None:
                    parent[3] += dur if parent[1] != layer else frame[3]
                if is_pdf:
                    tracer.n_pdf += 1
                    tracer.pdf_s += own
                elif is_loglik:
                    tracer.n_loglik += 1
                targets = ((tracer.stats, tracer.first) if tracer.recording_first
                           else (tracer.stats,))
                for table in targets:
                    s = table[(key, tag, entry)]
                    s.calls += 1
                    s.incl += dur
                    s.layer_self += own
                    s.points += points
                    if is_fit:
                        s.inner_loglik += tracer.n_loglik - frame[5]
                        s.converged += bool(getattr(result, "converged", False))
                    elif is_quad:
                        s.inner_pdf += tracer.n_pdf - frame[6]
                        s.inner_pdf_s += tracer.pdf_s - frame[7]
                if tracer.recording_first and len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.request_id, frame[4],
                                         parent[4] if parent else 0, key, tag, t0, t1))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper


# ----------------------------------------------------------------------
# per-layer metrics from the recorded sums
# ----------------------------------------------------------------------

def _select(table, key, tags=None, entry_only=False):
    return [s for (k, tag, entry), s in table.items()
            if k == key and (tags is None or tag in tags) and (entry or not entry_only)]


def _mean(stats, field, scale, per="calls"):
    calls = sum(getattr(s, per) for s in stats)
    if calls == 0:
        return None
    return scale * sum(getattr(s, field) for s in stats) / calls, calls


def layer_metrics(tracer: Tracer) -> dict:
    """Metric name -> (value, samples) for every metric the sums support."""
    t, first = tracer.stats, tracer.first
    out = {}

    def put(name, result):
        if result is not None:
            out[name] = result

    for kind in KIND_NAMES:
        put(f"estimation.loglik_calls_per_fit.{kind}",
            _mean(_select(first, "estimation.fit_mle", {kind}), "inner_loglik", 1.0))
        put(f"estimation.fit_mle.ms.{kind}",
            _mean(_select(t, "estimation.fit_mle", {kind}), "incl", 1e3))
    put("estimation.log_likelihood.us", _mean(_select(t, "estimation.log_likelihood"), "incl", 1e6))
    put("estimation.converged_frac", _mean(_select(t, "estimation.fit_mle"), "converged", 1.0))

    for fn in SURFACE_FNS + ("sample",):
        big = _select(t, f"distributions.{fn}", {"large"}, entry_only=True)
        points = sum(s.points for s in big)
        seconds = sum(s.incl for s in big)
        if points and seconds > 0.0:
            out[f"distributions.{fn}.mpts_s"] = (points / seconds / 1e6, sum(s.calls for s in big))
    put("distributions.scalar_call_us",
        _mean(_select(t, "distributions.pdf", {"scalar"}, entry_only=True), "layer_self", 1e6))
    small = [s for fn in SURFACE_FNS
             for s in _select(t, f"distributions.{fn}", {"small"}, entry_only=True)]
    put("distributions.small_call_us", _mean(small, "layer_self", 1e6))

    quad_calls = []
    for q, (series, quad) in QUANTITIES.items():
        put(f"analytic.series.ms.{q}", _mean(_select(t, f"analytic.{series}"), "incl", 1e3))
        quad_stats = _select(t, f"analytic.{quad}")
        quad_calls += quad_stats
        put(f"analytic.quad.ms.{q}", _mean(quad_stats, "incl", 1e3))
        put(f"analytic.quad.pdf_calls.{q}",
            _mean(_select(first, f"analytic.{quad}"), "inner_pdf", 1.0))
    quad_time = sum(s.incl for s in quad_calls)
    if quad_time > 0.0:
        out["analytic.quad.pdf_share"] = (
            sum(s.inner_pdf_s for s in quad_calls) / quad_time, sum(s.calls for s in quad_calls))

    put("model_selection.compare.self_ms",
        _mean(_select(t, "model_selection.compare"), "layer_self", 1e3))
    put("model_selection.ks_statistic.us",
        _mean(_select(t, "model_selection.ks_statistic"), "incl", 1e6))
    put("model_selection.ks_pvalue.exact.ms",
        _mean(_select(t, "model_selection.ks_pvalue", {"exact"}), "incl", 1e3))
    put("model_selection.ks_pvalue.asymptotic.us",
        _mean(_select(t, "model_selection.ks_pvalue", {"asymptotic"}), "incl", 1e6))

    for n in ORDER_NS:
        put(f"order_statistics.order_stat_cdf.ms.{n}",
            _mean(_select(t, "order_statistics.order_stat_cdf", {f"n{n}"}, entry_only=True),
                  "incl", 1e3))
    put("order_statistics.order_stat_pdf.ms",
        _mean(_select(t, "order_statistics.order_stat_pdf", entry_only=True), "incl", 1e3))
    put("order_statistics.system_lifetime_cdf.ms",
        _mean(_select(t, "order_statistics.system_lifetime_cdf"), "incl", 1e3))

    put("cli.main.self_ms", _mean(_select(t, "cli.main"), "layer_self", 1e3))
    put("datasets.load_dataset.us", _mean(_select(t, "datasets.load_dataset"), "incl", 1e6))
    return out


def overhead_pct(traced: dict, untraced: dict):
    """Median over request positions of traced/untraced median latency, as %.

    ``traced`` and ``untraced`` map a request position within the cycle to
    the latencies seen there.  Returns (percent, positions compared).
    """
    ratios = [statistics.median(traced[i]) / statistics.median(untraced[i])
              for i in traced if i in untraced and statistics.median(untraced[i]) > 0.0]
    if not ratios:
        return None
    return 100.0 * (statistics.median(ratios) - 1.0), len(ratios)
