"""Command-line interface: fit, compare, eval, sample, plotdata.

Output formats: an aligned text table (7 significant digits), csv, or
json; csv and json always carry full double precision.  Exit status is 0
only when every requested fit converged and no error occurred
(3 flags non-convergence, 1 any other handled error).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

import numpy as np

from . import __version__
from .datasets import load_dataset
from .distributions import ModelKind, cdf, hazard, pdf, quantile, sample, survival, validate_params
from .errors import DomainError, PgduseError
from .model_selection import DEFAULT_MODEL_ORDER, ComparisonRow, _fit_row, compare, ecdf

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_NONCONVERGED = 3

_EVAL_FUNCTIONS = {
    "pdf": pdf,
    "cdf": cdf,
    "survival": survival,
    "hazard": hazard,
    "quantile": quantile,
}


def _cell(value, float_format) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return float_format(value)
    return str(value)


def _output(path):
    """The file at ``path``, opened for writing, or stdout when no path is given."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _render_table(headers, rows, out, footnotes=()):
    cells = [[_cell(v, "{:.7g}".format) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for row in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    for note in footnotes:
        out.write(f"# {note}\n")


def _render_csv(headers, rows, out, footnotes=()):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_cell(v, repr) for v in row])
    for note in footnotes:
        out.write(f"# {note}\n")


def _emit(config, headers, rows, json_payload, footnotes=()):
    with _output(config.out) as out:
        if config.format == "json":
            json.dump(json_payload, out, indent=2)
            out.write("\n")
        elif config.format == "csv":
            _render_csv(headers, rows, out, footnotes)
        else:
            _render_table(headers, rows, out, footnotes)


def _parse_numbers(option: str, spec: str) -> list[float]:
    """The numbers of a comma- or space-separated list given to ``option``."""
    try:
        return [float(tok) for tok in spec.replace(",", " ").split()]
    except ValueError:
        raise DomainError(f"{option}: cannot parse {spec!r} as numbers") from None


def _parse_params(kind: ModelKind, spec: str):
    return validate_params(kind, _parse_numbers("--params", spec))


def _row_record(row: ComparisonRow) -> dict:
    return {
        "model": row.kind.value,
        "params": row.param_dict(),
        "log_likelihood": row.log_likelihood,
        "aic": row.aic,
        "bic": row.bic,
        "ks_d": row.ks_d,
        "p_value": row.p_value,
        "converged": row.converged,
    }


_ROW_HEADERS = [
    "model", "param_1", "value_1", "param_2", "value_2",
    "log_likelihood", "aic", "bic", "ks_d", "p_value", "converged",
]


def _row_cells(row: ComparisonRow) -> list:
    names = list(row.kind.param_names) + [""]
    values = list(row.params) + [""]
    return [
        row.kind.value, names[0], values[0], names[1], values[1],
        row.log_likelihood, row.aic, row.bic, row.ks_d, row.p_value, row.converged,
    ]


def cmd_fit(config) -> int:
    data = load_dataset(config.data)
    kind = ModelKind.parse(config.model)
    row = _fit_row(kind, data, pvalue_method=config.pvalue_method)
    _emit(config, _ROW_HEADERS, [_row_cells(row)], _row_record(row))
    return _EXIT_OK if row.converged else _EXIT_NONCONVERGED


def _parse_models(config) -> list:
    if not config.models:
        return list(DEFAULT_MODEL_ORDER)
    return [ModelKind.parse(tok) for tok in config.models]


def cmd_compare(config) -> int:
    data = load_dataset(config.data)
    table = compare(data, _parse_models(config), pvalue_method=config.pvalue_method)
    payload = {
        "n": table.n,
        "ranking": "aic ascending",
        "rows": [_row_record(row) for row in table.rows],
        "footnotes": list(table.footnotes),
    }
    _emit(config, _ROW_HEADERS, [_row_cells(r) for r in table.rows], payload,
          footnotes=table.footnotes)
    return _EXIT_OK if all(r.converged for r in table.rows) else _EXIT_NONCONVERGED


def cmd_eval(config) -> int:
    kind = ModelKind.parse(config.model)
    params = _parse_params(kind, config.params)
    func = _EVAL_FUNCTIONS[config.fn]
    points = [point for spec in config.at for point in _parse_numbers("--at", spec)]
    rows = []
    records = []
    for point in points:
        try:
            value = func(kind, params, point)
            rows.append([point, value, ""])
            records.append({"at": point, "value": value})
        except DomainError as exc:
            rows.append([point, "", f"DomainError: {exc}"])
            records.append({"at": point, "error": str(exc)})
    payload = {"model": kind.value, "fn": config.fn, "values": records}
    _emit(config, ["at", "value", "error"], rows, payload)
    return _EXIT_OK


def cmd_sample(config) -> int:
    kind = ModelKind.parse(config.model)
    params = _parse_params(kind, config.params)
    values = sample(kind, params, config.n, config.seed)
    with _output(config.out) as out:
        for v in values:
            out.write(repr(float(v)) + "\n")
    return _EXIT_OK


def cmd_plotdata(config) -> int:
    if config.grid_points < 1:
        raise DomainError(f"--grid-points must be >= 1, got {config.grid_points}")
    if not 0.0 < config.grid_quantile < 1.0:
        raise DomainError(f"--grid-quantile must lie in (0, 1), got {config.grid_quantile!r}")
    data = load_dataset(config.data)
    if config.params:
        if not config.model:
            raise DomainError("--params requires --model")
        kind = ModelKind.parse(config.model)
        fitted = {kind: _parse_params(kind, config.params).as_tuple()}
        best_kind = kind
    else:
        table = compare(data, _parse_models(config))
        fitted = {row.kind: row.params for row in table.rows}
        best_kind = table.best().kind
    top = float(quantile(best_kind, fitted[best_kind], config.grid_quantile))
    grid = np.linspace(0.0, top, config.grid_points)
    order = [k for k in DEFAULT_MODEL_ORDER if k in fitted] or list(fitted)
    tags = [k.value for k in order]

    def write_grid(path, header_cols, columns):
        # tolist() yields Python floats, so each token is repr(float(value))
        rows = np.column_stack(columns).tolist()
        lines = [" ".join(header_cols)] + [" ".join(map(repr, row)) for row in rows]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    density_cols = [grid] + [np.asarray(pdf(k, fitted[k], grid)) for k in order]
    hazard_cols = [grid] + [np.asarray(hazard(k, fitted[k], grid)) for k in order]
    steps = ecdf(data).value_at(grid)
    ecdf_cols = [grid, steps] + [np.asarray(cdf(k, fitted[k], grid)) for k in order]

    prefix = config.out or "plotdata"
    paths = {
        "density": f"{prefix}_density.tsv",
        "hazard": f"{prefix}_hazard.tsv",
        "ecdf": f"{prefix}_ecdf.tsv",
    }
    write_grid(paths["density"], ["x"] + tags, density_cols)
    write_grid(paths["hazard"], ["x"] + tags, hazard_cols)
    write_grid(paths["ecdf"], ["x", "ecdf"] + tags, ecdf_cols)
    sys.stdout.write("\n".join(paths.values()) + "\n")
    return _EXIT_OK


def _add_common(parser, data=False, model=False, models=False, params=False,
                formats=False, pvalues=False):
    parser.add_argument("--out", help="write output to this path instead of stdout")
    if formats:
        parser.add_argument("--format", choices=["table", "csv", "json"], default="table")
    if pvalues:
        parser.add_argument(
            "--pvalue-method", choices=["exact", "asymptotic"], default="asymptotic"
        )
    if data:
        parser.add_argument(
            "--data", required=True, help="builtin name ('lawless') or a text file path"
        )
    if model:
        parser.add_argument(
            "--model",
            required=model == "required",
            help="one of pgduse, gduse, duse, kme, ed",
        )
    if models:
        parser.add_argument(
            "--models", nargs="+", help="subset of models (default: all five)"
        )
    if params:
        parser.add_argument(
            "--params",
            required=params == "required",
            help="comma-separated parameter values",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgduse",
        description="DUS-family lifetime distributions: fitting, comparison, evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"pgduse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model by maximum likelihood")
    _add_common(p_fit, data=True, model="required", formats=True, pvalues=True)
    p_fit.set_defaults(func=cmd_fit)

    p_cmp = sub.add_parser("compare", help="fit several models and rank them")
    _add_common(p_cmp, data=True, models=True, formats=True, pvalues=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser("eval", help="evaluate a distribution function pointwise")
    _add_common(p_eval, model="required", params="required", formats=True)
    p_eval.add_argument("--fn", choices=sorted(_EVAL_FUNCTIONS), required=True)
    p_eval.add_argument(
        "--at", action="append", required=True,
        help="evaluation point(s); repeatable or comma-separated",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="draw reproducible random variates")
    _add_common(p_sample, model="required", params="required")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=cmd_sample)

    p_plot = sub.add_parser("plotdata", help="emit density/hazard/ecdf plot grids")
    _add_common(p_plot, data=True, model=True, models=True, params=True)
    p_plot.add_argument("--grid-points", type=int, default=512)
    p_plot.add_argument("--grid-quantile", type=float, default=0.999)
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    config = parser.parse_args(argv)
    try:
        return config.func(config)
    except PgduseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
