import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pgduse.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

def test_fit_json_reproduces_benchmark(capsys):
    code, out, _ = run(capsys, "fit", "--model", "pgduse", "--data", "lawless",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "pgduse"
    assert doc["params"]["lambda"] == pytest.approx(0.0336214, abs=5e-5)
    assert doc["params"]["theta"] == pytest.approx(3.8065763, abs=5e-3)
    assert doc["converged"] is True
    assert set(doc) == {
        "model", "params", "log_likelihood", "aic", "bic", "ks_d", "p_value", "converged",
    }


def test_fit_ed_table(capsys):
    code, out, _ = run(capsys, "fit", "--model", "ed", "--data", "lawless")
    assert code == 0
    assert "0.01384308" in out  # 7 significant digits of n / sum(x)


def test_fit_empty_file_errors(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, err = run(capsys, "fit", "--model", "pgduse", "--data", str(empty))
    assert code == 1
    assert "error" in err.lower()


@pytest.mark.parametrize("values", ["9e307\n9e307\n8e307\n", "1e-310\n2e-310\n5e-310\n"])
@pytest.mark.parametrize("command", [("compare",), ("fit", "--model", "pgduse")])
def test_sample_scale_outside_the_rate_range_errors(capsys, tmp_path, values, command):
    path = tmp_path / "scaled.txt"
    path.write_text(values)
    code, out, err = run(capsys, *command, "--data", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert "rescale" in err
    assert "Traceback" not in err


def test_fit_json_csv_numeric_identity(capsys):
    code, json_out, _ = run(capsys, "fit", "--model", "gduse", "--data", "lawless",
                            "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    code, csv_out, _ = run(capsys, "fit", "--model", "gduse", "--data", "lawless",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(csv_out.splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert float(row["log_likelihood"]) == pytest.approx(doc["log_likelihood"], abs=1e-12)
    assert float(row["aic"]) == pytest.approx(doc["aic"], abs=1e-12)
    assert float(row["ks_d"]) == pytest.approx(doc["ks_d"], abs=1e-12)
    assert float(row["value_1"]) == pytest.approx(doc["params"]["alpha"], abs=1e-12)
    assert float(row["value_2"]) == pytest.approx(doc["params"]["beta"], abs=1e-12)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def test_compare_ranks_pgduse_first(capsys):
    code, out, _ = run(capsys, "compare", "--data", "lawless")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[1].startswith("pgduse")
    footnotes = [l for l in out.splitlines() if l.startswith("#")]
    assert len(footnotes) == 2


def test_compare_single_model(capsys):
    code, out, _ = run(capsys, "compare", "--data", "lawless", "--models", "ed",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["model"] for row in doc["rows"]] == ["ed"]


def test_compare_csv_round_trip(capsys):
    code, out, _ = run(capsys, "compare", "--data", "lawless", "--format", "csv")
    assert code == 0
    data_lines = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(data_lines))
    assert len(rows) == 5
    code, json_out, _ = run(capsys, "compare", "--data", "lawless", "--format", "json")
    doc = {r["model"]: r for r in json.loads(json_out)["rows"]}
    for row in rows:
        ref = doc[row["model"]]
        for column, key in (("log_likelihood", "log_likelihood"), ("aic", "aic"),
                            ("bic", "bic"), ("ks_d", "ks_d"), ("p_value", "p_value")):
            assert float(row[column]) == pytest.approx(ref[key], abs=1e-12)


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def test_eval_cdf_value(capsys):
    code, out, _ = run(capsys, "eval", "--model", "pgduse", "--params", "1,2",
                       "--fn", "cdf", "--at", "1.0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][0]["value"] == pytest.approx(0.26323934972685736, rel=1e-10)


def test_eval_hazard_past_survival_underflow(capsys):
    code, out, _ = run(capsys, "eval", "--model", "ed", "--params", "1",
                       "--fn", "hazard", "--at", "1e6")
    assert code == 0
    assert out.splitlines()[1].split() == ["1000000", "1"]


def test_eval_quantile_zero_and_domain_error_row(capsys):
    code, out, _ = run(capsys, "eval", "--model", "pgduse", "--params", "1,2",
                       "--fn", "quantile", "--at", "0,1,0.5", "--format", "json")
    assert code == 0  # per-point errors are reported, not fatal
    values = json.loads(out)["values"]
    assert values[0]["value"] == 0.0
    assert "error" in values[1]
    assert values[2]["value"] > 0.0


# ----------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------

def test_sample_deterministic_bytes(capsys, tmp_path):
    a_path = tmp_path / "a.txt"
    b_path = tmp_path / "b.txt"
    for path in (a_path, b_path):
        code = main(["sample", "--model", "pgduse", "--params", "1,2",
                     "--n", "5", "--seed", "11", "--out", str(path)])
        assert code == 0
    assert a_path.read_bytes() == b_path.read_bytes()
    assert len(a_path.read_text().splitlines()) == 5


def test_sample_zero_points(capsys):
    code, out, _ = run(capsys, "sample", "--model", "ed", "--params", "1.0",
                       "--n", "0", "--seed", "1")
    assert code == 0
    assert out == ""


def test_sample_mean_near_analytic_mean(capsys):
    code, out, _ = run(capsys, "sample", "--model", "pgduse", "--params", "1,2",
                       "--n", "10000", "--seed", "5")
    assert code == 0
    values = np.array([float(line) for line in out.splitlines()])
    mu = 1.834838403029303
    stderr = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - mu) < 3.0 * stderr


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "pgduse", "--params", "1,2", "--fn", "pdf", "--at", "0.5,1,2"],
    ["sample", "--model", "pgduse", "--params", "1,2", "--n", "5", "--seed", "1"],
], ids=["eval", "sample"])
def test_eval_and_sample_run_without_scipy(capsys, argv):
    # both need numpy only: a fresh process prints what this one does and
    # never imports scipy
    code = ("import sys; from pgduse.cli import main; status = main(sys.argv[1:]); "
            "sys.stderr.write(repr([m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])); sys.exit(status)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env)
    _, out, _ = run(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "[]")


# ----------------------------------------------------------------------
# plotdata
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def plot_files(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("plots") / "bearing"
    code = main(["plotdata", "--data", "lawless", "--out", str(prefix)])
    assert code == 0
    return {
        "density": f"{prefix}_density.tsv",
        "hazard": f"{prefix}_hazard.tsv",
        "ecdf": f"{prefix}_ecdf.tsv",
    }


def _read_grid(path):
    with open(path) as handle:
        header = handle.readline().split()
        rows = np.array([[float(tok) for tok in line.split()] for line in handle])
    return header, rows


def test_plotdata_writes_three_512_row_files(plot_files):
    for path in plot_files.values():
        header, rows = _read_grid(path)
        assert rows.shape[0] == 512
        assert header[0] == "x"
    header, _ = _read_grid(plot_files["density"])
    assert header[1:] == ["pgduse", "gduse", "duse", "kme", "ed"]


def test_plotdata_ecdf_column_reaches_one(plot_files):
    header, rows = _read_grid(plot_files["ecdf"])
    assert header[1] == "ecdf"
    assert rows[-1, 1] == 1.0


def test_plotdata_density_integrates_to_one(plot_files):
    header, rows = _read_grid(plot_files["density"])
    col = header.index("pgduse")
    integral = np.trapezoid(rows[:, col], rows[:, 0])
    assert abs(integral - 1.0) < 0.01


def test_plotdata_tokens_are_the_repr_of_each_value(plot_files):
    # the files carry every digit: each token is repr(float) of its column
    from pgduse import cdf, compare, ecdf, hazard, load_dataset, pdf, quantile

    data = load_dataset("lawless")
    table = compare(data)
    best = table.best()
    grid = np.linspace(0.0, float(quantile(best.kind, best.params, 0.999)), 512)

    def columns(fn):
        return {row.kind.value: fn(row.kind, row.params, grid) for row in table.rows}

    expected = {
        "density": {"x": grid, **columns(pdf)},
        "hazard": {"x": grid, **columns(hazard)},
        "ecdf": {"x": grid, "ecdf": ecdf(data).value_at(grid), **columns(cdf)},
    }
    for name, path in plot_files.items():
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        assert lines[-1] == ""
        header = lines[0].split(" ")
        assert sorted(header) == sorted(expected[name])
        for i, line in enumerate(lines[1:-1]):
            tokens = line.split(" ")
            assert tokens == [repr(float(expected[name][col][i])) for col in header]
        assert i == 511


def test_plotdata_grid_flags(tmp_path, capsys):
    prefix = tmp_path / "small"
    code = main(["plotdata", "--data", "lawless", "--models", "ed",
                 "--grid-points", "64", "--grid-quantile", "0.99",
                 "--out", str(prefix)])
    assert code == 0
    _, rows = _read_grid(f"{prefix}_hazard.tsv")
    assert rows.shape == (64, 2)


@pytest.mark.parametrize("flag, value", [
    ("--grid-points", "-5"), ("--grid-quantile", "nan"), ("--grid-quantile", "0"),
])
def test_plotdata_invalid_grid_is_an_error(tmp_path, capsys, flag, value):
    prefix = tmp_path / "bad"
    code, out, err = run(capsys, "plotdata", "--data", "lawless", "--models", "ed",
                         flag, value, "--out", str(prefix))
    assert code == 1
    assert err.startswith("error:") and flag in err
    assert out == "" and not os.path.exists(f"{prefix}_density.tsv")


def test_plotdata_explicit_params(tmp_path, capsys):
    prefix = tmp_path / "explicit"
    code = main(["plotdata", "--data", "lawless", "--model", "pgduse",
                 "--params", "0.0336,3.8", "--grid-points", "32", "--out", str(prefix)])
    assert code == 0
    header, rows = _read_grid(f"{prefix}_density.tsv")
    assert header == ["x", "pgduse"]
    assert rows.shape == (32, 2)


# ----------------------------------------------------------------------
# shared behaviour
# ----------------------------------------------------------------------

def test_unknown_model_is_handled(capsys):
    code, out, err = run(capsys, "fit", "--model", "weibull", "--data", "lawless")
    assert code == 1
    assert "unknown model" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--model", "pgduse", "--params", "1,abc", "--fn", "pdf", "--at", "1"],
         "--params: cannot parse '1,abc'"),
        (["eval", "--model", "ed", "--params", "1", "--fn", "pdf", "--at", "abc"],
         "--at: cannot parse 'abc'"),
        (["eval", "--model", "ed", "--params", "1", "--fn", "pdf", "--at", "1", "--at", "2 x"],
         "--at: cannot parse '2 x'"),
        (["sample", "--model", "ed", "--params", "1e", "--n", "3"], "--params: cannot parse"),
        (["plotdata", "--data", "lawless", "--model", "ed", "--params", "nan?"],
         "--params: cannot parse"),
        (["sample", "--model", "ed", "--params", "1", "--n", "3", "--seed", "-1"],
         "seed must be an integer >= 0"),
    ],
    ids=["params", "at", "second-at", "sample-params", "plotdata-params", "negative-seed"],
)
def test_unreadable_numbers_are_handled(capsys, argv, message):
    # parsed before any output or file is written
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", "ed", "--params", "1", "--fn", "cdf", "--at", "1",
         "--pvalue-method", "exact"],
        ["sample", "--model", "ed", "--params", "1", "--n", "3", "--pvalue-method", "exact"],
        ["sample", "--model", "ed", "--params", "1", "--n", "3", "--format", "json"],
        ["plotdata", "--data", "lawless", "--pvalue-method", "exact"],
        ["plotdata", "--data", "lawless", "--format", "json"],
    ],
    ids=["eval-pvalue", "sample-pvalue", "sample-format", "plotdata-pvalue", "plotdata-format"],
)
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_pvalue_method_flag(capsys):
    code, exact_out, _ = run(capsys, "fit", "--model", "pgduse", "--data", "lawless",
                             "--pvalue-method", "exact", "--format", "json")
    assert code == 0
    code, asym_out, _ = run(capsys, "fit", "--model", "pgduse", "--data", "lawless",
                            "--pvalue-method", "asymptotic", "--format", "json")
    assert code == 0
    exact_p = json.loads(exact_out)["p_value"]
    asym_p = json.loads(asym_out)["p_value"]
    assert asym_p == pytest.approx(0.9425, abs=5e-3)
    assert exact_p == pytest.approx(0.9139, abs=5e-3)
