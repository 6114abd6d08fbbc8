import os

import pytest

from pgduse import (
    EmptyDataset,
    NonPositiveObservation,
    ParseError,
    load_dataset,
)
from pgduse.datasets import LAWLESS_BALL_BEARINGS


def test_builtin_lawless_summary():
    d = load_dataset("lawless")
    assert d.n == 23
    assert d.sorted_values[0] == 17.88
    assert d.sorted_values[-1] == 173.40
    assert d.total == pytest.approx(1661.48, abs=1e-9)
    assert load_dataset("LAWLESS").n == 23  # case-insensitive


def test_builtin_matches_module_constant():
    d = load_dataset("lawless")
    assert tuple(d.observations) == LAWLESS_BALL_BEARINGS


def test_file_one_per_line(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("1.0\n2.5\n\n3.5\n")
    d = load_dataset(path)
    assert list(d.observations) == [1.0, 2.5, 3.5]


def test_file_comma_separated_and_comments(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("# failure times\n1.0, 2.0,3.0\n# trailing comment\n4.0\n")
    d = load_dataset(path)
    assert list(d.observations) == [1.0, 2.0, 3.0, 4.0]


def test_file_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\n2.0\nnot-a-number\n")
    with pytest.raises(ParseError) as info:
        load_dataset(path)
    assert info.value.line == 3


def test_file_nonpositive_reports_line(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("1.0\n-2.0\n")
    with pytest.raises(NonPositiveObservation) as info:
        load_dataset(path)
    assert info.value.line == 2


def test_file_empty_dataset(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n\n")
    with pytest.raises(EmptyDataset):
        load_dataset(path)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(tmp_path / "nope.txt")


@pytest.mark.parametrize("source", [None, 2.5, ["lawless"]])
def test_source_that_is_not_a_name_or_path_is_parse_error(source):
    with pytest.raises(ParseError, match="name or a path"):
        load_dataset(source)


def test_standard_input_is_not_a_source():
    # open() takes an int for a file descriptor: load_dataset(0) would read
    # standard input and close it.  fd 0 is a pipe here, so nothing blocks
    saved = os.dup(0)
    read_end, write_end = os.pipe()
    os.write(write_end, b"1.0\n")
    os.close(write_end)
    os.dup2(read_end, 0)
    os.close(read_end)
    try:
        with pytest.raises(ParseError, match="name or a path"):
            load_dataset(0)
        assert os.read(0, 16) == b"1.0\n"
    finally:
        os.dup2(saved, 0)
        os.close(saved)
