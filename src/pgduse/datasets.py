"""Dataset ingestion: the built-in Lawless ball-bearing sample and text files."""

from __future__ import annotations

import os
from typing import Union

from .distributions import Dataset
from .errors import EmptyDataset, NonPositiveObservation, ParseError

__all__ = ["LAWLESS_BALL_BEARINGS", "BUILTIN_DATASETS", "load_dataset"]

# Millions of revolutions to failure for 23 ball bearings on life test
# (Lawless's classic reliability sample, as used by the benchmark this
# package reproduces).
LAWLESS_BALL_BEARINGS: tuple[float, ...] = (
    17.88, 28.92, 33.00, 41.52, 42.12, 45.60,
    48.80, 51.84, 51.96, 54.12, 55.56, 67.80,
    68.64, 68.64, 68.88, 84.12, 93.12, 98.64,
    105.12, 105.84, 127.92, 128.04, 173.40,
)

BUILTIN_DATASETS = {"lawless": LAWLESS_BALL_BEARINGS}


def load_dataset(source: Union[str, os.PathLike]) -> Dataset:
    """Load a dataset from a built-in name or a text file.

    A built-in name (currently only ``"lawless"``) is matched
    case-insensitively.  File sources hold one observation per line or
    several comma-separated per line; blank lines and lines starting with
    ``#`` are ignored.

    Raises
    ------
    ParseError
        The source is neither a str nor a path, or cannot be opened, or a
        token could not be read as a number (carries the line number).
    NonPositiveObservation
        An observation was <= 0 or non-finite (carries the line number).
    EmptyDataset
        The source held no observations.
    """
    try:  # open() would take an int for a file descriptor, and close it
        source = os.fspath(source)
    except TypeError:
        raise ParseError(f"data source must be a name or a path, got {source!r}") from None
    name = str(source).strip()
    builtin = BUILTIN_DATASETS.get(name.lower())
    if builtin is not None:
        return Dataset(builtin)

    values: list[float] = []
    try:
        handle = open(source, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open data source {name!r}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            for token in stripped.replace(",", " ").split():
                try:
                    value = float(token)
                except ValueError:
                    raise ParseError(
                        f"line {lineno}: cannot parse {token!r} as a number",
                        line=lineno,
                    ) from None
                if not 0.0 < value < float("inf"):
                    raise NonPositiveObservation(
                        f"line {lineno}: observation must be positive and finite, "
                        f"got {token!r}",
                        line=lineno,
                    )
                values.append(value)
    if not values:
        raise EmptyDataset(f"data source {name!r} holds no observations")
    return Dataset(values)
