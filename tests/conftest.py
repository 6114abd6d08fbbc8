import pytest

from pgduse import ModelKind, compare, load_dataset


@pytest.fixture(scope="session")
def lawless():
    return load_dataset("lawless")


@pytest.fixture(scope="session")
def lawless_table(lawless):
    """All five models fitted once and shared across the suite."""
    return compare(lawless)


@pytest.fixture(scope="session")
def lawless_rows(lawless_table):
    return {row.kind: row for row in lawless_table.rows}


GRID_LAMBDAS = (0.5, 1.0, 2.0)
GRID_THETAS = (0.5, 1.0, 2.0, 5.0)
ALL_KINDS = tuple(ModelKind)


def grid_params(kind):
    """Representative parameter tuples per model for property sweeps."""
    if kind in (ModelKind.PGDUSE, ModelKind.GDUSE):
        return [(lam, th) if kind is ModelKind.PGDUSE else (th, lam)
                for lam in GRID_LAMBDAS for th in GRID_THETAS]
    return [(lam,) for lam in GRID_LAMBDAS]
