import pytest

from grouptower.constructions import run_construction


@pytest.fixture(scope="session")
def six_stage():
    """The six-stage construction of the acceptance and construction tests,
    built once per session; no test changes it."""
    return run_construction(6, radius=2, power_bound=4)
