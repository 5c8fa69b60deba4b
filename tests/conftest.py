"""Session fixtures shared by the test modules.

The full default scenario runs twice per session: once for every test
that reads its report, and once more, fresh, for the tests that check
a rerun reproduces it.
"""

import pytest

from steamfleet.config import default_config
from steamfleet.scenario import run_scenario


@pytest.fixture(scope="session")
def default_run():
    return run_scenario(default_config())


@pytest.fixture(scope="session")
def default_rerun():
    return run_scenario(default_config())
