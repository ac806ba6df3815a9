"""Fixtures shared by the test modules."""
import warnings

import pytest

from umbra import checks


@pytest.fixture(scope="session")
def catalog_run() -> tuple[list, list]:
    """One catalog run at the default seed and order, shared by the session:
    (its (suite, `checks.CheckResult`) pairs in catalog order; the messages of its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = checks.run_selected("all")
    return results, [str(w.message) for w in caught]
