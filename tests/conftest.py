"""Suite-wide test hooks.

When a Hypothesis test fails, Hypothesis's pytest plugin writes a patch of
the failing examples while pytest makes the test's report. Building it
imports `libcst`, whose import warns `DeprecationWarning:
mypy_extensions.TypedDict is deprecated`, and pyproject.toml's
`filterwarnings` turns that warning into an error inside pytest's run loop:
the run ended in `INTERNALERROR` without the falsifying example. The hook
below ignores that one warning while the reports are made; every other
warning keeps its filter.
"""

import warnings

import pytest


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated",
                                DeprecationWarning)
        return (yield)
