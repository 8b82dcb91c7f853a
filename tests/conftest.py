"""Shared pytest configuration for the unit/integration test suite."""

import collections
import os
import sys

import pytest
from hypothesis import HealthCheck, settings

import repro

# The engines under test execute real (if small) query plans per example;
# wall-clock per example varies too much for hypothesis's default deadline,
# and module-scoped engine fixtures are intentional (they are stateless
# across runs).
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def repro_calls():
    """``repro_calls(fn)``: run *fn* and return a ``Counter`` of the
    Python calls it made into ``src/repro``, by function name.  Counted
    with ``sys.setprofile``, so the numbers repeat exactly — the currency
    of the interpreter-work guards."""
    source = os.path.dirname(repro.__file__)

    def count(fn):
        names = collections.Counter()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(source):
                names[frame.f_code.co_name] += 1

        sys.setprofile(hook)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return names

    return count
