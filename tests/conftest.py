"""Shared pytest hooks: fixed hypothesis draws, and the acceptance verdict
block printed after a run."""

from __future__ import annotations

import sys

from hypothesis import settings

# each property draws the same examples on every run, so a check that only
# some draws reach is reached always or never; max_examples stays per test
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def pytest_terminal_summary(terminalreporter):
    for name in ("test_acceptance", "tests.test_acceptance"):
        module = sys.modules.get(name)
        if module is not None and getattr(module, "VERDICTS", None):
            terminalreporter.section("acceptance criteria")
            for line in module.VERDICTS:
                terminalreporter.write_line(line)
            break
