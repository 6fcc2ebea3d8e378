"""Shared pytest wiring: surfaces the acceptance-criterion audit lines and
gives each test its own random generator."""

import numpy as np
import pytest

criterion_lines = []


@pytest.fixture
def rng():
    """A fresh generator per test, so a test draws the same inputs whether it
    runs alone or after others."""
    return np.random.default_rng(20260815)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
