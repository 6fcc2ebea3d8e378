"""Shared pytest wiring: surfaces the acceptance-criterion audit lines, gives
each test its own random generator, and shoots the radial mode system."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from edl.dirac import ModeSpinor

criterion_lines = []


@pytest.fixture
def rng():
    """A fresh generator per test, so a test draws the same inputs whether it
    runs alone or after others."""
    return np.random.default_rng(20260815)


def shoot_mode(k, l, rgrid, decaying):
    """Shooting solution of the (k, l) mode system at rgrid's radii, from
    scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5) on
    du/ds = A(s) u, s = log r, A = [[k-1/2, -l r], [-l r, -(k+1/2)]].

    decaying: seeded with e^{-|l| R} R^{-1/2} (1, sgn l) at R, integrated
    inward, the stable direction of the decaying branch. Otherwise the regular
    branch: the leading Frobenius term r_min^{|k|-1/2} on (1, 0) for k > 0, on
    (0, 1) for k < 0, integrated outward; for k != 0 it grows like e^{|l| r}.
    """
    s = np.log(rgrid.r)
    if decaying:
        big_r = rgrid.r[-1]
        seed = math.exp(-abs(l) * big_r) / math.sqrt(big_r) * np.array([1.0, math.copysign(1, l)])
        s = s[::-1]
    else:
        seed = rgrid.r[0] ** (abs(k) - 0.5) * np.array([1.0, 0.0] if k > 0 else [0.0, 1.0])

    def rhs(s, u):
        r = math.exp(s)
        return [(k - 0.5) * u[0] - l * r * u[1], -l * r * u[0] - (k + 0.5) * u[1]]

    sol = solve_ivp(rhs, (s[0], s[-1]), seed, method="DOP853", t_eval=s,
                    rtol=1e-12, atol=1e-14 * np.linalg.norm(seed))
    assert sol.success, sol.message
    u = sol.y[:, ::-1] if decaying else sol.y
    return ModeSpinor(k, l, rgrid, u[0].astype(complex), u[1].astype(complex))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
