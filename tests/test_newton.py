"""Plain vs smoothed Newton: tame estimates, presets, and continuation."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from edl.config import LIMITS
from edl.series import FourierSeries1D, TWO_PI
from edl.deform import ExtendedSystem
from edl.experiments import continuation_family
from edl.lapack import brentq as edl_brentq
from edl.newton import (
    ROUGH_PRESET_AMPLITUDE,
    ROUGH_PRESET_DECAY,
    ROUGH_PRESET_PHASES,
    ROUGH_PRESET_SEED,
    ToyProblem,
    eigenvalue_continuation,
    nash_moser_solve,
    plain_newton_solve,
    rough_f_preset,
    smooth_f_preset,
    tame_estimate_sweep,
)


def random_state(rng, n_modes, scale, decay=2.0):
    modes = {0: scale * rng.standard_normal()}
    for l in range(1, n_modes + 1):
        c = scale * l ** (-decay) * np.exp(2j * np.pi * rng.uniform())
        modes[l] = c
        modes[-l] = np.conj(c)
    return FourierSeries1D.from_modes(modes, n_modes)


# -- derivative bookkeeping ------------------------------------------------------------


def test_toy_derivative_matches_quadratic_expansion():
    rng = np.random.default_rng(11)
    prob = ToyProblem(n_modes=32)
    u = random_state(rng, 32, 0.2)
    v = random_state(rng, 32, 0.3)
    lhs = prob.apply(u + v) - prob.apply(u) - prob.derivative_apply(u, v)
    quad = prob.apply(v) - v
    assert (lhs - quad).sobolev_norm(0) < 1e-12


def test_solve_then_apply_is_identity():
    rng = np.random.default_rng(15)
    prob = ToyProblem(n_modes=48)
    u = random_state(rng, 48, 0.05)
    g = random_state(rng, 48, 1.0, decay=1.2)
    sol = prob.solve_linearized(u, g)
    assert (prob.derivative_apply(u, sol) - g).sobolev_norm(2) < 1e-9


# -- tame estimate ---------------------------------------------------------------------


def test_tame_constants_bounded_across_bands():
    report = tame_estimate_sweep((24, 48, 96))
    for m in (1, 2, 3):
        per_n = report.ratios[m]
        assert max(per_n.values()) < 0.05
        assert per_n[96] <= 1.5 * per_n[24]


# -- solver behavior on the presets ----------------------------------------------------


def test_smooth_preset_both_solvers_agree():
    prob = ToyProblem(n_modes=96)
    f = smooth_f_preset(n_modes=96)
    u_plain, tr_plain = plain_newton_solve(prob, f, max_steps=30, tol=1e-12)
    u_nm, tr_nm = nash_moser_solve(prob, f, max_steps=40, tol=1e-12)
    assert tr_plain.status == "converged"
    assert len(tr_plain.steps) <= 8
    assert tr_nm.status == "converged"
    assert (u_plain - u_nm).sobolev_norm(2) < 1e-8


def test_rough_preset_phases_are_numpys_frozen_draw():
    # the phases were drawn by numpy's generator before the library left
    # numpy.random; criterion 9 sits on a knife edge in them, so they must
    # stay those floats bit for bit, one per admitted n_modes
    want = np.random.default_rng(ROUGH_PRESET_SEED).uniform(0.0, TWO_PI, 207)
    assert np.array_equal(np.array(ROUGH_PRESET_PHASES), want)
    assert len(ROUGH_PRESET_PHASES) == LIMITS["nash-moser"]["n_modes"][1]
    # rough_f_preset(96) as it was built from a fresh draw
    phases = np.random.default_rng(ROUGH_PRESET_SEED).uniform(0.0, TWO_PI, size=96)
    modes = {}
    for l in range(1, 97):
        c = ROUGH_PRESET_AMPLITUDE * l ** (-ROUGH_PRESET_DECAY) * np.exp(1j * phases[l - 1])
        modes[l] = c
        modes[-l] = np.conj(c)
    want = FourierSeries1D.from_modes(modes, 96)
    got = rough_f_preset(96)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    with pytest.raises(ValueError, match="207 phases"):
        rough_f_preset(208)


def test_rough_preset_separates_the_iterations():
    prob = ToyProblem(n_modes=96)
    f = rough_f_preset()
    _, tr_plain = plain_newton_solve(prob, f, max_steps=30, tol=1e-10)
    u_nm, tr_nm = nash_moser_solve(prob, f, max_steps=30, tol=1e-10)
    assert tr_plain.status == "diverged"
    assert "consecutive" in tr_plain.message
    assert tr_nm.status == "converged"
    assert len(tr_nm.steps) <= 30
    assert (f - prob.apply(u_nm)).sobolev_norm(2) < 1e-10


def test_rough_preset_corrections_collapse_after_opening():
    prob = ToyProblem(n_modes=96)
    f = rough_f_preset()
    _, trace = nash_moser_solve(prob, f, max_steps=30, tol=1e-10)
    corrections = [s.correction_norm for s in trace.steps]
    assert sum(corrections) < 200.0
    assert corrections[-1] < 1e-8
    assert corrections[-2] < 1e-3
    assert corrections[-3] < 0.5
    assert corrections[-1] < corrections[-2] < corrections[-3]


def test_schedule_caps_at_one_and_decays():
    prob = ToyProblem(n_modes=24)
    f = 0.5 * smooth_f_preset(n_modes=24)
    _, trace = nash_moser_solve(prob, f, max_steps=20, tol=1e-13)
    eps = [s.eps for s in trace.steps]
    assert eps[0] == 1.0
    assert all(b <= a for a, b in zip(eps, eps[1:]))
    assert all(0.0 < e <= 1.0 for e in eps)
    _, plain = plain_newton_solve(prob, f, max_steps=5, tol=1e-13)
    assert all(math.isnan(s.eps) for s in plain.steps)


def test_budget_exhausted_status():
    prob = ToyProblem(n_modes=96)
    f = rough_f_preset()
    _, trace = plain_newton_solve(prob, f, max_steps=3, tol=1e-10)
    assert trace.status == "budget_exhausted"
    assert len(trace.steps) == 3


def test_solver_failure_is_reported():
    class BrokenProblem(ToyProblem):
        def solve_linearized(self, u, g):
            raise np.linalg.LinAlgError("singular linearization")

    prob = BrokenProblem(n_modes=8)
    f = smooth_f_preset(n_modes=8)
    _, trace = plain_newton_solve(prob, f)
    assert trace.status == "solver_failed"
    assert "singular" in trace.message


def test_wild_amplitude_certifies_divergence():
    prob = ToyProblem(n_modes=96)
    f = (0.15 / ROUGH_PRESET_AMPLITUDE) * rough_f_preset()
    _, trace = plain_newton_solve(prob, f, max_steps=40, tol=1e-10)
    assert trace.status == "diverged"


def test_preset_series_are_real_and_frozen():
    f = rough_f_preset()
    g = rough_f_preset()
    assert np.array_equal(f.coeffs, g.coeffs)
    defect = np.max(np.abs(f.coeffs - np.conj(f.coeffs[::-1])))
    assert defect < 1e-15
    assert abs(f.coeff(0)) == 0.0


# -- eigenvalue continuation -----------------------------------------------------------


def test_continuation_locates_the_crossing():
    data_family, g = continuation_family(24)
    result = eigenvalue_continuation(data_family, g, 24, -0.2, 0.3, tol=1e-10)
    assert set(vars(result)) == {"s_star", "bracket", "evaluations", "history"}
    assert abs(result.s_star) < 1e-6
    assert result.bracket == (-0.2, 0.3)
    assert result.evaluations == len(result.history)
    s_vals = [s for s, _ in result.history]
    assert all(-0.2 <= s <= 0.3 for s in s_vals)


def test_continuation_crossing_is_locally_linear():
    data_family, g = continuation_family(24)
    result = eigenvalue_continuation(data_family, g, 24, -0.2, 0.3, tol=1e-10)
    h = 0.03
    lp = ExtendedSystem.from_data(data_family(result.s_star + h), 24).solve(g)[1]
    lm = ExtendedSystem.from_data(data_family(result.s_star - h), 24).solve(g)[1]
    assert lp * lm < 0.0
    assert abs(lp + lm) / abs(lp - lm) < 0.2


def test_continuation_rejects_sign_preserving_bracket():
    data_family, g = continuation_family(24)
    with pytest.raises(ValueError, match="sign"):
        eigenvalue_continuation(data_family, g, 24, 0.1, 0.3)
    with pytest.raises(ValueError, match="bracket"):
        eigenvalue_continuation(data_family, g, 24, 0.3, 0.1)


# -- Brent's method: edl.lapack's against scipy.optimize's brentq -----------------------
# (the cases were written for an earlier Python port of brentq.c, hence "port" in the
# test names; they now check the wrapper around scipy's compiled loop)


def continuation_multiplier():
    data_family, g = continuation_family(24)
    cache = {}

    def lam(s):
        if s not in cache:
            cache[s] = float(ExtendedSystem.from_data(data_family(s), 24).solve(g)[1])
        return cache[s]

    return lam


def step(x):
    return 1.0 if x > 0.123 else -1.0


def nan_inside(x):
    return math.nan if 0.0 < x < 1.0 else x - 0.5


BRENT_CASES = {
    # name: (f, a, b, keyword arguments)
    "secant": (lambda x: 3.0 * x - 1.0, 0.0, 1.0, {}),
    "inverse quadratic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, {}),
    "inverse quadratic, tight": (lambda x: math.cos(x) - x, 0.0, 1.0, {"xtol": 1e-300}),
    "bisection, |f| not decreasing": (step, -1.0, 1.0, {}),
    "bisection, interpolation rejected": (lambda x: x**9 - 1e-3, -1.0, 4.0, {}),
    "step bound near xtol": (lambda x: math.exp(5.0 * (x - 0.37)) - 1.0, 0.0, 1.0, {"xtol": 0.05}),
    "root at a": (lambda x: x, 0.0, 1.0, {}),
    "root at b": (lambda x: x - 1.0, 0.0, 1.0, {}),
    "no sign change": (lambda x: x * x + 1.0, -1.0, 1.0, {}),
    "NaN value": (nan_inside, 0.0, 1.0, {}),
    # |f| never falls, so every step bisects: 100 halvings toward 0 stay far above xtol
    "maxiter": (lambda x: 1.0 if x > 0.0 else -1.0, -1.0, 1.0, {"xtol": 1e-300}),
}


def brent_run(solver, f, a, b, **kwargs):
    """The root (or the exception type) and every point f was evaluated at."""
    points = []

    def g(x):
        points.append(float(x).hex())
        return f(x)

    try:
        out = float(solver(g, a, b, **kwargs)).hex()
    except (RuntimeError, ValueError) as exc:
        out = type(exc)
    return out, points


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_brentq_port_matches_scipy_on_the_continuation_multiplier(tol):
    lam = continuation_multiplier()
    mine = brent_run(edl_brentq, lam, -0.2, 0.3, xtol=tol)
    assert mine == brent_run(brentq, lam, -0.2, 0.3, xtol=tol)


@pytest.mark.parametrize("name", BRENT_CASES)
def test_brentq_port_matches_scipy(name):
    f, a, b, kwargs = BRENT_CASES[name]
    assert brent_run(edl_brentq, f, a, b, **kwargs) == brent_run(brentq, f, a, b, **kwargs)


def test_trace_records_residual_decline():
    prob = ToyProblem(n_modes=48)
    f = smooth_f_preset(n_modes=48)
    _, trace = plain_newton_solve(prob, f, max_steps=30, tol=1e-12)
    assert set(vars(trace)) == {"status", "steps", "final_residual", "message"}
    residuals = [s.residual_norm for s in trace.steps]
    assert residuals[0] > trace.final_residual
    assert residuals[-1] < 1e-6
