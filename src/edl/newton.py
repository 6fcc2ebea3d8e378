"""Plain and smoothed Newton iterations on truncated series spaces.

The smoothed scheme replaces each update by

    x_{k+1} = x_k + dF(S_{eps_k} x_k)^{-1} S_{eps_k} (f - F(x_k)),

with S_eps the mode-cutoff mollifier and eps_k = min(1, eps0 theta^{-k}):
high modes enter the linearization only once the schedule opens them, which
is what lets derivative-losing nonlinearities converge on rough data where
the plain iteration amplifies its own high-mode error.

Both solvers share one loop and report its status: converged, diverged
(residual above 1e3 x initial for five consecutive steps), budget_exhausted,
or solver_failed.  The toy problem F(u) = u + d_t P_N(u^2) loses one
derivative per application.  Its Jacobian v -> v + 2 d_t P_N(u v) is
complex-linear, I + 2 diag(i l) Toep_N(u), and lies within
b = max{|l| : u_l != 0} of the diagonal.  S_eps cuts every mode above 2/eps,
so the first smoothed steps are narrow bands, and each step solves its
system of side 2N+1 by one banded LU with partial pivoting (zgbsv, Golub &
Van Loan 4.3) written straight from the coefficients of u.  The dense
Jacobian and probing by unit vectors are test oracles only.  The loop
works on the problem's band n_modes, monitors the residual in the graded
norm of level M0, and takes F and its linear solves from the problem;
ToyProblem is the one problem.

Eigenvalue continuation locates the parameter where the multiplier of the
bordered deformation system crosses zero, by Brent's method (scipy's
compiled brentq, from lapack.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not during a command
from numpy.lib.stride_tricks import sliding_window_view

from .series import (
    FourierSeries1D,
    TWO_PI,
    derivative,
    multiply,
    smooth,
)
from .deform import ExtendedSystem
from .lapack import brentq, zgbsv


# -- the shared loop -----------------------------------------------------------------


DIVERGENCE_FACTOR = 1e3
DIVERGENCE_RUN = 5
M0 = 2  # the control norm the iteration monitors


def _newton_loop(problem, f, schedule, max_steps, tol):
    """(u, trace): trace.status, trace.steps (per step its step index, eps,
    residual_norm and correction_norm), trace.final_residual and
    trace.message."""
    u = FourierSeries1D.zero(problem.n_modes)
    f = f.truncate(problem.n_modes)
    steps = []
    initial = None
    bad_run = 0

    def done(status, message):  # reads u and rnorm at the time of the call
        return u, SimpleNamespace(
            status=status, steps=steps, final_residual=rnorm, message=message
        )

    for k in range(max_steps):
        residual = f - problem.apply(u)
        rnorm = residual.sobolev_norm(M0)
        if not math.isfinite(rnorm):
            return done("diverged", "residual norm left the representable range")
        if initial is None:
            initial = max(rnorm, 1e-300)
        if rnorm <= tol:
            return done("converged", f"residual {rnorm:.3e} within tolerance")
        if rnorm > DIVERGENCE_FACTOR * initial:
            bad_run += 1
            if bad_run >= DIVERGENCE_RUN:
                return done(
                    "diverged",
                    f"residual above {DIVERGENCE_FACTOR:.0e} x initial for "
                    f"{DIVERGENCE_RUN} consecutive steps",
                )
        else:
            bad_run = 0
        eps = schedule(k) if schedule is not None else math.nan
        if schedule is None:
            base, rhs = u, residual
        else:
            base, rhs = smooth(u, eps), smooth(residual, eps)
        try:
            delta = problem.solve_linearized(base, rhs)
        except np.linalg.LinAlgError as exc:
            return done("solver_failed", str(exc))
        steps.append(SimpleNamespace(
            step=k, eps=eps, residual_norm=rnorm,
            correction_norm=delta.sobolev_norm(M0),
        ))
        u = u + delta
    residual = f - problem.apply(u)
    rnorm = residual.sobolev_norm(M0)
    status = "converged" if rnorm <= tol else "budget_exhausted"
    return done(status, f"stopped after {max_steps} steps")


def plain_newton_solve(problem, f, max_steps=30, tol=1e-10):
    """Plain Newton from the zero state."""
    return _newton_loop(problem, f, None, max_steps, tol)


def nash_moser_solve(problem, f, eps0=1.0, theta=1.25, max_steps=30, tol=1e-10):
    """Smoothed Newton from the zero state with eps_k = min(1, eps0 theta^{-k})."""
    if not theta > 1.0:
        raise ValueError("the smoothing schedule must open modes, theta > 1")
    # eps0 theta^{-k} underflows to 0 for large theta; at the smallest
    # positive float S_eps is the identity on every representable mode,
    # which is the limit the schedule tends to
    schedule = lambda k: max(min(1.0, eps0 * theta ** (-k)), math.ulp(0.0))
    return _newton_loop(problem, f, schedule, max_steps, tol)


# -- toy derivative-losing problem ----------------------------------------------------


@dataclass(eq=False)
class ToyProblem:
    """F(u) = u + d_t P_N(u^2) on modes |l| <= n_modes."""

    n_modes: int = 96

    def apply(self, u):
        u = u.truncate(self.n_modes)
        return u + derivative(multiply(u, u)).truncate(self.n_modes)

    def derivative_apply(self, u, v):
        u, v = u.truncate(self.n_modes), v.truncate(self.n_modes)
        return v + 2.0 * derivative(multiply(u, v)).truncate(self.n_modes)

    def jacobian(self, u):
        """Complex matrix of dF(u): I + 2 diag(i l) Toep_N(u),
        the dense test oracle of solve_linearized.

        Row l of Toep_N(u) is u_{l-m}, m = -N..N: a window of u_{2N}, ...,
        u_{-2N}, read as a strided view so the only array built is the result.
        """
        n = self.n_modes
        u = u.truncate(n)
        windows = sliding_window_view(u.truncate(2 * n).coeffs[::-1], 2 * n + 1)
        jac = windows[::-1] * (2.0j * u.modes())[:, None]
        jac[np.diag_indices_from(jac)] += 1.0
        return jac

    def solve_linearized(self, u, g):
        """dF(u)^{-1} g by banded LU on the band b = max{|l| : u_l != 0}.

        Entry (l, m) of the Jacobian is 2 i l u_{l-m}, plus 1 on
        the diagonal, so column m of LAPACK's general band storage,
        ab[2b + d, m] = J[m + d, m] for |d| <= b, is a window of the modes
        zero-padded by b times u_{-b}, ..., u_b: one strided view writes it.
        The top b rows are zgbsv's room for the fill-in of row interchanges.
        An exactly singular pivot raises LinAlgError.
        """
        n = self.n_modes
        u, g = u.truncate(n), g.truncate(n)
        live = np.flatnonzero(u.coeffs)
        b = int(np.abs(live - n).max()) if live.size else 0
        windows = sliding_window_view(np.pad(u.modes(), b), 2 * b + 1)
        ab = np.zeros((3 * b + 1, 2 * n + 1), dtype=complex, order="F")
        scale = 2.0j * u.coeffs[n - b : n + b + 1]
        np.multiply(windows.T, scale[:, None], out=ab[b:])
        ab[2 * b] += 1.0
        _, _, sol, info = zgbsv(b, b, ab, g.coeffs.copy(), overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular linearization: zero pivot at mode {info - 1 - n}"
            )
        return FourierSeries1D(sol)


def smooth_f_preset(n_modes=96, amplitude=0.02):
    """Analytic right-hand side: coefficients decay like e^{-0.6|l|}."""
    modes = {}
    for l in range(1, n_modes + 1):
        c = amplitude * math.exp(-0.6 * l) * np.exp(0.7j * l)
        modes[l] = c
        modes[-l] = np.conj(c)
    return FourierSeries1D.from_modes(modes, n_modes)


ROUGH_PRESET_SEED = 20260815
ROUGH_PRESET_AMPLITUDE = 0.06
ROUGH_PRESET_DECAY = 1.1


def rough_f_preset(n_modes=96, amplitude=ROUGH_PRESET_AMPLITUDE):
    """Slowly decaying right-hand side with frozen random phases.

    The amplitude sits where the plain iteration amplifies its own high-mode
    error past the divergence certificate while the smoothed schedule still
    converges; both behaviors are locked by the seed.
    """
    rng = np.random.default_rng(ROUGH_PRESET_SEED)
    phases = rng.uniform(0.0, TWO_PI, size=n_modes)
    modes = {}
    for l in range(1, n_modes + 1):
        c = amplitude * l ** (-ROUGH_PRESET_DECAY) * np.exp(1j * phases[l - 1])
        modes[l] = c
        modes[-l] = np.conj(c)
    return FourierSeries1D.from_modes(modes, n_modes)


# -- tame diagnostics ----------------------------------------------------------------


def tame_estimate_sweep(n_values):
    """Measure sup ||dF(u)^{-1} g||_m / (||g||_{m+1} + ||u||_{m+2} ||g||_{M0})
    for ToyProblem(n_modes=n) at levels m = 1, 2, 3.

    The supremum is over six random pairs per band and level, with states u
    of scale 0.05. The estimate is tame when the measured constants stay
    bounded as the working band grows; the sweep reports them as ratios,
    ratios[m][n] per level m and band n.
    """
    rng = np.random.default_rng(ROUGH_PRESET_SEED)
    m_values = (1, 2, 3)
    ratios = {m: {} for m in m_values}
    for n in n_values:
        problem = ToyProblem(n_modes=n)
        for m in m_values:
            worst = 0.0
            for _ in range(6):
                u = _random_decaying_series(rng, n, 0.05, decay=2.0)
                g = _random_decaying_series(rng, n, 1.0, decay=1.2)
                sol = problem.solve_linearized(u, g)
                denom = g.sobolev_norm(m + 1) + u.sobolev_norm(m + 2) * g.sobolev_norm(M0)
                worst = max(worst, sol.sobolev_norm(m) / denom)
            ratios[m][n] = worst
    return SimpleNamespace(ratios=ratios)


def _random_decaying_series(rng, n_modes, scale, decay):
    modes = {}
    for l in range(1, n_modes + 1):
        c = scale * l ** (-decay) * np.exp(2j * math.pi * rng.uniform())
        modes[l] = c
        modes[-l] = np.conj(c)
    modes[0] = scale * rng.standard_normal()
    return FourierSeries1D.from_modes(modes, n_modes)


# -- eigenvalue continuation ----------------------------------------------------------


def eigenvalue_continuation(data_family, rhs, n_modes, s_lo, s_hi, tol=1e-8):
    """Locate the parameter where the bordering multiplier crosses zero.

    data_family maps a scalar parameter to leading data; for each parameter
    the bordered system is solved against the fixed right-hand side and the
    multiplier recorded.  A bracket without a sign change means the crossing
    is absent or degenerate on this interval, which is an error, not a root.
    The root is refined by Brent's method to within tol in s.

    Returns s_star, the bracket (s_lo, s_hi), the number of multiplier
    evaluations and their history as (s, lambda) pairs.
    """
    if not s_hi > s_lo:
        raise ValueError("empty bracket")
    history = {}

    def lam(s):
        s = float(s)
        if s not in history:
            system = ExtendedSystem.from_data(data_family(s), n_modes)
            history[s] = float(system.solve(rhs)[1])
        return history[s]

    fa, fb = lam(s_lo), lam(s_hi)
    if fa * fb > 0.0:
        raise ValueError(
            "multiplier does not change sign across the bracket: "
            f"lambda({s_lo}) = {fa:.3e}, lambda({s_hi}) = {fb:.3e}"
        )
    s_star = brentq(lam, s_lo, s_hi, xtol=tol)
    return SimpleNamespace(
        s_star=s_star, bracket=(s_lo, s_hi), evaluations=len(history),
        history=list(history.items()),
    )
