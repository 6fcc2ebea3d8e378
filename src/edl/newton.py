"""Plain and smoothed Newton iterations on truncated series spaces.

The smoothed scheme replaces each update by

    x_{k+1} = x_k + dF(S_{eps_k} x_k)^{-1} S_{eps_k} (f - F(x_k)),

with S_eps the mode-cutoff mollifier and eps_k = min(1, eps0 theta^{-k}):
high modes enter the linearization only once the schedule opens them, which
is what lets derivative-losing nonlinearities converge on rough data where
the plain iteration amplifies its own high-mode error.

Both solvers share one loop and report a typed trace: converged, diverged
(residual above 1e3 x initial for five consecutive steps), budget_exhausted,
or solver_failed.  The toy problem F(u) = u + strength * d_t P_N(u^2) loses
one derivative per application.  Its Jacobian v -> v + 2 strength d_t P_N(u v)
is complex-linear, I + 2 strength diag(i omega) Toep_N(u), and lies within
b = max{|l| : u_l != 0} of the diagonal.  S_eps cuts every mode above 2/eps,
so the first smoothed steps are narrow bands, and each step solves its
system of side 2N+1 by one banded LU with partial pivoting (zgbsv, Golub &
Van Loan 4.3) written straight from the coefficients of u.  The dense
Jacobian and probing by unit vectors are test oracles only.  The solvers
ask a problem for apply, solve_linearized, project, smooth, norm,
zero_state and the control level m0; ToyProblem is the one problem that
provides them.

Eigenvalue continuation locates the parameter where the multiplier of the
bordered deformation system crosses zero, by Brent's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not during a command
from numpy.lib.stride_tricks import sliding_window_view

from .series import (
    FourierSeries1D,
    SmoothingFamily,
    TWO_PI,
    derivative,
    multiply,
)
from .deform import ExtendedSystem
from .lapack import zgbsv


# -- iteration records ---------------------------------------------------------------


@dataclass
class NewtonStep:
    step: int
    eps: float
    residual_norm: float
    correction_norm: float


@dataclass
class IterationTrace:
    status: str
    steps: list
    final_residual: float
    message: str = ""

    @property
    def iterations(self):
        return len(self.steps)

    def correction_norms(self):
        return [s.correction_norm for s in self.steps]


DIVERGENCE_FACTOR = 1e3
DIVERGENCE_RUN = 5


def _newton_loop(problem, f, schedule, max_steps, tol):
    u = problem.zero_state(f.circumference)
    f = problem.project(f)
    steps = []
    initial = None
    bad_run = 0
    for k in range(max_steps):
        residual = f - problem.apply(u)
        rnorm = problem.norm(residual, problem.m0)
        if not math.isfinite(rnorm):
            return u, IterationTrace(
                "diverged", steps, rnorm, "residual norm left the representable range"
            )
        if initial is None:
            initial = max(rnorm, 1e-300)
        if rnorm <= tol:
            return u, IterationTrace(
                "converged", steps, rnorm, f"residual {rnorm:.3e} within tolerance"
            )
        if rnorm > DIVERGENCE_FACTOR * initial:
            bad_run += 1
            if bad_run >= DIVERGENCE_RUN:
                return u, IterationTrace(
                    "diverged",
                    steps,
                    rnorm,
                    f"residual above {DIVERGENCE_FACTOR:.0e} x initial for "
                    f"{DIVERGENCE_RUN} consecutive steps",
                )
        else:
            bad_run = 0
        eps = schedule(k) if schedule is not None else math.nan
        if schedule is None:
            base, rhs = u, residual
        else:
            base, rhs = problem.smooth(u, eps), problem.smooth(residual, eps)
        try:
            delta = problem.solve_linearized(base, rhs)
        except np.linalg.LinAlgError as exc:
            return u, IterationTrace("solver_failed", steps, rnorm, str(exc))
        steps.append(NewtonStep(k, eps, rnorm, problem.norm(delta, problem.m0)))
        u = u + delta
    residual = f - problem.apply(u)
    rnorm = problem.norm(residual, problem.m0)
    status = "converged" if rnorm <= tol else "budget_exhausted"
    return u, IterationTrace(status, steps, rnorm, f"stopped after {max_steps} steps")


def plain_newton_solve(problem, f, max_steps=30, tol=1e-10):
    """Plain Newton from the zero state."""
    return _newton_loop(problem, f, None, max_steps, tol)


def nash_moser_solve(problem, f, eps0=1.0, theta=1.25, max_steps=30, tol=1e-10):
    """Smoothed Newton from the zero state with eps_k = min(1, eps0 theta^{-k})."""
    if not theta > 1.0:
        raise ValueError("the smoothing schedule must open modes, theta > 1")
    schedule = lambda k: min(1.0, eps0 * theta ** (-k))
    return _newton_loop(problem, f, schedule, max_steps, tol)


# -- toy derivative-losing problem ----------------------------------------------------


SMOOTHING = SmoothingFamily()


@dataclass(eq=False)
class ToyProblem:
    """F(u) = u + strength * d_t P_N(u^2) on modes |l| <= n_modes.

    m0 is the control norm the iteration monitors.
    """

    n_modes: int = 96
    strength: float = 1.0
    m0 = 2

    def project(self, u):
        """Pad or truncate a series to the working band."""
        return u.truncate(self.n_modes)

    def smooth(self, u, eps):
        return SMOOTHING.apply(self.project(u), min(1.0, eps))

    def norm(self, u, m):
        return u.sobolev_norm(m)

    def zero_state(self, circumference=TWO_PI):
        return FourierSeries1D.zero(self.n_modes, circumference)

    def apply(self, u):
        u = self.project(u)
        return u + self.strength * derivative(multiply(u, u)).truncate(self.n_modes)

    def derivative_apply(self, u, v):
        u, v = self.project(u), self.project(v)
        return v + 2.0 * self.strength * derivative(multiply(u, v)).truncate(self.n_modes)

    def jacobian(self, u):
        """Complex matrix of dF(u): I + 2 strength diag(i omega) Toep_N(u),
        the dense test oracle of solve_linearized.

        Row l of Toep_N(u) is u_{l-m}, m = -N..N: a window of u_{2N}, ...,
        u_{-2N}, read as a strided view so the only array built is the result.
        """
        u = self.project(u)
        n = self.n_modes
        windows = sliding_window_view(u.truncate(2 * n).coeffs[::-1], 2 * n + 1)
        jac = windows[::-1] * (2.0j * self.strength * u.angular_frequencies())[:, None]
        jac[np.diag_indices_from(jac)] += 1.0
        return jac

    def solve_linearized(self, u, g):
        """dF(u)^{-1} g by banded LU on the band b = max{|l| : u_l != 0}.

        Entry (l, m) of the Jacobian is 2 strength i omega_l u_{l-m}, plus 1
        on the diagonal, so column m of LAPACK's general band storage,
        ab[2b + d, m] = J[m + d, m] for |d| <= b, is a window of omega
        zero-padded by b times u_{-b}, ..., u_b: one strided view writes it.
        The top b rows are zgbsv's room for the fill-in of row interchanges.
        An exactly singular pivot raises LinAlgError.
        """
        u, g = self.project(u), self.project(g)
        n = self.n_modes
        live = np.flatnonzero(u.coeffs)
        b = int(np.abs(live - n).max()) if live.size else 0
        windows = sliding_window_view(np.pad(u.angular_frequencies(), b), 2 * b + 1)
        ab = np.zeros((3 * b + 1, 2 * n + 1), dtype=complex, order="F")
        scale = 2.0j * self.strength * u.coeffs[n - b : n + b + 1]
        np.multiply(windows.T, scale[:, None], out=ab[b:])
        ab[2 * b] += 1.0
        _, _, sol, info = zgbsv(b, b, ab, g.coeffs.copy(), overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular linearization: zero pivot at mode {info - 1 - n}"
            )
        return FourierSeries1D(sol, g.circumference)


def smooth_f_preset(n_modes=96, amplitude=0.02):
    """Analytic right-hand side: coefficients decay like e^{-0.6|l|}."""
    modes = {}
    for l in range(1, n_modes + 1):
        c = amplitude * math.exp(-0.6 * l) * np.exp(0.7j * l)
        modes[l] = c
        modes[-l] = np.conj(c)
    return FourierSeries1D.from_modes(modes, TWO_PI, n_modes)


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
    return FourierSeries1D.from_modes(modes, TWO_PI, n_modes)


# -- tame diagnostics ----------------------------------------------------------------


@dataclass
class TameSweepReport:
    ratios: dict


def tame_estimate_sweep(n_values):
    """Measure sup ||dF(u)^{-1} g||_m / (||g||_{m+1} + ||u||_{m+2} ||g||_{m0})
    for ToyProblem(n_modes=n) at levels m = 1, 2, 3.

    The supremum is over six random pairs per band and level, with states u
    of scale 0.05. The estimate is tame when the measured constants stay
    bounded as the working band grows; the sweep reports them per level and
    band.
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
                denom = g.sobolev_norm(m + 1) + u.sobolev_norm(m + 2) * g.sobolev_norm(problem.m0)
                worst = max(worst, problem.norm(sol, m) / denom)
            ratios[m][n] = worst
    return TameSweepReport(ratios)


def _random_decaying_series(rng, n_modes, scale, decay):
    modes = {}
    for l in range(1, n_modes + 1):
        c = scale * l ** (-decay) * np.exp(2j * math.pi * rng.uniform())
        modes[l] = c
        modes[-l] = np.conj(c)
    modes[0] = scale * rng.standard_normal()
    return FourierSeries1D.from_modes(modes, TWO_PI, n_modes)


# -- eigenvalue continuation ----------------------------------------------------------


def _brentq(f, xa, xb, xtol=2e-12, rtol=4 * np.finfo(float).eps, maxiter=100):
    """A root of f in [xa, xb] by Brent's method.

    A step-for-step port of scipy's brentq.c, so it evaluates f at the same
    points and returns the same root; it spares the CLI importing
    scipy.optimize.  Errors are scipy's: ValueError for a bracket without a
    sign change or a NaN value, RuntimeError after maxiter steps.
    """

    def fx(x):
        value = f(x)
        if math.isnan(value):
            raise ValueError(f"The function value at x={x:f} is NaN; solver cannot converge.")
        return value

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


@dataclass
class ContinuationResult:
    s_star: float
    bracket: tuple
    evaluations: int
    history: list


def eigenvalue_continuation(data_family, rhs, n_modes, s_lo, s_hi, tol=1e-8):
    """Locate the parameter where the bordering multiplier crosses zero.

    data_family maps a scalar parameter to leading data; for each parameter
    the bordered system is solved against the fixed right-hand side and the
    multiplier recorded.  A bracket without a sign change means the crossing
    is absent or degenerate on this interval, which is an error, not a root.
    The root is refined by Brent's method to within tol in s.
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
    s_star = _brentq(lam, s_lo, s_hi, xtol=tol)
    return ContinuationResult(s_star, (s_lo, s_hi), len(history), list(history.items()))
