"""Projections onto the decaying kernel family, conormal-rate probes,
weighted Gram matrices of the family, and radial decay certificates.

Radial modes are solved at the log grid's nodes by one banded solve of
Numerov's fourth-order scheme, its Robin ends closed by Taylor steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy loads it lazily: load it here, not during a command

from .series import FourierSeries1D, TWO_PI, cutoff_c2
from .dirac import RadialGrid, SpinorField, obstruction_profiles, radial_bump
from .lapack import solve_banded


# -- projection ---------------------------------------------------------------


def family_field(coeffs, rgrid, nt):
    """sum_l a_l e^{ilt} Psi_l on the (t, r) grid, coeffs = {l: a_l}: per
    component one (nt, L) phase matrix, its columns scaled by sgn(l) for minus,
    times the (L, nr) profile array, at one theta sample.

    One sample is exact: the family has k = 0, so the field is constant in
    theta, and the theta mean that project_to_obstruction takes of a single
    sample is that sample."""
    l_arr = np.array(list(coeffs))
    t = np.arange(nt) * (TWO_PI / nt)
    phase = np.exp(1j * np.outer(t, l_arr)) * np.array(list(coeffs.values()))
    prof = obstruction_profiles(l_arr, rgrid)
    return SpinorField(rgrid, *((p @ prof)[:, :, None]
                                for p in (phase, phase * np.sign(l_arr))))


def project_to_obstruction(field, l_values):
    """Coefficients <field, Psi_l> for the decaying family at k = 0.

    FFT in t picks the stored l-mode, the theta mean picks k = 0, and the
    remaining radial integral is taken against the closed-form profile.
    """
    l_values = [int(l) for l in l_values]
    nt = field.shape[0]
    if any(abs(l) > (nt - 1) // 2 for l in l_values):
        raise ValueError("t grid too coarse for the requested modes")
    prof = obstruction_profiles(l_values, field.rgrid)
    # mean over theta, mode picks in t: fft/nt gives the e^{ilt} coefficient
    hat_plus = np.fft.fft(np.mean(field.plus, axis=2), axis=0) / nt
    hat_minus = np.fft.fft(np.mean(field.minus, axis=2), axis=0) / nt
    idx = np.array(l_values) % nt
    comb = hat_plus[idx] + np.sign(l_values)[:, None] * hat_minus[idx]
    w = field.rgrid.area_weights()
    return np.sum(comb * prof * w, axis=1) * field.circumference * TWO_PI


# -- conormal-rate probe ---------------------------------------------------------


@dataclass
class ConormalReport:
    l_values: np.ndarray
    coefficients: np.ndarray
    slope: float
    slope_residual: float
    prefactor_ratio: float
    flagged_modes: list
    super_polynomial: bool
    fit_valid: bool


def conormal_rate(p, f_series, l_values, rgrid=None, radial_profile=None):
    """Pairings of chi(r) f(t) r^p (plus component) against the decaying family.

    chi is the C^2 cutoff, 1 on r <= 1 and 0 on r >= 2; the default grid
    spans (0, 2].

    For p > -1 the exact radial integral against sqrt|l| e^{-|l|r} r^{-1/2} is
    Gamma(p + 3/2) |l|^{-(p+1)} up to cutoff corrections that vanish rapidly
    in |l|, so log|coefficient| against log|l| fits a line of slope -(p+1).

    A custom radial_profile(r) replaces chi(r) r^p; profiles vanishing near
    the axis produce super-polynomial decay, which is detected and reported
    instead of a (meaningless) polynomial fit.
    """
    l_values = np.asarray(sorted(int(l) for l in l_values))
    if np.any(l_values <= 0):
        raise ValueError("probe modes must be positive")
    if rgrid is None:
        rgrid = RadialGrid.geometric(2.0, 2500, r_min_factor=1e-7)
    if radial_profile is None:
        radial = cutoff_c2(rgrid.r) * rgrid.r**p
    else:
        radial = np.asarray(radial_profile(rgrid.r))
    prof = obstruction_profiles(l_values, rgrid)
    w = rgrid.area_weights()
    radial_ints = prof @ (radial * w)

    f_hat = np.array([f_series.coeff(l) for l in l_values])
    coefs = f_series.circumference * TWO_PI * f_hat * radial_ints

    flagged = [int(l) for l, fh in zip(l_values, f_hat) if abs(fh) < 1e-13]
    usable = np.array([abs(fh) >= 1e-13 for fh in f_hat])
    logl = np.log(l_values[usable].astype(float))
    # normalize out the t-data so the fit sees only the radial rate
    logc = np.log(np.abs(radial_ints[usable]))
    slope, intercept = np.polyfit(logl, logc, 1)
    resid = float(np.sqrt(np.mean((logc - (slope * logl + intercept)) ** 2)))

    half = len(logl) // 2
    slope_lo = np.polyfit(logl[:half], logc[:half], 1)[0] if half >= 2 else slope
    slope_hi = np.polyfit(logl[half:], logc[half:], 1)[0] if half >= 2 else slope
    super_poly = bool(slope_hi < slope_lo - 1.0)

    gamma = math.gamma(p + 1.5)
    ratios = np.abs(radial_ints[usable]) * l_values[usable].astype(float) ** (p + 1.0)
    prefactor = float(np.mean(ratios)) / gamma

    return ConormalReport(
        l_values=l_values,
        coefficients=coefs,
        slope=float(slope),
        slope_residual=resid,
        prefactor_ratio=prefactor,
        flagged_modes=flagged,
        super_polynomial=super_poly,
        fit_valid=bool(not super_poly and len(logl) >= 3),
    )


# -- weighted Gram matrices -------------------------------------------------------


@dataclass(frozen=True)
class WeightProfile:
    """Volume weight w(t, r) = 1 + sum_m g_m e^{i m t 2pi/L} * min(r, 1).

    The radial factor vanishes linearly at the axis: the perturbation is a
    density fluctuation of the ambient volume and must not see the axis
    itself, otherwise off-diagonal pairings stop decaying in the mode index.
    """

    g: FourierSeries1D

    def __post_init__(self):
        if abs(self.g.coeff(0)) > 1e-13:
            raise ValueError("the fluctuation series must have zero mean")

    @staticmethod
    def cosine(amplitude=0.1):
        g = FourierSeries1D.from_modes({1: 0.5 * amplitude, -1: 0.5 * amplitude})
        return WeightProfile(g=g)


def gram_matrix(l_values, weight):
    """Pairwise weighted pairings A_{jk} = <Psi_j, Psi_k>_w / (2 pi L) of the family.

    Exact on the plane: the t integral picks the weight's mode g_{j-k}, the
    theta integral is 2 pi (the family sits at k = 0), and with s = |j| + |k|
    the radial overlaps are int psi_j psi_k r dr = sqrt|jk| / s, which is 1/2
    on the diagonal, and int min(r, 1) psi_j psi_k r dr = sqrt|jk| (1 - e^{-s})
    / s^2. Opposite-sign pairs vanish identically through the
    (1 + sgn sgn) spinor factor; same-sign pairs carry that factor 2, so
    A = I + K with K_jk = 2 g_{j-k} sqrt|jk| (1 - e^{-s}) / s^2; the diagonal
    is exactly 1, since g has zero mean.
    """
    l_values = [int(l) for l in l_values]
    if any(l == 0 for l in l_values):
        raise ValueError("mode 0 is excluded on the plane")
    lmax = max(abs(l) for l in l_values)
    l_arr = np.asarray(l_values)
    size = np.abs(l_arr).astype(float)
    s = size[:, None] + size[None, :]
    ramped = np.sqrt(size[:, None] * size[None, :]) * -np.expm1(-s) / s**2
    g = weight.g.truncate(2 * lmax).coeffs[l_arr[:, None] - l_arr[None, :] + 2 * lmax]
    out = (l_arr[:, None] == l_arr[None, :]) + 2.0 * g * ramped
    out[np.sign(l_arr)[:, None] != np.sign(l_arr)[None, :]] = 0.0
    return out


@dataclass
class GramTailReport:
    cutoffs: np.ndarray
    tail_norms: np.ndarray
    envelope_ok: bool
    monotone: bool
    smoothing_norm: float


GRAM_DECAY_POWER = 0.125  # the graded-norm gain 0 -> 1/8 the envelope rests on


def gram_tail_trend(k_block, l_values, cutoffs=None):
    """Tail behavior of K = A - Id over increasing low-mode cutoffs; k_block
    is the K of the caller's gram_matrix, its rows and columns in the order
    of the positive modes l_values.

    tail_norms[i] is the spectral norm of K restricted to modes >= cutoff.
    The envelope C * (cutoff/base)^{-GRAM_DECAY_POWER} is calibrated at the first
    cutoff; the report records whether every later tail sits below it and
    whether the sequence is monotone. smoothing_norm is the graded 0 -> 1/8
    norm of the full K block, the constant the envelope prediction rests on.
    """
    l_values = np.asarray(l_values)
    if np.any(l_values <= 0):
        raise ValueError("tail trend is taken over the positive-mode block")
    if cutoffs is None:
        lo, hi = int(l_values.min()), int(l_values.max())
        # the rounded geometric steps are sorted: drop repeats without
        # np.unique, whose import of numpy.ma no command needs
        steps = np.geomspace(lo, max(hi // 2, lo + 1), 6).astype(int).tolist()
        cutoffs = np.array(sorted(set(steps)))
    norms = []
    for c in cutoffs:
        keep = l_values >= c
        sub = k_block[np.ix_(keep, keep)]
        norms.append(float(np.linalg.norm(sub, 2)) if sub.size else 0.0)
    norms = np.array(norms)
    envelope = norms[0] * (np.asarray(cutoffs, float) / float(cutoffs[0])) ** (-GRAM_DECAY_POWER)
    wgt = (1.0 + l_values.astype(float) ** 2) ** (GRAM_DECAY_POWER / 2.0)
    return GramTailReport(
        cutoffs=np.asarray(cutoffs),
        tail_norms=norms,
        envelope_ok=bool(np.all(norms <= envelope * (1.0 + 1e-12))),
        monotone=bool(np.all(np.diff(norms) <= 1e-12)),
        smoothing_norm=float(np.linalg.norm(wgt[:, None] * k_block, 2)),
    )


# -- radial second-order solves and annulus decay -----------------------------------


def solve_mode_bvp(nu, l, rgrid, forcing, boundary="natural"):
    """Solve -u'' - u'/r + (nu^2/r^2 + l^2) u = f; returns u at the grid's nodes.

    In s = log r this is -u_ss + q u = g with q = nu^2 + l^2 r^2, g = r^2 f, on
    nodes uniform in s with step h. With k = h^2/12, Numerov's fourth-order
    row (k q_{n-1} - 1) u_{n-1} + (2 + 10 k q_n) u_n + (k q_{n+1} - 1) u_{n+1}
    = k (g_{n-1} + 10 g_n + g_{n+1}) makes the system tridiagonal: one banded
    solve, no iteration. boundary = "natural" imposes the regular branch
    u_s = |nu| u at the inner edge and the decaying branch
    u_s = -(|l| R + 1/2) u at the outer edge, each closed by a Taylor step to
    the next node through h^4 with derivatives from the ODE, so the scheme
    stays fourth order; a (value_inner, value_outer) pair imposes Dirichlet
    rows instead. forcing is a callable of r.
    """
    r, h = rgrid.r, rgrid.ds
    nu_a, l_a = abs(float(nu)), abs(float(l))
    q = nu_a**2 + (l_a * r) ** 2
    g = r**2 * np.asarray(forcing(r), dtype=float)
    k = h * h / 12.0
    ab = np.zeros((3, r.size))  # solve_banded layout: upper, main, lower diagonal
    ab[0, 2:] = k * q[2:] - 1.0
    ab[1, 1:-1] = 2.0 + 10.0 * k * q[1:-1]
    ab[2, :-2] = k * q[:-2] - 1.0
    rhs = np.pad(k * (g[:-2] + 10.0 * g[1:-1] + g[2:]), 1)
    if boundary == "natural":
        ab[0, 1] = ab[2, -2] = 1.0
        ab[1, 0], rhs[0] = _taylor_step(nu_a, q[0], q[0] - nu_a**2, g[:4], h)
        ab[1, -1], rhs[-1] = _taylor_step(
            -(l_a * r[-1] + 0.5), q[-1], q[-1] - nu_a**2, g[:-5:-1], -h)
    else:
        ab[1, 0] = ab[1, -1] = 1.0
        rhs[0], rhs[-1] = boundary
    u = solve_banded((1, 1), ab, rhs, check_finite=False)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("radial solve failed: non-finite solution")
    return u


def _taylor_step(alpha, q, l2r2, g, h):
    """(-c, -d) for the end row u(s + h) - c u(s) = -d given u_s = alpha u, from
    u_ss = q u - g with exact q_s = q_ss / 2 = 2 l^2 r^2 and one-sided
    differences of g = (g(s), .., g(s + 3h))."""
    dq, ddq = 2.0 * l2r2, 4.0 * l2r2
    dg = (-11.0 * g[0] + 18.0 * g[1] - 9.0 * g[2] + 2.0 * g[3]) / (6.0 * h)
    ddg = (2.0 * g[0] - 5.0 * g[1] + 4.0 * g[2] - g[3]) / h**2
    c = 1.0 + h * alpha + h**2 * q / 2.0 + h**3 * (dq + q * alpha) / 6.0 \
        + h**4 * (ddq + 2.0 * dq * alpha + q * q) / 24.0
    d = h**2 * g[0] / 2.0 + h**3 * dg / 6.0 + h**4 * (ddg + q * g[0]) / 24.0
    return -c, -d


@dataclass(frozen=True)
class AnnuliPartition:
    """Consecutive annuli [r_start + n w, r_start + (n+1) w), n = 0..count-1."""

    r_start: float
    width: float
    count: int

    def __post_init__(self):
        if self.r_start <= 0 or self.width <= 0 or self.count < 2:
            raise ValueError("need positive start, positive width, >= 2 annuli")

    def edges(self):
        return self.r_start + self.width * np.arange(self.count + 1)

    def masks(self, r):
        e = self.edges()
        return [(r >= e[n]) & (r < e[n + 1]) for n in range(self.count)]


def annulus_energy_norms(u, nu, l, rgrid, partition):
    """Per-annulus energy norm (int |u'|^2 + (nu^2/r^2 + l^2)|u|^2 r dr)^{1/2}."""
    du = rgrid.derivative(np.asarray(u, dtype=complex))
    dens = np.abs(du) ** 2 + (nu**2 / rgrid.r**2 + float(l) ** 2) * np.abs(u) ** 2
    w = rgrid.area_weights()
    out = []
    for mask in partition.masks(rgrid.r):
        out.append(float(np.sqrt(np.sum((dens * w)[mask]))))
    return np.array(out)


@dataclass
class AnnuliDecayReport:
    l: float
    rate_per_annulus: float
    n_used: int


def annuli_decay(nu, l, r_scale=1.0):
    """Exponential decay rate of a forced mode solution across scaled annuli.

    The forcing is a bump at radius r_scale/|l|; eight annuli of width
    2 r_scale/|l| follow it, so a solution decaying like e^{-|l| r} loses a
    factor e^{-2 r_scale} per annulus regardless of |l|.
    """
    l_a = abs(float(l))
    if l_a == 0:
        raise ValueError("decay study needs l != 0")
    center = r_scale / l_a
    width = 0.5 * r_scale / l_a
    rgrid = RadialGrid.geometric(20.0 * r_scale / l_a, 1500, r_min_factor=1e-4)

    def forcing(r):
        return radial_bump(r, center, width)[0]

    u = solve_mode_bvp(nu, l, rgrid, forcing)
    part = AnnuliPartition(
        r_start=center + 2.0 * width, width=2.0 * r_scale / l_a, count=8
    )
    norms = annulus_energy_norms(u, nu, l, rgrid, part)
    usable = norms > 1e-14 * norms[0]
    idx = np.arange(len(norms))[usable]
    rate = -float(np.polyfit(idx, np.log(norms[usable]), 1)[0])
    return AnnuliDecayReport(l=l, rate_per_annulus=rate, n_used=int(usable.sum()))


# -- discrete maximum principle ------------------------------------------------------


@dataclass
class MaxPrincipleResult:
    certified: bool
    hypothesis_violation: tuple = None  # (kind, index)
    conclusion_violation: int = None


def discrete_max_principle(sequence, barrier, lam, verify_hypotheses=True):
    """Certify sequence <= barrier from the three-term comparison inequality.

    With r = sequence - barrier the hypotheses are r_n <= lam (r_{n-1} + r_{n+1})
    at interior n, r <= 0 at both ends, and 2 lam < 1; they force r <= 0
    everywhere (an interior positive maximum would satisfy
    r_max <= 2 lam r_max < r_max). The check reports the first violated
    hypothesis, or the first violated conclusion index when hypothesis
    checking is disabled and the conclusion happens to fail.
    """
    if not (0.0 <= lam and 2.0 * lam < 1.0):
        raise ValueError("the comparison weight must satisfy 0 <= 2 lam < 1")
    r = np.asarray(sequence, dtype=float) - np.asarray(barrier, dtype=float)
    if r.ndim != 1 or r.size < 3:
        raise ValueError("need at least three entries")
    if verify_hypotheses:
        if r[0] > 0.0:
            return MaxPrincipleResult(False, hypothesis_violation=("endpoint", 0))
        if r[-1] > 0.0:
            return MaxPrincipleResult(False, hypothesis_violation=("endpoint", r.size - 1))
        interior = r[1:-1] - lam * (r[:-2] + r[2:])
        bad = np.nonzero(interior > 0.0)[0]
        if bad.size:
            return MaxPrincipleResult(
                False, hypothesis_violation=("interior", int(bad[0]) + 1)
            )
    above = np.nonzero(r > 0.0)[0]
    if above.size:
        return MaxPrincipleResult(False, conclusion_violation=int(above[0]))
    return MaxPrincipleResult(True)


def sample_max_principle_instance(rng, size=40, lam=0.4):
    """Rejection-sample a sequence/barrier pair satisfying the hypotheses.

    Proposals are r = -a (1 + eps) with |eps| < 0.15; for 2 lam < 1 most such
    near-flat negative gaps satisfy the three-term inequality, and the ones
    that do not are rejected against the checker's own hypothesis test.
    """
    for _ in range(10000):
        barrier = rng.uniform(0.0, 2.0, size=size)
        amp = rng.uniform(0.1, 3.0)
        r = -amp * (1.0 + rng.uniform(-0.15, 0.15, size=size))
        ok = np.all(r[1:-1] <= lam * (r[:-2] + r[2:]))
        if ok:
            return barrier + r, barrier
    raise RuntimeError("sampler failed to find an admissible instance")
