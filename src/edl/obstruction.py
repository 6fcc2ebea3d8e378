"""Projections onto the decaying kernel family, conormal-rate probes,
weighted Gram matrices of the family, and radial decay certificates.

Radial modes are solved at the log grid's nodes by one banded solve of
Numerov's fourth-order scheme, its Robin ends closed by Taylor steps.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .series import TORUS_AREA, TWO_PI, cutoff_c2, fit_line
from .dirac import RadialGrid, SpinorField, obstruction_profiles, radial_bump
from .bandeig import band_norm
from .lapack import dgtsv
from .util import uniform


# -- projection ---------------------------------------------------------------


def family_field(coeffs, rgrid, nt):
    """sum_l a_l e^{ilt} Psi_l on the (t, r) grid, coeffs = {l: a_l}: the real
    and imaginary parts of one (nt, L) phase matrix times the (L, nr) profile
    array, its rows scaled by sgn(l) for minus, at one theta sample.

    One sample is exact: the family has k = 0, so the field is constant in
    theta, and the theta mean that project_to_obstruction takes of a single
    sample is that sample."""
    l_arr = np.array(list(coeffs))
    t = np.arange(nt) * (TWO_PI / nt)
    phase = np.exp(1j * np.outer(t, l_arr)) * np.array(list(coeffs.values()))
    # real products: a complex phase @ prof would upcast prof for each one
    phase = np.concatenate([phase.real, phase.imag])
    prof = obstruction_profiles(l_arr, rgrid)
    plus, minus = (np.empty((nt, rgrid.n_points, 1), dtype=complex) for _ in range(2))
    for out, rows in ((plus, prof), (minus, np.sign(l_arr)[:, None] * prof)):
        out.real[:, :, 0] = phase[:nt] @ rows
        out.imag[:, :, 0] = phase[nt:] @ rows
    return SpinorField(rgrid, plus, minus)


def project_to_obstruction(field, l_values):
    """Coefficients <field, Psi_l> for the decaying family at k = 0.

    The theta mean picks k = 0; real matrix products pair its real and
    imaginary parts with each profile times the area weights, into one
    (nt, L) array, and each mode's own DFT row, e^{-ilt} / nt, sums over t.
    """
    l_arr = np.array([int(l) for l in l_values])
    nt = field.shape[0]
    if np.any(np.abs(l_arr) > (nt - 1) // 2):
        raise ValueError("t grid too coarse for the requested modes")
    weighted = (obstruction_profiles(l_arr, field.rgrid) * field.rgrid.area_weights()).T
    paired = np.empty((nt, l_arr.size), dtype=complex)
    for out, plus, minus in ((paired.real, field.plus.real, field.minus.real),
                             (paired.imag, field.plus.imag, field.minus.imag)):
        out[...] = np.mean(minus, axis=2) @ weighted
        out *= np.sign(l_arr)
        out += np.mean(plus, axis=2) @ weighted
    # l t mod nt is exact, so each row takes the DFT's own roots of unity
    dft = np.exp(-1j * (TWO_PI / nt) * np.arange(nt))[np.multiply.outer(l_arr, np.arange(nt)) % nt]
    # the torus area one factor at a time: TORUS_AREA would round differently
    return np.einsum("lt,tl->l", dft, paired) / nt * TWO_PI * TWO_PI


# -- conormal-rate probe ---------------------------------------------------------


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

    Returns the sorted l_values, their coefficients, the fitted slope and its
    slope_residual, prefactor_ratio (the mean of |coefficient| |l|^{p+1}
    against Gamma(p + 3/2)), flagged_modes (probe modes absent from f),
    super_polynomial, and fit_valid.
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
    coefs = TORUS_AREA * f_hat * radial_ints

    flagged = [int(l) for l, fh in zip(l_values, f_hat) if abs(fh) < 1e-13]
    usable = np.array([abs(fh) >= 1e-13 for fh in f_hat])
    logl = np.log(l_values[usable].astype(float))
    # normalize out the t-data so the fit sees only the radial rate
    logc = np.log(np.abs(radial_ints[usable]))
    slope, intercept = fit_line(logl, logc)
    resid = float(np.sqrt(np.mean((logc - (slope * logl + intercept)) ** 2)))

    half = len(logl) // 2
    slope_lo = fit_line(logl[:half], logc[:half])[0] if half >= 2 else slope
    slope_hi = fit_line(logl[half:], logc[half:])[0] if half >= 2 else slope
    super_poly = bool(slope_hi < slope_lo - 1.0)

    gamma = math.gamma(p + 1.5)
    ratios = np.abs(radial_ints[usable]) * l_values[usable].astype(float) ** (p + 1.0)
    prefactor = float(np.mean(ratios)) / gamma

    return SimpleNamespace(
        l_values=l_values, coefficients=coefs, slope=float(slope), slope_residual=resid,
        prefactor_ratio=prefactor, flagged_modes=flagged, super_polynomial=super_poly,
        fit_valid=bool(not super_poly and len(logl) >= 3),
    )


# -- weighted Gram matrices -------------------------------------------------------


def gram_matrix(l_values, g):
    """Pairwise weighted pairings A_{jk} = <Psi_j, Psi_k>_w / (4 pi^2) of the
    family, for the volume weight w(t, r) = 1 + sum_m g_m e^{i m t} min(r, 1)
    of the fluctuation series g.

    g must have zero mean: it is a density fluctuation of the ambient volume.
    The radial factor vanishes linearly at the axis, so the perturbation does
    not see the axis itself; otherwise off-diagonal pairings would stop
    decaying in the mode index.

    Exact on the plane: the t integral picks the weight's mode g_{j-k}, the
    theta integral is 2 pi (the family sits at k = 0), and with s = |j| + |k|
    the radial overlaps are int psi_j psi_k r dr = sqrt|jk| / s, which is 1/2
    on the diagonal, and int min(r, 1) psi_j psi_k r dr = sqrt|jk| (1 - e^{-s})
    / s^2. Opposite-sign pairs vanish identically through the
    (1 + sgn sgn) spinor factor; same-sign pairs carry that factor 2, so
    A = I + K with K_jk = 2 g_{j-k} sqrt|jk| (1 - e^{-s}) / s^2; the diagonal
    is exactly 1, since g has zero mean.
    """
    if abs(g.coeff(0)) > 1e-13:
        raise ValueError("the fluctuation series must have zero mean")
    l_values = [int(l) for l in l_values]
    if any(l == 0 for l in l_values):
        raise ValueError("mode 0 is excluded on the plane")
    lmax = max(abs(l) for l in l_values)
    l_arr = np.asarray(l_values)
    size = np.abs(l_arr).astype(float)
    s = size[:, None] + size[None, :]
    ramped = np.sqrt(size[:, None] * size[None, :]) * -np.expm1(-s) / s**2
    g = g.truncate(2 * lmax).coeffs[l_arr[:, None] - l_arr[None, :] + 2 * lmax]
    out = (l_arr[:, None] == l_arr[None, :]) + 2.0 * g * ramped
    out[np.sign(l_arr)[:, None] != np.sign(l_arr)[None, :]] = 0.0
    return out


GRAM_DECAY_POWER = 0.125  # the graded-norm gain 0 -> 1/8 the envelope rests on


def gram_tail_trend(k_block, l_values):
    """Tail behavior of K = A - Id over increasing low-mode cutoffs; k_block
    is the K of the caller's gram_matrix, its rows and columns in the order
    of the increasing positive modes l_values.

    Returns cutoffs, tail_norms, envelope_ok, monotone and smoothing_norm.
    tail_norms[i] is the spectral norm of K restricted to modes >= cutoffs[i].
    The envelope C * (cutoff/base)^{-GRAM_DECAY_POWER} is calibrated at the first
    cutoff; the report records whether every later tail sits below it and
    whether the sequence is monotone. smoothing_norm is the graded 0 -> 1/8
    norm of the full K block, ||W K|| with W = diag((1 + l^2)^{1/16}), the
    constant the envelope prediction rests on. Every norm is taken on a band.
    """
    l_values = np.asarray(l_values)
    if np.any(l_values <= 0) or np.any(np.diff(l_values) <= 0):
        raise ValueError("tail trend is taken over increasing positive modes")
    lo, hi = int(l_values.min()), int(l_values.max())
    # the rounded geometric steps are sorted: drop repeats without
    # np.unique, whose import of numpy.ma no command needs
    steps = np.geomspace(lo, max(hi // 2, lo + 1), 6).astype(int).tolist()
    cutoffs = np.array(sorted(set(steps)))
    # K_jk carries g_{j-k}: in increasing modes, a band as wide as the weight's
    n, kd = len(l_values), int(np.max(np.subtract(*np.nonzero(k_block)), initial=0))
    # lower band storage: band[s, q] = K[q + s, q]
    band = np.array([np.pad(np.diagonal(k_block, -s), (0, s)) for s in range(kd + 1)])
    norms = np.array([band_norm(band[:, i:]) if i < n else 0.0
                      for i in np.searchsorted(l_values, cutoffs)])
    envelope = norms[0] * (cutoffs.astype(float) / float(cutoffs[0])) ** (-GRAM_DECAY_POWER)
    wgt = (1.0 + l_values.astype(float) ** 2) ** (GRAM_DECAY_POWER / 2.0)
    # ||W K||^2 is the top eigenvalue of K W^2 K, whose band is twice K's;
    # its entry (q + s, q) pairs rows q + s and q of the symmetric K
    product = np.array([np.pad(np.einsum("ij,j,ij->i", k_block[s:], wgt**2, k_block[:n - s]),
                               (0, s)) for s in range(min(2 * kd + 1, n))])
    return SimpleNamespace(
        cutoffs=cutoffs,
        tail_norms=norms,
        envelope_ok=bool(np.all(norms <= envelope * (1.0 + 1e-12))),
        monotone=bool(np.all(np.diff(norms) <= 1e-12)),
        smoothing_norm=float(np.sqrt(band_norm(product))),
    )


# -- radial second-order solves and annulus decay -----------------------------------


NU = 0.5  # the order of the stored k = 0 mode's radial equation, the mode decay studies


def solve_mode_bvp(nu, l, rgrid, forcing):
    """Solve -u'' - u'/r + (nu^2/r^2 + l^2) u = f; returns u at the grid's nodes.

    In s = log r this is -u_ss + q u = g with q = nu^2 + l^2 r^2, g = r^2 f, on
    nodes uniform in s with step h. With k = h^2/12, Numerov's fourth-order
    row (k q_{n-1} - 1) u_{n-1} + (2 + 10 k q_n) u_n + (k q_{n+1} - 1) u_{n+1}
    = k (g_{n-1} + 10 g_n + g_{n+1}) makes the system tridiagonal: one banded
    solve, no iteration. The end rows impose the regular branch u_s = |nu| u
    at the inner edge and the decaying branch u_s = -(|l| R + 1/2) u at the
    outer edge, each closed by a Taylor step to the next node through h^4
    with derivatives from the ODE, so the scheme stays fourth order. forcing
    is a callable of r.
    """
    r, h = rgrid.r, rgrid.ds
    nu_a, l_a = abs(float(nu)), abs(float(l))
    q = nu_a**2 + (l_a * r) ** 2
    g = r**2 * np.asarray(forcing(r), dtype=float)
    k = h * h / 12.0
    # sub-, main and superdiagonal; the end rows' entries are set below
    lower, diag, upper = k * q[:-1] - 1.0, 2.0 + 10.0 * k * q, k * q[1:] - 1.0
    rhs = np.pad(k * (g[:-2] + 10.0 * g[1:-1] + g[2:]), 1)
    upper[0] = lower[-1] = 1.0
    diag[0], rhs[0] = _taylor_step(nu_a, q[0], q[0] - nu_a**2, g[:4], h)
    diag[-1], rhs[-1] = _taylor_step(
        -(l_a * r[-1] + 0.5), q[-1], q[-1] - nu_a**2, g[:-5:-1], -h)
    u, info = dgtsv(lower, diag, upper, rhs)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
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


def annulus_energy_norms(u, l, rgrid, edges):
    """Energy norm (int |u'|^2 + (NU^2/r^2 + l^2)|u|^2 r dr)^{1/2} on each
    annulus [edges[n], edges[n + 1])."""
    du = rgrid.derivative(np.asarray(u, dtype=complex))
    dens = np.abs(du) ** 2 + (NU**2 / rgrid.r**2 + float(l) ** 2) * np.abs(u) ** 2
    w = rgrid.area_weights()
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (rgrid.r >= lo) & (rgrid.r < hi)
        out.append(float(np.sqrt(np.sum((dens * w)[mask]))))
    return np.array(out)


def annuli_decay(l, r_scale=1.0):
    """Exponential decay rate of a forced mode solution of order NU across
    scaled annuli.

    The forcing is a bump at radius r_scale/|l|; eight annuli of width
    2 r_scale/|l| follow it, so a solution decaying like e^{-|l| r} loses a
    factor e^{-2 r_scale} per annulus regardless of |l|.

    Returns l, rate_per_annulus and n_used, the annuli whose norm clears
    1e-14 times the first one's and enter the fit.
    """
    l_a = abs(float(l))
    if l_a == 0:
        raise ValueError("decay study needs l != 0")
    center = r_scale / l_a
    width = 0.5 * r_scale / l_a
    rgrid = RadialGrid.geometric(20.0 * r_scale / l_a, 1500, r_min_factor=1e-4)

    def forcing(r):
        return radial_bump(r, center, width)[0]

    u = solve_mode_bvp(NU, l, rgrid, forcing)
    edges = center + 2.0 * width + 2.0 * r_scale / l_a * np.arange(9)
    norms = annulus_energy_norms(u, l, rgrid, edges)
    usable = norms > 1e-14 * norms[0]
    idx = np.arange(len(norms))[usable]
    rate = -fit_line(idx, np.log(norms[usable]))[0]
    return SimpleNamespace(l=l, rate_per_annulus=rate, n_used=int(usable.sum()))


# -- discrete maximum principle ------------------------------------------------------


def discrete_max_principle(sequence, barrier, lam, verify_hypotheses=True):
    """Certify sequence <= barrier from the three-term comparison inequality,
    row by row: sequence and barrier are (rows, n) batches, a 1-D pair a
    batch of one.

    With r = sequence - barrier the hypotheses are r_n <= lam (r_{n-1} + r_{n+1})
    at interior n, r <= 0 at both ends, and 2 lam < 1; they force r <= 0
    everywhere (an interior positive maximum would satisfy
    r_max <= 2 lam r_max < r_max). Returns certified, a boolean per row, and
    lists: hypothesis_violation, a row's first violated hypothesis, the ends
    first, as a (kind, index) pair, and conclusion_violation, the first index
    above the barrier where the hypotheses hold or go unchecked; else None.
    """
    if not (0.0 <= lam and 2.0 * lam < 1.0):
        raise ValueError("the comparison weight must satisfy 0 <= 2 lam < 1")
    r = np.atleast_2d(np.asarray(sequence, dtype=float) - np.asarray(barrier, dtype=float))
    if r.ndim != 2 or r.shape[1] < 3:
        raise ValueError("need at least three entries")
    n = r.shape[1]
    # the hypotheses in the order they are reported
    labels = [("endpoint", 0), ("endpoint", n - 1)] + [("interior", i) for i in range(1, n - 1)]
    broken = np.column_stack([r[:, 0], r[:, -1], r[:, 1:-1] - lam * (r[:, :-2] + r[:, 2:])])
    broken = (broken > 0.0) & verify_hypotheses
    above = (r > 0.0) & ~broken.any(axis=1, keepdims=True)
    return SimpleNamespace(
        certified=~(broken.any(axis=1) | above.any(axis=1)),
        hypothesis_violation=[labels[j] if row[j] else None
                              for row, j in zip(broken, np.argmax(broken, axis=1))],
        conclusion_violation=[int(j) if row[j] else None
                              for row, j in zip(above, np.argmax(above, axis=1))],
    )


def sample_max_principle_instance(rng, count, size=40, lam=0.4):
    """count sequence/barrier pairs satisfying the hypotheses, as two
    (count, size) arrays, from rng, a random.Random.

    r = -a gap with a in [0.1, 3) per row and every gap entry within half of
    delta = (1 - 2 lam) / (1 + 2 lam) of 1: the three-term inequality
    gap_n >= lam (gap_{n-1} + gap_{n+1}) holds for any gaps within delta of 1,
    and the other half leaves a margin of a (1 - 2 lam) / 2 for the rounding
    of barrier + r - barrier. Draws count (2 size + 1) doubles: the gaps, the
    barrier in [0, 2), then a.
    """
    if not (0.0 <= lam and 2.0 * lam < 1.0):
        raise ValueError("the comparison weight must satisfy 0 <= 2 lam < 1")
    delta = 0.5 * (1.0 - 2.0 * lam) / (1.0 + 2.0 * lam)
    gap = 1.0 + uniform(rng, -delta, delta, (count, size))
    barrier = uniform(rng, 0.0, 2.0, (count, size))
    r = -uniform(rng, 0.1, 3.0, (count, 1)) * gap
    return barrier + r, barrier
