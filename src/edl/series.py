"""Fourier series on the circle of length 2 pi, graded norms, multiplier
operators, and the mode-cutoff mollifier S_eps.

Everything downstream (mode solvers, deformation operators, the smoothed
Newton iteration) is built on the representation fixed here: a truncated
complex Fourier series u(t) = sum_{|l| <= N} u_l exp(i*l*t) stored as a dense
coefficient vector in mode order -N..N.  The length is fixed because a
homothety of the flat S^1 x R^2 multiplies the Dirac operator by a constant,
so no kernel, obstruction, Fredholm or regularity statement depends on it;
angular frequencies are the integer modes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

TWO_PI = 2.0 * math.pi
TORUS_AREA = TWO_PI * TWO_PI  # of the (t, theta) torus, in the pairings over it

# numpy renamed trapz -> trapezoid in 2.0
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def sgn(l):
    """sgn(l) with sgn(0) = +1, not numpy's 0, elementwise."""
    return np.where(np.asarray(l) >= 0, 1.0, -1.0)


def fit_line(x, y):
    """Least-squares (slope, intercept) of array y on array x, without np.polyfit's
    1 MiB of LAPACK workspace; centring y too keeps exact slopes to a few ulps."""
    if x.size == 0 or not x.min() < x.max():
        raise ValueError("a line fit needs at least two distinct x")
    xs = x - x.mean()
    slope = float(xs @ (y - y.mean()) / (xs @ xs))
    return slope, float(y.mean() - slope * x.mean())


@dataclass(frozen=True, eq=False)
class FourierSeries1D:
    """Truncated Fourier series; coeffs has length 2N+1 in mode order -N..N."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coeffs must be a 1-d array of odd length (modes -N..N)")
        object.__setattr__(self, "coeffs", c)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(n_modes):
        return FourierSeries1D(np.zeros(2 * n_modes + 1, dtype=complex))

    @staticmethod
    def from_modes(mode_dict, n_modes=None):
        if n_modes is None:
            n_modes = max((abs(int(l)) for l in mode_dict), default=0)
        out = np.zeros(2 * n_modes + 1, dtype=complex)
        for l, a in mode_dict.items():
            if abs(int(l)) > n_modes:
                raise ValueError(f"mode {l} exceeds truncation {n_modes}")
            out[int(l) + n_modes] = a
        return FourierSeries1D(out)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_modes(self):
        return (self.coeffs.size - 1) // 2

    def modes(self):
        n = self.n_modes
        return np.arange(-n, n + 1)

    def coeff(self, l):
        n = self.n_modes
        if abs(l) > n:
            return 0.0 + 0.0j
        return complex(self.coeffs[l + n])

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        phase = np.exp(1j * np.multiply.outer(t, self.modes()))
        return phase @ self.coeffs

    # -- structural ops ----------------------------------------------------

    def truncate(self, n_modes):
        """Keep modes |l| <= n_modes, zero-padding when n_modes exceeds N.

        Returns self when the size already matches: series are immutable.
        """
        n = self.n_modes
        if n_modes == n:
            return self
        if n_modes > n:
            out = np.zeros(2 * n_modes + 1, dtype=complex)
            out[n_modes - n : n_modes + n + 1] = self.coeffs
            return FourierSeries1D(out)
        return FourierSeries1D(self.coeffs[n - n_modes : n + n_modes + 1].copy())

    def conjugate(self):
        # (conj u)_l = conj(u_{-l}); an antilinear involution on coefficients
        return FourierSeries1D(np.conj(self.coeffs[::-1]))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        n = max(self.n_modes, other.n_modes)
        return FourierSeries1D(self.truncate(n).coeffs + other.truncate(n).coeffs)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        return FourierSeries1D(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    # -- norms and quadrature ------------------------------------------------

    def sobolev_norm(self, m):
        w = (1.0 + self.modes().astype(float) ** 2) ** m
        return float(np.sqrt(np.sum(w * np.abs(self.coeffs) ** 2)))

    def parseval_defect(self, n_points=None):
        # |u|^2 has band 2N, so >= 2N+1 uniform points integrate it exactly
        if n_points is None:
            n_points = 2 * self.n_modes + 1
        vals = self.evaluate(np.arange(n_points) * (TWO_PI / n_points))
        coeff_side = float(np.sum(np.abs(self.coeffs) ** 2))
        quad_side = float(np.mean(np.abs(vals) ** 2))
        scale = max(coeff_side, 1.0)
        return abs(coeff_side - quad_side) / scale


def multiply(u, v):
    """Exact product of two truncated series (full convolution)."""
    return FourierSeries1D(np.convolve(u.coeffs, v.coeffs))


# -- multiplier operators ------------------------------------------------------


def hilbert_transform(u):
    """Multiplier sgn(l) with sgn(0) = +1; an exact involution."""
    return FourierSeries1D(u.coeffs * sgn(u.modes()))


def fractional_resolvent(u, s):
    """Multiplier (l^2+1)^{-s} on the integer mode index."""
    mult = (u.modes().astype(float) ** 2 + 1.0) ** (-s)
    return FourierSeries1D(u.coeffs * mult)


def second_derivative(u):
    """Multiplier -l^2."""
    return FourierSeries1D(u.coeffs * -(u.modes() ** 2))


def derivative(u):
    return FourierSeries1D(u.coeffs * (1j * u.modes()))


def interpolation_ratio(u, m, m1, m2):
    """sobolev_norm(m) / (sobolev_norm(m1)^a * sobolev_norm(m2)^(1-a)) with
    a = (m2-m)/(m2-m1).

    Log-convexity of m -> sobolev_norm(m)^2 makes the true constant exactly 1.
    """
    if not (m1 < m < m2):
        raise ValueError("need m1 < m < m2")
    a = (m2 - m) / (m2 - m1)
    lo, hi = u.sobolev_norm(m1), u.sobolev_norm(m2)
    if lo == 0.0 or hi == 0.0:
        return 0.0
    return u.sobolev_norm(m) / (lo**a * hi ** (1.0 - a))


# -- the mode-cutoff mollifier S_eps ---------------------------------------------


def cutoff_c2(x):
    """C^2 cutoff profile: 1 on [0,1], 0 on [2,inf), quintic step between.

    A sharp truncation would make the eps-derivative bound ill-defined, so the
    profile must be at least C^1 in eps*|l|; the quintic step has two vanishing
    derivatives at both junctions.
    """
    x = np.asarray(x, dtype=float)
    s = np.clip(x - 1.0, 0.0, 1.0)
    step = s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    return np.where(x <= 1.0, 1.0, np.where(x >= 2.0, 0.0, 1.0 - step))


def cutoff_c2_prime(x):
    x = np.asarray(x, dtype=float)
    s = np.clip(x - 1.0, 0.0, 1.0)
    dstep = 30.0 * s**2 * (1.0 - s) ** 2
    return np.where((x <= 1.0) | (x >= 2.0), 0.0, -dstep)


def cutoff_c2_second(x):
    x = np.asarray(x, dtype=float)
    s = np.clip(x - 1.0, 0.0, 1.0)
    d2step = 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)
    return np.where((x <= 1.0) | (x >= 2.0), 0.0, -d2step)


def smooth(u, eps):
    """Mode-cutoff mollifier S_eps u = rho(eps*|l|) u_l with rho = cutoff_c2:
    nonincreasing, identically 1 on [0,1] and 0 on [2,inf)."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return FourierSeries1D(u.coeffs * cutoff_c2(eps * np.abs(u.modes().astype(float))))


SMOOTHING_PROBE_MODES = 600  # must exceed 2/min(eps) for the active band to be visible
SMOOTHING_RATIO_CEILING = 100.0


def verify_smoothing_axioms(m_max, eps_grid):
    """Measure the three constants of the mollifier smooth over a grid of
    (m, n) pairs.

    S_eps is a diagonal multiplier, so the operator constant for each eps
    equals the max over single modes |l| <= SMOOTHING_PROBE_MODES of the
    per-mode ratio; every constant must stay below SMOOTHING_RATIO_CEILING.

      (a) norm(n) of S_eps u against eps^{m-n} norm(m) for n >= m, and the
          plain contraction norm(n) <= norm(m) for n <= m;
      (b) norm(m) of S_eps u - u against eps^{n-m} norm(n) for n >= m;
      (c) norm(n) of d/deps S_eps u against eps^{m-n-1} norm(m).

    Returns rows, one per axiom and (m, n) with its axiom, m, n, max_ratio
    (the max over the eps grid) and eps_spread (that max divided by the min
    over the eps grid); worst, the largest max_ratio; and passed.
    """
    eps_grid = [float(e) for e in eps_grid]
    levels = [v / 2.0 for v in range(0, int(2 * m_max) + 1)]
    l = np.arange(0, SMOOTHING_PROBE_MODES + 1, dtype=float)
    base = 1.0 + l**2
    rows = []
    for m in levels:
        for n in levels:
            per_eps = {"smoothing": [], "approximation": [], "eps_derivative": []}
            for eps in eps_grid:
                rho = cutoff_c2(eps * l)
                drho = cutoff_c2_prime(eps * l)
                gain = base ** ((n - m) / 2.0)
                per_eps["smoothing"].append(
                    float(np.max(rho * gain)) * eps ** max(n - m, 0.0)
                )
                if n >= m:
                    per_eps["approximation"].append(
                        float(np.max(np.abs(rho - 1.0) * base ** ((m - n) / 2.0)))
                        * eps ** (m - n)
                    )
                per_eps["eps_derivative"].append(
                    float(np.max(np.abs(l * drho) * gain)) * eps ** (n - m + 1.0)
                )
            for axiom, vals in per_eps.items():
                if not vals:
                    continue
                lo = min(v for v in vals if v > 0.0) if any(v > 0 for v in vals) else 1.0
                rows.append(SimpleNamespace(
                    axiom=axiom, m=m, n=n, max_ratio=max(vals), eps_spread=max(vals) / lo
                ))
    passed = all(
        np.isfinite(r.max_ratio) and r.max_ratio <= SMOOTHING_RATIO_CEILING for r in rows
    )
    return SimpleNamespace(rows=rows, worst=max(r.max_ratio for r in rows), passed=passed)


# -- pointwise bound on radial profiles -------------------------------------------


def dyadic_pointwise_bound(r, values):
    """sup |phi| against the b-norm (int (|phi|^2/r^2 + |phi'|^2) r dr)^{1/2}.

    The grid must be strictly positive and increasing. Profiles whose
    per-dyadic-shell b-norm contributions fail to decay toward the axis
    (e.g. phi = const, whose |phi|^2/r^2 * r dr integral is log-divergent)
    are flagged non-integrable.
    The chain bound |phi(x)| <= |phi(R)| + sqrt(log 2) * sum of shell norms is
    evaluated alongside as a certificate for the sup.

    Returns sup_abs, b_norm, their ratio, chain_bound and integrable.
    """
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    if r.ndim != 1 or np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0):
        raise ValueError("r must be strictly positive and increasing")

    dphi = np.gradient(values, r)
    density = (values**2 / r**2 + dphi**2) * r

    n_shells = max(int(np.floor(np.log2(r[-1] / r[0]))), 1)
    edges = r[-1] * 2.0 ** (-np.arange(n_shells + 1, dtype=float))
    shell_norms = []
    for j in range(n_shells):
        hi, lo = edges[j], edges[j + 1]
        mask = (r >= lo) & (r <= hi)
        if np.count_nonzero(mask) < 2:
            shell_norms.append(0.0)
            continue
        shell_norms.append(float(np.sqrt(trapezoid(density[mask], r[mask]))))

    b_norm = float(np.sqrt(trapezoid(density, r)))
    sup_abs = float(np.max(np.abs(values)))
    ratio = sup_abs / b_norm if b_norm > 0 else math.inf

    # decay scan over the innermost shells: contributions that fail to decay
    # geometrically toward the axis signal a divergent |phi|^2/r dr integral
    # (phi ~ r^p contributes ~ 2^{-jp} per shell norm, so p = 0 sits at ratio 1)
    tail = [s for s in shell_norms[-6:] if s > 0.0]
    integrable = True
    if len(tail) >= 3:
        mean_ratio = (tail[-1] / tail[0]) ** (1.0 / (len(tail) - 1))
        integrable = mean_ratio <= 0.95

    chain_bound = float(abs(values[-1])) + math.sqrt(math.log(2.0)) * float(
        np.sum(shell_norms)
    )
    return SimpleNamespace(
        sup_abs=sup_abs, b_norm=b_norm, ratio=ratio, chain_bound=chain_bound,
        integrable=integrable,
    )
