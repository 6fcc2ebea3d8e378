"""Model first-order operator on S^1 x R^2 in the half-angle twisted frame,
its radial mode problems, and quadrature pairings.

Conventions fixed here and used by every downstream module:

  * polar coordinates (t, r, theta), t and theta both of period 2*pi (a
    homothety of the flat product rescales the operator by a constant, so
    the circle's length is fixed), r > 0 strictly (grids never touch the
    axis);
  * spinor fields are stored in the twisted trivialization where the true
    components carry basis factors e^{-i*theta/2} (plus component) and
    e^{+i*theta/2} (minus component), so stored theta-modes are integers;
  * in stored components the operator acts as

        (D psi)_+ = i d_t psi_+ - (d_r - (i/r) d_theta + 1/(2r)) psi_-
        (D psi)_- = (d_r + (i/r) d_theta + 1/(2r)) psi_+ - i d_t psi_-

    and preserves the stored (k, l) mode pair exactly;
  * the zero-set equation D psi = 0 restricted to the stored mode (k, l)
    is the first-order radial system u' = M(k, l, r) u with

        M = [[ (k-1/2)/r,  -l        ],
             [ -l,         -(k+1/2)/r ]].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from types import SimpleNamespace

import numpy as np

from .series import FourierSeries1D, TWO_PI, fit_line, sgn


# -- Clifford frame -------------------------------------------------------------


def clifford_action(axis, e_th, e_mth, plus, minus):
    """Clifford action of dt/dx/dy given e^{i theta} and e^{-i theta}.

    The flat frame acts by the constant matrices

        sigma_t = diag(i, -i),  sigma_x = [[0, -1], [1, 0]],  sigma_y = [[0, i], [i, 0]],

    which square to -Id and anticommute pairwise.  In the twisted frame the
    x and y actions pick up e^{+-i*theta} factors from conjugating them by
    the basis twist. Any representation with products works: sampled arrays
    or separable terms.
    """
    if axis == "t":
        return 1j * plus, -1j * minus
    if axis == "x":
        return -e_th * minus, e_mth * plus
    if axis == "y":
        return 1j * e_th * minus, 1j * e_mth * plus
    raise ValueError(f"unknown axis {axis!r}")


# -- radial grids ----------------------------------------------------------------


def _fornberg_weights(z, x, m):
    """Finite-difference weights for derivative order m at z on nodes x."""
    n = len(x)
    w = np.zeros((n, m + 1))
    w[0, 0] = 1.0
    c1, c4 = 1.0, x[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, m]


FD_ORDER = 8  # accuracy order of the log-grid derivative stencils


@cache
def _unit_stencils(width):
    """d/ds weights on `width` nodes of unit spacing; row j is offset j."""
    s = np.arange(width, dtype=float)
    return np.array([_fornberg_weights(z, s, 1) for z in s])


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Geometric grid on (0, R]; uniform in s = log r.

    The grid is strictly positive: the operator coefficients carry 1/r and the
    model profiles carry r^{-1/2}, so the axis itself is never sampled.

    r may also be a row stack, shape (rows, n): one geometric grid per row,
    each with its own R and step. A stack carries the quadrature
    (area_weights, and integrate along the last axis), not the stencils.
    """

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.ndim not in (1, 2) or r.shape[-1] < 2 or np.any(r <= 0.0):
            raise ValueError("radial grid must be 1-d or a row stack, strictly positive")
        ds = np.diff(np.log(r), axis=-1)
        if np.any(ds <= 0.0) or not np.allclose(ds, ds[..., :1], rtol=1e-8):
            raise ValueError("radial grid must be geometric (uniform in log r)")
        object.__setattr__(self, "r", r)

    @staticmethod
    def geometric(r_max, n_points, r_min_factor=1e-4):
        """n_points radii from r_min_factor * r_max to r_max; an array of
        r_max gives a row stack, one row per entry."""
        if not (0.0 < r_min_factor < 1.0):
            raise ValueError("r_min_factor must lie in (0,1)")
        r_max = np.asarray(r_max, dtype=float)
        return RadialGrid(np.geomspace(r_max * r_min_factor, r_max, n_points, axis=-1))

    @property
    def n_points(self):
        return self.r.shape[-1]

    @property
    def ds(self):
        """The step in s; on a row stack, a column of one step per row."""
        ds = np.log(self.r[..., 1:2] / self.r[..., :1])
        return float(ds[0]) if self.r.ndim == 1 else ds

    @cached_property
    def _stencils(self):
        """d/ds weights on the log grid, built on first use; row j is offset j.

        Row i of d/ds differentiates at offset i - lo(i) within the window of
        `width` nodes starting at lo(i) = clip(i - width // 2, 0, n - width).
        The grid is uniform in s, so the weights depend only on that offset,
        and scale as 1/ds: one unit-spacing table, over ds, serves all rows.
        """
        if self.r.ndim != 1:
            raise ValueError("a row stack of grids carries no stencils")
        return _unit_stencils(min(FD_ORDER, self.r.size - 1) + 1) / self.ds

    def derivative(self, values, axis=0):
        """d/dr via the log-grid stencil: d/dr = (1/r) d/ds.

        The band is applied as shifted slices: the interior rows share the
        centred stencil, while the first width // 2 rows and the last
        width - 1 - width // 2 rows keep the first and the last window.  Every
        row sums its terms from zero in ascending k, as a CSR product does.
        """
        moved = np.moveaxis(np.asarray(values), axis, 0)
        flat = moved.reshape(moved.shape[0], -1)
        w = self._stencils
        n, width = flat.shape[0], len(w)
        h, m = width // 2, n - width + 1
        dflat = np.zeros(flat.shape, np.result_type(w, flat))
        mid, head, tail = dflat[h:h + m], dflat[:h], dflat[h + m:]
        for k in range(width):
            mid += w[h, k] * flat[k:k + m]
            head += w[:h, k, None] * flat[k]
            tail += w[h + 1:, k, None] * flat[n - width + k]
        out = dflat.reshape(moved.shape)
        shape = [1] * out.ndim
        shape[0] = n
        out = out / self.r.reshape(shape)
        return np.moveaxis(out, 0, axis)

    def area_weights(self):
        """Trapezoid weights for int f(r) r dr on the log grid."""
        ds = self.ds
        tz = np.full(self.r.shape, ds)
        tz[..., ::self.n_points - 1] = 0.5 * ds
        return tz * self.r**2

    def integrate(self, values, axis=0):
        """int f(r) r dr along `axis`; a row stack's values are (rows, n)
        and integrate along the last axis."""
        w = self.area_weights()
        values = np.asarray(values)
        if w.ndim == 1:
            shape = [1] * values.ndim
            shape[axis] = w.size
            w = w.reshape(shape)
        return np.sum(values * w, axis=axis)


# -- radial mode problems ----------------------------------------------------------


@dataclass
class ModeSpinor:
    """Radial profile pair of a single stored (k, l) mode.

    On a row-stacked grid l is a column of modes, one per row, and the
    profiles are row stacks; weighted_l2, radial_pairing and ode_residual
    then return one value per row.
    """

    k: int
    l: float
    rgrid: RadialGrid
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    dpsi_plus: np.ndarray = None   # analytic d/dr when available
    dpsi_minus: np.ndarray = None

    def weighted_l2(self):
        dens = np.abs(self.psi_plus) ** 2 + np.abs(self.psi_minus) ** 2
        return np.sqrt(self.rgrid.integrate(dens, axis=-1))

    def radial_pairing(self, other):
        if other.rgrid is not self.rgrid and not np.array_equal(
            other.rgrid.r, self.rgrid.r
        ):
            raise ValueError("modes live on different grids")
        dens = self.psi_plus * np.conj(other.psi_plus) + self.psi_minus * np.conj(
            other.psi_minus
        )
        return self.rgrid.integrate(dens, axis=-1)

    def ode_residual(self):
        """Relative defect of u' = M(k,l,r) u in the r dr norm, which is
        |D psi| / |psi| for the mode's field (D psi = +-(u' - M u) per component).
        u' is the analytic derivative when the mode carries one, else the stencil.
        """
        r = self.rgrid.r
        if self.dpsi_plus is not None and self.dpsi_minus is not None:
            du_p, du_m = self.dpsi_plus, self.dpsi_minus
        else:
            du_p = self.rgrid.derivative(self.psi_plus)
            du_m = self.rgrid.derivative(self.psi_minus)
        rhs_p = (self.k - 0.5) / r * self.psi_plus - self.l * self.psi_minus
        rhs_m = -self.l * self.psi_plus - (self.k + 0.5) / r * self.psi_minus
        dens = np.abs(du_p - rhs_p) ** 2 + np.abs(du_m - rhs_m) ** 2
        num = np.sqrt(self.rgrid.integrate(dens, axis=-1))
        return num / np.maximum(self.weighted_l2(), 1e-300)

    def decay_rate(self):
        """Exponential rate fitted on log(r^{1/2} |psi|) over [R/4, 3R/4]."""
        r = self.rgrid.r
        mag = np.sqrt(np.abs(self.psi_plus) ** 2 + np.abs(self.psi_minus) ** 2)
        lo, hi = 0.25 * r[-1], 0.75 * r[-1]
        mask = (r >= lo) & (r <= hi) & (mag > 0)
        return -fit_line(r[mask], np.log(mag[mask] * np.sqrt(r[mask])))[0]


def obstruction_profiles(l_values, rgrid):
    """Rows psi_l(r) = sqrt|l| e^{-|l| r} r^{-1/2} for each requested l;
    on a row-stacked grid, row i on the radii of row i.

    l = 0 is rejected: the profile is not square integrable on the plane and
    enters only through compact-disk pairings.
    """
    l_arr = np.asarray(l_values, dtype=float)
    if np.any(l_arr == 0):
        raise ValueError("mode 0 is excluded on the plane")
    r = np.atleast_2d(rgrid.r)  # a row stack has one row per l
    a = np.abs(l_arr)[:, None]
    return np.sqrt(a) * np.exp(-a * r) / np.sqrt(r)


def euclidean_obstruction_mode(l, rgrid):
    """Closed-form decaying kernel mode at k = 0: the profile
    obstruction_profiles([l]) with psi_- = sgn(l) psi_+.

    An array of l takes a row-stacked grid, one row per mode.
    """
    w = np.asarray(l, dtype=float)[:, None] if np.ndim(l) else float(l)
    prof = obstruction_profiles(np.ravel(w), rgrid).reshape(rgrid.r.shape)
    dprof = prof * (-abs(w) - 0.5 / rgrid.r)
    return ModeSpinor(
        k=0,
        l=w,
        rgrid=rgrid,
        psi_plus=prof,
        psi_minus=sgn(w) * prof,
        dpsi_plus=dprof,
        dpsi_minus=sgn(w) * dprof,
    )


def mu_perturbed_mode(l, mu, rgrid, component=0):
    """Decaying profile of the mu-perturbed problem: e^{-sqrt(l^2+mu^2) r} r^{-1/2}.

    The perturbation acts on the normal coordinate like l + i*mu, so only the
    modulus w = sqrt(l^2 + mu^2) enters the radial decay; at l = 0 the kernel
    is real two-dimensional and `component` selects (profile, 0) or (0, profile).
    """
    if mu < 0.0:
        raise ValueError("mu must be nonnegative")
    w = math.hypot(float(l), float(mu))
    if w == 0.0:
        raise ValueError("l = mu = 0 has no decaying profile")
    r = rgrid.r
    prof = np.exp(-w * r) / np.sqrt(r)
    dprof = prof * (-w - 0.5 / r)
    zero = np.zeros_like(prof)
    if l == 0 and component == 1:
        return ModeSpinor(0, l, rgrid, zero, prof, zero, dprof)
    if l == 0:
        return ModeSpinor(0, l, rgrid, prof, zero, dprof, zero)
    return ModeSpinor(0, l, rgrid, prof, sgn(l) * prof, dprof, sgn(l) * dprof)


def growth_rate(mode):
    """Fitted d log|u|/dr on the outer window [R/2, 0.95 R] (positive = growth)."""
    r = mode.rgrid.r
    mag = np.sqrt(np.abs(mode.psi_plus) ** 2 + np.abs(mode.psi_minus) ** 2)
    mask = (r >= 0.5 * r[-1]) & (r <= 0.95 * r[-1]) & (mag > 0)
    return fit_line(r[mask], np.log(mag[mask]))[0]


# -- leading data ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LeadingData:
    """Leading coefficient pair (c, d) on the singular circle.

    Nondegeneracy min_t |c|^2 + |d|^2 > 0 is enforced at construction; the
    deformation operators divide by it.
    """

    c: FourierSeries1D
    d: FourierSeries1D

    def __post_init__(self):
        if self.nondegeneracy_min <= 1e-12:
            raise ValueError("degenerate leading data: min |c|^2+|d|^2 vanishes")

    @cached_property
    def nondegeneracy_min(self):
        n = max(self.c.n_modes, self.d.n_modes, 1)
        n_pts = max(256, 16 * n)  # divisible by 4 so quarter-period zeros are sampled
        t = np.arange(n_pts) * (TWO_PI / n_pts)
        dens = np.abs(self.c.evaluate(t)) ** 2 + np.abs(self.d.evaluate(t)) ** 2
        return float(np.min(dens))

    @staticmethod
    def constant(c, d):
        return LeadingData(
            FourierSeries1D.from_modes({0: c}), FourierSeries1D.from_modes({0: d})
        )


# -- spinor fields ---------------------------------------------------------------


def fft_mode_derivative(values, axis):
    """Spectral derivative along a uniformly sampled axis of period 2 pi."""
    n = values.shape[axis]
    # the integer modes in FFT order, exactly: 2 pi fftfreq(n, 2 pi / n) is not
    freq = 1j * ((np.arange(n) + n // 2) % n - n // 2)
    shape = [1] * values.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(values, axis=axis) * freq.reshape(shape), axis=axis)


@dataclass(eq=False)
class SpinorField:
    """Two-component field sampled on the (t, r, theta) tensor grid.

    plus/minus arrays have shape (nt, nr, ntheta). Optional *_dr arrays carry
    the analytic radial derivative for closed-form fields; the operator falls
    back to the log-grid stencil when they are absent.
    """

    rgrid: RadialGrid
    plus: np.ndarray
    minus: np.ndarray
    plus_dr: np.ndarray = None
    minus_dr: np.ndarray = None

    def __post_init__(self):
        if self.plus.shape != self.minus.shape or self.plus.ndim != 3:
            raise ValueError("component arrays must share a (nt, nr, ntheta) shape")
        if self.plus.shape[1] != self.rgrid.n_points:
            raise ValueError("radial axis does not match the grid")

    @property
    def shape(self):
        return self.plus.shape

    def theta_points(self):
        nth = self.shape[2]
        return np.arange(nth) * (TWO_PI / nth)

    def radial_derivative(self):
        if self.plus_dr is not None and self.minus_dr is not None:
            return self.plus_dr, self.minus_dr
        return (
            self.rgrid.derivative(self.plus, axis=1),
            self.rgrid.derivative(self.minus, axis=1),
        )

    def norm(self):
        return math.sqrt(max(l2_pairing(self, self).real, 0.0))


def field_from_mode(k, l, rgrid, prof_plus, prof_minus, nt, ntheta,
                    dprof_plus=None, dprof_minus=None):
    """Tensor field profile(r) * e^{i l t} * e^{i k theta} in stored components."""
    if nt < 2 * abs(l) + 2 or ntheta < 2 * abs(k) + 2:
        raise ValueError("grid cannot represent the requested mode alias-free")
    t = np.arange(nt) * (TWO_PI / nt)
    th = np.arange(ntheta) * (TWO_PI / ntheta)
    et = np.exp(2j * math.pi * l * t / TWO_PI)[:, None, None]
    eth = np.exp(1j * k * th)[None, None, :]
    pp = np.asarray(prof_plus, dtype=complex)[None, :, None]
    pm = np.asarray(prof_minus, dtype=complex)[None, :, None]
    kwargs = {}
    if dprof_plus is not None and dprof_minus is not None:
        kwargs["plus_dr"] = et * np.asarray(dprof_plus, complex)[None, :, None] * eth
        kwargs["minus_dr"] = et * np.asarray(dprof_minus, complex)[None, :, None] * eth
    return SpinorField(rgrid, et * pp * eth, et * pm * eth, **kwargs)


def euclidean_obstruction_field(l, rgrid, nt=None, ntheta=8):
    mode = euclidean_obstruction_mode(l, rgrid)
    if nt is None:
        nt = 4 * abs(int(l)) + 5
    return field_from_mode(
        mode.k, mode.l, mode.rgrid, mode.psi_plus, mode.psi_minus, nt, ntheta,
        mode.dpsi_plus, mode.dpsi_minus,
    )


def dirac_apply(psi):
    """Apply the model operator in stored components.

    t and theta derivatives are spectral (the grids are uniform and the
    constructors guarantee alias-free sampling); the radial derivative is
    analytic when the field carries one and the log-grid stencil otherwise.
    """
    r = psi.rgrid.r[None, :, None]
    dt_p = fft_mode_derivative(psi.plus, 0)
    dt_m = fft_mode_derivative(psi.minus, 0)
    dth_p = fft_mode_derivative(psi.plus, 2)
    dth_m = fft_mode_derivative(psi.minus, 2)
    dr_p, dr_m = psi.radial_derivative()
    out_plus = 1j * dt_p - (dr_m - 1j * dth_m / r + psi.minus / (2.0 * r))
    out_minus = (dr_p + 1j * dth_p / r + psi.plus / (2.0 * r)) - 1j * dt_m
    return SpinorField(psi.rgrid, out_plus, out_minus)


def covariant_gradient(psi):
    """Twisted covariant derivatives along t, x, y in stored components.

    The connection acting on stored components is d_j -+ (i/2)(d_j theta)
    (minus on plus, plus on minus), since the true components carry the
    half-angle basis factors e^{-+ i theta/2}.
    """
    th = psi.theta_points()[None, None, :]
    dt = tuple(fft_mode_derivative(a, 0) for a in (psi.plus, psi.minus))
    dth = tuple(fft_mode_derivative(a, 2) for a in (psi.plus, psi.minus))
    return frame_gradient(
        psi.plus, psi.minus, dt, psi.radial_derivative(), dth,
        np.cos(th), np.sin(th), 1.0 / psi.rgrid.r[None, :, None],
    )


def frame_gradient(plus, minus, dt, dr, dth, cos_t, sin_t, inv_r):
    """Covariant derivatives along t, x, y from the polar (t, r, theta) ones.

    dt, dr, dth are (plus, minus) pairs; any representation with products
    works: sampled arrays or separable terms.
    """
    out = {"t": dt}
    for axis in ("x", "y"):
        if axis == "x":
            base = [cos_t * d_r - sin_t * inv_r * d_th for d_r, d_th in zip(dr, dth)]
            dtheta_dir = -sin_t * inv_r
        else:
            base = [sin_t * d_r + cos_t * inv_r * d_th for d_r, d_th in zip(dr, dth)]
            dtheta_dir = cos_t * inv_r
        out[axis] = (
            base[0] - 0.5j * dtheta_dir * plus,
            base[1] + 0.5j * dtheta_dir * minus,
        )
    return out


def dirac_apply_via_clifford(psi):
    """Same operator assembled as sum_j sigma_j . nabla_j in the twisted frame.

    Exists as an independent cross-check of the frame bookkeeping: the twist
    connection terms and the e^{+-i theta} factors in the Clifford action
    must reproduce the polar formulas exactly.
    """
    e_th = np.exp(1j * psi.theta_points()[None, None, :])
    grad = covariant_gradient(psi)
    out_p = np.zeros_like(psi.plus)
    out_m = np.zeros_like(psi.minus)
    for axis in ("t", "x", "y"):
        gp, gm = grad[axis]
        cp, cm = clifford_action(axis, e_th, np.conj(e_th), gp, gm)
        out_p = out_p + cp
        out_m = out_m + cm
    return SpinorField(psi.rgrid, out_p, out_m)


def l2_pairing(psi, phi):
    """<psi, phi> = int (psi_+ conj(phi_+) + psi_- conj(phi_-)) r dr dtheta dt."""
    if psi.shape != phi.shape:
        raise ValueError("fields live on different grids")
    dens = psi.plus * np.conj(phi.plus) + psi.minus * np.conj(phi.minus)
    radial = psi.rgrid.integrate(dens, axis=1)
    nt, nth = psi.shape[0], psi.shape[2]
    dt = TWO_PI / nt
    dth = TWO_PI / nth
    return complex(np.sum(radial) * dt * dth)


ADJOINTNESS_TOLERANCE = 1e-6


def adjointness_check(psi, phi):
    """Relative defect |<D psi, phi> - <psi, D phi>| / (|psi| |phi|).

    Compactly supported fields sit below ADJOINTNESS_TOLERANCE on reference
    grids; a defect above it is reported as a boundary contribution along
    the axis (the operator has no other source of asymmetry).

    Returns the defect and boundary_flagged.
    """
    lhs = l2_pairing(dirac_apply(psi), phi)
    rhs = l2_pairing(psi, dirac_apply(phi))
    denom = max(psi.norm() * phi.norm(), 1e-300)
    defect = abs(lhs - rhs) / denom
    return SimpleNamespace(defect=defect, boundary_flagged=defect > ADJOINTNESS_TOLERANCE)


def radial_bump(r, center, width):
    """Smooth bump exp(1 - 1/(1-x^2)) on |r - center| < width, with derivative.

    Takes radii, not a grid, so ODE solvers can evaluate it off-grid.
    Smoothness matters: quadrature identities (adjointness, pairings) are
    checked to 1e-6 and a merely C^2 profile leaves O(h^3) trapezoid defects.
    """
    x = (r - center) / width
    inside = np.abs(x) < 1.0
    xs = np.where(inside, x, 0.0)
    prof = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - xs**2)), 0.0)
    dprof = prof * np.where(inside, -2.0 * xs / (1.0 - xs**2) ** 2, 0.0) / width
    return prof, dprof
