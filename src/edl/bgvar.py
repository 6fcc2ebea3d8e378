"""First variation of the operator along pulled-back metric deformations.

A normal displacement of the singular circle, (eta_x(t), eta_y(t)), pushed
into the ambient space through a radial cutoff chi(r), deforms the flat
metric at first order into the symmetric tensor

    gdot_tj = eta_j'(t) chi(r),
    gdot_jk = eta_j d_k chi + eta_k d_j chi   (j, k spatial),
    gdot_tt = 0.

The induced first variation of the operator on a spinor field is

    B(gdot) psi = -(1/2) sum_ij gdot_ij sigma_i . nabla_j psi
                  + (1/2) d(tr gdot) . psi + (1/2) (div gdot) . psi

with (div k)_j = -sum_i d_i k_ij and one-forms acting by Clifford
multiplication.  Every coefficient of the displacement family factors as
(t-series) x (radial profile) x (theta harmonic), and so does the leading
field Phi0.  The pullback is written once, as a short sum of such separable
terms (`Separable`); products convolve t-series, multiply radial profiles and
add harmonics, so each (l, k) coefficient of B(gdot) Phi0 is exact.

`bg_pairing_comparison` measures <B(gdot) Phi0, Psi_l> for the leading field
Phi0 of a data pair (c, d) from the (l, k = 0) coefficient alone, against the
closed-form prediction

    base_l = 4 pi^2 * |l|^{-3/2} * (H(c eta'') - conj(eta'') d)_l,

where 4 pi^2 is the area of the (t, theta) torus,

and reports the fitted ratio next to the two candidate constants -3/4 and
-3/2 together with the decay exponent of its mode-doubling deviations.

`MetricVariation.from_displacement` samples the same separable pullback on a
(t, r, theta) tensor grid, and `bg_apply_terms` applies it to a dense
`SpinorField`; that dense path is the reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .series import (
    FourierSeries1D,
    TORUS_AREA,
    TWO_PI,
    cutoff_c2,
    cutoff_c2_prime,
    cutoff_c2_second,
    derivative,
    fit_line,
    multiply,
    second_derivative,
)
from .dirac import (
    ModeSpinor,
    RadialGrid,
    SpinorField,
    clifford_action,
    covariant_gradient,
    euclidean_obstruction_mode,
    frame_gradient,
)
from .deform import l_op


# -- separable fields ---------------------------------------------------------------


class Separable:
    """Finite sum of terms (t-series) x (radial profile) x e^{i j theta}.

    A term is (series, rad, drad, j): a FourierSeries1D, a radial profile,
    its analytic d/dr and the theta harmonic j. A radial profile is an array
    over the radii, a scalar for a constant profile, or a pair (a, b) of
    profiles that stands for their product: products are multiplied out
    (by `_radial`) only when a coefficient or a sample is read, so the
    algebra holds no arrays but its factors. drad is None when unknown;
    products drop it, since only the leading field's own terms are
    differentiated in r.
    """

    def __init__(self, terms):
        self.terms = list(terms)

    def __add__(self, other):
        if isinstance(other, int) and other == 0:  # the start value of sum()
            return self
        return Separable(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return -1.0 * self

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Separable):
            return Separable((s * other, a, da, j) for s, a, da, j in self.terms)
        return Separable(
            (multiply(s, u), (a, b), None, j + k)
            for s, a, _, j in self.terms
            for u, b, _, k in other.terms
        )

    __rmul__ = __mul__

    def dt(self):
        return Separable((derivative(s), a, da, j) for s, a, da, j in self.terms)

    def dtheta(self):
        return Separable((s * (1j * j), a, da, j) for s, a, da, j in self.terms)

    def dr(self):
        if any(da is None for _, _, da, _ in self.terms):
            raise ValueError("a term carries no radial derivative")
        return Separable((s, da, None, j) for s, _, da, j in self.terms)

    def coeff(self, l, k):
        """Radial profile of the e^{i l t} e^{i k theta} component. On a row
        stack of radii l may be a column of modes: row i then holds mode
        l[i] on the radii of row i."""
        ls = np.asarray(l)
        return sum(
            np.array([s.coeff(m) for m in ls.flat]).reshape(ls.shape) * _radial(a)
            for s, a, _, j in self.terms if j == k
        )

    def sample(self, t, n_radial, theta):
        out = np.zeros((t.size, n_radial, theta.size), dtype=complex)
        for s, a, _, j in self.terms:
            rad = np.broadcast_to(_radial(a), (n_radial,))
            out += (
                s.evaluate(t)[:, None, None]
                * rad[None, :, None]
                * np.exp(1j * j * theta)[None, None, :]
            )
        return out


def _radial(a):
    """A radial profile's values, each product pair multiplied in the order
    the algebra formed it."""
    return _radial(a[0]) * _radial(a[1]) if type(a) is tuple else a


def _factors(r):
    """e^{i theta}, e^{-i theta}, cos(theta), sin(theta) and 1/r as separable fields."""
    one = FourierSeries1D.from_modes({0: 1.0})
    e_th = Separable([(one, 1.0, None, 1)])
    e_mth = Separable([(one, 1.0, None, -1)])
    inv_r = Separable([(one, 1.0 / r, None, 0)])
    return e_th, e_mth, 0.5 * (e_th + e_mth), -0.5j * (e_th - e_mth), inv_r


def _pullback(eta_x, eta_y, r, cutoff):
    """Pullback components of the displacement (eta_x, eta_y) * chi.

    cutoff is the radius r0 of the C^2 chi(r) = cutoff_c2(2 r / r0), 1 for
    r <= r0/2 and 0 for r >= r0, or None for chi identically 1: then the
    t-components survive with constant radial profile and every spatial
    component vanishes. The radial chain rule for d(tr gdot) and div(gdot)
    is assembled here in closed form.
    """
    if eta_y is None:
        eta_y = FourierSeries1D.zero(0)
    one = FourierSeries1D.from_modes({0: 1.0})

    def series(u):
        return Separable([(u, 1.0, None, 0)])

    def radial(a):
        return Separable([(one, a, None, 0)])

    ex, ey = series(eta_x), series(eta_y)
    dex, dey = series(derivative(eta_x)), series(derivative(eta_y))
    ddex, ddey = series(second_derivative(eta_x)), series(second_derivative(eta_y))
    if cutoff is None:
        chi, dchi, d2chi = series(one), Separable([]), Separable([])
    else:
        if not cutoff > 0.0:
            raise ValueError("cutoff radius must be positive")
        x = 2.0 * r / cutoff
        chi = radial(cutoff_c2(x))
        dchi = radial((2.0 / cutoff) * cutoff_c2_prime(x))
        d2chi = radial((4.0 / cutoff**2) * cutoff_c2_second(x))
    _, _, cos_t, sin_t, inv_r = _factors(r)

    dchi_x = dchi * cos_t
    dchi_y = dchi * sin_t
    chi_xx = d2chi * cos_t * cos_t + dchi * inv_r * sin_t * sin_t
    chi_yy = d2chi * sin_t * sin_t + dchi * inv_r * cos_t * cos_t
    chi_xy = (d2chi - dchi * inv_r) * sin_t * cos_t

    return {
        "g_tx": dex * chi,
        "g_ty": dey * chi,
        "g_xx": 2.0 * ex * dchi_x,
        "g_yy": 2.0 * ey * dchi_y,
        "g_xy": ex * dchi_y + ey * dchi_x,
        "dtr": {
            "t": 2.0 * (dex * dchi_x + dey * dchi_y),
            "x": 2.0 * (ex * chi_xx + ey * chi_xy),
            "y": 2.0 * (ex * chi_xy + ey * chi_yy),
        },
        "div": {
            "t": -(dex * dchi_x + dey * dchi_y),
            "x": -(ddex * chi + ex * (2.0 * chi_xx + chi_yy) + ey * chi_xy),
            "y": -(ddey * chi + ey * (2.0 * chi_yy + chi_xx) + ex * chi_xy),
        },
    }


# -- pullback family ---------------------------------------------------------------


@dataclass(eq=False)
class MetricVariation:
    """Displacement pullback sampled on a (nt, nr, ntheta) tensor grid.

    Stores the five nonzero components (gdot_tt = 0 for this family) together
    with the analytic one-forms d(tr gdot) and div(gdot), sampled from the
    separable pullback and checked against stencil differentiation in the
    tests.
    """

    rgrid: RadialGrid
    g_tx: np.ndarray
    g_ty: np.ndarray
    g_xx: np.ndarray
    g_xy: np.ndarray
    g_yy: np.ndarray
    dtr: dict
    div: dict

    @property
    def shape(self):
        return self.g_tx.shape

    def max_abs(self):
        vals = [self.g_tx, self.g_ty, self.g_xx, self.g_xy, self.g_yy]
        vals += [self.dtr[a] for a in ("t", "x", "y")]
        vals += [self.div[a] for a in ("t", "x", "y")]
        return max(float(np.max(np.abs(v))) for v in vals)

    @staticmethod
    def from_displacement(eta_x, eta_y, rgrid, nt, ntheta, cutoff=None):
        """Sample the pullback of the displacement (eta_x, eta_y) * chi."""
        band = max(eta_x.n_modes, 0 if eta_y is None else eta_y.n_modes)
        if nt < 2 * band + 2:
            raise ValueError("t-grid cannot represent the displacement alias-free")
        t = np.arange(nt) * (TWO_PI / nt)
        th = np.arange(ntheta) * (TWO_PI / ntheta)

        def full(field):
            if isinstance(field, dict):
                return {a: full(f) for a, f in field.items()}
            return field.sample(t, rgrid.n_points, th)

        pull = _pullback(eta_x, eta_y, rgrid.r, cutoff)
        return MetricVariation(rgrid=rgrid, **{k: full(f) for k, f in pull.items()})


# -- operator variation -------------------------------------------------------------


_TENSOR_PAIRS = (
    ("t", "x", "g_tx"),
    ("x", "t", "g_tx"),
    ("t", "y", "g_ty"),
    ("y", "t", "g_ty"),
    ("x", "x", "g_xx"),
    ("y", "y", "g_yy"),
    ("x", "y", "g_xy"),
    ("y", "x", "g_xy"),
)


def _variation_pieces(g, plus, minus, grad, clifford):
    """(tensor, trace, divergence) pieces of B(gdot) psi as (plus, minus) pairs.

    Works on any representation with +, scalar and pointwise products: the
    dense tensors of `bg_apply_terms` and the separable terms of the pairing.
    """
    tensor_p, tensor_m = [], []
    for i_axis, j_axis, name in _TENSOR_PAIRS:
        cp, cm = clifford(i_axis, *grad[j_axis])
        tensor_p.append(-0.5 * g[name] * cp)
        tensor_m.append(-0.5 * g[name] * cm)

    def one_form_action(components):
        out_p, out_m = [], []
        for axis in ("t", "x", "y"):
            cp, cm = clifford(axis, plus, minus)
            out_p.append(0.5 * components[axis] * cp)
            out_m.append(0.5 * components[axis] * cm)
        return sum(out_p), sum(out_m)

    return (
        (sum(tensor_p), sum(tensor_m)),
        one_form_action(g["dtr"]),
        one_form_action(g["div"]),
    )


def bg_apply_terms(var, psi):
    """The three pieces tensor, trace and divergence of B(gdot) psi, each a
    SpinorField on the common tensor grid."""
    if var.shape != psi.shape:
        raise ValueError("variation and field live on different grids")
    e_th = np.exp(1j * psi.theta_points()[None, None, :])
    pieces = _variation_pieces(
        vars(var), psi.plus, psi.minus, covariant_gradient(psi),
        lambda axis, p, m: clifford_action(axis, e_th, np.conj(e_th), p, m),
    )
    tensor, trace, divergence = (
        SpinorField(psi.rgrid, p, m) for p, m in pieces
    )
    return SimpleNamespace(tensor=tensor, trace=trace, divergence=divergence)


def bg_apply(var, psi):
    t = bg_apply_terms(var, psi)
    p = t.tensor.plus + t.trace.plus + t.divergence.plus
    m = t.tensor.minus + t.trace.minus + t.divergence.minus
    return SpinorField(psi.rgrid, p, m)


# -- leading field ------------------------------------------------------------------


def leading_term_field(data, rgrid, nt, ntheta=8):
    """Stored components (c(t) r^{1/2} e^{i theta}, d(t) r^{1/2} e^{-i theta}).

    Carries the analytic radial derivative, so downstream stencils never touch
    the r^{1/2} branch behavior.
    """
    band = max(data.c.n_modes, data.d.n_modes)
    if nt < 2 * band + 2:
        raise ValueError("t-grid cannot represent the data alias-free")
    if ntheta < 4:
        raise ValueError("theta grid cannot represent k = +-1 alias-free")
    t = np.arange(nt) * (TWO_PI / nt)
    th = np.arange(ntheta) * (TWO_PI / ntheta)
    c_t = data.c.evaluate(t)[:, None, None]
    d_t = data.d.evaluate(t)[:, None, None]
    root = np.sqrt(rgrid.r)[None, :, None]
    e_th = np.exp(1j * th)[None, None, :]
    plus = c_t * root * e_th
    minus = d_t * root * np.conj(e_th)
    inv_2r = (0.5 / rgrid.r)[None, :, None]
    return SpinorField(rgrid, plus, minus, plus_dr=plus * inv_2r, minus_dr=minus * inv_2r)


def leading_variation(data, eta_x, eta_y, r, cutoff):
    """B(gdot) Phi0 as separable (plus, minus) components on the radii r.

    The separable counterpart of `bg_apply(var, leading_term_field(...))`:
    the same pullback, gradient and Clifford formulas, with every (l, k)
    coefficient exact instead of sampled.
    """
    root = np.sqrt(r)
    plus = Separable([(data.c, root, 0.5 / root, 1)])
    minus = Separable([(data.d, root, 0.5 / root, -1)])
    e_th, e_mth, cos_t, sin_t, inv_r = _factors(r)
    grad = frame_gradient(
        plus, minus, (plus.dt(), minus.dt()), (plus.dr(), minus.dr()),
        (plus.dtheta(), minus.dtheta()), cos_t, sin_t, inv_r,
    )
    pieces = _variation_pieces(
        _pullback(eta_x, eta_y, r, cutoff), plus, minus, grad,
        lambda axis, p, m: clifford_action(axis, e_th, e_mth, p, m),
    )
    return sum(p for p, _ in pieces), sum(m for _, m in pieces)


# -- pairing comparison -------------------------------------------------------------


def _require_real_series(u, name):
    defect = np.max(np.abs(np.conj(u.coeffs[::-1]) - u.coeffs))
    if defect > 1e-12 * max(1.0, np.max(np.abs(u.coeffs))):
        raise ValueError(f"{name} must be a real-valued series (conjugate-symmetric)")


CANDIDATE_CONSTANTS = (-0.75, -1.5)
PAIRING_RADIAL_POINTS = 500
PAIRING_DECAY_BUDGET = 30.0  # |l| r_max: Psi_l has decayed by e^{-30} at the grid edge


def bg_pairing_comparison(data, eta_x, eta_y=None, l_values=(4, 8, 16, 32), cutoff=None):
    """Per-mode pairings <B(gdot) Phi0, Psi_l> against the multiplier prediction.

    Psi_l lives on the single mode (l, k = 0), so the pairing is
    4 pi^2 * int (B_+ + sgn(l) B_-)_{l,0} prof_l r dr, read off the separable
    (l, 0) coefficient of B(gdot) Phi0 with one radial quadrature on a
    geometric grid of PAIRING_RADIAL_POINTS radii out to
    PAIRING_DECAY_BUDGET / |l|. The probes' grids form one row stack, so the
    separable algebra runs once for all of them.

    The prediction is derived for the cutoff-free family; passing a cutoff
    measures how far the compactly supported variation drifts from it (the
    drift is exponentially small in |l| r0).

    The probe displacement must be real-valued and must contain every probe
    mode, otherwise the ratio is undefined.

    Returns the probe l_values, per mode the measured pairing and khat (its
    ratio to the prediction), fitted_constant, candidate_distances,
    closest_candidate, deviation_values (per doubling l -> 2l the change of
    khat), deviation_exponent and max_imag.
    """
    _require_real_series(eta_x, "eta_x")
    if eta_y is not None:
        _require_real_series(eta_y, "eta_y")
        eta = eta_x + eta_y * 1j
    else:
        eta = eta_x
    mult = l_op(data, second_derivative(eta))

    probes = [int(l) for l in l_values]
    base = {}
    for l in probes:
        base[l] = TORUS_AREA * abs(l) ** -1.5 * mult.coeff(l)
        if abs(base[l]) < 1e-14:
            raise ValueError(f"probe mode {l} is absent from the displacement")
    r_max = np.array([PAIRING_DECAY_BUDGET / abs(l) for l in probes])
    if cutoff is not None:
        r_max = np.maximum(r_max, 1.2 * cutoff)
    rgrid = RadialGrid.geometric(r_max, PAIRING_RADIAL_POINTS, r_min_factor=1e-7)
    bp, bm = leading_variation(data, eta_x, eta_y, rgrid.r, cutoff)
    l_col = np.array(probes)[:, None]
    bg_l = ModeSpinor(0, l_col, rgrid, bp.coeff(l_col, 0), bm.coeff(l_col, 0))
    pairings = bg_l.radial_pairing(euclidean_obstruction_mode(probes, rgrid))
    measured, khat = {}, {}
    for l, pairing in zip(probes, pairings):
        m = TORUS_AREA * complex(pairing)
        measured[l], khat[l] = m, m / base[l]

    ls = sorted(khat, key=abs)
    doubling = [(l, 2 * l) for l in ls if 2 * l in khat]
    if doubling:
        lo, hi = doubling[-1]
        fitted = float((2.0 * khat[hi] - khat[lo]).real)
    else:
        fitted = float(khat[ls[-1]].real)

    deviation = {lo: float(abs(khat[hi] - khat[lo])) for lo, hi in doubling}
    exponent = math.nan
    if len(deviation) >= 2 and min(deviation.values()) > 1e-10:
        xs = np.log(np.abs(np.array(sorted(deviation), dtype=float)))
        ys = np.log(np.array([deviation[l] for l in sorted(deviation)]))
        exponent = fit_line(xs, ys)[0]

    distances = {c: abs(fitted - c) for c in CANDIDATE_CONSTANTS}
    closest = min(distances, key=distances.get)
    return SimpleNamespace(
        l_values=tuple(int(l) for l in l_values),
        measured=measured,
        khat=khat,
        fitted_constant=fitted,
        candidate_distances=distances,
        closest_candidate=closest,
        deviation_values=deviation,
        deviation_exponent=exponent,
        max_imag=max(abs(v.imag) for v in khat.values()),
    )
