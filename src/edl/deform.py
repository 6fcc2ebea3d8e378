"""Deformation operators on circle data: the sign-multiplier pair L / L*,
their almost-multiplication defect, the normal-direction operator T with its
fractional symbol, matrix realizations over real coordinates, Fredholm
truncation diagnostics, and the bordered extended system.

Complex series are realized as real matrices on stacked [Re, Im] mode
coordinates because conjugation is anti-linear: every operator here is
real-linear, not complex-linear.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import (
    FourierSeries1D,
    TWO_PI,
    fractional_resolvent,
    hilbert_transform,
    multiply,
    second_derivative,
    sign_with_positive_zero,
)
from .dirac import LeadingData

T_SYMBOL_SCALE = -1.5  # prefactor of T is this times the circumference


# -- real coordinates --------------------------------------------------------------


def real_coords(series):
    return np.concatenate([series.coeffs.real, series.coeffs.imag])


def series_from_real(vec, circumference=TWO_PI):
    vec = np.asarray(vec, dtype=float)
    if vec.size % 2 != 0 or (vec.size // 2) % 2 != 1:
        raise ValueError("expected stacked [Re, Im] coordinates of odd mode count")
    half = vec.size // 2
    return FourierSeries1D(vec[:half] + 1j * vec[half:], circumference)


def _graded_weights(n_modes, m):
    l = np.arange(-n_modes, n_modes + 1, dtype=float)
    w = (1.0 + l * l) ** (m / 2.0)
    return np.concatenate([w, w])


@dataclass(frozen=True, eq=False)
class RealizedOperator:
    """Dense real matrix acting on stacked mode coordinates."""

    matrix: np.ndarray
    n_in: int
    n_out: int
    circumference: float = TWO_PI

    @staticmethod
    def realize(fn, n_in, n_out=None, circumference=TWO_PI):
        """Column-by-column realization of a series map.

        fn must be real-linear on series with modes up to n_in; its output is
        projected onto modes up to n_out. Series arithmetic inside fn is
        exact (products extend the mode range), so composite maps are
        realized without intermediate truncation artifacts.
        """
        if n_out is None:
            n_out = n_in
        dim_in = 2 * (2 * n_in + 1)
        cols = np.zeros((2 * (2 * n_out + 1), dim_in))
        for j, l in enumerate(range(-n_in, n_in + 1)):
            for part, unit in enumerate((1.0, 1.0j)):
                basis = FourierSeries1D.single_mode(l, unit, circumference)
                out = fn(basis).truncate(n_out)
                cols[:, part * (2 * n_in + 1) + j] = real_coords(out)
        return RealizedOperator(cols, n_in, n_out, circumference)

    def apply(self, series):
        series = series.truncate(self.n_in)
        return series_from_real(self.matrix @ real_coords(series), self.circumference)

    def graded_matrix(self, m_out=0.0, m_in=0.0):
        w_out = _graded_weights(self.n_out, m_out)
        w_in = _graded_weights(self.n_in, m_in)
        return (self.matrix * w_out[:, None]) / w_in[None, :]

    def operator_norm(self, m_out=0.0, m_in=0.0):
        return float(np.linalg.norm(self.graded_matrix(m_out, m_in), 2))

    def singular_values(self, m_out=0.0, m_in=0.0):
        return np.linalg.svd(self.graded_matrix(m_out, m_in), compute_uv=False)


# -- the multiplier pair and its defect ----------------------------------------------


def l_op(data, xi):
    """L xi = H(c xi) - conj(xi) d."""
    return hilbert_transform(multiply(data.c, xi)) - multiply(xi.conjugate(), data.d)


def l_star(data, xi):
    """L* xi = conj(c) H(xi) - d conj(xi); the formal adjoint of L in l^2."""
    return multiply(data.c.conjugate(), hilbert_transform(xi)) - multiply(
        data.d, xi.conjugate()
    )


def ll_star_defect_operator(data, n_modes):
    """Exact truncation P_N (L L* - (|c|^2 + |d|^2)) P_N as a real matrix.

    The composition is evaluated with exact series products before the final
    projection; truncating between L* and L instead would inject spurious
    boundary terms that grow with N.
    """
    mod2 = data.modulus_squared_series()

    def fn(xi):
        return l_op(data, l_star(data, xi)) - multiply(mod2, xi)

    return RealizedOperator.realize(fn, n_modes, n_modes, data.circumference)


def commutator_with_sign_multiplier(a_series, n_modes, n_out=None):
    """[H, a] xi = H(a xi) - a H(xi), realized exactly.

    Its matrix in mode coordinates is a_{l'-l} (sgn l' - sgn l): entries live
    only on sign-straddling pairs, so the operator has finite rank and gains
    one full degree of smoothness.
    """
    n_out = n_out if n_out is not None else n_modes + a_series.n_modes

    def fn(xi):
        return hilbert_transform(multiply(a_series, xi)) - multiply(
            a_series, hilbert_transform(xi)
        )

    return RealizedOperator.realize(fn, n_modes, n_out, a_series.circumference)


def commutator_mode_entry(a_series, l_out, l_in):
    """Closed-form complex entry a_{l_out - l_in} (sgn l_out - sgn l_in)."""
    m = l_out - l_in
    a_m = a_series.coeff(m) if abs(m) <= a_series.n_modes else 0.0
    s = sign_with_positive_zero(np.array([l_out]))[0] - sign_with_positive_zero(
        np.array([l_in])
    )[0]
    return a_m * s


# -- the normal-direction operator ----------------------------------------------------


def t_op(data, eta):
    """T eta = (T_SYMBOL_SCALE * L) R_{3/4} L(eta''), the normal-direction map.

    R_{3/4} is the fractional resolvent (l^2+1)^{-3/4}; eta'' uses angular
    frequencies, so at circumference 2 pi a single mode e^{i l t} with l > 0
    and flat data (c, d) = (1, 0) returns 3 pi l^2 (l^2+1)^{-3/4} e^{i l t}.
    """
    scale = T_SYMBOL_SCALE * data.circumference
    return fractional_resolvent(
        l_op(data, second_derivative(eta)), 0.75
    ) * scale


def realize_t(data, n_modes, n_out=None):
    return RealizedOperator.realize(
        lambda eta: t_op(data, eta), n_modes, n_out, data.circumference
    )


@dataclass
class RegularityLossReport:
    n_values: np.ndarray
    norms_2_to_2: np.ndarray
    norms_2_to_32: np.ndarray
    exponent_2_to_2: float
    exponent_2_to_32: float


def loss_of_regularity_profile(data, n_values=(12, 24, 48, 96)):
    """Truncation growth of T between grading levels.

    T costs half a derivative: the 2 -> 2 truncation norms grow like N^{1/2}
    while the 2 -> 3/2 norms stay bounded. Exponents are log-log slopes.
    """
    n_values = np.asarray(sorted(n_values))
    n22, n232 = [], []
    for n in n_values:
        op = realize_t(data, int(n), int(n))
        n22.append(op.operator_norm(2.0, 2.0))
        n232.append(op.operator_norm(1.5, 2.0))
    n22, n232 = np.array(n22), np.array(n232)
    logn = np.log(n_values.astype(float))
    e22 = float(np.polyfit(logn, np.log(n22), 1)[0])
    e232 = float(np.polyfit(logn, np.log(n232), 1)[0])
    return RegularityLossReport(n_values, n22, n232, e22, e232)


# -- Fredholm truncation diagnostics ---------------------------------------------------


@dataclass
class FredholmReport:
    truncations: tuple
    kernel_dims: tuple
    singular_gaps: tuple
    kernel_dim: int
    index: int
    stable: bool
    flagged: bool


def fredholm_diagnostics(fn, truncations=(16, 24, 32), m_out=0.0, m_in=0.0,
                         circumference=TWO_PI, rel_threshold=1e-8):
    """Kernel/cokernel count of square graded truncations with a stability vote.

    A square truncation has equal kernel and cokernel rank deficiency, so the
    reported index is 0 whenever the kernel dimension is stable across the
    three truncations; an unstable count is flagged instead of averaged.
    singular_gaps records the smallest singular value above the near-zero
    cluster, the margin the count rests on.
    """
    dims, gaps = [], []
    for n in truncations:
        op = RealizedOperator.realize(fn, int(n), int(n), circumference)
        sv = op.singular_values(m_out, m_in)
        top = sv[0] if sv.size else 1.0
        near_zero = sv < rel_threshold * max(top, 1e-300)
        dims.append(int(np.sum(near_zero)))
        above = sv[~near_zero]
        gaps.append(float(above[-1] / top) if above.size else 0.0)
    stable = len(set(dims)) == 1
    kernel = dims[-1]
    return FredholmReport(
        truncations=tuple(int(n) for n in truncations),
        kernel_dims=tuple(dims),
        singular_gaps=tuple(gaps),
        kernel_dim=kernel,
        index=0,
        stable=stable,
        flagged=not stable,
    )


# -- the bordered extended system -------------------------------------------------------


def obstruction_direction_series(data, n_modes, z0=1.0):
    """phi_l = 2 pi z0 |l|^{-3/2} (c_l + sgn(l) d_l) on modes l != 0.

    This is the leading pairing of the family against the data's first-order
    variation; constant data makes it vanish identically.
    """
    modes = {}
    for l in range(-n_modes, n_modes + 1):
        if l == 0:
            continue
        c_l = data.c.coeff(l) if abs(l) <= data.c.n_modes else 0.0
        d_l = data.d.coeff(l) if abs(l) <= data.d.n_modes else 0.0
        val = TWO_PI * z0 * abs(l) ** (-1.5) * (c_l + (1.0 if l >= 0 else -1.0) * d_l)
        if val != 0.0:
            modes[l] = val
    return FourierSeries1D.from_modes(modes, data.circumference, n_modes=n_modes)


def _mean_zero_indices(n_modes):
    dim = 2 * n_modes + 1
    keep = [j for j in range(dim) if j != n_modes]          # drop mode 0, Re block
    keep += [dim + j for j in range(dim) if j != n_modes]   # drop mode 0, Im block
    return np.array(keep)


@dataclass(eq=False)
class ExtendedSystem:
    """Bordered realization [[T, col], [row, 0]] on mean-zero coordinates.

    Constant translations (mode 0 of eta) are gauge and the family carries no
    mode-0 member, so both the domain and the codomain are projected to mean
    zero; the lost pair of directions is replaced by one scalar unknown
    lambda with column -phi and one normalization row <., phi>.
    """

    data: LeadingData
    n_modes: int
    z0: float
    matrix: np.ndarray
    phi: FourierSeries1D

    @staticmethod
    def from_data(data, n_modes, z0=1.0):
        phi = obstruction_direction_series(data, n_modes, z0)
        phi_vec = real_coords(phi)
        keep = _mean_zero_indices(n_modes)
        col = -phi_vec[keep]
        if np.max(np.abs(col)) < 1e-14:
            raise ValueError(
                "degenerate bordering: the data has no nonconstant modes"
            )
        t_mat = realize_t(data, n_modes, n_modes).matrix[np.ix_(keep, keep)]
        dim = keep.size
        big = np.zeros((dim + 1, dim + 1))
        big[:dim, :dim] = t_mat
        big[:dim, dim] = col
        big[dim, :dim] = phi_vec[keep]
        return ExtendedSystem(data, n_modes, z0, big, phi)

    def solve(self, g_series):
        """Solve T eta + lambda col = g on mean-zero modes with <eta, phi> = 0."""
        g = real_coords(g_series.truncate(self.n_modes))
        keep = _mean_zero_indices(self.n_modes)
        rhs = np.concatenate([g[keep], [0.0]])
        sol = np.linalg.solve(self.matrix, rhs)
        residual = float(np.linalg.norm(self.matrix @ sol - rhs))
        eta_vec = np.zeros(2 * (2 * self.n_modes + 1))
        eta_vec[keep] = sol[:-1]
        eta = series_from_real(eta_vec, self.data.circumference)
        return eta, float(sol[-1]), residual
