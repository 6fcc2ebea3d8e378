"""Deformation operators on circle data: the sign-multiplier pair L / L*,
their almost-multiplication defect, the normal-direction operator T with its
fractional symbol, matrix realizations over real coordinates, Fredholm
truncation diagnostics, and the bordered extended system.

Complex series are realized as real matrices because conjugation is
anti-linear: every operator here is real-linear, not complex-linear.  Real
coordinates follow one order, the band order: modes 0, 1, -1, 2, -2, ...
with Re and Im interleaved, so truncations are leading principal blocks of
one another, read with their Gram matrices off one operator built at the
widest (Truncation).  Each operator is xi -> A xi + B conj(xi) with A_lm =
w a_{l-m} Toeplitz and B_lm = w b_{l+m} Hankel in data series a, b and a
weight w of l and m; in the band order both lie within 4 band + 3 of the
diagonal, so L and T of band-3 data have half-bandwidth 15 and their Gram
matrices G^T G 27.  Each operator is held as that band, gathered straight
from the data coefficients.  The dense matrix, expanded on first use, and
probing a series map with unit vectors (RealizedOperator.realize) are the
test oracles these assemblies are checked against; no command reads them.

Operator norms are the top eigenvalue of the banded Gram, bracketed to
adjacent floats by banded Choleskys of t I - G^T G whose shifts come from
shift-and-invert Lanczos runs (bandeig.py).  Kernel counts do not square:
with JW = [[0, L], [L^T, 0]], whose eigenvalues are +-sigma, #{sigma < tau}
= nu_-(JW - tau I) - n, and nu_- is summed over the pivot blocks of a block
LDL^T of the block-tridiagonal JW (Haynsworth inertia additivity).  The
Fredholm diagnostics read two values of each truncation's Gram, sigma_max^2
and sigma_{k+1}^2, from a short certified Lanczos run (bandeig.py),
warm-started from the previous truncation's Ritz vectors.  The dense SVD
stays as their test oracle.  The bordered system is written into T's
band and solved by banded LU.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .series import (
    FourierSeries1D,
    TWO_PI,
    fit_line,
    fractional_resolvent,
    hilbert_transform,
    multiply,
    second_derivative,
    sgn,
)
from .dirac import LeadingData
from .bandeig import certified_spectrum, top_eigenvalue
from .lapack import dgbsv, dsytrf, dsytrs

T_SYMBOL_SCALE = -1.5 * TWO_PI  # prefactor of T: -3/2 times the circle's length
MIN_PIVOT_BLOCK = 16  # side floor of the inertia count's blocks: few, short loop steps


# -- real coordinates in the band order ---------------------------------------------


def _modes(n_modes):
    """Mode of each real coordinate: 0, 0, 1, 1, -1, -1, 2, 2, ... (Re, Im)."""
    k = np.arange(2 * (2 * n_modes + 1)) // 2
    return np.where(k % 2 == 1, (k + 1) // 2, -(k // 2))


def real_coords(series):
    c = series.coeffs[_modes(series.n_modes) + series.n_modes]
    return np.where(np.arange(c.size) % 2 == 1, c.imag, c.real)


def series_from_real(vec):
    vec = np.asarray(vec, dtype=float)
    if vec.size % 2 != 0 or (vec.size // 2) % 2 != 1:
        raise ValueError("expected Re/Im coordinate pairs of an odd mode count")
    n = vec.size // 4
    coeffs = np.empty(2 * n + 1, dtype=complex)
    coeffs[_modes(n)[::2] + n] = vec[0::2] + 1j * vec[1::2]
    return FourierSeries1D(coeffs)


def _graded_weights(n_modes, m):
    l = _modes(n_modes).astype(float)
    return (1.0 + l * l) ** (m / 2.0)


def _window(n_in, n_out, kd):
    """Row indices of the windows win[t, q] = M[q - kd + t, q] of a matrix M
    from modes |m| <= n_in onto |l| <= n_out, clipped to M, and whether each
    entry lies inside M.
    """
    n_rows = 2 * (2 * n_out + 1)
    offset = np.arange(-kd, kd + 1)[:, None] + np.arange(2 * (2 * n_in + 1))[None, :]
    inside = (offset >= 0) & (offset < n_rows)
    return np.clip(offset, 0, n_rows - 1), inside


def _coeff(a, k):
    """a_k at each integer of the array k, zero outside a's band."""
    reach = int(np.abs(k).max())
    return a.truncate(reach).coeffs[k + reach]


def _assemble(n_in, n_out, band, entries):
    """Windows of xi -> A xi + B conj(xi), conj taken entrywise, from modes
    |m| <= n_in onto |l| <= n_out; entries(l, m) gives (A_lm, B_lm) at
    arrays of modes, both zero unless |l - m| <= band or |l + m| <= band.
    """
    widest = 2 * (2 * max(n_in, n_out) + 1) - 1
    rows, inside = _window(n_in, n_out, min(4 * band + 3, widest))
    a, b = entries(_modes(n_out)[rows], _modes(n_in))
    re_in = np.arange(rows.shape[1]) % 2 == 0
    win = np.where(
        rows % 2 == 0,
        np.where(re_in, np.add(a.real, b.real), np.subtract(b.imag, a.imag)),
        np.where(re_in, np.add(a.imag, b.imag), np.subtract(a.real, b.real)),
    )
    return np.where(inside, win, 0.0)


def _by_row(weights, win):
    """weights[row] at each entry of the windows win, rows clipped as _window clips them."""
    kd, n = len(win) // 2, win.shape[1]
    padded = np.concatenate((np.full(kd, weights[0]), weights, np.full(kd + n, weights[-1])))
    return as_strided(padded, (2 * kd + 1, n), padded.strides * 2, writeable=False)


@dataclass(frozen=True, eq=False)
class RealizedOperator:
    """Real matrix M on band-order coordinates, held as its band win[t, q] =
    M[q - kd + t, q], kd = len(win) // 2, zero outside M: LAPACK's band
    storage.  A matrix of unknown structure has kd spanning the whole matrix.
    """

    win: np.ndarray
    n_in: int
    n_out: int

    @staticmethod
    def from_matrix(matrix, n_in, n_out):
        """The band of a dense matrix of unknown structure."""
        rows, inside = _window(n_in, n_out, max(matrix.shape) - 1)
        win = np.where(inside, matrix[rows, np.arange(rows.shape[1])], 0.0)
        return RealizedOperator(win, n_in, n_out)

    @staticmethod
    def realize(fn, n_in, n_out=None):
        """Column-by-column realization of a series map by unit-vector probes.

        fn must be real-linear on series with modes up to n_in; its output is
        projected onto modes up to n_out. Series arithmetic inside fn is
        exact (products extend the mode range), so composite maps are
        realized without intermediate truncation artifacts.  This is the
        test oracle for the closed-form assemblies below.
        """
        if n_out is None:
            n_out = n_in
        modes = _modes(n_in)
        cols = np.zeros((2 * (2 * n_out + 1), modes.size))
        for j, l in enumerate(modes):
            basis = FourierSeries1D.from_modes({int(l): (1.0, 1.0j)[j % 2]})
            cols[:, j] = real_coords(fn(basis).truncate(n_out))
        return RealizedOperator.from_matrix(cols, n_in, n_out)

    @cached_property
    def matrix(self):
        """The dense matrix, expanded from the band on first use."""
        rows, inside = _window(self.n_in, self.n_out, len(self.win) // 2)
        out = np.zeros((2 * (2 * self.n_out + 1), rows.shape[1]))
        out[rows[inside], np.nonzero(inside)[1]] = self.win[inside]
        return out

    def gram_band(self, m_out=0.0, m_in=0.0):
        """G^T G of the graded matrix G = W_out M W_in^{-1} in lower band
        storage over the band order: entry [s, q] is (G^T G)[q + s, q].

        Diagonal s of the Gram sums win[t, q] win[t - s, q + s] over the rows
        the two windows share; diagonals that come out zero are dropped, into
        an array of their own.  Columns that _known_gram already holds, all
        but the last width, are copied from it.
        """
        known = self._known_gram(m_out, m_in)
        if known.shape[1] == self.win.shape[1]:
            return known
        w_out = _by_row(_graded_weights(self.n_out, m_out), self.win)
        win = self.win * w_out / _graded_weights(self.n_in, m_in)
        width, n = win.shape
        start = max(min(known.shape[1], n) - width, 0)
        ab = np.zeros((min(width, n), n))
        ab[:len(known), :start] = known[:len(ab), :start]
        for shift in range(ab.shape[0]):
            ab[shift, start:n - shift] = np.einsum(
                "tq,tq->q", win[shift:, start:n - shift], win[:width - shift, start + shift:]
            )
        used = np.flatnonzero(ab.any(axis=1))
        return ab[: used[-1] + 1 if used.size else 1].copy()

    def _known_gram(self, m_out, m_in):
        """A Gram that holds all but the last columns of this one's: none (see Truncation)."""
        return np.zeros((0, 0))

    @cached_property
    def _last_gram(self):
        """{grading: gram_band} of the last grading that a Truncation read."""
        return {}

    def leading(self, n_modes):
        """The square truncation to modes |l|, |m| <= n_modes: a leading block
        in the band order, with the band width an assembly at n_modes has."""
        kd = len(self.win) // 2
        cut = min(kd, 4 * n_modes + 1)  # an assembly's cap, 2(2 n_modes + 1) - 1
        rows, inside = _window(n_modes, n_modes, cut)
        win = np.where(inside, self.win[kd - cut:kd + cut + 1, :rows.shape[1]], 0.0)
        return Truncation(win, n_modes, n_modes, self)

    def operator_norm(self, m_out=0.0, m_in=0.0):
        """sigma_max of the graded matrix: the square root of the top
        eigenvalue of its banded Gram, certified to adjacent floats by banded
        Choleskys (bandeig.top_eigenvalue)."""
        return float(np.sqrt(top_eigenvalue(self.gram_band(m_out, m_in))[0]))

    def count_singular_values_below(self, tau):
        """#{sigma < tau} for a square operator, without squaring sigma.

        JW = [[0, L], [L^T, 0]] has eigenvalues +-sigma_i, so nu_-(JW - tau I)
        = n + #{sigma < tau}.  Blocks pair the rows and columns of L at the
        same band positions, which makes JW block tridiagonal, and nu_- is
        the sum of the negative eigenvalues of the pivot blocks of its block
        LDL^T, each counted from its Bunch-Kaufman factors (a 2x2 pivot has
        one negative eigenvalue).  The last block is padded with zero rows
        and columns of L; each pad adds a zero singular value to L and two
        eigenvalues -tau to JW - tau I, which the count removes.
        """
        if self.n_in != self.n_out:
            raise ValueError("singular value counts need a square operator")
        kd, n = len(self.win) // 2, self.win.shape[1]
        size = max(kd, MIN_PIVOT_BLOCK)
        blocks = -(-n // size)
        pad = blocks * size - n
        r = np.arange(blocks * size).reshape(blocks, size)
        c = r[:, :1] - size + np.arange(3 * size)  # blocks m-1, m, m+1
        t = r[:, :, None] - c[:, None, :] + kd  # window row of entry (r, c)
        keep = (r < n)[:, :, None] & ((c >= 0) & (c < n))[:, None, :]
        keep &= (t >= 0) & (t <= 2 * kd)
        src = self.win[np.clip(t, 0, 2 * kd), np.clip(c, 0, n - 1)[:, None, :]]
        slab = np.where(keep, src, 0.0)
        # block m of JW - tau I on [rows of L; columns of L] at its positions,
        # and its coupling to block m + 1
        diag = np.zeros((blocks, 2 * size, 2 * size))
        diag[:, :size, size:] = slab[:, :, size:2 * size]
        diag[:, size:, :size] = slab[:, :, size:2 * size].transpose(0, 2, 1)
        diag -= tau * np.eye(2 * size)
        upper = np.zeros((blocks - 1, 2 * size, 2 * size))
        upper[:, :size, size:] = slab[:-1, :, 2 * size:]
        upper[:, size:, :size] = slab[1:, :, :size].transpose(0, 2, 1)
        schur, negative = 0.0, 0
        for m in range(blocks):
            ldu, ipiv, info = dsytrf(diag[m] - schur, lower=1)
            if info > 0:
                raise np.linalg.LinAlgError(f"singular pivot block at shift {tau:.3e}")
            negative += int(np.count_nonzero(np.diag(ldu)[ipiv > 0] < 0))
            negative += int(np.count_nonzero(ipiv < 0)) // 2
            if m + 1 < blocks:
                schur = upper[m].T @ dsytrs(ldu, ipiv, upper[m], lower=1)[0]
        return negative - n - 2 * pad

    def singular_values(self):
        """All singular values by dense SVD: the test oracle for the banded
        spectral diagnostics."""
        return np.linalg.svd(self.matrix, compute_uv=False)


@dataclass(frozen=True, eq=False)
class Truncation(RealizedOperator):
    """A leading block of whole.  Its window and its Gram at a grading hold
    the floats of an assembly at its size: the Gram is whole's, which whole
    keeps for the last grading read, but for the last width columns, where
    the block drops rows, summed afresh by the same loop."""

    whole: RealizedOperator

    def _known_gram(self, m_out, m_in):
        memo = self.whole._last_gram
        if (m_out, m_in) not in memo:
            memo.clear()
            memo[m_out, m_in] = self.whole.gram_band(m_out, m_in)
            memo[m_out, m_in].setflags(write=False)  # the widest block reads it as its own
        return memo[m_out, m_in]


# -- the multiplier pair and its defect ----------------------------------------------


def l_op(data, xi):
    """L xi = H(c xi) - conj(xi) d."""
    return hilbert_transform(multiply(data.c, xi)) - multiply(xi.conjugate(), data.d)


def l_star(data, xi):
    """L* xi = conj(c) H(xi) - d conj(xi); the formal adjoint of L in l^2."""
    return multiply(data.c.conjugate(), hilbert_transform(xi)) - multiply(
        data.d, xi.conjugate()
    )


def realize_l(data, n_modes, n_out=None):
    """L xi = A xi + B conj(xi) from modes |m| <= n_modes onto |l| <= n_out.

    A_lm = sgn(l) c_{l-m} and B_lm = -d_{l+m}.
    """
    n_out = n_modes if n_out is None else n_out

    def entries(l, m):
        return _coeff(data.c, l - m) * sgn(l), _coeff(data.d, l + m) * -1.0

    win = _assemble(n_modes, n_out, max(data.c.n_modes, data.d.n_modes), entries)
    return RealizedOperator(win, n_modes, n_out)


def ll_star_defect_operator(data, n_modes):
    """Exact truncation P_N (L L* - (|c|^2 + |d|^2)) P_N as a real matrix.

    Composed through every mode L* reaches, L L* = S Toep(|c|^2) S + Toep(|d|^2)
    - (S Hank(c d) + Hank(c d) S) conj with S = diag(sgn), so the defect has
    entries (|c|^2)_{l-m} (s_l s_m - 1) on xi and -(c d)_{l+m} (s_l + s_m) on
    conj(xi). Built from these, it is not the difference of two operators of
    size |c|^2 and keeps its relative accuracy where it is small. Truncating
    between L* and L at N instead would inject spurious boundary terms that
    grow with N.
    """
    mod2, cd = multiply(data.c, data.c.conjugate()), multiply(data.c, data.d)

    def entries(l, m):
        s_l, s_m = sgn(l), sgn(m)
        return _coeff(mod2, l - m) * (s_l * s_m - 1.0), _coeff(cd, l + m) * -(s_l + s_m)

    win = _assemble(n_modes, n_modes, max(mod2.n_modes, cd.n_modes), entries)
    return RealizedOperator(win, n_modes, n_modes)


def commutator_with_sign_multiplier(a_series, n_modes):
    """[H, a] xi = H(a xi) - a H(xi), realized exactly onto the modes
    |l| <= n_modes + band(a) that it reaches.

    Its matrix in mode coordinates is a_{l'-l} (sgn l' - sgn l): entries live
    only on sign-straddling pairs, so the operator has finite rank and gains
    one full degree of smoothness.
    """
    n_out = n_modes + a_series.n_modes

    def entries(l, m):
        sign = sgn(l) - sgn(m)
        return _coeff(a_series, l - m) * sign, 0.0

    win = _assemble(n_modes, n_out, a_series.n_modes, entries)
    return RealizedOperator(win, n_modes, n_out)


# -- the normal-direction operator ----------------------------------------------------


def t_op(data, eta):
    """T eta = T_SYMBOL_SCALE R_{3/4} L(eta''), the normal-direction map.

    R_{3/4} is the fractional resolvent (l^2+1)^{-3/4}, so a single mode
    e^{i l t} with l > 0 and flat data (c, d) = (1, 0) returns
    3 pi l^2 (l^2+1)^{-3/4} e^{i l t}.
    """
    return fractional_resolvent(l_op(data, second_derivative(eta)), 0.75) * T_SYMBOL_SCALE


def realize_t(data, n_modes, n_out=None):
    """T as L with columns scaled by -m^2 and rows by T_SYMBOL_SCALE (l^2+1)^{-3/4}."""
    n_out = n_modes if n_out is None else n_out
    win = realize_l(data, n_modes, n_out).win
    l_out = _modes(n_out).astype(float)
    win *= _by_row(T_SYMBOL_SCALE * (l_out**2 + 1.0) ** (-0.75), win)
    win *= -_modes(n_modes).astype(float) ** 2
    return RealizedOperator(win, n_modes, n_out)


def loss_of_regularity_profile(data, n_values=(12, 24, 48, 96)):
    """Truncation growth of T between grading levels.

    T costs half a derivative: the 2 -> 2 truncation norms grow like N^{1/2}
    while the 2 -> 3/2 norms stay bounded. Exponents are log-log slopes.

    Returns the sorted n_values, norms_2_to_2, norms_2_to_32,
    exponent_2_to_2 and exponent_2_to_32.
    """
    n_values = np.asarray(sorted(n_values))
    whole = realize_t(data, int(n_values[-1]))
    # one grading after the other, so that whole keeps one Gram at a time
    n22, n232 = (np.array([whole.leading(int(n)).operator_norm(m_out, 2.0) for n in n_values])
                 for m_out in (2.0, 1.5))
    logn = np.log(n_values.astype(float))
    e22 = fit_line(logn, np.log(n22))[0]
    e232 = fit_line(logn, np.log(n232))[0]
    return SimpleNamespace(
        n_values=n_values, norms_2_to_2=n22, norms_2_to_32=n232,
        exponent_2_to_2=e22, exponent_2_to_32=e232,
    )


# -- Fredholm truncation diagnostics ---------------------------------------------------


KERNEL_REL_THRESHOLD = 1e-8  # singular values below this times sigma_max count as kernel
def fredholm_diagnostics(data, truncations=(16, 24, 32)):
    """Kernel/cokernel count of square truncations of L with a stability vote.

    A square truncation has equal kernel and cokernel rank deficiency, so the
    reported index is 0 whenever the kernel dimension is stable across the
    three truncations; an unstable count is reported as not stable instead
    of averaged. The kernel is #{sigma < KERNEL_REL_THRESHOLD sigma_max},
    certified empty or counted, and singular_gaps records sigma_{k+1} / sigma_max,
    the margin the count rests on: both values are certified Lanczos
    estimates (certified_spectrum), each truncation warm-started from the
    Ritz vectors of the one before.

    Returns truncations, kernel_dims and singular_gaps (one per truncation),
    kernel_dim (the last count), index and stable.
    """
    dims, gaps, warm = [], [], None
    whole = realize_l(data, int(max(truncations)))
    for n in truncations:
        sigma_max, kernel, sigma_next, warm = certified_spectrum(
            whole.leading(int(n)), KERNEL_REL_THRESHOLD, warm
        )
        dims.append(kernel)
        gaps.append(sigma_next / sigma_max)
    return SimpleNamespace(
        truncations=tuple(int(n) for n in truncations),
        kernel_dims=tuple(dims),
        singular_gaps=tuple(gaps),
        kernel_dim=dims[-1],
        index=0,
        stable=len(set(dims)) == 1,
    )


# -- the bordered extended system -------------------------------------------------------


def obstruction_direction_series(data, n_modes):
    """phi_l = 2 pi |l|^{-3/2} (c_l + sgn(l) d_l) on modes l != 0.

    This is the leading pairing of the family against the data's first-order
    variation; constant data makes it vanish identically.  Modes beyond the
    data's band are zero and not visited.
    """
    reach = min(max(data.c.n_modes, data.d.n_modes), n_modes)
    modes = {}
    for l in range(-reach, reach + 1):
        if l == 0:
            continue
        val = TWO_PI * abs(l) ** (-1.5) * (data.c.coeff(l) + sgn(l) * data.d.coeff(l))
        if val != 0.0:
            modes[l] = val
    return FourierSeries1D.from_modes(modes, n_modes)


@dataclass(eq=False)
class ExtendedSystem:
    """Bordered realization of T, held in T's band.

    Constant translations (mode 0 of eta) are gauge and the family carries no
    mode-0 member.  T scales column m by -m^2, so both mode-0 columns vanish
    and the mode-0 pair of slots, band positions 0 and 1, is free: the Re slot holds
    the scalar unknown lambda, with column -phi and the normalization row
    <., phi> in place of T's Re mode-0 row, and the Im row pins its slot to
    zero.  phi lives on the data's modes |l| <= b, positions <= 4 b + 1, so
    the bordering fits inside T's half-bandwidth 4 b + 3.
    """

    data: LeadingData
    n_modes: int
    operator: RealizedOperator
    phi: FourierSeries1D

    @staticmethod
    def from_data(data, n_modes):
        phi = obstruction_direction_series(data, n_modes)
        phi_vec = real_coords(phi)
        if np.max(np.abs(phi_vec)) < 1e-14:
            raise ValueError(
                "degenerate bordering: the data has no nonconstant modes"
            )
        op = realize_t(data, n_modes, n_modes)
        kd, n = len(op.win) // 2, op.win.shape[1]
        assert not phi_vec[kd + 1:].any(), "phi reaches outside T's band"

        def put(i, j, value):  # M[i, j] = value
            op.win[kd + i - j, j] = value

        reach = np.arange(kd + 1)
        put(reach, 0, -phi_vec[:kd + 1])
        put(0, reach, phi_vec[:kd + 1])
        put(1, np.arange(min(kd + 2, n)), 0.0)
        put(1, 1, 1.0)
        return ExtendedSystem(data, n_modes, op, phi)

    def solve(self, g_series):
        """(eta, lambda) with T eta - lambda phi = g off mode 0 and
        <eta, phi> = 0; g's mode-0 pair, whose rows carry the bordering, is
        not read.
        """
        rhs = real_coords(g_series.truncate(self.n_modes))
        rhs[:2] = 0.0
        win = self.operator.win
        kd = len(win) // 2
        lu = np.zeros((3 * kd + 1, win.shape[1]))  # kd more rows for dgbsv's fill-in
        lu[kd:] = np.asarray_chkfinite(win)
        sol, info = dgbsv(kd, kd, lu, np.asarray_chkfinite(rhs), overwrite_ab=1)[2:]
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        lam = float(sol[0])
        sol[0] = 0.0
        return series_from_real(sol), lam
