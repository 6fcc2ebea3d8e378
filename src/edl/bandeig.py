"""Extreme eigenvalues of symmetric band matrices in LAPACK's lower band
storage ab, ab[s, q] = G[q + s, q]: the Gram matrices G = M^T M of the banded
circle operators of deform.py, and band_norm for the family's weighted Gram.

A banded Cholesky (dpbtrf) of t I - G factors exactly when t lies above the
spectrum (Sylvester inertia): an upper end of a bracket on the top where it
succeeds, a lower end where it fails.  top_eigenvalue closes that bracket to
adjacent floats by shift-and-invert, each factor also driving a short Lanczos
run on (t I - G)^{-1} whose top Ritz pair, extracted once, places the next
shift.  certified_spectrum reads sigma_max and sigma_{k+1} of an operator
from a Lanczos run on the band and certifies each: an end by one Cholesky
shifted just past it, an interior sigma_{k+1} by two inertia counts, and
k = 0 by the Cholesky below the lowest end once its shift lies above
threshold^2 sigma_max^2 (Parlett, The Symmetric Eigenvalue Problem; Golub &
Van Loan 8.4 and 10.1).
"""
from __future__ import annotations

import math
import random

import numpy as np

from .lapack import dpbtrf, dsbevx, dsbmv, dstemr, dstev, dtbsv
from .util import uniform

EPS = np.finfo(float).eps
# rounding allowance of a Gram Ritz value and of the shifted Cholesky that
# certifies it, times lambda_max; also the residual a Ritz pair converges to
GRAM_EIGEN_SLACK = 16 * EPS
LANCZOS_MAX_STEPS = 128  # rows of the Lanczos basis; the bracket refinement covers a cut run
INVERSE_STEPS = 6  # Lanczos steps on (t I - G)^{-1} per factorization that succeeds


def _positive_definite(ab, sign, shift):
    """Whether sign (G - shift I) is positive definite, that is whether a
    banded Cholesky (dpbtrf) factors it, for G in lower band storage ab."""
    shifted = sign * ab
    shifted[0] -= sign * shift
    return dpbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0


def top_eigenvalue(ab):
    """(t, lo), the top eigenvalue of G in lower band storage ab between
    adjacent floats, lo < lambda_max <= t: t I - G factors at t, and lo is
    certified by a failed factorization or a diagonal entry.

    The first shift is the Gershgorin bound.  Each shift t that factors runs
    INVERSE_STEPS Lanczos steps on (t I - G)^{-1} by solves with its factor,
    from the last Ritz vector (a fixed pseudo-random one at first).
    The top Ritz pair (nu, residual bound r) puts the top above
    e = t - 1/nu and estimates it from above by u = t - 1/(nu + r); the next
    shift is u + (u - e) if that goes at least halfway from t to e.  Once u
    and e agree to about two floats, shifts step out from e by one float,
    doubling, until the ends are adjacent; any other step bisects.  A
    diagonal entry equal to the Gershgorin bound is the top and is returned
    as both ends.
    """
    kd = ab.shape[0] - 1
    row_sums = np.abs(ab[0])
    for shift in range(1, kd + 1):
        row_sums[shift:] += np.abs(ab[shift, :-shift])
        row_sums[:-shift] += np.abs(ab[shift, :-shift])
    lo, hi = float(ab[0].max()), float(row_sums.max())
    if not lo < hi:
        return hi, lo
    x = uniform(random.Random(0), -1.0, 1.0, ab.shape[1])
    negated = np.negative(ab, order="F")
    shifted = np.empty_like(negated)  # dpbtrf factors it in place
    t, step = hi, None  # step: set once the estimate is settled
    while True:
        np.copyto(shifted, negated)
        shifted[0] += t
        factor, info = dpbtrf(shifted, lower=1, overwrite_ab=1)
        if info:
            lo = t
        else:
            hi = t
        if not lo < 0.5 * (lo + hi) < hi:
            return hi, lo
        if step is not None:
            t = hi - step if t == hi else lo + step
            step *= 2
        elif not info:
            (nu, resid, x), _ = _lanczos(  # L^{-T} L^{-1} v, as dpbtrs would
                lambda v: dtbsv(kd, factor, dtbsv(kd, factor, v, lower=1), lower=1, trans=1),
                x, False, INVERSE_STEPS,
            )
            if 3 * resid < nu:
                below, above = t - 1.0 / nu, t - 1.0 / (nu + resid)
                if above - below <= 2 * EPS * abs(above):
                    step = 0.75 * EPS * abs(below)  # one float, rounded
                    t = max(min(below, hi - step), lo + step)
                else:
                    t = above + (above - below)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)


def band_norm(ab):
    """max |lambda| of the symmetric matrix in lower band storage ab, from its
    lowest and top eigenvalues: dsbevx reduces the band to tridiagonal form
    and bisects by Sturm counts to the eigenvalue of the one requested index."""
    n = ab.shape[1]
    ends = [dsbevx(ab[:n], 0.0, 0.0, i, i, compute_v=0, range=2, lower=1,
                   abstol=2 * np.finfo(float).tiny, overwrite_ab=0) for i in (1, n)]
    if any(info or found != 1 for _, _, found, _, info in ends):
        raise np.linalg.LinAlgError("dsbevx found no eigenvalue")
    return max(-ends[0][0][0], ends[1][0][0])


def _lanczos(matvec, start, lowest, max_steps=LANCZOS_MAX_STEPS):
    """The top Ritz pair of a symmetric operator applied by matvec and, if
    lowest, its lowest pair above the kernel (else None), each (value,
    residual bound, vector), from a Lanczos run with full reorthogonalization
    started at start.

    dstev finds the Ritz values, values only, and dstemr the tridiagonal
    problem's eigenvectors s of the wanted ones by index: if lowest at steps
    2, 3, ..., 8, 10, 12, 15, ... (a quarter more each time), else once, at
    the last step.  The run stops once the residual bounds |beta_j s_j| are
    within GRAM_EIGEN_SLACK times the top Ritz value, when the Krylov space
    closes (beta_j below that) or after max_steps.  Ritz values up to that
    slack are the kernel's: the lowest pair is the first above, the top one
    included, None if there is none.  Some eigenvalue lies within the
    residual bound of each Ritz value; which one, the caller certifies.
    """
    n = start.size
    basis = np.zeros((min(n, max_steps), n))
    alpha, beta = np.zeros(len(basis)), np.zeros(len(basis))
    basis[0] = start / np.linalg.norm(start)
    check, scale = 2 if lowest else len(basis), 0.0
    for j in range(len(basis)):
        w = matvec(basis[j])
        alpha[j] = basis[j] @ w
        for _ in range(2):  # twice is enough (Parlett)
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        beta[j] = math.sqrt(w @ w)
        steps, scale = j + 1, max(scale, abs(alpha[j]))
        closed = steps == len(basis) or beta[j] <= GRAM_EIGEN_SLACK * scale
        if steps >= check or closed:
            check = steps + max(1, steps // 4)
            theta = dstev(alpha[:steps], beta[:max(steps - 1, 1)], compute_v=0)[0]
            slack = GRAM_EIGEN_SLACK * theta[-1]
            pairs = []
            for i in [steps - 1, *np.flatnonzero(theta > slack)[:int(lowest)]]:
                # eigenvector i + 1 (range 2: by index); dstemr overwrites
                # its off-diagonal, so it gets a copy
                vec = dstemr(alpha[:steps], beta[:steps].copy(), 2, 0.0, 0.0,
                             i + 1, i + 1)[2][:, 0]
                pairs.append((theta[i], abs(beta[j] * vec[-1]), vec))
            if closed or max(r for _, r, _ in pairs) <= slack:
                top, *rest = [(value, r, vec @ basis[:steps]) for value, r, vec in pairs]
                return top, (rest[0] if rest else None)
        basis[j + 1] = w / beta[j]


def certified_spectrum(op, threshold, start=None):
    """(sigma_max, k, sigma_{k+1}, warm) of a square RealizedOperator, with k
    the kernel count #{sigma < tau}, tau = threshold sigma_max.

    Both values come from _lanczos on the banded Gram, started at start
    (zero-padded or cut to the Gram's side) or, if None, at a fixed
    pseudo-random vector.  sigma_max is certified by one banded Cholesky of
    (value + r + slack) I - G; if it fails, top_eigenvalue replaces it.
    When the lowest Ritz pair's floor, value - r - slack, lies above tau^2
    and G - floor I factors, every sigma^2 exceeds tau^2 and k = 0;
    otherwise k is counted by inertia.  warm, the sum of the two Ritz
    vectors, starts the next truncation of the same operator: truncations
    are leading blocks in the band order.
    """
    ab = op.gram_band()
    n = ab.shape[1]
    vec = np.zeros(n)
    if start is not None:
        vec[:min(n, start.size)] = start[:n]
    if not vec.any():
        vec = uniform(random.Random(0), -1.0, 1.0, n)
    band, kd = np.asfortranarray(ab), ab.shape[0] - 1
    (lam, resid, warm), low = _lanczos(lambda v: dsbmv(kd, 1.0, band, v, lower=1), vec, True)
    if low is not None:
        warm = warm + low[2]
    upper = lam + resid + GRAM_EIGEN_SLACK * lam
    if not _positive_definite(ab, -1.0, upper):
        lam = upper = top_eigenvalue(ab)[0]
    sigma_max = max(float(np.sqrt(max(lam, 0.0))), 1e-300)
    tau = threshold * sigma_max
    floor = -np.inf if low is None else low[0] - (low[1] + GRAM_EIGEN_SLACK * upper)
    floor_factors = low is not None and _positive_definite(ab, 1.0, floor)
    if floor_factors and floor > tau * tau:
        kernel = 0
    else:
        kernel = op.count_singular_values_below(tau)
    if kernel == n:
        return sigma_max, kernel, 0.0, warm
    # sigma_{k+1}, the smallest singular value at or above tau: its square lies
    # within r + slack of the lowest Ritz value above the kernel once that
    # bracket is certified, for k = 0 by the Cholesky below it that factored
    # (floor_factors) and for k >= 1 by inertia counts at both ends; without a
    # pair or a certificate the bracket runs from tau to sqrt(upper).  Brackets
    # wider than 1e-13 relative (gaps below about 0.2) are halved by inertia
    # counts, which resolve sigma to eps sigma_max like a dense SVD, and the
    # Ritz value is clipped into what is left.
    lo, hi, guess = tau, float(np.sqrt(upper)), tau
    if low is not None:
        value, r, _ = low
        slack = r + GRAM_EIGEN_SLACK * upper
        lo_c = max(tau, float(np.sqrt(max(value - slack, 0.0))))
        hi_c = float(np.sqrt(value + slack))
        if kernel == 0:
            certified = floor_factors
        else:
            certified = (
                (lo_c == tau or op.count_singular_values_below(lo_c) == kernel)
                and op.count_singular_values_below(hi_c) > kernel
            )
        if certified:
            lo, hi, guess = lo_c, hi_c, float(np.sqrt(max(value, 0.0)))
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if op.count_singular_values_below(mid) > kernel:
            hi = mid
        else:
            lo = mid
    return sigma_max, kernel, min(max(guess, lo), hi), warm
