"""Extreme eigenvalues of symmetric band matrices in LAPACK's lower band
storage ab, ab[s, q] = G[q + s, q]: here the Gram matrices G = M^T M of the
banded circle operators of deform.py.

bisect_top brackets the top eigenvalue by whether a banded Cholesky (dpbtrf)
factors t I - G.  certified_spectrum reads sigma_max and sigma_{k+1} of an
operator, two isolated ends of its Gram spectrum once the kernel is set
aside, from a short Lanczos run with full reorthogonalization on the band,
and certifies each before use: an end by one banded Cholesky of the Gram
shifted just past it, an interior sigma_{k+1} by two inertia counts of the
operator (Parlett, The Symmetric Eigenvalue Problem; Golub & Van Loan 10.1).
The Cholesky that certifies the lowest end also settles k = 0 once its shift
lies above threshold^2 sigma_max^2; only otherwise is the kernel counted by
inertia.
"""
from __future__ import annotations

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not during a command

from .lapack import dpbtrf, dsbmv, dstev

# rounding allowance of a Gram Ritz value and of the shifted Cholesky that
# certifies it, times lambda_max; also the residual a Ritz pair converges to
GRAM_EIGEN_SLACK = 16 * np.finfo(float).eps
LANCZOS_MAX_STEPS = 128  # rows of the Lanczos basis; the bracket refinement covers a cut run


def _positive_definite(ab, sign, shift):
    """Whether sign (G - shift I) is positive definite, that is whether a
    banded Cholesky (dpbtrf) factors it, for G in lower band storage ab."""
    shifted = sign * ab
    shifted[0] -= sign * shift
    return dpbtrf(shifted, lower=1, overwrite_ab=1)[1] == 0


def bisect_top(ab):
    """The top eigenvalue of G in lower band storage ab, from above: the
    bracket runs from the largest diagonal entry to the largest Gershgorin
    row sum and is halved, on whether t I - G factors, until its ends are
    adjacent floats; t I - G factors at the returned upper end.
    """
    row_sums = np.abs(ab[0])
    for shift in range(1, ab.shape[0]):
        row_sums[shift:] += np.abs(ab[shift, :-shift])
        row_sums[:-shift] += np.abs(ab[shift, :-shift])
    lo, hi = float(ab[0].max()), float(row_sums.max())
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _positive_definite(ab, -1.0, mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def _lanczos(ab, start):
    """The top Ritz pair of the Gram G in lower band storage ab and its lowest
    pair above the kernel, each (value, residual bound, vector), from a
    Lanczos run with full reorthogonalization started at start.

    Matvecs are dsbmv on the band.  At steps 2, 3, ..., 8, 10, 12, 15, ...
    (a quarter more each time) dstev solves the tridiagonal Ritz problem,
    and the run stops once the residual bounds |beta_j s_j| of both wanted
    pairs are within GRAM_EIGEN_SLACK lambda_max, when the Krylov space
    closes (beta_j below that) or after LANCZOS_MAX_STEPS.  Ritz values
    up to that slack are the kernel's: the lowest pair is the first above,
    the top one included, None if there is none.  Some eigenvalue of G lies
    within the residual bound of each Ritz value; which one, the caller
    certifies.
    """
    kd, n = ab.shape[0] - 1, ab.shape[1]
    band = np.asfortranarray(ab)
    basis = np.zeros((min(n, LANCZOS_MAX_STEPS), n))
    alpha, beta = np.zeros(len(basis)), np.zeros(len(basis))
    basis[0] = start / np.linalg.norm(start)
    check = 2
    for j in range(len(basis)):
        w = dsbmv(kd, 1.0, band, basis[j], lower=1)
        alpha[j] = basis[j] @ w
        for _ in range(2):  # twice is enough (Parlett)
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        beta[j] = np.linalg.norm(w)
        steps = j + 1
        scale = np.abs(alpha[:steps]).max()
        closed = steps == len(basis) or beta[j] <= GRAM_EIGEN_SLACK * scale
        if steps >= check or closed:
            check = steps + max(1, steps // 4)
            theta, vecs, _ = dstev(alpha[:steps], beta[:max(steps - 1, 1)])
            slack = GRAM_EIGEN_SLACK * theta[-1]
            resid = np.abs(beta[j] * vecs[-1])
            wanted = [steps - 1, *np.flatnonzero(theta > slack)[:1]]
            if closed or resid[wanted].max() <= slack:
                top, *low = [(theta[i], resid[i], vecs[:, i] @ basis[:steps]) for i in wanted]
                return top, (low[0] if low else None)
        basis[j + 1] = w / beta[j]


def _next_singular_value(op, ab, low, kernel, tau, upper, floor_factors):
    """sigma_{k+1}, the smallest singular value at or above tau, k = kernel,
    from the Gram's lowest Ritz pair above the kernel, low = (value, residual
    bound r, vector) or None; upper is a certified bound on lambda_max.

    Its square lies within r + GRAM_EIGEN_SLACK lambda_max of the Ritz value
    once that bracket is certified: for k = 0 by one banded Cholesky of
    G - (value - r - slack) I, which leaves no eigenvalue below and which
    certified_spectrum has run (floor_factors is its outcome), and for
    k >= 1 by inertia counts at both ends.  Without a pair or a certificate
    the bracket is the wide one from tau to sqrt(upper).  Where the bracket
    is wider than 1e-13 relative (gaps below about 0.2), it is halved by
    inertia counts, which resolve sigma to eps sigma_max like a dense SVD;
    the Ritz value is then clipped into the narrowed bracket.
    """
    if kernel == ab.shape[1]:
        return 0.0
    lo, hi, guess = tau, float(np.sqrt(upper)), tau
    if low is not None:
        value, resid, _ = low
        slack = resid + GRAM_EIGEN_SLACK * upper
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
    return min(max(guess, lo), hi)


def certified_spectrum(op, threshold, start=None):
    """(sigma_max, k, sigma_{k+1}, warm) of a square RealizedOperator, with k
    the kernel count #{sigma < tau}, tau = threshold sigma_max.

    Both values come from _lanczos on the banded Gram, started at start
    (zero-padded or cut to the Gram's side) or, if None, at a fixed
    pseudo-random vector.  sigma_max is certified by one banded Cholesky of
    (value + r + slack) I - G; if it fails, bisect_top replaces it.  When
    the lowest Ritz pair's floor, value - r - slack, lies above tau^2 and
    G - floor I factors, every sigma^2 exceeds tau^2 and k = 0; otherwise k
    is counted by inertia.  warm, the sum of the two Ritz vectors, starts
    the next truncation of the same operator: truncations are leading
    blocks in the band order.
    """
    ab = op.gram_band()
    n = ab.shape[1]
    vec = np.zeros(n)
    if start is not None:
        vec[:min(n, start.size)] = start[:n]
    if not vec.any():
        vec = np.random.default_rng(0).standard_normal(n)
    top, low = _lanczos(ab, vec)
    lam, resid, warm = top
    upper = lam + resid + GRAM_EIGEN_SLACK * lam
    if not _positive_definite(ab, -1.0, upper):
        lam = upper = bisect_top(ab)
    sigma_max = max(float(np.sqrt(max(lam, 0.0))), 1e-300)
    tau = threshold * sigma_max
    floor = -np.inf if low is None else low[0] - (low[1] + GRAM_EIGEN_SLACK * upper)
    floor_factors = low is not None and _positive_definite(ab, 1.0, floor)
    if floor_factors and floor > tau * tau:
        kernel = 0
    else:
        kernel = op.count_singular_values_below(tau)
    sigma_next = _next_singular_value(op, ab, low, kernel, tau, upper, floor_factors)
    return sigma_max, kernel, sigma_next, warm if low is None else warm + low[2]
