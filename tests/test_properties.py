"""Property tests: series invariants, the separable B(gdot) Phi0 algebra,
the closed-form operator assemblies against unit-vector probing, and the
row-blocked kernel family residuals against the per-mode ones."""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edl.series import FourierSeries1D, cutoff_c2, hilbert_transform, multiply, smooth
from edl.config import build_config
from edl.dirac import LeadingData, RadialGrid, euclidean_obstruction_mode
from edl.experiments import run_experiment
from edl.deform import (
    KERNEL_REL_THRESHOLD,
    RealizedOperator,
    _graded_weights,
    commutator_with_sign_multiplier,
    fredholm_diagnostics,
    l_op,
    l_star,
    ll_star_defect_operator,
    realize_l,
    realize_t,
    t_op,
)
from edl.newton import ToyProblem, nash_moser_solve
from edl.obstruction import gram_matrix, gram_tail_trend
from edl.bandeig import _positive_definite, certified_spectrum, top_eigenvalue
from edl.util import uniform
from edl.bgvar import (
    MetricVariation,
    bg_apply,
    leading_term_field,
    leading_variation,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

# Hypothesis draws only integers here; every float comes from a seeded numpy
# generator. Hypothesis takes some floats from a pool of the numeric literals
# in every loaded local module, so a literal added anywhere in src/ would
# re-draw them.
seeds = st.integers(0, 2**32 - 1)


def unit_coefficients(rng, size):
    return rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)


@st.composite
def series(draw, max_band=6):
    n = draw(st.integers(0, max_band))
    rng = np.random.default_rng(draw(seeds))
    return FourierSeries1D(unit_coefficients(rng, 2 * n + 1))


@st.composite
def real_series(draw, max_band):
    n = draw(st.integers(1, max_band))
    rng = np.random.default_rng(draw(seeds))
    modes = {0: rng.uniform(-1.0, 1.0)}
    for l, a in enumerate(unit_coefficients(rng, n), start=1):
        modes[l], modes[-l] = a, np.conj(a)
    return FourierSeries1D.from_modes(modes)


def close(a, b, scale=1.0):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= 1e-12 * scale


# -- series invariants -----------------------------------------------------------


@PROPERTY
@given(series())
def test_conjugate_is_an_involution(u):
    assert np.array_equal(u.conjugate().conjugate().coeffs, u.coeffs)


@PROPERTY
@given(series())
def test_hilbert_transform_is_an_involution(u):
    # the multiplier is sgn(l) with sgn(0) = +1, so H o H = id exactly
    assert np.array_equal(hilbert_transform(hilbert_transform(u)).coeffs, u.coeffs)


@PROPERTY
@given(series(), series(), st.integers(0, 5))
def test_multiply_is_the_sampled_pointwise_product(u, v, extra):
    n_points = 2 * (u.n_modes + v.n_modes) + 1 + extra
    t = np.arange(n_points) * (2.0 * np.pi / n_points)
    uv = multiply(u, v)
    samples = u.evaluate(t) * v.evaluate(t)
    assert close(uv.evaluate(t), samples, 10.0)
    # the samples determine the product's coefficients: no mode aliases
    n = uv.n_modes
    dft = np.fft.fft(samples) / n_points
    assert close(dft[np.arange(-n, n + 1) % n_points], uv.coeffs, 10.0)


@PROPERTY
@given(series(), st.integers(0, 8))
def test_parseval_defect_vanishes_on_alias_free_grids(u, extra):
    # |u|^2 has band 2N, so 2N+1 uniform points already integrate it exactly
    assert u.parseval_defect() <= 1e-12
    assert u.parseval_defect(2 * u.n_modes + 1 + extra) <= 1e-12


@PROPERTY
@given(series(max_band=64), seeds)
def test_smoothing_is_monotone_in_eps(u, seed):
    # rho is nonincreasing, so a larger eps damps every mode at least as much
    eps1, eps2 = np.sort(1.0 - np.random.default_rng(seed).uniform(0.0, 1.0, 2))
    for eps in (eps1, eps2):
        multiplier = cutoff_c2(eps * np.abs(u.modes()))
        assert np.all((multiplier >= 0.0) & (multiplier <= 1.0))
    rough, smoothed = (np.abs(smooth(u, eps).coeffs) for eps in (eps1, eps2))
    assert np.all(smoothed <= rough)


# -- separable B(gdot) Phi0 against the dense tensor path --------------------------


@st.composite
def leading_data(draw):
    c = draw(series(max_band=3))
    d = draw(series(max_band=3))
    # a dominant constant keeps min |c|^2 + |d|^2 away from zero
    c = c * 0.1 + FourierSeries1D.from_modes({0: 1.5})
    return LeadingData(c, d)


@PROPERTY
@given(st.data(), st.booleans(), st.booleans())
def test_separable_coefficients_match_dense_dft(data, with_y, with_cutoff):
    lead = data.draw(leading_data())
    eta_x = data.draw(real_series(6))
    eta_y = data.draw(real_series(6)) if with_y else None
    cutoff = 1.0 if with_cutoff else None
    rgrid = RadialGrid.geometric(1.2, 48, r_min_factor=1e-3)
    band = max(lead.c.n_modes, lead.d.n_modes) + 6
    nt, ntheta = 2 * band + 3, 8
    phi = leading_term_field(lead, rgrid, nt, ntheta)
    var = MetricVariation.from_displacement(eta_x, eta_y, rgrid, nt, ntheta, cutoff)
    dense = bg_apply(var, phi)
    sep = leading_variation(lead, eta_x, eta_y, rgrid.r, cutoff)
    for field, comp in zip(sep, (dense.plus, dense.minus)):
        spec = np.fft.fft2(comp, axes=(0, 2)) / (nt * ntheta)
        scale = max(float(np.max(np.abs(spec))), 1.0)
        for l in range(-band - 1, band + 2):
            for k in range(-3, 4):
                assert close(field.coeff(l, k), spec[l % nt, :, k % ntheta], scale)


# -- row-blocked kernel family residuals against the per-mode oracle ----------------


def per_mode_residuals(cfg):
    """modes' residuals one mode at a time, each on its own grid: the loop
    that the row blocks replaced."""
    out = []
    for a in range(cfg.l_min, cfg.l_max + 1):
        for l in (a, -a):
            grid = RadialGrid.geometric(cfg.r_max / abs(l) / 3.0, 500, r_min_factor=1e-4)
            out.append((l, float(euclidean_obstruction_mode(l, grid).ode_residual())))
    return out


@PROPERTY
@given(st.integers(1, 200), st.integers(0, 40), st.integers(1, 800))
def test_mode_row_blocks_match_per_mode_residuals(l_min, span, r_max_eighths):
    # bit for bit, over partial and whole blocks of MODE_BLOCK_ROWS rows
    cfg = build_config("modes", {"l_min": l_min, "l_max": l_min + span,
                                 "r_max": r_max_eighths / 8.0})
    assert run_experiment(cfg).rows == per_mode_residuals(cfg)


# -- closed-form assembly against the probing oracle -------------------------------


def probed(fn, n_in, n_out):
    return RealizedOperator.realize(fn, n_in, n_out).matrix


def probed_ll_star_defect(lead, n):
    """L L* - |c|^2 - |d|^2 by probing, summed over the c- and d-parts of L.

    L is linear in (c, d). Each product of two parts is probed apart, the two
    diagonal ones less their own |c|^2 or |d|^2, so a d below the roundoff of
    c is not rounded away against it before the subtraction. Each modulus is
    multiplied in the order the composition multiplies it, c conj(c) and
    conj(d) d, so the diagonal products cancel exactly where the defect is 0.
    """
    zero = FourierSeries1D.zero(0)
    parts = (SimpleNamespace(c=lead.c, d=zero), SimpleNamespace(c=zero, d=lead.d))
    out = 0.0
    for p in parts:
        mod2 = multiply(p.c, p.c.conjugate()) + multiply(p.d.conjugate(), p.d)
        out = out + probed(lambda x: l_op(p, l_star(p, x)) - multiply(mod2, x), n, n)
        q = parts[1] if p is parts[0] else parts[0]
        out = out + probed(lambda x: l_op(p, l_star(q, x)), n, n)
    return out


def assert_matches_oracle(assembled, oracle):
    assert assembled.shape == oracle.shape
    assert close(assembled, oracle, max(float(np.max(np.abs(oracle))), 1e-300))


@PROPERTY
@given(st.data(), st.integers(0, 64), st.integers(0, 64))
def test_assembled_operators_match_probing(data, n_in, n_out):
    lead = data.draw(leading_data())
    assert_matches_oracle(realize_l(lead, n_in, n_out).matrix,
                          probed(lambda x: l_op(lead, x), n_in, n_out))
    assert_matches_oracle(realize_t(lead, n_in, n_out).matrix,
                          probed(lambda x: t_op(lead, x), n_in, n_out))
    assert_matches_oracle(ll_star_defect_operator(lead, n_in).matrix,
                          probed_ll_star_defect(lead, n_in))
    a = lead.d
    assert_matches_oracle(
        commutator_with_sign_multiplier(a, n_in).matrix,
        probed(lambda x: hilbert_transform(multiply(a, x))
               - multiply(a, hilbert_transform(x)), n_in, n_in + a.n_modes),
    )


def probed_jacobian(prob, u):
    """dF(u) as a complex matrix, column by column from derivative_apply on
    the unit modes: dF(u) is complex-linear."""
    unit = np.eye(2 * prob.n_modes + 1, dtype=complex)
    return np.column_stack([prob.derivative_apply(u, FourierSeries1D(e)).coeffs for e in unit])


@PROPERTY
@given(st.integers(0, 48), st.integers(0, 48), seeds)
def test_banded_newton_solve_matches_dense_oracle(n, b, seed):
    # a real state u of full band n, the same cut sharply at band b and cut by
    # S_eps at 2/eps just above b (eps = 1 keeps modes 0 and +-1): the banded
    # LU on the band of each against a dense solve of the probed Jacobian
    rng = np.random.default_rng(seed)
    b = min(b, n)
    prob = ToyProblem(n_modes=n)
    scale = rng.uniform(0.1, 2.0)  # of u, as for a scaled nonlinearity
    modes = {0: rng.uniform(-0.1, 0.1)}
    for l, a in enumerate(unit_coefficients(rng, n), start=1):
        modes[l], modes[-l] = 0.1 * a / l, 0.1 * np.conj(a) / l
    full = FourierSeries1D.from_modes(modes, n_modes=n)
    sharp = FourierSeries1D.from_modes({l: a for l, a in modes.items() if abs(l) <= b}, n_modes=n)
    cut = smooth(full, min(1.0, 2.0 / (b + 0.5)))
    assert not cut.coeffs[np.abs(cut.modes()) > max(b, 1)].any()
    g = FourierSeries1D(unit_coefficients(rng, 2 * n + 1))
    for u in (full * scale, sharp * scale, cut * scale):
        want = np.linalg.solve(probed_jacobian(prob, u), g.coeffs)
        got = prob.solve_linearized(u, g).coeffs
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@PROPERTY
@given(st.integers(0, 5), st.integers(0, 8))
def test_singular_diagonal_newton_step_fails(k, extra):
    # u_0 = i / (2 l) makes row l of the diagonal Jacobian exactly zero (l a
    # power of two keeps every product exact); the smoothed iteration on
    # f = u_0 + 0.01 e^{2it} steps to u = u_0, as S_1 cuts mode 2, and its
    # next linear solve fails
    l = 2**k
    n = max(l, 2) + extra
    prob = ToyProblem(n_modes=n)
    u0 = 1j / (2.0 * l)
    with pytest.raises(np.linalg.LinAlgError, match=f"at mode {l}$"):
        prob.solve_linearized(FourierSeries1D.from_modes({0: u0}, n_modes=n),
                              FourierSeries1D.from_modes({0: 1.0}, n_modes=n))
    _, trace = nash_moser_solve(prob, FourierSeries1D.from_modes({0: u0, 2: 0.01}, n_modes=n))
    assert trace.status == "solver_failed"
    assert len(trace.steps) == 1
    assert trace.message.endswith(f"at mode {l}")


# -- banded spectral diagnostics against the dense oracles ---------------------------


def seeded_leading_data(seed):
    """Complex (c, d) of random bands <= 3.

    Every float comes from np.random.default_rng(seed), so the examples do
    not move with the numeric literals Hypothesis collects from loaded
    modules. A dominant constant in c keeps the data nondegenerate; one
    draw in twenty still has a singular gap below 0.01, where the Gram's
    eigenvalues alone would miss 1e-12.
    """
    rng = np.random.default_rng(seed)

    def draw(scale):
        n = int(rng.integers(0, 4))
        coeffs = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        return FourierSeries1D(scale * coeffs)

    mean = FourierSeries1D.from_modes({0: 1.5 * np.exp(2j * np.pi * rng.uniform())})
    return LeadingData(draw(0.1) + mean, draw(0.5)), rng


def dense_kernel_and_gap(sv):
    """The count and gap of fredholm_diagnostics, read off a dense SVD."""
    near_zero = sv < KERNEL_REL_THRESHOLD * max(sv[0], 1e-300)
    above = sv[~near_zero]
    return int(np.sum(near_zero)), float(above[-1] / sv[0]) if above.size else 0.0


@PROPERTY
@given(seeds, st.integers(0, 64))
def test_banded_spectra_match_dense_oracles(seed, n):
    lead, rng = seeded_leading_data(seed)
    graded = (
        (realize_l(lead, n), ((0.0, 0.0),)),
        (realize_t(lead, n), ((2.0, 2.0), (1.5, 2.0))),
        (ll_star_defect_operator(lead, n), ((1.0, 0.0),)),
    )
    for op, grades in graded:
        for m_out, m_in in grades:
            scaled = op.matrix * _graded_weights(op.n_out, m_out)[:, None]
            want = np.linalg.svd(scaled / _graded_weights(op.n_in, m_in), compute_uv=False)[0]
            assert abs(op.operator_norm(m_out, m_in) - want) <= 1e-12 * want
    for data in (lead, LeadingData.constant(1.0, 1.0)):
        dim, gap = dense_kernel_and_gap(realize_l(data, n).singular_values())
        rep = fredholm_diagnostics(data, (n,))
        assert rep.kernel_dims == (dim,)
        assert abs(rep.singular_gaps[0] - gap) <= 1e-12 * gap
    # constant (1, 1) data is the control: its kernel is the real constants
    assert dim == 1
    # inertia counts at shifts between separated singular values
    op = realize_l(lead, n)
    sv = np.sort(op.singular_values())
    for i in rng.choice(sv.size - 1, size=min(8, sv.size - 1), replace=False):
        if sv[i + 1] > sv[i] * (1.0 + 1e-6):
            assert op.count_singular_values_below(0.5 * (sv[i] + sv[i + 1])) == i + 1


def same_floats(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(seeds, st.integers(0, 64), st.integers(0, 96))
def test_leading_blocks_are_the_fresh_truncations_bitwise(seed, n, extra):
    # the Fredholm truncations, the loss profile and the defect norms read
    # each truncation off the band of the widest one and its Gram from the
    # widest Gram: both must be the floats a fresh assembly at n gives,
    # band width and trailing zero diagonals dropped included; the constant
    # (1, 1) data give a diagonal Gram
    lead, _ = seeded_leading_data(seed)
    builds = ((realize_l, ((0.0, 0.0),)), (realize_t, ((2.0, 2.0), (1.5, 2.0))),
              (ll_star_defect_operator, ((1.0, 0.0),)))
    for data in (lead, LeadingData.constant(1.0, 1.0)):
        for build, gradings in builds:
            block, fresh = build(data, n + extra).leading(n), build(data, n)
            assert (block.n_in, block.n_out) == (fresh.n_in, fresh.n_out)
            assert same_floats(block.win, fresh.win)
            for grading in gradings:
                assert same_floats(block.gram_band(*grading), fresh.gram_band(*grading))


@PROPERTY
@given(seeds, st.integers(0, 64))
def test_certified_extremes_match_dense_eigvalsh(seed, n):
    # sigma_max^2 and sigma_{k+1}^2 from the certified Lanczos run against the
    # dense Gram's eigenvalues, to a few eps lambda_max, which is what
    # eigvalsh resolves; the cases include the diagonal (kd = 0) Gram of
    # constant (1, 1) data, whose sigma_{k+1} is interior (k = 1), and a point
    # near it on the homotopy to the drawn data, whose small gap the inertia
    # counts refine
    lead, _ = seeded_leading_data(seed)
    one = FourierSeries1D.from_modes({0: 1.0})
    near = LeadingData(one * 0.95 + lead.c * 0.05, one * 0.95 + lead.d * 0.05)
    flat = LeadingData.constant(1.0, 1.0)
    assert len(realize_l(flat, n).gram_band()) == 1
    for data in (lead, flat, near):
        op = realize_l(data, n)
        sigma_max, kernel, sigma_next, _ = certified_spectrum(op, KERNEL_REL_THRESHOLD)
        lam = np.linalg.eigvalsh(op.matrix.T @ op.matrix)
        assert kernel == dense_kernel_and_gap(op.singular_values())[0]
        assert abs(sigma_max**2 - lam[-1]) <= 1e-14 * lam[-1]
        assert abs(sigma_next**2 - lam[kernel]) <= 1e-14 * lam[-1]
        if data is flat:
            assert kernel == 1
        if data is near:
            assert sigma_next < 0.2 * sigma_max


def random_band(rng, n, kd, top):
    """A symmetric band in lower band storage, n columns, kd subdiagonals,
    with standard normal entries: for top "double" the direct sum of two
    copies of one band, for "near" of a band and the same band plus
    delta I, delta from 1e-14 to 1e-6 of its largest entry (for odd n the
    second copy loses its last row and column)."""
    half = -(-n // 2) if top in ("double", "near") else n
    ab = rng.standard_normal((kd + 1, half))
    for s in range(1, kd + 1):
        ab[s, max(half - s, 0):] = 0.0  # entries past the block's last row
    if half < n:
        twin = ab.copy()
        if top == "near":
            twin[0] += 10.0 ** rng.uniform(-14, -6) * np.abs(ab).max()
        ab = np.concatenate([ab, twin], axis=1)[:, :n]
        for s in range(1, kd + 1):
            ab[s, n - s:] = 0.0
    return ab


def dense_from_band(ab):
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for s in range(ab.shape[0]):
        q = np.arange(n - s)
        dense[q + s, q] = dense[q, q + s] = ab[s, :n - s]
    return dense


def assert_certified_top(ab, t, lo):
    # t I - G factors and lo I - G does not, at adjacent floats; or lo = t is
    # a diagonal entry equal to the Gershgorin bound, hence exactly lambda_max
    lam = np.linalg.eigvalsh(dense_from_band(ab))
    scale = np.abs(lam).max()
    assert abs(t - lam[-1]) <= 1e-14 * scale
    assert not _positive_definite(ab, -1.0, lo)
    if lo == t:
        assert t == ab[0].max() == np.abs(dense_from_band(ab)).sum(axis=1).max()
    else:
        assert np.nextafter(lo, np.inf) == t
        assert _positive_definite(ab, -1.0, t)


@PROPERTY
@given(seeds, st.integers(1, 48), st.integers(0, 6),
       st.sampled_from(["single", "double", "near"]))
def test_top_eigenvalue_is_certified_on_random_bands(seed, n, kd, top):
    # both certificates and eigvalsh's top to 1e-14 of the spectral radius,
    # for diagonal (kd = 0) and 1 x 1 matrices, exactly double tops and tops
    # split by 1e-14 to 1e-6
    rng = np.random.default_rng(seed)
    ab = random_band(rng, n, min(kd, n - 1), top)
    t, lo = top_eigenvalue(ab)
    assert_certified_top(ab, t, lo)


@PROPERTY
@given(seeds, st.sampled_from([1, 2, 12]), st.integers(1, 60), st.integers(3, 90))
def test_banded_gram_norms_match_dense_norms(seed, band, l_min, count):
    # the tail norms and the graded smoothing norm that gram_tail_trend takes
    # on K's band and on K W^2 K's against dense spectral norms, for weights
    # of band 1, 2 and 12 on random l ranges (bands wider than some tails)
    rng = np.random.default_rng(seed)
    amp = 0.05 * rng.uniform(0.2, 1.0, band) / np.arange(1, band + 1)
    g = FourierSeries1D.from_modes(
        {s * m: amp[m - 1] for m in range(1, band + 1) for s in (1, -1)})
    modes = np.arange(l_min, l_min + count)
    k_block = gram_matrix(modes, g).real - np.eye(count)
    rep = gram_tail_trend(k_block, modes)
    want = [np.linalg.norm(k_block[np.ix_(modes >= c, modes >= c)], 2) for c in rep.cutoffs]
    assert np.max(np.abs(rep.tail_norms - want)) <= 1e-14 * want[0]
    wgt = (1.0 + modes.astype(float) ** 2) ** (0.125 / 2.0)
    dense = np.linalg.norm(wgt[:, None] * k_block, 2)
    assert abs(rep.smoothing_norm - dense) <= 1e-14 * dense


@PROPERTY
@given(seeds, seeds, st.integers(0, 300), st.integers(0, 300), st.integers(-8, 8),
       st.integers(1, 16))
def test_uniform_draws_are_seeded_in_range_and_split(seed, other, a, b, low, width):
    # the library's seeded arrays: [low, high) in the requested shape, the
    # same for the same seed, different for another, and two draws read the
    # stream that one draw of their total size reads
    low, high = low / 4, (low + width) / 4
    one = uniform(random.Random(seed), low, high, a + 2 * b)
    assert one.shape == (a + 2 * b,)
    assert np.all((low <= one) & (one < high))
    assert np.array_equal(one, uniform(random.Random(seed), low, high, (a + 2 * b,)))
    rng = random.Random(seed)
    first, second = uniform(rng, low, high, a), uniform(rng, low, high, (b, 2))
    assert first.shape == (a,) and second.shape == (b, 2)
    assert np.array_equal(one, np.concatenate([first, second.ravel()]))
    if seed != other and one.size:
        assert not np.array_equal(one, uniform(random.Random(other), low, high, one.size))
