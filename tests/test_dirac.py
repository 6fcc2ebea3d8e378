import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import shoot_mode
from edl import dirac
from edl.dirac import (
    LeadingData,
    ModeSpinor,
    RadialGrid,
    SpinorField,
    adjointness_check,
    dirac_apply,
    dirac_apply_via_clifford,
    euclidean_obstruction_field,
    euclidean_obstruction_mode,
    field_from_mode,
    growth_rate,
    l2_pairing,
    mu_perturbed_mode,
    radial_bump,
    clifford_action,
)
from edl.series import FourierSeries1D, cutoff_c2, cutoff_c2_prime, multiply


# -- radial grid -------------------------------------------------------------


def test_radial_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        RadialGrid(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(np.array([0.1, 0.2, 0.35]))  # not geometric
    with pytest.raises(ValueError):
        RadialGrid.geometric(1.0, 100, r_min_factor=2.0)


def test_radial_grid_derivative_and_quadrature():
    # the stencils have width min(8, n - 1) + 1, so every polynomial of
    # degree < width in x = s / s_max (s = log(r / r_min)) is differentiated
    # exactly, boundary rows included
    for n in (2, 3, 5, 9, 10, 40, 900):
        g = RadialGrid.geometric(2.0, n, r_min_factor=1e-3)
        k = np.arange(1, min(8, n - 1) + 1)
        s = np.log(g.r / g.r[0])
        x = (1.0 + s / s[-1])[:, None]
        d = g.derivative(x**k)
        exact = k * x ** (k - 1) / (s[-1] * g.r[:, None])
        assert np.max(np.abs(d - exact) / exact) < 1e-10, n
    g = RadialGrid.geometric(2.0, 900, r_min_factor=1e-3)
    d = g.derivative(g.r**3)
    assert np.max(np.abs(d - 3.0 * g.r**2) / (3.0 * g.r**2)) < 1e-9
    exact = (2.0**4 - (2.0 * 1e-3) ** 4) / 4.0
    assert abs(g.integrate(g.r**2) - exact) / exact < 1e-3


def csr_derivative(g, values, axis):
    """d/dr as a CSR matrix of the grid's own Fornberg rows times the data."""
    w = g._stencils
    n, width = g.r.size, len(w)
    i = np.arange(n)
    lo = np.clip(i - width // 2, 0, n - width)
    cols = (lo[:, None] + np.arange(width)).ravel()
    dmat = sp.csr_matrix((w[i - lo].ravel(), (np.repeat(i, width), cols)), shape=(n, n))
    moved = np.moveaxis(values, axis, 0)
    out = (dmat @ moved.reshape(n, -1)).reshape(moved.shape)
    out = out / g.r.reshape((n,) + (1,) * (out.ndim - 1))
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("n", [2, 5, 8, 9, 10, 1500])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("others, axis", [
    ((), 0), ((3,), 0), ((3,), 1), ((2, 3), 0), ((2, 3), 1), ((2, 3), 2),
])
def test_banded_stencil_is_bitwise_the_csr_product(n, dtype, others, axis):
    # the slices sum every row in the CSR product's order, so not even the
    # last bit or the sign of a zero moves
    g = RadialGrid.geometric(3.0, n, r_min_factor=1e-3)
    shape = list(others)
    shape.insert(axis, n)
    rng = np.random.default_rng(n)
    values = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        values += 1j * rng.standard_normal(shape)
    values.flat[::5] = -0.0
    got, want = g.derivative(values, axis=axis), csr_derivative(g, values, axis)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_stencils_built_once_per_width(monkeypatch):
    # the weights scale as 1/ds, so grids of one width share one unit table
    calls = []

    def counting(z, x, m):
        calls.append(z)
        return fornberg(z, x, m)

    fornberg = dirac._fornberg_weights
    dirac._unit_stencils.cache_clear()
    monkeypatch.setattr(dirac, "_fornberg_weights", counting)
    for r_max in (1.0, 2.0, 3.0, 5.0, 8.0):
        g = RadialGrid.geometric(r_max, 1500, r_min_factor=1e-4 / r_max)
        assert np.allclose(g._stencils * g.ds, dirac._unit_stencils(9))
    assert len(calls) <= 9


# -- Clifford relations -------------------------------------------------------


def test_twisted_clifford_relations(rng):
    e_th = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=7))
    p = rng.normal(size=7) + 1j * rng.normal(size=7)
    m = rng.normal(size=7) + 1j * rng.normal(size=7)

    def act(axis, p, m):
        return clifford_action(axis, e_th, np.conj(e_th), p, m)

    for axis in ("t", "x", "y"):
        pp, mm = act(axis, *act(axis, p, m))
        assert np.allclose(pp, -p) and np.allclose(mm, -m)
    for a, b in (("t", "x"), ("t", "y"), ("x", "y")):
        p1, m1 = act(a, *act(b, p, m))
        p2, m2 = act(b, *act(a, p, m))
        assert np.max(np.abs(p1 + p2)) < 1e-14
        assert np.max(np.abs(m1 + m2)) < 1e-14


# -- closed-form kernel modes ---------------------------------------------------


def test_euclidean_mode_values():
    g = RadialGrid(np.geomspace(0.5, 1.0, 2))
    m1 = euclidean_obstruction_mode(1, g)
    assert abs(m1.psi_plus[-1] - math.exp(-1.0)) < 1e-14
    m2 = euclidean_obstruction_mode(-2, g)
    assert abs(m2.psi_minus[0] - (-2.0 * math.exp(-1.0))) < 1e-14
    assert m2.psi_plus[0] == pytest.approx(math.sqrt(2.0) * math.exp(-1.0) / math.sqrt(0.5))
    with pytest.raises(ValueError):
        euclidean_obstruction_mode(0, g)


def test_euclidean_mode_axis_amplitude():
    g = RadialGrid.geometric(1.0, 400, r_min_factor=1e-6)
    for l in (1, -3, 7):
        m = euclidean_obstruction_mode(l, g)
        amp = np.sqrt(g.r[0]) * m.psi_plus[0]
        assert abs(amp - math.sqrt(abs(l))) < 1e-4


def test_euclidean_mode_ode_residual_small():
    for l in (1, -3, 7):
        g = RadialGrid.geometric(8.0 / abs(l), 800, r_min_factor=1e-4)
        m = euclidean_obstruction_mode(l, g)
        assert m.ode_residual() < 1e-8


def test_analytic_ode_residual_matches_dense_operator():
    # with the analytic derivative the mode residual is |D psi| / |psi| of the
    # mode's tensor field; the stencil path stays for modes without one
    for l in (1, -3, 7):
        g = RadialGrid.geometric(8.0 / abs(l), 500, r_min_factor=1e-4)
        m = euclidean_obstruction_mode(l, g)
        psi = euclidean_obstruction_field(l, g)
        dense = dirac_apply(psi).norm() / psi.norm()
        assert abs(m.ode_residual() - dense) < 1e-12
        stencil = ModeSpinor(m.k, m.l, g, m.psi_plus, m.psi_minus)
        assert stencil.ode_residual() < 1e-8


def test_euclidean_mode_decay_rate():
    g = RadialGrid.geometric(2.0, 600, r_min_factor=1e-3)
    m = euclidean_obstruction_mode(4, g)
    assert m.decay_rate() == pytest.approx(4.0, rel=1e-4)


def test_mu_perturbed_rates():
    cases = [((0, 2.0), 2.0), ((3, 4.0), 5.0), ((1, 1e-6), 1.0)]
    for (l, mu), rate in cases:
        g = RadialGrid.geometric(8.0 / rate, 700, r_min_factor=1e-3)
        m = mu_perturbed_mode(l, mu, g)
        assert m.decay_rate() == pytest.approx(rate, rel=0.01)
    g = RadialGrid.geometric(4.0, 300, r_min_factor=1e-3)
    a = mu_perturbed_mode(0, 2.0, g, component=0)
    b = mu_perturbed_mode(0, 2.0, g, component=1)
    assert np.all(a.psi_minus == 0.0) and np.all(b.psi_plus == 0.0)
    with pytest.raises(ValueError):
        mu_perturbed_mode(0, -1.0, g)
    with pytest.raises(ValueError):
        mu_perturbed_mode(0, 0.0, g)


# -- shooting branches ----------------------------------------------------------


@pytest.mark.filterwarnings("error")
def test_decaying_branch_matches_closed_form():
    g = RadialGrid.geometric(3.0, 600, r_min_factor=1e-4)
    num = shoot_mode(0, 3, g, decaying=True)
    ref = euclidean_obstruction_mode(3, g)
    scale = math.sqrt(3.0)  # closed form carries sqrt|l|, the seed does not
    diff = ModeSpinor(
        0, 3, g,
        num.psi_plus - ref.psi_plus / scale,
        num.psi_minus - ref.psi_minus / scale,
    )
    assert diff.weighted_l2() / (ref.weighted_l2() / scale) < 1e-6


@pytest.mark.filterwarnings("error")
def test_regular_branch_grows_and_is_flagged():
    # u' = M(r) u is linear and 2-dimensional, so two solutions are dependent
    # everywhere or nowhere: a growing regular branch is transverse to the
    # decaying one, and no k != 0 mode is both regular and decaying
    g = RadialGrid.geometric(4.0, 500, r_min_factor=1e-3)
    for k, l in ((1, 2), (-2, 3), (2, -2), (-1, 2), (2, 5), (-3, 4)):
        reg = shoot_mode(k, l, g, decaying=False)
        rate = growth_rate(reg)
        assert rate > 0.5 * abs(l)
        assert rate == pytest.approx(abs(l), rel=0.15)


# -- fields and the operator ----------------------------------------------------


def _bump_mode_field(k, l, g, center=1.2, width=0.5, nt=16, ntheta=16):
    prof, dprof = radial_bump(g.r, center, width)
    return field_from_mode(k, l, g, prof, 1j * prof, nt, ntheta,
                           dprof_plus=dprof, dprof_minus=1j * dprof)


def test_kernel_family_annihilated():
    for l in (1, -3, 7):
        g = RadialGrid.geometric(8.0 / abs(l), 500, r_min_factor=1e-4)
        psi = euclidean_obstruction_field(l, g)
        res = dirac_apply(psi)
        assert res.norm() / psi.norm() < 1e-10


def test_spectral_derivative_multiplies_by_exact_integer_modes(monkeypatch):
    # with the transforms replaced by the identity, fft_mode_derivative
    # returns its multipliers: i k for the integer modes in FFT order, exact
    # for every length (2 pi fftfreq(n, 2 pi / n) misses some from n = 14, and
    # fftfreq(n, 1 / n) from n = 49)
    monkeypatch.setattr(np.fft, "fft", lambda values, axis: values)
    monkeypatch.setattr(np.fft, "ifft", lambda values, axis: values)
    for n in range(1, 513):
        modes = np.concatenate([np.arange((n + 1) // 2), np.arange(-(n // 2), 0)])
        got = dirac.fft_mode_derivative(np.ones((2, n)), axis=1)
        assert np.array_equal(got, np.broadcast_to(1j * modes, (2, n))), n


def test_operator_preserves_stored_modes():
    g = RadialGrid.geometric(3.0, 300, r_min_factor=1e-3)
    psi = _bump_mode_field(2, 3, g)
    out = dirac_apply(psi)
    for comp in (out.plus, out.minus):
        spec_t = np.fft.fft(comp, axis=0)
        spec = np.fft.fft(spec_t, axis=2)
        total = np.linalg.norm(spec)
        kept = np.linalg.norm(spec[3, :, 2])
        assert abs(total - kept) / total < 1e-12


def test_clifford_assembly_matches_polar_rows():
    g = RadialGrid.geometric(3.0, 300, r_min_factor=1e-3)
    psi = _bump_mode_field(2, -3, g)
    a = dirac_apply(psi)
    b = dirac_apply_via_clifford(psi)
    scale = a.norm()
    diff = SpinorField(g, a.plus - b.plus, a.minus - b.minus)
    assert diff.norm() / scale < 1e-10


def test_mode_restriction_matches_ode_matrix():
    # on a single stored mode (prof, 0) the rows collapse to
    #   out_+ = -l * prof,  out_- = prof' - (k/r) prof + prof/(2r),
    # the transcription of u' = M(k, l, r) u for the profile pair
    g = RadialGrid.geometric(3.0, 400, r_min_factor=1e-3)
    k, l = 2, 3
    prof, dprof = radial_bump(g.r, 1.2, 0.5)
    zero = np.zeros_like(prof)
    psi = field_from_mode(k, l, g, prof, zero, 32, 16,
                          dprof_plus=dprof, dprof_minus=zero)
    out = dirac_apply(psi)
    got_plus = out.plus[0, :, 0]  # t = theta = 0, phase factors are 1
    got_minus = out.minus[0, :, 0]
    want_minus = dprof - (k / g.r) * prof + prof / (2.0 * g.r)
    assert np.max(np.abs(got_plus - (-float(l)) * prof)) < 1e-10
    assert np.max(np.abs(got_minus - want_minus)) < 1e-10 * np.max(np.abs(want_minus))


def test_field_constructor_rejects_aliasing():
    g = RadialGrid.geometric(2.0, 50, r_min_factor=1e-2)
    prof = np.ones(50)
    with pytest.raises(ValueError):
        field_from_mode(0, 9, g, prof, prof, nt=8, ntheta=8)
    with pytest.raises(ValueError):
        field_from_mode(9, 0, g, prof, prof, nt=8, ntheta=8)


# -- pairings --------------------------------------------------------------------


def test_obstruction_pairing_normalization():
    # the r dr integral misses 2|l| r_min at the axis, so the grid must reach
    # down to r_min ~ 1e-6 for a 1e-4 relative check on <Psi_1, Psi_1> = 4 pi^2
    g = RadialGrid.geometric(10.0, 1400, r_min_factor=1e-7)
    psi1 = euclidean_obstruction_field(1, g, nt=9)
    val = l2_pairing(psi1, psi1)
    assert abs(val.real - 4.0 * math.pi**2) / (4.0 * math.pi**2) < 1e-4
    assert abs(val.imag) < 1e-10
    psi2 = euclidean_obstruction_field(2, g, nt=9)
    assert abs(l2_pairing(psi1, psi2)) < 1e-12 * abs(val)


def test_mode_level_pairing_matches_field_pairing():
    g = RadialGrid.geometric(6.0, 800, r_min_factor=1e-4)
    m1 = euclidean_obstruction_mode(2, g)
    m2 = euclidean_obstruction_mode(2, g)
    radial = m1.radial_pairing(m2)
    f1 = euclidean_obstruction_field(2, g, nt=16)
    f2 = euclidean_obstruction_field(2, g, nt=16)
    full = l2_pairing(f1, f2)
    assert abs(full - radial * (2.0 * math.pi) ** 2) < 1e-10 * abs(full)


# -- adjointness ------------------------------------------------------------------


def test_adjointness_compact_support():
    # support [1, 2.4] sits well inside [0.4, 4]; keep the grid shallow so the
    # log spacing actually resolves the bumps
    g = RadialGrid.geometric(4.0, 800, r_min_factor=0.1)
    psi = _bump_mode_field(1, 2, g, center=1.5, width=0.5)
    phi = _bump_mode_field(1, 2, g, center=1.8, width=0.6)
    rep = adjointness_check(psi, phi)
    assert set(vars(rep)) == {"defect", "boundary_flagged"}
    assert rep.defect < 1e-6
    assert not rep.boundary_flagged


def test_adjointness_defect_falls_under_refinement():
    defects = []
    for n in (150, 300):
        g = RadialGrid.geometric(4.0, n, r_min_factor=0.1)
        prof, _ = radial_bump(g.r, 1.5, 0.5)
        psi = field_from_mode(1, 2, g, prof, 0.5 * prof, 16, 16)  # stencil path
        phi = field_from_mode(1, 2, g, prof * prof, prof, 16, 16)
        defects.append(adjointness_check(psi, phi).defect)
    assert defects[1] < 0.2 * defects[0]


def test_adjointness_flags_axis_boundary_term():
    defects = []
    for n in (400, 800):
        g = RadialGrid.geometric(2.0, n, r_min_factor=1e-4)
        chi = cutoff_c2(2.0 * g.r)
        dchi = 2.0 * cutoff_c2_prime(2.0 * g.r)
        prof = chi / np.sqrt(g.r)
        dprof = dchi / np.sqrt(g.r) - 0.5 * chi * g.r ** (-1.5)
        psi = field_from_mode(0, 0, g, prof, prof, 4, 4,
                              dprof_plus=dprof, dprof_minus=dprof)
        phi = field_from_mode(0, 0, g, prof, -prof, 4, 4,
                              dprof_plus=dprof, dprof_minus=-dprof)
        rep = adjointness_check(psi, phi)
        assert rep.boundary_flagged
        assert rep.defect > 0.1
        defects.append(rep.defect)
    # an honest boundary term does not shrink with resolution
    assert defects[1] > defects[0] / 3.0


# -- leading data ------------------------------------------------------------------


def test_leading_data_nondegeneracy():
    good = LeadingData.constant(1.0, 0.5j)
    assert good.nondegeneracy_min() > 1.2
    ms = multiply(good.c, good.c.conjugate()) + multiply(good.d, good.d.conjugate())
    assert abs(ms.coeff(0) - 1.25) < 1e-14
    with pytest.raises(ValueError):
        LeadingData.constant(0.0, 0.0)
    with pytest.raises(ValueError):
        LeadingData(
            FourierSeries1D.from_modes({1: 0.5, -1: 0.5}),  # cos t vanishes
            FourierSeries1D.zero(1),
        )
