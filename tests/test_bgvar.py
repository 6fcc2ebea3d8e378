import math

import numpy as np
import pytest

from edl.series import (
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
from edl.dirac import (
    LeadingData,
    ModeSpinor,
    RadialGrid,
    covariant_gradient,
    dirac_apply,
    euclidean_obstruction_field,
    euclidean_obstruction_mode,
    fft_mode_derivative,
    clifford_action,
    l2_pairing,
)
from edl.bgvar import (
    PAIRING_DECAY_BUDGET,
    PAIRING_RADIAL_POINTS,
    MetricVariation,
    bg_apply,
    bg_apply_terms,
    bg_pairing_comparison,
    leading_term_field,
    leading_variation,
)
from edl.experiments import bg_probe_design


def generic_data():
    c = FourierSeries1D.from_modes({0: 1.0, 1: 0.35, -1: 0.1})
    d = FourierSeries1D.from_modes({0: 0.4, -1: 0.2, 2: 0.15})
    return LeadingData(c, d)


def real_series(amplitudes):
    modes = {l: a for l, a in amplitudes.items()}
    modes |= {-l: np.conj(a) for l, a in amplitudes.items()}
    return FourierSeries1D.from_modes(modes)


# -- cutoff profile ------------------------------------------------------------------


def chi(r, r0):
    """The pullback's radial cutoff of radius r0 and its two r-derivatives."""
    x = 2.0 * r / r0
    return cutoff_c2(x), (2.0 / r0) * cutoff_c2_prime(x), (4.0 / r0**2) * cutoff_c2_second(x)


def test_cutoff_profile_plateau_and_support():
    r = np.array([0.0, 0.5, 1.0, 1.3, 1.9, 2.0, 5.0])
    value, d1, d2 = chi(r, 2.0)
    assert np.all(value[r <= 1.0] == 1.0)
    assert np.all(value[r >= 2.0] == 0.0)
    assert np.all((value >= 0.0) & (value <= 1.0))
    outside = (r <= 1.0) | (r >= 2.0)
    assert np.all(d1[outside] == 0.0) and np.all(d2[outside] == 0.0)


def test_cutoff_profile_derivatives_match_differences():
    # h sized for second differences: smaller steps lose to roundoff eps/h^2
    r0 = 1.7
    r = np.linspace(0.9, 1.65, 40)
    h = 1e-4
    value, d1, d2 = chi(r, r0)
    up, down = chi(r + h, r0)[0], chi(r - h, r0)[0]
    assert np.max(np.abs((up - down) / (2 * h) - d1)) < 1e-5
    assert np.max(np.abs((up - 2 * value + down) / h**2 - d2)) < 1e-4


def test_cutoff_profile_rejects_nonpositive_radius():
    rgrid = RadialGrid.geometric(2.0, 64)
    eta_x = real_series({1: 0.4})
    for r0 in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="cutoff radius must be positive"):
            MetricVariation.from_displacement(eta_x, None, rgrid, 12, 8, cutoff=r0)
    with pytest.raises(ValueError, match="cutoff radius must be positive"):
        bg_pairing_comparison(generic_data(), eta_x, l_values=(1,), cutoff=-1.0)


# -- pullback family -----------------------------------------------------------------


def test_pullback_zero_displacement_vanishes():
    rgrid = RadialGrid.geometric(2.0, 64)
    var = MetricVariation.from_displacement(
        FourierSeries1D.zero(2), None, rgrid, 12, 8, cutoff=1.0
    )
    assert var.max_abs() == 0.0


def test_pullback_constant_displacement_without_cutoff_vanishes():
    # a rigid translation with chi identically 1 changes nothing at first order
    rgrid = RadialGrid.geometric(2.0, 64)
    eta_x = FourierSeries1D.from_modes({0: 0.7})
    eta_y = FourierSeries1D.from_modes({0: -0.3})
    var = MetricVariation.from_displacement(eta_x, eta_y, rgrid, 12, 8, cutoff=None)
    assert var.max_abs() < 1e-15


def test_pullback_single_mode_samples():
    rgrid = RadialGrid.geometric(2.0, 64)
    nt, ntheta = 12, 8
    eta_x = FourierSeries1D.from_modes({1: 1.0})
    var = MetricVariation.from_displacement(eta_x, None, rgrid, nt, ntheta, cutoff=None)
    t = np.arange(nt) * (TWO_PI / nt)
    want_tx = (1j * np.exp(1j * t))[:, None, None] * np.ones((1, 64, ntheta))
    assert np.max(np.abs(var.g_tx - want_tx)) < 1e-13
    for arr in (var.g_ty, var.g_xx, var.g_xy, var.g_yy):
        assert np.max(np.abs(arr)) == 0.0
    # div has only the x component: -eta_x'' chi = e^{it}
    want_div_x = np.exp(1j * t)[:, None, None] * np.ones((1, 64, ntheta))
    assert np.max(np.abs(var.div["x"] - want_div_x)) < 1e-13
    assert np.max(np.abs(var.div["t"])) == 0.0
    for a in ("t", "x", "y"):
        assert np.max(np.abs(var.dtr[a])) == 0.0


def test_pullback_cutoff_spatial_components():
    rgrid = RadialGrid.geometric(3.0, 400, r_min_factor=1e-2)
    nt, ntheta = 8, 16
    eta_x = FourierSeries1D.from_modes({0: 1.0})
    var = MetricVariation.from_displacement(eta_x, None, rgrid, nt, ntheta, cutoff=2.0)
    th = np.arange(ntheta) * (TWO_PI / ntheta)
    dchi = chi(rgrid.r, 2.0)[1][None, :, None]
    want_xx = 2.0 * dchi * np.cos(th)[None, None, :]
    want_xy = dchi * np.sin(th)[None, None, :]
    assert np.max(np.abs(var.g_xx - want_xx)) < 1e-13
    assert np.max(np.abs(var.g_xy - want_xy)) < 1e-13
    assert np.max(np.abs(var.g_tx)) == 0.0


def test_divergence_and_trace_differential_match_stencils():
    # the closed-form radial chain rule against direct differentiation of the
    # sampled tensor components
    rgrid = RadialGrid.geometric(2.0, 1200, r_min_factor=1e-3)
    nt, ntheta = 16, 16
    eta_x = real_series({1: 0.4 + 0.1j, 2: 0.15})
    eta_y = real_series({1: -0.2j, 2: 0.05 + 0.2j})
    var = MetricVariation.from_displacement(eta_x, eta_y, rgrid, nt, ntheta, cutoff=1.0)
    r = rgrid.r[None, :, None]
    th = np.arange(ntheta) * (TWO_PI / ntheta)
    cos_t = np.cos(th)[None, None, :]
    sin_t = np.sin(th)[None, None, :]

    def d_t(arr):
        return fft_mode_derivative(arr, 0)

    def d_x(arr):
        return cos_t * rgrid.derivative(arr, axis=1) - sin_t / r * fft_mode_derivative(arr, 2)

    def d_y(arr):
        return sin_t * rgrid.derivative(arr, axis=1) + cos_t / r * fft_mode_derivative(arr, 2)

    zero = np.zeros_like(var.g_tx)
    num_div = {
        "t": -(d_t(zero) + d_x(var.g_tx) + d_y(var.g_ty)),
        "x": -(d_t(var.g_tx) + d_x(var.g_xx) + d_y(var.g_xy)),
        "y": -(d_t(var.g_ty) + d_x(var.g_xy) + d_y(var.g_yy)),
    }
    trace = var.g_xx + var.g_yy
    num_dtr = {"t": d_t(trace), "x": d_x(trace), "y": d_y(trace)}
    scale = var.max_abs()
    # the cutoff is C^2 only, so stencil rows straddling its two junctions see
    # an O(ds^2 chi''') defect; away from them the agreement is sharp
    away = np.minimum(np.abs(rgrid.r - 0.5), np.abs(rgrid.r - 1.0)) > 0.03
    for a in ("t", "x", "y"):
        assert np.max(np.abs(num_div[a] - var.div[a])) < 2e-2 * scale
        assert np.max(np.abs((num_div[a] - var.div[a])[:, away, :])) < 1e-8 * scale
        assert np.max(np.abs(num_dtr[a] - var.dtr[a])) < 2e-2 * scale
        assert np.max(np.abs((num_dtr[a] - var.dtr[a])[:, away, :])) < 1e-8 * scale


def test_pullback_rejects_aliased_t_grid():
    rgrid = RadialGrid.geometric(2.0, 32)
    eta_x = real_series({3: 0.5})
    with pytest.raises(ValueError):
        MetricVariation.from_displacement(eta_x, None, rgrid, 6, 8)


# -- leading field -------------------------------------------------------------------


def test_leading_field_gradient_oracle():
    data = generic_data()
    rgrid = RadialGrid.geometric(3.0, 200, r_min_factor=1e-3)
    nt, ntheta = 16, 8
    phi = leading_term_field(data, rgrid, nt, ntheta)
    t = np.arange(nt) * (TWO_PI / nt)
    th = np.arange(ntheta) * (TWO_PI / ntheta)
    c_t = data.c.evaluate(t)[:, None, None]
    d_t = data.d.evaluate(t)[:, None, None]
    dc_t = derivative(data.c).evaluate(t)[:, None, None]
    dd_t = derivative(data.d).evaluate(t)[:, None, None]
    inv_root = (1.0 / np.sqrt(rgrid.r))[None, :, None]
    root = np.sqrt(rgrid.r)[None, :, None]
    e_th = np.exp(1j * th)[None, None, :]

    grad = covariant_gradient(phi)
    scale = float(np.max(np.abs(phi.plus)))
    gx_p, gx_m = grad["x"]
    assert np.max(np.abs(gx_p - 0.5 * c_t * inv_root)) < 1e-10 * scale
    assert np.max(np.abs(gx_m - 0.5 * d_t * inv_root)) < 1e-10 * scale
    gy_p, gy_m = grad["y"]
    assert np.max(np.abs(gy_p - 0.5j * c_t * inv_root)) < 1e-10 * scale
    assert np.max(np.abs(gy_m + 0.5j * d_t * inv_root)) < 1e-10 * scale
    gt_p, gt_m = grad["t"]
    assert np.max(np.abs(gt_p - dc_t * root * e_th)) < 1e-10 * scale
    assert np.max(np.abs(gt_m - dd_t * root * np.conj(e_th))) < 1e-10 * scale


def test_leading_field_kernel_for_constant_data():
    data = LeadingData.constant(1.1, -0.6 + 0.2j)
    rgrid = RadialGrid.geometric(2.0, 300, r_min_factor=1e-4)
    phi = leading_term_field(data, rgrid, 8, 8)
    out = dirac_apply(phi)
    assert out.norm() < 1e-13 * max(phi.norm(), 1.0)


def test_leading_field_dirac_image_for_varying_data():
    data = generic_data()
    rgrid = RadialGrid.geometric(2.0, 300, r_min_factor=1e-4)
    nt, ntheta = 16, 8
    phi = leading_term_field(data, rgrid, nt, ntheta)
    out = dirac_apply(phi)
    t = np.arange(nt) * (TWO_PI / nt)
    th = np.arange(ntheta) * (TWO_PI / ntheta)
    root = np.sqrt(rgrid.r)[None, :, None]
    e_th = np.exp(1j * th)[None, None, :]
    dc_t = derivative(data.c).evaluate(t)[:, None, None]
    dd_t = derivative(data.d).evaluate(t)[:, None, None]
    want_p = 1j * dc_t * root * e_th
    want_m = -1j * dd_t * root * np.conj(e_th)
    scale = float(np.max(np.abs(phi.plus)))
    assert np.max(np.abs(out.plus - want_p)) < 1e-12 * scale
    assert np.max(np.abs(out.minus - want_m)) < 1e-12 * scale


def test_leading_field_validates_grids():
    data = generic_data()
    rgrid = RadialGrid.geometric(2.0, 64)
    with pytest.raises(ValueError):
        leading_term_field(data, rgrid, 4, 8)  # data band needs nt >= 6
    with pytest.raises(ValueError):
        leading_term_field(data, rgrid, 16, 2)


# -- operator variation --------------------------------------------------------------


def test_bg_zero_variation_returns_zero():
    data = generic_data()
    rgrid = RadialGrid.geometric(2.0, 128)
    nt, ntheta = 16, 8
    phi = leading_term_field(data, rgrid, nt, ntheta)
    var = MetricVariation.from_displacement(
        FourierSeries1D.zero(1), None, rgrid, nt, ntheta
    )
    assert bg_apply(var, phi).norm() == 0.0


def test_bg_divergence_term_oracle():
    # chi identically 1: divergence term is -(1/2)(eta_x'' sigma_x + eta_y'' sigma_y) psi
    data = generic_data()
    rgrid = RadialGrid.geometric(2.0, 128)
    nt, ntheta = 24, 8
    phi = leading_term_field(data, rgrid, nt, ntheta)
    eta_x = real_series({1: 0.4, 3: 0.2 - 0.1j})
    eta_y = real_series({2: -0.25j})
    var = MetricVariation.from_displacement(eta_x, eta_y, rgrid, nt, ntheta)
    terms = bg_apply_terms(var, phi)

    t = np.arange(nt) * (TWO_PI / nt)
    e_th = np.exp(1j * (np.arange(ntheta) * (TWO_PI / ntheta)))[None, None, :]
    ddx = second_derivative(eta_x).evaluate(t)[:, None, None]
    ddy = second_derivative(eta_y).evaluate(t)[:, None, None]
    sx_p, sx_m = clifford_action("x", e_th, np.conj(e_th), phi.plus, phi.minus)
    sy_p, sy_m = clifford_action("y", e_th, np.conj(e_th), phi.plus, phi.minus)
    want_p = -0.5 * (ddx * sx_p + ddy * sy_p)
    want_m = -0.5 * (ddx * sx_m + ddy * sy_m)
    scale = float(np.max(np.abs(want_p)))
    assert np.max(np.abs(terms.divergence.plus - want_p)) < 1e-12 * scale
    assert np.max(np.abs(terms.divergence.minus - want_m)) < 1e-12 * scale


def test_bg_trace_term_needs_cutoff():
    data = generic_data()
    rgrid = RadialGrid.geometric(2.0, 128, r_min_factor=1e-2)
    nt, ntheta = 16, 8
    phi = leading_term_field(data, rgrid, nt, ntheta)
    eta_x = real_series({1: 0.4})
    free = bg_apply_terms(
        MetricVariation.from_displacement(eta_x, None, rgrid, nt, ntheta), phi
    )
    assert free.trace.norm() == 0.0
    cut = bg_apply_terms(
        MetricVariation.from_displacement(
            eta_x, None, rgrid, nt, ntheta, cutoff=1.0
        ),
        phi,
    )
    assert cut.trace.norm() > 1e-3


def test_bg_tensor_term_oracle():
    # chi identically 1 leaves only the t-row couplings; the covariant
    # derivatives of the leading field are known in closed form
    data = generic_data()
    rgrid = RadialGrid.geometric(2.0, 128, r_min_factor=1e-3)
    nt, ntheta = 24, 8
    phi = leading_term_field(data, rgrid, nt, ntheta)
    eta_x = real_series({1: 0.4, 2: -0.15j})
    eta_y = real_series({1: 0.1 + 0.2j})
    var = MetricVariation.from_displacement(eta_x, eta_y, rgrid, nt, ntheta)
    terms = bg_apply_terms(var, phi)

    t = np.arange(nt) * (TWO_PI / nt)
    e_th = np.exp(1j * (np.arange(ntheta) * (TWO_PI / ntheta)))[None, None, :]
    dex = derivative(eta_x).evaluate(t)[:, None, None]
    dey = derivative(eta_y).evaluate(t)[:, None, None]
    grad = covariant_gradient(phi)

    want_p = np.zeros_like(phi.plus)
    want_m = np.zeros_like(phi.minus)
    for coeff, g_axis, s_axis in (
        (dex, "x", "t"),
        (dex, "t", "x"),
        (dey, "y", "t"),
        (dey, "t", "y"),
    ):
        cp, cm = clifford_action(s_axis, e_th, np.conj(e_th), *grad[g_axis])
        want_p = want_p - 0.5 * coeff * cp
        want_m = want_m - 0.5 * coeff * cm
    scale = float(np.max(np.abs(want_p)))
    assert np.max(np.abs(terms.tensor.plus - want_p)) < 1e-12 * scale
    assert np.max(np.abs(terms.tensor.minus - want_m)) < 1e-12 * scale


def test_bg_rejects_mismatched_grids():
    data = generic_data()
    rgrid = RadialGrid.geometric(2.0, 128)
    phi = leading_term_field(data, rgrid, 16, 8)
    var = MetricVariation.from_displacement(
        FourierSeries1D.zero(1), None, rgrid, 12, 8
    )
    with pytest.raises(ValueError):
        bg_apply(var, phi)


# -- pairing comparison --------------------------------------------------------------


def multiplier_ratio_prediction(data, eta_x, eta_y, l):
    """Closed-form K(l) from the series-level reduction of the pairing."""
    eta = eta_x if eta_y is None else eta_x + eta_y * 1j
    de, dde = derivative(eta), second_derivative(eta)
    num_c = derivative(multiply(data.c, de))
    num_d = derivative(multiply(data.d, de.conjugate()))
    den_c = multiply(data.c, dde)
    den_d = multiply(data.d, dde.conjugate())
    s = 1.0 if l >= 0 else -1.0
    num = num_c.coeff(l) - s * num_d.coeff(l)
    den = den_c.coeff(l) - s * den_d.coeff(l)
    return -0.75 * num / den


def test_pairing_flat_data_hits_three_quarters():
    data = LeadingData.constant(1.3, 0.4)
    eta_x = real_series({4: 0.7 / 16, 8: 0.7 / 64, 16: 0.7 / 256})
    rep = bg_pairing_comparison(data, eta_x, l_values=(4, 8, 16))
    for v in rep.khat.values():
        assert abs(v.real + 0.75) < 1e-5
    assert rep.max_imag < 1e-12
    assert rep.closest_candidate == -0.75
    assert all(d < 1e-10 for d in rep.deviation_values.values())
    assert math.isnan(rep.deviation_exponent)
    assert abs(rep.fitted_constant + 0.75) < 1e-5


def test_pairing_matches_series_reduction():
    # field-level quadrature against the independent series-level closed form,
    # complex parts and negative modes included
    data = generic_data()
    amps = {l: 0.7 * l**-2.0 for l in range(1, 21)}
    eta_x = real_series(amps)
    eta_y = real_series({l: 0.3 * l**-2.0 for l in range(1, 21)})
    rep = bg_pairing_comparison(data, eta_x, eta_y=eta_y, l_values=(4, 8, -8))
    for l, v in rep.khat.items():
        pred = multiplier_ratio_prediction(data, eta_x, eta_y, l)
        assert abs(v - pred) < 5e-6
    assert rep.max_imag > 1e-3  # complex displacement mix makes the ratio complex


def test_pairing_deviation_exponent_and_fit():
    # flat displacement spectrum and a one-sided data bump give deviations
    # with a clean first-order tail
    c = FourierSeries1D.from_modes({0: 1.0, 1: 0.3})
    data = LeadingData(c, FourierSeries1D.zero(0))
    eta_x = real_series({l: 0.05 for l in range(1, 67)})
    rep = bg_pairing_comparison(data, eta_x, l_values=(4, 8, 16, 32, 64))
    assert -1.2 < rep.deviation_exponent < -0.8
    assert abs(rep.fitted_constant + 0.75) < 5e-4
    assert rep.closest_candidate == -0.75
    assert rep.candidate_distances[-1.5] > 0.7
    # deviations strictly decay along doubling pairs
    ds = [rep.deviation_values[l] for l in sorted(rep.deviation_values)]
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_deviation_exponent_is_the_least_squares_slope():
    # the closed-form slope against np.polyfit, at bg-check's default probes
    # and at l up to 1024
    for l_max in (128, 1024):
        data, eta = bg_probe_design(l_max)
        probes = tuple(2**k for k in range(3, l_max.bit_length()))
        rep = bg_pairing_comparison(data, eta, l_values=probes)
        ls = sorted(rep.deviation_values)
        ys = np.log([rep.deviation_values[l] for l in ls])
        want = np.polyfit(np.log(ls), ys, 1)[0]
        assert len(ls) >= 4 and abs(rep.deviation_exponent - want) <= 1e-12
    # the shared helper against np.polyfit on random data and on two points,
    # and its refusal of a single point
    rng = np.random.default_rng(5)
    for x, y in ((rng.uniform(-3, 3, 40), rng.standard_normal(40)),
                 (np.array([1.0, 4.0]), np.array([2.0, -7.0]))):
        slope, intercept = fit_line(x, y)
        assert np.allclose((slope, intercept), np.polyfit(x, y, 1), rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="two distinct x"):
        fit_line(np.array([2.0]), np.array([1.0]))


def test_pairing_cutoff_drift_is_exponentially_small():
    data = generic_data()
    eta_x = real_series({l: 0.7 * l**-2.0 for l in range(1, 37)})
    free = bg_pairing_comparison(data, eta_x, l_values=(16, 32))
    cut = bg_pairing_comparison(
        data, eta_x, l_values=(16, 32), cutoff=1.0
    )
    d16 = abs(cut.khat[16] - free.khat[16])
    d32 = abs(cut.khat[32] - free.khat[32])
    assert 0.0 < d16 < 1e-4
    assert d32 < 0.2 * d16


def test_pairing_validation():
    data = generic_data()
    bad = FourierSeries1D.from_modes({1: 0.3})  # not conjugate-symmetric
    with pytest.raises(ValueError):
        bg_pairing_comparison(data, bad, l_values=(1,))
    eta = real_series({2: 0.5})
    with pytest.raises(ValueError):
        bg_pairing_comparison(data, eta, l_values=(8,))  # probe mode absent


def test_pairing_report_is_serializable_shape():
    data = LeadingData.constant(1.0, 0.2)
    eta_x = real_series({2: 0.5, 4: 0.125})
    rep = bg_pairing_comparison(data, eta_x, l_values=(2, 4))
    assert set(vars(rep)) == {
        "l_values", "measured", "khat", "fitted_constant", "candidate_distances",
        "closest_candidate", "deviation_values", "deviation_exponent", "max_imag",
    }
    assert rep.l_values == (2, 4)
    assert set(rep.khat) == {2, 4}
    assert set(rep.candidate_distances) == {-0.75, -1.5}
    assert rep.deviation_values.keys() == {2}


def complex_data():
    c = FourierSeries1D.from_modes({0: 1.0 + 0.2j, 1: 0.35 - 0.1j, -1: 0.1})
    d = FourierSeries1D.from_modes({0: 0.4j, -1: 0.2, 2: 0.15 + 0.3j})
    return LeadingData(c, d)


def per_probe_pairings(data, eta_x, eta_y, l_values, cutoff):
    """The measured pairings one probe at a time, each on its own grid: the
    loop that the row stack of probe grids replaced."""
    out = {}
    for l in l_values:
        r_max = PAIRING_DECAY_BUDGET / abs(l)
        if cutoff is not None:
            r_max = max(r_max, 1.2 * cutoff)
        rgrid = RadialGrid.geometric(r_max, PAIRING_RADIAL_POINTS, r_min_factor=1e-7)
        bp, bm = leading_variation(data, eta_x, eta_y, rgrid.r, cutoff)
        bg_l = ModeSpinor(0, l, rgrid, bp.coeff(l, 0), bm.coeff(l, 0))
        pairing = bg_l.radial_pairing(euclidean_obstruction_mode(l, rgrid))
        out[l] = TORUS_AREA * complex(pairing)
    return out


@pytest.mark.parametrize("cutoff", [None, 1.0], ids=["free", "cutoff"])
def test_pairing_matches_dense_reference(cutoff):
    # the (l, 0) coefficient of the separable B(gdot) Phi0 against dense
    # bg_apply + l2_pairing on an alias-free tensor grid of the same radii,
    # and bit for bit against the probes paired one at a time
    data = complex_data()
    eta_x = real_series({l: (0.7 + 0.2j) * l**-2.0 for l in range(1, 21)})
    eta_y = real_series({l: (0.3 - 0.1j) * l**-2.0 for l in range(1, 21)})
    l_values = (4, -4, 8, 16)
    rep = bg_pairing_comparison(data, eta_x, eta_y, l_values=l_values, cutoff=cutoff)
    assert rep.measured == per_probe_pairings(data, eta_x, eta_y, l_values, cutoff)
    for l in l_values:
        r_max = 30.0 / abs(l) if cutoff is None else max(30.0 / abs(l), 1.2)
        rgrid = RadialGrid.geometric(r_max, 500, r_min_factor=1e-7)
        nt, ntheta = 2 * (abs(l) + 20 + 2) + 3, 8
        phi = leading_term_field(data, rgrid, nt, ntheta)
        var = MetricVariation.from_displacement(eta_x, eta_y, rgrid, nt, ntheta, cutoff)
        psi = euclidean_obstruction_field(l, rgrid, nt=nt, ntheta=ntheta)
        dense = l2_pairing(bg_apply(var, phi), psi)
        assert abs(rep.measured[l] - dense) <= 1e-11 * abs(dense)


def test_pairing_reach_to_l_1024():
    # three more mode doublings than the default probe design reaches; the
    # eight probes share one stack and pair as they do one at a time
    data, eta = bg_probe_design(1024)
    probes = tuple(2**k for k in range(3, 11))
    rep = bg_pairing_comparison(data, eta, l_values=probes)
    assert rep.measured == per_probe_pairings(data, eta, None, probes, None)
    assert abs(rep.fitted_constant + 0.75) < 1e-5
    assert -1.2 <= rep.deviation_exponent <= -0.8
    assert rep.closest_candidate == -0.75
