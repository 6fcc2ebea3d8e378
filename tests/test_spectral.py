import math

import numpy as np
import pytest

from edl.series import (
    FourierSeries1D,
    cutoff_c2,
    cutoff_c2_prime,
    derivative,
    dyadic_pointwise_bound,
    fractional_resolvent,
    hilbert_transform,
    interpolation_ratio,
    multiply,
    second_derivative,
    smooth,
    verify_smoothing_axioms,
)


def random_series(rng, n_modes, decay=0.0):
    l = np.arange(-n_modes, n_modes + 1, dtype=float)
    scale = (1.0 + np.abs(l)) ** (-decay)
    c = scale * (rng.standard_normal(2 * n_modes + 1) + 1j * rng.standard_normal(2 * n_modes + 1))
    return FourierSeries1D(c)


# -- multiplier oracles -------------------------------------------------------


def test_hilbert_on_single_modes():
    e_plus = FourierSeries1D.from_modes({1: 1.0})
    e_minus = FourierSeries1D.from_modes({-1: 1.0})
    one = FourierSeries1D.from_modes({0: 1.0})
    assert hilbert_transform(e_plus).coeff(1) == pytest.approx(1.0)
    assert hilbert_transform(e_minus).coeff(-1) == pytest.approx(-1.0)
    assert hilbert_transform(one).coeff(0) == pytest.approx(1.0)


def test_hilbert_is_an_exact_involution(rng):
    for _ in range(20):
        u = random_series(rng, 24)
        v = hilbert_transform(hilbert_transform(u))
        assert np.array_equal(v.coeffs, u.coeffs)


def test_fractional_resolvent_values():
    one = FourierSeries1D.from_modes({0: 1.0})
    assert fractional_resolvent(one, 0.75).coeff(0) == pytest.approx(1.0)
    e1 = FourierSeries1D.from_modes({1: 1.0})
    assert fractional_resolvent(e1, 0.75).coeff(1) == pytest.approx(2.0**-0.75)
    assert abs(fractional_resolvent(e1, 0.75).coeff(1)) == pytest.approx(0.5946035575, abs=1e-9)
    e2 = FourierSeries1D.from_modes({2: 1.0})
    assert fractional_resolvent(e2, 1.0).coeff(2) == pytest.approx(0.2)


def test_second_derivative_values():
    assert second_derivative(FourierSeries1D.from_modes({0: 1.0})).coeff(0) == 0.0
    assert second_derivative(FourierSeries1D.from_modes({1: 1.0})).coeff(1) == pytest.approx(-1.0)
    sin3 = FourierSeries1D.from_modes({3: 1 / 2j, -3: -1 / 2j})
    out = second_derivative(sin3)
    assert out.coeff(3) == pytest.approx(-9.0 * (1 / 2j))
    assert out.coeff(-3) == pytest.approx(-9.0 * (-1 / 2j))


def test_multipliers_commute_exactly(rng):
    for _ in range(10):
        u = random_series(rng, 16)
        a = fractional_resolvent(hilbert_transform(u), 0.75)
        b = hilbert_transform(fractional_resolvent(u, 0.75))
        assert np.array_equal(a.coeffs, b.coeffs)
        a = second_derivative(hilbert_transform(u))
        b = hilbert_transform(second_derivative(u))
        assert np.array_equal(a.coeffs, b.coeffs)


# -- series algebra -----------------------------------------------------------


def test_product_is_exact_convolution():
    u = FourierSeries1D.from_modes({0: 1.0, 1: 1.0})
    sq = multiply(u, u)
    assert sq.coeff(0) == pytest.approx(1.0)
    assert sq.coeff(1) == pytest.approx(2.0)
    assert sq.coeff(2) == pytest.approx(1.0)
    assert sq.n_modes == 2


def test_product_matches_pointwise_values(rng):
    u = random_series(rng, 8)
    v = random_series(rng, 5)
    w = multiply(u, v)
    t = np.linspace(0.0, 2 * math.pi, 61, endpoint=False)
    assert np.allclose(w.evaluate(t), u.evaluate(t) * v.evaluate(t), atol=1e-12)


def test_conjugate_matches_pointwise_and_is_involutive(rng):
    u = random_series(rng, 12)
    t = np.linspace(0.0, 2 * math.pi, 41, endpoint=False)
    assert np.allclose(u.conjugate().evaluate(t), np.conj(u.evaluate(t)), atol=1e-12)
    assert np.array_equal(u.conjugate().conjugate().coeffs, u.coeffs)


def test_derivative_matches_second_derivative(rng):
    u = random_series(rng, 10)
    a = derivative(derivative(u))
    b = second_derivative(u)
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-14)


def test_parseval_identity_holds_to_quadrature_accuracy(rng):
    for _ in range(10):
        u = random_series(rng, int(rng.integers(1, 40)))
        assert u.parseval_defect() < 1e-10


# -- graded norms -------------------------------------------------------------


def test_norm_is_monotone_in_grading(rng):
    for _ in range(20):
        u = random_series(rng, 20)
        ms = sorted(rng.uniform(0.0, 6.0, size=4))
        norms = [u.sobolev_norm(m) for m in ms]
        assert all(a <= b * (1 + 1e-13) for a, b in zip(norms, norms[1:]))


def test_interpolation_constant_is_one(rng):
    for _ in range(1000):
        u = random_series(rng, int(rng.integers(1, 24)))
        m1, m, m2 = sorted(rng.uniform(0.0, 6.0, size=3))
        if m2 - m1 < 1e-3 or m - m1 < 1e-4 or m2 - m < 1e-4:
            continue
        assert interpolation_ratio(u, m, m1, m2) <= 1.0 + 1e-12


# -- mollifiers ---------------------------------------------------------------


def test_smooth_validates_eps(rng):
    u = random_series(rng, 8)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            smooth(u, bad)


def test_smooth_keeps_low_modes_and_kills_high_modes():
    u = FourierSeries1D.from_modes({100: 1.0}, 120)
    kept = smooth(u, 0.001)   # eps*|l| = 0.1 <= 1
    assert kept.coeff(100) == pytest.approx(1.0)
    killed = smooth(u, 0.05)  # eps*|l| = 5 >= 2
    assert killed.coeff(100) == 0.0
    zero_mode = FourierSeries1D.from_modes({0: 1.0})
    for eps in (1.0, 0.25, 2.0**-8):
        assert smooth(zero_mode, eps).coeff(0) == pytest.approx(1.0)


def test_smoothing_never_increases_graded_norms(rng):
    for _ in range(30):
        u = random_series(rng, 40)
        eps = float(rng.uniform(0.004, 1.0))
        su = smooth(u, eps)
        for m in (0.0, 1.0, 2.5, 4.0):
            assert su.sobolev_norm(m) <= u.sobolev_norm(m) * (1 + 1e-13)


def test_cutoff_profile_is_c2_and_monotone():
    x = np.linspace(0.0, 3.0, 2001)
    rho = cutoff_c2(x)
    assert np.all(np.diff(rho) <= 1e-14)
    assert np.all(rho[x <= 1.0] == 1.0)
    assert np.all(rho[x >= 2.0] == 0.0)
    # rho' from the analytic profile agrees with a centered difference
    h = 1e-5
    num = (cutoff_c2(x[1:-1] + h) - cutoff_c2(x[1:-1] - h)) / (2 * h)
    assert np.allclose(num, cutoff_c2_prime(x[1:-1]), atol=1e-7)


def test_smoothing_axioms_have_finite_stable_constants():
    eps_grid = [2.0**-k for k in range(1, 9)]
    report = verify_smoothing_axioms(m_max=4, eps_grid=eps_grid)
    assert report.passed
    for row in report.rows:
        assert np.isfinite(row.max_ratio)
        assert row.eps_spread <= 4.0


def test_smoothing_axiom_constants_bound_random_vectors(rng):
    # the per-mode sweep is the exact multiplier constant; random vectors
    # can only do better
    eps_grid = [2.0**-k for k in range(1, 7)]
    report = verify_smoothing_axioms(m_max=2, eps_grid=eps_grid)
    by_key = {(r.axiom, r.m, r.n): r.max_ratio for r in report.rows}
    for _ in range(25):
        u = random_series(rng, 80)
        eps = float(rng.choice(eps_grid))
        m, n = 1.0, 2.0
        su = smooth(u, eps)
        measured = su.sobolev_norm(n) * eps ** (n - m) / u.sobolev_norm(m)
        assert measured <= by_key[("smoothing", m, n)] * (1 + 1e-12)


# -- dyadic pointwise bound ----------------------------------------------------


def geometric_grid(r_min, r_max, n):
    return np.geomspace(r_min, r_max, n)


def test_dyadic_bound_on_linear_profile():
    r = geometric_grid(1e-6, 1.0, 4000)
    rep = dyadic_pointwise_bound(r, r, alpha=2.0)
    assert rep.integrable
    assert np.isfinite(rep.ratio)
    # int (r^2/r^2 + 1) r dr over (0,1] = 1, so the b-norm is 1
    assert rep.b_norm == pytest.approx(1.0, rel=1e-3)
    assert rep.sup_abs <= rep.chain_bound * 1.05


def test_dyadic_bound_on_sqrt_profile():
    r = geometric_grid(1e-6, 1.0, 4000)
    rep = dyadic_pointwise_bound(r, np.sqrt(r), alpha=1.5)
    assert rep.integrable
    assert np.isfinite(rep.ratio)
    assert rep.sup_abs <= rep.chain_bound * 1.05


def test_dyadic_bound_flags_constant_profile():
    r = geometric_grid(1e-6, 1.0, 4000)
    rep = dyadic_pointwise_bound(r, np.ones_like(r), alpha=1.5)
    assert not rep.integrable
    # the divergence is visible as growth under grid refinement toward the axis
    shallow = dyadic_pointwise_bound(geometric_grid(1e-3, 1.0, 1500), np.ones(1500), alpha=1.5)
    assert rep.b_norm > shallow.b_norm * 1.2


def test_dyadic_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        dyadic_pointwise_bound(np.array([0.0, 0.5, 1.0]), np.ones(3), alpha=1.5)
    with pytest.raises(ValueError):
        dyadic_pointwise_bound(np.array([0.1, 0.5, 1.0]), np.ones(3), alpha=0.5)
