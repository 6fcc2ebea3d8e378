import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from edl.bandeig import _positive_definite, certified_spectrum
from edl.config import build_config, dense_array_bound
from edl.dirac import LeadingData
from edl.deform import (
    KERNEL_REL_THRESHOLD,
    ExtendedSystem,
    RealizedOperator,
    T_SYMBOL_SCALE,
    commutator_with_sign_multiplier,
    fredholm_diagnostics,
    l_op,
    l_star,
    ll_star_defect_operator,
    loss_of_regularity_profile,
    obstruction_direction_series,
    real_coords,
    realize_l,
    realize_t,
    series_from_real,
    t_op,
)
from edl import bandeig, deform, experiments
from edl.experiments import run_continuation, run_deform_op, run_nash_moser
from edl.series import FourierSeries1D, hilbert_transform, multiply


def random_series(rng, n_modes, scale=1.0):
    c = rng.normal(size=2 * n_modes + 1) + 1j * rng.normal(size=2 * n_modes + 1)
    return FourierSeries1D(scale * c)


def generic_data(rng):
    c_pert = {k: 0.1 * (rng.normal() + 1j * rng.normal()) for k in (-2, -1, 1, 2)}
    c_pert[0] = 1.0
    d_modes = {k: 0.15 * (rng.normal() + 1j * rng.normal()) for k in (-2, -1, 0, 1, 2)}
    return LeadingData(
        FourierSeries1D.from_modes(c_pert), FourierSeries1D.from_modes(d_modes)
    )


# -- real coordinates ---------------------------------------------------------


def test_real_coordinate_round_trip(rng):
    s = random_series(rng, 5)
    back = series_from_real(real_coords(s))
    assert np.array_equal(back.coeffs, s.coeffs)
    # a dense matrix of unknown structure survives its band bit for bit
    for n_in, n_out in ((3, 3), (2, 5), (6, 1)):
        m = rng.normal(size=(2 * (2 * n_out + 1), 2 * (2 * n_in + 1)))
        m[m < -1.0] = -0.0
        back = RealizedOperator.from_matrix(m, n_in, n_out).matrix
        assert back.tobytes() == m.tobytes()
    with pytest.raises(ValueError):
        series_from_real(np.zeros(12))  # 6 complex modes cannot be 2N+1
    with pytest.raises(ValueError):
        series_from_real(np.zeros(7))  # cannot pair each Re with an Im


def applied(op, s):
    """op's matrix applied to s on band-order coordinates."""
    return series_from_real(op.matrix @ real_coords(s.truncate(op.n_in)))


def test_realize_reproduces_function(rng):
    op = RealizedOperator.realize(hilbert_transform, 6, 6)
    s = random_series(rng, 6)
    got = applied(op, s)
    want = hilbert_transform(s)
    assert np.allclose(got.coeffs, want.coeffs, atol=1e-14)


def test_realize_exact_composition_through_products(rng):
    data = generic_data(rng)
    op = realize_t(data, 8, 8)
    s = random_series(rng, 8)
    want = t_op(data, s).truncate(8)
    got = applied(op, s)
    assert np.allclose(got.coeffs, want.coeffs, atol=1e-12)


# -- the multiplier pair ---------------------------------------------------------


def test_l_op_flat_data_is_sign_multiplier(rng):
    data = LeadingData.constant(1.0, 0.0)
    s = random_series(rng, 6)
    out = l_op(data, s)
    want = hilbert_transform(s)
    assert np.allclose(out.truncate(6).coeffs, want.coeffs, atol=1e-14)
    data_d = LeadingData.constant(0.0, 1.0)
    out_d = l_op(data_d, s)
    assert np.allclose(out_d.truncate(6).coeffs, -s.conjugate().coeffs, atol=1e-14)


def test_l_star_is_the_real_l2_adjoint(rng):
    data = generic_data(rng)
    n = 10
    a = RealizedOperator.realize(lambda x: l_op(data, x), n, n)
    b = RealizedOperator.realize(lambda x: l_star(data, x), n, n)
    assert np.max(np.abs(a.matrix - b.matrix.T)) < 1e-13


def test_ll_star_defect_flat_unit_data(rng):
    # c = d = 1: L L* - 2 Id collapses to -2 conj on the mean mode
    data = LeadingData.constant(1.0, 1.0)
    op = ll_star_defect_operator(data, 6)
    s = random_series(rng, 6)
    out = applied(op, s)
    want = np.zeros(13, dtype=complex)
    want[6] = -2.0 * np.conj(s.coeff(0))
    assert np.allclose(out.coeffs, want, atol=1e-13)


def bisection_top(ab):
    """The top eigenvalue of a band by the bisection operator_norm used
    before: from the largest diagonal entry to the Gershgorin bound, halved
    on whether t I - G factors until the ends are adjacent floats."""
    dense = np.zeros((ab.shape[1],) * 2)
    for s in range(ab.shape[0]):
        q = np.arange(ab.shape[1] - s)
        dense[q + s, q] = dense[q, q + s] = ab[s, q]
    lo, hi = ab[0].max(), np.abs(dense).sum(axis=1).max()
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _positive_definite(ab, -1.0, mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def assert_norms_match_bisection(monkeypatch, seed):
    """Run a default deform-op at seed: each of its 11 graded norms, 3 defect
    norms and 8 of the loss profile, ends on the float the bisection ends on,
    one float above its certified lower end, and they take at most 12
    factorizations each on average (the bisection took about 52)."""
    factorizations, norms = [0], []
    real_dpbtrf, real_top = bandeig.dpbtrf, deform.top_eigenvalue

    def counted(*args, **kwargs):
        factorizations[0] += 1
        return real_dpbtrf(*args, **kwargs)

    def recorded(ab):
        before = factorizations[0]
        top, lower = real_top(ab)
        norms.append((ab, top, lower, factorizations[0] - before))
        return top, lower

    monkeypatch.setattr(bandeig, "dpbtrf", counted)
    monkeypatch.setattr(deform, "top_eigenvalue", recorded)
    assert run_deform_op(build_config("deform-op", {"seed": seed})).passed
    assert len(norms) == 11
    for ab, top, lower, _ in norms:
        assert top == bisection_top(ab)
        assert lower == np.nextafter(top, -np.inf)
    assert sum(count for *_, count in norms) <= 12 * len(norms)


def test_default_norms_match_bisection_bitwise(monkeypatch):
    # each norm is taken from the Gram of its own truncation
    assert_norms_match_bisection(monkeypatch, build_config("deform-op").seed)


@pytest.mark.parametrize("seed", [7, 3])
def test_norms_match_bisection_where_inverse_runs_could_stop_early(monkeypatch, seed):
    # at these seeds one shift-and-invert run of each defect norm passes the
    # residual test at step 3, where checks at steps 2 to 6 stopped it;
    # extracting the Ritz pair once, after all INVERSE_STEPS steps, changes
    # the shifts but not the floats the norms end on
    assert_norms_match_bisection(monkeypatch, seed)


def test_deform_op_builds_each_band_and_gram_once(monkeypatch):
    # a default run assembles L once per data set (6 samples and the constant
    # data), T and the defect once each, at their widest truncations, and
    # reads the others as leading blocks: 9 assemblies, where one per
    # truncation made 28.  Of the 32 Grams it reads, the 10 of a widest
    # truncation are summed in full and the 22 others sum only the corner
    # where the truncation drops rows.  Each of the 37 shift-and-invert runs
    # extracts its Ritz pair once, by one dstev and one dstemr: 143 dstev and
    # 249 dstemr calls in all, where checks at steps 2 to 6 made 291 and 582
    counts = {"_assemble": 0, "dstev": 0, "dstemr": 0, "full": 0}
    corners, inverse_runs = [], []
    real = {"_assemble": deform._assemble, "dstev": bandeig.dstev,
            "dstemr": bandeig.dstemr, "_lanczos": bandeig._lanczos}
    gram = RealizedOperator.gram_band

    def counted(name):
        def call(*args, **kwargs):
            counts[name] += 1
            if inverse_runs and inverse_runs[-1]["open"]:
                inverse_runs[-1][name] += 1
            return real[name](*args, **kwargs)
        return call

    def lanczos(matvec, start, lowest, *max_steps):
        if not lowest:
            inverse_runs.append({"open": True, "dstev": 0, "dstemr": 0})
        try:
            return real["_lanczos"](matvec, start, lowest, *max_steps)
        finally:
            if not lowest:
                inverse_runs[-1]["open"] = False

    def read(self, *grading):
        if isinstance(self, deform.Truncation):
            corners.append(self.win.shape[1] < self.whole.win.shape[1])
        else:
            counts["full"] += 1
        return gram(self, *grading)

    monkeypatch.setattr(deform, "_assemble", counted("_assemble"))
    for name in ("dstev", "dstemr"):
        monkeypatch.setattr(bandeig, name, counted(name))
    monkeypatch.setattr(bandeig, "_lanczos", lanczos)
    monkeypatch.setattr(RealizedOperator, "gram_band", read)
    assert run_deform_op(build_config("deform-op")).passed
    assert counts["_assemble"] == 9
    assert (counts["full"], len(corners), sum(corners)) == (10, 32, 22)
    assert len(inverse_runs) == 37
    assert all(run["dstev"] == run["dstemr"] == 1 for run in inverse_runs)
    assert (counts["dstev"], counts["dstemr"]) == (143, 249)


def test_ll_star_defect_norm_uniform_in_truncation():
    data = LeadingData(
        FourierSeries1D.from_modes({0: 1.0, 1: 0.3}),
        FourierSeries1D.from_modes({-2: 0.5}),
    )
    norms = []
    for n in (8, 16, 32, 64):
        op = ll_star_defect_operator(data, n)
        norms.append(op.operator_norm(1.0, 0.0))  # 0 -> 1 graded norm
    norms = np.array(norms)
    assert np.all(np.isfinite(norms))
    assert norms.max() / norms.min() < 1.2


def test_naive_inner_truncation_grows():
    # truncating between L* and L injects boundary artifacts whose 0 -> 1
    # norm grows with the window; the exact composition above must not
    data = LeadingData(
        FourierSeries1D.from_modes({0: 1.0, 1: 0.3}),
        FourierSeries1D.from_modes({-2: 0.5}),
    )
    mod2 = multiply(data.c, data.c.conjugate()) + multiply(data.d, data.d.conjugate())
    naive_norms = []
    for n in (8, 16, 32, 64):
        lm = RealizedOperator.realize(lambda x: l_op(data, x), n, n).matrix
        lsm = RealizedOperator.realize(lambda x: l_star(data, x), n, n).matrix
        mm = RealizedOperator.realize(lambda x: multiply(mod2, x), n, n).matrix
        naive = RealizedOperator.from_matrix(lm @ lsm - mm, n, n)
        naive_norms.append(naive.operator_norm(1.0, 0.0))
    assert naive_norms[-1] > 2.0 * naive_norms[0]


# -- commutators -------------------------------------------------------------------


def test_commutator_with_constant_vanishes():
    a = FourierSeries1D.from_modes({0: 2.5})
    op = commutator_with_sign_multiplier(a, 8)
    assert np.max(np.abs(op.matrix)) == 0.0


def test_commutator_single_harmonic_pattern():
    # a = e^{2it}: the only entry of column l_in is a_2 (sgn(l_in + 2) - sgn l_in)
    a = FourierSeries1D.from_modes({2: 1.0})
    op = commutator_with_sign_multiplier(a, 4)
    for l_in in range(-4, 5):
        out = applied(op, FourierSeries1D.from_modes({l_in: 1.0}, 4))
        # sign straddling: only l_in in {-2, -1} is lifted (sgn 0 = +1)
        want = 2.0 if l_in in (-2, -1) else 0.0
        assert out.coeff(l_in + 2) == want
        others = np.delete(out.coeffs, l_in + 2 + out.n_modes)
        assert np.max(np.abs(others)) == 0.0


def test_commutator_norm_stabilizes():
    a = FourierSeries1D.from_modes({1: 0.5, -1: 0.5})  # cos t
    norms = [
        commutator_with_sign_multiplier(a, n).operator_norm(1.0, 0.0)
        for n in (8, 16, 32)
    ]
    assert abs(norms[2] - norms[1]) < 1e-12
    assert abs(norms[1] - norms[0]) < 1e-12
    assert norms[0] > 0.0


# -- the normal-direction operator ----------------------------------------------------


def test_t_symbol_oracle():
    assert T_SYMBOL_SCALE == -3.0 * math.pi
    data = LeadingData.constant(1.0, 0.0)
    for l in (1, 4):
        out = t_op(data, FourierSeries1D.from_modes({l: 1.0}))
        want = 3.0 * math.pi * l**2 * (l * l + 1.0) ** (-0.75)
        assert abs(out.coeff(l) - want) < 1e-12 * want
        others = np.delete(out.coeffs, l + out.n_modes)
        assert np.max(np.abs(others)) < 1e-14
    out = t_op(data, FourierSeries1D.from_modes({-2: 1.0}))
    want = -12.0 * math.pi * 5.0 ** (-0.75)
    assert abs(out.coeff(-2) - want) < 1e-12 * abs(want)


def test_t_kills_translations(rng):
    data = generic_data(rng)
    out = t_op(data, FourierSeries1D.from_modes({0: 1.7 - 0.3j}))
    assert np.max(np.abs(out.coeffs)) < 1e-14


def test_loss_of_regularity_exponents(rng):
    for data in (LeadingData.constant(1.0, 0.0), generic_data(rng)):
        rep = loss_of_regularity_profile(data, n_values=(12, 24, 48, 96))
        assert abs(rep.exponent_2_to_2 - 0.5) < 0.1
        assert abs(rep.exponent_2_to_32) < 0.1
        assert np.all(np.isfinite(rep.norms_2_to_2))


# -- Fredholm diagnostics --------------------------------------------------------------


def test_fredholm_unit_data_kernel_is_real_constants():
    data = LeadingData.constant(1.0, 1.0)
    rep = fredholm_diagnostics(data)
    assert rep.kernel_dim == 1
    assert rep.stable
    assert rep.index == 0
    assert min(rep.singular_gaps) > 0.1


def test_fredholm_generic_data_index_zero(rng):
    for _ in range(20):
        data = generic_data(rng)
        rep = fredholm_diagnostics(data)
        assert rep.index == 0
        assert rep.stable


def test_fredholm_homotopy_keeps_index(rng):
    target = generic_data(rng)
    one = FourierSeries1D.from_modes({0: 1.0})
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        c = one * (1.0 - s) + target.c * s
        d = one * (1.0 - s) + target.d * s
        rep = fredholm_diagnostics(LeadingData(c, d))
        assert rep.index == 0
        assert rep.stable


def test_warm_started_truncations_match_cold_runs(rng):
    # fredholm_diagnostics starts each truncation's Lanczos run from the Ritz
    # vectors of the one before; a lone truncation starts cold
    for data in (generic_data(rng), _bordered_data(), LeadingData.constant(1.0, 1.0)):
        warm = fredholm_diagnostics(data, (16, 24, 32))
        for n, dim, gap in zip(warm.truncations, warm.kernel_dims, warm.singular_gaps):
            cold = fredholm_diagnostics(data, (n,))
            assert cold.kernel_dims == (dim,)
            assert abs(cold.singular_gaps[0] - gap) <= 1e-13 * gap


def test_failed_certificates_fall_back_to_bisection():
    # constant (1, 1) data has the diagonal Gram diag(0, 4, 2, 2, ...), so a
    # unit start vector closes the Krylov space at once: on the kernel there
    # is no Ritz value above it, on the top eigenvector sigma_{k+1} fails its
    # inertia certificate, and on an interior one sigma_max fails its Cholesky
    # certificate; sigma_{k+1} then falls back to bisection by inertia counts
    # from the wide bracket, and sigma_max to top_eigenvalue
    op = realize_l(LeadingData.constant(1.0, 1.0), 4)
    assert np.array_equal(op.gram_band()[0, :3], [0.0, 4.0, 2.0])
    for i in range(3):
        sigma_max, kernel, sigma_next, _ = certified_spectrum(
            op, KERNEL_REL_THRESHOLD, np.eye(18)[i]
        )
        assert kernel == 1
        assert abs(sigma_max - 2.0) <= 1e-13 * 2.0
        assert abs(sigma_next - math.sqrt(2.0)) <= 1e-13 * 2.0


def test_circle_operators_run_no_dense_routine(monkeypatch):
    # the diagnostics, the bordered solve and the Newton steps are banded: a
    # dense SVD, eigh or solve, or a full banded spectrum, on the deform-op,
    # continuation or nash-moser path raises here, wherever it is looked up
    dense = (np.linalg.svd, np.linalg.eigh, np.linalg.solve,
             scipy.linalg.svd, scipy.linalg.eigh, scipy.linalg.solve,
             scipy.linalg.eig_banded)

    def refuse(*args, **kwargs):
        raise AssertionError("dense routine on a circle-operator path")

    modules = [np.linalg, scipy.linalg]
    modules += [m for name, m in sys.modules.items() if name.startswith("edl.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in dense):
                monkeypatch.setattr(module, name, refuse)
    outcome = run_deform_op(build_config("deform-op", {"n_modes": 24, "samples": 2}))
    assert outcome.metrics["constant_kernel_dim"] == 1
    assert outcome.metrics["unstable_samples"] == 0
    assert run_continuation(build_config("continuation", {"n_modes": 12})).passed
    assert run_nash_moser(build_config("nash-moser")).passed


def test_certificate_settles_the_random_kernels(monkeypatch):
    # at the defaults the banded Cholesky that certifies each random sample's
    # lowest Ritz value proves k = 0, and no inertia count runs for it; the
    # constant (1, 1) data, whose kernel is the real constants, still count
    # it and certify their interior sigma_2 by two counts per truncation
    calls, per_data = [], []
    count = RealizedOperator.count_singular_values_below
    diagnose = experiments.fredholm_diagnostics

    def counted(self, tau):
        calls.append(tau)
        return count(self, tau)

    def tagged(data, truncations):
        before = len(calls)
        rep = diagnose(data, truncations=truncations)
        per_data.append((rep.kernel_dims, len(calls) - before))
        return rep

    monkeypatch.setattr(RealizedOperator, "count_singular_values_below", counted)
    monkeypatch.setattr(experiments, "fredholm_diagnostics", tagged)
    outcome = run_deform_op(build_config("deform-op"))
    assert outcome.passed
    assert per_data == [((0, 0, 0), 0)] * 6 + [((1, 1, 1), 9)]
    assert len(calls) == 9


def test_deform_op_memory_grows_linearly():
    # the operators are bands, so the traced peak doubles with n_modes where
    # an n x n matrix would quadruple it, and the budget's count bounds it;
    # the bordered system of continuation is held in T's band as well
    def traced_peak(run, command, n_modes, **keys):
        cfg = build_config(command, {"n_modes": n_modes, **keys})
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1], dense_array_bound(cfg)[1]
        finally:
            tracemalloc.stop()

    for run, command, small, keys in ((run_deform_op, "deform-op", 64, {"samples": 1}),
                                      (run_continuation, "continuation", 128, {})):
        traced_peak(run, command, 18, **keys)  # first calls import and cache outside
        (peak_s, bound_s), (peak_l, bound_l) = (
            traced_peak(run, command, n, **keys) for n in (small, 2 * small))
        assert peak_l / peak_s < 3.0, command
        assert peak_s <= bound_s and peak_l <= bound_l, command


# -- bordered extended system -----------------------------------------------------------


def _bordered_data():
    return LeadingData(
        FourierSeries1D.from_modes({0: 1.0, 1: 0.4}),
        FourierSeries1D.from_modes({0: 0.3, -1: 0.2}),
    )


def test_extended_system_rejects_constant_data():
    with pytest.raises(ValueError):
        ExtendedSystem.from_data(LeadingData.constant(1.0, 0.5), n_modes=8)


def test_extended_system_direction_series():
    phi = obstruction_direction_series(_bordered_data(), 8)
    want1 = 2.0 * math.pi * 1.0 ** (-1.5) * 0.4  # c_1 contribution at l = 1
    assert abs(phi.coeff(1) - want1) < 1e-14
    want_m1 = 2.0 * math.pi * (0.0 + (-1.0) * 0.2)  # sgn(-1) d_{-1}
    assert abs(phi.coeff(-1) - want_m1) < 1e-14
    assert phi.coeff(0) == 0.0


def test_extended_system_borders_the_mode0_slots():
    # omega_0 = 0 leaves T's mode-0 columns empty; the bordering takes over
    # the mode-0 rows and columns and leaves every other entry of T as it is
    data, n = _bordered_data(), 8
    re0, im0 = 0, 1
    t_mat = realize_t(data, n, n).matrix
    big = ExtendedSystem.from_data(data, n).operator.matrix
    phi_vec = real_coords(obstruction_direction_series(data, n))
    assert not t_mat[:, [re0, im0]].any()
    assert np.array_equal(big[:, re0], -phi_vec)
    assert np.array_equal(big[re0], phi_vec)
    assert np.array_equal(big[im0], np.eye(big.shape[0])[im0])
    keep = np.setdiff1d(np.arange(big.shape[0]), [re0, im0])
    assert np.array_equal(big[np.ix_(keep, keep)], t_mat[np.ix_(keep, keep)])


def bordered_residual(system, eta, lam, g):
    """Largest defect of T eta - lambda phi = g off mode 0 and of <eta, phi> = 0."""
    n, phi = system.n_modes, system.phi
    defect = (t_op(system.data, eta).truncate(n) - lam * phi - g.truncate(n)).coeffs
    defect[n] = 0.0
    return max(np.max(np.abs(defect)), abs(real_coords(eta) @ real_coords(phi)))


def test_extended_solve_recovers_plain_preimage(rng):
    data = _bordered_data()
    sys = ExtendedSystem.from_data(data, n_modes=12)
    eta0 = random_series(rng, 12, scale=0.5)
    eta0 = eta0 - FourierSeries1D.from_modes({0: eta0.coeff(0)}, n_modes=12)
    # orthogonalize against the normalization row
    phi_vec = real_coords(sys.phi)
    e_vec = real_coords(eta0)
    e_vec -= phi_vec * (e_vec @ phi_vec) / (phi_vec @ phi_vec)
    eta0 = series_from_real(e_vec)
    g = t_op(data, eta0).truncate(12)
    eta, lam = sys.solve(g)
    assert bordered_residual(sys, eta, lam, g) < 1e-9
    assert abs(lam) < 1e-9
    assert np.max(np.abs(eta.coeffs - eta0.coeffs)) < 1e-8


def test_extended_solve_forced_along_direction():
    data = _bordered_data()
    sys = ExtendedSystem.from_data(data, n_modes=12)
    eta, lam = sys.solve(sys.phi)
    assert bordered_residual(sys, eta, lam, sys.phi) < 1e-9
    assert abs(lam) > 1e-4
    zero_rhs = FourierSeries1D.zero(12)
    zero, lam0 = sys.solve(zero_rhs)
    assert bordered_residual(sys, zero, lam0, zero_rhs) < 1e-12
    assert lam0 == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(zero.coeffs)) < 1e-12


def test_extended_solve_refuses_non_finite_input():
    system = ExtendedSystem.from_data(_bordered_data(), n_modes=12)
    g = FourierSeries1D.from_modes({3: complex(math.nan, 1.0)}, n_modes=12)
    with pytest.raises(ValueError):
        system.solve(g)
    system.operator.win[len(system.operator.win) // 2, 5] = math.inf
    with pytest.raises(ValueError):
        system.solve(system.phi)


def test_extended_solve_raises_on_a_singular_band():
    # a zero column stays zero under row interchanges and elimination, so
    # the LU meets an exactly zero pivot whatever the pivot order
    system = ExtendedSystem.from_data(_bordered_data(), n_modes=12)
    system.operator.win[:, 6] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        system.solve(system.phi)
