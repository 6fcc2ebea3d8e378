import math
import random

import numpy as np
import pytest
from scipy.integrate import quad, solve_bvp

from edl.dirac import (
    RadialGrid,
    SpinorField,
    euclidean_obstruction_field,
    obstruction_profiles,
    radial_bump,
)
from edl import obstruction
from edl.obstruction import (
    annuli_decay,
    annulus_energy_norms,
    conormal_rate,
    discrete_max_principle,
    family_field,
    gram_matrix,
    gram_tail_trend,
    project_to_obstruction,
    sample_max_principle_instance,
    solve_mode_bvp,
)
from edl.config import build_config
from edl.experiments import run_gram, run_obstruction
from edl.series import FourierSeries1D


# -- projection ---------------------------------------------------------------


def test_projection_is_delta_on_the_family():
    g = RadialGrid.geometric(10.0, 1200, r_min_factor=1e-6)
    psi2 = euclidean_obstruction_field(2, g, nt=17)
    coefs = project_to_obstruction(psi2, [1, 2, 3, -2])
    want = 4.0 * math.pi**2
    assert abs(coefs[1] - want) / want < 1e-4
    for i in (0, 2, 3):
        assert abs(coefs[i]) < 1e-10 * want


def test_obstruction_run_holds_its_tol_at_high_modes():
    # |Psi_l|^2 r is about |l| near r = 0, so the grid's lost [0, r_min]
    # piece costs 2 |l| r_min relative; r_min = 1e-9 r_max / l_max keeps that
    # at 6e-8 for every mode, where a fixed 1e-9 r_max cost 1.2e-5 at l = 200
    outcome = run_obstruction(build_config("obstruction", {"l_min": 200, "l_max": 200}))
    assert outcome.passed, outcome.failures
    assert outcome.metrics["max_recovery_error"] < 1e-7


def test_projection_validates_t_resolution():
    g = RadialGrid.geometric(4.0, 100, r_min_factor=1e-3)
    psi = euclidean_obstruction_field(1, g, nt=9)
    with pytest.raises(ValueError):
        project_to_obstruction(psi, [5])
    with pytest.raises(ValueError):
        obstruction_profiles([0], g)


def test_projection_matches_direct_quadrature():
    # generic multi-mode field: projector agrees with assembling <f, Psi_l>
    # from the profile rows by hand
    g = RadialGrid.geometric(6.0, 700, r_min_factor=1e-5)
    prof = np.exp(-g.r) * np.sqrt(g.r)
    nt, nth = 17, 8
    t = np.arange(nt) * (2.0 * math.pi / nt)
    phase = (1.3 * np.exp(1j * t) - 0.4j * np.exp(-3j * t))[:, None, None]
    plus = phase * prof[None, :, None] * np.ones((1, 1, nth))
    minus = 0.5j * plus
    f = SpinorField(g, plus, minus)
    coefs = project_to_obstruction(f, [1, -3])
    rows = obstruction_profiles([1, -3], g)
    w = g.area_weights()
    # l = +1: t coefficient 1.3, spinor combination plus + sgn(l) * minus
    want1 = (2 * math.pi) ** 2 * 1.3 * np.sum((prof + 0.5j * prof) * rows[0] * w)
    want3 = (2 * math.pi) ** 2 * (-0.4j) * np.sum((prof - 0.5j * prof) * rows[1] * w)
    assert abs(coefs[0] - want1) < 1e-10 * abs(want1)
    assert abs(coefs[1] - want3) < 1e-10 * abs(want3)


def test_family_field_matches_per_mode_sum(rng):
    # oracle: the per-mode accumulation the single product replaced
    g = RadialGrid.geometric(8.0, 300, r_min_factor=1e-6)
    l_values = [1, -1, 2, 5, -3, -7, 4]
    coeffs = {l: complex(*rng.standard_normal(2)) for l in l_values}
    nt = 17
    t = np.arange(nt) * (2.0 * math.pi / nt)
    plus = np.zeros((nt, g.n_points, 1), dtype=complex)
    minus = np.zeros_like(plus)
    for (l, a), prof in zip(coeffs.items(), obstruction_profiles(l_values, g)):
        phase = a * np.exp(1j * l * t)[:, None, None]
        plus += phase * prof[None, :, None]
        minus += np.sign(l) * phase * prof[None, :, None]
    got = family_field(coeffs, g, nt)
    for have, want in ((got.plus, plus), (got.minus, minus)):
        assert have.shape == want.shape
        assert np.max(np.abs(have - want)) <= 1e-13 * np.max(np.abs(want))


def _fft_projection(field, l_values):
    """The projection as it was computed before: an FFT over t of the theta
    mean of each component, the requested rows gathered and paired with the
    profiles."""
    nt = field.shape[0]
    hat_plus = np.fft.fft(np.mean(field.plus, axis=2), axis=0) / nt
    hat_minus = np.fft.fft(np.mean(field.minus, axis=2), axis=0) / nt
    idx = np.array(l_values) % nt
    comb = hat_plus[idx] + np.sign(l_values)[:, None] * hat_minus[idx]
    prof = obstruction_profiles(l_values, field.rgrid)
    return np.sum(comb * prof * field.rgrid.area_weights(), axis=1) * (2 * math.pi) ** 2


def test_projection_matches_the_fft_oracle(rng):
    # random coefficient sets on every t grid from the alias-free 2 l_max + 1
    # up to 9 points more, on a field with several theta samples as well
    g = RadialGrid.geometric(30.0, 400, r_min_factor=1e-10)
    for extra in range(10):
        l_max = int(rng.integers(1, 40))
        l_values = [int(l) for l in rng.permutation(
            [l for a in range(1, l_max + 1) for l in (a, -a)])]
        coeffs = {l: complex(*rng.standard_normal(2)) for l in l_values}
        field = family_field(coeffs, g, 2 * l_max + 1 + extra)
        want = _fft_projection(field, l_values)
        got = project_to_obstruction(field, l_values)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    field = euclidean_obstruction_field(-3, g, nt=11, ntheta=4)
    field.minus[:, :, 1] *= 0.5j  # theta-dependent, so the mean is not one sample
    want = _fft_projection(field, [1, -3, 5])
    got = project_to_obstruction(field, [1, -3, 5])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# -- conormal rates --------------------------------------------------------------


def _broad_t_series(l_values):
    modes = {}
    for l in l_values:
        modes[int(l)] = 1.0
    return FourierSeries1D.from_modes(modes)


def test_conormal_rate_matches_exponent_and_prefactor():
    l_values = [8, 12, 16, 24, 32, 48, 64]
    f = _broad_t_series(l_values)
    for p, want in ((0.0, -1.0), (0.5, -1.5), (1.0, -2.0)):
        rep = conormal_rate(p, f, l_values)
        assert rep.fit_valid
        assert abs(rep.slope - want) < 0.05
        assert abs(rep.prefactor_ratio - 1.0) < 0.01


def test_conormal_rate_flags_missing_data():
    f = FourierSeries1D.from_modes({8: 1.0, 16: 1.0})
    rep = conormal_rate(0.0, f, [8, 12, 16])
    assert rep.flagged_modes == [12]


def test_conormal_rejects_super_polynomial_probe():
    l_values = [8, 12, 16, 24, 32, 48, 64]
    f = _broad_t_series(l_values)
    rgrid = RadialGrid.geometric(2.0, 2500, r_min_factor=1e-7)

    def away_from_axis(r):
        x = (r - 1.0) / 0.25
        inside = np.abs(x) < 1.0
        xs = np.where(inside, x, 0.0)
        return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - xs**2)), 0.0)

    rep = conormal_rate(0.0, f, l_values, rgrid=rgrid, radial_profile=away_from_axis)
    assert rep.super_polynomial
    assert not rep.fit_valid


def test_conormal_rejects_nonpositive_modes():
    with pytest.raises(ValueError):
        conormal_rate(0.0, _broad_t_series([4]), [4, -4])


# -- Gram matrices ----------------------------------------------------------------


def _cosine(amplitude):
    """The fluctuation series of the weight 1 + amplitude cos t min(r, 1)."""
    return FourierSeries1D.from_modes({1: 0.5 * amplitude, -1: 0.5 * amplitude})


def test_gram_rejects_a_weight_with_nonzero_mean():
    ls = [1, 2, -1]
    with pytest.raises(ValueError, match="zero mean"):
        gram_matrix(ls, FourierSeries1D.from_modes({0: 0.01, 1: 0.05, -1: 0.05}))
    a = gram_matrix(ls, FourierSeries1D.from_modes({0: 0.0, 1: 0.05, -1: 0.05}))
    assert np.array_equal(np.diag(a), np.ones(3))


def test_gram_diagonal_and_sign_structure():
    ls = [1, 2, 3, -1, -2, -3]
    a = gram_matrix(ls, _cosine(0.1))
    # diagonal: the weight fluctuation integrates to zero in t, so each mode
    # pairs to exactly 1 with itself
    assert np.array_equal(np.diag(a), np.ones(6))
    # opposite-sign pairs vanish identically
    for i, j in ((0, 3), (1, 4), (0, 4), (2, 3)):
        assert a[i, j] == 0.0
    assert np.max(np.abs(a - a.conj().T)) < 1e-12


def test_gram_weight_does_not_touch_diagonal():
    ls = [1, 2, 4, 8]
    flat = gram_matrix(ls, _cosine(0.0))
    bent = gram_matrix(ls, _cosine(0.1))
    assert np.max(np.abs(np.diag(flat) - np.diag(bent))) < 1e-14


def test_gram_adjacent_entries_scale_like_inverse_mode():
    ls = list(range(1, 11))
    a = gram_matrix(ls, _cosine(0.1))
    for k in range(2, 9):
        got = abs(a[k - 1, k])  # pairs modes k and k+1
        # exact ramped overlap: amp sqrt(k(k+1)) (1 - e^{-(2k+1)}) / (2k+1)^2
        aa = 2.0 * k + 1.0
        want = 0.1 * math.sqrt(k * (k + 1.0)) * (1.0 - math.exp(-aa)) / aa**2
        assert got == pytest.approx(want, rel=1e-12)
    # ~ amp/(4k) for large k: quadrupling the mode quarters the coupling
    assert abs(a[1, 2]) / abs(a[7, 8]) == pytest.approx(4.0, rel=0.25)
    # only adjacent modes couple for a single-harmonic weight
    assert abs(a[0, 5]) == 0.0


def _twelve_mode_weight():
    # amplitude spread over modes 1..12 with weights (1 + m^2)^-4
    return FourierSeries1D.from_modes(
        {s * m: 0.05 * (1.0 + m * m) ** -4.0 for m in range(1, 13) for s in (1, -1)})


def test_gram_matches_quadrature_of_the_radial_pairing():
    # an independent quad of <Psi_j, Psi_k>_w / (2 pi L) on the plane: the t
    # integral picks g_{j-k}, the spinor factor (1 + sgn j sgn k) is 2, and
    # the radial pairing against 1 + g min(r, 1) is integrated by quad
    g = _twelve_mode_weight()
    ls = [1, 2, 3, 5, 9, 20, -1, -2, -4, -13]
    a = gram_matrix(ls, g)

    def psi(l, r):
        return math.sqrt(abs(l)) * math.exp(-abs(l) * r) / math.sqrt(r)

    def radial(j, k, ramp):
        def f(r):
            return psi(j, r) * psi(k, r) * r * ramp(r)
        return (quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                + quad(f, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0])

    checked = 0
    for i, j in enumerate(ls):
        for m, k in enumerate(ls):
            if (j > 0) != (k > 0):
                assert a[i, m] == 0.0
                continue
            want = 2.0 * g.coeff(j - k) * radial(j, k, lambda r: min(r, 1.0))
            if j == k:
                want += 2.0 * radial(j, k, lambda r: 1.0)
            if want != 0.0:
                assert abs(a[i, m] - want) <= 1e-12 * abs(want), (j, k)
                checked += 1
            else:
                assert a[i, m] == 0.0
    assert checked > len(ls)  # off-diagonal pairs were compared, not only the diagonal


def test_gram_tail_trend_envelope():
    ls = list(range(1, 49))
    k_block = gram_matrix(ls, _twelve_mode_weight()).real - np.eye(len(ls))
    rep = gram_tail_trend(k_block, ls)
    assert rep.cutoffs.tolist() == [1, 3, 6, 12, 24]
    assert np.all(rep.tail_norms > 0.0)  # non-vacuous: every tail still couples
    assert rep.envelope_ok
    assert rep.monotone
    assert np.isfinite(rep.smoothing_norm) and rep.smoothing_norm > 0.0
    # honest decay is much faster than the certified envelope
    assert rep.tail_norms[-1] < 0.2 * rep.tail_norms[0]


def test_run_gram_builds_the_gram_matrix_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return gram_matrix(*args)

    monkeypatch.setattr("edl.experiments.gram_matrix", counted)
    monkeypatch.setattr("edl.obstruction.gram_matrix", counted)
    assert run_gram(build_config("gram")).failures == []
    assert len(calls) == 1


# -- radial solves and annuli -------------------------------------------------------


def _decay_grid_and_forcing(l, n_points=1500):
    # annuli_decay's grid and forcing at r_scale = 1
    grid = RadialGrid.geometric(20.0 / l, n_points, r_min_factor=1e-4)
    return grid, lambda r: radial_bump(r, 1.0 / l, 0.5 / l)[0]


def _solve_bvp_oracle(nu, l, rgrid, forcing):
    """The same natural-boundary problem through scipy's adaptive collocation."""
    lo, hi = math.log(rgrid.r[0]), math.log(rgrid.r[-1])

    def rhs(s, y):
        r = np.exp(s)
        return np.vstack([y[1], (nu**2 + (l * r) ** 2) * y[0] - r**2 * forcing(r)])

    def bc(ya, yb):
        return np.array([ya[1] - nu * ya[0], yb[1] + (l * rgrid.r[-1] + 0.5) * yb[0]])

    mesh = np.linspace(lo, hi, 801)
    sol = solve_bvp(rhs, bc, mesh, np.zeros((2, mesh.size)), tol=1e-10, max_nodes=200000)
    assert sol.success
    return sol.sol(np.log(rgrid.r))[0]


@pytest.mark.parametrize("nu, l", [(0.5, 4), (1.0, 16), (0.5, 64)])
def test_solve_mode_bvp_natural_matches_collocation(nu, l):
    grid, forcing = _decay_grid_and_forcing(l)
    u = solve_mode_bvp(nu, l, grid, forcing)
    want = _solve_bvp_oracle(nu, l, grid, forcing)
    assert np.max(np.abs(u - want)) / np.max(np.abs(want)) <= 1e-7


def test_solve_mode_bvp_is_fourth_order():
    # nested geometric grids: n - 1 doubles, so every coarse node is a fine node
    ref_grid, forcing = _decay_grid_and_forcing(4, 11993)
    ref = solve_mode_bvp(0.5, 4, ref_grid, forcing)
    errs = []
    for n, stride in ((1500, 8), (2999, 4), (5997, 2)):
        grid, _ = _decay_grid_and_forcing(4, n)
        u = solve_mode_bvp(0.5, 4, grid, forcing)
        errs.append(np.max(np.abs(u - ref[::stride])) / np.max(np.abs(ref)))
    assert errs[0] < 1e-7
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 12.0  # 16 for an exact fourth-order scheme


def test_solve_mode_bvp_fails_closed_on_non_finite_solution():
    grid, _ = _decay_grid_and_forcing(4, 200)
    with pytest.raises(RuntimeError, match="non-finite"):
        solve_mode_bvp(0.5, 4, grid, lambda r: np.full_like(r, np.nan))


def test_annuli_decay_rate_uniform_in_mode():
    rates = []
    for l in (4, 16, 64):
        rep = annuli_decay(l, r_scale=1.0)
        rates.append(rep.rate_per_annulus)
        assert rep.rate_per_annulus == pytest.approx(2.0, rel=0.1)
    assert max(rates) - min(rates) < 0.2
    # r -> l r maps the problems onto each other and the grid scales with
    # 1/|l|, so a non-adaptive solve gives one rate up to roundoff
    assert (max(rates) - min(rates)) / np.mean(rates) < 1e-10


def test_annulus_norms_capture_known_profile():
    # e^{-r}/sqrt(r) has a flat r-weighted density, so the energy norm loses
    # a clean factor e^{-1} per unit annulus once r is a few units out
    g = RadialGrid.geometric(9.0, 1400, r_min_factor=1e-3)
    u = np.exp(-g.r) / np.sqrt(g.r)
    norms = annulus_energy_norms(u, 1.0, g, np.arange(3.0, 9.0))
    slopes = np.diff(np.log(norms))
    assert np.all(np.abs(-slopes - 1.0) < 0.05)


# -- discrete maximum principle ------------------------------------------------------


def test_max_principle_certifies_random_valid_instances():
    seq, barrier = sample_max_principle_instance(random.Random(20260815), 300, size=30, lam=0.45)
    assert seq.shape == barrier.shape == (300, 30)
    res = discrete_max_principle(seq, barrier, lam=0.45)
    assert res.certified.shape == (300,) and res.certified.all()
    assert res.hypothesis_violation == [None] * 300
    assert res.conclusion_violation == [None] * 300


def test_max_principle_pinpoints_hypothesis_violations():
    barrier = np.zeros(6)
    seq = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, 0.5])
    res = discrete_max_principle(seq, barrier, lam=0.4)
    assert not res.certified[0] and res.hypothesis_violation == [("endpoint", 5)]

    seq = np.array([-1.0, 0.2, -1.0, -1.0, -1.0, -1.0])
    res = discrete_max_principle(seq, barrier, lam=0.4)
    assert not res.certified[0] and res.hypothesis_violation == [("interior", 1)]

    with pytest.raises(ValueError):
        discrete_max_principle(seq, barrier, lam=0.5)
    with pytest.raises(ValueError):
        discrete_max_principle(seq[:2], barrier[:2], lam=0.4)


def test_max_principle_conclusion_path():
    # with hypothesis checking off, a sequence poking above its barrier is
    # reported through the conclusion check instead
    barrier = np.zeros(5)
    seq = np.array([-1.0, -1.0, 0.3, -1.0, -1.0])
    res = discrete_max_principle(seq, barrier, lam=0.4, verify_hypotheses=False)
    assert not res.certified[0]
    assert res.conclusion_violation == [2]
    assert res.hypothesis_violation == [None]
    assert set(vars(res)) == {"certified", "hypothesis_violation", "conclusion_violation"}


def _first_violations_one_row_at_a_time(r, lam):
    """The checker's report on one row r = sequence - barrier, hypotheses
    checked, written out as the scalar loop it replaced."""
    if r[0] > 0.0:
        return ("endpoint", 0), None
    if r[-1] > 0.0:
        return ("endpoint", r.size - 1), None
    for i in range(1, r.size - 1):
        if r[i] - lam * (r[i - 1] + r[i + 1]) > 0.0:
            return ("interior", i), None
    above = [i for i in range(r.size) if r[i] > 0.0]
    return None, (above[0] if above else None)


def test_max_principle_reports_each_rows_first_violation():
    # valid rows among rows with each kind of violation, some with several:
    # every row gets its own first violation, and valid rows stay certified
    seq, barrier = sample_max_principle_instance(random.Random(20260815), 12, size=9)
    seq[1, 0] = barrier[1, 0] + 0.1  # left end
    seq[2, -1] = barrier[2, -1] + 0.1  # right end
    seq[3, 4] = barrier[3, 4] + 1.0  # interior
    seq[4, [2, 6]] = barrier[4, [2, 6]] + 1.0  # two interior, the first counts
    seq[5, [0, 5]] = barrier[5, [0, 5]] + 1.0  # an end before an interior one
    seq[6, [3, -1]] = barrier[6, [3, -1]] + 1.0  # the right end before the interior
    seq[8] = barrier[8] + 0.5 * (seq[8] - barrier[8])  # still valid, scaled gap
    res = discrete_max_principle(seq, barrier, lam=0.4)
    for row in range(12):
        hyp, con = _first_violations_one_row_at_a_time(seq[row] - barrier[row], 0.4)
        assert res.hypothesis_violation[row] == hyp, row
        assert res.conclusion_violation[row] == con, row
        assert res.certified[row] == (hyp is None and con is None)
    assert [res.hypothesis_violation[row] for row in range(1, 7)] == [
        ("endpoint", 0), ("endpoint", 8), ("interior", 4), ("interior", 2),
        ("endpoint", 0), ("endpoint", 8)]
    assert res.certified.tolist() == [True] + [False] * 6 + [True] * 5
    # unchecked hypotheses: each row reports its first index above the barrier
    res = discrete_max_principle(seq, barrier, lam=0.4, verify_hypotheses=False)
    assert res.hypothesis_violation == [None] * 12
    assert res.conclusion_violation == [None, 0, 8, 4, 2, 0, 3] + [None] * 5


def test_sampler_returns_count_admissible_rows_within_its_budget(monkeypatch):
    # the gaps lie within half of (1 - 2 lam) / (1 + 2 lam) of flat, so every
    # row passes the checker's own hypothesis check up to 2 lam -> 1, from
    # exactly two doubles per entry and one per row
    drawn, uniform = [], obstruction.uniform

    def spy(rng, lo, hi, size):
        drawn.append(math.prod((size,) if isinstance(size, int) else size))
        return uniform(rng, lo, hi, size)

    monkeypatch.setattr(obstruction, "uniform", spy)
    rng = random.Random(20260815)
    for count, size, lam in ((1, 40, 0.0), (37, 12, 0.3), (300, 40, 0.4), (5, 30, 0.45),
                             (200, 40, 0.49)):
        drawn.clear()
        seq, barrier = sample_max_principle_instance(rng, count, size=size, lam=lam)
        assert seq.shape == barrier.shape == (count, size)
        assert sum(drawn) == count * (2 * size + 1)
        assert np.all((barrier >= 0.0) & (barrier <= 2.0))
        res = discrete_max_principle(seq, barrier, lam)
        assert res.certified.all() and res.hypothesis_violation == [None] * count
    for lam in (-0.01, 0.5, 0.6):
        with pytest.raises(ValueError, match="0 <= 2 lam < 1"):
            sample_max_principle_instance(rng, 3, lam=lam)
