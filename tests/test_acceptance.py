"""End-to-end acceptance suite.

Twelve numbered criteria, one per test, each printing a single
[PASS]/[FAIL] line (routed past pytest capture) and asserting the same
condition. Together they pin the closed-form kernel family, the radial
solver, pairing decay rates, operator diagnostics, the smoothing axioms,
the two-solver comparison, and artifact determinism.
"""

import math

import numpy as np

from conftest import criterion_lines

from edl.series import (
    FourierSeries1D,
    SmoothingFamily,
    TWO_PI,
    interpolation_ratio,
    verify_smoothing_axioms,
)
from edl.dirac import (
    LeadingData,
    ModeSpinor,
    RadialGrid,
    dirac_apply,
    euclidean_obstruction_field,
    euclidean_obstruction_mode,
    growth_rate,
    mu_perturbed_mode,
    solve_mode_ode,
)
from edl.obstruction import (
    annuli_decay,
    conormal_rate,
    discrete_max_principle,
    sample_max_principle_instance,
)
from edl.deform import (
    fredholm_diagnostics,
    ll_star_defect_operator,
    loss_of_regularity_profile,
)
from edl.bgvar import bg_pairing_comparison
from edl.newton import (
    ToyProblem,
    nash_moser_solve,
    plain_newton_solve,
    rough_f_preset,
    smooth_f_preset,
)
from edl.cli import main
from edl.config import build_config
from edl.experiments import bg_probe_design, random_nondegenerate_data, run_experiment

SEED = 20260815


def _report(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    criterion_lines.append(line)
    print(line)
    assert ok, line


def test_criterion_01_kernel_family_residuals():
    worst = 0.0
    for a in range(1, 33):
        for l in (a, -a):
            grid = RadialGrid.geometric(8.0 / abs(l), 500, r_min_factor=1e-4)
            psi = euclidean_obstruction_field(l, grid)
            worst = max(worst, dirac_apply(psi).norm() / psi.norm())
    _report(1, worst < 1e-8,
            f"kernel family l in +/-1..32, max relative residual {worst:.2e} (< 1e-8)")


def test_criterion_02_radial_ode_branches():
    worst = 0.0
    for l in (1, 2, 3, 5):
        grid = RadialGrid.geometric(8.0 / l, 700, r_min_factor=1e-4)
        num = solve_mode_ode(0, l, grid, branch="decaying")
        ref = euclidean_obstruction_mode(l, grid)
        scale = math.sqrt(float(l))
        diff = ModeSpinor(
            0, l, grid,
            num.psi_plus - ref.psi_plus / scale,
            num.psi_minus - ref.psi_minus / scale,
        )
        worst = max(worst, diff.weighted_l2() / (ref.weighted_l2() / scale))
    decays_ok = worst < 1e-6
    grow_ok, grow_rate = True, None
    for k in (1, -1):
        grid = RadialGrid.geometric(4.0, 500, r_min_factor=1e-3)
        reg = solve_mode_ode(k, 2, grid, branch="regular")
        grow_rate = growth_rate(reg)
        grow_ok = grow_ok and grow_rate > 1.0 and abs(grow_rate - 2.0) < 0.3
    _report(2, decays_ok and grow_ok,
            f"decaying branch matches closed form (rel err {worst:.2e} < 1e-6), "
            f"k=+/-1 leading branch grows (rate ~ {grow_rate:.2f}, flagged)")


def test_criterion_03_conormal_rates():
    l_values = sorted(set(np.geomspace(8, 256, 12).astype(int)))
    f = FourierSeries1D.from_modes({int(l): 1.0 for l in l_values})
    details, ok = [], True
    for p in (0.5, 1.5, 2.5):
        rep = conormal_rate(p, f, l_values)
        target = -(p + 1.0)
        ok = ok and rep.fit_valid and abs(rep.slope - target) <= 0.05
        details.append(f"p={p}: {rep.slope:.3f}")
    _report(3, ok, "pairing decay slopes " + ", ".join(details)
            + " match -(p+1) within 0.05 over l in [8, 256]")


def test_criterion_04_mu_perturbed_decay():
    worst = 0.0
    for mu in (1.0, 2.0, 4.0):
        for l in range(0, 9):
            w = math.hypot(l, mu)
            grid = RadialGrid.geometric(8.0 / w, 600, r_min_factor=1e-4)
            mode = mu_perturbed_mode(l, mu, grid)
            worst = max(worst, abs(mode.decay_rate() - w) / w)
            if l == 0:
                other = mu_perturbed_mode(0, mu, grid, component=1)
                worst = max(worst, abs(other.decay_rate() - w) / w)
    _report(4, worst < 0.01,
            f"perturbed decay rates match sqrt(l^2 + mu^2) within 1% "
            f"(worst {worst:.2e}) over l in 0..8, mu in {{1,2,4}}")


def test_criterion_05_deformation_diagnostics():
    rng = np.random.default_rng(SEED)
    truncations = (64, 128, 256)
    all_stable = True
    for _ in range(20):
        data = random_nondegenerate_data(rng)
        rep = fredholm_diagnostics(data, truncations=truncations)
        all_stable = all_stable and rep.stable and rep.kernel_dim == 0 and rep.index == 0
    flat = LeadingData.constant(1.0, 1.0)
    rep1 = fredholm_diagnostics(flat, truncations=truncations)
    flat_ok = rep1.stable and rep1.kernel_dim == 1 and min(rep1.singular_gaps) > 0.1
    gen = random_nondegenerate_data(rng)
    defect = [ll_star_defect_operator(gen, n).operator_norm(1.0, 0.0)
              for n in truncations]
    defect_ok = max(defect) < 2.0 * min(defect) and all(np.isfinite(defect))
    _report(5, all_stable and flat_ok and defect_ok,
            f"20/20 random data: stable index 0 at N in {truncations}; "
            f"constant data: kernel dim {rep1.kernel_dim}, margin "
            f"{min(rep1.singular_gaps):.3f}; composition defect norms "
            f"{[round(x, 3) for x in defect]} uniform in N")


def test_criterion_06_loss_of_regularity():
    rng = np.random.default_rng(SEED + 1)
    data = random_nondegenerate_data(rng)
    loss = loss_of_regularity_profile(data, n_values=(32, 64, 128, 256, 512))
    ok = abs(loss.exponent_2_to_2 - 0.5) <= 0.1 and abs(loss.exponent_2_to_32) <= 0.1
    _report(6, ok,
            f"truncation norm growth exponents: same-grade {loss.exponent_2_to_2:.3f}"
            f" (0.5 +/- 0.1), half-order-down {loss.exponent_2_to_32:.3f} (0 +/- 0.1)"
            f" over N in 32..512")


def test_criterion_07_metric_variation_cross_check():
    data, eta = bg_probe_design(128)
    report = bg_pairing_comparison(data, eta, l_values=(8, 16, 32, 64, 128))
    exp_ok = math.isfinite(report.deviation_exponent) and \
        -1.2 <= report.deviation_exponent <= -0.8
    const_ok = report.closest_candidate == -0.75 and report.max_imag < 1e-6
    dist = report.candidate_distances
    _report(7, exp_ok and const_ok,
            f"pairing/prediction ratio -> {report.fitted_constant:.5f} "
            f"(candidates: -3/4 at {dist[-0.75]:.2e}, -3/2 at {dist[-1.5]:.2f}), "
            f"deviation exponent {report.deviation_exponent:.3f} in [-1.2, -0.8] "
            f"over l in [8, 128]")


def test_criterion_08_smoothing_axioms():
    family = SmoothingFamily()
    eps_grid = [2.0**-k for k in range(1, 9)]
    report = verify_smoothing_axioms(family, m_max=4, eps_grid=eps_grid)
    axioms_ok = report.passed and all(
        np.isfinite(r.max_ratio) and r.eps_spread <= 4.0 for r in report.rows
    )
    rng = np.random.default_rng(SEED + 2)
    worst_interp = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        coeffs = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        u = FourierSeries1D(coeffs / (1 + np.arange(-n, n + 1) ** 2), TWO_PI)
        m1 = float(rng.uniform(0.0, 1.5))
        m2 = float(rng.uniform(m1 + 0.5, 4.0))
        m = float(rng.uniform(m1 + 0.1 * (m2 - m1), m2 - 0.1 * (m2 - m1)))
        worst_interp = max(worst_interp, interpolation_ratio(u, m, m1, m2))
    interp_ok = worst_interp <= 1.0 + 1e-12
    _report(8, axioms_ok and interp_ok,
            f"mollifier constants finite/stable over eps in 2^-1..2^-8, m,n <= 4 "
            f"(worst {report.worst():.3f}); interpolation constant "
            f"{worst_interp:.12f} <= 1 + 1e-12 on 1000 random vectors")


def test_criterion_09_newton_comparison():
    problem = ToyProblem(n_modes=96)
    rough = rough_f_preset()
    _, plain_trace = plain_newton_solve(problem, rough, max_steps=30, tol=1e-10)
    u_nm, nm_trace = nash_moser_solve(problem, rough, max_steps=30, tol=1e-10)
    rough_ok = (plain_trace.status == "diverged"
                and nm_trace.status == "converged"
                and nm_trace.final_residual < 1e-8
                and nm_trace.iterations <= 30)
    smooth = smooth_f_preset()
    u_p, tr_p = plain_newton_solve(problem, smooth, max_steps=30, tol=1e-12)
    u_n, tr_n = nash_moser_solve(problem, smooth, max_steps=40, tol=1e-12)
    gap = (u_p - u_n).sobolev_norm(problem.m0)
    smooth_ok = tr_p.status == tr_n.status == "converged" and gap < 1e-8
    _report(9, rough_ok and smooth_ok,
            f"rough preset: plain diverged (certificate), smoothed residual "
            f"{nm_trace.final_residual:.1e} in {nm_trace.iterations} steps; "
            f"smooth preset: both converge, gap {gap:.1e} < 1e-8")


def test_criterion_10_comparison_principle_and_annuli():
    rng = np.random.default_rng(SEED + 3)
    valid = sum(
        discrete_max_principle(*sample_max_principle_instance(rng), 0.4).certified
        for _ in range(1000)
    )
    pinpointed = 0
    for _ in range(100):
        seq, barrier = sample_max_principle_instance(rng)
        bad = np.array(seq, dtype=float)
        idx = int(rng.integers(1, len(bad) - 1))
        bad[idx] = barrier[idx] + rng.uniform(0.5, 2.0)
        res = discrete_max_principle(bad, barrier, 0.4)
        if not res.certified and (res.hypothesis_violation is not None
                                  or res.conclusion_violation is not None):
            pinpointed += 1
    rates = [annuli_decay(0.5, l, r_scale=1.0).rate_per_annulus
             for l in (4, 8, 16, 32, 64)]
    spread = (max(rates) - min(rates)) / float(np.mean(rates))
    _report(10, valid == 1000 and pinpointed == 100 and spread < 0.2,
            f"comparison principle: {valid}/1000 valid certified, "
            f"{pinpointed}/100 violations pinpointed; annuli rate spread "
            f"{spread:.3f} < 0.2 over l in {{4..64}}")


def test_criterion_11_gram_envelopes():
    outcome = run_experiment(build_config("gram"))
    m = outcome.metrics
    weak, strong = m["weak_envelope_constant"], m["strong_envelope_constant"]
    ratio = m["envelope_ratio_max"]
    # the runner also checks monotone tails and the fitted envelope
    ok = (not outcome.failures and weak < 10.0 and strong < 10.0 and ratio <= 2.0)
    _report(11, ok,
            f"1+0.1cos weight: off-diagonal envelope constants weak {weak:.3f}, "
            f"far-pair {strong:.3f}; tail norms monotone, within factor "
            f"{ratio:.2f} (<= 2) of the graded-norm trend")


DETERMINISM_CONFIGS = {
    "modes": "l_max = 8\n",
    "obstruction": "",
    "conormal": "",
    "gram": "",
    "deform-op": "n_modes = 64\nsamples = 3\n",
    "bg-check": "l_min = 4\nl_max = 16\n",
    "decay": "samples = 50\n",
    "nash-moser": "",
    "continuation": "",
}


def test_criterion_12_deterministic_artifacts(tmp_path):
    def run_all(out_dir):
        for command, text in DETERMINISM_CONFIGS.items():
            argv = [command, "--out", str(out_dir), "--seed", "17", "--no-assert"]
            if text:
                cfg = tmp_path / f"{command}.cfg"
                cfg.write_text(text)
                argv += ["--config", str(cfg)]
            rc = main(argv)
            assert rc == 0, f"{command} exited {rc}"

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")
    compared, identical = 0, True
    for command in DETERMINISM_CONFIGS:
        for name in ("results.csv", "summary.json"):
            p1 = tmp_path / "a" / command / name
            p2 = tmp_path / "b" / command / name
            with open(p1, "rb") as h1, open(p2, "rb") as h2:
                same = h1.read() == h2.read()
            compared += 1
            identical = identical and same
    _report(12, identical,
            f"two seeded runs of all {len(DETERMINISM_CONFIGS)} experiments: "
            f"{compared} CSV/JSON artifacts byte-identical")
