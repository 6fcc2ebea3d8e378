"""End-to-end acceptance suite.

Twelve numbered criteria, one per test, each printing a single
[PASS]/[FAIL] line (routed past pytest capture) and asserting the same
condition. Together they pin the closed-form kernel family, the radial
solver, pairing decay rates, operator diagnostics, the smoothing axioms,
the two-solver comparison, and artifact determinism.

Criteria 3, 7, 9, 10 and 11 run the runner of their command (`conormal`,
`bg-check`, `nash-moser`, `decay`, `gram`) once, so each of those claims has
its inputs and acceptance rule in one place; they pass when the runner
reports no failure and restate the bounds of the numbers they print.
Criteria 1, 2, 4, 5, 6, 8 and 12 check library results against closed forms
or against their own references. Criteria 5 and 6 stay off the `deform-op`
runner on purpose: they test truncations (64, 128, 256) and 32..512, which
no `deform-op` config reproduces, and a constant-data margin of 0.1 where
the runner checks 1e-3, so reading the runner would loosen them.
"""

import math
import random

import numpy as np
import pytest

from conftest import criterion_lines, shoot_mode

from edl.series import (
    FourierSeries1D,
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
)
from edl.deform import (
    fredholm_diagnostics,
    ll_star_defect_operator,
    loss_of_regularity_profile,
)
from edl.cli import main
from edl.config import build_config
from edl.experiments import random_nondegenerate_data, run_experiment

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


@pytest.mark.filterwarnings("error")
def test_criterion_02_radial_ode_branches():
    worst = 0.0
    for l in (1, 2, 3, 5):
        grid = RadialGrid.geometric(8.0 / l, 700, r_min_factor=1e-4)
        num = shoot_mode(0, l, grid, decaying=True)
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
        reg = shoot_mode(k, 2, grid, decaying=False)
        grow_rate = growth_rate(reg)
        grow_ok = grow_ok and grow_rate > 1.0 and abs(grow_rate - 2.0) < 0.3
    _report(2, decays_ok and grow_ok,
            f"decaying branch matches closed form (rel err {worst:.2e} < 1e-6), "
            f"k=+/-1 leading branch grows (rate ~ {grow_rate:.2f}, flagged)")


def test_criterion_03_conormal_rates():
    # the runner fits 12 geometric probes in [8, 256] and flags invalid fits
    outcome = run_experiment(build_config("conormal"))
    slopes = outcome.metrics["slopes"]
    ok = not outcome.failures and all(
        abs(s + float(p) + 1.0) <= 0.05 for p, s in slopes.items())
    _report(3, ok, "pairing decay slopes "
            + ", ".join(f"p={p}: {s:.3f}" for p, s in slopes.items())
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
    rng = random.Random(SEED)
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
    data = random_nondegenerate_data(random.Random(SEED + 1))
    loss = loss_of_regularity_profile(data, n_values=(32, 64, 128, 256, 512))
    ok = abs(loss.exponent_2_to_2 - 0.5) <= 0.1 and abs(loss.exponent_2_to_32) <= 0.1
    _report(6, ok,
            f"truncation norm growth exponents: same-grade {loss.exponent_2_to_2:.3f}"
            f" (0.5 +/- 0.1), half-order-down {loss.exponent_2_to_32:.3f} (0 +/- 0.1)"
            f" over N in 32..512")


def test_criterion_07_metric_variation_cross_check():
    # the runner also checks that -3/4 is the closest candidate and that the
    # ratio is real to 1e-6
    outcome = run_experiment(build_config("bg-check"))
    m = outcome.metrics
    exponent, dist = m["deviation_exponent"], m["candidate_distances"]
    ok = not outcome.failures and exponent is not None and -1.2 <= exponent <= -0.8
    shown = "undefined" if exponent is None else f"{exponent:.3f}"
    _report(7, ok,
            f"pairing/prediction ratio -> {m['fitted_constant']:.5f} "
            f"(candidates: -3/4 at {dist['-0.75']:.2e}, -3/2 at {dist['-1.5']:.2f}), "
            f"deviation exponent {shown} in [-1.2, -0.8] over l in [8, 128]")


def test_criterion_08_smoothing_axioms():
    eps_grid = [2.0**-k for k in range(1, 9)]
    report = verify_smoothing_axioms(m_max=4, eps_grid=eps_grid)
    axioms_ok = report.passed and all(
        np.isfinite(r.max_ratio) and r.eps_spread <= 4.0 for r in report.rows
    )
    rng = np.random.default_rng(SEED + 2)
    worst_interp = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        coeffs = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        u = FourierSeries1D(coeffs / (1 + np.arange(-n, n + 1) ** 2))
        m1 = float(rng.uniform(0.0, 1.5))
        m2 = float(rng.uniform(m1 + 0.5, 4.0))
        m = float(rng.uniform(m1 + 0.1 * (m2 - m1), m2 - 0.1 * (m2 - m1)))
        worst_interp = max(worst_interp, interpolation_ratio(u, m, m1, m2))
    interp_ok = worst_interp <= 1.0 + 1e-12
    _report(8, axioms_ok and interp_ok,
            f"mollifier constants finite/stable over eps in 2^-1..2^-8, m,n <= 4 "
            f"(worst {report.worst:.3f}); interpolation constant "
            f"{worst_interp:.12f} <= 1 + 1e-12 on 1000 random vectors")


def test_criterion_09_newton_comparison():
    # rough preset: both solvers at 30 steps, the smoothed residual checked
    # against tol; smooth preset: both converge to 1e-12
    outcome = run_experiment(build_config("nash-moser", {"tol": 1e-10}))
    m = outcome.metrics
    gap = m["smooth_solution_gap"]
    ok = not outcome.failures and m["plain_rough_diverged"] and gap < 1e-8
    _report(9, ok,
            f"rough preset: plain diverged (certificate), smoothed residual "
            f"{m['smoothed_rough_residual']:.1e} in {m['smoothed_rough_iterations']} "
            f"steps; smooth preset: both converge, gap {gap:.1e} < 1e-8")


def test_criterion_10_comparison_principle_and_annuli():
    # 1000 valid instances, then min(100, samples) perturbed ones; the annuli
    # rates at l = 4..64 draw no random numbers
    outcome = run_experiment(build_config("decay", {"samples": 1000, "seed": SEED + 3}))
    m = outcome.metrics
    valid, pinpointed = m["valid_certified"], m["invalid_detected"]
    spread = m["rate_spread"]
    _report(10, not outcome.failures and valid == 1000 and pinpointed == 100
            and spread < 0.2,
            f"comparison principle: {valid}/1000 valid certified, "
            f"{pinpointed}/100 violations pinpointed; annuli rate spread "
            f"{spread:.3f} < 0.2 over l in {{4..64}}")


def test_criterion_11_gram_envelopes():
    outcome = run_experiment(build_config("gram"))
    m = outcome.metrics
    weak, beyond = m["weak_envelope_constant"], m["beyond_band_max"]
    ratio = m["envelope_ratio_max"]
    # the runner also checks monotone tails and the fitted envelope
    ok = (not outcome.failures and weak < 10.0 and beyond == 0.0 and ratio <= 2.0)
    _report(11, ok,
            f"1+0.1cos weight: off-diagonal envelope constant weak {weak:.3f}, "
            f"max |K| beyond the weight's band {beyond!r} (exactly 0); tail norms "
            f"monotone, within factor {ratio:.2f} (<= 2) of the graded-norm trend")


DETERMINISM_CONFIGS = {
    "modes": "l_max = 8\n",
    "obstruction": "",
    "conormal": "",
    "gram": "",
    "deform-op": "n_modes = 64\nsamples = 3\n",
    "bg-check": "l_min = 8\nl_max = 32\n",
    "decay": "samples = 50\n",
    "nash-moser": "",
    "continuation": "",
}


def test_criterion_12_deterministic_artifacts(tmp_path):
    def run_all(out_dir):
        for command, text in DETERMINISM_CONFIGS.items():
            argv = [command, "--out", str(out_dir), "--seed", "17"]
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
        for name in ("results.csv", "summary.json", "plot.svg"):
            p1 = tmp_path / "a" / command / name
            p2 = tmp_path / "b" / command / name
            if name == "plot.svg" and not (p1.exists() or p2.exists()):
                continue
            same = p1.exists() and p2.exists() and p1.read_bytes() == p2.read_bytes()
            compared += 1
            identical = identical and same
    _report(12, identical,
            f"two seeded runs of all {len(DETERMINISM_CONFIGS)} experiments: "
            f"{compared} CSV/JSON/SVG artifacts byte-identical")
