"""Experiment runners behind the command-line front end.

Each runner consumes an ExperimentConfig and returns an ExperimentOutcome:
metric dict, failure list (empty iff the configured assertions pass), CSV
rows, and an optional plot specification. Runners are deterministic in
(config, seed): no wall-clock, no unseeded randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not during a command

from .series import FourierSeries1D, TWO_PI
from .dirac import (
    LeadingData,
    RadialGrid,
    euclidean_obstruction_mode,
)
from .obstruction import (
    GRAM_DECAY_POWER,
    WeightProfile,
    annuli_decay,
    conormal_rate,
    discrete_max_principle,
    family_field,
    gram_matrix,
    gram_tail_trend,
    project_to_obstruction,
    sample_max_principle_instance,
)
from .deform import (
    KERNEL_REL_THRESHOLD,
    ExtendedSystem,
    fredholm_diagnostics,
    ll_star_defect_operator,
    loss_of_regularity_profile,
    obstruction_direction_series,
    real_coords,
    series_from_real,
    t_op,
)
from .bgvar import bg_pairing_comparison
from .newton import (
    ToyProblem,
    eigenvalue_continuation,
    nash_moser_solve,
    plain_newton_solve,
    rough_f_preset,
    smooth_f_preset,
)

PAPER_ANCHORS = {
    "modes": "model-kernel-family",
    "obstruction": "obstruction-projection",
    "conormal": "conormal-regularity-rates",
    "gram": "near-orthonormality-envelopes",
    "deform-op": "hilbert-deformation-diagnostics",
    "bg-check": "metric-variation-cross-check",
    "decay": "annuli-exponential-decay",
    "nash-moser": "smoothed-newton-comparison",
    "continuation": "eigenvalue-continuation",
}


@dataclass
class ExperimentOutcome:
    experiment: str
    metrics: dict
    failures: list
    header: list
    rows: list
    plot: dict = None

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        return {
            "experiment": self.experiment,
            "paper_anchor": PAPER_ANCHORS[self.experiment],
            "pass": self.passed,
            "metrics": self.metrics,
            "failures": list(self.failures),
        }


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


# -- modes: the closed-form kernel family is annihilated -------------------------------


def _mode_residual(l, r_max):
    grid = RadialGrid.geometric(r_max / abs(l) / 3.0, 500, r_min_factor=1e-4)
    return euclidean_obstruction_mode(l, grid).ode_residual()


def run_modes(cfg):
    failures, rows = [], []
    l_values = [l for a in range(cfg.l_min, cfg.l_max + 1) for l in (a, -a)]
    residuals = [_mode_residual(l, cfg.r_max) for l in l_values]
    for l, rel in zip(l_values, residuals):
        rows.append((l, rel))
        _check(failures, rel < cfg.tol, f"mode {l}: residual {rel:.3e} >= {cfg.tol:.1e}")
    metrics = {
        "modes_checked": len(l_values),
        "max_residual": max(residuals),
        "tolerance": cfg.tol,
    }
    pos = [(l, r) for l, r in rows if l > 0]
    plot = {
        "series": [("residual(+l)", [l for l, _ in pos], [r for _, r in pos])],
        "title": "kernel family residuals",
        "xlabel": "l",
        "ylabel": "relative residual",
        "logy": True,
    }
    return ExperimentOutcome("modes", metrics, failures, ["l", "residual"], rows, plot)


# -- obstruction: projector recovers synthesized coefficients --------------------------


def run_obstruction(cfg):
    failures, rows = [], []
    rng = np.random.default_rng(cfg.seed)
    l_values = [l for a in range(cfg.l_min, cfg.l_max + 1) for l in (a, -a)]
    coeffs = {
        l: (rng.standard_normal() + 1j * rng.standard_normal()) / (abs(l) ** 2)
        for l in l_values
    }
    grid = RadialGrid.geometric(cfg.r_max, 1200, r_min_factor=1e-9 / cfg.l_max)
    nt = 2 * cfg.l_max + 3
    field_ = family_field(coeffs, grid, nt)
    recovered = project_to_obstruction(field_, l_values)
    norm_const = 4.0 * math.pi**2
    errs = []
    for l, got in zip(l_values, recovered):
        want = norm_const * coeffs[l]
        rel = abs(got - want) / abs(want)
        errs.append(rel)
        rows.append((l, abs(coeffs[l]), abs(got / norm_const), rel))
        _check(failures, rel < cfg.tol,
               f"mode {l}: projection error {rel:.3e} >= {cfg.tol:.1e}")
    # Psi_2 alone, psi_- = sgn(2) psi_+, on the alias-free t grid nt = 4 |l| + 5
    psi2 = family_field({2: 1.0}, grid, 13)
    delta_row = project_to_obstruction(psi2, [1, 2, 3, -2])
    cross = max(abs(delta_row[i]) for i in (0, 2, 3)) / norm_const
    _check(failures, abs(delta_row[1] - norm_const) / norm_const < 1e-4,
           "self-pairing off its closed-form value")
    _check(failures, cross < 1e-8, f"family cross-talk {cross:.3e} >= 1e-8")
    metrics = {
        "modes_checked": len(l_values),
        "max_recovery_error": max(errs),
        "cross_talk": cross,
        "tolerance": cfg.tol,
    }
    pos = sorted(l for l in l_values if l > 0)
    plot = {
        "series": [("recovery error", pos,
                     [errs[l_values.index(l)] for l in pos])],
        "title": "obstruction projection recovery",
        "xlabel": "l",
        "ylabel": "relative error",
        "logy": True,
    }
    return ExperimentOutcome(
        "obstruction", metrics, failures,
        ["l", "coeff_in", "coeff_out", "rel_error"], rows, plot,
    )


# -- conormal: pairing decay rates match the vanishing order ---------------------------


def run_conormal(cfg):
    failures, rows = [], []
    l_values = sorted(set(np.geomspace(cfg.l_min, cfg.l_max, 12).astype(int)))
    f = FourierSeries1D.from_modes({int(l): 1.0 for l in l_values})
    slopes, series = {}, []
    for p in (0.5, 1.5, 2.5):
        rep = conormal_rate(p, f, l_values)
        target = -(p + 1.0)
        slopes[p] = rep.slope
        rows.append((p, rep.slope, target, rep.slope_residual))
        series.append((f"p={p}", [float(l) for l in l_values],
                       [float(abs(c)) for c in rep.coefficients]))
        _check(failures, rep.fit_valid, f"p={p}: rate fit flagged invalid")
        _check(failures, abs(rep.slope - target) <= cfg.tol,
               f"p={p}: slope {rep.slope:.4f} not within {cfg.tol} of {target}")
    metrics = {
        "slopes": {str(p): s for p, s in slopes.items()},
        "tolerance": cfg.tol,
        "l_min": cfg.l_min,
        "l_max": cfg.l_max,
    }
    plot = {
        "series": series,
        "title": "conormal pairing decay",
        "xlabel": "l",
        "ylabel": "|pairing|",
        "logx": True,
        "logy": True,
    }
    return ExperimentOutcome(
        "conormal", metrics, failures,
        ["p", "slope", "target", "fit_residual"], rows, plot,
    )


# -- gram: near-orthonormality envelopes ------------------------------------------------


def run_gram(cfg):
    failures, rows = [], []
    weight = WeightProfile.cosine(amplitude=0.1)
    l_values = list(range(cfg.l_min, cfg.l_max + 1))
    k_block = gram_matrix(l_values, weight).real - np.eye(len(l_values))
    ls = np.asarray(l_values, dtype=float)
    weak = np.abs(k_block) * np.sqrt(ls[:, None] * ls[None, :])
    weak_const = float(np.max(weak))
    far = np.abs(ls[:, None] - ls[None, :]) >= (ls[:, None] * ls[None, :]) ** 0.25
    strong = np.abs(k_block) * (ls[:, None] * ls[None, :]) ** 2
    strong_const = float(np.max(strong[far])) if far.any() else 0.0
    trend = gram_tail_trend(k_block, l_values)
    for c, n in zip(trend.cutoffs, trend.tail_norms):
        rows.append((int(c), float(n)))
    # the graded-norm prediction: tail(L0) <= smoothing_norm * L0^{-1/8}
    envelope = trend.smoothing_norm * trend.cutoffs.astype(float) ** (-GRAM_DECAY_POWER)
    ratio = float(np.max(trend.tail_norms / np.maximum(envelope, 1e-300)))
    _check(failures, weak_const < 10.0,
           f"weak envelope constant {weak_const:.3f} unexpectedly large")
    _check(failures, strong_const < 10.0,
           f"strong far-pair envelope constant {strong_const:.3f} unexpectedly large")
    _check(failures, trend.envelope_ok, "tail norms escaped the fitted envelope")
    _check(failures, trend.monotone, "tail norms not monotone in the cutoff")
    _check(failures, ratio <= cfg.tol,
           f"tail exceeds the graded-norm prediction by {ratio:.3f} > {cfg.tol}")
    metrics = {
        "weak_envelope_constant": weak_const,
        "strong_envelope_constant": strong_const,
        "tail_norms": [float(x) for x in trend.tail_norms],
        "cutoffs": [int(x) for x in trend.cutoffs],
        "envelope_ratio_max": float(ratio),
        "smoothing_norm": trend.smoothing_norm,
    }
    plot = {
        "series": [
            ("tail norm", [float(c) for c in trend.cutoffs],
             [float(x) for x in trend.tail_norms]),
            ("envelope", [float(c) for c in trend.cutoffs],
             [float(x) for x in envelope]),
        ],
        "title": "gram tail vs cutoff",
        "xlabel": "low-mode cutoff",
        "ylabel": "norm of U - I tail",
        "logx": True,
        "logy": True,
    }
    return ExperimentOutcome(
        "gram", metrics, failures, ["cutoff", "tail_norm"], rows, plot,
    )


# -- deform-op: index, kernel, defect, and loss-of-regularity diagnostics ---------------


def random_nondegenerate_data(rng):
    """Smooth random band-3 (c, d) with min |c|^2 + |d|^2 above 0.35."""
    band = 3
    while True:
        c_modes = {0: 1.0 + 0.2 * rng.standard_normal()}
        d_modes = {0: 0.3 * rng.standard_normal()}
        for l in range(1, band + 1):
            scale = 0.25 / (1 + l * l)
            c_modes[l] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            c_modes[-l] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            d_modes[l] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
            d_modes[-l] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        c = FourierSeries1D.from_modes(c_modes, TWO_PI, band)
        d = FourierSeries1D.from_modes(d_modes, TWO_PI, band)
        try:
            data = LeadingData(c, d)
        except ValueError:
            continue
        if data.nondegeneracy_min() > 0.35:
            return data


def run_deform_op(cfg):
    failures, rows = [], []
    rng = np.random.default_rng(cfg.seed)
    truncations = (cfg.n_modes // 2, 3 * cfg.n_modes // 4, cfg.n_modes)
    unstable, min_gap = 0, float("inf")
    for i in range(cfg.samples):
        data = random_nondegenerate_data(rng)
        rep = fredholm_diagnostics(data, truncations=truncations)
        rows.append((i, rep.kernel_dim, int(rep.stable), rep.singular_gaps[-1]))
        min_gap = min(min_gap, *rep.singular_gaps)
        if not (rep.stable and rep.kernel_dim == 0 and rep.index == 0):
            unstable += 1
            _check(failures, False,
                   f"sample {i}: kernel dims {rep.kernel_dims} not stably zero")
    flat = LeadingData.constant(1.0, 1.0)
    rep1 = fredholm_diagnostics(flat, truncations=truncations)
    _check(failures, rep1.stable and rep1.kernel_dim == 1,
           f"constant data kernel dims {rep1.kernel_dims}, want stable 1")
    gap = min(rep1.singular_gaps)
    _check(failures, gap > 1e-3,
           f"constant data complement margin {gap:.2e} too small")
    defect_norms = []
    generic = random_nondegenerate_data(rng)
    for n in truncations:
        op = ll_star_defect_operator(generic, int(n))
        defect_norms.append(op.operator_norm(1.0, 0.0))
    spread = max(defect_norms) / max(min(defect_norms), 1e-300)
    _check(failures, spread < 2.0,
           f"composition defect norms vary by {spread:.2f} across truncations")
    loss = loss_of_regularity_profile(
        random_nondegenerate_data(rng),
        n_values=tuple(sorted({max(8, cfg.n_modes // 4), cfg.n_modes // 2,
                               cfg.n_modes, 2 * cfg.n_modes})),
    )
    _check(failures, abs(loss.exponent_2_to_2 - 0.5) <= cfg.tol,
           f"2->2 growth exponent {loss.exponent_2_to_2:.3f} not 0.5 +/- {cfg.tol}")
    _check(failures, abs(loss.exponent_2_to_32) <= cfg.tol,
           f"2->3/2 growth exponent {loss.exponent_2_to_32:.3f} not 0 +/- {cfg.tol}")
    metrics = {
        "samples": cfg.samples,
        "unstable_samples": unstable,
        "constant_kernel_dim": rep1.kernel_dim,
        "constant_margin": gap,
        "constant_kernel_dims": list(rep1.kernel_dims),
        "constant_singular_gaps": list(rep1.singular_gaps),
        # sigma_{k+1} / tau: how far the kernel counts sit from their threshold
        "min_count_margin": min_gap / KERNEL_REL_THRESHOLD,
        "defect_norms": [float(x) for x in defect_norms],
        "exponent_2_to_2": loss.exponent_2_to_2,
        "exponent_2_to_32": loss.exponent_2_to_32,
    }
    plot = {
        "series": [
            ("2->2", [float(n) for n in loss.n_values],
             [float(x) for x in loss.norms_2_to_2]),
            ("2->3/2", [float(n) for n in loss.n_values],
             [float(x) for x in loss.norms_2_to_32]),
        ],
        "title": "deformation operator truncation norms",
        "xlabel": "band N",
        "ylabel": "operator norm",
        "logx": True,
        "logy": True,
    }
    return ExperimentOutcome(
        "deform-op", metrics, failures,
        ["sample", "kernel_dim", "stable", "singular_gap"], rows, plot,
    )


# -- bg-check: field-level pairing vs multiplier prediction -----------------------------


def bg_probe_design(l_max):
    """Broadband displacement (amplitude 0.05 on every mode) and mildly
    varying data for the ratio probe."""
    data = LeadingData(
        FourierSeries1D.from_modes({0: 1.0, 1: 0.3}, TWO_PI, 1),
        FourierSeries1D.from_modes({0: 0.0}, TWO_PI, 1),
    )
    band = l_max + 4
    eta = FourierSeries1D.from_modes(
        {l: 0.05 for l in range(-band, band + 1) if l != 0}, TWO_PI, band
    )
    return data, eta


def run_bg_check(cfg):
    failures, rows = [], []
    probes = [cfg.l_min]
    while probes[-1] * 2 <= cfg.l_max:
        probes.append(probes[-1] * 2)
    data, eta = bg_probe_design(cfg.l_max)
    report = bg_pairing_comparison(data, eta, l_values=tuple(probes))
    for l in report.l_values:
        rows.append((l, report.khat[l].real, report.khat[l].imag,
                     abs(report.khat[l] - report.fitted_constant)))
    _check(failures, report.max_imag < 1e-6,
           f"pairing ratio has imaginary part {report.max_imag:.2e}")
    lo, hi = -1.0 - cfg.tol, -1.0 + cfg.tol
    _check(failures,
           math.isfinite(report.deviation_exponent)
           and lo <= report.deviation_exponent <= hi,
           f"deviation exponent {report.deviation_exponent:.3f} outside "
           f"[{lo:.2f}, {hi:.2f}]")
    _check(failures, report.closest_candidate == -0.75,
           f"fitted constant {report.fitted_constant:.5f} nearest to "
           f"{report.closest_candidate}, expected -0.75")
    metrics = {
        "probes": list(report.l_values),
        "fitted_constant": report.fitted_constant,
        # fewer than two mode doublings leave the exponent undefined (NaN)
        "deviation_exponent": (report.deviation_exponent
                               if math.isfinite(report.deviation_exponent) else None),
        "candidate_distances": {
            str(k): float(v) for k, v in report.candidate_distances.items()
        },
        "max_imag": report.max_imag,
    }
    ls = [float(l) for l in report.l_values]
    plot = {
        "series": [
            ("|khat - fit|", ls,
             [max(abs(report.khat[l] - report.fitted_constant), 1e-16)
              for l in report.l_values]),
        ],
        "title": "metric variation ratio deviations",
        "xlabel": "l",
        "ylabel": "deviation",
        "logx": True,
        "logy": True,
    }
    return ExperimentOutcome(
        "bg-check", metrics, failures,
        ["l", "khat_re", "khat_im", "deviation"], rows, plot,
    )


# -- decay: annuli rates and the discrete comparison principle --------------------------


def run_decay(cfg):
    failures, rows = [], []
    probes = [cfg.l_min]
    while probes[-1] * 2 <= cfg.l_max:
        probes.append(probes[-1] * 2)
    rates = []
    for l in probes:
        rep = annuli_decay(0.5, l, r_scale=cfg.r0)
        rates.append(rep.rate_per_annulus)
        rows.append((l, rep.rate_per_annulus, rep.n_used))
    mean = float(np.mean(rates))
    spread = (max(rates) - min(rates)) / mean
    _check(failures, spread < cfg.tol,
           f"annuli rate spread {spread:.3f} >= {cfg.tol}")
    rng = np.random.default_rng(cfg.seed)
    valid_pass = 0
    for _ in range(cfg.samples):
        seq, barrier = sample_max_principle_instance(rng)
        if discrete_max_principle(seq, barrier, 0.4).certified:
            valid_pass += 1
    invalid_detect = 0
    n_invalid = min(100, cfg.samples)
    for _ in range(n_invalid):
        seq, barrier = sample_max_principle_instance(rng)
        bad = np.array(seq, dtype=float)
        idx = int(rng.integers(1, len(bad) - 1))
        bad[idx] = barrier[idx] + rng.uniform(0.5, 2.0)
        result = discrete_max_principle(bad, barrier, 0.4)
        if not result.certified and (
            result.hypothesis_violation is not None
            or result.conclusion_violation is not None
        ):
            invalid_detect += 1
    _check(failures, valid_pass == cfg.samples,
           f"only {valid_pass}/{cfg.samples} valid instances certified")
    _check(failures, invalid_detect == n_invalid,
           f"only {invalid_detect}/{n_invalid} invalid instances pinpointed")
    metrics = {
        "rates": [float(r) for r in rates],
        "rate_spread": spread,
        "rate_mean": mean,
        "valid_certified": valid_pass,
        "valid_total": cfg.samples,
        "invalid_detected": invalid_detect,
        "invalid_total": n_invalid,
    }
    plot = {
        "series": [("rate per annulus", [float(l) for l in probes],
                     [float(r) for r in rates])],
        "title": "annuli decay rates",
        "xlabel": "l",
        "ylabel": "rate",
        "logx": True,
    }
    return ExperimentOutcome(
        "decay", metrics, failures, ["l", "rate_per_annulus", "annuli_used"],
        rows, plot,
    )


# -- nash-moser: plain vs smoothed iteration on the presets -----------------------------


def run_nash_moser(cfg):
    failures, rows = [], []
    problem = ToyProblem(n_modes=cfg.n_modes)
    rough = rough_f_preset(n_modes=cfg.n_modes)
    _, plain_trace = plain_newton_solve(problem, rough,
                                        max_steps=cfg.max_steps, tol=cfg.tol)
    u_nm, nm_trace = nash_moser_solve(problem, rough, eps0=cfg.eps0,
                                      theta=cfg.theta,
                                      max_steps=cfg.max_steps, tol=cfg.tol)
    for s in plain_trace.steps:
        rows.append(("plain", "rough", s.step, s.eps, s.residual_norm))
    for s in nm_trace.steps:
        rows.append(("smoothed", "rough", s.step, s.eps, s.residual_norm))
    _check(failures, plain_trace.status == "diverged",
           f"plain iteration on rough data: {plain_trace.status}, want diverged")
    _check(failures, nm_trace.status == "converged",
           f"smoothed iteration on rough data: {nm_trace.status}, want converged")
    _check(failures, nm_trace.final_residual < cfg.tol,
           f"smoothed residual {nm_trace.final_residual:.2e} >= {cfg.tol:.1e}")
    smooth = smooth_f_preset(n_modes=cfg.n_modes)
    u_ps, ps_trace = plain_newton_solve(problem, smooth,
                                        max_steps=cfg.max_steps, tol=1e-12)
    u_ns, ns_trace = nash_moser_solve(problem, smooth, eps0=cfg.eps0,
                                      theta=cfg.theta, max_steps=40, tol=1e-12)
    gap = (u_ps - u_ns).sobolev_norm(problem.m0)
    for s in ps_trace.steps:
        rows.append(("plain", "smooth", s.step, s.eps, s.residual_norm))
    for s in ns_trace.steps:
        rows.append(("smoothed", "smooth", s.step, s.eps, s.residual_norm))
    _check(failures, ps_trace.status == "converged" and ns_trace.status == "converged",
           "smooth preset: both iterations should converge")
    _check(failures, gap < 1e-8,
           f"smooth preset solutions differ by {gap:.2e} >= 1e-8")
    metrics = {
        "plain_rough_status": plain_trace.status,
        "plain_rough_diverged": plain_trace.status == "diverged",
        "smoothed_rough_status": nm_trace.status,
        "smoothed_rough_converged": nm_trace.status == "converged",
        "smoothed_rough_residual": nm_trace.final_residual,
        "smoothed_rough_iterations": nm_trace.iterations,
        "smooth_solution_gap": float(gap),
    }
    plot = {
        "series": [
            ("plain/rough", [float(s.step) for s in plain_trace.steps],
             [max(s.residual_norm, 1e-16) for s in plain_trace.steps]),
            ("smoothed/rough", [float(s.step) for s in nm_trace.steps],
             [max(s.residual_norm, 1e-16) for s in nm_trace.steps]),
        ],
        "title": "newton residual histories",
        "xlabel": "step",
        "ylabel": "residual at m0",
        "logy": True,
    }
    return ExperimentOutcome(
        "nash-moser", metrics, failures,
        ["solver", "preset", "step", "eps", "residual"], rows, plot,
    )


# -- continuation: the bordered multiplier crosses zero ---------------------------------


def continuation_family(n_modes):
    """Shifted leading data plus a right-hand side tuned to cross at s = 0."""

    def data_family(s):
        c = FourierSeries1D.from_modes({0: 1.0, 1: 0.35 + s, -1: 0.1}, TWO_PI, 4)
        d = FourierSeries1D.from_modes({0: 0.4, -1: 0.2, 2: 0.15}, TWO_PI, 4)
        return LeadingData(c, d)

    data0 = data_family(0.0)
    rng = np.random.default_rng(3)
    eta = FourierSeries1D.from_modes(
        {l: 0.3 * (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + l * l)
         for l in range(-6, 7) if l != 0},
        TWO_PI, n_modes,
    )
    phi = obstruction_direction_series(data0, n_modes)
    ev, pv = real_coords(eta), real_coords(phi)
    ev = ev - (ev @ pv) / (pv @ pv) * pv
    g = t_op(data0, series_from_real(ev, TWO_PI)).truncate(n_modes)
    return data_family, g


def run_continuation(cfg):
    failures, rows = [], []
    data_family, g = continuation_family(cfg.n_modes)
    result = eigenvalue_continuation(data_family, g, cfg.n_modes, -0.2, 0.3,
                                     tol=1e-10)
    for s, lam in result.history:
        rows.append((s, lam))
    h = 0.03
    lam_p = ExtendedSystem.from_data(data_family(result.s_star + h),
                                     cfg.n_modes).solve(g)[1]
    lam_m = ExtendedSystem.from_data(data_family(result.s_star - h),
                                     cfg.n_modes).solve(g)[1]
    linearity = abs(lam_p + lam_m) / abs(lam_p - lam_m)
    _check(failures, abs(result.s_star) < cfg.tol,
           f"crossing located at {result.s_star:.2e}, want within {cfg.tol:.1e} of 0")
    _check(failures, lam_p * lam_m < 0.0, "multiplier does not change sign at root")
    _check(failures, linearity < 0.2,
           f"crossing asymmetry {linearity:.3f} >= 0.2 (not locally linear)")
    metrics = {
        "s_star": result.s_star,
        "evaluations": result.evaluations,
        "bracket": list(result.bracket),
        "linearity_ratio": float(linearity),
    }
    hist = sorted(result.history)
    plot = {
        "series": [("lambda(s)", [s for s, _ in hist], [l for _, l in hist])],
        "title": "bordered multiplier along the family",
        "xlabel": "s",
        "ylabel": "lambda",
    }
    return ExperimentOutcome(
        "continuation", metrics, failures, ["s", "lambda"], rows, plot,
    )


EXPERIMENTS = {
    "modes": run_modes,
    "obstruction": run_obstruction,
    "conormal": run_conormal,
    "gram": run_gram,
    "deform-op": run_deform_op,
    "bg-check": run_bg_check,
    "decay": run_decay,
    "nash-moser": run_nash_moser,
    "continuation": run_continuation,
}


def run_experiment(cfg):
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    return EXPERIMENTS[cfg.experiment](cfg)
