"""Correctness checks on the artifacts an `edl` experiment writes.

Each check compares the artifacts with a closed form or a property the
paper's claims require, never with a stored copy of an earlier run. A check
returns a list of failure messages; an empty list means the operation's
output is correct.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_strict_json(path):
    """Parse JSON, refusing the NaN / Infinity extensions Python emits."""
    with open(path) as handle:
        return json.loads(handle.read(), parse_constant=_reject_constant)


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _within(failures, label, value, target, tol):
    if not (isinstance(value, (int, float)) and abs(value - target) <= tol):
        failures.append(f"{label} = {value!r}, want {target!r} +/- {tol:g}")


def _below(failures, label, value, bound):
    if not (isinstance(value, (int, float)) and abs(value) < bound):
        failures.append(f"{label} = {value!r}, want |.| < {bound:g}")


# -- field --------------------------------------------------------------------------


def check_modes(metrics, rows, cfg):
    failures = []
    _below(failures, "max_residual", metrics.get("max_residual"), 1e-8)
    want = 2 * (cfg["l_max"] - cfg["l_min"] + 1)
    if metrics.get("modes_checked") != want or len(rows) != want:
        failures.append(f"modes checked {metrics.get('modes_checked')} "
                        f"({len(rows)} rows), want {want}")
    return failures


def check_bg_check(metrics, rows, cfg):
    failures = []
    _within(failures, "fitted_constant", metrics.get("fitted_constant"), -0.75, 1e-3)
    _within(failures, "deviation_exponent", metrics.get("deviation_exponent"), -1.0, 0.2)
    _below(failures, "max_imag", metrics.get("max_imag"), 1e-6)
    return failures


# -- circle -------------------------------------------------------------------------


def constant_data_spectrum(c, d, n_modes):
    """Kernel dimension and relative margin of L xi = H(c xi) - conj(xi) d
    for constant c, d on modes -n..n, worked out block by block.

    For l > 0, H multiplies mode l by +1 and mode -l by -1, and conj maps
    mode -l to mode l, so (xi_l, conj xi_{-l}) -> (out_l, conj out_{-l}) is
    the complex 2x2 block [[c, -d], [-conj d, -conj c]]; over the reals each
    of its singular values appears twice. Mode 0 (H = +1 there) is the real
    2x2 block of xi -> c xi - d conj(xi) on (Re, Im).
    """
    pair = np.array([[c, -d], [-np.conj(d), -np.conj(c)]], dtype=complex)
    pair_sv = np.linalg.svd(pair, compute_uv=False)
    cr, ci, dr, di = c.real, c.imag, d.real, d.imag
    zero = np.array([[cr - dr, -(ci + di)], [ci - di, cr + dr]], dtype=float)
    zero_sv = np.linalg.svd(zero, compute_uv=False)
    sv = np.concatenate([np.repeat(pair_sv, 2 * n_modes), zero_sv])
    top = float(np.max(sv))
    near_zero = sv < 1e-8 * top
    margin = float(np.min(sv[~near_zero]) / top)
    return int(np.sum(near_zero)), margin


def check_deform_op(metrics, rows, cfg):
    failures = []
    n = cfg["n_modes"]
    truncations = (n // 2, 3 * n // 4, n)
    spectra = [constant_data_spectrum(1.0 + 0j, 1.0 + 0j, m) for m in truncations]
    dim = spectra[-1][0]
    margin = min(m for _, m in spectra)
    if metrics.get("constant_kernel_dim") != dim:
        failures.append(f"constant data kernel dim {metrics.get('constant_kernel_dim')}, "
                        f"closed form gives {dim}")
    _within(failures, "constant_margin", metrics.get("constant_margin"), margin, 1e-9)
    _within(failures, "exponent_2_to_2", metrics.get("exponent_2_to_2"), 0.5, 0.1)
    _within(failures, "exponent_2_to_32", metrics.get("exponent_2_to_32"), 0.0, 0.1)
    return failures


def check_nash_moser(metrics, rows, cfg):
    failures = []
    if metrics.get("plain_rough_status") != "diverged":
        failures.append(f"plain rough run {metrics.get('plain_rough_status')!r}, want diverged")
    if metrics.get("smoothed_rough_status") != "converged":
        failures.append(f"smoothed rough run {metrics.get('smoothed_rough_status')!r}, "
                        "want converged")
    _below(failures, "smoothed_rough_residual", metrics.get("smoothed_rough_residual"), 1e-8)
    _below(failures, "smooth_solution_gap", metrics.get("smooth_solution_gap"), 1e-8)
    return failures


def check_continuation(metrics, rows, cfg):
    failures = []
    _below(failures, "s_star", metrics.get("s_star"), 1e-6)
    return failures


# -- radial -------------------------------------------------------------------------


def check_obstruction(metrics, rows, cfg):
    failures = []
    want = {s * a for a in range(cfg["l_min"], cfg["l_max"] + 1) for s in (1, -1)}
    got = {int(row["l"]) for row in rows}
    if got != want or len(rows) != len(want):
        failures.append(f"projected modes {sorted(got)} do not cover +-{cfg['l_min']}.."
                        f"{cfg['l_max']}")
    for row in rows:
        c_in, c_out = float(row["coeff_in"]), float(row["coeff_out"])
        if not (c_in > 0 and abs(c_out - c_in) / c_in < 1e-5):
            failures.append(f"mode {row['l']}: |coeff| in {c_in!r}, out {c_out!r}")
        if not float(row["rel_error"]) < 1e-5:
            failures.append(f"mode {row['l']}: recovery error {row['rel_error']}")
    _below(failures, "max_recovery_error", metrics.get("max_recovery_error"), 1e-5)
    return failures


def check_conormal(metrics, rows, cfg):
    # the radial integral against sqrt|l| e^{-|l| r} r^{-1/2} is
    # Gamma(p + 3/2) |l|^{-(p+1)}, so the log-log slope is -(p + 1)
    failures = []
    slopes = metrics.get("slopes", {})
    for p in (0.5, 1.5, 2.5):
        _within(failures, f"slope p={p}", slopes.get(str(p)), -(p + 1.0), 0.05)
    return failures


def check_gram(metrics, rows, cfg):
    failures = []
    tails = np.asarray(metrics.get("tail_norms", []), dtype=float)
    cutoffs = np.asarray(metrics.get("cutoffs", []), dtype=float)
    if tails.size < 2 or tails.size != cutoffs.size or len(rows) != tails.size:
        return [f"tail norms {tails.tolist()} / cutoffs {cutoffs.tolist()} malformed"]
    envelope = tails[0] * (cutoffs / cutoffs[0]) ** -0.125
    if not np.all(tails <= envelope * (1.0 + 1e-12)):
        failures.append("tail norms escape the envelope fitted at the first cutoff")
    if not np.all(np.diff(tails) <= 1e-12):
        failures.append("tail norms are not monotone in the cutoff")
    return failures


def check_decay(metrics, rows, cfg):
    # the forced solution decays like e^{-|l| r} over annuli of width 2 r0/|l|
    failures = []
    _within(failures, "rate_mean", metrics.get("rate_mean"), 2.0 * cfg["r0"], 0.05)
    return failures


CHECKS = {
    "modes": check_modes,
    "bg-check": check_bg_check,
    "deform-op": check_deform_op,
    "nash-moser": check_nash_moser,
    "continuation": check_continuation,
    "obstruction": check_obstruction,
    "conormal": check_conormal,
    "gram": check_gram,
    "decay": check_decay,
}


def check_artifacts(experiment, folder, cfg):
    """Failure messages for one experiment's artifacts under `folder`."""
    try:
        summary = load_strict_json(os.path.join(folder, "summary.json"))
        rows = _read_rows(os.path.join(folder, "results.csv"))
    except (OSError, ValueError) as exc:
        return [f"unreadable artifacts: {exc}"]
    failures = []
    if summary.get("experiment") != experiment or summary.get("pass") is not True:
        failures.append(f"summary reports experiment {summary.get('experiment')!r}, "
                        f"pass {summary.get('pass')!r}")
    metrics = summary.get("metrics")
    if not isinstance(metrics, dict):
        return failures + ["summary has no metrics object"]
    return failures + CHECKS[experiment](metrics, rows, cfg)
