"""Flat key=value experiment configuration with per-command defaults."""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one experiment run.

    Every field has a per-command default; a config file only overrides.
    l_min/l_max bound the probe modes (0 excluded where the experiment
    requires it), n_modes is the working band, r0/r_max radial scales, tol
    the assertion tolerance, samples the randomized-suite size. nash-moser's
    smoothing schedule and step budgets are the solvers' own constants.
    """

    experiment: str = ""
    n_modes: int = 48
    l_min: int = 1
    l_max: int = 32
    r0: float = 1.0
    r_max: float = 30.0
    tol: float = 1e-8
    samples: int = 200
    seed: int = 20260815
    out_dir: str = "edl-out"

    def validate(self):
        for name in sorted(_FLOAT_KEYS):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_modes <= 0:
            raise ConfigError(f"n_modes must be positive, got {self.n_modes}")
        if self.l_min <= 0:
            raise ConfigError(f"l_min must be positive, got {self.l_min}")
        if self.l_max < self.l_min:
            raise ConfigError(f"l_max {self.l_max} below l_min {self.l_min}")
        span = self.l_max - self.l_min + 1
        if self.experiment in ("gram", "conormal") and span < MIN_PROBE_MODES:
            raise ConfigError(
                f"{self.experiment} needs at least {MIN_PROBE_MODES} modes, got {span}"
            )
        # on two probes the deviation exponent is undefined
        if self.experiment == "bg-check" and len(doubling_probes(self.l_min, self.l_max)) < 3:
            raise ConfigError(f"bg-check needs three probes, l_max at least 4 l_min = "
                              f"{4 * self.l_min}, got {self.l_max}")
        for name in ("r0", "r_max", "tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for key, (least, most) in LIMITS.get(self.experiment, {}).items():
            value = getattr(self, key)
            where = f"for {self.experiment}, got {value}"
            if least is not None and value < least:
                raise ConfigError(f"{key} must be at least {least} {where}")
            if most is not None and value > most:
                raise ConfigError(f"{key} must be at most {most} {where}")
        if self.experiment == "modes" and self.tol < MODES_TOL_FLOOR * self.l_max:
            raise ConfigError(f"tol must be at least {MODES_TOL_FLOOR:g} l_max = "
                              f"{MODES_TOL_FLOOR * self.l_max:.3g} for modes, got {self.tol:g}")
        ratio = MODES_ROUNDOFF * self.l_max / self.tol
        least = max(MIN_MODES_R_MAX, ratio, ratio**2)
        if self.experiment == "modes" and not least <= self.r_max <= MAX_MODES_R_MAX:
            raise ConfigError(
                f"r_max must lie in [{least:.3g}, {MAX_MODES_R_MAX:g}] for modes at "
                f"l_max {self.l_max} and tol {self.tol:g}, got {self.r_max}"
            )
        if self.experiment == "obstruction":
            # the loss is convex in l: on l_min..l_max it is largest at an end
            for l, bound, what in ((self.l_min, self.tol, "tol"), (self.l_max, self.tol, "tol"),
                                   (2, SELF_PAIRING_TOL, "the self-pairing bound")):
                loss = obstruction_grid_loss(l, self.l_max, self.r_max)
                if loss >= bound:
                    raise ConfigError(
                        f"r_max = {self.r_max} loses {loss:.1e} of mode {l}'s norm on "
                        f"obstruction's grid, not below {what} {bound:g}"
                    )
        if self.samples <= 0:
            raise ConfigError(f"samples must be positive, got {self.samples}")
        # random.Random seeds an int by its absolute value: -s would replay s
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        key, need = dense_array_bound(self)
        if need > MATRIX_BYTE_BUDGET:
            raise ConfigError(
                f"{key} = {getattr(self, key)} needs {need / 2**20:.0f} MiB of dense "
                f"arrays in {self.experiment}, above the "
                f"{MATRIX_BYTE_BUDGET / 2**20:.0f} MiB budget"
            )
        return self


class ConfigError(ValueError):
    pass


MATRIX_BYTE_BUDGET = 256 * 2**20

# so that gram's last tail cutoff keeps a coupled pair of modes, and conormal
# fits its rate through at least three probe modes
MIN_PROBE_MODES = 3
# decay holds its mean rate per annulus to 2 r0 within DECAY_RATE_RTOL
DECAY_RATE_RTOL = 0.01
# command -> {key: (least, most)}, None for no bound; each row's comment cites
# the sweep that measured it
LIMITS = {
    # deform-op fits its loss exponents over truncations max(8, N/4) .. 2N,
    # which are pre-asymptotic at low N: over seeds 0-39 at samples 2 and 6,
    # n_modes 10 fails at 15 and 7 seeds, 12 at 2 and 2, 14 at 0 and 1; over
    # seeds 0-199 seed 185 fails at samples 2 from 14 to 17 (2->2 growth
    # exponent 0.60-0.61 against 0.5 +/- 0.1), and from 18 to 20 none fails
    "deform-op": {"n_modes": (18, None)},
    # continuation's right-hand side lives on modes |l| <= 6
    "continuation": {"n_modes": (6, None)},
    # nash-moser's rough preset was tuned at n_modes 96 and its higher norms
    # grow with N: from 208 up the smoothed rough run exhausts its steps or
    # diverges, and 207 passes (so do not all smaller values: up to 41, for one)
    "nash-moser": {"n_modes": (None, 207)},
    # conormal's slopes are pre-asymptotic on the lowest modes: l_min 1 to 3
    # fail with l_max 256, 4 to 6 on short ranges (6..10); from 7 every l_max
    # tried passes, each of 9 to 1024 and up to 200000
    "conormal": {"l_min": (7, None)},
    # each of decay's annuli loses e^{-2 r0} and annuli_decay fits only the
    # norms above 1e-14 of the first, so a second annulus is left only for
    # r0 < 7 ln 10 = 16.12; from 16.1 up the one-point fit raises ValueError.
    # The decaying branch's energy carries (1 + 1/(2 l r))^2 next to
    # e^{-2 l r}, so the rate exceeds 2 r0 by 46 % at r0 0.1, 1.9 % at 0.5 and
    # 1 % (DECAY_RATE_RTOL) at 0.656, whatever l is; from 0.75 to 16 it stays
    # within 0.71 % (swept in steps of 1/8)
    "decay": {"r0": (0.75, 16.0)},
    # bg-check's deviation exponent is pre-asymptotic at low l_min: over
    # l_min 1-16 and every l_max from 4 to 64 l_min (8,176 runs), l_min 1, 2,
    # 3 and 4 fail at 53, 121, 36 and 16 l_max (4 at 16 to 31), and the worst
    # exponents at l_min 5 to 8 are -0.820, -0.861, -0.887 and -0.905 against
    # -0.8; 257 draws from l_min 5 to 2000 all pass
    "bg-check": {"l_min": (5, None)},
}
# modes checks mode l on r in [1e-4, 1] r_max / (3 |l|), where e^{-|l| r} does
# not depend on l. On l 1, 1..32, 1..2000 and 10^5..10^5+4 its residuals grow
# like 1.2-1.75e-14 l_max / r_max below r_max 1 and 1.2-1.7e-14 l_max / sqrt(r_max)
# above it, so r_max must reach MODES_ROUNDOFF l_max / tol and its square; at r_max
# 1e5 and 1e6 they bottom out at 1.1-1.9e-16 l_max, so tol must reach
# MODES_TOL_FLOOR l_max (the square is then below 5700). From r_max 7.1e6 the squared
# residuals underflow; below 1.3e-16 every one is 0 and the log plot crashed (exit 3)
MODES_ROUNDOFF = 3e-14
MODES_TOL_FLOOR = 4e-16
MIN_MODES_R_MAX = 1e-15
MAX_MODES_R_MAX = 1e6
# obstruction's radial grid (r_min, r_max], r_min = OBSTRUCTION_R_MIN r_max /
# l_max, misses e^{-2 l r_max} of mode l's norm beyond r_max and about
# 2 l r_min inside r_min; each recovered mode is held to tol, and Psi_2's
# self-pairing to SELF_PAIRING_TOL. The tail is counted 1.1 times: the
# trapezoid's end correction adds (2 l r_max ds)^2 / 12 of it, under 2 %
# wherever a run is admitted. That puts a floor on r_max (5.8 at l_min 1 and
# tol 1e-5; 2.33 from the self-pairing whatever the tol) and a cap (5000 at
# tol 1e-5): r_max 5 and 10000 failed their recovery check, 2 the self-pairing
OBSTRUCTION_R_MIN = 1e-9
SELF_PAIRING_TOL = 1e-4


def doubling_probes(l_min, l_max):
    """The probe modes l_min 2^j up to l_max of bg-check and decay."""
    probes = [l_min]
    while probes[-1] * 2 <= l_max:
        probes.append(probes[-1] * 2)
    return probes


def obstruction_grid_loss(l, l_max, r_max):
    """Share of mode l's norm that obstruction's radial grid misses, with
    the margin above for the trapezoid's end correction."""
    return 1.1 * math.exp(-2.0 * l * r_max) + 2.0 * l * OBSTRUCTION_R_MIN * r_max / l_max


def dense_array_bound(cfg):
    """(key, bytes): the config key that sizes the largest dense arrays an
    experiment builds, and their bytes at cfg's values.

    Each count bounds the run's traced peak (tracemalloc) from the sizes
    where these arrays dominate:

    deform-op: thirteen 8-byte arrays the size of the band of the loss
    profile's T at band 2N, 31 rows by 2(4N+1) columns: its assembly holds
    nine at once, and traced, the whole run peaks at 74 bytes per band entry
    from N = 128 up, 81 at N = 64 and at most 90 down to N = 18, where fixed
    costs of 0.1 MiB weigh more; T with its Gram while its truncations are
    normed, and the Fredholm diagnostics with a Lanczos basis of at most 128
    vectors 2(2N+1) long, peak below it, at 39 to 50 bytes per entry;
    nash-moser: one complex band array of the toy Jacobian, 3N+1 rows by
    2N+1 columns at the widest band b = N, which zgbsv factors in place, and
    1 MiB for what does not grow with it: numpy's ufunc buffers while the
    band is written (0.4 MiB) and the series of the iteration; traced, the
    run exceeds the band array by 0.52 MiB at N = 250 and 0.57 MiB at 600;
    continuation: thirteen 8-byte arrays the size of the band of T that
    holds the bordered system, 39 rows (band 4 data) by 2(2N+1) columns;
    traced, the run peaks at 9.4 band arrays from N = 64 up and at most 12.7
    at N = 6, the smallest n_modes whose family builds;
    obstruction: four complex (nt, 1200) slabs at nt = 2 l_max + 3, the t
    grid of the synthesized field, five 8-byte (nt, L) arrays, L = 2 (l_max -
    l_min + 1) modes, and 1 MiB: the field's build holds both components, a
    real part and two profile arrays; the projection the field, its complex
    (nt, L) pairing, the complex DFT rows and their index; traced, the run
    peaks at 0.56 to 0.81 of the count from l_max 1 to 897;
    gram: seven 8-byte L x L matrices, L = l_max - l_min + 1, one more than
    the six and a boolean mask the run holds at once, and 1 MiB that does
    not grow with them: the run peaks inside gram_matrix, which holds the
    real s = |j| + |k| and radial overlap, the complex g_{j-k}, the complex
    product that becomes A and the boolean identity; traced, the run peaks
    at 49.1 to 49.5 bytes per entry from L = 600 to 1200. Below
    L = 128 numpy does not reuse the temporaries of that product in place,
    and the run peaks at 0.74 MB for L = 96, under the 1 MiB; run_gram's
    envelopes (32 bytes per entry) and gram_tail_trend (0.15) sit below;
    decay: five 8-byte (rows, 40) arrays, rows = samples + min(100, samples)
    comparison-principle instances of 40 entries, and 1 MiB: the one
    discrete_max_principle call holds the instances, their barriers, their
    difference, its interior defects and the stack of all hypotheses at
    once; traced, the run peaks at 4.95 to 4.96 arrays from samples 5000 to
    100000 and 5.11 at 1000, where fixed costs weigh more;
    bg-check: 22 complex arrays of the displacement's 2 (l_max + 4) + 1
    coefficients, one more than the 21 the run reaches, and 1 MiB: the
    products of leading_variation's separable algebra hold the peak;
    traced, the run peaks at 21.1 to 21.4 arrays from l_max 20000 to
    131072, 26.4 at 3000 and at most 0.43 MB up to l_max 100.
    """
    n, nt, big_l = cfg.n_modes, 2 * cfg.l_max + 3, cfg.l_max - cfg.l_min + 1
    return {
        "deform-op": ("n_modes", 13 * 8 * 31 * 2 * (4 * n + 1)),
        "nash-moser": ("n_modes", 16 * (3 * n + 1) * (2 * n + 1) + 2**20),
        "continuation": ("n_modes", 13 * 8 * 39 * 2 * (2 * n + 1)),
        "obstruction": ("l_max", 4 * 16 * 1200 * nt + 5 * 8 * nt * 2 * big_l + 2**20),
        "gram": ("l_max", 7 * 8 * big_l**2 + 2**20),
        "decay": ("samples", 5 * 8 * 40 * (cfg.samples + min(100, cfg.samples)) + 2**20),
        "bg-check": ("l_max", 22 * 16 * (2 * (cfg.l_max + 4) + 1) + 2**20),
    }.get(cfg.experiment, ("n_modes", 0))


# key -> annotation string ("int", "float" or "str"); the experiment name
# comes from the command, never from a config file
_KEY_TYPES = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "experiment"}
_FLOAT_KEYS = {k for k, t in _KEY_TYPES.items() if t == "float"}

COMMAND_DEFAULTS = {
    "modes": dict(l_max=32, r_max=26.0, tol=1e-8),
    "obstruction": dict(l_max=24, tol=1e-5),
    "conormal": dict(l_min=8, l_max=256, tol=0.05),
    "gram": dict(l_min=1, l_max=96, tol=2.0),
    "deform-op": dict(n_modes=128, samples=6, tol=0.1),
    "bg-check": dict(l_min=8, l_max=128, tol=0.2),
    "decay": dict(l_min=4, l_max=64, samples=200, tol=0.2),
    "nash-moser": dict(n_modes=96, tol=1e-8),
    "continuation": dict(n_modes=24, tol=1e-6),
}


def _parse_value(key, raw, line_no):
    try:
        return {"int": int, "float": float, "str": str}[_KEY_TYPES[key]](raw)
    except ValueError:
        raise ConfigError(
            f"line {line_no}: invalid value {raw!r} for key {key!r}"
        ) from None


def parse_config_text(text, experiment=""):
    """Parse flat key=value lines into a validated ExperimentConfig.

    Empty lines and #-comments are skipped; unknown keys fail with a
    suggestion from the known-key list and the offending line number.
    """
    overrides = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {line_no}: {_unknown_key(key)}")
        overrides[key] = _parse_value(key, raw, line_no)
    return build_config(experiment, overrides)


def _unknown_key(key):
    near = difflib.get_close_matches(key, sorted(_KEY_TYPES), n=3)
    hint = f" (did you mean: {', '.join(near)}?)" if near else ""
    return f"unknown key {key!r}{hint}"


def build_config(experiment, overrides=None):
    overrides = overrides or {}
    for key in overrides:
        if key not in _KEY_TYPES:
            raise ConfigError(_unknown_key(key))
    base = dict(COMMAND_DEFAULTS.get(experiment, {}), **overrides)
    return ExperimentConfig(experiment=experiment, **base).validate()


def load_config(path, experiment=""):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, experiment)


def with_overrides(config, **kwargs):
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return replace(config, **kwargs).validate() if kwargs else config
