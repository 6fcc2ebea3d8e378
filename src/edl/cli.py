"""Command-line driver: run one experiment family, write CSV/JSON/SVG artifacts.

Exit status: 0 when every configured assertion passes (or assertions are
disabled), 1 with a machine-readable failure list when an assertion fails,
2 on configuration or usage errors, 3 when the runner or the artifact
writer crashes (a singular matrix, a full disk): that leaves only a
`summary.json` with `pass: false` and `error: "<Type>: <message>"`, or
no file at all when the artifact folder itself cannot be made (`--out`
names a regular file); either way one `edl:` line on stderr says why.
"""

from __future__ import annotations

import argparse
import json
import locale  # argparse's gettext loads it when main builds the parser: load it here
import os
import sys

from .config import ConfigError, build_config, load_config, with_overrides
from .experiments import EXPERIMENTS, ExperimentOutcome, run_experiment
from .report import write_line_plot
from .util import atomic_write_json, write_csv

_COMMAND_HELP = {
    "modes": "residuals of the closed-form kernel family under the model operator",
    "obstruction": "projection onto the obstruction family recovers coefficients",
    "conormal": "pairing decay rates for conormal vanishing orders",
    "gram": "near-orthonormality envelopes of the weighted gram matrix",
    "deform-op": "index, kernel, and regularity-loss diagnostics",
    "bg-check": "metric-variation pairing against the multiplier prediction",
    "decay": "annuli decay rates and the discrete comparison principle",
    "nash-moser": "plain vs smoothed Newton on rough and smooth presets",
    "continuation": "bordered multiplier zero crossing along a data family",
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="edl",
        description="spectral experiments on the singular-circle model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=_COMMAND_HELP[name])
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat key=value settings file")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="artifact directory (default edl-out)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized suites")
        p.add_argument("--assert", dest="do_assert",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="enforce the experiment's acceptance assertions")
    return parser


def _resolve_config(args):
    if args.config is not None:
        cfg = load_config(args.config, experiment=args.command)
    else:
        cfg = build_config(args.command)
    return with_overrides(cfg, out_dir=args.out, seed=args.seed,
                          do_assert=args.do_assert)


def write_artifacts(outcome, out_dir):
    folder = os.path.join(out_dir, outcome.experiment)
    write_csv(os.path.join(folder, "results.csv"), outcome.header, outcome.rows)
    atomic_write_json(os.path.join(folder, "summary.json"), outcome.summary())
    if outcome.plot is not None:
        write_line_plot(os.path.join(folder, "plot.svg"), **outcome.plot)
    return folder


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"edl: config error: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = run_experiment(cfg)
        folder = write_artifacts(outcome, cfg.out_dir)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        summary = ExperimentOutcome(cfg.experiment, {}, [error], [], []).summary()
        summary["error"] = error
        folder = os.path.join(cfg.out_dir, cfg.experiment)
        try:
            for stale in ("results.csv", "plot.svg"):  # an earlier run's, or half-written
                if os.path.exists(os.path.join(folder, stale)):
                    os.remove(os.path.join(folder, stale))
            atomic_write_json(os.path.join(folder, "summary.json"), summary)
        except OSError as unwritable:  # the folder itself cannot be made
            error += f"; no summary.json written ({type(unwritable).__name__})"
        print(f"edl: {cfg.experiment} crashed: {error}", file=sys.stderr)
        return 3
    status = "pass" if outcome.passed else "FAIL"
    print(f"{cfg.experiment}: {status} ({len(outcome.rows)} rows -> {folder})")
    if not outcome.passed and cfg.do_assert:
        print(json.dumps({"failures": outcome.failures}, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
