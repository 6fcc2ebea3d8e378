"""Config parsing, artifact schema, determinism, and exit-code contract."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from edl.cli import _COMMAND_HELP, main, make_parser, write_artifacts
from edl.config import (
    COMMAND_DEFAULTS,
    MATRIX_BYTE_BUDGET,
    LIMITS,
    ConfigError,
    ExperimentConfig,
    build_config,
    dense_array_bound,
    load_config,
    parse_config_text,
    with_overrides,
)
from edl.bgvar import PAIRING_RADIAL_POINTS, bg_pairing_comparison
from edl.experiments import (
    EXPERIMENTS,
    MODE_BLOCK_ROWS,
    PAPER_ANCHORS,
    bg_probe_design,
    run_experiment,
)
from edl.report import line_plot_svg


# -- config parsing ---------------------------------------------------------------------


def test_empty_config_gives_defaults():
    cfg = parse_config_text("", experiment="conormal")
    assert cfg.l_min == 8
    assert cfg.l_max == 256
    assert cfg.tol == 0.05
    assert cfg.seed == ExperimentConfig().seed


def test_overrides_and_comments():
    text = "# probe band\nl_max = 64\n\nseed=7\n"
    cfg = parse_config_text(text, experiment="conormal")
    assert cfg.l_max == 64
    assert cfg.seed == 7


def test_unknown_key_suggests_and_names_line():
    with pytest.raises(ConfigError, match=r"line 2.*n_mdoes.*n_modes"):
        parse_config_text("seed = 1\nn_mdoes = 12\n")


def test_build_config_rejects_unknown_override():
    # a misspelt key used to be dropped, leaving l_max at its default of 32
    with pytest.raises(ConfigError, match=r"l_mx.*l_max"):
        build_config("modes", {"l_mx": 3})


def test_config_keys_are_the_dataclass_fields():
    text = "".join(f"{f.name} = {getattr(ExperimentConfig(), f.name)}\n"
                   for f in fields(ExperimentConfig) if f.name != "experiment")
    assert parse_config_text(text) == ExperimentConfig()
    with pytest.raises(ConfigError, match="unknown key 'experiment'"):
        parse_config_text("experiment = modes")


_OVERRIDE_VALUES = {
    "n_modes": st.integers(1, 256),
    "l_min": st.integers(1, 64),
    "l_max": st.integers(1, 160),
    "r0": st.floats(1e-6, 1e6),
    "r_max": st.floats(1e-6, 1e6),
    "tol": st.floats(1e-15, 10.0),
    "samples": st.integers(1, 1000),
    "seed": st.integers(0, 2**63 - 1),
    "out_dir": st.text("abcxyz019_-./", min_size=1, max_size=12),
}


def _render(value):
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(COMMAND_DEFAULTS)), st.data())
def test_config_text_round_trips(command, data):
    keys = data.draw(st.lists(st.sampled_from(sorted(_OVERRIDE_VALUES)), unique=True))
    overrides = {k: data.draw(_OVERRIDE_VALUES[k], label=k) for k in keys}
    want = ExperimentConfig(experiment=command, **dict(COMMAND_DEFAULTS[command], **overrides))
    try:
        want.validate()
    except ConfigError:
        assume(False)  # e.g. l_max drawn below the default l_min
    text = "".join(f"{k} = {_render(v)}\n" for k, v in overrides.items())
    assert parse_config_text(text, experiment=command) == want


def test_negative_band_rejected():
    with pytest.raises(ConfigError, match="n_modes"):
        parse_config_text("n_modes = -4")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match=r"line 1.*invalid value"):
        parse_config_text("tol = very-small")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("just a line")


def test_inconsistent_range_rejected():
    with pytest.raises(ConfigError, match="l_max"):
        parse_config_text("l_min = 10\nl_max = 5\n")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/edl.cfg")


def test_exit_two_on_unreadable_config(tmp_path, capsys):
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(b"out_dir = caf\xe9\n")
    for path in (tmp_path, undecodable):  # a directory, then a file that is not UTF-8
        rc = main(["modes", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("edl: config error: cannot read config file") and err.count("\n") == 1


def test_with_overrides_keeps_none():
    cfg = build_config("gram")
    same = with_overrides(cfg, out_dir=None, seed=None)
    assert same == cfg
    bumped = with_overrides(cfg, seed=99)
    assert bumped.seed == 99 and bumped.l_max == cfg.l_max


class _ReadRecorder:
    """Forwards attribute reads to a config and records their names."""

    def __init__(self, cfg, seen):
        self._cfg, self._seen = cfg, seen

    def __getattr__(self, name):
        self._seen.add(name)
        return getattr(self._cfg, name)


def test_every_config_field_is_read_by_some_runner():
    # a key no runner reads is validated and documented but changes nothing;
    # the cli reads out_dir, and experiment names the runner
    seen = set()
    for command, runner in EXPERIMENTS.items():
        runner(_ReadRecorder(build_config(command), seen))
    unread = {f.name for f in fields(ExperimentConfig)} - seen
    assert unread - {"experiment", "out_dir"} == set()


# -- artifact schema ----------------------------------------------------------------------


def test_summary_schema_and_anchor(tmp_path):
    cfg = with_overrides(build_config("continuation"), out_dir=str(tmp_path))
    outcome = run_experiment(cfg)
    folder = write_artifacts(outcome, cfg.out_dir)
    with open(os.path.join(folder, "summary.json")) as handle:
        summary = json.load(handle)
    for key in ("experiment", "paper_anchor", "pass", "metrics"):
        assert key in summary
    assert summary["experiment"] == "continuation"
    assert summary["paper_anchor"] == PAPER_ANCHORS["continuation"]
    assert summary["pass"] is True
    assert isinstance(summary["metrics"], dict)
    with open(os.path.join(folder, "results.csv")) as handle:
        lines = handle.read().strip().splitlines()
    assert lines[0] == "s,lambda"
    assert len(lines) == len(outcome.rows) + 1


def test_every_command_has_an_anchor():
    assert set(PAPER_ANCHORS) == set(EXPERIMENTS)
    assert all(anchor for anchor in PAPER_ANCHORS.values())


def test_artifacts_byte_identical_across_runs(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    rc1 = main(["gram", "--out", out1, "--seed", "5"])
    rc2 = main(["gram", "--out", out2, "--seed", "5"])
    assert rc1 == rc2 == 0
    for name in ("results.csv", "summary.json", "plot.svg"):
        with open(os.path.join(out1, "gram", name), "rb") as h1:
            with open(os.path.join(out2, "gram", name), "rb") as h2:
                assert h1.read() == h2.read(), name


def test_gram_summary_independent_of_blas_threads(tmp_path):
    # the gram entries are closed-form and elementwise, so only the LAPACK
    # norms see the thread count; the summary must not
    code = "import sys\nfrom edl.cli import main\nprint(main(['gram', '--out', sys.argv[1]]))\n"
    summaries = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert _last_line_of_python(code, out, OPENBLAS_NUM_THREADS=threads,
                                    OMP_NUM_THREADS=threads) == "0"
        summaries.append((out / "gram" / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]


# -- exit codes ---------------------------------------------------------------------------


def test_exit_zero_on_pass(tmp_path, capsys):
    rc = main(["conormal", "--out", str(tmp_path)])
    assert rc == 0
    assert "conormal: pass" in capsys.readouterr().out
    # bg-check's reach: the -3/4 fit over probes l = 8..1024
    cfgfile = tmp_path / "reach.cfg"
    cfgfile.write_text("l_max = 1024\n")
    rc = main(["bg-check", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
    assert "bg-check: pass" in capsys.readouterr().out


def test_exit_one_with_failure_list(tmp_path, capsys):
    cfgfile = tmp_path / "strict.cfg"
    cfgfile.write_text("tol = 1e-15\n")
    rc = main(["conormal", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 1
    out = capsys.readouterr().out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["failures"]
    with open(tmp_path / "o" / "conormal" / "summary.json") as handle:
        assert json.load(handle)["pass"] is False


def test_no_assert_option_is_a_usage_error(tmp_path, capsys):
    # exit 1 always means a failed check: no option turns it into 0
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--no-assert", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: edl") and "unrecognized arguments: --no-assert" in err
    assert not (tmp_path / "gram").exists()


def test_do_assert_key_is_unknown(tmp_path, capsys):
    cfgfile = tmp_path / "lenient.cfg"
    cfgfile.write_text("do_assert = false\n")
    rc = main(["gram", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown key 'do_assert'" in capsys.readouterr().err
    assert not (tmp_path / "gram").exists()


@pytest.mark.parametrize("line", ["eps0 = 4.0", "theta = 2", "max_steps = 10"])
def test_nash_moser_schedule_keys_are_unknown(tmp_path, capsys, line):
    # the smoothing schedule 1.25^{-k} and the step budgets are constants of
    # edl.newton, so a config that sets them is an error, not a run
    cfgfile = tmp_path / "schedule.cfg"
    cfgfile.write_text(line + "\n")
    rc = main(["nash-moser", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    assert f"unknown key '{line.split()[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "nash-moser").exists()


def test_reused_parser_carries_no_arguments_between_calls(tmp_path, monkeypatch):
    # main builds its parser once per process: a second call with another
    # command and no options must resolve that command's defaults alone
    import edl.cli

    resolved = []
    real = edl.cli._resolve_config
    monkeypatch.setattr(edl.cli, "_resolve_config",
                        lambda args: resolved.append(real(args)) or resolved[-1])
    cfgfile = tmp_path / "short.cfg"
    cfgfile.write_text("l_min = 8\nl_max = 10\ntol = 0.5\n")
    assert main(["conormal", "--config", str(cfgfile), "--seed", "5",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["gram", "--out", str(tmp_path / "b")]) == 0
    assert main(["conormal", "--out", str(tmp_path / "c")]) == 0
    assert edl.cli.make_parser() is edl.cli.make_parser()
    first, second, third = resolved
    assert (first.experiment, first.l_max, first.seed) == ("conormal", 10, 5)
    assert second == with_overrides(build_config("gram"), out_dir=str(tmp_path / "b"))
    assert third == with_overrides(build_config("conormal"), out_dir=str(tmp_path / "c"))


@pytest.mark.parametrize("line", ["n_modes=-4", "r_max=nan", "tol=inf", "p=1.5", "seed=-1"])
def test_exit_two_on_config_error(tmp_path, capsys, line):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    rc = main(["modes", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_two_on_negative_seed(tmp_path, capsys):
    # random.Random seeds an int by its absolute value, so -1 would silently
    # replay seed 1's suite: it must stop at the config
    rc = main(["decay", "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "decay").exists()


def test_n_modes_bounded_by_matrix_budget(tmp_path, capsys):
    # only validated, never run: deform-op's loss profile holds thirteen
    # 8-byte arrays the size of the 31-row window of T at band 2N, whose
    # 2(4N+1) columns grow linearly; nash-moser holds one complex band of
    # its Jacobian, 3N+1 rows by 2N+1 columns, and 1 MiB that does not grow
    largest = max(n for n in range(1, 2**15)
                  if 13 * 8 * 31 * 2 * (4 * n + 1) <= MATRIX_BYTE_BUDGET)
    assert largest == 10407
    assert build_config("deform-op", {"n_modes": largest}).n_modes == largest
    with pytest.raises(ConfigError, match="n_modes.*MiB"):
        build_config("deform-op", {"n_modes": largest + 1})
    newton_cap = max(n for n in range(1, 4096)
                     if 16 * (3 * n + 1) * (2 * n + 1) + 2**20 <= MATRIX_BYTE_BUDGET)
    assert newton_cap == 1668
    # nash-moser's run cap (test_nash_moser_n_modes_cap) lies below its budget
    assert LIMITS["nash-moser"]["n_modes"] == (None, 207) and 207 < newton_cap
    with pytest.raises(ConfigError, match="n_modes"):
        with_overrides(build_config("nash-moser"), n_modes=10**6)
    with pytest.raises(ConfigError, match="n_modes"):
        with_overrides(build_config("continuation"), n_modes=10**6)
    # a band that sizes no dense matrix is not bounded by it
    assert build_config("gram", {"n_modes": 10**6}).n_modes == 10**6
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text(f"n_modes = {largest + 1}\n")
    rc = main(["deform-op", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "deform-op").exists()


def test_n_modes_floor_of_the_circle_commands(tmp_path, capsys):
    # only validated, never run: deform-op below n_modes 18 fits its loss
    # exponents over pre-asymptotic truncations and fails at some of seeds
    # 0-199 (at n_modes 10 at 15 of them with samples 2, at 15 to 17 at seed
    # 185; at n_modes 1 the fit crashes), and continuation's right-hand side
    # has modes up to |l| = 6
    for command, least in (("deform-op", 18), ("continuation", 6)):
        for n in range(1, least):
            with pytest.raises(ConfigError, match=f"at least {least} for {command}"):
                build_config(command, {"n_modes": n})
        assert build_config(command, {"n_modes": least}).n_modes == least
    assert build_config("nash-moser", {"n_modes": 1}).n_modes == 1
    cfgfile = tmp_path / "small.cfg"
    cfgfile.write_text("n_modes = 17\n")
    rc = main(["deform-op", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    assert "at least 18" in capsys.readouterr().err
    assert not (tmp_path / "deform-op").exists()


def test_nash_moser_n_modes_cap(tmp_path, capsys):
    # only validated, never run: from n_modes 208 up the smoothed iteration on
    # the rough preset exhausts its step budget or diverges; 207 passes
    assert build_config("nash-moser", {"n_modes": 207}).n_modes == 207
    with pytest.raises(ConfigError, match="at most 207 for nash-moser"):
        build_config("nash-moser", {"n_modes": 208})
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text("n_modes = 208\n")
    rc = main(["nash-moser", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("edl: config error: n_modes must be at most 207") and err.count("\n") == 1
    assert not (tmp_path / "nash-moser").exists()


def test_nash_moser_tol_above_the_rough_residual(tmp_path, capsys):
    # tol 100 lies above the rough preset's first residual (30.45 at the
    # default n_modes): both rough runs stop before a step, so plain Newton
    # cannot diverge; the run fails its check instead of crashing on an
    # empty plot
    cfgfile = tmp_path / "loose.cfg"
    cfgfile.write_text("tol = 100\n")
    rc = main(["nash-moser", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[-1])
    assert payload == {"failures": ["plain iteration on rough data: converged, want diverged"]}
    folder = tmp_path / "nash-moser"
    assert (folder / "results.csv").exists() and (folder / "summary.json").exists()
    assert not (folder / "plot.svg").exists()


def test_l_range_bounded_by_array_budget(tmp_path, capsys):
    # only validated, never run. obstruction holds four complex nt x 1200
    # slabs, nt = 2 l_max + 3, the synthesized field at one theta sample and
    # the profile arrays, five 8-byte nt x 2 l_max arrays, the projection's
    # pairing and DFT rows, and 1 MiB; gram seven 8-byte L x L matrices and
    # 1 MiB; bg-check 22 complex arrays of the displacement's 2 (l_max + 4) + 1
    # coefficients and 1 MiB
    top = max(l for l in range(1, 4096)
              if 4 * 16 * 1200 * (2 * l + 3) + 5 * 8 * (2 * l + 3) * 2 * l + 2**20
              <= MATRIX_BYTE_BUDGET)
    assert top == 897
    assert build_config("obstruction", {"l_max": top}).l_max == top
    with pytest.raises(ConfigError, match="l_max.*MiB.*budget"):
        build_config("obstruction", {"l_max": top + 1})
    span = max(n for n in range(1, 8192)
               if 7 * 8 * n * n + 2**20 <= MATRIX_BYTE_BUDGET)
    assert span == 2185
    assert build_config("gram", {"l_min": 1, "l_max": span}).l_max == span
    assert build_config("gram", {"l_min": 500, "l_max": 499 + span}).l_max == 499 + span
    with pytest.raises(ConfigError, match="l_max.*MiB.*budget"):
        build_config("gram", {"l_min": 500, "l_max": 500 + span})
    reach = max(l for l in range(1, 2**19)
                if 22 * 16 * (2 * (l + 4) + 1) + 2**20 <= MATRIX_BYTE_BUDGET)
    assert reach == 379806
    assert build_config("bg-check", {"l_max": reach}).l_max == reach
    with pytest.raises(ConfigError, match="l_max.*MiB.*budget"):
        build_config("bg-check", {"l_max": reach + 1})
    # every default is accepted, and l ranges that size no dense array are free
    for command in COMMAND_DEFAULTS:
        assert build_config(command).experiment == command
    assert build_config("conormal", {"l_max": 10**6}).l_max == 10**6
    for command, line in (("obstruction", f"l_max = {top + 1}"),
                          ("gram", f"l_max = {span + 1}"),
                          ("bg-check", f"l_max = {reach + 1}")):
        cfgfile = tmp_path / f"{command}.cfg"
        cfgfile.write_text(line + "\n")
        rc = main([command, "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 2
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_decay_samples_bounded_by_array_budget(tmp_path, capsys):
    # only validated, never run: decay checks samples + min(100, samples)
    # instances of 40 entries in one batch, five 8-byte arrays of them at
    # once, and 1 MiB
    most = max(n for n in range(1, 2**18)
               if 5 * 8 * 40 * (n + min(100, n)) + 2**20 <= MATRIX_BYTE_BUDGET)
    assert most == 167016
    assert build_config("decay", {"samples": most}).samples == most
    with pytest.raises(ConfigError, match="samples.*MiB.*budget"):
        build_config("decay", {"samples": most + 1})
    cfgfile = tmp_path / "many.cfg"
    cfgfile.write_text("samples = 10000000\n")
    assert main(["decay", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "decay").exists()


def test_gram_range_floor(tmp_path, capsys):
    # on one or two modes the last tail cutoff leaves no coupled pair, its
    # tail norm is 0 and the log-scale plot of the trend cannot be drawn
    for l_min, l_max in ((5, 5), (1, 2)):
        with pytest.raises(ConfigError, match="at least 3 modes"):
            build_config("gram", {"l_min": l_min, "l_max": l_max})
        cfgfile = tmp_path / "short.cfg"
        cfgfile.write_text(f"l_min = {l_min}\nl_max = {l_max}\n")
        rc = main(["gram", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 2
        assert "at least 3 modes" in capsys.readouterr().err
        assert not (tmp_path / "gram").exists()
    cfgfile.write_text("l_min = 1\nl_max = 3\n")
    assert main(["gram", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "gram" / "plot.svg").exists()


def test_conormal_range_floor(tmp_path, capsys):
    # two probe modes leave the rate fit flagged invalid at every p
    cfgfile = tmp_path / "short.cfg"
    cfgfile.write_text("l_min = 8\nl_max = 9\n")
    rc = main(["conormal", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    assert "conormal needs at least 3 modes" in capsys.readouterr().err
    assert not (tmp_path / "conormal").exists()
    cfgfile.write_text("l_min = 8\nl_max = 10\n")
    assert main(["conormal", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0


def test_conormal_l_min_floor(tmp_path, capsys):
    # the lowest modes' slopes are pre-asymptotic: l 1..256 to 3..256 and
    # short ranges from l_min 4 to 6 (6..10) exited 1 with slope failures
    for l_min in range(1, 7):
        with pytest.raises(ConfigError, match="l_min must be at least 7 for conormal"):
            build_config("conormal", {"l_min": l_min})
    cfgfile = tmp_path / "low.cfg"
    cfgfile.write_text("l_min = 6\nl_max = 10\n")
    rc = main(["conormal", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("edl: config error: l_min must be at least 7") and err.count("\n") == 1
    assert not (tmp_path / "conormal").exists()
    cfgfile.write_text("l_min = 7\nl_max = 9\n")
    assert main(["conormal", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    # the floor is conormal's alone
    assert build_config("gram", {"l_min": 1}).l_min == 1


def test_bg_check_probe_floors(tmp_path, capsys):
    # the probes are l_min 2^j up to l_max: two of them (8..16 to 8..31) left
    # the deviation exponent undefined, and below l_min 5 it is pre-asymptotic
    # (-0.747 at l 4..16 against [-1.2, -0.8]); both exited 1
    cfgfile = tmp_path / "short.cfg"
    for text, message in (
        ("l_min = 8\nl_max = 31\n", "bg-check needs three probes, l_max at least 4 l_min = 32"),
        ("l_min = 4\nl_max = 16\n", "l_min must be at least 5 for bg-check, got 4"),
    ):
        cfgfile.write_text(text)
        rc = main(["bg-check", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"edl: config error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "bg-check").exists()
    for text in ("l_min = 8\nl_max = 32\n", "l_min = 5\nl_max = 20\n"):
        cfgfile.write_text(text)
        assert main(["bg-check", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0


def test_obstruction_r_max_floor_and_cap(tmp_path, capsys):
    # at the default tol 1e-5 the grid loses e^{-2 r_max} of mode 1 and
    # 2e-9 r_max of mode l_max: r_max 5 and 10000 failed their recovery
    # check with exit 1, r_max 2 also the self-pairing of Psi_2 whatever the tol
    cfgfile = tmp_path / "r.cfg"
    for r_max, tol, mode in ((2, 1e-5, 1), (5, 1e-5, 1), (10000, 1e-5, 24), (2, 0.5, 2)):
        cfgfile.write_text(f"r_max = {r_max}\ntol = {tol}\n")
        rc = main(["obstruction", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"edl: config error: r_max = {float(r_max)} loses")
        assert f"of mode {mode}'s norm" in err and err.count("\n") == 1
        assert not (tmp_path / "obstruction").exists()
    for r_max in (6, 3000):
        cfgfile.write_text(f"r_max = {r_max}\n")
        assert main(["obstruction", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    # the floor and cap are obstruction's alone
    assert build_config("modes", {"r_max": 2.0}).r_max == 2.0


def test_decay_r0_cap(tmp_path, capsys):
    # above r0 = 16 one annulus clears annuli_decay's 1e-14 mask and the
    # one-point rate fit crashed in the SVD with exit 3
    cfgfile = tmp_path / "far.cfg"
    cfgfile.write_text("r0 = 17\n")
    rc = main(["decay", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("edl: config error: r0 must be at most 16") and err.count("\n") == 1
    assert not (tmp_path / "decay").exists()
    cfgfile.write_text("r0 = 16\nsamples = 5\n")
    assert main(["decay", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0


def test_decay_r0_floor(tmp_path, capsys):
    # decay holds its mean rate to 2 r0 within 1 %, which fails below r0 =
    # 0.656 whatever l is (1.9 % at 0.5); the floor is 0.75 (0.71 %)
    cfgfile = tmp_path / "near.cfg"
    for r0 in (1e-70, 0.5, 0.74):
        cfgfile.write_text(f"r0 = {r0}\n")
        rc = main(["decay", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("edl: config error: r0 must be at least 0.75 for decay")
        assert err.count("\n") == 1
        assert not (tmp_path / "decay").exists()
    cfgfile.write_text("r0 = 0.75\nsamples = 5\n")
    assert main(["decay", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    # the floor does not move with l; below it the rate check itself fails
    with pytest.raises(ConfigError, match="at least 0.75 for decay"):
        build_config("decay", {"r0": 0.74, "l_min": 1, "l_max": 1})
    below = replace(build_config("decay", {"samples": 5}), r0=0.5)
    assert run_experiment(below).failures == [
        "mean rate 1.0190 is not 2 r0 = 1 within 0.01"
    ]


def test_modes_r_max_range(tmp_path, capsys):
    # the residuals grow like 1.2-1.5e-14 l_max / r_max: the floor is
    # 3e-14 l_max / tol, 9.6e-05 at the defaults l_max 32 and tol 1e-8. From
    # r_max 7.1e6 up the squared residuals underflowed, and below 1.3e-16
    # every residual was exactly 0: the log plot crashed with exit 3
    cfgfile = tmp_path / "r.cfg"
    cases = [(f"r_max = {r_max}\n", "9.6e-05") for r_max in (1e-100, 1e-15, 9e-05, 1.1e6, 1e8)]
    cases.append(("r_max = 9e-16\nl_max = 1\ntol = 100\n", "1e-15"))
    for text, least in cases:
        cfgfile.write_text(text)
        rc = main(["modes", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"edl: config error: r_max must lie in [{least}, 1e+06] for modes")
        assert not (tmp_path / "modes").exists()
    # the ends are admitted and pass: at 1e-4 the largest residual is 4e-9
    for text in ("r_max = 1e-4\n", "r_max = 1e6\n", "r_max = 1e-15\nl_max = 1\ntol = 100\n"):
        cfgfile.write_text(text)
        assert main(["modes", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    with pytest.raises(ConfigError, match=r"\[3e-10, 1e\+06\] for modes at l_max 1000"):
        build_config("modes", {"r_max": 1e-10, "l_max": 1000, "tol": 1e-1})
    # the residuals bottom out at 1.1-1.9e-16 l_max whatever r_max: tol 1e-15
    # at l 1..32 (4.64e-15 at r_max 1e5) and 1e-11 at l 10^5..10^5+4 (1.16e-11)
    # exited 1, and tol 1e-16 at those l named the empty interval [3e+07, 1e+06]
    for text, floor in (("tol = 1e-15\n", "1.28e-14"),
                        ("l_min = 100000\nl_max = 100004\ntol = 1e-11\nr_max = 1e5\n", "4e-11"),
                        ("l_min = 100000\nl_max = 100004\ntol = 1e-16\n", "4e-11")):
        cfgfile.write_text(text)
        assert main(["modes", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"edl: config error: tol must be at least 4e-16 l_max = {floor} for modes")
    # from r_max 1 up they fall like 1.2-1.7e-14 l_max / sqrt(r_max): at tol
    # 1e-13 and r_max 10 the residual 1.13e-13 exited 1, and the floor is
    # (3e-14 * 32 / 1e-13)^2 = 92.2, where the run passes
    with pytest.raises(ConfigError, match=r"\[92\.2, 1e\+06\] for modes at l_max 32"):
        build_config("modes", {"r_max": 10.0, "tol": 1e-13})
    cfgfile.write_text("tol = 1e-13\nr_max = 92.2\n")
    assert main(["modes", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0


ADMITTED_DRAWS = {
    "l_min": st.integers(1, 64),
    "l_max": st.integers(1, 64),
    "n_modes": st.integers(1, 48),
    "seed": st.integers(0, 2**32 - 1),
    "samples": st.integers(1, 300),
    "r0": st.integers(1, 128).map(lambda eighths: eighths / 8.0),
    # 0.1 to 10000 in steps of 10^{1/10}: both ends of obstruction's r_max range
    "r_max": st.integers(-10, 40).map(lambda tenths: float(f"{10 ** (tenths / 10):.3g}")),
}
# deform-op draws both of its sizes every time: its defaults, n_modes 128 and
# samples 6 (each sample a full set of diagnostics), cost more than the bound
ALWAYS_DRAWN = {"deform-op": {"n_modes": st.integers(1, 48), "samples": st.integers(1, 2)}}


# nash-moser is left out: 57 of its 207 admitted n_modes exit 1 (ROADMAP item 3)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["modes", "obstruction", "conormal", "gram", "decay",
                        "deform-op", "continuation", "bg-check"]), st.data())
def test_admitted_configs_pass(tmp_path_factory, command, data):
    # what the validator admits runs and passes (exit 0), and what it rejects
    # exits 2, never 1 or 3, over the sizing keys the commands read, at
    # bounded cost (l up to 64, n_modes up to 48, up to 300 samples, 2 for
    # deform-op, r0 up to 16), and r_max; tol stays at its default: it sets
    # the accuracy a run is held to
    always = ALWAYS_DRAWN.get(command, {})
    draws = dict(ADMITTED_DRAWS, **always)
    keys = data.draw(st.lists(st.sampled_from(sorted(draws.keys() - always)), unique=True))
    overrides = {k: data.draw(draws[k], label=k) for k in keys + sorted(always)}
    folder = tmp_path_factory.mktemp(command)
    cfgfile = folder / "drawn.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in overrides.items()))
    try:
        build_config(command, overrides)
        admitted = True
    except ConfigError:
        admitted = False
    rc = main([command, "--config", str(cfgfile), "--out", str(folder / "out")])
    assert rc == (0 if admitted else 2), (command, overrides)


@pytest.mark.parametrize("command, keys", [
    ("obstruction", {"l_max": 100}),
    ("gram", {"l_min": 1, "l_max": 600}),
    ("nash-moser", {"n_modes": 207}),
    ("deform-op", {"n_modes": 256, "samples": 1}),
    ("continuation", {"n_modes": 512}),
    ("decay", {"samples": 20000}),
    ("bg-check", {"l_max": 20000}),
])
def test_every_array_budget_bounds_its_run(command, keys):
    # at these sizes the arrays the budget counts dominate the run; a first
    # small run imports and caches outside the trace
    run_experiment(build_config(command))
    cfg = build_config(command, keys)
    assert traced_peak(run_experiment, cfg) <= dense_array_bound(cfg)[1]


def traced_peak(fn, *args):
    """Traced peak bytes of fn(*args), after one untraced call has imported
    and cached what it needs."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_modes_peak_does_not_grow_with_l_max():
    # modes has no array budget: it checks MODE_BLOCK_ROWS modes at a time,
    # so from l_max 32 to 2048 (4096 modes) its peak grows by the rows it
    # returns, less than a run of exactly one block
    def peak(l_max):
        return traced_peak(run_experiment, build_config("modes", {"l_max": l_max}))

    assert peak(2048) - peak(32) < peak(MODE_BLOCK_ROWS // 2)


def test_bg_check_probes_share_one_algebra_at_little_memory_each():
    # the probes share one run of the separable algebra, whose products are
    # multiplied out only when a coefficient is read: each probe adds a few
    # complex rows of the pairing's radii to the peak, where multiplying
    # every product eagerly adds over a hundred
    data, eta = bg_probe_design(1024)
    probes = tuple(2**k for k in range(3, 11))
    one = traced_peak(lambda: bg_pairing_comparison(data, eta, l_values=probes[:1]))
    eight = traced_peak(lambda: bg_pairing_comparison(data, eta, l_values=probes))
    assert eight - one < 7 * 16 * (16 * PAIRING_RADIAL_POINTS)


def _last_line_of_python(code, *args, **env_vars):
    """Run code in a fresh interpreter on this checkout's src, with env_vars
    added to its environment; its last line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env_vars)
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_stops_at_numpy_and_the_lapack_wrappers():
    # the CLI needs only three compiled scipy extensions, the LAPACK/BLAS
    # wrappers and Brent's root finder, loaded by edl.lapack from their
    # files: the scipy, scipy.linalg and scipy.optimize packages, and the
    # numpy.f2py, numpy.testing and numpy.ma their initialisers clone numpy's
    # namespace with, cost every run about 0.2 s and must not come back, nor
    # any other scipy subpackage (scipy.integrate, ...); and the seeded
    # suites draw from random.Random, so numpy.random and the OpenSSL that
    # it loads through secrets and hashlib (about 6 MiB) stay out too
    code = (
        "import json, sys\n"
        "import edl.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "    or m.split('.')[:2] in (['numpy', 'f2py'], ['numpy', 'testing'], ['numpy', 'ma'])\n"
        "    or m.split('.')[:2] == ['numpy', 'random']\n"
        "    or m in ('secrets', 'hashlib', '_hashlib'))))\n"
    )
    assert json.loads(_last_line_of_python(code)) == [
        "scipy.linalg._fblas", "scipy.linalg._flapack", "scipy.optimize._zeros"]


SMALL_CONFIGS = {
    "modes": "l_max = 3",
    "obstruction": "l_max = 8",
    "conormal": "l_max = 64",
    "gram": "l_max = 32",
    "deform-op": "n_modes = 18\nsamples = 2",
    "bg-check": "l_min = 8\nl_max = 32",
    "decay": "l_min = 4\nl_max = 16\nsamples = 10",
    "nash-moser": "n_modes = 48",
    "continuation": "n_modes = 12",
}


def test_no_command_imports_beyond_the_cli(tmp_path):
    # every command runs inside the timed window; an import it triggers
    # itself would be paid there on every pass
    assert set(SMALL_CONFIGS) == set(EXPERIMENTS)
    args = []
    for command, text in SMALL_CONFIGS.items():
        cfgfile = tmp_path / f"{command}.cfg"
        cfgfile.write_text(text + "\n")
        args += [command, cfgfile]
    code = (
        "import json, sys\n"
        "from edl.cli import main\n"
        "loaded = set(sys.modules)\n"
        "out, pairs = sys.argv[1], sys.argv[2:]\n"
        "report = {}\n"
        "for command, cfg in zip(pairs[::2], pairs[1::2]):\n"
        "    rc = main([command, '--config', cfg, '--out', out])\n"
        "    report[command] = [rc, sorted(set(sys.modules) - loaded)]\n"
        "print(json.dumps(report))\n"
    )
    report = json.loads(_last_line_of_python(code, tmp_path / "out", *args))
    assert report == {command: [0, []] for command in SMALL_CONFIGS}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summary_is_strict_json_when_exponent_is_undefined(tmp_path):
    # one mode doubling (l = 8, 16) leaves the deviation exponent undefined;
    # the validator rejects that range, so the config goes unvalidated
    outcome = run_experiment(ExperimentConfig(experiment="bg-check", l_min=8, l_max=16))
    folder = write_artifacts(outcome, str(tmp_path / "o"))
    with open(os.path.join(folder, "summary.json")) as handle:
        summary = json.loads(handle.read(), parse_constant=_reject_constant)
    assert summary["metrics"]["deviation_exponent"] is None
    assert summary["pass"] is False


def test_exit_three_on_runner_crash(tmp_path, capsys, monkeypatch):
    def crash(cfg):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(EXPERIMENTS, "conormal", crash)
    folder = tmp_path / "conormal"
    folder.mkdir()
    for stale in ("results.csv", "plot.svg"):
        (folder / stale).write_text("from an earlier run\n")
    rc = main(["conormal", "--out", str(tmp_path)])
    assert rc == 3
    assert "LinAlgError" in capsys.readouterr().err
    assert sorted(os.listdir(folder)) == ["summary.json"]
    with open(tmp_path / "conormal" / "summary.json") as handle:
        summary = json.loads(handle.read(), parse_constant=_reject_constant)
    assert summary["pass"] is False
    assert summary["error"] == "LinAlgError: Singular matrix"
    assert summary["experiment"] == "conormal"
    assert summary["paper_anchor"] == PAPER_ANCHORS["conormal"]
    assert summary["failures"] == [summary["error"]]


def test_exit_three_when_artifacts_cannot_be_written(tmp_path, capsys, monkeypatch):
    def broken_plot(path, **plot):
        raise OSError("disk full")

    monkeypatch.setattr("edl.cli.write_line_plot", broken_plot)
    rc = main(["conormal", "--out", str(tmp_path)])
    assert rc == 3
    assert "OSError: disk full" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path / "conormal")) == ["summary.json"]
    with open(tmp_path / "conormal" / "summary.json") as handle:
        summary = json.loads(handle.read(), parse_constant=_reject_constant)
    assert summary["pass"] is False
    assert summary["error"] == "OSError: disk full"


def test_exit_three_when_the_artifact_folder_cannot_be_made(tmp_path, capsys):
    # --out names a regular file: neither the artifacts nor the crash
    # summary can be written, and the run still ends in one line and exit 3
    out = tmp_path / "f"
    out.write_text("")
    rc = main(["conormal", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("edl:") == 1 and "Traceback" not in err
    assert "NotADirectoryError" in err and "no summary.json written" in err
    assert out.read_text() == ""


def test_exit_two_on_unknown_command():
    for argv in (["not-an-experiment"], []):  # an unknown command, then none
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name in EXPERIMENTS:
        assert any(line.split() == [name, *_COMMAND_HELP[name].split()] for line in lines), name


def test_options_may_precede_the_command(tmp_path):
    argv = ["--seed", "5", "gram", "--out", str(tmp_path)]
    args = make_parser().parse_args(argv)
    assert (args.command, args.seed, args.out, args.config) == ("gram", 5, str(tmp_path), None)
    assert main(argv) == 0
    assert json.loads((tmp_path / "gram" / "summary.json").read_text())["pass"] is True


# -- svg writer ---------------------------------------------------------------------------


def test_svg_structure():
    svg = line_plot_svg(
        [("a", [1.0, 2.0, 4.0], [1.0, 0.1, 0.01])],
        "demo", "x", "y", logx=True, logy=True,
    )
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "polyline" in svg
    assert "demo" in svg


def test_svg_rejects_bad_input():
    with pytest.raises(ValueError, match="nothing"):
        line_plot_svg([], "t", "x", "y")
    with pytest.raises(ValueError, match="matching"):
        line_plot_svg([("a", [1.0], [1.0, 2.0])], "t", "x", "y")
    with pytest.raises(ValueError, match="positive"):
        line_plot_svg([("a", [0.0, 1.0], [1.0, 2.0])], "t", "x", "y", logx=True)


def test_svg_no_external_references(tmp_path):
    rc = main(["continuation", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "continuation" / "plot.svg") as handle:
        svg = handle.read()
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
