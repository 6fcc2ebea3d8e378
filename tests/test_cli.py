"""Config parsing, artifact schema, determinism, and exit-code contract."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from edl.cli import main, write_artifacts
from edl.config import (
    COMMAND_DEFAULTS,
    MATRIX_BYTE_BUDGET,
    ConfigError,
    ExperimentConfig,
    build_config,
    dense_array_bound,
    load_config,
    parse_config_text,
    with_overrides,
)
from edl.experiments import EXPERIMENTS, PAPER_ANCHORS, run_experiment
from edl.report import line_plot_svg


# -- config parsing ---------------------------------------------------------------------


def test_empty_config_gives_defaults():
    cfg = parse_config_text("", experiment="conormal")
    assert cfg.l_min == 8
    assert cfg.l_max == 256
    assert cfg.tol == 0.05
    assert cfg.seed == ExperimentConfig().seed


def test_overrides_and_comments():
    text = "# probe band\nl_max = 64\n\nseed=7\ndo_assert = false\n"
    cfg = parse_config_text(text, experiment="conormal")
    assert cfg.l_max == 64
    assert cfg.seed == 7
    assert cfg.do_assert is False


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
    "eps0": st.floats(1e-6, 1e6),
    "theta": st.floats(1.0, 8.0, exclude_min=True),
    "tol": st.floats(1e-15, 10.0),
    "max_steps": st.integers(1, 1000),
    "samples": st.integers(1, 1000),
    "seed": st.integers(0, 2**63 - 1),
    "out_dir": st.text("abcxyz019_-./", min_size=1, max_size=12),
    "do_assert": st.booleans(),
}


def _render(value):
    if isinstance(value, bool):
        return str(value).lower()
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
    # the cli reads out_dir and do_assert, and experiment names the runner
    seen = set()
    for command, runner in EXPERIMENTS.items():
        runner(_ReadRecorder(build_config(command), seen))
    unread = {f.name for f in fields(ExperimentConfig)} - seen
    assert unread - {"experiment", "out_dir", "do_assert"} == set()


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


def test_no_assert_downgrades_to_zero(tmp_path):
    cfgfile = tmp_path / "strict.cfg"
    cfgfile.write_text("tol = 1e-15\n")
    rc = main(["conormal", "--config", str(cfgfile), "--no-assert",
               "--out", str(tmp_path / "o")])
    assert rc == 0


@pytest.mark.parametrize("line", ["n_modes=-4", "r_max=nan", "tol=inf", "p=1.5"])
def test_exit_two_on_config_error(tmp_path, capsys, line):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    rc = main(["modes", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


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
    assert build_config("nash-moser", {"n_modes": newton_cap}).n_modes == newton_cap
    with pytest.raises(ConfigError, match="n_modes.*MiB"):
        build_config("nash-moser", {"n_modes": newton_cap + 1})
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
    # only validated, never run: deform-op below n_modes 10 fits its loss
    # exponents over pre-asymptotic truncations and fails at most seeds (at
    # n_modes 1 the fit crashes), and continuation's right-hand side has
    # modes up to |l| = 6
    for command, least in (("deform-op", 10), ("continuation", 6)):
        for n in range(1, least):
            with pytest.raises(ConfigError, match=f"at least {least} for {command}"):
                build_config(command, {"n_modes": n})
        assert build_config(command, {"n_modes": least}).n_modes == least
    assert build_config("nash-moser", {"n_modes": 1}).n_modes == 1
    cfgfile = tmp_path / "small.cfg"
    cfgfile.write_text("n_modes = 9\n")
    rc = main(["deform-op", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    assert "at least 10" in capsys.readouterr().err
    assert not (tmp_path / "deform-op").exists()


def test_l_range_bounded_by_array_budget(tmp_path, capsys):
    # only validated, never run. obstruction holds eight complex
    # (2 l_max + 3) x 1200 slabs: its synthesized field at one theta sample,
    # the field's t transforms and the projection's products; gram seven
    # 8-byte L x L matrices and 1 MiB
    top = max(l for l in range(1, 4096)
              if 8 * 16 * 1200 * (2 * l + 3) <= MATRIX_BYTE_BUDGET)
    assert top == 872
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
    # every default is accepted, and l ranges that size no dense array are free
    for command in COMMAND_DEFAULTS:
        assert build_config(command).experiment == command
    assert build_config("conormal", {"l_max": 10**6}).l_max == 10**6
    for command, line in (("obstruction", f"l_max = {top + 1}"),
                          ("gram", f"l_max = {span + 1}")):
        cfgfile = tmp_path / f"{command}.cfg"
        cfgfile.write_text(line + "\n")
        rc = main([command, "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 2
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


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


@pytest.mark.parametrize("command, keys", [
    ("obstruction", {"l_max": 100}),
    ("gram", {"l_min": 1, "l_max": 600}),
    ("nash-moser", {"n_modes": 250}),
    ("deform-op", {"n_modes": 256, "samples": 1}),
    ("continuation", {"n_modes": 512}),
])
def test_every_array_budget_bounds_its_run(command, keys):
    # at these sizes the arrays the budget counts dominate the run; a first
    # small run imports and caches outside the trace
    run_experiment(build_config(command))
    cfg = build_config(command, keys)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dense_array_bound(cfg)[1]


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
    # the CLI needs only scipy's two compiled LAPACK/BLAS wrappers, loaded by
    # edl.lapack from their files: the scipy and scipy.linalg packages, and
    # the numpy.f2py, numpy.testing and numpy.ma their initialisers clone
    # numpy's namespace with, cost every run about 0.2 s and must not come
    # back, nor any scipy subpackage (scipy.optimize, scipy.integrate, ...)
    code = (
        "import sys\n"
        "import edl.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "    or m.split('.')[:2] in (['numpy', 'f2py'], ['numpy', 'testing'], ['numpy', 'ma'])))\n"
    )
    assert _last_line_of_python(code) == "['scipy.linalg._fblas', 'scipy.linalg._flapack']"


SMALL_CONFIGS = {
    "modes": "l_max = 3",
    "obstruction": "l_max = 8",
    "conormal": "l_max = 64",
    "gram": "l_max = 32",
    "deform-op": "n_modes = 16\nsamples = 2",
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
        "    rc = main([command, '--no-assert', '--config', cfg, '--out', out])\n"
        "    report[command] = [rc, sorted(set(sys.modules) - loaded)]\n"
        "print(json.dumps(report))\n"
    )
    report = json.loads(_last_line_of_python(code, tmp_path / "out", *args))
    assert report == {command: [0, []] for command in SMALL_CONFIGS}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summary_is_strict_json_when_exponent_is_undefined(tmp_path):
    # one mode doubling (l = 8, 16) leaves the deviation exponent undefined
    cfgfile = tmp_path / "short.cfg"
    cfgfile.write_text("l_min = 8\nl_max = 16\n")
    rc = main(["bg-check", "--config", str(cfgfile), "--no-assert",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    with open(tmp_path / "o" / "bg-check" / "summary.json") as handle:
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
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment"])
    assert exc.value.code == 2


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
