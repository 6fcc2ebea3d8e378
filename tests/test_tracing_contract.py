"""The per-layer tracer of the benchmark names `edl` functions, methods and
commands by string; a rename in `src/edl` breaks a traced run with a
KeyError. These checks read the tracer's tables without installing it
(`install` rebinds functions for the whole process)."""

import importlib
import importlib.util
import os
from collections import Counter

import pytest

from edl.deform import RealizedOperator, realize_l
from edl.dirac import LeadingData
from edl.experiments import EXPERIMENTS, continuation_family
from edl.newton import ToyProblem, eigenvalue_continuation, plain_newton_solve, smooth_f_preset
from edl.series import hilbert_transform

TRACING_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "edlbench", "tracing.py"
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("edlbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    names = [(module, attr) for module, attr, _, _ in tracing.FUNCTIONS]
    names += [(module, attr) for module, cls, attr, _ in tracing.COUNTERS if cls is None]
    for module, attr in names:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_traced_methods_are_defined_on_their_class(tracing):
    methods = [row[:3] for row in tracing.METHODS]
    methods += [row[:3] for row in tracing.COUNTERS if row[1] is not None]
    for module, cls, attr in methods:
        assert attr in vars(getattr(importlib.import_module(module), cls)), (cls, attr)


def test_traced_commands_are_the_experiments(tracing):
    assert sorted(tracing.EXPERIMENT_COMMANDS) == sorted(EXPERIMENTS)


def test_traced_operators_expose_their_matrix_shape(tracing):
    # the realize and operator_norm hooks read .matrix.shape, which a banded
    # operator expands on first use
    assembled = realize_l(LeadingData.constant(1.0, 0.5), 3, 5)
    probed = RealizedOperator.realize(hilbert_transform, 4, 2)
    assert assembled.matrix.shape == (22, 14)
    assert probed.matrix.shape == (10, 18)
    counts = Counter()
    tracing._realize_columns(counts, (), {}, probed)
    assert counts["deform.realize_columns"] == 18
    tracing._svd_flops(counts, (assembled,), {}, None)
    assert counts["deform.svd_flops"] == 4 * 22 * 14**2 - (4 * 14**3) // 3


def test_traced_solver_results_expose_what_the_hooks_count(tracing):
    # the newton hooks read the solvers' result fields: a renamed field would
    # break only a traced run, which these tests otherwise never reach
    counts = Counter()
    solved = plain_newton_solve(ToyProblem(n_modes=8), smooth_f_preset(n_modes=8))
    tracing._newton_steps(counts, (), {}, solved)
    assert counts["newton.steps"] == len(solved[1].steps) > 0
    data_family, g = continuation_family(12)
    result = eigenvalue_continuation(data_family, g, 12, -0.2, 0.3)
    tracing._continuation_evals(counts, (), {}, result)
    assert counts["newton.continuation_evals"] == result.evaluations > 0
