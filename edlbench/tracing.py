"""Per-layer tracing of one benchmark pass, from outside the `edl` package.

`install` wraps the public functions of each module where they are looked
up: every `edl` module namespace that holds a reference to a function gets
the wrapper, because runners bind names at import (`experiments.py` does
`from .dirac import dirac_apply`, `bgvar.py` imports `l2_pairing`), so
patching only the defining module would miss those calls. Methods are
wrapped on their class, and the experiment runners in the
`edl.experiments.EXPERIMENTS` table through which the CLI finds them.

A span is (id, name, start, end, parent id). Spans and counters are kept in
memory and written out once, when the pass ends.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 1

    def span(self, name, fn, on_return=None):
        """Wrap fn to record a span named `name` (None: no span) and, after a
        normal return, call on_return(counts, args, kwargs, result)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                sid = self._next_id
                self._next_id += 1
                parent = self._stack[-1] if self._stack else 0
                self._stack.append(sid)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.spans.append((sid, name, start, end, parent))
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self):
        """(outermost time, self time, calls) per span name.

        Outermost time counts a span only when no ancestor has the same name,
        so nested or recursive calls are not counted twice. Self time is a
        span's duration minus the durations of its direct children.
        """
        by_id = {sid: (name, parent) for sid, name, _, _, parent in self.spans}
        child_time = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            child_time[parent] += end - start
        total, self_time, calls = Counter(), Counter(), Counter()
        for sid, name, start, end, parent in self.spans:
            calls[name] += 1
            self_time[name] += (end - start) - child_time[sid]
            ancestor = parent
            while ancestor and by_id[ancestor][0] != name:
                ancestor = by_id[ancestor][1]
            if not ancestor:
                total[name] += end - start
        return total, self_time, calls

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent"],
                "spans": self.spans,
                "counts": dict(self.counts),
            }, handle)


# -- what is counted at each boundary ----------------------------------------------------


def _grid_points(counts, args, kwargs, result):
    counts["dirac.grid_points"] += args[0].r.size


def _field_bytes(counts, args, kwargs, result):
    field = args[0]
    arrays = (field.plus, field.minus, field.plus_dr, field.minus_dr)
    counts["dirac.field_bytes"] += sum(a.nbytes for a in arrays if a is not None)


def _tensor_bytes(counts, args, kwargs, result):
    arrays = [result.g_tx, result.g_ty, result.g_xx, result.g_xy, result.g_yy]
    arrays += list(result.dtr.values()) + list(result.div.values())
    counts["bgvar.tensor_bytes"] += sum(a.nbytes for a in arrays)


def _realize_columns(counts, args, kwargs, result):
    counts["deform.realize_columns"] += result.matrix.shape[1]


def _svd_flops(counts, args, kwargs, result):
    # values-only SVD by Golub-Kahan bidiagonalization: 4 m n^2 - (4/3) n^3
    # for an m x n matrix, m >= n; (8/3) n^3 when square. Computed, not measured.
    m, n = args[0].matrix.shape
    m, n = max(m, n), min(m, n)
    counts["deform.svd_flops"] += 4 * m * n * n - (4 * n**3) // 3


def _newton_steps(counts, args, kwargs, result):
    counts["newton.steps"] += len(result[1].steps)


def _continuation_evals(counts, args, kwargs, result):
    counts["newton.continuation_evals"] += result.evaluations


def _artifact_bytes(counts, args, kwargs, result):
    counts["cli.artifact_bytes"] += sum(
        entry.stat().st_size for entry in os.scandir(result) if entry.is_file()
    )


# (module, attribute, span name, on_return) for module-level functions
FUNCTIONS = (
    ("edl.dirac", "dirac_apply", "dirac.apply", None),
    ("edl.dirac", "covariant_gradient", "dirac.gradient", None),
    ("edl.dirac", "l2_pairing", "dirac.pairing", None),
    ("edl.dirac", "field_from_mode", "dirac.field_build", None),
    ("edl.dirac", "euclidean_obstruction_field", "dirac.field_build", None),
    ("edl.bgvar", "leading_term_field", "dirac.field_build", None),
    ("edl.bgvar", "bg_apply", "bgvar.apply", None),
    ("edl.obstruction", "project_to_obstruction", "obstruction.project", None),
    ("edl.obstruction", "conormal_rate", "obstruction.conormal", None),
    ("edl.obstruction", "gram_matrix", "obstruction.gram", None),
    ("edl.obstruction", "gram_tail_trend", "obstruction.gram", None),
    ("edl.obstruction", "solve_mode_bvp", "obstruction.bvp", None),
    ("edl.obstruction", "discrete_max_principle", "obstruction.max_principle", None),
    ("edl.obstruction", "sample_max_principle_instance", "obstruction.max_principle", None),
    ("edl.deform", "fredholm_diagnostics", "deform.fredholm", None),
    ("edl.newton", "plain_newton_solve", "newton.solve", _newton_steps),
    ("edl.newton", "nash_moser_solve", "newton.solve", _newton_steps),
    ("edl.newton", "eigenvalue_continuation", None, _continuation_evals),
    ("edl.cli", "write_artifacts", "cli.artifacts", _artifact_bytes),
    ("edl.config", "build_config", "config.resolve", None),
    ("edl.config", "load_config", "config.resolve", None),
    ("edl.config", "with_overrides", "config.resolve", None),
)

# (module, class, attribute, span name, on_return) for methods
METHODS = (
    ("edl.dirac", "RadialGrid", "__post_init__", "dirac.grid_build", _grid_points),
    ("edl.dirac", "SpinorField", "__post_init__", None, _field_bytes),
    ("edl.bgvar", "MetricVariation", "from_displacement", "bgvar.variation", _tensor_bytes),
    ("edl.deform", "RealizedOperator", "realize", "deform.realize", _realize_columns),
    ("edl.deform", "RealizedOperator", "singular_values", "deform.svd", _svd_flops),
    ("edl.deform", "RealizedOperator", "operator_norm", "deform.svd", _svd_flops),
    ("edl.deform", "ExtendedSystem", "from_data", "deform.extended_build", None),
    ("edl.newton", "ToyProblem", "solve_linearized", "newton.linear_solve", None),
)

# (module, class or None, attribute, counter key): counted, not timed
COUNTERS = (
    ("edl.dirac", "RadialGrid", "derivative", "dirac.derivative_calls"),
    ("edl.series", "FourierSeries1D", "__post_init__", "series.objects"),
    ("edl.series", None, "multiply", "series.multiply_calls"),
)


def _edl_modules():
    return [m for n, m in sys.modules.items() if n == "edl" or n.startswith("edl.")]


def _rebind(original, wrapper):
    for module in _edl_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_method(cls, attr, make):
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(tracer):
    """Wrap every traced boundary of an imported `edl` package with `tracer`."""
    mods = sys.modules
    for module, attr, name, on_return in FUNCTIONS:
        original = getattr(mods[module], attr)
        _rebind(original, tracer.span(name, original, on_return))
    for module, cls, attr, name, on_return in METHODS:
        _wrap_method(getattr(mods[module], cls), attr,
                     lambda fn, name=name, cb=on_return: tracer.span(name, fn, cb))
    for module, cls, attr, key in COUNTERS:
        if cls is None:
            original = getattr(mods[module], attr)
            _rebind(original, tracer.counter(key, original))
        else:
            _wrap_method(getattr(mods[module], cls), attr,
                         lambda fn, key=key: tracer.counter(key, fn))
    table = mods["edl.experiments"].EXPERIMENTS
    for command, runner in list(table.items()):
        table[command] = tracer.span(experiment_span(command), runner)


def experiment_span(command):
    return "experiments." + command.replace("-", "_")


EXPERIMENT_COMMANDS = (
    "modes", "bg-check", "deform-op", "nash-moser", "continuation",
    "obstruction", "conormal", "gram", "decay",
)

# (metric, unit, how it is read off the tracer). "total" is outermost span
# time, "self" is span time minus child spans, "calls" counts spans, and
# "count" reads a counter.
PER_LAYER = (
    ("dirac.grid_build_s", "s", "total", "dirac.grid_build"),
    ("dirac.grid_builds", "count", "calls", "dirac.grid_build"),
    ("dirac.grid_points", "count", "count", "dirac.grid_points"),
    ("dirac.derivative_calls", "count", "count", "dirac.derivative_calls"),
    ("dirac.field_build_s", "s", "total", "dirac.field_build"),
    ("dirac.apply_s", "s", "total", "dirac.apply"),
    ("dirac.apply_calls", "count", "calls", "dirac.apply"),
    ("dirac.gradient_s", "s", "total", "dirac.gradient"),
    ("dirac.pairing_s", "s", "total", "dirac.pairing"),
    ("dirac.field_bytes", "bytes", "count", "dirac.field_bytes"),
    ("bgvar.variation_s", "s", "total", "bgvar.variation"),
    ("bgvar.apply_s", "s", "self", "bgvar.apply"),
    ("bgvar.tensor_bytes", "bytes", "count", "bgvar.tensor_bytes"),
    ("obstruction.project_s", "s", "total", "obstruction.project"),
    ("obstruction.conormal_s", "s", "total", "obstruction.conormal"),
    ("obstruction.gram_s", "s", "total", "obstruction.gram"),
    ("obstruction.bvp_s", "s", "total", "obstruction.bvp"),
    ("obstruction.bvp_calls", "count", "calls", "obstruction.bvp"),
    ("obstruction.max_principle_s", "s", "total", "obstruction.max_principle"),
    ("deform.realize_s", "s", "total", "deform.realize"),
    ("deform.realize_calls", "count", "calls", "deform.realize"),
    ("deform.realize_columns", "count", "count", "deform.realize_columns"),
    ("deform.fredholm_s", "s", "total", "deform.fredholm"),
    ("deform.extended_build_s", "s", "total", "deform.extended_build"),
    ("deform.extended_builds", "count", "calls", "deform.extended_build"),
    ("deform.svd_s", "s", "total", "deform.svd"),
    ("deform.svd_calls", "count", "calls", "deform.svd"),
    ("deform.svd_flops", "flop", "count", "deform.svd_flops"),
    ("series.objects", "count", "count", "series.objects"),
    ("series.multiply_calls", "count", "count", "series.multiply_calls"),
    ("newton.solve_s", "s", "total", "newton.solve"),
    ("newton.steps", "count", "count", "newton.steps"),
    ("newton.linear_solve_s", "s", "total", "newton.linear_solve"),
    ("newton.continuation_evals", "count", "count", "newton.continuation_evals"),
) + tuple(
    (experiment_span(c) + "_s", "s", "total", experiment_span(c))
    for c in EXPERIMENT_COMMANDS
) + (
    ("cli.artifacts_s", "s", "total", "cli.artifacts"),
    ("cli.artifact_bytes", "bytes", "count", "cli.artifact_bytes"),
    ("config.resolve_s", "s", "total", "config.resolve"),
    ("trace.wall_s", "s", "wall", None),
)


def layer_metrics(tracer, wall_s):
    """Every per-layer metric of one traced pass; 0 where a layer did not run."""
    total, self_time, calls = tracer.totals()
    sources = {"total": total, "self": self_time, "calls": calls, "count": tracer.counts}
    out = {}
    for metric, _, kind, key in PER_LAYER:
        out[metric] = wall_s if kind == "wall" else sources[kind][key]
    return out
