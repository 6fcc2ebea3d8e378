"""What `src/edl` carries beyond the CLI, and which of its modules load scipy.

The walk starts at every top-level statement of `cli.py` and follows the
names that each reached top-level definition mentions, through the package's
`from .module import name` lines. Methods count with their class. A top-level
function or class that the walk never reaches runs only under the tests, so
it needs an entry in LEDGER that says which check keeps it."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "edl")

LEDGER = {
    "bgvar.CutoffProfile": "dense reference for bg-check: the cut-off variation",
    "bgvar.MetricVariation": "dense reference for bg-check",
    "bgvar.VariationTerms": "dense reference for bg-check: the terms of bg_apply",
    "bgvar.bg_apply": "dense reference for bg-check",
    "bgvar.bg_apply_terms": "dense reference for bg-check",
    "bgvar.leading_term_field": "dense reference for bg-check",
    "deform.commutator_with_sign_multiplier": "[H, a] gains a derivative, uniformly in N",
    "deform.l_star": "reference: the real L2 adjoint of L",
    "dirac.AdjointnessReport": "adjointness of the model operator",
    "dirac._rk4_log_sweep": "criterion 2: the shooting integrator",
    "dirac.adjointness_check": "adjointness of the model operator",
    "dirac.covariant_gradient": "reference for the live frame_gradient",
    "dirac.dirac_apply": "criterion 1",
    "dirac.dirac_apply_via_clifford": "reference for the live clifford_action",
    "dirac.euclidean_obstruction_field": "dense reference field of criterion 1 and the field tests",
    "dirac.fft_mode_derivative": "criterion 1: the spectral derivatives of dirac_apply",
    "dirac.field_from_mode": "dense reference fields of criterion 1 and the field tests",
    "dirac.field_from_mode_spinor": "dense reference fields of criterion 1 and the field tests",
    "dirac.frobenius_start": "criterion 2: the seed of the regular branch",
    "dirac.growth_rate": "criterion 2",
    "dirac.mode_ode_matrix": "reference for the radial mode system",
    "dirac.mu_perturbed_mode": "criterion 4",
    "dirac.solve_mode_ode": "criterion 2",
    "dirac.twisted_clifford_apply": "reference for the live clifford_action",
    "newton.TameSweepReport": "tame-estimate claim",
    "newton._random_decaying_series": "tame-estimate claim",
    "newton.tame_estimate_sweep": "tame-estimate claim",
    "series.DyadicBoundReport": "dyadic pointwise bound in the b-norm",
    "series.SmoothingAxiomReport": "criterion 8",
    "series.SmoothingAxiomRow": "criterion 8",
    "series.cutoff_c2_second": "dense reference for bg-check: CutoffProfile's second derivative",
    "series.dyadic_pointwise_bound": "dyadic pointwise bound in the b-norm",
    "series.interpolation_ratio": "criterion 8",
    "series.verify_smoothing_axioms": "criterion 8",
}


def read_module(path):
    """(definitions, names each top-level binding mentions, names mentioned by
    statements that bind nothing, relative imports)."""
    defs, uses, loose, imports = set(), {}, set(), {}
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                imports[alias.asname or alias.name] = (stmt.module, alias.name)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add(stmt.name)
            bound = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            bound = []
        names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for name in bound:
            uses.setdefault(name, set()).update(names)
        if not bound:
            loose |= names
    return defs, uses, loose, imports


def test_code_only_tests_reach_is_in_the_ledger():
    modules = {
        f[:-3]: read_module(os.path.join(SRC, f)) for f in os.listdir(SRC) if f.endswith(".py")
    }

    def resolve(module, name):
        _, uses, _, imports = modules[module]
        if name in uses:
            return module, name
        if name in imports and imports[name][0] in modules:
            return resolve(*imports[name])
        return None

    _, cli_uses, cli_loose, _ = modules["cli"]
    todo = [resolve("cli", name) for name in set(cli_uses) | cli_loose]
    reached = set()
    while todo:
        node = todo.pop()
        if node is None or node in reached:
            continue
        reached.add(node)
        module, name = node
        todo += [resolve(module, used) for used in modules[module][1][name]]
    unreached = {
        f"{module}.{name}"
        for module, (defs, _, _, _) in modules.items()
        for name in defs
        if (module, name) not in reached
    }
    assert unreached == set(LEDGER)


def test_only_the_lapack_modules_import_scipy():
    # bandeig, deform, newton and obstruction call LAPACK routines numpy
    # lacks; any other scipy import is a new dependency of the CLI and takes
    # an edit here
    importers = set()
    for f in os.listdir(SRC):
        if not f.endswith(".py"):
            continue
        with open(os.path.join(SRC, f)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(f[:-3])
    assert importers == {"bandeig", "deform", "newton", "obstruction"}


def test_the_circle_modules_import_only_the_lapack_routines_they_call():
    # the Fredholm diagnostics read two eigenvalues of each Gram; a routine
    # that computes the whole spectrum (eig_banded, eigh) takes an edit here
    want = {
        "bandeig": {"dpbtrf", "dsbmv", "dstev"},
        "deform": {"dsytrf", "dsytrs", "solve_banded"},
        "newton": {"zgbsv"},
    }
    for module, names in want.items():
        with open(os.path.join(SRC, module + ".py")) as fh:
            tree = ast.parse(fh.read())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")
            for alias in node.names
        }
        assert not any(
            isinstance(node, ast.Import) and any(a.name.startswith("scipy") for a in node.names)
            for node in ast.walk(tree)
        ), module
        assert imported == names, module
