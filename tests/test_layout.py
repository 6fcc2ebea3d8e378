"""What `src/edl` carries beyond the CLI, and how it reaches scipy's LAPACK.

The walk starts at every top-level statement of `cli.py` and follows the
names that each reached definition mentions, through the package's
`from .module import name` lines. A reached class brings its class body and
its dunder methods; any other method counts as reached once reached code
names it as an attribute, `x.method`. The attribute name is all the walk
reads, not the object's class, so a method that shares its name with one
that is reached errs toward "reached"; an attribute of an imported module
(`np.linalg.norm`, `math.exp`) names no method, so it does not count.
A top-level function or class, or a method of a reached class, that the walk
never reaches runs only under the tests, so it needs an entry in LEDGER that
says which check keeps it."""

import ast
import math
import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "edl")

LEDGER = {
    "bgvar.MetricVariation": "dense reference for bg-check",
    "bgvar.Separable.sample": "dense reference for bg-check: MetricVariation's samples",
    "bgvar.bg_apply": "dense reference for bg-check",
    "bgvar.bg_apply_terms": "dense reference for bg-check",
    "bgvar.leading_term_field": "dense reference for bg-check",
    "deform.RealizedOperator.from_matrix": "probing oracle of the closed-form assemblies",
    "deform.RealizedOperator.matrix": "probing oracle of the closed-form assemblies",
    "deform.RealizedOperator.realize": "probing oracle of the closed-form assemblies",
    "deform.RealizedOperator.singular_values": "reference for the Fredholm diagnostics",
    "deform.commutator_with_sign_multiplier": "[H, a] gains a derivative, uniformly in N",
    "deform.l_star": "reference: the real L2 adjoint of L",
    "dirac.ModeSpinor.decay_rate": "criterion 4",
    "dirac.SpinorField.norm": "criterion 1 and the dense field tests",
    "dirac.SpinorField.radial_derivative": "criterion 1: the dense operator's radial derivative",
    "dirac.SpinorField.theta_points": "criterion 1 and the dense bg-check reference",
    "dirac.adjointness_check": "adjointness of the model operator",
    "dirac.covariant_gradient": "reference for the live frame_gradient",
    "dirac.dirac_apply": "criterion 1",
    "dirac.dirac_apply_via_clifford": "reference for the live clifford_action",
    "dirac.euclidean_obstruction_field": "dense reference field of criterion 1 and the field tests",
    "dirac.fft_mode_derivative": "criterion 1: the spectral derivatives of dirac_apply",
    "dirac.field_from_mode": "dense reference fields of criterion 1 and the field tests",
    "dirac.growth_rate": "criterion 2",
    "dirac.l2_pairing": "dense pairing of the field tests and the bg-check reference",
    "dirac.mu_perturbed_mode": "criterion 4",
    "newton.ToyProblem.derivative_apply": "probed, the oracle of the banded Newton solve",
    "newton._random_decaying_series": "tame-estimate claim",
    "newton.tame_estimate_sweep": "tame-estimate claim",
    "series.FourierSeries1D.parseval_defect": "Parseval's identity on the series grid",
    "series.dyadic_pointwise_bound": "dyadic pointwise bound in the b-norm",
    "series.interpolation_ratio": "criterion 8",
    "series.verify_smoothing_axioms": "criterion 8",
}


def attribute_root(node):
    """The expression at the bottom of a chain of attribute accesses."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def mentions(nodes, modules):
    """(names, attribute names) that the AST nodes mention, without the
    attributes of a chain rooted at one of the module names `modules`."""
    walked = [n for node in nodes for n in ast.walk(node)]
    return ({n.id for n in walked if isinstance(n, ast.Name)},
            {n.attr for n in walked if isinstance(n, ast.Attribute)
             and getattr(attribute_root(n), "id", None) not in modules})


def read_module(path):
    """(top-level definitions, what each binding mentions, what statements
    that bind nothing mention, relative imports, methods by class).

    A binding is a top-level name, or "Class.method" for a method that is
    not a dunder; a class's own binding is its body without those methods."""
    defs, uses, loose, imports, methods = set(), {}, (set(), set()), {}, {}
    with open(path) as fh:
        tree = ast.parse(fh.read())
    modules = {(alias.asname or alias.name).split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                imports[alias.asname or alias.name] = (stmt.module, alias.name)
            continue
        parts = [stmt]
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add(stmt.name)
            bound = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            bound = []
        if isinstance(stmt, ast.ClassDef):
            own = [f for f in stmt.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and not (f.name.startswith("__") and f.name.endswith("__"))]
            methods[stmt.name] = [f.name for f in own]
            for f in own:
                uses[f"{stmt.name}.{f.name}"] = mentions([f], modules)
            parts = stmt.bases + stmt.decorator_list + [f for f in stmt.body if f not in own]
        names, attrs = mentions(parts, modules)
        for name in bound:
            uses.setdefault(name, (set(), set()))
            uses[name][0].update(names)
            uses[name][1].update(attrs)
        if not bound:
            loose[0].update(names)
            loose[1].update(attrs)
    return defs, uses, loose, imports, methods


def test_code_only_tests_reach_is_in_the_ledger():
    modules = {
        f[:-3]: read_module(os.path.join(SRC, f)) for f in os.listdir(SRC) if f.endswith(".py")
    }

    def resolve(module, name):
        _, uses, _, imports, _ = modules[module]
        if name in uses:
            return module, name
        if name in imports and imports[name][0] in modules:
            return resolve(*imports[name])
        return None

    _, cli_uses, (cli_names, named), _, _ = modules["cli"]
    named = set(named)  # attribute names that reached code mentions
    todo = [resolve("cli", name) for name in set(cli_uses) | cli_names]
    reached = set()
    while todo:
        while todo:
            node = todo.pop()
            if node is None or node in reached:
                continue
            reached.add(node)
            module, name = node
            names, attrs = modules[module][1][name]
            named |= attrs
            todo += [resolve(module, used) for used in names]
        todo = [(module, f"{cls}.{method}")
                for module, cls in reached
                for method in modules[module][4].get(cls, ())
                if method in named and (module, f"{cls}.{method}") not in reached]
    unreached = {
        f"{module}.{name}"
        for module, (defs, _, _, _, methods) in modules.items()
        for name in defs | {f"{c}.{m}" for c in methods if (module, c) in reached
                            for m in methods[c]}
        if (module, name) not in reached
    }
    assert unreached == set(LEDGER)


def source_trees():
    """(module, AST) for every module of the package, in name order."""
    for f in sorted(os.listdir(SRC)):
        if f.endswith(".py"):
            with open(os.path.join(SRC, f)) as fh:
                yield f[:-3], ast.parse(fh.read())


def test_no_class_is_only_a_record():
    # a result a caller only unpacks is a SimpleNamespace: a class of bare
    # annotated fields costs every CLI start its dataclass code generation
    records = []
    for module, tree in source_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if body and all(isinstance(stmt, ast.AnnAssign) for stmt in body):
                records.append(f"{module}.{node.name}")
    assert records == []


def test_the_circle_length_is_not_a_knob():
    # the singular circle has length 2 pi: a homothety of the flat S^1 x R^2
    # multiplies the operator by a constant, so a length that a parameter,
    # field, property or attribute carries changes no result
    named = []
    for module, tree in source_trees():
        for node in ast.walk(tree):
            name = (
                getattr(node, "arg", None)  # parameters and keyword arguments
                or getattr(node, "attr", None)
                or getattr(getattr(node, "target", None), "id", None)  # class fields
                or (node.name if isinstance(node, ast.FunctionDef) else None)
            )
            if name == "circumference":
                named.append(f"{module}:{getattr(node, 'lineno', '?')}")
    assert named == []


def defaulted_parameters(tree):
    """(function, parameter, position) for every parameter with a default of
    a function or method in tree; keyword-only ones have position None, and a
    method's positions skip self. An __init__ is named after its class."""
    found = []
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            skip = isinstance(owner, ast.ClassDef) and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            name = owner.name if skip and node.name == "__init__" else node.name
            first = len(positional) - len(a.defaults)
            found += [(name, arg.arg, i - skip)
                      for i, arg in enumerate(positional) if i >= first]
            found += [(name, arg.arg, None)
                      for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def passed_parameters(tree):
    """{callee name: [(positional count, keyword names)]} for the calls in
    tree, a callee named by its last attribute or by the name it was
    imported as; *args makes the count infinite and **kwargs the keywords
    None, for all."""
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = {k.arg for k in node.keywords}
        calls.setdefault(aliases.get(name, name), []).append(
            (math.inf if starred else len(node.args), None if None in keywords else keywords))
    return calls


def test_every_default_is_passed_by_some_call():
    # a parameter that no call in the package or its tests passes only ever
    # takes its default: a constant that signatures, docs and checks still
    # carry. Calls match by callee name alone, so a call of any x.f counts
    # for every f, which errs toward "passed", as the LEDGER walk does
    tests = os.path.dirname(os.path.abspath(__file__))
    calls = {}
    for folder in (SRC, tests):
        for f in sorted(os.listdir(folder)):
            if f.endswith(".py"):
                with open(os.path.join(folder, f)) as fh:
                    for name, found in passed_parameters(ast.parse(fh.read())).items():
                        calls.setdefault(name, []).extend(found)
    never = [
        f"{module}.{function}({parameter})"
        for module, tree in source_trees()
        for function, parameter, position in defaulted_parameters(tree)
        if not any((position is not None and count > position)
                   or keywords is None or parameter in keywords
                   for count, keywords in calls.get(function, ()))
    ]
    assert never == []


def test_no_module_names_numpy_random():
    # seeded draws come from the standard library's random.Random, which
    # tempfile loads anyway: numpy.random costs every CLI process about
    # 6 MiB, most of it the OpenSSL its bit generators import via secrets
    named = []
    for module, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[:2] == ["numpy", "random"]
                          for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                hit = node.module.split(".")[:2] == ["numpy", "random"] or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names))
            elif isinstance(node, ast.Attribute):
                hit = node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
            else:
                hit = isinstance(node, ast.Constant) and isinstance(node.value, str) and bool(
                    re.fullmatch(r"numpy\.random(\.\w+)*", node.value))
            if hit:
                named.append(f"{module}:{node.lineno}")
    assert named == []


def _scipy_references(tree):
    """The imports of tree that name scipy, and its string constants that
    are a whole scipy module name (as import_module or find_spec take)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "scipy":
                found.append(node.module)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"scipy(\.\w+)*", node.value):
                found.append(node.value)
    return found


def test_only_the_lapack_modules_import_scipy():
    # lapack.py alone names scipy: it loads three compiled extensions, not
    # the scipy, scipy.linalg or scipy.optimize packages, whose initialisers
    # cost every run about 0.2 s; another scipy import is a new dependency of
    # the CLI and takes an edit here
    importers = {module for module, tree in source_trees() if _scipy_references(tree)}
    assert importers == {"lapack"}
    with open(os.path.join(SRC, "lapack.py")) as fh:
        tree = ast.parse(fh.read())
    assert set(_scipy_references(tree)) == {"scipy"}  # find_spec, to locate the extensions
    loaded = {
        tuple(arg.value for arg in node.args)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_load"
    }
    assert loaded == {("linalg", "_flapack"), ("linalg", "_fblas"), ("optimize", "_zeros")}


def test_the_circle_modules_import_only_the_lapack_routines_they_call():
    # the Fredholm diagnostics read two eigenvalues of each Gram, and the
    # Ritz vectors of those two only (dstemr by index), and gram's band
    # norms the two ends of a spectrum (dsbevx by index); a routine that
    # computes the whole spectrum (eig_banded, eigh) takes an edit here, in
    # lapack.py's exports and in the importers below
    want = {
        "bandeig": {"dpbtrf", "dsbevx", "dsbmv", "dstemr", "dstev", "dtbsv"},
        "deform": {"dgbsv", "dsytrf", "dsytrs"},
        "newton": {"brentq", "zgbsv"},
        "obstruction": {"dgtsv"},
    }
    imported = {}
    for module, tree in source_trees():
        names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "lapack"
            for alias in node.names
        }
        if names:
            imported[module] = names
    assert imported == want
    defs, uses, _, _, _ = read_module(os.path.join(SRC, "lapack.py"))
    exported = {name for name in set(uses) | defs if not name.startswith("_")}
    assert exported == {"brentq", "dgbsv", "dgtsv", "dpbtrf", "dsbevx", "dsbmv", "dstemr",
                        "dstev", "dsytrf", "dsytrs", "dtbsv", "zgbsv"}
