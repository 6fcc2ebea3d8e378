"""The LAPACK and BLAS routines of the banded solvers, from scipy's two
compiled f2py wrappers, scipy.linalg._flapack and scipy.linalg._fblas.

Both are loaded straight from their extension files, so neither scipy's nor
scipy.linalg's package initialiser runs: those clone numpy's namespace
(numpy.f2py, numpy.testing, numpy.ma) and cost a process about 0.2 s and
17 MiB, while the wrappers need only numpy.  The routines are the very
objects that scipy.linalg.lapack and scipy.linalg.blas hand out: a wrapper
already in sys.modules is reused, and one loaded here is registered there,
so a later import of scipy.linalg reuses it in turn.

solve_banded is scipy's solve_banded (1.17) for one real right-hand side:
dgtsv for one sub- and one superdiagonal, otherwise dgbsv on a copy of the
band with nlower more rows for the fill-in of row interchanges.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load(name):
    """scipy.linalg.<name> from its extension file, without importing the
    scipy or scipy.linalg packages."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    finder = importlib.machinery.FileFinder(
        folder,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(fullname)
    if spec is None:
        raise ImportError(f"no compiled {fullname} in {folder}", name=fullname)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load("_flapack")
_fblas = _load("_fblas")

dgbsv = _flapack.dgbsv
dgtsv = _flapack.dgtsv
dpbtrf = _flapack.dpbtrf
dstev = _flapack.dstev
dsytrf = _flapack.dsytrf
dsytrs = _flapack.dsytrs
zgbsv = _flapack.zgbsv
dsbmv = _fblas.dsbmv


def solve_banded(l_and_u, ab, b, check_finite=True):
    """x with A x = b, for the banded A stored as ab[u + i - j, j] = A[i, j]
    with (l, u) = l_and_u, and one real right-hand side b; neither ab nor b
    is overwritten.  Raises LinAlgError on an exactly singular pivot and,
    with check_finite, ValueError on a non-finite entry of ab or b."""
    nlower, nupper = l_and_u
    as_array = np.asarray_chkfinite if check_finite else np.asarray
    ab, b = as_array(ab, dtype=float), as_array(b, dtype=float)
    if nlower == nupper == 1:
        x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)[3:]
    else:
        lu = np.zeros((2 * nlower + nupper + 1, ab.shape[1]))
        lu[nlower:] = ab
        x, info = dgbsv(nlower, nupper, lu, b, overwrite_ab=1)[2:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x
