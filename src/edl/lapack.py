"""The compiled scipy routines edl calls: LAPACK and BLAS from the f2py
wrappers scipy.linalg._flapack and scipy.linalg._fblas, and Brent's method
from scipy.optimize._zeros.

All three extensions are loaded straight from their files, so no scipy
package initialiser runs: scipy's and scipy.linalg's clone numpy's namespace
(numpy.f2py, numpy.testing, numpy.ma) and cost a process about 0.2 s and
17 MiB, while the wrappers need only numpy and _zeros only libc and libm.
The routines are the very objects that scipy.linalg.lapack, scipy.linalg.blas
and scipy.optimize hand out: an extension already in sys.modules is reused,
and one loaded here is registered there, so a later import of scipy.linalg
or scipy.optimize reuses it in turn.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys


def _load(package, name):
    """scipy.<package>.<name> from its extension file, without importing the
    scipy or scipy.<package> packages."""
    fullname = f"scipy.{package}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], package)
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


_flapack = _load("linalg", "_flapack")
_fblas = _load("linalg", "_fblas")
_zeros = _load("optimize", "_zeros")

dgbsv = _flapack.dgbsv
dgtsv = _flapack.dgtsv
dpbtrf = _flapack.dpbtrf
dsbevx = _flapack.dsbevx
dstemr = _flapack.dstemr
dstev = _flapack.dstev
dsytrf = _flapack.dsytrf
dsytrs = _flapack.dsytrs
zgbsv = _flapack.zgbsv
dsbmv = _fblas.dsbmv
dtbsv = _fblas.dtbsv


# scipy.optimize.brentq's default rtol and maxiter
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def brentq(f, xa, xb, xtol=2e-12):
    """A root of f in [xa, xb] by Brent's method: scipy.optimize.brentq's
    compiled loop at its default rtol and maxiter, so the same evaluation
    points, root and errors: ValueError for a bracket without a sign change
    or a NaN value, RuntimeError after 100 steps."""

    def f_checked(x):
        value = f(x)
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    return _zeros._brentq(f_checked, xa, xb, xtol, _RTOL, _MAXITER, (), False, True)
