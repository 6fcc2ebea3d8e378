"""edl.lapack against scipy: the same compiled extensions and routines,
whichever is imported first, and the banded solvers' report of a singular
pivot where scipy.linalg.solve_banded raises."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from edl import lapack

SRC = str(Path(__file__).resolve().parents[1] / "src")
ROUTINES = {
    "lapack": ["dgbsv", "dgtsv", "dpbtrf", "dsbevx", "dstev", "dsytrf", "dsytrs", "zgbsv"],
    "blas": ["dsbmv", "dtbsv"],
}


@pytest.mark.parametrize("scipy_first", [False, True])
def test_routines_are_scipys_wrappers_in_either_import_order(scipy_first):
    first = "import edl.lapack"
    second = "import scipy.linalg.lapack, scipy.linalg.blas, scipy.optimize"
    if scipy_first:
        first, second = second, first
    code = (
        f"import sys\n{first}\n{second}\n"
        "import edl.lapack, scipy.linalg, scipy.optimize\n"
        f"for module, names in {ROUTINES!r}.items():\n"
        "    for name in names:\n"
        "        ours, theirs = getattr(edl.lapack, name), getattr(getattr(scipy.linalg, module), name)\n"
        "        assert ours is theirs, name\n"
        "zeros = sys.modules['scipy.optimize._zeros']\n"
        "assert edl.lapack._zeros is zeros is scipy.optimize._zeros_py._zeros\n"
        "print('same')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["same"]


@pytest.mark.parametrize("l_and_u", [(1, 1), (2, 2)])
def test_singular_system_raises(l_and_u):
    # the callers of dgtsv (one sub- and superdiagonal) and dgbsv raise on
    # info > 0, as scipy.linalg.solve_banded does for the same band
    ab = np.ones((sum(l_and_u) + 1, 6))
    ab[:, 3] = 0.0  # a zero column: every pivot order meets an exact 0
    nlower, nupper = l_and_u
    if nlower == nupper == 1:
        info = lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], np.ones(6))[-1]
    else:
        lu = np.zeros((2 * nlower + nupper + 1, 6))
        lu[nlower:] = ab
        info = lapack.dgbsv(nlower, nupper, lu, np.ones(6))[-1]
    assert info > 0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        scipy.linalg.solve_banded(l_and_u, ab, np.ones(6))
