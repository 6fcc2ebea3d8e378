"""edl.lapack against scipy.linalg: the same wrapper objects, whichever is
imported first, and the same banded solves, bit for bit."""

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
    "lapack": ["dgbsv", "dgtsv", "dpbtrf", "dstev", "dsytrf", "dsytrs", "zgbsv"],
    "blas": ["dsbmv"],
}


@pytest.mark.parametrize("scipy_first", [False, True])
def test_routines_are_scipys_wrappers_in_either_import_order(scipy_first):
    first, second = "import edl.lapack", "import scipy.linalg.lapack, scipy.linalg.blas"
    if scipy_first:
        first, second = second, first
    code = (
        f"import sys\n{first}\n{second}\n"
        "import edl.lapack, scipy.linalg\n"
        f"for module, names in {ROUTINES!r}.items():\n"
        "    for name in names:\n"
        "        ours, theirs = getattr(edl.lapack, name), getattr(getattr(scipy.linalg, module), name)\n"
        "        assert ours is theirs, name\n"
        "print('same')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["same"]


def _random_band(rng, nlower, nupper, n):
    ab = rng.standard_normal((nlower + nupper + 1, n))
    ab[nupper] += 4.0 * np.sign(ab[nupper])  # a strong diagonal, but still pivots
    return ab


@pytest.mark.parametrize("l_and_u", [(1, 1), (2, 2), (15, 15), (1, 3), (4, 0)])
def test_solve_banded_equals_scipy_bitwise(rng, l_and_u):
    for n in (2, 7, 64, 301):
        ab = _random_band(rng, *l_and_u, n)
        b = rng.standard_normal(n)
        keep_ab, keep_b = ab.copy(), b.copy()
        ours = lapack.solve_banded(l_and_u, ab, b)
        theirs = scipy.linalg.solve_banded(l_and_u, ab, b)
        assert ours.tobytes() == theirs.tobytes(), (l_and_u, n)
        assert np.array_equal(ab, keep_ab) and np.array_equal(b, keep_b)


@pytest.mark.parametrize("l_and_u", [(1, 1), (2, 2)])
def test_singular_system_raises(l_and_u):
    ab = np.ones((sum(l_and_u) + 1, 6))
    ab[:, 3] = 0.0  # a zero column: every pivot order meets an exact 0
    for solve in (lapack.solve_banded, scipy.linalg.solve_banded):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            solve(l_and_u, ab, np.ones(6))


def test_non_finite_input_is_refused_unless_unchecked():
    ab = np.ones((5, 6))
    ab[2] = 5.0
    b = np.ones(6)
    b[3] = np.nan
    with pytest.raises(ValueError):
        lapack.solve_banded((2, 2), ab, b)
    assert np.isnan(lapack.solve_banded((2, 2), ab, b, check_finite=False)).any()
