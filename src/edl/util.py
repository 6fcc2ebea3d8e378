"""Small shared utilities: deterministic file output and seeded uniform arrays."""
from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np


def uniform(rng, low, high, size):
    """An array of shape size (an int or a tuple) of uniform doubles in
    [low, high) from rng, a random.Random: 53-bit fractions, the top bits of
    8 bytes each from rng.randbytes.  Draws of a and b values read the same
    stream as one draw of a + b, split."""
    shape = (size,) if isinstance(size, int) else tuple(size)
    bits = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8") >> np.uint64(11)
    return low + (high - low) * (bits * 2.0**-53).reshape(shape)


def atomic_write_text(path, text):
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-edl-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj):
    # strict JSON: a NaN or infinity raises instead of writing a bare NaN token
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    atomic_write_text(path, text + "\n")


def format_float(x):
    """Stable short float formatting shared by CSV and SVG output."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    return f"{float(x):.12g}"


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if not isinstance(v, str) else v for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
