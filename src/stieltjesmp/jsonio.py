"""JSON encoding of complex scalars and matrices.

A complex number is the two-element array [re, im]; a matrix is a list
of rows of such entries.  Finite real JSON numbers are read; booleans,
strings, ``NaN``, ``Infinity`` and integers no float holds are not.
"""

import json
import math
import sys

import numpy as np


def complex_to_json(z):
    z = complex(z)
    return [z.real, z.imag]


def json_to_real(v, where="value", integer=False):
    """A JSON number as a float (an int when ``integer``), refusing a
    boolean, a string, ``NaN``, ``Infinity`` and an int no float holds
    (which Python's ``json`` reads) and, for ``integer``, a fraction."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{where}: {json.dumps(v)} is not "
                         f"{'an integer' if integer else 'a number'}")
    if isinstance(v, int) and abs(v) > sys.float_info.max:
        raise ValueError(f"{where}: an integer of {len(str(abs(v)))} "
                         "digits is not a finite number")
    if not math.isfinite(v):
        raise ValueError(f"{where}: {json.dumps(v)} is not a finite number")
    if integer and not float(v).is_integer():
        raise ValueError(f"{where}: {json.dumps(v)} is not an integer")
    return int(v) if integer else float(v)


def json_to_complex(v, where="value"):
    if isinstance(v, (int, float)):
        return complex(json_to_real(v, where))
    if (not isinstance(v, list)) or len(v) != 2:
        raise ValueError(f"{where}: complex numbers must be [re, im]")
    return complex(json_to_real(v[0], where), json_to_real(v[1], where))


def matrix_to_json(M):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[complex_to_json(x) for x in row] for row in M]


def json_to_matrix(rows, where="matrix"):
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{where}: expected a non-empty array of rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"{where}: row {i} is {json.dumps(row)}, "
                             "not an array")
    data = [[json_to_complex(x, where) for x in row] for row in rows]
    if len({len(row) for row in data}) > 1:
        raise ValueError(f"{where}: rows of different lengths form no matrix")
    return np.asarray(data, dtype=complex)
