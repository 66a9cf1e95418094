"""Independent eigenvalue reference for the ``verify`` output check.

Run as a child process, once per benchmark run and outside every timed
region::

    python3 perfbench/reference.py '{"powers": [[4, "1/100"]], "basis": 160, "levels": [0, 1]}'

It builds H = diag(i + 1/2) + sum c_p X^p in the oscillator basis (m =
omega = hbar = 1, X the tridiagonal position operator) with numpy alone and
diagonalizes it with ``numpy.linalg.eigvalsh``, so it shares no code with
the program's oracle.  Prints one JSON object with the requested
eigenvalues, the numpy version and the BLAS thread count in effect.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
from fractions import Fraction

import numpy as np


def lowest_eigenvalues(powers: list[tuple[int, Fraction]], basis: int,
                       levels: list[int]) -> list[float]:
    x = np.diag(np.sqrt(np.arange(1, basis) / 2.0), 1)
    x = x + x.T
    h = np.diag(np.arange(basis) + 0.5)
    for power, coeff in powers:
        h = h + float(coeff) * np.linalg.matrix_power(x, power)
    eigs = np.linalg.eigvalsh((h + h.T) / 2.0)
    return [float(eigs[level]) for level in levels]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when it is that one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def main(spec: dict) -> dict:
    powers = [(int(p), Fraction(c)) for p, c in spec["powers"]]
    return {
        "eigenvalues": lowest_eigenvalues(powers, int(spec["basis"]), spec["levels"]),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
