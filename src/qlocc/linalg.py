"""General 4x4 eigenvalues, kept for the benchmark's tracer.

No package code imports this module: the package calls numpy directly.
"""

from __future__ import annotations

import numpy as np

from qlocc import _kernels


def eig_general(m: np.ndarray) -> np.ndarray:
    """Unordered eigenvalues of a general 4x4 complex matrix, by LAPACK.

    Raises :class:`~qlocc.errors.ConvergenceFailure` if LAPACK fails. No
    package code calls it. It stays only because the benchmark's tracer
    (``perfbench/tracing.py``) looks it up by name, and goes with the
    figure that times it.
    """
    return _kernels.eigvals4x4(m)
