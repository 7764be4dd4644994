"""Minimal dense complex linear algebra for 2x2 and 4x4 matrices.

Matrices are plain ``numpy.ndarray`` values of dtype complex128; the only
shapes in play are (2, 2) and (4, 4).
"""

from __future__ import annotations

import numpy as np

from qlocc import _kernels
from qlocc.errors import NotHermitian

TOL_EIG = 1e-10
TOL_HERM = 1e-10

I2 = np.eye(2, dtype=np.complex128)
I4 = np.eye(4, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = (SX, SY, SZ)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices as a 4x4 complex matrix."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def axis_dot_pauli(axis) -> np.ndarray:
    """n . sigma for a real 3-vector n."""
    axis = np.asarray(axis, dtype=float)
    return axis[0] * SX + axis[1] * SY + axis[2] * SZ


def eig_general(m: np.ndarray) -> np.ndarray:
    """Unordered eigenvalues of a general 4x4 complex matrix, by LAPACK.

    Raises :class:`~qlocc.errors.ConvergenceFailure` if LAPACK fails. No
    package code calls it. It stays only because the benchmark's tracer
    (``perfbench/tracing.py``) looks it up by name, and goes with the
    figure that times it.
    """
    return _kernels.eigvals4x4(m)


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues ascending (real) and orthonormal eigenvectors as
    columns. Raises :class:`~qlocc.errors.NotHermitian` when the input
    deviates from Hermiticity by more than ``TOL_HERM`` in Frobenius norm.
    """
    m = np.asarray(m, dtype=np.complex128)
    dev = frobenius(m - dagger(m))
    if dev > TOL_HERM:
        raise NotHermitian(f"matrix deviates from Hermiticity by {dev:.3e}")
    w, v = np.linalg.eigh(m)
    return w, v
