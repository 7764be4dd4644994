"""Shared helpers for the test suite."""

import numpy as np
import pytest

from qlocc import _kernels, locc, states

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def kron_oracle(a, b):
    """Four-nested-loop Kronecker product, independent of numpy.kron."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


# sy x sy written out by hand for oracle use
YY_ORACLE = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def spin_flip_oracle(m):
    """Direct evaluation of the tilde definition on a 4x4 matrix."""
    return YY_ORACLE @ np.conj(m) @ YY_ORACLE


def lambda_oracle(rho_mat):
    """Hermitian route to the lambda spectrum, independent of the QR path.

    rho * rho~ is similar to sqrt(rho) rho~ sqrt(rho), which is Hermitian
    PSD, so its eigenvalues come from a symmetric eigensolve.
    """
    from scipy.linalg import sqrtm

    rt = spin_flip_oracle(rho_mat)
    s = sqrtm(rho_mat)
    w = np.linalg.eigvalsh(s @ rt @ s)
    lam = np.sqrt(np.clip(w.real, 0.0, None))
    return np.sort(lam)[::-1]


def concurrence_oracle(rho_mat):
    lam = lambda_oracle(rho_mat)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def charpoly_roots_oracle(m):
    """Eigenvalues via roots of the characteristic polynomial, with the
    coefficients obtained by the trace recursion (Faddeev-LeVerrier)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ mk
        s = 0.0 + 0.0j
        for i in range(1, k):
            s += coeffs[i] * np.trace(np.linalg.matrix_power(m, k - i))
        coeffs[k] = -(np.trace(mk) + s) / k
    return np.roots(coeffs)


def su2_from_angle_axis(theta, axis):
    """cos(theta) 1 + i sin(theta) axis.sigma; a special unitary."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.cos(theta) * I2 + 1j * np.sin(theta) * (
        axis[0] * SX + axis[1] * SY + axis[2] * SZ
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def svd_fails_on_stacks(monkeypatch):
    """LAPACK's svd fails on (N, 4, 4) stacks, and the batched gain kernel
    gets an eigh root, whose taus are not column-orthogonal, so every point
    goes to such a stack. Single matrices, as for c_in, still solve."""
    svd = np.linalg.svd

    def fail(m, *args, **kwargs):
        if np.ndim(m) == 3:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(_kernels, "gain_root", _kernels.state_root)
    monkeypatch.setattr(np.linalg, "svd", fail)


def random_op(rng, max_strength=0.98):
    return locc.LocalOperation(
        unitary=locc.random_unitary(rng), filter=locc.random_filter(rng, max_strength)
    )


def random_state(rng):
    return states.random_density_matrix(rng)
