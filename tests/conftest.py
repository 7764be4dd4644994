"""Shared helpers of the test suite: the random generators its seeded
tests draw from, reference oracles and fixtures."""

import numpy as np
import pytest

from qlocc import _kernels
from qlocc.errors import DomainError, NotPhysical
from qlocc.locc import LocalFilter, LocalOperation, decompose_local_op
from qlocc.nogo import FloorCheck, probability_floor
from qlocc.states import (
    DensityMatrix,
    PureState,
    fidelity,
    make_bell_diagonal,
    make_werner,
    real_number,
)

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


# inputs that a fidelity or a tolerance must reject as not real numbers;
# True is rejected too, though float(True) would read it as 1.0
NOT_REAL_NUMBERS = ("0.75", "abc", True, None, 1j)

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
def fresh_pool(monkeypatch):
    """The kernel's thread pool, made anew at the test's first threaded
    batch, with one thread per CPU the test lets it use, and shut down,
    its threads joined, after the test."""
    monkeypatch.setattr(_kernels, "_pool", None)
    yield
    if _kernels._pool is not None:
        _kernels._pool.shutdown()


@pytest.fixture
def svd_fails_on_stacks(monkeypatch):
    """LAPACK's svd fails on (N, 4, 4) stacks, and the gain kernels get an
    eigh root. Its taus are column-orthogonal for some states (none of a
    Werner state's 4096 grid points reach LAPACK) and not for a random
    full-rank state, all of whose grid points go to such a stack. Single
    matrices, as for c_in, still solve."""
    svd = np.linalg.svd

    def fail(m, *args, **kwargs):
        if np.ndim(m) == 3:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(_kernels, "gain_root", _kernels.state_root)
    monkeypatch.setattr(np.linalg, "svd", fail)


# --- random generators: the draws of every seeded test ---

def candidate_rows(size: int):
    """Unwritten candidate rows (a, n, b, m) for ``size`` filter pairs."""
    return np.empty(size), np.empty((size, 3)), np.empty(size), np.empty((size, 3))


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state from the Hilbert-Schmidt ensemble."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure_state(rng: np.random.Generator) -> PureState:
    """Haar-random two-qubit state vector."""
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return PureState(a / np.linalg.norm(a))


def random_entangled_bell_diagonal(rng: np.random.Generator) -> DensityMatrix:
    """Random Bell-diagonal state with a dominant component above 1/2."""
    top = 0.5 + 0.5 * rng.random()
    rest = rng.random(3)
    rest = (1.0 - top) * rest / rest.sum()
    p = np.concatenate([[top], rest])
    rng.shuffle(p)
    return make_bell_diagonal(p)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a Ginibre sample, phase-fixed)."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_filter(rng: np.random.Generator, max_strength: float = 0.98) -> LocalFilter:
    """Random invertible filter; scale drawn in (0.05, 1] of its maximum,
    axis uniform on the sphere."""
    a = max_strength * rng.random()
    nu = (0.05 + 0.95 * rng.random()) / (1.0 + a)
    v = rng.standard_normal(3)
    return LocalFilter(strength=a, axis=v / np.linalg.norm(v), scale=nu)


def random_op(rng, max_strength=0.98):
    return LocalOperation(unitary=random_unitary(rng), filter=random_filter(rng, max_strength))


# --- reference oracles and helpers ---

def compose_local_ops(second: LocalOperation, first: LocalOperation) -> LocalOperation:
    """Composite of two branch operators, re-expressed as unitary * filter.

    Rescales the product so its largest singular value is at most 1; the
    overall scale of a branch operator only affects the success
    probability, never the post-selected state.
    """
    m = second.matrix @ first.matrix
    smax = np.linalg.svd(m, compute_uv=False)[0]
    if smax > 1.0:
        m = m / smax
    return decompose_local_op(m)


def collective_step_closed_form(F: float) -> tuple[float, float]:
    """Independent closed form of the recurrence step of
    :func:`qlocc.protocols.collective_step`."""
    F = float(F)
    if not 0.5 < F < 1.0:
        raise DomainError(f"recurrence input fidelity F={F} must lie in (1/2, 1)")
    rest = (1.0 - F) / 3.0
    p_succ = F * F + 2.0 * F * rest + 5.0 * rest * rest
    f_prime = (F * F + rest * rest) / p_succ
    return f_prime, p_succ


def _cnot4(ctrl: int, tgt: int) -> np.ndarray:
    """CNOT on two of four qubits; qubit 0 is the most significant bit."""
    u = np.zeros((16, 16), dtype=complex)
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        if bits[ctrl]:
            bits[tgt] ^= 1
        out = sum(b << (3 - q) for q, b in enumerate(bits))
        u[out, idx] = 1.0
    return u


# the bilateral CNOT A1->A2, B1->B2 on qubit order (A1, B1, A2, B2)
BILATERAL_CNOT = _cnot4(0, 2) @ _cnot4(1, 3)
# maps the singlet to (a phase times) Phi+, taking Werner to isotropic form
TO_PHI = np.kron(I2, SY)
_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
PHI_PLUS_PROJ = np.outer(_PHI_PLUS, _PHI_PLUS.conj())
_MASK_00 = np.array([1.0 if (i >> 1) & 1 == 0 and i & 1 == 0 else 0.0 for i in range(16)])
_MASK_11 = np.array([1.0 if (i >> 1) & 1 == 1 and i & 1 == 1 else 0.0 for i in range(16)])
# the entries of the 16x16 density matrix kept when both second-pair
# outcomes are 0, or both 1
KEEP_00 = np.outer(_MASK_00, _MASK_00)
KEEP_11 = np.outer(_MASK_11, _MASK_11)


def collective_step_oracle(F: float) -> tuple[float, float]:
    """The recurrence step by literal 16x16 simulation: the tensor square,
    the bilateral CNOT as a matrix product, the keep masks and an einsum
    over the second pair. :func:`qlocc.protocols.collective_step` must
    return its bits."""
    F = real_number("recurrence input fidelity F", F)
    if not 0.5 < F < 1.0:
        raise DomainError(f"recurrence input fidelity F={F} must lie in (1/2, 1)")
    chi = TO_PHI @ make_werner(F).mat @ TO_PHI.conj().T
    total = np.kron(chi, chi)
    total = BILATERAL_CNOT @ total @ BILATERAL_CNOT.conj().T
    kept = total * KEEP_00 + total * KEEP_11
    p_succ = float(np.trace(kept).real)
    reduced = np.einsum("abcdefcd->abef", kept.reshape([2] * 8)).reshape(4, 4) / p_succ
    f_prime = float(np.trace(reduced @ PHI_PLUS_PROJ).real)
    return f_prime, p_succ


def decompose_local_op_oracle(A: np.ndarray) -> LocalOperation:
    """Unitary * filter split with the axis built as a numpy array and
    normalized by ``np.linalg.norm``. :func:`qlocc.locc.decompose_local_op`
    must return its bits."""
    A = np.ascontiguousarray(A, dtype=np.complex128)
    if A.shape != (2, 2) or not np.isfinite(A).all():
        raise DomainError("operator must be a finite 2x2 matrix")
    w, s, vh = np.linalg.svd(A)
    if s[0] > 1.0 + 1e-12:
        raise NotPhysical(f"largest singular value {s[0]:.12g} exceeds 1")
    if s[0] + s[1] <= 0.0:
        raise DomainError("cannot decompose the zero operator")
    u = w @ vh
    nu = (s[0] + s[1]) / 2.0
    a = (s[0] - s[1]) / (s[0] + s[1])
    if a < 1e-14:
        a = 0.0
        axis = np.array([0.0, 0.0, 1.0])
    else:
        v1 = vh.conj().T[:, 0]
        axis = np.array(
            [
                2.0 * (v1[0].conjugate() * v1[1]).real,
                2.0 * (v1[0].conjugate() * v1[1]).imag,
                abs(v1[0]) ** 2 - abs(v1[1]) ** 2,
            ]
        )
        axis /= np.linalg.norm(axis)
    f = LocalFilter(strength=a, axis=axis, scale=nu)
    return LocalOperation(unitary=u, filter=f)


def probability_floor_sequence(
    fA: LocalFilter, fB: LocalFilter, k_max: int = 20
) -> list[tuple[float, FloorCheck]]:
    """Floor checks along the sequence F = 1/2 + 2^-k, k = 1..k_max."""
    out = []
    for k in range(1, k_max + 1):
        F = 0.5 + 2.0 ** (-k)
        out.append((F, probability_floor(F, fA, fB)))
    return out


def werner_twirl(rho: DensityMatrix) -> DensityMatrix:
    """Randomize a state into the Werner family with the same singlet overlap."""
    return make_werner(min(1.0, max(0.0, fidelity(rho))))
