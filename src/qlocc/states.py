"""Two-qubit states: construction, validation, Pauli representation, JSON forms.

Basis convention: computational product basis ordered |uu>, |ud>, |du>, |dd>
(u = spin up). The singlet has amplitudes (0, 1, -1, 0)/sqrt(2). Bell states
are ordered (Psi-, Psi+, Phi-, Phi+), singlet first.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from qlocc import _kernels
from qlocc._kernels import PAULI
from qlocc.errors import DomainError, NotAState

_SQRT2 = float(np.sqrt(2.0))

SINGLET_AMPS = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / _SQRT2

BELL_AMPS = (
    SINGLET_AMPS,                                                        # Psi-
    np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128) / _SQRT2,        # Psi+
    np.array([1.0, 0.0, 0.0, -1.0], dtype=np.complex128) / _SQRT2,       # Phi-
    np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / _SQRT2,        # Phi+
)

SINGLET_PROJ = np.outer(SINGLET_AMPS, SINGLET_AMPS.conj())
# the projector onto the singlet's complement, 1 - S
_NOT_SINGLET = np.eye(4) - SINGLET_PROJ

TOL_STATE = 1e-10

# the Pauli matrices (defined in ``_kernels``) and the 2x2 identity
SX, SY, SZ = PAULI
I2 = np.eye(2, dtype=np.complex128)

_SIGMA = np.stack((I2, SX, SY, SZ))
# sigma_i x sigma_j at index 4i + j, with sigma_0 = 1
_PAULI_PRODUCTS = np.einsum("iab,jcd->ijacbd", _SIGMA, _SIGMA).reshape(16, 4, 4)


def real_number(name: str, value) -> float:
    """``value`` as a float. Raises :class:`~qlocc.errors.DomainError`
    unless it is a real number: an int or a float, numpy's included, and
    not a bool, str, None or complex."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def integer_in_range(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as an int. Raises :class:`~qlocc.errors.DomainError`
    unless it is an integer, numpy's included and not a bool, in
    [``least``, ``most``] (no upper bound when ``most`` is None)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or (most is not None and value > most)):
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise DomainError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a numeric array is finite (both parts of a
    complex one), as ``np.isfinite(a).all()`` says, in one pass over its
    entries as Python numbers, which costs less for a few entries."""
    return all(map(cmath.isfinite, a.ravel().tolist()))


def check_probability_vector(p) -> np.ndarray:
    """``p`` as a flat float vector. Raises
    :class:`~qlocc.errors.DomainError` unless it is a probability vector:
    numbers, not empty, finite, no entry below -1e-12, summing to 1 within
    1e-12."""
    try:
        p = np.asarray(p, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"probabilities must be real numbers, got {p!r}") from exc
    if not len(p) or not np.isfinite(p).all() or p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-12:
        raise DomainError(f"invalid probability vector {p.tolist()}")
    return p


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A two-qubit density matrix: Hermitian, unit trace, PSD 4x4 matrix.
    Construction checks only its shape, and raises ``NotAState`` unless
    finite. The state invariants are :func:`validate`'s: the JSON reader,
    the search and the normal form check them (:func:`require_state`), and
    construction does not, as the single-state routes build a state per
    operation.

    ``mat`` is a read-only copy of the given matrix, so the state cannot
    change after construction, and ``lambdas`` and ``concurrence`` are
    computed once per state.
    """

    # the concurrence is cached in a slot, outside the instance dict, so
    # that vars() of a state (which perfbench's digests read) holds its
    # matrix and its spectrum only
    __slots__ = ("__dict__", "_concurrence")

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128, order="C")
        if m.shape != (4, 4):
            raise DomainError("density matrix must be 4x4")
        if not all_finite(m):
            raise NotAState("density matrix has a non-finite entry")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "_concurrence", None)

    def __reduce__(self):
        # copies and pickles are rebuilt through the constructor, which
        # marks their matrix read-only; the spectrum is recomputed on use
        return DensityMatrix, (self.mat,)

    @cached_property
    def lambdas(self) -> np.ndarray:
        """The descending lambda spectrum, read-only:
        ``_kernels.lambdas(_kernels.state_root(mat))``, computed on first
        use. Raises what :func:`~qlocc._kernels.state_root` raises."""
        lam = _kernels.lambdas(_kernels.state_root(self.mat))
        lam.flags.writeable = False
        return lam

    @property
    def concurrence(self) -> float:
        """max(0, l1 - l2 - l3 - l4) of ``lambdas``, capped at 1
        (:func:`~qlocc._kernels.concurrence_from_lambdas`), computed on
        first use."""
        if self._concurrence is None:
            c = float(_kernels.concurrence_from_lambdas(self.lambdas))
            object.__setattr__(self, "_concurrence", c)
        return self._concurrence


@dataclass(frozen=True, eq=False)
class PauliRep:
    """Bloch-style decomposition: local vectors alpha, beta and the 3x3
    correlation matrix R, so that
    rho = (1/4)[1 + alpha.sigma x 1 + 1 x beta.sigma + R_ij sigma_i x sigma_j].
    Raises :class:`~qlocc.errors.DomainError` for a non-finite coefficient.

    Each part is a read-only copy of the given array, so the record cannot
    change after construction.
    """

    alpha: np.ndarray
    beta: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name, shape in (("alpha", 3), ("beta", 3), ("R", (3, 3))):
            value = np.array(getattr(self, name), dtype=float).reshape(shape)
            if not all_finite(value):
                raise DomainError("Pauli coefficients must be finite")
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # copies and pickles are rebuilt through the constructor, which
        # marks their parts read-only
        return PauliRep, (self.alpha, self.beta, self.R)


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized two-qubit state vector (4 complex amplitudes)."""

    amps: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.amps, dtype=np.complex128).reshape(4)
        nrm = float(np.sum(np.abs(a) ** 2))
        if not abs(nrm - 1.0) <= 1e-12:  # NaN fails too
            raise DomainError(f"state vector norm^2 = {nrm} is not 1")
        object.__setattr__(self, "amps", a)


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Projector onto a pure state."""
    return DensityMatrix(np.outer(psi.amps, psi.amps.conj()))


def make_werner(F: float) -> DensityMatrix:
    """Isotropic mixture of the singlet with white noise.

    W(F) = F S + (1-F)/3 (1 - S), where S is the singlet projector and F
    its overlap with the result. Entangled exactly when F > 1/2.
    """
    F = real_number("Werner fidelity F", F)
    if not 0.0 <= F <= 1.0:
        raise DomainError(f"Werner fidelity F={F} outside [0, 1]")
    return DensityMatrix(F * SINGLET_PROJ + (1.0 - F) / 3.0 * _NOT_SINGLET)


def make_bell_diagonal(p) -> DensityMatrix:
    """Mixture of the four Bell states with probabilities p (singlet first)."""
    p = check_probability_vector(p)
    if p.shape != (4,):
        raise DomainError("expected exactly 4 probabilities")
    m = np.zeros((4, 4), dtype=np.complex128)
    for pi, amps in zip(p, BELL_AMPS):
        m += pi * np.outer(amps, amps.conj())
    return DensityMatrix(m)


def to_pauli(rho: DensityMatrix) -> PauliRep:
    """Pauli-basis coefficients alpha_i = tr(rho sigma_i x 1), etc."""
    c = np.einsum("kij,ji->k", _PAULI_PRODUCTS, rho.mat).real.reshape(4, 4)
    return PauliRep(c[1:, 0], c[0, 1:], c[1:, 1:])


def from_pauli(rep: PauliRep) -> DensityMatrix:
    """Reconstruct the density matrix; rejects non-PSD results.

    Raises :class:`~qlocc.errors.NotAState` when the reconstruction has an
    eigenvalue below -1e-10 (no silent clamping). The reconstruction is a
    real combination of Hermitian Pauli products, so it is Hermitian
    exactly.
    """
    c = np.empty((4, 4))
    c[0, 0] = 1.0
    c[1:, 0], c[0, 1:], c[1:, 1:] = rep.alpha, rep.beta, rep.R
    m = np.einsum("k,kij->ij", c.ravel(), _PAULI_PRODUCTS) / 4.0
    w_min = np.linalg.eigvalsh(m)[0]  # eigvalsh's eigenvalues ascend
    if w_min < -TOL_STATE:
        raise NotAState(f"reconstruction has eigenvalue {w_min:.3e}")
    return DensityMatrix(m)


def fidelity(rho: DensityMatrix) -> float:
    """Overlap tr(rho S) with the singlet projector."""
    return float((rho.mat @ SINGLET_PROJ).trace().real)


@dataclass(frozen=True)
class StateReport:
    """Worst violation magnitude per density-matrix invariant."""

    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float
    ok: bool


def validate(rho: DensityMatrix) -> StateReport:
    """Check Hermiticity, unit trace and positivity; never raises."""
    m = rho.mat
    herm = float(np.linalg.norm(m - m.conj().T))
    tr = abs(float(np.trace(m).real) - 1.0)
    # PSD is judged on the Hermitian part so the report stays meaningful
    # even for inputs that already fail the first check
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    ok = herm <= TOL_STATE and tr <= TOL_STATE and w.min() >= -TOL_STATE
    return StateReport(herm, tr, float(w.min()), ok)


def require_state(rho: DensityMatrix) -> DensityMatrix:
    """``rho``, once :func:`validate` passes it. Raises
    :class:`~qlocc.errors.NotAState`, naming each invariant's violation,
    when it does not."""
    rep = validate(rho)
    if not rep.ok:
        raise NotAState(
            "matrix fails state invariants: "
            f"hermiticity {rep.hermiticity_error:.2e}, trace {rep.trace_error:.2e}, "
            f"min eigenvalue {rep.min_eigenvalue:.2e}"
        )
    return rho


# --- JSON forms: complex entries as [re, im] pairs ---

def _c2pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def density_matrix_to_dict(rho: DensityMatrix) -> dict:
    return {"matrix": [[_c2pair(z) for z in row] for row in rho.mat]}


def density_matrix_from_dict(d: dict) -> DensityMatrix:
    try:
        rows = d["matrix"]
        m = np.array([[complex(c[0], c[1]) for c in row] for row in rows])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise DomainError(f"malformed density-matrix JSON: {exc}") from exc
    return require_state(DensityMatrix(m))


def pauli_rep_to_dict(rep: PauliRep) -> dict:
    return {
        "alpha": [float(x) for x in rep.alpha],
        "beta": [float(x) for x in rep.beta],
        "R": [[float(x) for x in row] for row in rep.R],
    }
