"""Single-copy local operations: filters, unitaries, and their effect.

Any branch operator a party can apply collapses to unitary * filter, where
the filter nu(1 + a n.sigma) reweights spin components along the axis n.
Applying a pair of branch operators to a shared state succeeds with
probability t = tr[(A+A x B+B) rho] and rescales the concurrence by the
closed factor mu^2 nu^2 (1-a^2)(1-b^2) / t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from qlocc._kernels import TOL_PROB, kron
from qlocc.entanglement import concurrence
from qlocc.errors import DomainError, FilteredOut, NotAttained, NotPhysical
from qlocc.states import (
    I2,
    SX,
    SY,
    SZ,
    DensityMatrix,
    PauliRep,
    Record,
    all_finite,
    ingest_array,
    read_only,
    real_number,
    require_state,
)

# normal form: largest marginal deviation from 1/2 (trace-normalized) at
# which both marginals count as proportional to the identity, and the
# iteration budget (random Hilbert-Schmidt states need at most about 700)
TOL_MARGINAL = 1e-14
NF_MAX_ITER = 2000

_Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True, eq=False)
class LocalFilter(Record):
    """Filtration nu(1 + a n.sigma): strength a in [0,1], unit axis n,
    scale nu in (0, 1/(1+a)] so both eigenvalues nu(1 +- a) stay in [0,1].
    A :class:`~qlocc.states.Record`: ``axis`` is a read-only (3,) copy."""

    strength: float
    axis: np.ndarray
    scale: float

    def __post_init__(self):
        axis = ingest_array("LocalFilter.axis", self.axis, float, (3,))
        # np.linalg.norm's formula for a real vector; NaN fails too
        if not abs(math.sqrt(axis @ axis) - 1.0) <= 1e-12:
            raise DomainError(f"filter axis {axis.tolist()} is not a unit vector")
        a = real_number("filter strength a", self.strength)
        nu = real_number("filter scale nu", self.scale)
        if not 0.0 <= a <= 1.0:
            raise DomainError(f"filter strength a={a} outside [0, 1]")
        if not 0.0 < nu <= 1.0 / (1.0 + a) + 1e-12:
            raise DomainError(f"filter scale nu={nu} outside (0, 1/(1+a)]")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "strength", a)
        object.__setattr__(self, "scale", nu)


@dataclass(frozen=True, eq=False)
class LocalOperation(Record):
    """A general single-party branch operator, expressed as unitary * filter.
    A :class:`~qlocc.states.Record`: ``unitary`` is a read-only 2x2 copy, and
    ``matrix``, the read-only product, is computed once."""

    unitary: np.ndarray
    filter: LocalFilter

    def __post_init__(self):
        u = ingest_array("LocalOperation.unitary", self.unitary, np.complex128, (2, 2))
        # the Frobenius norm as np.linalg.norm forms it; NaN fails too
        d = (u @ u.conj().T - I2).ravel()
        if not math.sqrt(d.real @ d.real + d.imag @ d.imag) <= 1e-10:
            raise DomainError("operator factor is not unitary within 1e-10")
        object.__setattr__(self, "unitary", u)

    @cached_property
    def matrix(self) -> np.ndarray:
        return read_only(self.unitary @ filter_matrix(self.filter))


@dataclass(frozen=True, eq=False)
class LoccOutcome:
    """Post-selection result: normalized state plus success probability."""

    state: DensityMatrix
    probability: float


def filter_matrix(f: LocalFilter) -> np.ndarray:
    """The 2x2 positive matrix nu(1 + a n.sigma)."""
    n = f.axis
    return f.scale * (I2 + f.strength * (n[0] * SX + n[1] * SY + n[2] * SZ))


def trivial_operation() -> LocalOperation:
    identity = LocalFilter(strength=0.0, axis=_Z_AXIS, scale=1.0)
    return LocalOperation(unitary=I2.copy(), filter=identity)


def decompose_local_op(A: np.ndarray) -> LocalOperation:
    """Split an arbitrary 2x2 operator into unitary * filter.

    Uses the polar decomposition A = U P obtained from the SVD; the
    positive factor P = V diag(s1, s2) V+ maps to filter parameters
    nu = (s1+s2)/2, a = (s1-s2)/(s1+s2), with the axis taken from the
    dominant eigenvector. Raises :class:`~qlocc.errors.NotPhysical` when a
    singular value exceeds 1 (the operator could not be a measurement
    branch) and :class:`~qlocc.errors.DomainError` for the zero operator.
    Degenerate s1 = s2 yields a = 0 with the canonical z axis.
    """
    A = np.ascontiguousarray(A, dtype=np.complex128)
    if A.shape != (2, 2) or not all_finite(A):
        raise DomainError("operator must be a finite 2x2 matrix")
    w, s, vh = np.linalg.svd(A)
    s1, s2 = s.tolist()
    if s1 > 1.0 + 1e-12:
        raise NotPhysical(f"largest singular value {s1:.12g} exceeds 1")
    if s1 + s2 <= 0.0:
        raise DomainError("cannot decompose the zero operator")
    u = w @ vh  # A = (W V+)(V diag(s) V+) = unitary * positive factor
    nu = (s1 + s2) / 2.0
    a = (s1 - s2) / (s1 + s2)
    if a < 1e-14:
        a = 0.0
        axis = _Z_AXIS
    else:
        # the dominant eigenvector of the positive factor is (p*, q*), with
        # (p, q) the first row of V+; its Bloch vector, from Python scalars
        p, q = vh[0].tolist()
        pq = p * q.conjugate()
        axis = np.array([2.0 * pq.real, 2.0 * pq.imag, abs(p) ** 2 - abs(q) ** 2])
        axis /= math.sqrt(axis @ axis)
    f = LocalFilter(strength=a, axis=axis, scale=nu)
    return LocalOperation(unitary=u, filter=f)


def _conjugate(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(A x B) m (A x B)+ for 2x2 A, B and a 4x4 m."""
    k = kron(a, b)
    return k @ m @ k.conj().T


def apply_local_pair(rho: DensityMatrix, opA: LocalOperation, opB: LocalOperation) -> LoccOutcome:
    """Apply A x B to a shared state, post-selecting on branch success.

    probability = tr[(A+A x B+B) rho]; state = (A x B) rho (A x B)+ / probability.
    Raises :class:`~qlocc.errors.FilteredOut` when the probability is at or
    below ``TOL_PROB`` (the branch removes all particles).
    """
    raw = _conjugate(opA.matrix, opB.matrix, rho.mat)
    t = float(raw.trace().real)
    if t <= TOL_PROB:
        raise FilteredOut(f"branch probability {t:.3e} is at or below {TOL_PROB}")
    return LoccOutcome(state=DensityMatrix(raw / t), probability=t)


def closed_form_t(rep: PauliRep, fA: LocalFilter, fB: LocalFilter) -> float:
    """Branch probability from Pauli coefficients alone.

    t = mu^2 nu^2 [(1+a^2)(1+b^2) + 2a(1+b^2) n.alpha + 2b(1+a^2) m.beta
        + 4ab R_ij n_i m_j].
    """
    a, n, nu = fA.strength, fA.axis, fA.scale
    b, m, mu = fB.strength, fB.axis, fB.scale
    bracket = (
        (1.0 + a * a) * (1.0 + b * b)
        + 2.0 * a * (1.0 + b * b) * float(n @ rep.alpha)
        + 2.0 * b * (1.0 + a * a) * float(m @ rep.beta)
        + 4.0 * a * b * float(n @ rep.R @ m)
    )
    return (mu * mu) * (nu * nu) * bracket


def predicted_concurrence(c_in: float, fA: LocalFilter, fB: LocalFilter, t: float) -> float:
    """Concurrence after filtering: mu^2 nu^2 (1-a^2)(1-b^2) / t * c_in.
    Raises :class:`~qlocc.errors.DomainError` unless t is finite and > 0."""
    if not 0.0 < t < math.inf:  # NaN fails too
        raise DomainError(f"branch probability t={t} must be finite and positive")
    a, nu = fA.strength, fA.scale
    b, mu = fB.strength, fB.scale
    return (mu * mu) * (nu * nu) * (1.0 - a * a) * (1.0 - b * b) / t * c_in


@dataclass(frozen=True, eq=False)
class NormalForm(Record):
    """The filtering normal form of a state and the optimum it certifies.

    ``filter_a`` and ``filter_b`` are determinant-one 2x2 filters, held as
    read-only copies (a :class:`~qlocc.states.Record`), and ``state`` is
    (A x B) rho (A x B)+ normalized; ``trace`` is that product's trace
    relative to tr(rho). ``optimum`` = C(rho) / ``trace`` is the largest
    concurrence any local filter pair reaches from rho. ``residual`` is the
    largest deviation of either normalized marginal from 1/2 at the stop.
    """

    filter_a: np.ndarray
    filter_b: np.ndarray
    state: DensityMatrix
    trace: float
    optimum: float
    iterations: int
    residual: float

    def __post_init__(self):
        for name in ("filter_a", "filter_b"):
            value = ingest_array(f"NormalForm.{name}", getattr(self, name), np.complex128, (2, 2))
            object.__setattr__(self, name, value)


def _marginals(m: np.ndarray):
    r = m.reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3), np.trace(r, axis1=0, axis2=2)


def _balancing_filter(m: np.ndarray) -> np.ndarray:
    """m^(-1/2) scaled to determinant 1, for a 2x2 positive definite m.

    With D = det m and s = sqrt(D), sqrt(m) = (m + s 1) / sqrt(tr m + 2s)
    (Cayley-Hamilton), so the result is (adj m + s 1) / sqrt(s (tr m + 2s)).
    Raises :class:`~qlocc.errors.NotAttained` when m is singular to working
    precision.
    """
    tr = float(np.trace(m).real)
    det = float(np.linalg.det(m).real)
    if det <= np.finfo(float).eps * tr * tr:
        raise NotAttained(f"marginal is singular: determinant {det:.3e} at trace {tr:.3e}")
    s = np.sqrt(det)
    adj_plus = np.array([[m[1, 1] + s, -m[0, 1]], [-m[1, 0], m[0, 0] + s]])
    return adj_plus / np.sqrt(s * (tr + 2.0 * s))


def normal_form(rho: DensityMatrix) -> NormalForm:
    """Filter rho to its normal form, where both marginals are proportional
    to the identity (Verstraete, Dehaene, De Moor, PRA 64, 010101(R) (2001);
    Kent, Linden, Massar, PRL 83, 2656 (1999)).

    Alternates A <- rho_A^(-1/2) and B <- rho_B^(-1/2), each of determinant
    1, accumulating the filters and applying their product to the input
    afresh each iteration. A two-qubit state with both marginals proportional
    to 1 is Bell-diagonal up to local unitaries, so no filter raises its
    concurrence; determinant-one filters leave the unnormalized concurrence
    unchanged, so the optimum over all filter pairs is C(rho) / trace.
    Werner and Bell-diagonal input is its own normal form (0 iterations).

    Raises :class:`~qlocc.errors.NotAState` when rho fails
    :func:`~qlocc.states.validate`, and
    :class:`~qlocc.errors.NotAttained` when a marginal becomes singular or
    the residual is above ``TOL_MARGINAL`` after
    ``NF_MAX_ITER`` iterations: then no finite filter pair attains the
    optimum (for example, a product state, or a rank-2 mixture of a Bell
    state and a product state, whose filters diverge).
    """
    require_state(rho)
    fa = fb = I2  # NormalForm holds copies
    tr_in = float(np.trace(rho.mat).real)
    for it in range(NF_MAX_ITER + 1):
        cur = _conjugate(fa, fb, rho.mat)
        tr = float(np.trace(cur).real)
        ma, mb = _marginals(cur)
        residual = max(float(np.abs(ma / tr - I2 / 2).max()),
                       float(np.abs(mb / tr - I2 / 2).max()))
        if residual <= TOL_MARGINAL:
            trace = tr / tr_in
            return NormalForm(filter_a=fa, filter_b=fb, state=DensityMatrix(cur / tr),
                              trace=trace, optimum=concurrence(rho) / trace,
                              iterations=it, residual=residual)
        if it == NF_MAX_ITER:
            raise NotAttained(f"marginal residual {residual:.3e} after {it} iterations")
        fa = _balancing_filter(ma) @ fa
        fb = _balancing_filter(_marginals(_conjugate(fa, fb, rho.mat))[1]) @ fb
