"""Two-copy recurrence purification, the collective contrast.

A joint step on two shared Werner pairs (bilateral CNOT, measurement of
the second pair, keep on agreeing outcomes, twirl back to Werner form)
strictly increases fidelity everywhere on (1/2, 1), which no single-copy
operation can do. Both unitaries of the step, the bilateral CNOT and the
map to isotropic form, are signed basis permutations, read from their
matrices (``_BILATERAL_CNOT``, ``_TO_PHI``) into index tables at import, so
the step reads the entries of the 16x16 state it needs as products of two
entries of the 4x4 one, with the bits of the literal 16x16 simulation; the
tests hold it to that simulation and to the closed-form recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qlocc.errors import DomainError, TargetNotReached
from qlocc.states import BELL_AMPS, I2, SY, integer_in_range, make_werner, real_number

_PHI_PLUS_PROJ = np.outer(BELL_AMPS[3], BELL_AMPS[3].conj())
# maps the singlet to (a phase times) Phi+, taking Werner to isotropic form
_TO_PHI = np.kron(I2, SY)


def _cnot4(ctrl: int, tgt: int) -> np.ndarray:
    """CNOT on two of four qubits; qubit 0 is the most significant bit."""
    u = np.zeros((16, 16), dtype=np.complex128)
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        if bits[ctrl]:
            bits[tgt] ^= 1
        out = sum(b << (3 - q) for q, b in enumerate(bits))
        u[out, idx] = 1.0
    return u


_BILATERAL_CNOT = _cnot4(0, 2) @ _cnot4(1, 3)


def _signed_permutation(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, s) of a matrix u whose row i has one nonzero entry, s[i] = u[i, p[i]]."""
    p = np.nonzero(u)[1]
    return p, u[np.arange(len(p)), p]


# Both unitaries of the step are signed permutations: conjugating by one
# moves each entry and multiplies it by a unit phase, both exact, so only
# the sign of an exact zero can differ from the matrix products.
# Conjugation by _TO_PHI takes entry (i, j) from (p[i], p[j]), times the
# real sign s[i] conj(s[j]).
_p, _s = _signed_permutation(_TO_PHI)
_PHI_INDEX = (4 * _p[:, None] + _p[None, :]).ravel()
_PHI_SIGNS = np.outer(_s, _s.conj()).real.ravel()
# Entry (i, j) of CNOT kron(chi, chi) CNOT+ is kron's entry (c[i], c[j]),
# chi[h[i], h[j]] chi[l[i], l[j]] with (h, l) = divmod(c, 4): the product
# of chi's flat entries _LEFT[i, j] and _RIGHT[i, j].
_CNOT_INDEX = _signed_permutation(_BILATERAL_CNOT)[0]
_h, _l = np.divmod(_CNOT_INDEX, 4)
_LEFT = 4 * _h[:, None] + _h[None, :]
_RIGHT = 4 * _l[:, None] + _l[None, :]

_MASK_00 = np.array([1.0 if (i >> 1) & 1 == 0 and i & 1 == 0 else 0.0 for i in range(16)])
_MASK_11 = np.array([1.0 if (i >> 1) & 1 == 1 and i & 1 == 1 else 0.0 for i in range(16)])
# the diagonal entries kept when both second-pair outcomes agree
_KEEP = _MASK_00 + _MASK_11
# the entries a step reads, as positions in _LEFT and _RIGHT: the 16
# diagonal ones, then the first pair's 4x4 block under outcomes 00, then 11
_BLOCKS = [np.ix_(k, k) for k in (np.flatnonzero(_MASK_00), np.flatnonzero(_MASK_11))]
_READ_LEFT, _READ_RIGHT = (
    np.concatenate([np.diagonal(t), *(t[b].ravel() for b in _BLOCKS)]) for t in (_LEFT, _RIGHT))


def collective_step(F: float) -> tuple[float, float]:
    """One recurrence step on a pair of Werner states (Bennett et al.,
    PRL 76, 722 (1996)).

    On qubit order (A1, B1, A2, B2), the bilateral CNOT (A1->A2, B1->B2)
    acts on W(F) x W(F), the second pair is measured in the computational
    basis, the first pair is kept when the outcomes agree, and it is
    twirled back to Werner form. Returns the new fidelity and the success
    probability; the fidelity strictly increases on (1/2, 1).

    The CNOT is a basis permutation, read from ``_BILATERAL_CNOT``, so each
    entry of the permuted tensor square is one product of two entries of
    the isotropic state, as ``kron`` forms it. The success probability sums
    the kept diagonal entries in the order ``np.trace`` sums them, and the
    first pair's state is the sum of its two kept 4x4 blocks: the 16x16
    products are never formed, and every output bit is theirs.
    """
    F = real_number("recurrence input fidelity F", F)
    if not 0.5 < F < 1.0:
        raise DomainError(f"recurrence input fidelity F={F} must lie in (1/2, 1)")
    # isotropic, Phi+ overlap F
    chi = make_werner(F).mat.ravel()[_PHI_INDEX] * _PHI_SIGNS
    entries = chi[_READ_LEFT] * chi[_READ_RIGHT]
    p_succ = float((entries[:16] * _KEEP).sum().real)
    reduced = (entries[16:32] + entries[32:]).reshape(4, 4) / p_succ
    f_prime = float((reduced @ _PHI_PLUS_PROJ).trace().real)
    return f_prime, p_succ


@dataclass(frozen=True)
class RecurrenceStep:
    step: int
    fidelity_in: float
    fidelity_out: float
    p_succ: float


@dataclass(frozen=True)
class RecurrenceTrace:
    """Successive recurrence steps from a start fidelity toward a target."""

    steps: tuple[RecurrenceStep, ...] = field(default_factory=tuple)

    @property
    def final_fidelity(self) -> float | None:
        return self.steps[-1].fidelity_out if self.steps else None


def iterate_to_target(F0: float, F_target: float, max_steps: int) -> RecurrenceTrace:
    """Repeat the recurrence until the fidelity reaches the target.

    Raises :class:`~qlocc.errors.TargetNotReached` (with the trace
    attached) when ``max_steps`` runs out first. A start at or above the
    target returns an empty trace.
    """
    F0, F_target = real_number("start fidelity F0", F0), real_number("target fidelity", F_target)
    if not 0.5 < F0 < 1.0:
        raise DomainError(f"start fidelity F0={F0} must lie in (1/2, 1)")
    if not 0.5 < F_target < 1.0:
        raise DomainError(f"target fidelity {F_target} must lie in (1/2, 1)")
    max_steps = integer_in_range("max_steps", max_steps, 0)
    steps: list[RecurrenceStep] = []
    f = F0
    while f < F_target and len(steps) < max_steps:
        f_next, p = collective_step(f)
        steps.append(RecurrenceStep(step=len(steps), fidelity_in=f,
                                    fidelity_out=f_next, p_succ=p))
        f = f_next
    trace = RecurrenceTrace(steps=tuple(steps))
    if f < F_target:
        raise TargetNotReached(
            f"fidelity {f:.6f} below target {F_target} after {len(steps)} steps", trace
        )
    return trace


def trace_to_csv(trace: RecurrenceTrace) -> str:
    """CSV with header: step, F, F_prime, p_succ."""
    lines = ["step,F,F_prime,p_succ"]
    for s in trace.steps:
        lines.append(f"{s.step},{s.fidelity_in!r},{s.fidelity_out!r},{s.p_succ!r}")
    return "\n".join(lines) + "\n"
