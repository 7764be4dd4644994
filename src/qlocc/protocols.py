"""Two-copy recurrence purification, the collective contrast.

A joint step on two shared Werner pairs (bilateral CNOT, measurement of
the second pair, keep on agreeing outcomes, twirl back to Werner form)
strictly increases fidelity everywhere on (1/2, 1), which no single-copy
operation can do. The step is realized as a literal 16x16 simulation; a
closed-form recurrence implemented independently cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qlocc.errors import DomainError, TargetNotReached
from qlocc.states import BELL_AMPS, I2, SY, make_werner

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

_MASK_00 = np.array([1.0 if (i >> 1) & 1 == 0 and i & 1 == 0 else 0.0 for i in range(16)])
_MASK_11 = np.array([1.0 if (i >> 1) & 1 == 1 and i & 1 == 1 else 0.0 for i in range(16)])


def collective_step(F: float) -> tuple[float, float]:
    """One recurrence step on a pair of Werner states, by 16x16 simulation.

    Builds W(F) x W(F) on qubit order (A1, B1, A2, B2), applies the
    bilateral CNOT (A1->A2, B1->B2), measures the second pair in the
    computational basis, keeps the first pair when the outcomes agree,
    twirls it back to Werner form. Returns the new fidelity and the
    success probability; the fidelity strictly increases on (1/2, 1).
    """
    F = float(F)
    if not 0.5 < F < 1.0:
        raise DomainError(f"recurrence input fidelity F={F} must lie in (1/2, 1)")
    chi = _TO_PHI @ make_werner(F).mat @ _TO_PHI.conj().T  # isotropic, Phi+ overlap F
    total = np.kron(chi, chi)
    total = _BILATERAL_CNOT @ total @ _BILATERAL_CNOT.conj().T
    kept = total * np.outer(_MASK_00, _MASK_00) + total * np.outer(_MASK_11, _MASK_11)
    p_succ = float(np.trace(kept).real)
    reduced = np.einsum("abcdefcd->abef", kept.reshape([2] * 8)).reshape(4, 4) / p_succ
    f_prime = float(np.trace(reduced @ _PHI_PLUS_PROJ).real)
    return f_prime, p_succ


def collective_step_closed_form(F: float) -> tuple[float, float]:
    """Independent closed form of the same recurrence step."""
    F = float(F)
    if not 0.5 < F < 1.0:
        raise DomainError(f"recurrence input fidelity F={F} must lie in (1/2, 1)")
    rest = (1.0 - F) / 3.0
    p_succ = F * F + 2.0 * F * rest + 5.0 * rest * rest
    f_prime = (F * F + rest * rest) / p_succ
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
    F0, F_target = float(F0), float(F_target)
    if not 0.5 < F0 < 1.0:
        raise DomainError(f"start fidelity F0={F0} must lie in (1/2, 1)")
    if not 0.5 < F_target < 1.0:
        raise DomainError(f"target fidelity {F_target} must lie in (1/2, 1)")
    if max_steps < 0:
        raise DomainError("max_steps must be nonnegative")
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
