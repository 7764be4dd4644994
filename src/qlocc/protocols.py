"""Two-copy recurrence purification, the collective contrast.

A joint step on two shared Werner pairs (bilateral CNOT, measurement of
the second pair, keep on agreeing outcomes, twirl back to Werner form)
strictly increases fidelity everywhere on (1/2, 1), which no single-copy
operation can do. The bilateral CNOT is a basis permutation, so the step
is a few elementwise products of the 4x4 isotropic state; the tests hold
it bit for bit to the literal 16x16 simulation and to the closed-form
recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from qlocc.errors import DomainError, TargetNotReached
from qlocc.states import BELL_AMPS, integer_in_range, real_number

_PHI_PLUS_PROJ = np.outer(BELL_AMPS[3], BELL_AMPS[3].conj())


def collective_step(F: float) -> tuple[float, float]:
    """One recurrence step on a pair of Werner states (Bennett et al.,
    PRL 76, 722 (1996)).

    On qubit order (A1, B1, A2, B2), the bilateral CNOT (A1->A2, B1->B2)
    acts on W(F) x W(F), the second pair is measured in the computational
    basis, the first pair is kept when the outcomes agree, and it is
    twirled back to Werner form. Returns the new fidelity and the success
    probability; the fidelity strictly increases on (1/2, 1).

    Bob's 1 x sy takes W(F) to chi, the isotropic state with Phi+ overlap
    F. On |i, j>, with i and j the two pairs' 2-bit indices, the CNOT gives
    |i, j xor i>, so the kept outcomes j = 00 and 11 leave the first pair in
    chi * chi + chi * chi[::-1, ::-1] (elementwise), whose trace is the
    success probability. No 16x16 array is formed; the tests hold both
    outputs to the bits of the literal 16x16 simulation.
    """
    F = real_number("recurrence input fidelity F", F)
    if not 0.5 < F < 1.0:
        raise DomainError(f"recurrence input fidelity F={F} must lie in (1/2, 1)")
    chi = F * _PHI_PLUS_PROJ + (1.0 - F) / 3.0 * (np.eye(4) - _PHI_PLUS_PROJ)
    kept = chi * chi + chi * chi[::-1, ::-1]
    p_succ = float(kept.trace().real)
    f_prime = float((kept / p_succ @ _PHI_PLUS_PROJ).trace().real)
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
