"""Spin-flip operation, concurrence, entanglement of formation, invariants.

The spin flip sends rho to (sy x sy) conj(rho) (sy x sy), with conjugation
taken in the basis where sz is diagonal. The descending square roots of the
eigenvalues of rho * rho~ form the lambda spectrum, computed by the
kernels' singular-value route (``qlocc._kernels``); concurrence is
max(0, l1 - l2 - l3 - l4) and the entanglement of formation follows from it
through the binary entropy. Ratios of the lambdas are unchanged by any
invertible local filtering, which makes them single-copy invariants.

A :class:`~qlocc.states.DensityMatrix` holds a read-only copy of its matrix
and computes its spectrum once (``DensityMatrix.lambdas``), and its
concurrence once from that spectrum (``DensityMatrix.concurrence``); the
spectrum, the concurrence, the entanglement of formation and the ratios of
one state all read these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qlocc.states import SY, DensityMatrix

_YY = np.kron(SY, SY)


@dataclass(frozen=True)
class LambdaSpectrum:
    """Four nonnegative reals, descending; squares are eigenvalues of rho*rho~."""

    lambdas: tuple[float, float, float, float]


@dataclass(frozen=True)
class InvariantRatios:
    """(l2/l1, l3/l1, l4/l1); zeros when the whole spectrum vanishes."""

    ratios: tuple[float, float, float]


def spin_flip_operator(o: np.ndarray) -> np.ndarray:
    """Tilde of an operator: sy O* sy for 2x2, (sy x sy) O* (sy x sy) for 4x4."""
    o = np.asarray(o, dtype=np.complex128)
    if o.shape == (2, 2):
        return SY @ o.conj() @ SY
    if o.shape == (4, 4):
        return _YY @ o.conj() @ _YY
    raise ValueError("expected a 2x2 or 4x4 operator")


def spin_flip(rho: DensityMatrix) -> DensityMatrix:
    """Spin-flipped state rho~; again a valid density matrix."""
    return DensityMatrix(spin_flip_operator(rho.mat))


def lambda_spectrum(rho: DensityMatrix) -> LambdaSpectrum:
    """Descending square roots of the eigenvalues of rho * rho~.

    Taken as the singular values of tau = X^T (sy x sy) X with rho = X X+.
    State eigenvalues below the eigensolver's resolution are zero, so exact
    zeros do not pick up sqrt(eps) noise; an eigenvalue below -1e-9 raises
    :class:`~qlocc.errors.SpectrumError`.
    """
    return LambdaSpectrum(tuple(rho.lambdas.tolist()))


def concurrence(rho: DensityMatrix) -> float:
    """max(0, l1 - l2 - l3 - l4) from the lambda spectrum; in [0, 1].

    Values below the rounding noise scale are returned as exactly zero,
    the positive-side counterpart of the max with zero. Read from the
    state's cache (``DensityMatrix.concurrence``), so a state's concurrence
    is computed once.
    """
    return rho.concurrence


def binary_entropy(p: float) -> float:
    """-p log2 p - (1-p) log2 (1-p), with the endpoint limit value 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of concurrence."""
    c = min(1.0, max(0.0, c))
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c)))


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """Entanglement of formation in [0, 1]; strictly increasing in concurrence."""
    return eof_from_concurrence(concurrence(rho))


def invariant_ratios(rho: DensityMatrix) -> InvariantRatios:
    """Lambda ratios normalized by the largest entry."""
    lams = rho.lambdas.tolist()
    if lams[0] == 0.0:
        return InvariantRatios((0.0, 0.0, 0.0))
    return InvariantRatios(tuple(l / lams[0] for l in lams[1:]))
