"""Independent references the benchmark checks qlocc against.

Nothing here imports qlocc. Each function recomputes a quantity from its
definition by a different numerical route than the program takes:

- concurrence from the singular values of sqrt(rho) sqrt(rho~), whose squares
  are the eigenvalues of the Hermitian matrix sqrt(rho) rho~ sqrt(rho)
  (the program takes the general eigenvalues of rho rho~);
- the same spectrum at 40 significant digits with mpmath;
- a priori error bounds for both floating-point routes, so every check
  tolerance follows from the method and the state, not from a fitted number;
- the filtering normal form (Verstraete, Dehaene, De Moor, PRA 64, 010101(R)
  (2001)), whose concurrence is the largest any local filter pair reaches;
- the two-copy recurrence map, written out anew.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# Higham's gamma_n for the length-4 inner products of a 4x4 matrix product
C_PRODUCT = 4.0
# backward-error constant of the dense eigen and singular value solvers at
# n = 4, taken as n^2
C_SOLVER = 16.0
# the program's clamp policy, restated: eigenvalues of rho rho~ below
# ZERO_FLOOR * eps * (largest eigenvalue) are set to zero, and a concurrence
# below CONC_NOISE is snapped to zero
ZERO_FLOOR = 100.0
CONC_NOISE = 1e-14

_SY = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SY, _SY).real
PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    _SY,
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def werner(f: float) -> np.ndarray:
    s = np.outer(SINGLET, SINGLET)
    return (f * s + (1.0 - f) / 3.0 * (np.eye(4) - s)).astype(complex)


def bell_diagonal(p) -> np.ndarray:
    """Mixture of the Bell states Psi-, Psi+, Phi-, Phi+ with weights p."""
    r2 = 1.0 / math.sqrt(2.0)
    bell = np.array([[0, r2, -r2, 0], [0, r2, r2, 0], [r2, 0, 0, -r2], [r2, 0, 0, r2]])
    return sum(pi * np.outer(b, b) for pi, b in zip(p, bell)).astype(complex)


def spin_flip(m: np.ndarray) -> np.ndarray:
    return _YY @ m.conj() @ _YY


def _psd_roots(rho: np.ndarray):
    """sqrt(rho), its inverse and the eigenvalues of a full-rank state."""
    w, v = np.linalg.eigh(rho)
    if w[0] <= 0.0:
        raise ValueError("reference spectra need a full-rank state")
    s = (v * np.sqrt(w)) @ v.conj().T
    s_inv = (v / np.sqrt(w)) @ v.conj().T
    return s, s_inv, w


class Spectrum:
    """Lambda spectrum of a full-rank state by the singular value route.

    ``lambdas`` are descending. ``err_ref`` bounds the error of each of them.
    ``err_program`` bounds, per lambda, the error of the program's route:
    general eigenvalues of the rounded product rho rho~, clamped, square
    rooted. Each eigenvalue mu_i of rho rho~ moves by at most
    kappa_i * |E|, where E is the rounding of the product plus the
    eigensolver's backward error and kappa_i is the eigenvalue's condition
    number. Here kappa_i = |S u_i| |S^-1 u_i|, S = sqrt(rho) and u_i the
    i-th left singular vector of S S~, because rho rho~ = S (S S~)(S S~)^+ S^-1.
    Filtering makes rho ill-conditioned, so the bound grows as the branch
    probability of the filter falls.
    """

    def __init__(self, rho: np.ndarray):
        rho = np.asarray(rho, dtype=np.complex128)
        s, s_inv, w = _psd_roots(rho)
        g = s @ spin_flip(s)
        u, sig, _ = np.linalg.svd(g)
        self.lambdas = sig
        mu = sig * sig
        # S = sqrt(rho + E) with |E| <= C_SOLVER eps |rho|; the derivative of
        # the square root at rho is at most 1 / (2 sqrt(w_min))
        norm_s = math.sqrt(w[-1])
        self._w_min, self._norm_s = float(w[0]), norm_s
        ds = C_SOLVER * EPS * w[-1] / (2.0 * math.sqrt(w[0])) + C_PRODUCT * EPS * norm_s
        self.err_ref = 2.0 * ds * norm_s + (C_PRODUCT + C_SOLVER) * EPS * norm_s * norm_s
        abs_product = np.linalg.norm(np.abs(rho) @ np.abs(spin_flip(rho)), 2)
        dm = C_PRODUCT * EPS * abs_product + C_SOLVER * EPS * np.linalg.norm(rho @ spin_flip(rho))
        kappa = np.linalg.norm(s @ u, axis=0) * np.linalg.norm(s_inv @ u, axis=0)
        dmu = kappa * dm + 2.0 * sig * self.err_ref
        floor = ZERO_FLOOR * EPS * (mu[0] + dmu[0])
        self.err_program = np.where(
            mu - dmu < floor, sig, sig - np.sqrt(np.maximum(mu - dmu, 0.0))
        )

    @property
    def concurrence(self) -> float:
        lam = self.lambdas
        return max(0.0, float(lam[0] - lam[1:].sum()))

    @property
    def conc_tol_program(self) -> float:
        """Largest |C_program - C_true| the program's route can show here."""
        return float(self.err_program.sum()) + CONC_NOISE

    @property
    def conc_tol_ref(self) -> float:
        return 4.0 * self.err_ref

    def lambda_shift(self, d_rho: float) -> float:
        """Largest change of any lambda when rho moves by d_rho in the 2-norm.

        sqrt(rho) moves by at most min(d / (2 sqrt(w_min)), sqrt(d)); each
        singular value of S S~ then moves by at most 2 |S| times that.
        """
        ds = min(d_rho / (2.0 * math.sqrt(self._w_min)), math.sqrt(d_rho))
        return 2.0 * self._norm_s * ds

    def conc_shift(self, d_rho: float) -> float:
        return 4.0 * self.lambda_shift(d_rho)


def mp_concurrence(rho: np.ndarray, dps: int = 40) -> float:
    """Concurrence from the eigenvalues of rho rho~ at ``dps`` digits, taking
    the floating-point entries of rho as exact."""
    import mpmath

    with mpmath.workdps(dps):
        m = mpmath.matrix([[mpmath.mpc(float(z.real), float(z.imag)) for z in row] for row in rho])
        yy = mpmath.matrix(_YY.tolist())
        ev = mpmath.eig(m * (yy * m.conjugate() * yy), left=False, right=False)
        lam = sorted((mpmath.sqrt(max(z.real, 0)) for z in ev), reverse=True)
        return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def eof(c: float) -> float:
    c = min(1.0, max(0.0, c))
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c)))


def filter_2x2(strength: float, axis, scale: float) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    return scale * (np.eye(2) + strength * sum(ni * p for ni, p in zip(n, PAULI)))


def apply_pair(rho: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(A x B) rho (A x B)^+ normalised, its trace t, and bounds on how far
    any other rounding of the same products can move the state (2-norm) and t.

    Each entry of K rho K^+ is a sum of 16 products, so two roundings of it
    differ by at most 2 gamma_16 (|K| |rho| |K^+|)_ij, with the filters' own
    construction adding a few eps more.
    """
    k = np.kron(a, b)
    raw = k @ rho @ k.conj().T
    t = float(np.trace(raw).real)
    p = np.abs(k) @ np.abs(rho) @ np.abs(k).T
    gamma = 2.0 * (2.0 * C_PRODUCT + 8.0) * EPS
    d_t = gamma * float(np.trace(p))
    d_state = (gamma * float(np.linalg.norm(p, 2)) + d_t) / t
    return raw / t, t, d_state, d_t


def pauli_coefficients(rho: np.ndarray):
    """alpha_i = tr(rho s_i x 1), beta_j = tr(rho 1 x s_j), R_ij = tr(rho s_i x s_j),
    by contracting the reshaped state with the Pauli matrices."""
    r = rho.reshape(2, 2, 2, 2)  # indices: a_row, b_row, a_col, b_col
    ps = np.stack(PAULI)
    alpha = np.einsum("abcb,kca->k", r, ps).real
    beta = np.einsum("abad,kdb->k", r, ps).real
    corr = np.einsum("abcd,ica,jdb->ij", r, ps, ps).real
    return alpha, beta, corr


def fidelity(rho: np.ndarray) -> float:
    return float((SINGLET @ rho @ SINGLET).real)


def _marginals(rho: np.ndarray):
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r), np.einsum("abad->bd", r)


def _inv_sqrt_det1(m: np.ndarray) -> np.ndarray:
    """m^(-1/2) scaled to determinant 1, for a 2x2 positive definite m."""
    w, v = np.linalg.eigh(m)
    return (v * (math.sqrt(math.sqrt(w[0] * w[1])) / np.sqrt(w))) @ v.conj().T


def normal_form_optimum(rho: np.ndarray, c_in: float, max_iter: int = 10_000):
    """Largest concurrence any local filter pair reaches from rho.

    Alternates A <- rho_A^(-1/2), B <- rho_B^(-1/2), each of determinant 1,
    until both marginals are proportional to the identity. Determinant-one
    filters scale the unnormalised concurrence by 1, so the optimum is
    c_in / tr(rho_final). Returns the optimum and a bound on its error: the
    marginal residual at the stop plus a few eps per iteration for rounding.
    """
    cur = np.asarray(rho, dtype=np.complex128)
    for it in range(max_iter):
        ra, rb = _marginals(cur)
        tr = float(np.trace(ra).real)
        res = max(np.abs(ra / tr - np.eye(2) / 2).max(), np.abs(rb / tr - np.eye(2) / 2).max())
        if res <= 1e-14:
            opt = c_in / tr
            return opt, opt * (res + 8.0 * C_PRODUCT * EPS * (it + 1))
        a = _inv_sqrt_det1(ra)
        k = np.kron(a, np.eye(2))
        cur = k @ cur @ k.conj().T
        b = _inv_sqrt_det1(_marginals(cur)[1])
        k = np.kron(np.eye(2), b)
        cur = k @ cur @ k.conj().T
    raise RuntimeError("filtering normal form did not converge")


def recurrence_map(f: float):
    """One two-copy recurrence step on Werner pairs: (F', success probability)."""
    r = (1.0 - f) / 3.0
    p = f * f + 2.0 * f * r + 5.0 * r * r
    return (f * f + r * r) / p, p
