"""Pure-Python (numpy) implementation of the hot kernels.

Selected at import time when the compiled core is unavailable or when
``QLOCC_PURE_PYTHON`` is set. Also the one route to the lambda spectrum for
the whole package: with rho = X X+, the lambdas are the singular values of
Wootters' tau = X^T (sy x sy) X (PRL 80, 2245 (1998)), since
tau+ tau = X+ rho~ X has the eigenvalues of rho * rho~. The compiled core
still takes the general eigenvalues of rho * rho~.
"""

from __future__ import annotations

import os

import numpy as np

from qlocc.errors import ConvergenceFailure, SpectrumError

BACKEND_NAME = "python"

# Clamp policy. A state eigenvalue below -NEG_TOL signals a bug rather than
# conditioning. State eigenvalues below the eigensolver's resolution
# (ZERO_FLOOR_FACTOR * eps relative to the largest) are set to zero, which
# keeps exact zeros from turning into sqrt(eps) noise in the root.
NEG_TOL = 1e-9
ZERO_FLOOR_FACTOR = 100.0
# concurrence below this is rounding noise around zero; snapped to zero
# just as max(0, .) snaps the negative side
CONC_NOISE = 1e-14
_EPS = float(np.finfo(np.float64).eps)

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_PAULI = np.stack([_SX, _SY, _SZ])
_I2 = np.eye(2, dtype=np.complex128)
# kron(sy, sy) is the real antidiagonal (-1, 1, 1, -1): applied to X it
# reverses the rows and signs them
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]
# l1 - l2 - l3 - l4 as a matrix product; the trailing axis it keeps lets
# one in-place noise snap serve a single spectrum and a stack alike
_CONC_SIGNS = np.array([[1.0], [-1.0], [-1.0], [-1.0]])
# filter_gain_batch evaluates its points in chunks of this many, so the
# temporaries of one chunk stay within a few MB
CHUNK = 4096


def eigvals4x4(m):
    """Unordered eigenvalues of a 4x4 complex matrix."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    try:
        return np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at 4x4
        raise ConvergenceFailure(str(exc)) from exc


def state_root(rho):
    """X with rho = X X+, from the Hermitian eigendecomposition of rho."""
    try:
        w, v = np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at 4x4
        raise ConvergenceFailure(str(exc)) from exc
    if w[0] < -NEG_TOL:
        raise SpectrumError(f"state eigenvalue {w[0]:.3e} below -{NEG_TOL}")
    w[w < ZERO_FLOOR_FACTOR * _EPS * w[-1]] = 0.0
    return v * np.sqrt(w)


def lambdas(x):
    """Descending lambda spectra of roots X (one 4x4 root or a stack)."""
    tau = np.swapaxes(x, -1, -2) @ (_YY_SIGNS * x[..., ::-1, :])
    return np.linalg.svd(tau, compute_uv=False)


def concurrence_from_lambdas(lam):
    """l1 - l2 - l3 - l4, with noise below CONC_NOISE set to 0, capped at 1."""
    c = np.minimum(1.0, lam @ _CONC_SIGNS)
    c[c < CONC_NOISE] = 0.0
    return c[..., 0]


def concurrence4(rho):
    """Concurrence of a normalized two-qubit density matrix (4x4 array)."""
    return float(concurrence_from_lambdas(lambdas(state_root(rho))))


def _filter_mats(a, n):
    """Stack of 2x2 filters (1 + a n.sigma)/(1 + a) for strengths a, axes n."""
    nu = 1.0 / (1.0 + a)
    ns = np.einsum("nk,kij->nij", n, _PAULI)
    return nu[:, None, None] * (_I2[None, :, :] + a[:, None, None] * ns)


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def filter_gain_batch(rho, c_in, a, n, b, m, tol_prob=1e-14):
    """Concurrence gain and success probability for a batch of filter pairs.

    ``a`` and ``b`` hold N strengths, ``n`` and ``m`` N axes as (N, 3)
    arrays; mismatched leading dimensions or axis arrays of another shape
    raise ``ValueError``. The scale of each filter is pinned to its maximum
    1/(1+strength); it cancels between the transformed state and its
    normalization, so the gain does not depend on it. Entries whose branch
    probability falls at or below ``tol_prob`` get gain -inf (the branch
    filters out).

    The points are evaluated in chunks of ``CHUNK``. A batch of two or more
    chunks is spread over a thread pool with one worker per usable CPU (at
    most one per chunk); numpy's kernels release the GIL, so the chunks run
    in parallel. Each point's result is the same whichever chunk or thread
    evaluates it.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = np.atleast_2d(np.asarray(n, dtype=float))
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not a.shape == b.shape == (len(n),) == (len(m),):
        raise ValueError("parameter arrays must share their leading dimension")
    if n.shape[1:] != (3,) or m.shape[1:] != (3,):
        raise ValueError("axis arrays must have shape (N, 3)")
    x = state_root(rho)
    gains = np.empty(len(a))
    t = np.empty(len(a))

    def run(lo):
        s = slice(lo, lo + CHUNK)
        fa = _filter_mats(a[s], n[s])
        fb = _filter_mats(b[s], m[s])
        K = np.einsum("nab,ncd->nacbd", fa, fb).reshape(-1, 4, 4)
        # filters are Hermitian, so K X is a root of the transformed state
        kx = K @ x
        tc = t[s]
        tc[:] = (kx.real**2 + kx.imag**2).sum(axis=(1, 2))
        gc = gains[s]
        gc[:] = -np.inf
        ok = tc > tol_prob
        if ok.any():
            gc[ok] = concurrence_from_lambdas(lambdas(kx[ok]) / tc[ok, None]) - c_in

    starts = range(0, len(a), CHUNK)
    workers = min(_usable_cpus(), len(starts))
    if workers < 2:
        for lo in starts:
            run(lo)
    else:
        # imported here, not at module level: it would add about 8 ms to
        # every import qlocc, and a pool per call leaves nothing behind
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, starts))
    return gains, t


def filter_gain_single(rho, c_in, a, n, b, m, tol_prob=1e-14):
    """Single-point version of :func:`filter_gain_batch`."""
    gains, t = filter_gain_batch(rho, c_in, [a], [n], [b], [m], tol_prob)
    return float(gains[0]), float(t[0])
