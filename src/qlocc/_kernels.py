"""The numpy kernels: the lambda spectrum, concurrence and the batched gain.

The one route to the lambda spectrum for the whole package: with
rho = X X+, the lambdas are the singular values of Wootters'
tau = X^T (sy x sy) X (PRL 80, 2245 (1998)), since tau+ tau = X+ rho~ X
has the eigenvalues of rho * rho~.

Two solvers take those singular values, behind one root (``state_root``),
one tau and one clamp policy (``concurrence_from_lambdas``). LAPACK's
``svd`` (``_svd_values``) serves single states (``lambdas``) and the batched
gain kernel's chunks of fewer than ``JACOBI_MIN_POINTS`` points. The kernel
holds its points batch-last, as (4, 4, N) stacks, and solves a longer chunk
all at once by one-sided Jacobi (``tau_singular_values``). The two solvers
agree within a few eps * tr(rho).
"""

from __future__ import annotations

import os

import numpy as np

from qlocc.errors import ConvergenceFailure, SpectrumError

# the name manifests record for these kernels
BACKEND = "python"

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

# kron(sy, sy) is the real antidiagonal (-1, 1, 1, -1): applied to X it
# reverses the rows and signs them
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]
# filter_gain_batch evaluates its points in chunks of this many, so the
# temporaries of one chunk stay within a few MB
CHUNK = 4096
# filter_gain_batch solves a chunk of fewer points than this by LAPACK's
# svd, one 4x4 matrix at a time, and a longer one by one-sided Jacobi. A
# Jacobi solve is a few hundred numpy calls whatever its length (0.7 ms at
# one point), LAPACK about 5.3 us per point; both take 1.4 ms at 256 points
# (shared 2-CPU Xeon virtual machine, numpy 2.4).
JACOBI_MIN_POINTS = 256
# One-sided Jacobi: a column pair is rotated while |<p, q>| exceeds
# JACOBI_TOL * |p| |q| (four rows, so about the rounding of the inner
# product); a stack that still rotates after JACOBI_MAX_SWEEPS sweeps raises
# ConvergenceFailure. 4x4 stacks settle in four or five sweeps.
JACOBI_TOL = 4.0 * _EPS
JACOBI_MAX_SWEEPS = 30
# a sweep is three rounds of two disjoint column pairs, (0,1)(2,3),
# (0,2)(1,3) and (0,3)(1,2), given as (p columns, q columns) slices
_JACOBI_ROUNDS = (
    (slice(0, 4, 2), slice(1, 4, 2)),
    (slice(0, 2), slice(2, 4)),
    (slice(0, 2), slice(3, 1, -1)),
)


def eigvals4x4(m):
    """Unordered eigenvalues of a 4x4 complex matrix, by LAPACK.

    No package code calls it: the lambda spectrum goes through tau's
    singular values. It stays only because the benchmark's tracer
    (``perfbench/tracing.py``) looks it up by name, and goes with the
    figure that times it.
    """
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


def _svd_values(tau):
    """Descending singular values of a (..., 4, 4) stack, by LAPACK ``svd``.

    The one LAPACK call site for tau's singular values, shared by
    :func:`lambdas` and the batched kernel; its ``LinAlgError`` becomes
    :class:`~qlocc.errors.ConvergenceFailure`.
    """
    try:
        return np.linalg.svd(tau, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def lambdas(x):
    """Descending lambda spectrum of a root X, the singular values of tau.

    Serves single states; a (..., 4, 4) stack of roots works too. Solved by
    :func:`_svd_values`, as are the batched kernel's chunks of fewer than
    ``JACOBI_MIN_POINTS`` points; longer chunks go to
    :func:`tau_singular_values`.
    """
    tau = np.swapaxes(x, -1, -2) @ (_YY_SIGNS * x[..., ::-1, :])
    return _svd_values(tau)


def concurrence_from_lambdas(lam):
    """l1 - l2 - l3 - l4, with noise below CONC_NOISE set to 0, capped at 1.

    Elementwise, so a spectrum's result does not depend on the stack it
    comes in (a matrix product would reach BLAS, whose rounding does). The
    trailing axis the slices keep lets one in-place noise snap serve a
    single spectrum and a stack alike.
    """
    c = lam[..., :1] - lam[..., 1:2] - lam[..., 2:3] - lam[..., 3:]
    np.minimum(1.0, c, out=c)
    c[c < CONC_NOISE] = 0.0
    return c[..., 0]


def concurrence4(rho):
    """Concurrence of a normalized two-qubit density matrix (4x4 array)."""
    return float(concurrence_from_lambdas(lambdas(state_root(rho))))


def tau_singular_values(tau):
    """Descending singular values of a (4, 4, N) stack of matrices, as (N, 4).

    One-sided (Hestenes) Jacobi, vectorized over the stack (Demmel and
    Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)): plane rotations
    from the right orthogonalize the columns, whose norms are then the
    singular values, each within a few eps of the largest. The rotations
    overwrite ``tau``. Squared column norms are taken afresh at the start of
    each sweep and updated incrementally within it. A point whose pair is
    already orthogonal gets the exact identity (cosine 1, sine 0), so no
    result depends on the other points of the stack. The solve stops after
    a sweep without rotation and raises ``ConvergenceFailure`` after
    ``JACOBI_MAX_SWEEPS`` sweeps.
    """
    for _ in range(JACOBI_MAX_SWEEPS):
        norms = (tau.real**2 + tau.imag**2).sum(axis=0)
        rotated = False
        for pc, qc in _JACOBI_ROUNDS:
            p, q = tau[:, pc], tau[:, qc]
            al, be = norms[pc], norms[qc]
            g = (p.conj() * q).sum(axis=0)
            ga = np.abs(g)
            rot = ga > JACOBI_TOL * np.sqrt(al * be)
            if not rot.any():
                continue
            rotated = True
            # the rotation with cosine c and sine c t e, e = g/|g|, zeroes
            # <p, q>; rot as the numerator makes t exactly 0 where none is due
            gs = np.where(rot, ga, 1.0)
            zeta = (be - al) / (2.0 * gs)
            t = np.copysign(rot / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)), zeta)
            c = 1.0 / np.sqrt(1.0 + t * t)
            sig = (c * t / gs) * g.conj()
            c = c.astype(np.complex128)
            sq = sig * q
            q *= c
            q += sig.conj() * p
            p *= c
            p -= sq
            tg = t * ga
            # rounding can take a vanishing column's norm below zero
            np.maximum(al - tg, 0.0, out=al)
            be += tg
        if not rotated:
            norms = np.sqrt(norms)
            norms.sort(axis=0)
            return norms[::-1].T
    raise ConvergenceFailure(f"one-sided Jacobi still rotating after {JACOBI_MAX_SWEEPS} sweeps")


def _filters(s, v):
    """(2, 2, N) stack of filters (1 + s v.sigma)/(1 + s), built elementwise."""
    nu = 1.0 / (1.0 + s)
    snu = s * nu
    f = np.empty((2, 2, len(s)), dtype=np.complex128)
    f[0, 0] = nu + snu * v[:, 2]
    f[1, 1] = nu - snu * v[:, 2]
    f[0, 1] = snu * (v[:, 0] - 1j * v[:, 1])
    f[1, 0] = snu * (v[:, 0] + 1j * v[:, 1])
    return f


def _filtered_roots(x, a, n, b, m):
    """(4, 4, N) roots (A x B) X of the filtered states, X as (2, 2, 4).

    The filters are Hermitian, so (A x B) X is a root of the transformed
    state. X's rows are (Alice, Bob) index pairs, so B acts on axis 1 and
    A on axis 0 of the (2, 2, 4, N) product.
    """
    fa = _filters(a, n)
    fb = _filters(b, m)
    y = x[:, None, 0, :, None] * fb[:, 0, None] + x[:, None, 1, :, None] * fb[:, 1, None]
    return (fa[:, 0, None, None] * y[0] + fa[:, 1, None, None] * y[1]).reshape(4, 4, -1)


def _squared_norms(z):
    """(N,) squared norms of a (4, 4, N) stack.

    Summed by halving the 16 entries, in one order whatever N is; numpy's
    ``sum`` changes its order at N = 1.
    """
    q = (z.real**2 + z.imag**2).reshape(16, -1)
    while len(q) > 1:
        q = q[: len(q) // 2] + q[len(q) // 2 :]
    return q[0]


def _tau(z):
    """(4, 4, N) stack of tau = Z^T (sy x sy) Z for roots Z as (4, 4, N).

    (sy x sy) pairs rows 1, 2 with sign +1 and rows 0, 3 with -1, so
    tau = M + M^T with M = z1 z2^T - z0 z3^T.
    """
    mz = z[1, :, None] * z[2]
    mz -= z[0, :, None] * z[3]
    return mz + mz.swapaxes(0, 1)


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

    Each chunk is held batch-last. Both filters are built elementwise as
    (2, 2, N) stacks, the filtered root (A x B) X as (1 x B) then (A x 1)
    broadcast products over X reshaped to (2, 2, 4), the branch probability
    as its squared norm, and tau as a (4, 4, N) stack. A chunk of at least
    ``JACOBI_MIN_POINTS`` points takes tau's singular values from
    :func:`tau_singular_values`, a shorter one from :func:`_svd_values` on
    the (N, 4, 4) view of the same stack. The choice rests on the chunk's
    length, not on how many of its points pass ``tol_prob``, so a point's
    result depends only on the point and its chunk's length. The clamp
    policy is :func:`concurrence_from_lambdas`, as for a single state.

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
    x = state_root(rho).reshape(2, 2, 4)
    gains = np.empty(len(a))
    t = np.empty(len(a))

    def run(lo):
        s = slice(lo, lo + CHUNK)
        z = _filtered_roots(x, a[s], n[s], b[s], m[s])
        tc = t[s]
        tc[:] = _squared_norms(z)
        gc = gains[s]
        gc[:] = -np.inf
        ok = tc > tol_prob
        if ok.any():
            tau = _tau(z if ok.all() else z[:, :, ok])
            del z  # the solve does not need the roots; keeps peak memory down
            if len(tc) < JACOBI_MIN_POINTS:
                sv = _svd_values(np.moveaxis(tau, -1, 0))
            else:
                sv = tau_singular_values(tau)
            gc[ok] = concurrence_from_lambdas(sv / tc[ok, None]) - c_in

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
    """Single-point version of :func:`filter_gain_batch`.

    No package code calls it (the search sends every point through the
    batch). It stays only because the benchmark's tracer
    (``perfbench/tracing.py``) looks it up by name, and goes with the figures
    that time it. Its one point is a chunk below ``JACOBI_MIN_POINTS``, so
    LAPACK's ``svd`` solves it.
    """
    gains, t = filter_gain_batch(rho, c_in, [a], [n], [b], [m], tol_prob)
    return float(gains[0]), float(t[0])
