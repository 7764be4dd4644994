"""The numpy kernels: the lambda spectrum, concurrence and the batched gain.

The package's lowest layer: it defines the Pauli matrices (``PAULI``, which
``states`` re-exports) and imports nothing of the package but
``qlocc.errors``.

The one route to the lambda spectrum for the whole package: with
rho = X X+, the lambdas are the singular values of Wootters'
tau = X^T (sy x sy) X (PRL 80, 2245 (1998)), since tau+ tau = X+ rho~ X
has the eigenvalues of rho * rho~.

Every route shares one tau and one clamp policy
(``concurrence_from_lambdas``). Single states (``lambdas``) use the root of
``state_root`` and LAPACK's ``svd`` (``_svd``). The gain kernels use
``gain_root``, the same root turned by the right singular vectors of its
tau, so that every filtered tau is column-orthogonal up to rounding. Both
gain entries run one chunk body (``_gain_chunk``), so a filter pair has the
same gain bits from either: ``filter_gain_batch``, which scores the
search's candidate rows in chunks over a thread pool (a ``fill`` hook lets
the search write each chunk's rows on its worker, and ``top`` keeps only
each chunk's best rows, so no table of them is held), and
``filter_gain_gradient``, the refinement's, with exact gradients. A
point's singular values, and the gradient's singular vectors, come from the
norms and directions of tau's columns wherever a per-point test shows them
accurate (``tau_singular_values``); the other points go to ``_svd``, in one
call per chunk.

The chunk body allocates nothing that grows with the chunk: it writes every
chunk-sized intermediate into a workspace of three flat complex buffers, 16
entries per point each, which its stages share, and the batch writes a
chunk's rows and their gains and t into a fourth, real one of 10 entries
per point (848 bytes a point in all, 3.5 MB at ``CHUNK``). Each thread
keeps one workspace of its own (``_workspace``), made at its first chunk
and grown only when a chunk is longer than it. Batches of two or more
chunks run on one persistent thread pool (``_pool``), made at the
first of them with one thread per usable CPU; its threads wait between
calls, so the process holds one workspace per pool thread, plus the
calling thread's once that has run a chunk. With fresh temporaries, glibc
gave each chunk's 3.9 MB back to the system and the next chunk faulted it
in again: about 3,500 minor page faults per Bell-diagonal certificate of
about 19,700 filter pairs, where the workspaces take about 400.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from qlocc.errors import ConvergenceFailure, SpectrumError

# the name manifests record for these kernels
BACKEND = "python"
# the Pauli matrices x, y, z
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

# Clamp policy. A state eigenvalue below -NEG_TOL signals a bug rather than
# conditioning. State eigenvalues below the eigensolver's resolution
# (ZERO_FLOOR_FACTOR * eps relative to the largest) are set to zero, which
# keeps exact zeros from turning into sqrt(eps) noise in the root.
NEG_TOL = 1e-9
ZERO_FLOOR_FACTOR = 100.0
# concurrence below this is rounding noise around zero; snapped to zero
# just as max(0, .) snaps the negative side
CONC_NOISE = 1e-14
# a branch whose probability t is at or below this filters out (gain -inf)
TOL_PROB = 1e-14
_EPS = float(np.finfo(np.float64).eps)

# kron(sy, sy) is the real antidiagonal (-1, 1, 1, -1): applied to X it
# reverses the rows and signs them
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]
# the signs of l1 - l2 - l3 - l4
_CONC_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
# filter_gain_batch evaluates its points in chunks of this many, so a
# chunk's workspace stays at 3.5 MB; every chunk length takes the same
# route, so a point's bits do not depend on its chunk
CHUNK = 4096
# tau_singular_values takes a point's column norms as its singular values
# when every column pair (p, q) has |<p, q>| <= ORTHO_TOL * t * (|p| + |q|)
ORTHO_TOL = 4.0 * _EPS
# tau_singular_values' differential takes LAPACK's vectors for a point with a
# column of norm at most COLUMN_FLOOR * t, whose direction rounding decides
COLUMN_FLOOR = 64.0 * _EPS
# the six column pairs (p, q), p < q
_PAIR_P = np.array([0, 0, 0, 1, 1, 2])
_PAIR_Q = np.array([1, 2, 3, 2, 3, 3])
# The persistent thread pool of the threaded batches, made, under the lock,
# at the first of them with one thread per usable CPU. Its threads wait
# between calls and are joined, idle, at interpreter exit; a forked child
# has none of them, so it makes its own pool.
_pool, _pool_lock = None, threading.Lock()
os.register_at_fork(
    after_in_child=lambda: globals().update(_pool=None, _pool_lock=threading.Lock()))
# .ws: the thread's workspace (see _workspace)
_local = threading.local()


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


def gain_root(rho):
    """Root X W of rho whose tau has orthogonal columns, for the gain kernels.

    X is :func:`state_root`'s root and W the right singular vectors of
    tau(X), from one LAPACK ``svd``. W is unitary, so X W is a root of rho,
    and tau(X W) = W^T tau(X) W = (V^T U) Sigma has orthogonal columns. A
    local filter pair only multiplies tau by det A det B (Wootters' law), so
    every filtered point's tau reaches :func:`tau_singular_values` already
    column-orthogonal up to rounding, and its column norms pass that
    function's test. The law sets only which points need LAPACK; every
    value is still computed from the filtered root itself. Single-state
    routes keep :func:`state_root`, as LAPACK solves them whatever the root.
    """
    x = state_root(rho)
    return x @ _svd(_root_tau(x), compute_uv=True)[2].conj().T


def _svd(tau, compute_uv=False):
    """LAPACK ``svd`` of a (..., 4, 4) stack: descending singular values, or
    (U, values, V+) with ``compute_uv``.

    The one LAPACK call site for tau's singular values and vectors, shared
    by :func:`lambdas`, :func:`gain_root` and both gain entries; its
    ``LinAlgError`` becomes :class:`~qlocc.errors.ConvergenceFailure`.
    """
    try:
        return np.linalg.svd(tau, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _root_tau(x):
    """tau = X^T (sy x sy) X of a root X, or of a (..., 4, 4) stack of roots."""
    return np.swapaxes(x, -1, -2) @ (_YY_SIGNS * x[..., ::-1, :])


def lambdas(x):
    """Descending lambda spectrum of a root X, the singular values of tau.

    Serves single states; a (..., 4, 4) stack of roots works too. Solved by
    :func:`_svd`; the batched kernel goes through
    :func:`tau_singular_values`.
    """
    return _svd(_root_tau(x))


def kron(a, b):
    """``np.kron`` of two 2-D arrays as one broadcast multiply.

    It forms the same products a[i, j] b[k, l] as ``np.kron``, so it has the
    same bits, without ``np.kron``'s general n-dimensional set-up, which
    costs more than the multiply at 4x4 and 16x16.
    """
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def concurrence_from_lambdas(lam):
    """l1 - l2 - l3 - l4, with noise below CONC_NOISE set to 0, capped at 1.

    Elementwise, so a spectrum's result does not depend on the stack it
    comes in (a matrix product would reach BLAS, whose rounding does). The
    trailing axis the slices keep lets one in-place noise snap serve a
    single spectrum and a stack alike. The snap writes into the difference
    array only; ``lam`` is read, so a read-only spectrum serves.
    """
    c = lam[..., :1] - lam[..., 1:2] - lam[..., 2:3] - lam[..., 3:]
    np.minimum(1.0, c, out=c)
    c[c < CONC_NOISE] = 0.0
    return c[..., 0]


def concurrence4(rho):
    """Concurrence of a normalized two-qubit density matrix (4x4 array).

    No package code calls it: the package reads a state's concurrence from
    its one spectrum, ``DensityMatrix.lambdas``. It stays for the tests and
    for perfbench's tracer, which looks it up by name.
    """
    return float(concurrence_from_lambdas(lambdas(state_root(rho))))


def tau_singular_values(tau, t, differential=False, scratch=None):
    """Descending singular values of a (4, 4, N) stack of taus, as (N, 4).

    ``t`` holds each point's branch probability |Z|^2. tau = Z^T (sy x sy) Z
    is quadratic in Z, so every column norm of tau is at most t, and the
    rounding of its entries is a few eps t. A point's singular values are
    the norms n_p of its columns when every column pair (p, q) passes

        |<p, q>| <= delta t (n_p + n_q),    delta = ORTHO_TOL,

    and come from :func:`_svd` otherwise, the failing points of the stack in
    one call. Norms and inner products are summed over the rows in one fixed
    order and LAPACK solves each matrix on its own, so a point's values
    depend only on the point.

    The intermediates go into a flat float buffer of at least 32 N entries,
    and the values returned are a view of it: ``scratch`` if given (from
    :func:`_gain_chunk`, a spare buffer of its workspace, which the chunk's
    next use writes over), else a new buffer.

    What the test guarantees. Write tau+ tau = D + E, D holding the squared
    norms n_p^2 and E the inner products e_pq, and compare
    C = s1 - s2 - s3 - s4 = 2 s1 - sum(s) of the singular values s with C'
    of the sorted norms, the largest n1.

    - s1^2 is the largest eigenvalue of D + E: at least n1^2 (Rayleigh) and
      at most n1^2 + |E|_2 (Weyl). The test bounds every row sum of |E|, and
      so |E|_2, by 6 delta t n1; hence 0 <= s1 - n1 <= 3 delta t.
    - The eigenvalues of D + E majorize its diagonal (Schur-Horn) and the
      square root is concave, so sum(s) <= sum(n). The first-order shifts
      of the singular values cancel in this sum: one pair alone lowers it
      by |e_pq|^2 / (2 n_p n_q (n_p + n_q)) to leading order, and never by
      more than min(n_p, n_q). Under the test that is at most delta t, so
      0 <= sum(n) - sum(s) <= 6 delta t.

    Hence C' <= C <= C' + 12 delta t: the norms never overstate the
    concurrence and understate it by at most 12 ORTHO_TOL = 48 eps
    (1.1e-14) once divided by t; the rounding of the test itself adds about
    2 eps to delta. Within the -1-signed cluster s2..s4 the first-order
    shifts cancel; only s1 keeps one, and the test bounds it absolutely, so
    a near-tie of s1 and s2 needs no special case.

    Why the scale is t. Rounding leaves e_pq of about eps t (n_p + n_q)
    whatever the norms, and n_p n_q <= t (n_p + n_q) / 2, so a relative
    term eta n_p n_q would add nothing to the test. A test relative to the
    columns alone fails the taus of rank-deficient states, whose small
    columns are rounding noise; a floor delta n1^2 passes two parallel
    columns of norm sqrt(delta) n1, for which C' is off by about
    0.6 sqrt(delta) n1. With ORTHO_TOL = 4 eps and gain_root's roots, no
    point of a Werner, Bell-diagonal or rank-2 state failed in 4096 random
    filter pairs each, and 0.06% of the points of 1500 Hilbert-Schmidt
    random states did (256 pairs each; 7 states had any failure).

    The differential. With ``differential``, the result is (values, Q),
    with Q = P+ the (4, 4, N) stack for which dC = Re tr(P dtau) (see
    :func:`filter_gain_gradient`). Where a point passes the test and each of
    its columns is longer than ``COLUMN_FLOOR`` t, Q = tau diag(w), with
    w_p = +1/n_p on the largest column and -1/n_p on the others: as
    dn_p = Re <p, dp> / n_p, that is the exact differential of the C' that
    the values give. The other points take Q = U diag(s) V+ from
    :func:`_svd` with vectors, since rounding sets the direction of a
    column at rounding level.

    The gradient's error. Filtering multiplies tau by det A det B
    (Wootters' law), so C and C' scale alike, and the gain's error
    (C - C') / t, at most 48 eps, is proportional to |det A det B| / t.
    Its gradient is that error times grad log(|det A det B| / t), so at
    most 48 eps |grad log(|det A det B| / t)|, which grows only as a
    filter nears a projector. Measured on Werner, Bell-diagonal and random
    states, the column route's gradients stayed within 9e-16 of those of
    LAPACK's vectors at strengths up to 0.999999, and within 5e-12 for
    points whose shortest column lies within 1000 times the floor.
    """
    n = len(t)
    # the views of the buffer overlap where one is dead before the next is
    # written
    s = np.empty(32 * n) if scratch is None else scratch
    sq, sq_imag = s[: 32 * n].reshape(2, 4, 4, n)
    np.add(np.square(tau.real, out=sq), np.square(tau.imag, out=sq_imag), out=sq)
    np.add(sq[0], sq[1], out=sq[0])
    np.add(sq[2], sq[3], out=sq[2])
    norms = np.sqrt(np.add(sq[0], sq[2], out=sq[0]), out=sq[0])
    # the six pair products, one pair at a time into a (4, N) row block
    g = s[4 * n : 16 * n].view(np.complex128).reshape(6, n)
    r = s[16 * n : 24 * n].view(np.complex128).reshape(4, n)
    cols, (r0, r1, r2, r3) = tau.swapaxes(0, 1), r
    for gk, i, j in zip(g, _PAIR_P, _PAIR_Q):
        np.conjugate(cols[i], out=r)
        np.multiply(r, cols[j], out=r)
        np.add(r0, r1, out=gk)
        np.add(r2, r3, out=r2)
        np.add(gk, r2, out=gk)
    # the test bound (ORTHO_TOL t) (n_p + n_q); take buffers its output
    # unless told how to treat indices out of range, which these are not
    bound, pair = s[24 * n : 30 * n].reshape(6, n), s[16 * n : 22 * n].reshape(6, n)
    np.add(norms.take(_PAIR_P, 0, bound, "clip"), norms.take(_PAIR_Q, 0, pair, "clip"), out=bound)
    np.multiply(np.multiply(ORTHO_TOL, t, out=s[30 * n : 31 * n]), bound, out=bound)
    # |<p, q>|^2 > bound^2; the real squares go apart from g, as an output
    # interleaved with an input would make numpy copy the input
    gi = g.imag
    np.add(np.square(g.real, out=pair), np.square(gi, out=gi), out=pair)
    full = (pair > np.multiply(bound, bound, out=bound)).any(axis=0)
    if differential:
        lapack = full | (norms <= COLUMN_FLOOR * t).any(axis=0)
        w = np.divide(-1.0, norms, out=np.zeros_like(norms), where=~lapack)
        w[norms.argmax(axis=0), np.arange(len(t))] *= -1.0
        q = tau * w
        if lapack.any():
            u, _, vh = _svd(np.moveaxis(tau[:, :, lapack], -1, 0), compute_uv=True)
            q[:, :, lapack] = np.moveaxis((u * _CONC_SIGNS) @ vh, 0, -1)
    norms.sort(axis=0)
    sv = norms[::-1].T
    if full.any():
        sv[full] = _svd(np.moveaxis(tau[:, :, full], -1, 0))
    return (sv, q) if differential else sv


def _filters(s, v, f, scratch):
    """Writes the (2, 2, N) stack of filters (1 + s v.sigma)/(1 + s) into
    ``f``, built elementwise; ``scratch`` is a flat buffer of 5 N floats."""
    k = len(s)
    nu, snu, w = scratch[: 3 * k].reshape(3, k)
    c = scratch[3 * k : 5 * k].view(np.complex128)
    np.divide(1.0, np.add(1.0, s, out=nu), out=nu)
    np.multiply(s, nu, out=snu)
    np.multiply(snu, v[:, 2], out=w)
    np.add(nu, w, out=f.real[0, 0])
    np.subtract(nu, w, out=f.real[1, 1])
    f.imag[0, 0] = f.imag[1, 1] = 0.0
    np.multiply(1j, v[:, 1], out=c)
    np.multiply(snu, np.subtract(v[:, 0], c, out=f[0, 1]), out=f[0, 1])
    np.multiply(snu, np.add(v[:, 0], c, out=f[1, 0]), out=f[1, 0])


def _filtered_roots(x, fa, fb, z, y, half):
    """Writes the roots (A x B) X of the filtered states into ``z``, as
    (2, 2, 4, N), with X as (2, 2, 4) and the filters as (2, 2, N) stacks
    from :func:`_filters`; ``y``, (2, 2, 4, N), and ``half``, (2, 4, N),
    are scratch.

    The filters are Hermitian, so (A x B) X is a root of the transformed
    state. X's rows are (Alice, Bob) index pairs, so B acts on axis 1 and
    A on axis 0 of the (2, 2, 4, N) product: y = (1 x B) X is the sum of
    two broadcast products, and each half z[i] of (A x 1) y another.
    """
    np.multiply(x[:, None, 0, :, None], fb[:, 0, None], out=y)
    np.add(y, np.multiply(x[:, None, 1, :, None], fb[:, 1, None], out=z), out=y)
    for i in range(2):
        np.multiply(fa[i, 0, None, None], y[0], out=z[i])
        np.add(z[i], np.multiply(fa[i, 1, None, None], y[1], out=half), out=z[i])


def _squared_norms(z, scratch):
    """(N,) squared norms of a (4, 4, N) stack, as a view of the flat
    ``scratch`` of 32 N floats.

    Summed by halving the 16 entries, in one order whatever N is; numpy's
    ``sum`` changes its order at N = 1.
    """
    k = z.shape[-1]
    q, q_imag = scratch[: 32 * k].reshape(2, 16, k)
    np.square(z.real, out=q.reshape(z.shape))
    np.square(z.imag, out=q_imag.reshape(z.shape))
    np.add(q, q_imag, out=q)
    h = len(q)
    while h > 1:
        h //= 2
        np.add(q[:h], q[h : 2 * h], out=q[:h])
    return q[0]


def _tau(z, m, tau):
    """Writes tau = Z^T (sy x sy) Z into ``tau`` for roots Z, all as
    (4, 4, N); ``m`` is scratch, and so is ``tau`` until the last step.

    (sy x sy) pairs rows 1, 2 with sign +1 and rows 0, 3 with -1, so
    tau = M + M^T with M = z1 z2^T - z0 z3^T.
    """
    np.multiply(z[1, :, None], z[2], out=m)
    np.subtract(m, np.multiply(z[0, :, None], z[3], out=tau), out=m)
    return np.add(m, m.swapaxes(0, 1), out=tau)


def _workspace(k):
    """The calling thread's workspace, for at least ``k`` points: three flat
    complex buffers of 16 entries per point, for :func:`_gain_chunk`, and a
    flat float buffer of 10, for the batch runner's rows and their gains
    and t; made anew, the old one dropped, for a chunk longer than it."""
    ws = getattr(_local, "ws", None)
    if ws is None or len(ws[0]) < 16 * k:
        ws = [np.empty(16 * k, dtype=np.complex128) for _ in range(3)] + [np.empty(10 * k)]
        _local.ws = ws
    return ws


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _gain_chunk(ws, x, c_in, a, n, b, m, gains, t, grad=None):
    """The one body of both gain entries: writes the gains and t of the
    filter pairs (a, n, b, m) into ``gains`` and ``t``, and with ``grad``
    their (N, 6) gradients, derived in :func:`filter_gain_gradient`. It
    computes in the workspace ``ws``, the calling thread's
    (:func:`_workspace`), and passes its spare buffer to
    :func:`tau_singular_values` as scratch.

    Points are held batch-last. Both filters are built elementwise as
    (2, 2, N) stacks, the filtered root (A x B) X as (1 x B) then (A x 1)
    broadcast products over the root ``x`` as (2, 2, 4), the branch
    probability as its squared norm, and tau as a (4, 4, N) stack of the
    points not filtered out. Its singular values come from
    :func:`tau_singular_values` whatever the stack's length, and the clamp
    policy is :func:`concurrence_from_lambdas`, as for a single state. So a
    point's gain and t depend only on the point, not on its chunk or entry.
    """
    # Every chunk-sized intermediate goes into the three flat buffers of a
    # workspace (yb, zb, wb), each stage writing over what is dead by then:
    # the filters go into wb's first half and their scratch rows into yb;
    # (1 x B) X into yb and the roots into zb, with wb's second half as
    # scratch; t's squares into yb; the kept roots stay in zb or go into
    # yb, and M into the other one (spare), where tau_singular_values then
    # works; tau goes into wb, and once it is solved, the spectra over t.
    size = len(a)
    yb, zb, wb = (buf[: 16 * size] for buf in ws[:3])
    fa, fb = wb[: 8 * size].reshape(2, 2, 2, size)
    _filters(a, n, fa, yb.view(np.float64))
    _filters(b, m, fb, yb.view(np.float64))
    _filtered_roots(x, fa, fb, zb.reshape(2, 2, 4, size), yb.reshape(2, 2, 4, size),
                    wb[8 * size :].reshape(2, 4, size))
    z = zb.reshape(4, 4, size)
    t[:] = _squared_norms(z, yb.view(np.float64))
    gains[:] = -np.inf
    ok = t > TOL_PROB
    if not ok.any():
        return
    if grad is not None:
        # copies: tau is written over the filters
        fa, fb = fa[:, :, ok], fb[:, :, ok]
    tk = t[ok]
    kept = len(tk)
    if kept == size:
        spare = yb
    else:
        z, spare = np.compress(ok, z, axis=2, out=yb[: 16 * kept].reshape(4, 4, kept)), zb
    tau = _tau(z, spare[: 16 * kept].reshape(4, 4, kept), wb[: 16 * kept].reshape(4, 4, kept))
    scratch = spare.view(np.float64)
    if grad is None:
        sv = tau_singular_values(tau, tk, scratch=scratch)
    else:
        sv, q = tau_singular_values(tau, tk, differential=True, scratch=scratch)
    c = concurrence_from_lambdas(np.divide(sv, tk[:, None],
                                           out=wb.view(np.float64)[: 4 * kept].reshape(kept, 4)))
    gains[ok] = c - c_in
    if grad is None:
        return
    cnum = sv[:, 0] - sv[:, 1] - sv[:, 2] - sv[:, 3]
    zf, q = z.transpose(2, 0, 1), q.transpose(2, 0, 1)
    # P + P^T = conj(Q + Q^T), and Z^T S = (S Z)^T
    r = (q + q.swapaxes(1, 2)).conj() @ (_YY_SIGNS * zf[:, ::-1]).swapaxes(1, 2)
    r /= tk[:, None, None]
    r -= (2.0 * cnum / tk**2)[:, None, None] * zf.conj().swapaxes(1, 2)
    k = (x.reshape(4, 4) @ r).reshape(-1, 2, 2, 2, 2)  # K[(a b), (a' b')]
    g = np.concatenate([
        np.einsum("nabcd,dbn,kca->nk", k, fb, PAULI).real / (1.0 + a[ok])[:, None],
        np.einsum("nabcd,can,kdb->nk", k, fa, PAULI).real / (1.0 + b[ok])[:, None],
    ], axis=1)
    g[(c <= 0.0) | (c >= 1.0)] = 0.0
    grad[ok] = g


def _top_indices(g, k):
    """``np.argsort(-g, kind="stable")[:k]`` without sorting all of ``g``.

    The k-th largest value comes from ``np.partition``; only the entries at
    or above it are sorted, stably by descending value, so ties keep index
    order. ``g`` holds no NaN (the kernel's gains are finite or -inf).
    """
    if len(g) > k:
        cand = np.flatnonzero(g >= np.partition(g, len(g) - k)[len(g) - k])
    else:
        cand = np.arange(len(g))
    return cand[np.argsort(-g[cand], kind="stable")[:k]]


def filter_gain_batch(rho, c_in, a, n, b, m, *, fill=None, top=None):
    """Concurrence gain and success probability for a batch of filter pairs.

    ``a`` and ``b`` hold N strengths, ``n`` and ``m`` N axes as (N, 3)
    arrays; mismatched leading dimensions or axis arrays of another shape
    raise ``ValueError``. The scale of each filter is pinned to its maximum
    1/(1+strength); it cancels between the transformed state and its
    normalization, so the gain does not depend on it. Entries whose branch
    probability falls at or below ``TOL_PROB`` get gain -inf (the branch
    filters out).

    The entry that scores the search's candidate rows, grid and random
    draws in one call; the refinement uses
    :func:`filter_gain_gradient`. X is :func:`gain_root`'s root, computed
    once per call. The points are evaluated by :func:`_gain_chunk` in
    chunks of ``CHUNK``, each in the workspace of the thread that runs it.
    A batch of two or more chunks, with two or more usable CPUs, is spread
    over the persistent thread pool ``_pool``, and the call
    returns once every chunk has ended; numpy's kernels release the GIL, so
    the chunks run in parallel. Each point's result is the same whichever
    chunk or thread evaluates it, and whatever its workspace held before
    (see the module docstring).

    ``fill``, if given, writes each chunk's rows: it is called as
    ``fill(lo, a, n, b, m)`` on the worker, with ``lo`` the chunk's first
    row and the chunk's rows in the worker's workspace, unwritten, and must
    write every row. The chunk is scored on what it writes; ``a``, ``n``,
    ``b`` and ``m`` then only give the batch's length and are not read, so
    zero-stride arrays (``np.broadcast_to``) serve. The search writes its
    rows that way, so no table of them is ever held. ``fill`` must not call
    the gain kernels: they would compute in the workspace that holds its
    chunk.

    Returns the N gains and t. With ``top``, a positive integer (else
    ``ValueError``), it returns instead the ``top`` best rows (all N if
    fewer, none for an empty batch), ranked by gain, descending, ties going
    to the lower row: their gains, t and parameters (a, n, b, m).
    Each worker keeps its chunk's ``top`` best rows in that order, and the
    call ranks the chunks' bests, concatenated in chunk order, stably by
    gain. A row among the batch's ``top`` best is among its own chunk's,
    and equal gains stand in row order, so the result is the batch's
    ``np.argsort(-gains, kind="stable")[:top]``. Such a batch holds no
    array that grows with N: once the workspaces exist, each chunk leaves
    only its ``top`` best rows.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = np.atleast_2d(np.asarray(n, dtype=float))
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not a.shape == b.shape == (len(n),) == (len(m),):
        raise ValueError("parameter arrays must share their leading dimension")
    if n.shape[1:] != (3,) or m.shape[1:] != (3,):
        raise ValueError("axis arrays must have shape (N, 3)")
    if top is not None and (isinstance(top, bool) or not isinstance(top, (int, np.integer))
                            or top < 1):
        raise ValueError(f"top must be a positive integer, got {top!r}")
    x = gain_root(rho).reshape(2, 2, 4)
    if top is None:
        gains, t = np.empty(len(a)), np.empty(len(a))
    elif not len(a):
        # no chunk runs, so there are no chunk bests to rank
        empty, axes = np.empty(0), np.empty((0, 3))
        return empty, empty.copy(), (empty.copy(), axes, empty.copy(), axes.copy())

    def run(lo):
        k = min(CHUNK, len(a) - lo)
        ws = _workspace(k)
        # the workspace's rows (a, n, b, m), then their gains and t
        r = ws[3]
        if fill is None:
            chunk = [col[lo : lo + k] for col in (a, n, b, m)]
        else:
            chunk = [r[:k], r[k : 4 * k].reshape(k, 3),
                     r[4 * k : 5 * k], r[5 * k : 8 * k].reshape(k, 3)]
            fill(lo, *chunk)
        if top is None:
            scores = gains[lo : lo + k], t[lo : lo + k]
        else:
            scores = r[8 * k : 9 * k], r[9 * k : 10 * k]
        _gain_chunk(ws, x, c_in, *chunk, *scores)
        if top is not None:
            best = _top_indices(scores[0], top)
            return [col[best] for col in (*scores, *chunk)]

    starts = range(0, len(a), CHUNK)
    if min(_usable_cpus(), len(starts)) < 2:
        bests = [run(lo) for lo in starts]
    else:
        # imported here, not at module level: it would add about 8 ms to
        # every import qlocc
        from concurrent.futures import ThreadPoolExecutor, wait

        global _pool
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(_usable_cpus())
            pool = _pool
        futures = [pool.submit(run, lo) for lo in starts]
        # every chunk ends before the call does, a failing call's too
        wait(futures)
        bests = [f.result() for f in futures]
    if top is None:
        return gains, t
    gains, t, *params = (np.concatenate(cols) for cols in zip(*bests))
    best = _top_indices(gains, top)
    return gains[best], t[best], tuple(col[best] for col in params)


def filter_gain_gradient(x, c_in, a, n, b, m):
    """Gains, probabilities and exact gain gradients for a refine-sized batch.

    ``x`` is a (4, 4) root of the input state, normally :func:`gain_root`'s,
    prepared once per search; ``a``, ``n``, ``b`` and ``m`` are as in
    :func:`filter_gain_batch`, unchecked. Gains and t have the bits they
    have there: the whole batch is one run of the same chunk body,
    :func:`_gain_chunk`. The third result is the (N, 6) gradient of each
    gain with respect to Alice's and then Bob's Cartesian filter vector
    v = strength * axis: the filter is proportional to 1 + v.sigma, and the
    scale cancels. A point with t at or below ``TOL_PROB`` filters out: it
    gets gain -inf and a NaN gradient; where the clamp policy sets the
    concurrence to 0 or 1, the gradient is 0.

    With Z = (A x B) X, t = |Z|^2, tau = Z^T S Z = U Sigma V+ (S = sy x sy),
    s = (1, -1, -1, -1), P = V diag(s) U+ and C = sum s_i sigma_i, the gain
    C/t - c_in has differential Re tr(R dZ), where

        R = (P + P^T) Z^T S / t - 2 C Z+ / t^2.

    With K = X R, Alice's component is Re tr(M_A sigma_k) / (1 + a), where
    M_A[a, a'] = sum_{b, b'} K[(a b), (a' b')] B[b', b], and Bob's is built
    the same way. P comes from tau's columns where they pass the test of
    :func:`tau_singular_values`, which bounds the gradient's error, and from
    LAPACK's vectors elsewhere. P sums over the degenerate cluster sigma_2..sigma_4, so it
    needs no special case there; singular vectors of a rank-deficient tau
    lie in Z's null space and contribute zero.
    """
    gains, t, grad = np.empty(len(a)), np.empty(len(a)), np.full((len(a), 6), np.nan)
    _gain_chunk(_workspace(len(a)), x.reshape(2, 2, 4), c_in, a, n, b, m, gains, t, grad)
    return gains, t, grad


def filter_gain_single(rho, c_in, a, n, b, m):
    """Single-point version of :func:`filter_gain_batch`.

    No package code calls it (the search sends every point through the
    batch). It stays only because the benchmark's tracer
    (``perfbench/tracing.py``) looks it up by name, and goes with the figures
    that time it. Its one point takes the batch's route, so its result has
    the bits the point has in any batch.
    """
    gains, t = filter_gain_batch(rho, c_in, [a], [n], [b], [m])
    return float(gains[0]), float(t[0])
