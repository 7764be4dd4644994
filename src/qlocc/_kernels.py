"""The numpy kernels: the lambda spectrum, concurrence and the batched gain.

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
search's candidate table in chunks over a thread pool, and
``filter_gain_gradient``, the refinement's, with exact gradients. A point's singular values, and the
gradient's singular vectors, come from the norms and directions of tau's
columns wherever a per-point test shows them accurate
(``tau_singular_values``); the other points go to ``_svd``, in one call
per chunk.
"""

from __future__ import annotations

import os

import numpy as np

from qlocc.errors import ConvergenceFailure, SpectrumError
from qlocc.states import PAULI

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
# a branch whose probability t is at or below this filters out (gain -inf)
TOL_PROB = 1e-14
_EPS = float(np.finfo(np.float64).eps)

# kron(sy, sy) is the real antidiagonal (-1, 1, 1, -1): applied to X it
# reverses the rows and signs them
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]
# the signs of l1 - l2 - l3 - l4
_CONC_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
# filter_gain_batch evaluates its points in chunks of this many, so the
# temporaries of one chunk stay within a few MB; every chunk length takes
# the same route, so a point's bits do not depend on its chunk
CHUNK = 4096
# tau_singular_values takes a point's column norms as its singular values
# when every column pair (p, q) has |<p, q>| <= ORTHO_TOL * t * (|p| + |q|)
ORTHO_TOL = 4.0 * _EPS
# tau_singular_values' differential takes LAPACK's vectors for a point with a
# column of norm at most COLUMN_FLOOR * t, whose direction rounding decides
COLUMN_FLOOR = 64.0 * _EPS
# the six column pairs (p, q), p < q
_PAIR_P = [0, 0, 0, 1, 1, 2]
_PAIR_Q = [1, 2, 3, 2, 3, 3]


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


def tau_singular_values(tau, t, differential=False):
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
    sq = tau.real**2 + tau.imag**2
    norms = np.sqrt((sq[0] + sq[1]) + (sq[2] + sq[3]))
    # one pair at a time: gathering all six takes two (4, 6, N) temporaries,
    # the largest of a chunk
    g = np.empty((6, len(t)), dtype=tau.dtype)
    for k, (i, j) in enumerate(zip(_PAIR_P, _PAIR_Q)):
        r = tau[:, i].conj()
        r *= tau[:, j]
        g[k] = (r[0] + r[1]) + (r[2] + r[3])
    bound = (ORTHO_TOL * t) * (norms[_PAIR_P] + norms[_PAIR_Q])
    full = (g.real**2 + g.imag**2 > bound * bound).any(axis=0)
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


def _filtered_roots(x, fa, fb):
    """(4, 4, N) roots (A x B) X of the filtered states, X as (2, 2, 4) and
    the filters as (2, 2, N) stacks from :func:`_filters`.

    The filters are Hermitian, so (A x B) X is a root of the transformed
    state. X's rows are (Alice, Bob) index pairs, so B acts on axis 1 and
    A on axis 0 of the (2, 2, 4, N) product.
    """
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


def _gain_chunk(x, c_in, a, n, b, m, gains, t, grad=None):
    """The one body of both gain entries: writes the gains and t of the
    filter pairs (a, n, b, m) into ``gains`` and ``t``, and with ``grad``
    their (N, 6) gradients, derived in :func:`filter_gain_gradient`.

    Points are held batch-last. Both filters are built elementwise as
    (2, 2, N) stacks, the filtered root (A x B) X as (1 x B) then (A x 1)
    broadcast products over the root ``x`` as (2, 2, 4), the branch
    probability as its squared norm, and tau as a (4, 4, N) stack of the
    points not filtered out. Its singular values come from
    :func:`tau_singular_values` whatever the stack's length, and the clamp
    policy is :func:`concurrence_from_lambdas`, as for a single state. So a
    point's gain and t depend only on the point, not on its chunk or entry.
    """
    # the values need the filters only for the roots, and the roots only
    # for t and tau; freeing each when done keeps a chunk's peak memory down
    f = (_filters(a, n), _filters(b, m))
    z = _filtered_roots(x, *f)
    if grad is None:
        del f
    t[:] = _squared_norms(z)
    gains[:] = -np.inf
    ok = t > TOL_PROB
    if not ok.any():
        return
    z = z if ok.all() else z[:, :, ok]
    tau, tk = _tau(z), t[ok]
    if grad is None:
        del z
        sv = tau_singular_values(tau, tk)
        gains[ok] = concurrence_from_lambdas(sv / tk[:, None]) - c_in
        return
    sv, q = tau_singular_values(tau, tk, differential=True)
    c = concurrence_from_lambdas(sv / tk[:, None])
    gains[ok] = c - c_in
    cnum = sv[:, 0] - sv[:, 1] - sv[:, 2] - sv[:, 3]
    zf, q = z.transpose(2, 0, 1), q.transpose(2, 0, 1)
    # P + P^T = conj(Q + Q^T), and Z^T S = (S Z)^T
    r = (q + q.swapaxes(1, 2)).conj() @ (_YY_SIGNS * zf[:, ::-1]).swapaxes(1, 2)
    r /= tk[:, None, None]
    r -= (2.0 * cnum / tk**2)[:, None, None] * zf.conj().swapaxes(1, 2)
    k = (x.reshape(4, 4) @ r).reshape(-1, 2, 2, 2, 2)  # K[(a b), (a' b')]
    fa, fb = f[0][:, :, ok], f[1][:, :, ok]
    g = np.concatenate([
        np.einsum("nabcd,dbn,kca->nk", k, fb, PAULI).real / (1.0 + a[ok])[:, None],
        np.einsum("nabcd,can,kdb->nk", k, fa, PAULI).real / (1.0 + b[ok])[:, None],
    ], axis=1)
    g[(c <= 0.0) | (c >= 1.0)] = 0.0
    grad[ok] = g


def filter_gain_batch(rho, c_in, a, n, b, m):
    """Concurrence gain and success probability for a batch of filter pairs.

    ``a`` and ``b`` hold N strengths, ``n`` and ``m`` N axes as (N, 3)
    arrays; mismatched leading dimensions or axis arrays of another shape
    raise ``ValueError``. The scale of each filter is pinned to its maximum
    1/(1+strength); it cancels between the transformed state and its
    normalization, so the gain does not depend on it. Entries whose branch
    probability falls at or below ``TOL_PROB`` get gain -inf (the branch
    filters out).

    The entry that scores the search's candidate table, grid and random
    draws in one call; the refinement uses
    :func:`filter_gain_gradient`. X is :func:`gain_root`'s root, computed
    once per call. The points are evaluated by :func:`_gain_chunk` in
    chunks of ``CHUNK``. A batch of two or more chunks is spread over a
    thread pool with one worker per usable CPU (at most one per chunk);
    numpy's kernels release the GIL, so the chunks run in parallel. Each
    point's result is the same whichever chunk or thread evaluates it.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = np.atleast_2d(np.asarray(n, dtype=float))
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not a.shape == b.shape == (len(n),) == (len(m),):
        raise ValueError("parameter arrays must share their leading dimension")
    if n.shape[1:] != (3,) or m.shape[1:] != (3,):
        raise ValueError("axis arrays must have shape (N, 3)")
    x = gain_root(rho).reshape(2, 2, 4)
    gains = np.empty(len(a))
    t = np.empty(len(a))

    def run(lo):
        s = slice(lo, lo + CHUNK)
        _gain_chunk(x, c_in, a[s], n[s], b[s], m[s], gains[s], t[s])

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
    _gain_chunk(x.reshape(2, 2, 4), c_in, a, n, b, m, gains, t, grad)
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
