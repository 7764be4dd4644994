"""The numpy kernels: the batched gain's column-norm route and its LAPACK
fallback against each other and against references, the batched gain, its
threads and its error paths."""

import ast
import glob
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qlocc import _kernels, states
from qlocc.entanglement import concurrence
from qlocc.errors import ConvergenceFailure, SpectrumError
from qlocc.nogo import (
    _REFINE_TOP,
    SearchConfig,
    _random_params,
    certificate_to_dict,
    maximize_concurrence_gain,
)

from conftest import (
    candidate_rows,
    random_density_matrix,
    random_entangled_bell_diagonal,
    random_filter,
    random_unitary,
)

def test_eigvals_specials():
    np.testing.assert_allclose(_kernels.eigvals4x4(np.zeros((4, 4))), np.zeros(4), atol=1e-14)
    np.testing.assert_allclose(_kernels.eigvals4x4(np.eye(4)), np.ones(4), atol=1e-14)
    w = np.sort(_kernels.eigvals4x4(np.diag([4.0, 3.0, 2.0, 1.0])).real)
    np.testing.assert_allclose(w, [1, 2, 3, 4], atol=1e-13)


def test_eigvals_rejects_wrong_shape():
    with pytest.raises(ValueError):
        _kernels.eigvals4x4(np.eye(3))


def _random_batch(rng, N):
    a = rng.random(N) * 0.98
    b = rng.random(N) * 0.98
    n = rng.standard_normal((N, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    m = rng.standard_normal((N, 3))
    m /= np.linalg.norm(m, axis=1)[:, None]
    return a, n, b, m


def test_batch_matches_single(rng):
    rho = random_density_matrix(rng).mat
    c_in = _kernels.concurrence4(rho)
    a, n, b, m = _random_batch(rng, 64)
    gains, ts = _kernels.filter_gain_batch(rho, c_in, a, n, b, m)
    for i in range(64):
        g, t = _kernels.filter_gain_single(rho, c_in, a[i], n[i], b[i], m[i])
        assert gains[i] == pytest.approx(g, abs=1e-13)
        assert ts[i] == pytest.approx(t, abs=1e-14)


def test_batch_rejects_mismatched_shapes(rng):
    rho = random_density_matrix(rng).mat
    a, n, b, m = _random_batch(rng, 3)
    with pytest.raises(ValueError):
        _kernels.filter_gain_batch(rho, 0.1, a, n[:1], b, m)
    with pytest.raises(ValueError):
        _kernels.filter_gain_batch(rho, 0.1, a[:2], n[:2], b[:1], m[:1])
    with pytest.raises(ValueError):
        _kernels.filter_gain_batch(rho, 0.1, a, n[:, :2], b, m)
    with pytest.raises(ValueError):
        _kernels.filter_gain_batch(rho, 0.1, a, n, b, np.ones((3, 4)))


def test_threaded_batch_is_identical_to_chunks_and_one_worker(rng, monkeypatch, fresh_pool):
    # about 2.5 chunks, so three workers share the output arrays and the
    # last chunk is partial; a short switch interval interleaves them often
    rho = random_density_matrix(rng).mat
    c_in = _kernels.concurrence4(rho)
    a, n, b, m = _random_batch(rng, 10_000)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        gains, ts = _kernels.filter_gain_batch(rho, c_in, a, n, b, m)
    finally:
        sys.setswitchinterval(interval)
    parts = [
        _kernels.filter_gain_batch(rho, c_in, a[s], n[s], b[s], m[s])
        for s in (slice(lo, lo + _kernels.CHUNK) for lo in range(0, len(a), _kernels.CHUNK))
    ]
    assert np.array_equal(gains, np.concatenate([g for g, _ in parts]))
    assert np.array_equal(ts, np.concatenate([t for _, t in parts]))
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 1)
    gains1, ts1 = _kernels.filter_gain_batch(rho, c_in, a, n, b, m)
    assert np.array_equal(gains, gains1)
    assert np.array_equal(ts, ts1)


@pytest.mark.parametrize("cpus", [1, 3])
def test_chunk_bests_merge_to_the_batch_best(cpus, rng, monkeypatch, fresh_pool):
    # each worker keeps its chunk's best rows and the call merges them. With
    # chunks of 8 rows and stand-in gains: few distinct values, so ties fall
    # within chunks and across their boundaries; -inf entries (filtered-out
    # points), two whole chunks of them, and a batch of nothing else. The
    # merged rows are the stable argsort's of the whole batch, each with its
    # own gain, t and parameters; at _REFINE_TOP (6), the search's count
    monkeypatch.setattr(_kernels, "CHUNK", 8)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: cpus)
    size = 100

    def fill(lo, a, n, b, m):
        # a row's parameters carry its index
        a[:] = np.arange(lo, lo + len(a))
        n[:], b[:], m[:] = a[:, None], -a, -a[:, None]

    def stand_in_gains(ws, x, c_in, a, n, b, m, gains, t):
        gains[:], t[:] = g[a.astype(int)], ts[a.astype(int)]

    monkeypatch.setattr(_kernels, "_gain_chunk", stand_in_gains)
    rho = states.make_werner(0.8).mat
    rows_in = np.broadcast_to(0.0, (size,)), np.broadcast_to(0.0, (size, 3))
    for trial in range(40):
        g = rng.integers(-2, 3, size=size).astype(float)
        g[rng.random(size) < 0.3] = -np.inf
        g[32:48] = -np.inf
        # four ties across the boundary at row 8 lead; two more, of the
        # ties across the boundary at row 56, take the fifth and sixth place
        g[6:10], g[54:60] = 3.0, 2.5
        if trial == 0:
            g[:] = -np.inf
        ts = rng.random(size)
        for top in (1, _REFINE_TOP, size):
            gains, t, (a, n, b, m) = _kernels.filter_gain_batch(
                rho, 0.0, *rows_in, *rows_in, fill=fill, top=top)
            expected = np.argsort(-g, kind="stable")[:top]
            assert np.array_equal(a, expected)
            assert np.array_equal(gains, g[expected]) and np.array_equal(t, ts[expected])
            assert np.array_equal(n, np.repeat(a[:, None], 3, 1))
            assert np.array_equal(b, -a) and np.array_equal(m, -n)
            if trial:
                assert np.array_equal(a[:_REFINE_TOP], [6, 7, 8, 9, 54, 55][:top])


def test_batch_best_rows_have_the_batch_bits(rng, monkeypatch, fresh_pool):
    # the kernel's own gains, about 2.5 chunks over three workers, with a
    # short switch interval interleaving them often: the best rows of a
    # batch with top are its full result's stable argsort, with the same
    # bits
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    rho = random_density_matrix(rng).mat
    c_in = _kernels.concurrence4(rho)
    params = _random_batch(rng, 10_000)
    gains, ts = _kernels.filter_gain_batch(rho, c_in, *params)
    best = np.argsort(-gains, kind="stable")[:_REFINE_TOP]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        top_gains, top_t, top_params = _kernels.filter_gain_batch(rho, c_in, *params,
                                                                  top=_REFINE_TOP)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(top_gains, gains[best]) and np.array_equal(top_t, ts[best])
    for column, top_column in zip(params, top_params):
        assert np.array_equal(top_column, column[best])


def test_threaded_batch_raises_worker_errors(rng, monkeypatch, svd_fails_on_stacks):
    # the fallback svd fails in both chunks of a threaded batch; the caller
    # gets the worker's ConvergenceFailure
    rho = random_density_matrix(rng).mat
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        _kernels.filter_gain_batch(rho, 0.1, *_random_batch(rng, 2 * _kernels.CHUNK))


def test_pool_scores_after_a_worker_error(rng, monkeypatch, svd_fails_on_stacks):
    # as in test_threaded_batch_raises_worker_errors, and a failing gradient
    # call; once LAPACK works again, the same pool scores a batch with the
    # bits one worker gives it
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    rho = random_density_matrix(rng).mat
    params = _random_batch(rng, 2 * _kernels.CHUNK)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        _kernels.filter_gain_batch(rho, 0.1, *params)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        _kernels.filter_gain_gradient(_kernels.state_root(rho), 0.1, *_random_batch(rng, 6))
    pool = _kernels._pool
    monkeypatch.undo()
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    threaded = _kernels.filter_gain_batch(rho, 0.1, *params)
    assert pool is not None and _kernels._pool is pool
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 1)
    assert np.array_equal(threaded, _kernels.filter_gain_batch(rho, 0.1, *params))


def test_second_threaded_batch_starts_no_thread(rng, monkeypatch, fresh_pool):
    # the pool's threads persist: a second batch of two chunks runs on
    # threads the first started, starts none, and has the first's bits
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    ran, workspace = set(), _kernels._workspace
    monkeypatch.setattr(_kernels, "_workspace",
                        lambda k: ran.add(threading.current_thread()) or workspace(k))
    rho = random_density_matrix(rng).mat
    params = _random_batch(rng, 2 * _kernels.CHUNK)
    first = _kernels.filter_gain_batch(rho, 0.3, *params)
    alive, count = set(threading.enumerate()), threading.active_count()
    ran.clear()
    second = _kernels.filter_gain_batch(rho, 0.3, *params)
    assert threading.active_count() == count
    assert ran and ran <= alive and threading.current_thread() not in ran
    assert np.array_equal(first, second)


_POOL_SCRIPT = """
import numpy as np
from qlocc import _kernels, states
from qlocc.nogo import SearchConfig, maximize_concurrence_gain
_kernels._usable_cpus = lambda: 2
rho = states.make_werner(0.8)
rows = np.random.default_rng(1).random((2 * _kernels.CHUNK, 8))
params = rows[:, 0] * 0.9, rows[:, 1:4] - 0.5, rows[:, 4] * 0.9, rows[:, 5:8] - 0.5
gains = _kernels.filter_gain_batch(rho.mat, 0.6, *params)[0]
"""


def _run_script(code):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_pool_threads_let_the_interpreter_exit():
    # the pool's threads wait between calls and do not hold up exit
    run = _run_script(_POOL_SCRIPT + "maximize_concurrence_gain(rho, SearchConfig("
                      "restarts=9000, grid_density=2, local_steps=5))\n")
    assert run.returncode == 0, run.stderr


def test_forked_child_makes_its_own_pool():
    # a child forked after a threaded batch has none of the pool's threads;
    # it makes a pool of its own and scores the batch with the same bits.
    # The alarm ends a child that hangs.
    run = _run_script(_POOL_SCRIPT + """
import os, signal
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    again = _kernels.filter_gain_batch(rho.mat, 0.6, *params)[0]
    os._exit(0 if np.array_equal(again, gains) else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
""")
    assert (run.returncode, run.stdout) == (0, "0\n"), run.stderr


def _svd_rows(monkeypatch):
    """Count the matrices that reach :func:`_kernels._svd` in stacks; the
    returned list gets one (count, compute_uv) pair per call."""
    rows = []
    svd = _kernels._svd

    def counted(tau, compute_uv=False):
        if np.ndim(tau) == 3:
            rows.append((len(tau), compute_uv))
        return svd(tau, compute_uv)

    monkeypatch.setattr(_kernels, "_svd", counted)
    return rows


def _kron_roots(root, rng, N, max_strength):
    """Roots (A x B) X of N randomly filtered copies of the root X, built as
    dense Kronecker products, and their squared norms t = |(A x B) X|^2."""
    a, n, b, m = _random_batch(rng, N)
    a *= max_strength / 0.98
    b *= max_strength / 0.98
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    fa = np.eye(2) + a[:, None, None] * np.einsum("nk,kij->nij", n, pauli)
    fb = np.eye(2) + b[:, None, None] * np.einsum("nk,kij->nij", m, pauli)
    kron = np.einsum("nab,ncd->nacbd", fa, fb).reshape(N, 4, 4)
    roots = kron @ root
    return roots, (np.abs(roots) ** 2).sum(axis=(1, 2))


def _tau_stack(roots):
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    return np.moveaxis(np.swapaxes(roots, -1, -2) @ (yy @ roots), 0, -1).copy()


COLUMN_NORM_BASE_CASES = {
    "random": lambda rng: random_density_matrix(rng).mat,
    "werner-1": lambda rng: states.make_werner(1.0).mat,
    "singlet-uu": lambda rng: 0.6 * states.make_werner(1.0).mat + 0.4 * np.diag([1.0, 0, 0, 0]),
    "product": lambda rng: np.diag([1.0, 0, 0, 0]).astype(complex),
}


# the taus of the column-norm tests: COLUMN_NORM_BASE_CASES, Werner states
# with and without a clear gap to separability, and a Bell-diagonal state
COLUMN_NORM_CASES = {
    **COLUMN_NORM_BASE_CASES,
    "werner-0.8": lambda rng: states.make_werner(0.8).mat,
    "werner-0.5001": lambda rng: states.make_werner(0.5001).mat,
    "bell-diagonal": lambda rng: states.make_bell_diagonal([0.7, 0.1, 0.15, 0.05]).mat,
}


@pytest.mark.parametrize("case", list(COLUMN_NORM_CASES))
@pytest.mark.parametrize("max_strength", [0.98, 0.999, 0.9997])
def test_column_norms_match_lapack(case, max_strength, rng, monkeypatch):
    # tau_singular_values on gain_root's filtered roots against LAPACK's svd
    # of the same tau, point by point, within 8 eps of the spectrum's scale
    # t; the rank-1 and rank-2 states give tau zero columns, the product
    # state a zero spectrum. The roots' taus are column-orthogonal, so
    # nearly every point takes the column norms (an eigh root's would all
    # fall back, and the comparison would check LAPACK against itself).
    rows = _svd_rows(monkeypatch)
    for _ in range(4):
        rho = COLUMN_NORM_CASES[case](rng)
        roots, t = _kron_roots(_kernels.gain_root(rho), rng, 200, max_strength)
        tau = _tau_stack(roots)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            sv = _kernels.tau_singular_values(tau, t)
        fell_back = sum(count for count, _ in rows)
        assert sv.shape == (200, 4)
        assert np.all(np.diff(sv, axis=1) <= 0)
        assert np.all(np.abs(sv - _kernels.lambdas(roots)) <= 8 * _kernels._EPS * t[:, None])
        assert fell_back <= 2
        rows.clear()


def test_eigh_root_taus_take_the_full_solve(rng, monkeypatch):
    # non-vacuity: taus that are not column-orthogonal fail the test, go to
    # LAPACK in one call, and still match it. The first stack holds the
    # filtered taus of an eigh root. The second holds two taus with
    # orthogonal columns of norms 1 and 0.5; the first of them adds two
    # parallel columns of norm 5e-8, whose inner product would pass a floor
    # of 16 eps times the largest squared column norm, and whose column
    # norms would understate C by 3e-8.
    tol = 8 * _kernels._EPS
    rows = _svd_rows(monkeypatch)
    rho = random_density_matrix(rng).mat
    roots, t = _kron_roots(_kernels.state_root(rho), rng, 200, 0.999)
    sv = _kernels.tau_singular_values(_tau_stack(roots), t)
    assert rows == [(200, False)]
    assert np.all(np.abs(sv - _kernels.lambdas(roots)) <= tol * t[:, None])
    rows.clear()
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    tau = np.stack([u * [1.0, 0.5, 5e-8, 0.0], u * [1.0, 0.5, 0.0, 0.0]], axis=-1)
    tau[:, 3, 0] = tau[:, 2, 0]
    sv = _kernels.tau_singular_values(tau, np.ones(2))
    assert rows == [(1, False)]
    assert np.all(np.abs(sv - [[1.0, 0.5, np.sqrt(2) * 5e-8, 0.0], [1.0, 0.5, 0.0, 0.0]]) <= tol)


def test_column_norm_point_does_not_depend_on_stack(rng):
    # column-norm points and points that fall back to LAPACK, mixed: each
    # solved alone gives the bits it has in the stack
    rho = random_density_matrix(rng).mat
    roots, t = _kron_roots(_kernels.gain_root(rho), rng, 40, 0.999)
    roots[::3], t[::3] = _kron_roots(_kernels.state_root(rho), rng, 14, 0.98)
    tau = _tau_stack(roots)
    alone = [_kernels.tau_singular_values(tau[:, :, i : i + 1].copy(), t[i : i + 1])
             for i in range(40)]
    assert np.array_equal(_kernels.tau_singular_values(tau, t), np.concatenate(alone))


def test_column_norm_zero_columns_give_zeros():
    tau = np.zeros((4, 4, 3), dtype=complex)
    tau[:, 0, 1] = [1.0, 2j, 0.0, 0.5]
    tau[:, 2, 2] = [0.0, 1.0, 1.0, 0.0]
    tau[:, 3, 2] = [0.0, 1.0, -1.0, 0.0]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        sv = _kernels.tau_singular_values(tau, np.array([0.0, 6.0, 4.0]))
    np.testing.assert_array_equal(sv[0], np.zeros(4))
    np.testing.assert_allclose(sv[1], [np.sqrt(5.25), 0, 0, 0], rtol=1e-15)
    np.testing.assert_allclose(sv[2], [np.sqrt(2), np.sqrt(2), 0, 0], rtol=1e-15)


def test_gain_root_has_column_orthogonal_tau(rng):
    # X W is a root of rho within a few eps, and tau(X W) = (V^T U) Sigma
    # has orthogonal columns whose norms are tau's singular values
    for case in COLUMN_NORM_BASE_CASES:
        for _ in range(4):
            rho = COLUMN_NORM_BASE_CASES[case](rng)
            xw = _kernels.gain_root(rho)
            assert np.abs(xw @ xw.conj().T - rho).max() <= 8 * _kernels._EPS
            tau = _kernels._root_tau(xw)
            gram = tau.conj().T @ tau
            sv = _kernels.lambdas(_kernels.state_root(rho))
            np.testing.assert_allclose(np.sqrt(np.diag(gram).real), sv, rtol=0, atol=8 * _kernels._EPS)
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() <= 8 * _kernels._EPS * sv[0] ** 2


def test_gain_root_chunks_rarely_fall_back(rng, monkeypatch):
    # gain_root hands the column-norm test taus that pass it: of a chunk of
    # the search's random draws, a Werner state and three random states send
    # at most 1% of the points to LAPACK (measured: none); an eigh root
    # would send nearly all of them
    rows = _svd_rows(monkeypatch)
    rhos = [states.make_werner(0.8).mat] + [random_density_matrix(rng).mat for _ in range(3)]
    for rho in rhos:
        draws = candidate_rows(_kernels.CHUNK)
        _random_params(rng, *draws)
        gains, _ = _kernels.filter_gain_batch(rho, 0.0, *draws)
        assert np.isfinite(gains).all()
        assert sum(count for count, _ in rows) <= 0.01 * _kernels.CHUNK
        rows.clear()


def _entangled_random(rng):
    while True:
        rho = random_density_matrix(rng).mat
        if _kernels.concurrence4(rho) > 0.05:
            return rho


GRADIENT_CASES = {
    "werner": lambda rng: states.make_werner(0.55 + 0.45 * rng.random()).mat,
    "bell-diagonal": lambda rng: random_entangled_bell_diagonal(rng).mat,
    "random": _entangled_random,
    "singlet-uu": COLUMN_NORM_BASE_CASES["singlet-uu"],
}
# central differences of the gain in the Cartesian filter vectors, and the
# bound on their distance to the exact gradient: measured at most 3.0e-10
# over these cases (rounding of about eps C / H dominates)
GRADIENT_H = 1e-6
GRADIENT_TOL = 1e-9


@pytest.mark.parametrize("case", list(GRADIENT_CASES))
@pytest.mark.parametrize("max_strength", [0.98, 0.999])
def test_gain_gradient_matches_central_differences(case, max_strength, rng):
    # Werner and Bell-diagonal taus have degenerate singular values, the
    # rank-2 state a rank-deficient tau; the differences are taken through
    # filter_gain_batch, whose chunk body the gradient shares, so the two
    # entries' gains have the same bits
    n = 40
    off = GRADIENT_H * np.concatenate([np.eye(6), -np.eye(6)]).reshape(12, 2, 3)
    for _ in range(3):
        rho = GRADIENT_CASES[case](rng)
        c_in = _kernels.concurrence4(rho)
        v = rng.standard_normal((n, 2, 3))
        v *= (max_strength * rng.random((n, 2)) / np.linalg.norm(v, axis=2))[..., None]
        s = np.linalg.norm(v, axis=2)
        u = v / s[..., None]
        gains, ts, grad = _kernels.filter_gain_gradient(
            _kernels.gain_root(rho), c_in, s[:, 0], u[:, 0], s[:, 1], u[:, 1])
        g_batch, t_batch = _kernels.filter_gain_batch(rho, c_in, s[:, 0], u[:, 0], s[:, 1], u[:, 1])
        assert np.array_equal(ts, t_batch)
        assert np.array_equal(gains, g_batch)
        w = (v[:, None] + off).reshape(-1, 2, 3)
        sw = np.linalg.norm(w, axis=2)
        gw, _ = _kernels.filter_gain_batch(rho, c_in, sw[:, 0], w[:, 0] / sw[:, :1],
                                           sw[:, 1], w[:, 1] / sw[:, 1:])
        gw = gw.reshape(n, 2, 6)
        central = (gw[:, 0] - gw[:, 1]) / (2 * GRADIENT_H)
        assert grad.shape == (n, 6)
        assert np.abs(grad - central).max() <= GRADIENT_TOL


def test_gradient_takes_lapack_vectors_only_at_rounding_level_columns(rng, monkeypatch):
    # refinement-sized calls (30 points, strengths up to 0.999). The
    # column-orthogonal taus of Werner, Bell-diagonal and random full-rank
    # states give the gradient their columns: no point reaches
    # _svd(compute_uv=True). The rank-2 state's taus have two zero columns,
    # so all of its points take LAPACK's vectors; with 1e-13 of the identity
    # mixed in, only the points with a column below COLUMN_FLOOR t do
    # (measured: 5 to 13 of 30)
    rows = _svd_rows(monkeypatch)
    cases = {**GRADIENT_CASES, "near-singlet-uu": lambda rng: (
        COLUMN_NORM_BASE_CASES["singlet-uu"](rng) + 1e-13 * np.eye(4)) / (1.0 + 4e-13)}
    for case in cases:
        vectors = []
        for _ in range(4):
            rho = cases[case](rng)
            a, n, b, m = _random_batch(rng, 30)
            a *= 0.999 / 0.98
            b *= 0.999 / 0.98
            gains, _, grad = _kernels.filter_gain_gradient(
                _kernels.gain_root(rho), _kernels.concurrence4(rho), a, n, b, m)
            assert np.isfinite(gains).all() and np.isfinite(grad).all()
            vectors.append(sum(count for count, uv in rows if uv))
            rows.clear()
        if case == "singlet-uu":
            assert vectors == [30] * 4
        elif case == "near-singlet-uu":
            assert 0 < sum(vectors) < 120, vectors
        else:
            assert vectors == [0] * 4, (case, vectors)


def test_lapack_failure_is_convergence_failure(rng, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    rho = random_density_matrix(rng)
    # the rank-2 state's taus have columns at rounding level, so its
    # gradient points take LAPACK's vectors
    root = _kernels.gain_root(COLUMN_NORM_BASE_CASES["singlet-uu"](rng))
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        _kernels.filter_gain_batch(rho.mat, 0.1, *_random_batch(rng, 6))
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        _kernels.gain_root(rho.mat)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        _kernels.filter_gain_gradient(root, 0.1, *_random_batch(rng, 6))
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        concurrence(rho)


def test_batched_gain_at_strong_filters_matches_40_digits(rng):
    # draw 491 at seed 999 (as in test_entanglement): filters of strength
    # 0.998 and 0.979; the expected value is the filtered state's
    # concurrence in 60-digit arithmetic, taking rho and the filter
    # parameters as exact. The point is evaluated alone and in a chunk of
    # 256 points.
    draws = np.random.default_rng(999)
    for _ in range(492):
        rho = random_density_matrix(draws)
        fa, fb = random_filter(draws, 0.999), random_filter(draws, 0.999)
        # that test's local unitaries, drawn to keep the sequence
        random_unitary(draws)
        random_unitary(draws)
    gains, _ = _kernels.filter_gain_batch(
        rho.mat, 0.0, [fa.strength], [fa.axis], [fb.strength], [fb.axis]
    )
    assert abs(gains[0] - 6.164472197178993e-06) < 1e-10
    a, n, b, m = _random_batch(rng, 256)
    a[7], n[7], b[7], m[7] = fa.strength, fa.axis, fb.strength, fb.axis
    gains, _ = _kernels.filter_gain_batch(rho.mat, 0.0, a, n, b, m)
    assert abs(gains[7] - 6.164472197178993e-06) < 1e-10


@pytest.mark.parametrize("case", list(COLUMN_NORM_BASE_CASES))
def test_solver_routes_agree(case, rng, monkeypatch):
    # the column-norm route against LAPACK for every point of the same
    # draws: t keeps its bits, and the filtered state's concurrence before
    # normalization, gain * t at c_in = 0, agrees within 8 eps t per point,
    # so the gain within 8 eps
    k = 256
    for _ in range(4):
        rho = COLUMN_NORM_BASE_CASES[case](rng)
        a, n, b, m = _random_batch(rng, k)
        a[: k // 2] *= 0.999 / 0.98
        g_col, t_col = _kernels.filter_gain_batch(rho, 0.0, a, n, b, m)
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "tau_singular_values",
                          lambda tau, t, scratch: _kernels._svd(np.moveaxis(tau, -1, 0)))
            g_svd, t_svd = _kernels.filter_gain_batch(rho, 0.0, a, n, b, m)
        assert np.array_equal(t_svd, t_col)
        assert np.isfinite(g_svd).all() and np.isfinite(g_col).all()
        assert np.all(np.abs(g_svd - g_col) <= 8 * _kernels._EPS)


@pytest.mark.parametrize("case", list(COLUMN_NORM_BASE_CASES))
def test_lapack_chunk_equals_one_point_calls(case, rng):
    # one route for every chunk length, short chunks included: the first
    # 40 points and the last, each evaluated alone, have the same gain and
    # t bits in batches of 40, 255, 256 and CHUNK + 1 points (whose last
    # point is a chunk of its own). Half the points have strengths up to
    # 0.999, and a pair of |d> projectors filters every fifth of the first
    # 40 out where the state has no |dd> component.
    k = _kernels.CHUNK + 1
    rho = COLUMN_NORM_BASE_CASES[case](rng)
    a, n, b, m = _random_batch(rng, k)
    a[1::2] *= 0.999 / 0.98
    a[:40:5], n[:40:5], b[:40:5], m[:40:5] = 1.0, [0.0, 0.0, -1.0], 1.0, [0.0, 0.0, -1.0]
    points = [*range(40), k - 1]
    alone = np.array([_kernels.filter_gain_batch(rho, 0.3, a[i:i + 1], n[i:i + 1], b[i:i + 1], m[i:i + 1])
                      for i in points])[:, :, 0]
    assert np.isneginf(alone[:40:5, 0]).all() == (case != "random")
    for length in (40, 255, 256, k):
        gains, ts = _kernels.filter_gain_batch(rho, 0.3, a[:length], n[:length], b[:length], m[:length])
        inside = [i for i in points if i < length]
        assert np.array_equal(gains[inside], alone[: len(inside), 0])
        assert np.array_equal(ts[inside], alone[: len(inside), 1])


def _reuse_batches(rng):
    """The batches of the workspace reuse test, as (rho, (a, n, b, m),
    via_lapack): a full chunk, 17 points, a batch of which a pair of |d>
    projectors filters every tenth point out, a batch whose points all go
    to LAPACK, and two chunks, the second of 17 points."""
    full_rank = random_density_matrix(rng).mat
    cut = _random_batch(rng, 300)
    for col, value in zip(cut, (1.0, [0.0, 0.0, -1.0], 1.0, [0.0, 0.0, -1.0])):
        col[::10] = value
    return [
        (full_rank, _random_batch(rng, _kernels.CHUNK), False),
        (states.make_werner(0.8).mat, _random_batch(rng, 17), False),
        (COLUMN_NORM_BASE_CASES["singlet-uu"](rng), cut, False),
        (random_density_matrix(rng).mat, _random_batch(rng, 200), True),
        (full_rank, _random_batch(rng, _kernels.CHUNK + 17), False),
    ]


def _reuse_bits(rho, params, via_lapack, monkeypatch):
    """A batch's gains and t as one uint64 array; ``via_lapack`` scores it on
    state_root's root, whose taus of a random full-rank state are not
    column-orthogonal (the state of svd_fails_on_stacks, without the
    failure), and checks that every point went to LAPACK."""
    with monkeypatch.context() as patch:
        if via_lapack:
            patch.setattr(_kernels, "gain_root", _kernels.state_root)
            rows = _svd_rows(patch)
        gains, t = _kernels.filter_gain_batch(rho, 0.3, *params)
    if via_lapack:
        assert sum(count for count, _ in rows) == len(gains)
    return np.concatenate([gains, t]).view(np.uint64)


@pytest.mark.parametrize("cpus", [1, 2])
def test_reused_workspaces_keep_every_bit(cpus, rng, monkeypatch, fresh_pool):
    # the batches scored in sequence, the first again last, each on the
    # workspaces the ones before it left, filled with NaN in between: each
    # has the bits it has on new workspaces, so no stage reads an entry it
    # did not write. Each thread that ran a chunk holds one workspace, made
    # anew only for a chunk longer than any it ran before.
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: cpus)
    batches = _reuse_batches(rng)
    batches.append(batches[0])
    fresh = []
    for batch in batches:
        monkeypatch.setattr(_kernels, "_local", threading.local())
        fresh.append(_reuse_bits(*batch, monkeypatch))
    assert np.isneginf(fresh[2][:300:10].view(float)).all()
    monkeypatch.setattr(_kernels, "_local", threading.local())
    calls, workspace = [], _kernels._workspace

    def recording(k):
        calls.append((threading.get_ident(), k, workspace(k)))
        return calls[-1][2]

    monkeypatch.setattr(_kernels, "_workspace", recording)
    held, longest = {}, {}
    for batch, expected in zip(batches, fresh):
        for buf in (buf for ws in held.values() for buf in ws):
            buf.fill(np.nan)
        assert np.array_equal(_reuse_bits(*batch, monkeypatch), expected)
        for thread, k, ws in calls:
            if thread in held:
                assert (ws is held[thread]) == (k <= longest[thread])
            held[thread], longest[thread] = ws, max(k, longest.get(thread, 0))
        calls.clear()
    # the calling thread, and with cpus 2 the pool's threads
    assert 1 <= len(held) <= (1 if cpus == 1 else 1 + cpus)


def test_warm_batch_allocates_nothing_per_chunk(rng, monkeypatch):
    # once its workspace exists, a batch allocates nothing that grows with
    # a chunk: a warm 19,729-point batch (the size of a Bell-diagonal
    # certificate's table) on one worker peaks below 1 MB, its 316 kB of
    # results included, where a chunk's intermediates alone take 3.1 MB
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 1)
    rho = random_density_matrix(rng).mat
    params = _random_batch(rng, 19_729)
    _kernels.filter_gain_batch(rho, 0.3, *params)
    tracemalloc.start()
    try:
        _kernels.filter_gain_batch(rho, 0.3, *params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_threaded_certificate_is_identical_to_one_worker(monkeypatch, fresh_pool):
    # restarts beyond two chunks put the random stage on the pool
    cfg = SearchConfig(restarts=9000, grid_density=2, local_steps=60, seed=5)
    rho = states.make_bell_diagonal([0.7, 0.1, 0.15, 0.05])
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    threaded = certificate_to_dict(maximize_concurrence_gain(rho, cfg))
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 1)
    assert threaded == certificate_to_dict(maximize_concurrence_gain(rho, cfg))


def test_filtered_out_gain_is_minus_inf():
    # a projector pair annihilates the orthogonal pure product state
    up_up = np.zeros((4, 4), dtype=complex)
    up_up[0, 0] = 1.0
    gains, ts = _kernels.filter_gain_batch(
        up_up, 0.0, [1.0], [[0.0, 0.0, -1.0]], [0.0], [[0.0, 0.0, 1.0]]
    )
    assert gains[0] == -np.inf
    assert ts[0] <= 1e-14
    gains, ts, grad = _kernels.filter_gain_gradient(
        _kernels.gain_root(up_up), 0.0, np.array([1.0, 0.5]), np.array([[0.0, 0.0, -1.0]] * 2),
        np.array([0.0, 0.5]), np.array([[0.0, 0.0, 1.0]] * 2)
    )
    assert gains[0] == -np.inf and np.isnan(grad[0]).all()
    # a product state keeps concurrence 0, which the clamp holds flat
    assert gains[1] == 0.0 and np.all(grad[1] == 0.0)


def test_concurrence_spectrum_policy():
    # Hermitian unit-trace but not PSD: the clamp policy must flag it
    bad = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
    with pytest.raises(SpectrumError):
        _kernels.concurrence4(bad)


def test_active_backend_exports():
    assert _kernels.BACKEND == "python"
    assert callable(_kernels.eigvals4x4)
    assert callable(_kernels.filter_gain_batch)


def _qlocc_imports(node) -> list:
    """The qlocc modules an import statement names ([] for any other node)."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "qlocc"]
    if isinstance(node, ast.ImportFrom):
        if node.level or node.module == "qlocc":
            return [f"qlocc.{a.name}" for a in node.names]
        if node.module.split(".")[0] == "qlocc":
            return [node.module]
    return []


def test_kernels_are_the_lowest_layer():
    # _kernels imports only qlocc.errors from the package, and no package
    # module imports a qlocc module inside a function: there is no import
    # cycle to break that way. The Pauli matrices are defined once, here.
    package = os.path.dirname(_kernels.__file__)
    trees = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    assert {m for node in ast.walk(trees["_kernels.py"]) for m in _qlocc_imports(node)} == {
        "qlocc.errors"}
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [m for node in ast.walk(fn) for m in _qlocc_imports(node)]
                assert not inner, (name, fn.name, inner)
    assert states.PAULI is _kernels.PAULI
    assert [p.tobytes() for p in (states.SX, states.SY, states.SZ)] == [
        p.tobytes() for p in _kernels.PAULI]


def test_concurrence_noise_snap():
    from qlocc.states import make_werner

    # at the separability boundary the value is exactly zero, not eps noise
    assert _kernels.concurrence4(make_werner(0.5).mat) == 0.0


def test_kron_has_the_bits_of_np_kron(rng):
    for n in (2, 4):
        for _ in range(200):
            a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
            assert _kernels.kron(a, b).tobytes() == np.kron(a, b).tobytes()
