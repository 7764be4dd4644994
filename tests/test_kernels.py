"""The numpy kernels: the Jacobi and LAPACK solvers against each other and
against references, the batched gain, its threads and its error paths."""

import sys

import numpy as np
import pytest

from qlocc import _kernels, states
from qlocc.entanglement import concurrence
from qlocc.errors import ConvergenceFailure, SpectrumError
from qlocc.locc import random_filter, random_unitary
from qlocc.nogo import SearchConfig, certificate_to_dict, maximize_concurrence_gain

# the kernels as a parameter, so each test's id names the backend it ran on
ON_BACKEND = pytest.mark.parametrize("impl", [_kernels], ids=[_kernels.BACKEND])


@ON_BACKEND
def test_eigvals_specials(impl):
    np.testing.assert_allclose(impl.eigvals4x4(np.zeros((4, 4))), np.zeros(4), atol=1e-14)
    np.testing.assert_allclose(impl.eigvals4x4(np.eye(4)), np.ones(4), atol=1e-14)
    w = np.sort(impl.eigvals4x4(np.diag([4.0, 3.0, 2.0, 1.0])).real)
    np.testing.assert_allclose(w, [1, 2, 3, 4], atol=1e-13)


@ON_BACKEND
def test_eigvals_rejects_wrong_shape(impl):
    with pytest.raises(ValueError):
        impl.eigvals4x4(np.eye(3))


def _random_batch(rng, N):
    a = rng.random(N) * 0.98
    b = rng.random(N) * 0.98
    n = rng.standard_normal((N, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    m = rng.standard_normal((N, 3))
    m /= np.linalg.norm(m, axis=1)[:, None]
    return a, n, b, m


@ON_BACKEND
def test_batch_matches_single(impl, rng):
    rho = states.random_density_matrix(rng).mat
    c_in = impl.concurrence4(rho)
    a, n, b, m = _random_batch(rng, 64)
    gains, ts = impl.filter_gain_batch(rho, c_in, a, n, b, m)
    for i in range(64):
        g, t = impl.filter_gain_single(rho, c_in, a[i], n[i], b[i], m[i])
        assert gains[i] == pytest.approx(g, abs=1e-13)
        assert ts[i] == pytest.approx(t, abs=1e-14)


@ON_BACKEND
def test_batch_rejects_mismatched_shapes(impl, rng):
    rho = states.random_density_matrix(rng).mat
    a, n, b, m = _random_batch(rng, 3)
    with pytest.raises(ValueError):
        impl.filter_gain_batch(rho, 0.1, a, n[:1], b, m)
    with pytest.raises(ValueError):
        impl.filter_gain_batch(rho, 0.1, a[:2], n[:2], b[:1], m[:1])
    with pytest.raises(ValueError):
        impl.filter_gain_batch(rho, 0.1, a, n[:, :2], b, m)
    with pytest.raises(ValueError):
        impl.filter_gain_batch(rho, 0.1, a, n, b, np.ones((3, 4)))


def test_threaded_batch_is_identical_to_chunks_and_one_worker(rng, monkeypatch):
    # about 2.5 chunks, so three workers share the output arrays and the
    # last chunk is partial; a short switch interval interleaves them often
    rho = states.random_density_matrix(rng).mat
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


def test_threaded_batch_raises_worker_errors(rng, monkeypatch):
    def fail(tau):
        raise FloatingPointError("chunk failed")

    rho = states.random_density_matrix(rng).mat
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_kernels, "tau_singular_values", fail)
    with pytest.raises(FloatingPointError, match="chunk failed"):
        _kernels.filter_gain_batch(rho, 0.1, *_random_batch(rng, 2 * _kernels.CHUNK))


def _kron_roots(rho, rng, N, max_strength):
    """Roots (A x B) X of N randomly filtered copies of rho, built as dense
    Kronecker products, and their squared norms t = tr((A x B) rho (A x B)+)."""
    a, n, b, m = _random_batch(rng, N)
    a *= max_strength / 0.98
    b *= max_strength / 0.98
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    fa = np.eye(2) + a[:, None, None] * np.einsum("nk,kij->nij", n, pauli)
    fb = np.eye(2) + b[:, None, None] * np.einsum("nk,kij->nij", m, pauli)
    kron = np.einsum("nab,ncd->nacbd", fa, fb).reshape(N, 4, 4)
    roots = kron @ _kernels.state_root(rho)
    return roots, (np.abs(roots) ** 2).sum(axis=(1, 2))


def _tau_stack(roots):
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    return np.moveaxis(np.swapaxes(roots, -1, -2) @ (yy @ roots), 0, -1).copy()


JACOBI_CASES = {
    "random": lambda rng: states.random_density_matrix(rng).mat,
    "werner-1": lambda rng: states.make_werner(1.0).mat,
    "singlet-uu": lambda rng: 0.6 * states.make_werner(1.0).mat + 0.4 * np.diag([1.0, 0, 0, 0]),
    "product": lambda rng: np.diag([1.0, 0, 0, 0]).astype(complex),
}


@pytest.mark.parametrize("case", list(JACOBI_CASES))
@pytest.mark.parametrize("max_strength", [0.98, 0.999])
def test_jacobi_matches_lapack(case, max_strength, rng):
    # the batched solver against LAPACK's svd of the same tau, point by
    # point, within 8 eps of the spectrum's scale t; the rank-1 and rank-2
    # states give tau zero columns, the product state a zero spectrum
    for _ in range(4):
        rho = JACOBI_CASES[case](rng)
        roots, t = _kron_roots(rho, rng, 200, max_strength)
        tau = _tau_stack(roots)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            sv = _kernels.tau_singular_values(tau)
        assert sv.shape == (200, 4)
        assert np.all(np.diff(sv, axis=1) <= 0)
        assert np.all(np.abs(sv - _kernels.lambdas(roots)) <= 8 * _kernels._EPS * t[:, None])


def test_jacobi_point_does_not_depend_on_stack(rng):
    # a converged point gets the exact identity, so solving it alone or
    # among slower points gives the same bits
    rho = states.random_density_matrix(rng).mat
    roots, _ = _kron_roots(rho, rng, 40, 0.999)
    roots[::3] = _kron_roots(states.make_werner(1.0).mat, rng, 14, 0.98)[0]
    tau = _tau_stack(roots)
    alone = [_kernels.tau_singular_values(tau[:, :, i : i + 1].copy()) for i in range(40)]
    assert np.array_equal(_kernels.tau_singular_values(tau), np.concatenate(alone))


def test_jacobi_zero_columns_give_zeros():
    tau = np.zeros((4, 4, 3), dtype=complex)
    tau[:, 0, 1] = [1.0, 2j, 0.0, 0.5]
    tau[:, 2, 2] = [0.0, 1.0, 1.0, 0.0]
    tau[:, 3, 2] = [0.0, 1.0, -1.0, 0.0]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        sv = _kernels.tau_singular_values(tau)
    np.testing.assert_array_equal(sv[0], np.zeros(4))
    np.testing.assert_allclose(sv[1], [np.sqrt(5.25), 0, 0, 0], rtol=1e-15)
    np.testing.assert_allclose(sv[2], [np.sqrt(2), np.sqrt(2), 0, 0], rtol=1e-15)


def test_jacobi_sweep_cap_raises(rng, monkeypatch):
    # the shortest chunk that the Jacobi solver takes
    monkeypatch.setattr(_kernels, "JACOBI_MAX_SWEEPS", 1)
    rho = states.random_density_matrix(rng).mat
    with pytest.raises(ConvergenceFailure):
        _kernels.filter_gain_batch(rho, 0.1, *_random_batch(rng, _kernels.JACOBI_MIN_POINTS))


def test_lapack_failure_is_convergence_failure(rng, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    rho = states.random_density_matrix(rng)
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        _kernels.filter_gain_batch(rho.mat, 0.1, *_random_batch(rng, 6))
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        concurrence(rho)


def test_batched_gain_at_strong_filters_matches_40_digits(rng):
    # draw 491 at seed 999 (as in test_entanglement): filters of strength
    # 0.998 and 0.979; the expected value is the filtered state's
    # concurrence in 60-digit arithmetic, taking rho and the filter
    # parameters as exact. Alone the point goes to LAPACK, in a chunk of
    # JACOBI_MIN_POINTS to the Jacobi solver.
    draws = np.random.default_rng(999)
    for _ in range(492):
        rho = states.random_density_matrix(draws)
        fa, fb = random_filter(draws, 0.999), random_filter(draws, 0.999)
        # that test's local unitaries, drawn to keep the sequence
        random_unitary(draws)
        random_unitary(draws)
    gains, _ = _kernels.filter_gain_batch(
        rho.mat, 0.0, [fa.strength], [fa.axis], [fb.strength], [fb.axis]
    )
    assert abs(gains[0] - 6.164472197178993e-06) < 1e-10
    a, n, b, m = _random_batch(rng, _kernels.JACOBI_MIN_POINTS)
    a[7], n[7], b[7], m[7] = fa.strength, fa.axis, fb.strength, fb.axis
    gains, _ = _kernels.filter_gain_batch(rho.mat, 0.0, a, n, b, m)
    assert abs(gains[7] - 6.164472197178993e-06) < 1e-10


@pytest.mark.parametrize("case", list(JACOBI_CASES))
def test_solver_routes_agree(case, rng):
    # the same draws in a chunk one point short of the Jacobi solver and in
    # one that takes it: the filtered state's concurrence before
    # normalization, gain * t at c_in = 0, agrees within 8 eps t per point,
    # so the gain within 8 eps
    k = _kernels.JACOBI_MIN_POINTS
    for _ in range(4):
        rho = JACOBI_CASES[case](rng)
        a, n, b, m = _random_batch(rng, k)
        a[: k // 2] *= 0.999 / 0.98
        g_jac, t_jac = _kernels.filter_gain_batch(rho, 0.0, a, n, b, m)
        g_svd, t_svd = _kernels.filter_gain_batch(rho, 0.0, a[:-1], n[:-1], b[:-1], m[:-1])
        assert np.array_equal(t_svd, t_jac[:-1])
        assert np.isfinite(g_svd).all() and np.isfinite(g_jac).all()
        assert np.all(np.abs(g_svd - g_jac[:-1]) <= 8 * _kernels._EPS)


@pytest.mark.parametrize("case", ["random", "singlet-uu"])
def test_lapack_chunk_equals_one_point_calls(case, rng):
    # below JACOBI_MIN_POINTS a point's bits do not depend on its chunk
    # mates; on the rank-2 state a pair of |d> projectors filters every
    # fifth point out
    rho = JACOBI_CASES[case](rng)
    a, n, b, m = _random_batch(rng, 40)
    a[::5], n[::5], b[::5], m[::5] = 1.0, [0.0, 0.0, -1.0], 1.0, [0.0, 0.0, -1.0]
    gains, ts = _kernels.filter_gain_batch(rho, 0.3, a, n, b, m)
    assert np.isneginf(gains[::5]).all() == (case == "singlet-uu")
    alone = [_kernels.filter_gain_batch(rho, 0.3, a[i:i + 1], n[i:i + 1], b[i:i + 1], m[i:i + 1])
             for i in range(40)]
    assert np.array_equal(gains, np.concatenate([g for g, _ in alone]))
    assert np.array_equal(ts, np.concatenate([t for _, t in alone]))


def test_threaded_certificate_is_identical_to_one_worker(monkeypatch):
    # restarts beyond two chunks put the random stage on the pool
    cfg = SearchConfig(restarts=9000, grid_density=2, local_steps=60, seed=5)
    rho = states.make_bell_diagonal([0.7, 0.1, 0.15, 0.05])
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    threaded = certificate_to_dict(maximize_concurrence_gain(rho, cfg))
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 1)
    assert threaded == certificate_to_dict(maximize_concurrence_gain(rho, cfg))


@ON_BACKEND
def test_filtered_out_gain_is_minus_inf(impl):
    # a projector pair annihilates the orthogonal pure product state
    up_up = np.zeros((4, 4), dtype=complex)
    up_up[0, 0] = 1.0
    gains, ts = impl.filter_gain_batch(
        up_up, 0.0, [1.0], [[0.0, 0.0, -1.0]], [0.0], [[0.0, 0.0, 1.0]]
    )
    assert gains[0] == -np.inf
    assert ts[0] <= 1e-14


@ON_BACKEND
def test_concurrence_spectrum_policy(impl):
    # Hermitian unit-trace but not PSD: the clamp policy must flag it
    bad = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
    with pytest.raises(SpectrumError):
        impl.concurrence4(bad)


def test_active_backend_exports():
    assert _kernels.BACKEND == "python"
    assert callable(_kernels.eigvals4x4)
    assert callable(_kernels.filter_gain_batch)


@ON_BACKEND
def test_concurrence_noise_snap(impl):
    from qlocc.states import make_werner

    # at the separability boundary the value is exactly zero, not eps noise
    assert impl.concurrence4(make_werner(0.5).mat) == 0.0
