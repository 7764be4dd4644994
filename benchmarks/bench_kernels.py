"""Benchmark the compiled kernels against the pure-Python fallback.

Times the three hot operations on identical inputs: 4x4 eigenvalues, the
filtered-gain objective one point at a time, and the batched objective
(the shape of every search stage). Run as ``python benchmarks/bench_kernels.py``.

The batched figure is per point over 100000 points. The fallback spreads
a batch that large over a thread pool, one worker per usable CPU, so its
batched figure is multi-threaded; the compiled core's is single-threaded.

The fallback takes the singular values of a tau stack of at least
``JACOBI_MIN_POINTS`` points by one-sided Jacobi, vectorized over the
points, and of a shorter one by LAPACK's ``svd``. Its one-point figure
therefore times one LAPACK solve plus the batch's set-up; the search sends
every point through the batch, and no package code takes the one-point
path.
"""

import time

import numpy as np

from qlocc._kernels import _fallback

try:
    from qlocc._kernels import _core
except ImportError:
    _core = None


def _time(fn, repeats):
    t0 = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t0
    return elapsed / repeats


def _random_problem(rng, n):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    a = rng.random(n) * 0.98
    b = rng.random(n) * 0.98
    nv = rng.standard_normal((n, 3))
    nv /= np.linalg.norm(nv, axis=1)[:, None]
    mv = rng.standard_normal((n, 3))
    mv /= np.linalg.norm(mv, axis=1)[:, None]
    return rho, a, nv, b, mv


def main():
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((2000, 4, 4)) + 1j * rng.standard_normal((2000, 4, 4))
    rho, a, nv, b, mv = _random_problem(rng, 100_000)
    c_in = _fallback.concurrence4(rho)

    backends = [("python", _fallback)]
    if _core is not None:
        backends.append(("cython", _core))
    else:
        print("compiled core unavailable; timing the fallback only")

    rows = []
    for name, impl in backends:
        t_eig = _time(lambda: [impl.eigvals4x4(m) for m in mats], len(mats))
        t_single = _time(
            lambda: [
                impl.filter_gain_single(rho, c_in, a[i], nv[i], b[i], mv[i])
                for i in range(2000)
            ],
            2000,
        )
        t_batch = _time(lambda: impl.filter_gain_batch(rho, c_in, a, nv, b, mv), len(a))
        rows.append((name, t_eig, t_single, t_batch))

    header = f"{'backend':<10}{'eigvals4x4':>14}{'gain single':>14}{'gain batch':>14}"
    print(header)
    print("-" * len(header))
    for name, t_eig, t_single, t_batch in rows:
        print(
            f"{name:<10}{t_eig * 1e6:>11.2f} us{t_single * 1e6:>11.2f} us"
            f"{t_batch * 1e6:>11.2f} us"
        )
    if len(rows) == 2:
        py, cy = rows
        print(
            f"\nspeedup (python/cython): eigvals {py[1] / cy[1]:.1f}x, "
            f"single {py[2] / cy[2]:.1f}x, batch {py[3] / cy[3]:.1f}x"
        )


if __name__ == "__main__":
    main()
