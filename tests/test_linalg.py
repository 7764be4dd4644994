"""``linalg.eig_general``, the general 4x4 eigensolver the benchmark's
tracer times, and the spin flip against a Kronecker-product oracle."""

import numpy as np

from qlocc import linalg
from qlocc.entanglement import spin_flip_operator
from qlocc.states import make_werner

from conftest import SY, charpoly_roots_oracle, kron_oracle


def test_kron_in_tilde_definition_matches_oracle(rng):
    # the 4x4 spin flip against sy x sy built by the nested-loop oracle
    yy_oracle = kron_oracle(SY, SY)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(
        spin_flip_operator(m), yy_oracle @ m.conj() @ yy_oracle, atol=1e-14
    )


def test_eig_general_diagonal():
    w = np.sort(linalg.eig_general(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)).real)
    np.testing.assert_allclose(w, [1, 2, 3, 4], atol=1e-12)


def test_eig_general_planted_spectrum(rng):
    for _ in range(200):
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ np.diag(d) @ np.linalg.inv(g)
        w = np.sort_complex(linalg.eig_general(m))
        assert np.abs(w - np.sort_complex(d)).max() < 1e-8


def test_eig_general_werner_product_spectrum():
    # rho rho~ for W(0.7) has a real nonnegative spectrum; cross-check the
    # values against characteristic-polynomial root finding
    rho = make_werner(0.7).mat
    yy = kron_oracle(SY, SY)
    prod = rho @ (yy @ rho.conj() @ yy)
    w = linalg.eig_general(prod)
    assert np.abs(w.imag).max() < 1e-9
    assert w.real.min() > -1e-9
    # analytic spectrum of rho^2 for this Bell-diagonal case
    np.testing.assert_allclose(np.sort(w.real), [0.01, 0.01, 0.01, 0.49], atol=1e-12)
    # the polynomial-root oracle corroborates, at the conditioning limit of
    # its triple root (eps**(1/3) scale)
    roots = charpoly_roots_oracle(prod)
    np.testing.assert_allclose(np.sort(w.real), np.sort(roots.real), atol=1e-5)


def test_eig_general_back_substitution(rng):
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for lam in linalg.eig_general(m):
            assert abs(np.linalg.det(m - lam * np.eye(4))) < 1e-10


def test_eig_general_matches_eigh_on_hermitian_input(rng):
    for _ in range(50):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = b + b.conj().T
        wg = np.sort(linalg.eig_general(m).real)
        assert np.abs(np.linalg.eigvalsh(m) - wg).max() < 1e-8
