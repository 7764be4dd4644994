import math

import numpy as np
import pytest

from qlocc import _kernels, states
from qlocc.entanglement import (
    binary_entropy,
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    invariant_ratios,
    lambda_spectrum,
    spin_flip,
    spin_flip_operator,
)
from qlocc.errors import SpectrumError
from qlocc.locc import (
    LocalOperation,
    apply_local_pair,
    filter_matrix,
    predicted_concurrence,
)
from qlocc.states import DensityMatrix, density_from_pure, make_bell_diagonal, make_werner

from conftest import (
    SX,
    SY,
    SZ,
    concurrence_oracle,
    lambda_oracle,
    random_density_matrix,
    random_filter,
    random_op,
    random_pure_state,
    random_unitary,
    spin_flip_oracle,
    su2_from_angle_axis,
)


MAX_MIXED = DensityMatrix(np.eye(4) / 4)


# --- the spin flip and its four itemized properties ---

def test_spin_flip_fixes_maximally_mixed():
    np.testing.assert_allclose(spin_flip(MAX_MIXED).mat, np.eye(4) / 4, atol=1e-15)


def test_spin_flip_fixes_singlet():
    s = DensityMatrix(states.SINGLET_PROJ)
    np.testing.assert_allclose(spin_flip(s).mat, spin_flip_oracle(s.mat), atol=1e-15)
    np.testing.assert_allclose(spin_flip(s).mat, s.mat, atol=1e-15)


def test_spin_flip_fixes_bell_diagonal(rng):
    for _ in range(20):
        p = rng.random(4)
        p /= p.sum()
        rho = make_bell_diagonal(p)
        np.testing.assert_allclose(spin_flip(rho).mat, rho.mat, atol=1e-14)


def test_spin_flip_matches_definition(rng):
    rho = random_density_matrix(rng)
    np.testing.assert_allclose(spin_flip(rho).mat, spin_flip_oracle(rho.mat), atol=1e-15)


def test_tilde_factorizes_on_products(rng):
    for _ in range(20):
        ra = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ra = ra @ ra.conj().T
        rb = rb @ rb.conj().T
        ra /= np.trace(ra).real
        rb /= np.trace(rb).real
        lhs = spin_flip_operator(np.kron(ra, rb))
        rhs = np.kron(spin_flip_operator(ra), spin_flip_operator(rb))
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_tilde_of_conjugation(rng):
    # tilde(O rho O+) = O~ rho~ O~+ for arbitrary operators
    for _ in range(20):
        rho = random_density_matrix(rng).mat
        oa = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ob = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        o = np.kron(oa, ob)
        lhs = spin_flip_operator(o @ rho @ o.conj().T)
        ot = spin_flip_operator(o)
        rhs = ot @ spin_flip_operator(rho) @ ot.conj().T
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_tilde_fixes_special_unitaries(rng):
    for _ in range(20):
        u = su2_from_angle_axis(rng.uniform(0, math.pi), rng.standard_normal(3))
        assert np.linalg.norm(spin_flip_operator(u) - u) < 1e-10


def test_tilde_reverses_filter_axis(rng):
    for _ in range(20):
        f = random_filter(rng)
        flipped = filter_matrix(
            type(f)(strength=f.strength, axis=-f.axis, scale=f.scale)
        )
        assert np.linalg.norm(spin_flip_operator(filter_matrix(f)) - flipped) < 1e-10


def test_tilde_flips_bloch_vector(rng):
    for _ in range(20):
        alpha = rng.standard_normal(3)
        alpha *= rng.random() / np.linalg.norm(alpha)
        bloch = alpha[0] * SX + alpha[1] * SY + alpha[2] * SZ
        rho1 = (np.eye(2) + bloch) / 2
        expected = (np.eye(2) - bloch) / 2
        assert np.linalg.norm(spin_flip_operator(rho1) - expected) < 1e-12


# --- lambda spectrum ---

def test_lambda_spectrum_werner():
    # Bell-diagonal states satisfy rho~ = rho, so the lambdas are just the
    # eigenvalues of rho; cross-check with a Hermitian eigensolve
    for f in [0.3, 0.6, 0.85]:
        lam = lambda_spectrum(make_werner(f)).lambdas
        expected = np.sort(np.linalg.eigvalsh(make_werner(f).mat))[::-1]
        np.testing.assert_allclose(lam, expected, atol=1e-10)
    np.testing.assert_allclose(
        lambda_spectrum(make_werner(0.7)).lambdas, [0.7, 0.1, 0.1, 0.1], atol=1e-10
    )


def test_lambda_spectrum_product_state_vanishes():
    up_up = states.PureState(np.array([1.0, 0, 0, 0], dtype=complex))
    lam = lambda_spectrum(density_from_pure(up_up)).lambdas
    assert max(lam) < 1e-9


def test_lambda_spectrum_maximally_mixed():
    np.testing.assert_allclose(lambda_spectrum(MAX_MIXED).lambdas, [0.25] * 4, atol=1e-12)


def test_lambda_spectrum_matches_hermitian_oracle(rng):
    for _ in range(30):
        rho = random_density_matrix(rng)
        np.testing.assert_allclose(
            lambda_spectrum(rho).lambdas, lambda_oracle(rho.mat), atol=1e-8
        )
        # one route: the kernel's spectrum, bit for bit
        kernel = _kernels.lambdas(_kernels.state_root(rho.mat))
        assert lambda_spectrum(rho).lambdas == tuple(kernel.tolist())


def test_one_spectrum_per_state(monkeypatch):
    # the four quantities of one state share one root and one svd
    calls = {"state_root": 0, "_svd": 0}
    for name in calls:
        def counted(*args, _fn=getattr(_kernels, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(_kernels, name, counted)
    rho = make_bell_diagonal([0.7, 0.1, 0.15, 0.05])
    lambda_spectrum(rho)
    concurrence(rho)
    entanglement_of_formation(rho)
    invariant_ratios(rho)
    assert calls == {"state_root": 1, "_svd": 1}


def test_one_concurrence_per_state(monkeypatch):
    # the concurrence and the entanglement of formation share one
    # computation, cached outside the instance dict, so vars() of a state
    # holds its matrix and its spectrum only
    calls = []
    fn = _kernels.concurrence_from_lambdas
    monkeypatch.setattr(_kernels, "concurrence_from_lambdas",
                        lambda lam: calls.append(lam) or fn(lam))
    rho = make_bell_diagonal([0.7, 0.1, 0.15, 0.05])
    assert concurrence(rho) == concurrence(rho) == float(fn(rho.lambdas))
    entanglement_of_formation(rho)
    assert len(calls) == 1
    assert list(vars(rho)) == ["mat", "lambdas"]


def test_cached_spectrum_keeps_the_kernel_bits(rng):
    # whichever quantity reads a state's spectrum first, all four equal the
    # uncached kernel route bit for bit
    for i in range(300):
        rho = random_density_matrix(rng)
        lam = _kernels.lambdas(_kernels.state_root(rho.mat)).tolist()
        c = _kernels.concurrence4(rho.mat)
        if i % 2:
            assert concurrence(rho) == c
        assert lambda_spectrum(rho).lambdas == tuple(lam)
        assert concurrence(rho) == c
        assert entanglement_of_formation(rho) == eof_from_concurrence(c)
        assert invariant_ratios(rho).ratios == tuple(l / lam[0] for l in lam[1:])


def test_lambda_spectrum_descending(rng):
    for _ in range(20):
        lam = lambda_spectrum(random_density_matrix(rng)).lambdas
        assert all(lam[i] >= lam[i + 1] for i in range(3))
        assert lam[3] >= 0.0


def test_spectrum_error_on_invalid_input():
    # Hermitian, unit trace, but not PSD: the product spectrum goes negative
    bad = DensityMatrix(np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex))
    with pytest.raises(SpectrumError):
        lambda_spectrum(bad)


# --- concurrence and entanglement of formation ---

def test_concurrence_examples():
    assert concurrence(make_werner(0.5)) == 0.0
    assert abs(concurrence(DensityMatrix(states.SINGLET_PROJ)) - 1.0) < 1e-12


def test_concurrence_werner_law_grid():
    for f in np.linspace(0.51, 1.0, 25):
        assert abs(concurrence(make_werner(f)) - (2 * f - 1)) < 1e-9


def test_concurrence_matches_oracle(rng):
    for _ in range(30):
        rho = random_density_matrix(rng)
        assert abs(concurrence(rho) - concurrence_oracle(rho.mat)) < 1e-8
        assert concurrence(rho) == _kernels.concurrence4(rho.mat)


def test_concurrence_of_strongly_filtered_state():
    # draw 491 at seed 999: filters of strength 0.998 and 0.979 leave the
    # branch probability at 5.7e-4, and the filtered concurrence must still
    # follow the transformation law; general eigenvalues of rho * rho~ miss
    # it here by 1.4e-7
    rng = np.random.default_rng(999)
    for _ in range(492):
        rho = random_density_matrix(rng)
        fa, fb = random_filter(rng, 0.999), random_filter(rng, 0.999)
        ops = [LocalOperation(unitary=random_unitary(rng), filter=f) for f in (fa, fb)]
    out = apply_local_pair(rho, *ops)
    assert 5e-4 < out.probability < 6e-4
    expected = predicted_concurrence(concurrence(rho), fa, fb, out.probability)
    assert abs(concurrence(out.state) - expected) < 1e-10


def test_concurrence_invariant_under_local_unitaries(rng):
    for _ in range(30):
        rho = random_density_matrix(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
        assert abs(concurrence(rotated) - concurrence(rho)) < 1e-10


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    assert abs(binary_entropy(0.3) - binary_entropy(0.7)) < 1e-15


def test_eof_examples():
    assert eof_from_concurrence(0.0) == 0.0
    assert abs(eof_from_concurrence(1.0) - 1.0) < 1e-15
    # independent evaluation: H((1 + sqrt(1 - 0.36))/2) = H(0.9)
    assert abs(eof_from_concurrence(0.6) - 0.4689955935892811) < 1e-12


def test_eof_strictly_increasing_in_concurrence():
    grid = np.linspace(0.0, 1.0, 50)
    vals = [eof_from_concurrence(c) for c in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eof_pure_states_match_reduced_entropy(rng):
    # for pure states the measure equals the entropy of either reduced state
    for _ in range(50):
        psi = random_pure_state(rng)
        rho = density_from_pure(psi)
        amp = psi.amps.reshape(2, 2)
        red = amp @ amp.conj().T
        w = np.linalg.eigvalsh(red)
        entropy = -sum(x * math.log2(x) for x in w if x > 1e-300)
        assert abs(entanglement_of_formation(rho) - entropy) < 1e-8


# --- invariant ratios ---

def test_invariant_ratios_examples():
    np.testing.assert_allclose(
        invariant_ratios(make_werner(0.7)).ratios, [1 / 7] * 3, atol=1e-10
    )
    assert invariant_ratios(DensityMatrix(states.SINGLET_PROJ)).ratios == (0.0, 0.0, 0.0)
    np.testing.assert_allclose(invariant_ratios(MAX_MIXED).ratios, [1.0] * 3, atol=1e-12)


def test_invariant_ratios_zero_convention():
    up_up = states.PureState(np.array([1.0, 0, 0, 0], dtype=complex))
    assert invariant_ratios(density_from_pure(up_up)).ratios == (0.0, 0.0, 0.0)


def test_invariant_ratios_preserved_under_filtering(rng):
    # the common rescaling of all lambdas cancels in every ratio
    kept = 0
    while kept < 30:
        rho = random_density_matrix(rng)
        lam = lambda_spectrum(rho).lambdas
        if min(abs(lam[i] - lam[i + 1]) for i in range(3)) < 1e-3:
            continue
        kept += 1
        out = apply_local_pair(rho, random_op(rng, 0.9), random_op(rng, 0.9))
        before = invariant_ratios(rho).ratios
        after = invariant_ratios(out.state).ratios
        assert max(abs(x - y) for x, y in zip(before, after)) < 1e-8
