import json

import numpy as np
import pytest

from qlocc import states
from qlocc.entanglement import concurrence
from qlocc.errors import DomainError, NotAState
from qlocc.states import (
    DensityMatrix,
    PauliRep,
    PureState,
    density_matrix_from_dict,
    density_matrix_to_dict,
    fidelity,
    from_pauli,
    make_bell_diagonal,
    make_werner,
    pauli_rep_to_dict,
    to_pauli,
    validate,
)

from conftest import NOT_REAL_NUMBERS, random_density_matrix


def test_werner_extreme_points():
    np.testing.assert_allclose(make_werner(1.0).mat, states.SINGLET_PROJ, atol=1e-15)
    np.testing.assert_allclose(make_werner(0.25).mat, np.eye(4) / 4, atol=1e-15)


def test_werner_spectrum():
    # eigensolve oracle on the constructed matrix
    w = np.linalg.eigvalsh(make_werner(0.7).mat)
    np.testing.assert_allclose(np.sort(w)[::-1], [0.7, 0.1, 0.1, 0.1], atol=1e-12)


def test_werner_fidelity_grid():
    for f in np.linspace(0.0, 1.0, 21):
        assert abs(fidelity(make_werner(f)) - f) < 1e-12


def test_werner_domain():
    with pytest.raises(DomainError):
        make_werner(-0.01)
    with pytest.raises(DomainError):
        make_werner(1.01)
    for bad in NOT_REAL_NUMBERS:
        with pytest.raises(DomainError, match="real number"):
            make_werner(bad)
    assert np.array_equal(make_werner(1).mat, make_werner(1.0).mat)
    assert np.array_equal(make_werner(np.float64(0.5)).mat, make_werner(0.5).mat)


def test_werner_entangled_iff_above_half():
    for f in np.arange(0.0, 1.05, 0.1):
        c = concurrence(make_werner(min(f, 1.0)))
        if f > 0.5:
            assert c > 0.0
        else:
            assert c == 0.0


def test_bell_diagonal_cases():
    np.testing.assert_allclose(
        make_bell_diagonal([1, 0, 0, 0]).mat, states.SINGLET_PROJ, atol=1e-15
    )
    np.testing.assert_allclose(
        make_bell_diagonal([0.25] * 4).mat, np.eye(4) / 4, atol=1e-15
    )
    f = 0.62
    p = [f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3]
    np.testing.assert_allclose(
        make_bell_diagonal(p).mat, make_werner(f).mat, atol=1e-14
    )


def test_bell_diagonal_has_no_local_vectors(rng):
    p = rng.random(4)
    p /= p.sum()
    rep = to_pauli(make_bell_diagonal(p))
    assert np.abs(rep.alpha).max() < 1e-12
    assert np.abs(rep.beta).max() < 1e-12


def test_bell_diagonal_domain():
    with pytest.raises(DomainError):
        make_bell_diagonal([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(DomainError):
        make_bell_diagonal([0.3, 0.3, 0.3, 0.3])
    # four probabilities summing to 1, as a 2x2 matrix: not flattened
    with pytest.raises(DomainError, match="vector"):
        make_bell_diagonal([[0.7, 0.1], [0.1, 0.1]])
    for bad in (np.nan, np.inf, "a", None, [0.5, 0.5]):
        with pytest.raises(DomainError):
            make_bell_diagonal([bad, 0.0, 0.0, 1.0])


def test_density_matrix_holds_a_read_only_copy():
    m = make_werner(0.8).mat.copy()
    rho = DensityMatrix(m)
    lam = rho.lambdas.copy()
    m[0, 0] = 7.0
    np.testing.assert_array_equal(rho.mat, make_werner(0.8).mat)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 7.0
    with pytest.raises(ValueError):
        rho.lambdas[0] = 7.0
    np.testing.assert_array_equal(rho.lambdas, lam)


def test_pauli_algebra_exact():
    # sigma_i sigma_j = delta_ij 1 + i eps_ijk sigma_k, exactly
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    for i in range(3):
        for j in range(3):
            expected = (i == j) * states.I2 + 1j * sum(
                eps[i, j, k] * states.PAULI[k] for k in range(3)
            )
            np.testing.assert_array_equal(states.PAULI[i] @ states.PAULI[j], expected)


def test_pauli_rep_of_werner():
    f = 0.8
    rep = to_pauli(make_werner(f))
    np.testing.assert_allclose(rep.alpha, 0.0, atol=1e-12)
    np.testing.assert_allclose(rep.beta, 0.0, atol=1e-12)
    np.testing.assert_allclose(rep.R, (1 - 4 * f) / 3 * np.eye(3), atol=1e-12)


def test_pauli_rep_of_maximally_mixed():
    rep = to_pauli(DensityMatrix(np.eye(4) / 4))
    assert np.abs(rep.alpha).max() < 1e-14
    assert np.abs(rep.beta).max() < 1e-14
    assert np.abs(rep.R).max() < 1e-14


def test_pauli_round_trip(rng):
    for _ in range(50):
        rho = random_density_matrix(rng)
        rep = to_pauli(rho)
        assert np.linalg.norm(rep.alpha) <= 1.0 + 1e-12
        assert np.linalg.norm(rep.beta) <= 1.0 + 1e-12
        back = from_pauli(rep)
        assert np.abs(back.mat - rho.mat).max() < 1e-12


def test_pauli_round_trip_is_linear(rng):
    # the map acts linearly on Hermitian unit-trace matrices
    r1 = random_density_matrix(rng)
    r2 = random_density_matrix(rng)
    w = 0.3
    mix = DensityMatrix(w * r1.mat + (1 - w) * r2.mat)
    rep1, rep2, repm = to_pauli(r1), to_pauli(r2), to_pauli(mix)
    np.testing.assert_allclose(repm.alpha, w * rep1.alpha + (1 - w) * rep2.alpha, atol=1e-12)
    np.testing.assert_allclose(repm.R, w * rep1.R + (1 - w) * rep2.R, atol=1e-12)


def test_from_pauli_rejects_non_state():
    # a local vector longer than 1 cannot come from a PSD matrix
    with pytest.raises(NotAState):
        from_pauli(PauliRep(alpha=[1.5, 0, 0], beta=[0, 0, 0], R=np.zeros((3, 3))))


def test_fidelity_examples():
    assert abs(fidelity(DensityMatrix(states.SINGLET_PROJ)) - 1.0) < 1e-14
    assert abs(fidelity(make_werner(0.6)) - 0.6) < 1e-14
    assert abs(fidelity(DensityMatrix(np.eye(4) / 4)) - 0.25) < 1e-14


def test_validate_reports():
    assert validate(make_werner(0.9)).ok
    bad_trace = validate(DensityMatrix(np.eye(4) / 4 * 1.01))
    assert not bad_trace.ok
    assert abs(bad_trace.trace_error - 0.01) < 1e-12
    # planted spectrum with one negative eigenvalue
    g = np.random.default_rng(5).standard_normal((4, 4)) + 1j * np.random.default_rng(
        6
    ).standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    m = (q * np.array([0.55, 0.3, 0.2, -0.05])) @ q.conj().T
    rep = validate(DensityMatrix(m))
    assert not rep.ok
    assert abs(rep.min_eigenvalue + 0.05) < 1e-10


def test_non_finite_matrix_is_not_a_state():
    # rejected at construction, so to_pauli, fidelity, concurrence and
    # validate no longer answer NaN or a LAPACK error for it
    one_nan = make_werner(0.8).mat.copy()
    one_nan[0, 1] = np.nan
    for m in (np.full((4, 4), np.nan), np.full((4, 4), np.inf), one_nan):
        for call in (to_pauli, fidelity, concurrence, validate):
            with pytest.raises(NotAState, match="non-finite"):
                call(DensityMatrix(m))


@pytest.mark.parametrize("part", ["alpha", "beta", "R"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pauli_rep_rejects_a_non_finite_coefficient(part, bad):
    coeffs = {"alpha": np.zeros(3), "beta": np.zeros(3), "R": np.zeros((3, 3))}
    coeffs[part].flat[-1] = bad
    with pytest.raises(DomainError, match="finite"):
        PauliRep(**coeffs)


def test_one_infinite_entry_is_not_a_state():
    m = make_werner(0.8).mat.copy()
    m[2, 1] = np.inf
    with pytest.raises(NotAState, match="non-finite"):
        DensityMatrix(m)


def test_pure_state_normalization():
    with pytest.raises(DomainError):
        PureState(np.array([1.0, 1.0, 0.0, 0.0]))
    psi = PureState(np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2))
    assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12


def test_density_matrix_json_round_trip(rng):
    rho = random_density_matrix(rng)
    back = density_matrix_from_dict(density_matrix_to_dict(rho))
    assert np.abs(back.mat - rho.mat).max() < 1e-15


def test_density_matrix_json_rejects_bad_input():
    with pytest.raises(DomainError):
        density_matrix_from_dict({"not_matrix": []})
    with pytest.raises(DomainError, match="malformed"):
        density_matrix_from_dict({"matrix": [[[0.5, 0], [0, 0]], [[0, 0]]]})
    with pytest.raises(NotAState):
        density_matrix_from_dict(
            {"matrix": [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]}
        )
    with pytest.raises(NotAState):
        density_matrix_from_dict({"matrix": [[[float("nan"), 0.0]] * 4] * 4})


def test_pauli_rep_json_round_trip():
    rep = to_pauli(make_werner(0.8))
    back = json.loads(json.dumps(pauli_rep_to_dict(rep)))
    np.testing.assert_allclose(back["R"], rep.R, atol=1e-15)
    np.testing.assert_allclose(back["alpha"], rep.alpha, atol=1e-15)
    np.testing.assert_allclose(back["beta"], rep.beta, atol=1e-15)
