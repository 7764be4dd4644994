import copy as copy_module
import math
import os
import pickle
import sys

import numpy as np
import pytest

from qlocc import states
from qlocc.entanglement import concurrence, invariant_ratios, lambda_spectrum
from qlocc.errors import DomainError, FilteredOut, NotAttained, NotPhysical
from qlocc.locc import (
    LocalFilter,
    LocalOperation,
    apply_local_pair,
    closed_form_t,
    decompose_local_op,
    filter_matrix,
    normal_form,
    predicted_concurrence,
    trivial_operation,
)
from qlocc.states import DensityMatrix, density_from_pure, make_werner, to_pauli

from conftest import (
    NOT_REAL_NUMBERS,
    SY,
    compose_local_ops,
    decompose_local_op_oracle,
    random_density_matrix,
    random_entangled_bell_diagonal,
    random_filter,
    random_op,
    random_unitary,
)

# the benchmark's independent references (they never import qlocc)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import reference  # noqa: E402

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def _trace_t(rho, fa, fb):
    # independent evaluation of the probability as tr[(f_A^2 x f_B^2) rho]
    fa2 = filter_matrix(fa) @ filter_matrix(fa)
    fb2 = filter_matrix(fb) @ filter_matrix(fb)
    return float(np.trace(np.kron(fa2, fb2) @ rho.mat).real)


# --- filters ---

def test_filter_matrix_trivial():
    np.testing.assert_array_equal(
        filter_matrix(LocalFilter(strength=0.0, axis=Z, scale=1.0)), np.eye(2)
    )


def test_filter_matrix_projector():
    f = filter_matrix(LocalFilter(strength=1.0, axis=Z, scale=0.5))
    np.testing.assert_allclose(f, np.diag([1.0, 0.0]), atol=1e-15)


def test_filter_matrix_x_axis_eigensystem():
    f = filter_matrix(LocalFilter(strength=0.5, axis=X, scale=0.6))
    w, v = np.linalg.eigh(f)
    np.testing.assert_allclose(np.sort(w)[::-1], [0.9, 0.3], atol=1e-12)
    # eigenvectors along +-x
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    top = v[:, np.argmax(w)]
    assert abs(abs(plus @ top) - 1.0) < 1e-12


def test_filter_validation():
    with pytest.raises(DomainError):
        LocalFilter(strength=0.5, axis=[1.0, 1.0, 0.0], scale=0.5)
    with pytest.raises(DomainError):
        LocalFilter(strength=1.5, axis=Z, scale=0.4)
    with pytest.raises(DomainError):
        LocalFilter(strength=0.5, axis=Z, scale=0.8)  # above 1/(1+a)
    with pytest.raises(DomainError):
        LocalFilter(strength=0.5, axis=Z, scale=0.0)
    for bad in NOT_REAL_NUMBERS:
        with pytest.raises(DomainError):
            LocalFilter(strength=bad, axis=Z, scale=0.5)
        with pytest.raises(DomainError):
            LocalFilter(strength=0.5, axis=Z, scale=bad)


def test_local_operation_holds_read_only_copies(rng):
    u, axis = random_unitary(rng), Z.copy()
    op = LocalOperation(unitary=u, filter=LocalFilter(strength=0.5, axis=axis, scale=0.5))
    unitary, matrix = op.unitary.copy(), op.matrix.copy()
    u[0, 0] = 7.0
    axis[0] = 7.0
    np.testing.assert_array_equal(op.unitary, unitary)
    np.testing.assert_array_equal(op.filter.axis, Z)
    np.testing.assert_array_equal(op.matrix, matrix)
    for arr in (op.unitary, op.matrix, op.filter.axis):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_copies_and_pickles_stay_read_only(rng):
    # a copy is rebuilt through its constructor: its arrays are read-only
    # again and hold the same bits, so no cached spectrum can go stale
    rho = random_density_matrix(rng)
    lam = rho.lambdas.copy()
    op = random_op(rng)
    for copy in (copy_module.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        rho2, op2 = copy(rho), copy(op)
        for orig, arr in ((rho.mat, rho2.mat), (lam, rho2.lambdas), (op.unitary, op2.unitary),
                          (op.matrix, op2.matrix), (op.filter.axis, op2.filter.axis)):
            assert not arr.flags.writeable
            assert arr.tobytes() == orig.tobytes()
        assert (op2.filter.strength, op2.filter.scale) == (op.filter.strength, op.filter.scale)


def test_filter_eigenvalues_within_unit_interval(rng):
    for _ in range(30):
        f = random_filter(rng)
        w = np.linalg.eigvalsh(filter_matrix(f))
        assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12


def test_filter_annihilation_identity(rng):
    # f(a, n) f(a, -n) = nu^2 (1 - a^2) 1
    for _ in range(30):
        f = random_filter(rng)
        g = LocalFilter(strength=f.strength, axis=-f.axis, scale=f.scale)
        lhs = filter_matrix(f) @ filter_matrix(g)
        rhs = f.scale**2 * (1.0 - f.strength**2) * np.eye(2)
        assert np.linalg.norm(lhs - rhs) < 1e-12


# --- decomposition of arbitrary operators ---

def test_decompose_positive_diagonal():
    op = decompose_local_op(np.diag([0.9, 0.3]).astype(complex))
    np.testing.assert_allclose(op.unitary, np.eye(2), atol=1e-12)
    assert abs(op.filter.strength - 0.5) < 1e-12
    assert abs(op.filter.scale - 0.6) < 1e-12
    np.testing.assert_allclose(op.filter.axis, Z, atol=1e-12)


def test_decompose_unitary(rng):
    u = random_unitary(rng)
    op = decompose_local_op(u)
    assert op.filter.strength == 0.0
    assert abs(op.filter.scale - 1.0) < 1e-12
    np.testing.assert_allclose(op.matrix, u, atol=1e-12)


def test_decompose_random_contractions(rng):
    for _ in range(100):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a /= np.linalg.svd(a, compute_uv=False)[0] * (1.0 + rng.random())
        op = decompose_local_op(a)
        assert np.linalg.norm(a - op.matrix) < 1e-10


def test_decompose_has_the_bits_of_the_array_route():
    # 2000 Haar unitaries times random filters, strengths up to 1, and the
    # degenerate and diagonal cases
    rng = np.random.default_rng(29)
    ops = [random_unitary(rng) @ filter_matrix(random_filter(rng, max_strength=1.0))
           for _ in range(2000)]
    for A in [*ops, np.eye(2), random_unitary(rng), np.diag([0.9, 0.3]), np.diag([0.0, 0.4])]:
        new, old = decompose_local_op(A), decompose_local_op_oracle(A)
        assert new.unitary.tobytes() == old.unitary.tobytes()
        assert new.filter.axis.tobytes() == old.filter.axis.tobytes()
        assert new.filter.strength.hex() == old.filter.strength.hex()
        assert new.filter.scale.hex() == old.filter.scale.hex()


def test_decompose_rejects_expansions():
    with pytest.raises(NotPhysical):
        decompose_local_op(np.diag([1.2, 0.3]).astype(complex))


def test_decompose_rejects_zero():
    with pytest.raises(DomainError):
        decompose_local_op(np.zeros((2, 2)))


NAN = float("nan")
NON_FINITE = {
    "filter-axis": lambda: LocalFilter(strength=0.3, axis=[NAN, 0.0, 1.0], scale=0.5),
    "unitary": lambda: LocalOperation(unitary=np.full((2, 2), NAN),
                                      filter=trivial_operation().filter),
    "pure-state": lambda: states.PureState([NAN, 0.0, 0.0, 1.0]),
    "pauli-nan": lambda: states.from_pauli(
        states.PauliRep(alpha=[NAN, 0, 0], beta=[0, 0, 0], R=np.zeros((3, 3)))),
    "pauli-inf": lambda: states.from_pauli(
        states.PauliRep(alpha=[0, 0, 0], beta=[0, 0, 0], R=np.full((3, 3), np.inf))),
    "closed-form-t": lambda: closed_form_t(
        states.PauliRep(alpha=[0, 0, 0], beta=[0, 0, 0], R=np.full((3, 3), NAN)),
        trivial_operation().filter, trivial_operation().filter),
    "operator": lambda: decompose_local_op(np.full((2, 2), NAN)),
    "probability": lambda: predicted_concurrence(0.5, trivial_operation().filter,
                                                 trivial_operation().filter, NAN),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_input_is_a_domain_error(case):
    with pytest.raises(DomainError):
        NON_FINITE[case]()


def test_filter_axis_must_be_unit_within_1e_12():
    unit = np.array([2.0, -1.0, 2.0]) / 3.0
    for stretch in (1.0 + 5e-13, 1.0 - 5e-13):
        LocalFilter(strength=0.3, axis=unit * stretch, scale=0.5)
    for axis in (unit * (1.0 + 2e-12), unit * (1.0 - 2e-12), [NAN, NAN, NAN],
                 [np.inf, 0.0, 0.0], [0.0, -np.inf, 1.0]):
        with pytest.raises(DomainError, match="unit vector"):
            LocalFilter(strength=0.3, axis=axis, scale=0.5)


def test_unitary_residual_must_be_within_1e_10():
    # (1 + d) 1 has residual |u u+ - 1| = sqrt(2) (2d + d^2)
    def scaled_identity(residual):
        return (1.0 + residual / (2.0 * math.sqrt(2.0))) * np.eye(2, dtype=complex)

    identity = trivial_operation().filter
    LocalOperation(unitary=scaled_identity(0.99e-10), filter=identity)
    one_nan = np.eye(2, dtype=complex)
    one_nan[1, 0] = NAN
    for u in (scaled_identity(1.01e-10), one_nan):
        with pytest.raises(DomainError, match="not unitary"):
            LocalOperation(unitary=u, filter=identity)


def test_compose_matches_operator_product(rng):
    for _ in range(20):
        op1 = random_op(rng, 0.7)
        op2 = random_op(rng, 0.7)
        combined = compose_local_ops(op2, op1)
        prod = op2.matrix @ op1.matrix
        scale = np.linalg.svd(prod, compute_uv=False)[0]
        if scale > 1.0:
            prod = prod / scale
        assert np.linalg.norm(combined.matrix - prod) < 1e-10


# --- applying operation pairs ---

def test_apply_trivial_pair(rng):
    rho = random_density_matrix(rng)
    out = apply_local_pair(rho, trivial_operation(), trivial_operation())
    np.testing.assert_allclose(out.state.mat, rho.mat, atol=1e-14)
    assert abs(out.probability - 1.0) < 1e-12
    assert states.validate(out.state).ok


def test_apply_output_is_a_valid_state(rng):
    for _ in range(30):
        rho = random_density_matrix(rng)
        out = apply_local_pair(rho, random_op(rng), random_op(rng))
        assert states.validate(out.state).ok
        assert 0.0 < out.probability <= 1.0 + 1e-12


def test_apply_unitaries_preserve_spectrum(rng):
    rho = make_werner(0.8)
    op_a = LocalOperation(unitary=random_unitary(rng), filter=trivial_operation().filter)
    op_b = LocalOperation(unitary=random_unitary(rng), filter=trivial_operation().filter)
    out = apply_local_pair(rho, op_a, op_b)
    np.testing.assert_allclose(
        lambda_spectrum(out.state).lambdas, lambda_spectrum(rho).lambdas, atol=1e-10
    )


def test_apply_matches_closed_form_probability():
    rho = make_werner(0.8)
    fa = LocalFilter(strength=0.5, axis=Z, scale=2 / 3)
    fb = LocalFilter(strength=0.5, axis=Z, scale=2 / 3)
    out = apply_local_pair(
        rho,
        LocalOperation(unitary=np.eye(2), filter=fa),
        LocalOperation(unitary=np.eye(2), filter=fb),
    )
    # Werner form evaluated independently:
    # t = mu^2 nu^2 [(1+a^2)(1+b^2) + (4/3)(1-4F) a b n.m]
    expected = (2 / 3) ** 4 * ((1.25) ** 2 + (4 / 3) * (1 - 3.2) * 0.25)
    assert abs(out.probability - expected) < 1e-12
    assert abs(closed_form_t(to_pauli(rho), fa, fb) - expected) < 1e-12


def test_apply_filtered_out():
    up_up = states.PureState(np.array([1.0, 0, 0, 0], dtype=complex))
    rho = density_from_pure(up_up)
    kill = LocalOperation(
        unitary=np.eye(2),
        filter=LocalFilter(strength=1.0, axis=-Z, scale=0.5),
    )
    with pytest.raises(FilteredOut):
        apply_local_pair(rho, kill, trivial_operation())


# --- the closed-form normalization ---

def test_closed_form_t_no_filtering():
    fa = LocalFilter(strength=0.0, axis=Z, scale=0.7)
    fb = LocalFilter(strength=0.0, axis=Z, scale=0.9)
    rep = to_pauli(make_werner(0.77))
    assert abs(closed_form_t(rep, fa, fb) - (0.7 * 0.9) ** 2) < 1e-15


def test_closed_form_t_extremal_value():
    # a = b = 1, n.m = 1, F = 1/2, mu = nu = 1/2 gives exactly 1/6
    fa = LocalFilter(strength=1.0, axis=Z, scale=0.5)
    fb = LocalFilter(strength=1.0, axis=Z, scale=0.5)
    t = closed_form_t(to_pauli(make_werner(0.5)), fa, fb)
    assert abs(t - 1 / 6) < 1e-14


def test_closed_form_t_matches_trace(rng):
    for _ in range(300):
        rho = random_density_matrix(rng)
        fa, fb = random_filter(rng), random_filter(rng)
        assert abs(closed_form_t(to_pauli(rho), fa, fb) - _trace_t(rho, fa, fb)) < 1e-12


# --- the transformation law ---

def test_predicted_concurrence_trivial():
    fa = LocalFilter(strength=0.0, axis=Z, scale=0.8)
    fb = LocalFilter(strength=0.0, axis=Z, scale=0.6)
    t = (0.8 * 0.6) ** 2
    assert abs(predicted_concurrence(0.43, fa, fb, t) - 0.43) < 1e-15


def test_predicted_concurrence_rank_reducing_filter():
    fa = LocalFilter(strength=1.0, axis=Z, scale=0.5)
    fb = LocalFilter(strength=0.0, axis=Z, scale=1.0)
    assert predicted_concurrence(0.9, fa, fb, t=0.3) == 0.0


def test_transformation_law_random_tuples(rng):
    # predicted scale vs directly recomputed concurrence of the output
    for _ in range(1000):
        rho = random_density_matrix(rng)
        op_a, op_b = random_op(rng), random_op(rng)
        out = apply_local_pair(rho, op_a, op_b)
        predicted = predicted_concurrence(
            concurrence(rho), op_a.filter, op_b.filter, out.probability
        )
        assert abs(predicted - concurrence(out.state)) < 1e-8


def test_scale_invariance_of_the_law(rng):
    # rescaling nu, mu within range moves t but not the output state
    rho = random_density_matrix(rng)
    fa, fb = random_filter(rng), random_filter(rng)
    out1 = apply_local_pair(
        rho,
        LocalOperation(unitary=np.eye(2), filter=fa),
        LocalOperation(unitary=np.eye(2), filter=fb),
    )
    shrunk_a = LocalFilter(strength=fa.strength, axis=fa.axis, scale=0.5 * fa.scale)
    shrunk_b = LocalFilter(strength=fb.strength, axis=fb.axis, scale=0.25 * fb.scale)
    out2 = apply_local_pair(
        rho,
        LocalOperation(unitary=np.eye(2), filter=shrunk_a),
        LocalOperation(unitary=np.eye(2), filter=shrunk_b),
    )
    assert np.abs(out1.state.mat - out2.state.mat).max() < 1e-12
    assert abs(out2.probability - out1.probability * 0.25 * 0.0625) < 1e-12
    p1 = predicted_concurrence(concurrence(rho), fa, fb, out1.probability)
    p2 = predicted_concurrence(concurrence(rho), shrunk_a, shrunk_b, out2.probability)
    assert abs(p1 - p2) < 1e-12


def test_eigenvector_transport(rng):
    # eigenvectors of rho rho~ map to eigenvectors of the filtered product
    count = 0
    while count < 20:
        rho = random_density_matrix(rng)
        tilde = np.kron(SY, SY).real
        prod = rho.mat @ (tilde @ rho.mat.conj() @ tilde)
        w, v = np.linalg.eig(prod)
        if np.min(np.abs(np.subtract.outer(w, w) + np.eye(4))) < 1e-3:
            continue  # skip nearly degenerate draws
        count += 1
        op_a, op_b = random_op(rng, 0.9), random_op(rng, 0.9)
        out = apply_local_pair(rho, op_a, op_b)
        prod_out = out.state.mat @ (tilde @ out.state.mat.conj() @ tilde)
        big = np.kron(op_a.matrix, op_b.matrix)
        fa, fb = op_a.filter, op_b.filter
        kappa = (
            (fa.scale * fb.scale) ** 2
            * (1 - fa.strength**2)
            * (1 - fb.strength**2)
            / out.probability
        )
        for i in range(4):
            transported = big @ v[:, i]
            nrm = np.linalg.norm(transported)
            resid = prod_out @ transported - kappa**2 * w[i] * transported
            assert np.linalg.norm(resid) / nrm < 1e-8


def test_werner_scale_factor_never_above_one(rng):
    # the concurrence can only shrink for entangled Werner inputs
    for f in [0.55, 0.7, 0.85, 1.0]:
        rho = make_werner(f)
        rep = to_pauli(rho)
        for _ in range(200):
            fa, fb = random_filter(rng), random_filter(rng)
            t = closed_form_t(rep, fa, fb)
            scale = (
                (fa.scale * fb.scale) ** 2
                * (1 - fa.strength**2)
                * (1 - fb.strength**2)
                / t
            )
            assert scale <= 1.0 + 1e-12


# --- filtering normal form ---

def test_normal_form_of_werner_and_bell_diagonal_is_the_input(rng):
    inputs = [make_werner(f) for f in (0.55, 0.75, 0.95)]
    inputs += [random_entangled_bell_diagonal(rng) for _ in range(5)]
    for rho in inputs:
        nf = normal_form(rho)
        assert nf.iterations == 0
        assert nf.trace == 1.0
        assert nf.optimum - concurrence(rho) == 0.0
        np.testing.assert_array_equal(nf.filter_a, np.eye(2))
        np.testing.assert_array_equal(nf.filter_b, np.eye(2))


def test_normal_form_of_entangled_pure_state_is_maximally_entangled():
    # one balancing filter equalizes the Schmidt coefficients (Procrustean)
    psi = states.PureState(np.array([math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)], dtype=complex))
    nf = normal_form(density_from_pure(psi))
    assert nf.iterations == 1
    assert abs(nf.optimum - 1.0) < 1e-12
    assert abs(nf.trace - 0.6) < 1e-12  # 2 sqrt(0.9 * 0.1)


def test_normal_form_not_attained():
    product = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    # rank 2: the singlet mixed with |uu>; filters toward |dd> push the
    # concurrence toward 1 without reaching it
    mixed = 0.6 * states.SINGLET_PROJ + 0.4 * np.diag([1.0, 0.0, 0.0, 0.0])
    for rho in (product, DensityMatrix(mixed)):
        with pytest.raises(NotAttained):
            normal_form(rho)


def test_normal_form_balances_marginals_and_keeps_invariants(rng):
    for _ in range(40):
        rho = random_density_matrix(rng)
        nf = normal_form(rho)
        assert nf.residual <= 1e-14
        for f in (nf.filter_a, nf.filter_b):
            assert abs(np.linalg.det(f) - 1.0) < 1e-12
        k = np.kron(nf.filter_a, nf.filter_b)
        raw = k @ rho.mat @ k.conj().T
        assert abs(np.trace(raw).real - nf.trace) < 1e-12
        np.testing.assert_allclose(nf.state.mat, raw / nf.trace, atol=1e-12)
        assert abs(concurrence(nf.state) - nf.optimum) < 1e-12
        np.testing.assert_allclose(invariant_ratios(nf.state).ratios,
                                   invariant_ratios(rho).ratios, rtol=0, atol=1e-12)
        # no random filter pair beats the optimum
        for _ in range(5):
            out = apply_local_pair(rho, random_op(rng), random_op(rng))
            assert concurrence(out.state) <= nf.optimum + 1e-12


def test_normal_form_matches_reference(rng):
    for _ in range(40):
        rho = random_density_matrix(rng)
        c = concurrence(rho)
        opt, err = reference.normal_form_optimum(rho.mat, c)
        assert abs(normal_form(rho).optimum - opt) <= err
