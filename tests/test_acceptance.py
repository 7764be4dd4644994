"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Budgets follow the stated requirements; everything is
seeded and deterministic.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qlocc import _kernels, states
from qlocc.entanglement import concurrence, invariant_ratios, lambda_spectrum
from qlocc.locc import (
    LocalFilter,
    LocalOperation,
    apply_local_pair,
    closed_form_t,
    predicted_concurrence,
)
from qlocc.nogo import (
    SearchConfig,
    certificate_to_dict,
    maximize_concurrence_gain,
    procrustean_pure,
    randomization_convexity_check,
)
from qlocc.protocols import collective_step
from qlocc.states import make_werner, to_pauli

from conftest import (
    collective_step_closed_form,
    probability_floor_sequence,
    random_density_matrix,
    random_entangled_bell_diagonal,
    random_filter,
    random_pure_state,
    random_unitary,
)

Z = np.array([0.0, 0.0, 1.0])

# >= 1e5 evaluations per Werner point: 4^6 grid + restarts alone clear the
# bar even when the quasi-Newton refinements converge early
WERNER_CONFIG = dict(restarts=96000, grid_density=4, local_steps=500)
WERNER_FS = (0.55, 0.65, 0.75, 0.85, 0.95)
# ~2e4 evaluations per Bell-diagonal state, 100 states
BELL_CONFIG = dict(restarts=19000, grid_density=3, local_steps=250)
GAIN_TOL = 1e-7


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL [{time.perf_counter() - t0:.2f}s]")
        raise
    print(f"ACCEPTANCE {name}: PASS [{time.perf_counter() - t0:.2f}s]")


@pytest.fixture(scope="module")
def werner_certificates():
    certs = {}
    for i, f in enumerate(WERNER_FS):
        cfg = SearchConfig(seed=1000 + i, **WERNER_CONFIG)
        certs[f] = maximize_concurrence_gain(make_werner(f), cfg)
    return certs


def test_criterion_01_werner_concurrence_law():
    with criterion("01 werner-concurrence-law"):
        worst = 0.0
        for f in np.linspace(0.0, 1.0, 101):
            worst = max(worst, abs(concurrence(make_werner(f)) - max(0.0, 2 * f - 1)))
        assert worst < 1e-9, f"worst deviation {worst:.3e}"


def test_criterion_02_transformation_law():
    with criterion("02 transformation-law"):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(10_000):
            rho = random_density_matrix(rng)
            op_a = LocalOperation(unitary=random_unitary(rng), filter=random_filter(rng))
            op_b = LocalOperation(unitary=random_unitary(rng), filter=random_filter(rng))
            out = apply_local_pair(rho, op_a, op_b)
            predicted = predicted_concurrence(
                concurrence(rho), op_a.filter, op_b.filter, out.probability
            )
            worst = max(worst, abs(predicted - concurrence(out.state)))
        assert worst < 1e-8, f"worst deviation {worst:.3e}"


def test_criterion_03_closed_form_normalization():
    with criterion("03 closed-form-normalization"):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10_000):
            rho = random_density_matrix(rng)
            fa, fb = random_filter(rng), random_filter(rng)
            t_closed = closed_form_t(to_pauli(rho), fa, fb)
            out = apply_local_pair(
                rho,
                LocalOperation(unitary=np.eye(2, dtype=complex), filter=fa),
                LocalOperation(unitary=np.eye(2, dtype=complex), filter=fb),
            )
            worst = max(worst, abs(t_closed - out.probability))
        assert worst < 1e-12, f"worst deviation {worst:.3e}"
        # Werner specialization: the general closed form with alpha = beta = 0,
        # R = (1-4F)/3 * identity, against its direct expression
        for f in np.linspace(0.51, 0.99, 25):
            rep = to_pauli(make_werner(f))
            for _ in range(40):
                fa, fb = random_filter(rng), random_filter(rng)
                a, b = fa.strength, fb.strength
                direct = (fa.scale * fb.scale) ** 2 * (
                    (1 + a * a) * (1 + b * b)
                    + (4.0 / 3.0) * (1 - 4 * f) * a * b * float(fa.axis @ fb.axis)
                )
                assert abs(closed_form_t(rep, fa, fb) - direct) < 1e-12


def test_criterion_04_main_theorem_certificates(werner_certificates):
    with criterion("04 main-theorem-certificates"):
        for f, cert in werner_certificates.items():
            assert cert.evaluations >= 100_000, f"budget at F={f}: {cert.evaluations}"
            assert cert.best_gain <= GAIN_TOL, f"gain {cert.best_gain:.3e} at F={f}"
        rng = np.random.default_rng(4)
        candidates = [random_entangled_bell_diagonal(rng) for _ in range(200)]
        bell_states = [r for r in candidates if _kernels.concurrence4(r.mat) > 1e-3][:100]
        assert len(bell_states) == 100
        for i, rho in enumerate(bell_states):
            cfg = SearchConfig(seed=2000 + i, **BELL_CONFIG)
            cert = maximize_concurrence_gain(rho, cfg)
            assert cert.best_gain <= GAIN_TOL, f"gain {cert.best_gain:.3e} at state {i}"


def test_criterion_05_invariant_ratios():
    with criterion("05 invariant-ratios"):
        rng = np.random.default_rng(5)
        checked = 0
        worst = 0.0
        while checked < 1000:
            rho = random_density_matrix(rng)
            lam = lambda_spectrum(rho).lambdas
            if min(abs(lam[i] - lam[i + 1]) for i in range(3)) < 1e-3:
                continue
            checked += 1
            op_a = LocalOperation(unitary=random_unitary(rng), filter=random_filter(rng, 0.9))
            op_b = LocalOperation(unitary=random_unitary(rng), filter=random_filter(rng, 0.9))
            out = apply_local_pair(rho, op_a, op_b)
            before = invariant_ratios(rho).ratios
            after = invariant_ratios(out.state).ratios
            worst = max(worst, max(abs(x - y) for x, y in zip(before, after)))
        assert worst < 1e-8, f"worst ratio drift {worst:.3e}"


def test_criterion_06_probability_floor():
    with criterion("06 probability-floor"):
        # fixed nontrivial filters with opposed axes (n.m = -1)
        fa = LocalFilter(strength=0.8, axis=Z, scale=1 / 1.8)
        fb = LocalFilter(strength=0.8, axis=-Z, scale=1 / 1.8)
        seq = probability_floor_sequence(fa, fb, k_max=20)
        assert len(seq) == 20
        for f, chk in seq:
            assert chk.floor > 0.0
            assert chk.t >= chk.floor - 1e-12, f"t {chk.t} below floor {chk.floor} at F={f}"


def test_criterion_07_pure_state_contrast():
    with criterion("07 pure-state-contrast"):
        rng = np.random.default_rng(7)
        done = 0
        while done < 1000:
            psi = random_pure_state(rng)
            amp = psi.amps.reshape(2, 2)
            if np.linalg.svd(amp, compute_uv=False)[1] < 1e-6:
                continue
            done += 1
            res = procrustean_pure(psi)
            assert abs(res.concurrence_out - 1.0) < 1e-10
            assert res.probability <= res.entanglement_in + 1e-12
        # success probability vanishes monotonically toward the product limit
        probs = []
        for eps in [0.3, 0.1, 0.03, 0.01, 0.003, 0.001]:
            psi = states.PureState(
                np.array([math.sqrt(1 - eps), 0.0, 0.0, math.sqrt(eps)], dtype=complex)
            )
            probs.append(procrustean_pure(psi).probability)
        assert all(x > y for x, y in zip(probs, probs[1:]))
        assert probs[-1] < 0.003


def test_criterion_08_randomization_convexity():
    with criterion("08 randomization-convexity"):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            rho = make_werner(0.52 + 0.47 * rng.random())
            outs = []
            for _ in range(2):
                op_a = LocalOperation(unitary=random_unitary(rng), filter=random_filter(rng))
                op_b = LocalOperation(unitary=random_unitary(rng), filter=random_filter(rng))
                outs.append(apply_local_pair(rho, op_a, op_b).state)
            w = rng.random()
            assert randomization_convexity_check(outs, [w, 1.0 - w])


def test_criterion_09_collective_contrast():
    with criterion("09 collective-contrast"):
        fs = np.linspace(0.55, 0.95, 9)
        for i, f in enumerate(fs):
            f_next, p = collective_step(f)
            assert f_next > f, f"no fidelity increase at F={f}"
            assert 0.0 < p < 1.0
            fc, pc = collective_step_closed_form(f)
            assert abs(f_next - fc) < 1e-10
            assert abs(p - pc) < 1e-10
            cfg = SearchConfig(restarts=9000, grid_density=3, local_steps=250, seed=900 + i)
            cert = maximize_concurrence_gain(make_werner(f), cfg)
            assert cert.best_gain <= GAIN_TOL, f"single-copy gain at F={f}"


def test_criterion_10_determinism(werner_certificates):
    with criterion("10 determinism"):
        f = 0.75
        cfg = SearchConfig(seed=1000 + WERNER_FS.index(f), **WERNER_CONFIG)
        rerun = maximize_concurrence_gain(make_werner(f), cfg)
        first = json.dumps(certificate_to_dict(werner_certificates[f]), sort_keys=True)
        second = json.dumps(certificate_to_dict(rerun), sort_keys=True)
        assert first == second
