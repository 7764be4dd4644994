import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qlocc import _kernels, nogo, states
from qlocc.entanglement import concurrence, entanglement_of_formation
from qlocc.errors import DomainError, NotAState, NotEntangled
from qlocc.locc import LocalFilter, LocalOperation, apply_local_pair, normal_form
from qlocc.nogo import (
    _ALPHAS,
    _REFINE_TOP,
    SearchConfig,
    _quasi_newton,
    certificate_to_dict,
    maximize_concurrence_gain,
    probability_floor,
    procrustean_pure,
    randomization_convexity_check,
    scale_factor_grid,
)
from qlocc.states import (
    DensityMatrix,
    PureState,
    density_from_pure,
    fidelity,
    make_bell_diagonal,
    make_werner,
)

from conftest import (
    NOT_REAL_NUMBERS,
    candidate_rows,
    probability_floor_sequence,
    random_density_matrix,
    random_entangled_bell_diagonal,
    random_op,
    random_pure_state,
    werner_twirl,
)
from test_acceptance import BELL_CONFIG, WERNER_CONFIG

Z = np.array([0.0, 0.0, 1.0])

SMALL = SearchConfig(restarts=2000, grid_density=3, local_steps=200, seed=11)


def test_certificate_reproducible_bitwise():
    rho = make_werner(0.75)
    c1 = maximize_concurrence_gain(rho, SMALL)
    c2 = maximize_concurrence_gain(rho, SMALL)
    assert json.dumps(certificate_to_dict(c1), sort_keys=True) == json.dumps(
        certificate_to_dict(c2), sort_keys=True
    )


def test_certificate_counts_evaluations():
    cert = maximize_concurrence_gain(make_werner(0.8), SMALL)
    assert cert.evaluations >= SMALL.grid_density**6 + SMALL.restarts
    # each refinement: its start, then per iteration the trial steps, which
    # carry their gradients
    assert cert.evaluations <= (SMALL.grid_density**6 + SMALL.restarts
                                + _REFINE_TOP * (1 + SMALL.local_steps * len(_ALPHAS)))
    # a Werner state's best rows are all the identity filter, so it has one
    # start, where the gain is stationary: it converges after one iteration
    # of trial steps
    assert cert.evaluations == SMALL.grid_density**6 + SMALL.restarts + 1 + len(_ALPHAS)


def _scored_rows(monkeypatch):
    """Records the search's batch calls, and by first row a copy of the rows
    each of their chunks scores: the ``fill`` hook notes its chunk on its
    worker, and the chunk body the rows it is given there."""
    batches, chunks, worker = [], {}, threading.local()
    batch, gain_chunk = _kernels.filter_gain_batch, _kernels._gain_chunk

    def noted(rho, c_in, *rows, fill, **kwargs):
        def fill_noted(lo, *chunk):
            worker.lo = lo
            fill(lo, *chunk)

        batches.append(len(rows[0]))
        return batch(rho, c_in, *rows, fill=fill_noted, **kwargs)

    def recorded(ws, x, c_in, a, n, b, m, gains, t, grad=None):
        if grad is None:
            chunks[worker.lo] = [col.copy() for col in (a, n, b, m)]
        return gain_chunk(ws, x, c_in, a, n, b, m, gains, t, grad)

    monkeypatch.setattr(_kernels, "filter_gain_batch", noted)
    monkeypatch.setattr(_kernels, "_gain_chunk", recorded)
    return batches, chunks


def _scored_table(chunks):
    """The recorded chunks' rows, joined in row order."""
    starts = sorted(chunks)
    assert starts == list(range(0, len(starts) * _kernels.CHUNK, _kernels.CHUNK))
    return [np.concatenate(cols) for cols in zip(*(chunks[lo] for lo in starts))]


def test_search_scores_one_candidate_table(monkeypatch):
    # one batch call scores the grid's rows and then the draws; the batch
    # and the refinement prepare one root each
    batches, chunks = _scored_rows(monkeypatch)
    roots, gain_root = [], _kernels.gain_root
    monkeypatch.setattr(_kernels, "gain_root", lambda rho: roots.append(rho) or gain_root(rho))
    maximize_concurrence_gain(make_werner(0.8), SMALL)
    grid_size = SMALL.grid_density**6
    assert batches == [grid_size + SMALL.restarts] and len(roots) == 2
    table = _scored_table(chunks)
    a, n, b, m = table
    assert len(a) == len(n) == len(b) == len(m) == grid_size + SMALL.restarts
    strengths = np.linspace(0.0, 0.96, SMALL.grid_density)
    assert np.isin(a[:grid_size], strengths).all() and np.isin(b[:grid_size], strengths).all()
    draws = candidate_rows(SMALL.restarts)
    nogo._random_params(np.random.default_rng(SMALL.seed), *draws)
    for column, drawn in zip(table, draws):
        assert np.array_equal(column[grid_size:], drawn)


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("seed", [0, 11, 2026])
def test_draws_filled_by_chunk_equal_one_draw(monkeypatch, seed, cpus):
    # the batch's workers write the rows chunk by chunk, the grid's from
    # their index and the draws' from a generator moved ahead; 729 grid
    # rows end mid-chunk and 9001 draws end mid-chunk, and the rows scored
    # are the whole grid's and then those of one whole draw from one
    # generator
    cfg = SearchConfig(restarts=9001, grid_density=3, local_steps=1, seed=seed)
    grid_size = cfg.grid_density**6
    assert grid_size % _kernels.CHUNK and (grid_size + cfg.restarts) % _kernels.CHUNK
    _assert_scored_rows_are_grid_then_draws(cfg, cpus, monkeypatch)


def test_grid_rows_spanning_chunks_follow_their_index(monkeypatch):
    # a grid of 5**6 = 15,625 rows spans four chunks, each written from its
    # rows' indices
    cfg = SearchConfig(restarts=10, grid_density=5, local_steps=1, seed=1)
    assert cfg.grid_density**6 > 3 * _kernels.CHUNK
    _assert_scored_rows_are_grid_then_draws(cfg, 2, monkeypatch)


def _assert_scored_rows_are_grid_then_draws(cfg, cpus, monkeypatch):
    _, chunks = _scored_rows(monkeypatch)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: cpus)
    maximize_concurrence_gain(make_werner(0.8), cfg)
    grid, draws = candidate_rows(cfg.grid_density**6), candidate_rows(cfg.restarts)
    nogo._grid_params(cfg.grid_density, 0, *grid)
    nogo._random_params(np.random.default_rng(cfg.seed), *draws)
    for column, *parts in zip(_scored_table(chunks), grid, draws):
        assert np.array_equal(column, np.concatenate(parts))


def test_search_memory_does_not_grow_with_the_budget(monkeypatch):
    # the workers score the rows chunk by chunk and keep only each chunk's
    # best, so once warm, a search of 400,000 draws peaks within 1 MB of
    # one of 100,000, where the rows alone would take 19 MB more
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    rho = make_werner(0.8)

    def peak(restarts):
        cfg = SearchConfig(restarts=restarts, grid_density=3, local_steps=5, seed=3)
        tracemalloc.start()
        try:
            maximize_concurrence_gain(rho, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100_000)
    assert peak(400_000) <= peak(100_000) + 1_000_000


@pytest.mark.parametrize("size", [1, 5, 6, 7, 40, 3000])
def test_top_indices_match_stable_argsort(size, rng):
    # few distinct values, so ties cross the k-th place, and -inf entries
    # (filtered-out points); size <= _REFINE_TOP takes every index
    for _ in range(20):
        g = rng.integers(-2, 3, size=size).astype(float)
        g[rng.random(size) < 0.3] = -np.inf
        for k in (1, _REFINE_TOP, size):
            assert np.array_equal(_kernels._top_indices(g, k), np.argsort(-g, kind="stable")[:k])
    g = np.full(size, -np.inf)
    assert np.array_equal(_kernels._top_indices(g, _REFINE_TOP),
                          np.arange(min(size, _REFINE_TOP)))


HESS_6D = np.eye(6) + 0.3 * np.ones((6, 6))
MIN_6D = np.array([0.3, -1.2, 0.0, 2.0, -0.5, 1.1])
STARTS_6D = np.random.default_rng(9).normal(scale=2.0, size=(5, 6))


def _smooth_6d(x):
    """Coupled quadratic plus quartic, one value per row; minimum 0 at MIN_6D."""
    y = x - MIN_6D
    return np.einsum("ki,ij,kj->k", y, HESS_6D, y) + (y**4).sum(axis=1)


def _smooth_6d_with_gradient(x):
    y = x - MIN_6D
    return _smooth_6d(x), 2.0 * y @ HESS_6D + 4.0 * y**3


def test_quasi_newton_reaches_minimum_like_scipy_bfgs():
    from scipy.optimize import minimize

    res = _quasi_newton(_smooth_6d_with_gradient, STARTS_6D, 200)
    assert res.converged.all()
    assert np.all(res.iterations < 200)
    for i, x0 in enumerate(STARTS_6D):
        ref = minimize(lambda z: _smooth_6d(z[None])[0], x0, method="BFGS",
                       options={"gtol": 1e-10})
        assert np.abs(ref.x - MIN_6D).max() <= 1e-6
        assert np.abs(res.x[i] - MIN_6D).max() <= 1e-6
        assert res.value[i] == _smooth_6d(res.x[i][None])[0]


def test_quasi_newton_iteration_cap_per_start():
    # each iteration is one call on the trial steps, which carry their gradients
    for cap in (1, 2, 5, 9):
        calls = []
        res = _quasi_newton(lambda x: calls.append(len(x)) or _smooth_6d_with_gradient(x),
                            STARTS_6D, cap)
        assert sum(calls) == res.evaluations.sum()
        assert len(calls) == 1 + cap
        assert np.all(res.iterations == cap)  # none converges this early
        assert not res.converged.any()
        assert np.all(res.evaluations == 1 + cap * len(_ALPHAS))
        assert max(calls) <= len(STARTS_6D) * len(_ALPHAS)


def test_quasi_newton_converges_only_where_the_shortest_step_is_resolved():
    # from x1 = -12 the gradient is 7.5e3 long, so every trial step along -g
    # overshoots, before and after the fresh-identity retry: the start stops
    # after one iteration far from the minimum, and has not converged
    starts = np.zeros((4, 6))
    starts[:, 0] = (-12.0, -4.0, -6.0, -8.0)
    res = _quasi_newton(_smooth_6d_with_gradient, starts, 200)
    assert res.iterations[0] == 1 and res.value[0] > 1e4 and not res.converged[0]
    assert res.converged[1:].all()
    assert np.all(res.value[1:] < 1e-12)


def _walled_6d(x):
    """The coupled quadratic plus quartic in the first five coordinates,
    its minimum 0 at MIN_6D[:5], with a gradient that is NaN wherever the
    value is below the sixth coordinate. The sixth has no gradient, so each
    start keeps its own level. Row sums only, so a row's bits do not depend
    on its batch."""
    y = x[:, :5] - MIN_6D[:5]
    total = y.sum(axis=1)
    value = (y * y).sum(axis=1) + 0.3 * total * total + (y**4).sum(axis=1)
    grad = np.zeros_like(x)
    grad[:, :5] = 2.0 * (y + 0.3 * total[:, None]) + 4.0 * y**3
    grad[value < x[:, 5]] = np.nan
    return value, grad


def test_quasi_newton_lockstep_equals_solo_runs():
    # each start's result, bit for bit, whichever starts run beside it
    starts = np.random.default_rng(9).normal(scale=2.0, size=(7, 6))
    starts[:, 5] = -1.0  # the gradient stays finite
    starts[4, :5] *= 4.0  # far out: hits the cap
    starts[5, 5] = 1e-3  # non-finite once the value falls below 1e-3
    starts[6, 5] = np.inf  # non-finite at the start
    cap = 40
    res = _quasi_newton(_walled_6d, starts, cap)
    converged = res.iterations[res.converged]
    assert len(set(converged.tolist())) == len(converged) >= 3
    assert res.iterations[4] == cap and not res.converged[4]
    assert 1 < res.iterations[5] < cap and not res.converged[5] and res.value[5] < 1e-3
    assert res.iterations[6] == 0 and not res.converged[6]
    assert res.x[6].tobytes() == starts[6].tobytes()
    for i in range(len(starts)):
        solo = _quasi_newton(_walled_6d, starts[i:i + 1], cap)
        for field, alone in zip(res, solo):
            assert field[i].tobytes() == alone[0].tobytes(), (i, field[i], alone[0])


@pytest.fixture
def refinements(monkeypatch):
    """The (objective, starts, result) of every refinement the searches run."""
    calls = []

    def recording(f, x0, max_iter):
        calls.append((f, x0, _quasi_newton(f, x0, max_iter)))
        return calls[-1][2]

    monkeypatch.setattr(nogo, "_quasi_newton", recording)
    return calls


def test_bell_diagonal_refinements_converge(rng, refinements):
    for _ in range(3):
        maximize_concurrence_gain(random_entangled_bell_diagonal(rng), SMALL)
    maximize_concurrence_gain(make_werner(0.7), SMALL)
    assert len(refinements) == 4
    for _, _, res in refinements:
        assert res.converged.all()
        assert np.all(res.iterations < SMALL.local_steps)


def test_best_gain_is_the_refinements_best_end_point(refinements):
    # on a gain-admitting state the refinement beats the grid and the draws,
    # and the certificate reports its best end point's gain bit for bit
    cert = maximize_concurrence_gain(_power_states(7, 1)[0][0], SMALL)
    assert cert.best_gain == -refinements[0][2].value.min()


def test_refinement_starts_are_distinct(refinements):
    # the grid's strength-0 rows are one identity filter for every axis, and
    # tie at the top of the candidate rows on these states; each filter pair
    # starts one refinement
    import golden  # golden imports this module

    for rho in (make_werner(0.8), make_bell_diagonal([0.7, 0.1, 0.15, 0.05]),
                golden.tolerance_scale_state()):
        maximize_concurrence_gain(rho, SMALL)
    assert len(refinements) == 3
    for _, x0, _ in refinements:
        assert len(np.unique(x0 + 0.0, axis=0)) == len(x0), x0


def test_search_reaches_a_supremum_at_strength_one():
    # 0.6 singlet + 0.4 |uu>: filtering toward |dd> on both sides drives the
    # state toward the singlet, so the gain's supremum 0.4 is approached only
    # as both strengths tend to 1, where the chart flattens the gain's slope
    # in u as (1 - a)^2.5; a refinement must not stop there while its steps
    # still improve the gain
    rho = DensityMatrix(0.6 * states.SINGLET_PROJ + 0.4 * np.diag([1.0, 0.0, 0.0, 0.0]))
    for cfg in (SearchConfig(seed=0, **BELL_CONFIG), SearchConfig(),
                SearchConfig(seed=1000, **WERNER_CONFIG)):
        cert = maximize_concurrence_gain(rho, cfg)
        assert abs(cert.best_gain - 0.4) <= 1e-12, (cfg, cert.best_gain)


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = ("import sys, qlocc; tops = [m.split('.')[0] for m in sys.modules]; "
            "print(tops.count('scipy'), tops.count('concurrent'), "
            "int('qlocc.linalg' in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    scipy_modules, concurrent_modules, linalg_modules = map(int, out.split())
    assert scipy_modules == 0
    # the batched kernel imports its thread pool only when a call needs one
    assert concurrent_modules == 0
    # the package calls numpy directly; linalg.py is the benchmark's alone
    assert linalg_modules == 0


def test_werner_certificates_hold():
    for f in [0.6, 0.8]:
        cert = maximize_concurrence_gain(make_werner(f), SMALL)
        assert cert.best_gain <= 1e-7
        assert cert.holds


def test_bell_diagonal_certificates_hold(rng):
    for _ in range(5):
        rho = random_entangled_bell_diagonal(rng)
        cert = maximize_concurrence_gain(rho, SMALL)
        assert cert.best_gain <= 1e-7


def test_specific_bell_diagonal_certificate():
    cert = maximize_concurrence_gain(make_bell_diagonal([0.6, 0.2, 0.1, 0.1]), SMALL)
    assert abs(cert.concurrence_in - 0.2) < 1e-12  # 2 * 0.6 - 1
    assert cert.best_gain <= 1e-7


def test_search_finds_gain_when_one_exists():
    # a nearly pure, non-maximally-entangled state with local Bloch vectors:
    # filtering toward Schmidt balance raises the concurrence
    psi = PureState(np.array([math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)], dtype=complex))
    rho = DensityMatrix(0.98 * density_from_pure(psi).mat + 0.02 * np.eye(4) / 4)
    cert = maximize_concurrence_gain(rho, SearchConfig(restarts=3000, grid_density=3,
                                                       local_steps=300, seed=3))
    assert cert.best_gain > 0.05
    # the reported parameters actually realize the reported gain
    out = apply_local_pair(
        rho,
        LocalOperation(unitary=np.eye(2), filter=cert.best_filter_a),
        LocalOperation(unitary=np.eye(2), filter=cert.best_filter_b),
    )
    assert abs((concurrence(out.state) - cert.concurrence_in) - cert.best_gain) < 1e-9
    assert abs(out.probability - cert.probability) < 1e-12


def _non_states():
    """A trace-2 matrix, and a unit-trace one that is not Hermitian."""
    skew = make_werner(0.8).mat.copy()
    skew[0, 1] += 0.05
    return [2.0 * make_werner(0.8).mat, skew]


@pytest.mark.parametrize("mat", _non_states(), ids=["trace-2", "non-hermitian"])
def test_search_and_normal_form_refuse_a_non_state(mat):
    # each entry validates its input once and names the failed invariants;
    # unchecked, 2 W(0.8) reads a capped concurrence of 1, and the normal
    # form of the non-Hermitian input runs out its iterations
    rho = DensityMatrix(mat)
    with pytest.raises(NotAState, match="state invariants"):
        maximize_concurrence_gain(rho, SearchConfig(restarts=64, grid_density=2, local_steps=5))
    with pytest.raises(NotAState, match="state invariants"):
        normal_form(rho)


def _power_states(seed, count):
    """Full-rank Hilbert-Schmidt states that are clearly entangled and that
    filtering can improve by at least 1e-3, with that optimum gain."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        rho = random_density_matrix(rng)
        c = concurrence(rho)
        if c < 0.05:
            continue
        nf = normal_form(rho)
        if nf.optimum - c >= 1e-3:
            out.append((rho, nf.optimum - c))
    return out


def test_search_reaches_normal_form_optimum():
    cfg = SearchConfig(seed=5, **BELL_CONFIG)
    gaps = []
    for seed in (7, 2026):
        for rho, opt_gain in _power_states(seed, 16):
            gaps.append(opt_gain - maximize_concurrence_gain(rho, cfg).best_gain)
    assert len(gaps) == 32
    assert max(np.abs(gaps)) <= 1e-9, gaps


def _perturbed(base, seed, epsilons):
    """(eps, base + eps H) for each eps in turn, four H per eps, drawn in
    order from ``default_rng(seed)``. Each H is (G + G+)/2 for a complex
    standard-normal 4x4 G, with its trace removed and scaled to unit
    Frobenius norm."""
    rng = np.random.default_rng(seed)
    out = []
    for eps in epsilons:
        for _ in range(4):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (g + g.conj().T) / 2
            h -= np.trace(h).real / 4 * np.eye(4)
            h /= np.linalg.norm(h)
            out.append((eps, DensityMatrix(base.mat + eps * h)))
    return out


# W(0.8) + eps H: the draws golden.tolerance_scale_state takes its state from
WERNER_EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def _tolerance_scale_states():
    """Near-Werner and near-Bell-diagonal states whose optimum gains, from
    1.10e-7 to 1.41e-5, lie just above the 1e-7 tolerance: W(0.8) + eps H
    for eps in 3e-3, 1e-3 and 3e-4, and the Bell-diagonal state
    [0.7, 0.1, 0.15, 0.05] + eps H (``default_rng(5)``) for eps in 3e-3
    and 1e-3, with the optimum gain of each."""
    near = [rho for eps, rho in _perturbed(make_werner(0.8), 42, WERNER_EPSILONS)
            if eps in (3e-3, 1e-3, 3e-4)]
    near += [rho for eps, rho in
             _perturbed(make_bell_diagonal([0.7, 0.1, 0.15, 0.05]), 5, (1e-2, 3e-3, 1e-3))
             if eps in (3e-3, 1e-3)]
    return [(rho, normal_form(rho).optimum - concurrence(rho)) for rho in near]


def test_search_finds_gains_at_the_tolerance_scale():
    # the filtering normal form sits next to the identity filter here
    # (strengths of a few 1e-4), where a search must not stop short; the
    # worst gap measured was 5.6e-15
    cases = _tolerance_scale_states()
    assert len(cases) == 20
    assert min(g for _, g in cases) > 1.1e-7 and max(g for _, g in cases) < 1.5e-5
    for cfg in (SearchConfig(seed=0, **BELL_CONFIG), SearchConfig()):
        for rho, opt_gain in cases:
            cert = maximize_concurrence_gain(rho, cfg)
            assert not cert.holds, (cfg, opt_gain, cert.best_gain)
            assert abs(opt_gain - cert.best_gain) <= 1e-13, (cfg, opt_gain, cert.best_gain)


def test_refinement_gradient_matches_central_differences(refinements):
    # the refinement's chart point u of each party maps to the filter vector
    # u / sqrt(1 + |u|^2); u = 0 is the identity filter, a regular point
    rho = _power_states(7, 1)[0][0]
    maximize_concurrence_gain(rho, SearchConfig(restarts=10, grid_density=2, local_steps=1))
    f = refinements[0][0]
    points = np.vstack([np.zeros(6), np.random.default_rng(3).normal(size=(4, 6))])
    value, grad = f(points)
    assert abs(value[0]) <= 1e-15  # the identity filter gains nothing
    h = 1e-6
    for i in range(6):
        step = h * np.eye(6)[i]
        diff = (f(points + step)[0] - f(points - step)[0]) / (2 * h)
        np.testing.assert_allclose(grad[:, i], diff, rtol=0, atol=1e-8)
    assert np.abs(grad[0]).max() > 1e-2  # the gain has a slope at the identity


def test_search_rejects_unentangled_input():
    with pytest.raises(NotEntangled):
        maximize_concurrence_gain(make_werner(0.4), SMALL)


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(restarts=0)
    for bad in (dict(grid_density=2.5), dict(restarts=100.7), dict(local_steps=True),
                dict(restarts=3.0), dict(grid_density="3"), dict(local_steps=np.float64(9))):
        with pytest.raises(DomainError):
            SearchConfig(**bad)
    assert SearchConfig(restarts=np.int64(5)).restarts == 5
    for bad in (-1, 1.5, True, np.int64(-3), "7"):
        with pytest.raises(DomainError, match="seed"):
            SearchConfig(seed=bad)
    assert SearchConfig(seed=np.int64(0)).seed == 0
    # stage sizes are checked before anything is allocated; int64 powers
    # must not wrap
    cap = nogo.MAX_STAGE_POINTS
    assert SearchConfig(restarts=cap, grid_density=12).restarts == cap
    for bad in (dict(grid_density=13), dict(grid_density=100), dict(restarts=cap + 1),
                dict(restarts=3_000_000_000), dict(grid_density=np.int64(2**11))):
        with pytest.raises(DomainError, match="search stage"):
            SearchConfig(**bad)
    with pytest.raises(DomainError):
        SearchConfig(tolerance=0.0)
    for bad in (math.nan, math.inf, -1, "1e-7") + NOT_REAL_NUMBERS:
        with pytest.raises(DomainError, match="tolerance"):
            SearchConfig(tolerance=bad)
    assert SearchConfig(tolerance=np.float64(1e-6)).tolerance == 1e-6
    assert SearchConfig(tolerance=1).tolerance == 1
    # the fields hold the checked values as Python numbers, so numpy's
    # narrow integers cannot overflow grid_density**6
    cfg = SearchConfig(restarts=np.int64(5), grid_density=np.int16(7), local_steps=np.uint8(3),
                       seed=np.int32(2), tolerance=np.float32(0.5))
    assert [type(getattr(cfg, f)) for f in ("restarts", "grid_density", "local_steps", "seed",
                                            "tolerance")] == [int, int, int, int, float]
    assert (cfg.grid_density**6, cfg.tolerance) == (117649, 0.5)
    narrow = SearchConfig(restarts=10, grid_density=np.int8(3), local_steps=5)
    wide = SearchConfig(restarts=10, grid_density=3, local_steps=5)
    assert (certificate_to_dict(maximize_concurrence_gain(make_werner(0.8), narrow))
            == certificate_to_dict(maximize_concurrence_gain(make_werner(0.8), wide)))


# --- scale factor bound ---

def test_scale_factor_bound_grid():
    for f in [0.55, 0.95]:
        assert scale_factor_grid(f, grid_density=40).max_factor <= 1.0 + 1e-12
    # dense 100 x 100 x 100 evaluation
    assert scale_factor_grid(0.75, grid_density=100).max_factor <= 1.0 + 1e-12


def test_scale_factor_reaches_one_at_trivial_point():
    # a = b = 0 gives the factor exactly 1, so the max is exactly 1
    assert scale_factor_grid(0.75, grid_density=25).max_factor == 1.0


def test_scale_factor_vanishes_at_projector_limit():
    # direct evaluation at a = b -> 1: numerator (1-a^2)(1-b^2) -> 0
    a = b = 0.999
    den = (1 + a * a) * (1 + b * b) + (4.0 / 3.0) * (1 - 4 * 0.75) * a * b
    num = (1 - a * a) * (1 - b * b)
    assert num / den < 1e-5


def test_scale_factor_domain():
    with pytest.raises(DomainError):
        scale_factor_grid(0.5).max_factor
    for bad in NOT_REAL_NUMBERS:
        with pytest.raises(DomainError, match="real number"):
            scale_factor_grid(bad, grid_density=3)
    assert scale_factor_grid(1, grid_density=3) == scale_factor_grid(np.float64(1.0), grid_density=3)
    with pytest.raises(DomainError):
        scale_factor_grid(0.75, grid_density=1)
    with pytest.raises(DomainError):
        scale_factor_grid(0.75, grid_density=nogo.MAX_SCALE_GRID_DENSITY + 1)
    for bad in (2.5, "10", None, True, 10.0):
        with pytest.raises(DomainError, match="grid_density"):
            scale_factor_grid(0.75, grid_density=bad)
    assert scale_factor_grid(0.75, grid_density=np.int64(3)).max_factor > 0.0


def test_sweep_row_fields():
    row = scale_factor_grid(0.75, grid_density=25)
    assert row.F == 0.75
    assert 0.0 < row.t_worst_case
    assert 0.0 < row.floor
    assert row.t_worst_case >= row.floor - 1e-12


# --- probability floor ---

def test_floor_trivial_filters():
    fa = LocalFilter(strength=0.0, axis=Z, scale=0.7)
    fb = LocalFilter(strength=0.0, axis=Z, scale=0.9)
    for f in [0.51, 0.75, 0.99]:
        chk = probability_floor(f, fa, fb)
        assert abs(chk.floor - (0.7 * 0.9) ** 2) < 1e-15
        assert abs(chk.t - chk.floor) < 1e-12  # t is F-independent here
        assert chk.holds


def test_floor_extremal_value():
    fa = LocalFilter(strength=1.0, axis=Z, scale=0.5)
    fb = LocalFilter(strength=1.0, axis=-Z, scale=0.5)
    chk = probability_floor(0.75, fa, fb)
    assert abs(chk.floor - 1.0 / 6.0) < 1e-14


def test_floor_sequence_with_opposed_axes():
    fa = LocalFilter(strength=0.8, axis=Z, scale=1 / 1.8)
    fb = LocalFilter(strength=0.8, axis=-Z, scale=1 / 1.8)
    seq = probability_floor_sequence(fa, fb, k_max=20)
    assert len(seq) == 20
    for f, chk in seq:
        assert chk.holds
        assert chk.t >= chk.floor - 1e-12
        assert chk.floor > 0.0
        # independent evaluation of the Werner normalization
        a = b = 0.8
        mu = nu = 1 / 1.8
        expected = (mu * nu) ** 2 * (
            (1 + a * a) * (1 + b * b) + (4.0 / 3.0) * (1 - 4 * f) * a * b * (-1.0)
        )
        assert abs(chk.t - expected) < 1e-12


def test_floor_decimal_sequence():
    fa = LocalFilter(strength=0.7, axis=Z, scale=0.5)
    fb = LocalFilter(strength=0.7, axis=-Z, scale=0.5)
    for f in [0.51, 0.501, 0.5001]:
        chk = probability_floor(f, fa, fb)
        assert chk.t >= chk.floor - 1e-12
        assert chk.floor > 0.0


def test_floor_values_decrease_toward_limit():
    fa = LocalFilter(strength=0.6, axis=Z, scale=0.5)
    fb = LocalFilter(strength=0.6, axis=-Z, scale=0.5)
    ts = [chk.t for _, chk in probability_floor_sequence(fa, fb, k_max=12)]
    # with opposed axes t grows with F, so it decreases along the sequence
    assert all(x > y for x, y in zip(ts, ts[1:]))
    assert min(ts) > 0.0


# --- Procrustean pure-state filtering ---

def test_procrustean_singlet_is_tight():
    res = procrustean_pure(PureState(states.SINGLET_AMPS))
    assert abs(res.probability - 1.0) < 1e-12
    assert abs(res.entanglement_in - 1.0) < 1e-12
    assert res.bound_holds


def test_procrustean_example():
    psi = PureState(np.array([math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)], dtype=complex))
    res = procrustean_pure(psi)
    assert abs(res.probability - 0.2) < 1e-12
    assert abs(res.concurrence_out - 1.0) < 1e-10
    # independent entropy evaluation: H(0.9)
    h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert abs(res.entanglement_in - h) < 1e-10
    assert res.probability <= res.entanglement_in + 1e-12


def test_procrustean_random_states(rng):
    for _ in range(100):
        psi = random_pure_state(rng)
        amp = psi.amps.reshape(2, 2)
        if np.linalg.svd(amp, compute_uv=False)[1] < 1e-6:
            continue
        res = procrustean_pure(psi)
        assert abs(res.concurrence_out - 1.0) < 1e-10
        assert res.probability <= res.entanglement_in + 1e-12


def test_procrustean_probability_vanishes_toward_product():
    probs = []
    for eps in [0.2, 0.1, 0.05, 0.01, 0.001]:
        psi = PureState(
            np.array([math.sqrt(1 - eps), 0.0, 0.0, math.sqrt(eps)], dtype=complex)
        )
        probs.append(procrustean_pure(psi).probability)
    assert all(x > y for x, y in zip(probs, probs[1:]))
    assert probs[-1] < 0.005


def test_procrustean_rejects_product_state():
    with pytest.raises(NotEntangled):
        procrustean_pure(PureState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)))


# --- randomization convexity ---

def test_convexity_single_state_equality():
    assert randomization_convexity_check([make_werner(0.8)], [1.0])


def test_convexity_strict_for_orthogonal_bell_mixture():
    # equal mixture of Psi- and Psi+ is separable: left side 0, right side 1
    psi_minus = make_bell_diagonal([1, 0, 0, 0])
    psi_plus = make_bell_diagonal([0, 1, 0, 0])
    mix = make_bell_diagonal([0.5, 0.5, 0, 0])
    assert entanglement_of_formation(mix) < 1e-12
    assert abs(entanglement_of_formation(psi_minus) - 1.0) < 1e-12
    assert randomization_convexity_check([psi_minus, psi_plus], [0.5, 0.5])


def test_convexity_on_filtered_ensembles(rng):
    for _ in range(50):
        rho = make_werner(0.55 + 0.4 * rng.random())
        outs = [
            apply_local_pair(rho, random_op(rng), random_op(rng)).state for _ in range(2)
        ]
        w = rng.random()
        assert randomization_convexity_check(outs, [w, 1.0 - w])


def test_convexity_weight_validation():
    with pytest.raises(DomainError):
        randomization_convexity_check([make_werner(0.8)], [0.7, 0.3])
    with pytest.raises(DomainError):
        randomization_convexity_check([make_werner(0.8), make_werner(0.7)], [0.7, 0.4])
    with pytest.raises(DomainError):
        randomization_convexity_check([], [])
    for bad in ([math.nan, 1.0], [math.inf, 0.0], [0.5, math.nan], ["a", 1], [None, 1]):
        with pytest.raises(DomainError):
            randomization_convexity_check([make_werner(0.8), make_werner(0.7)], bad)


# --- Werner twirl ---

def test_twirl_preserves_fidelity(rng):
    for _ in range(20):
        rho = random_density_matrix(rng)
        assert abs(fidelity(werner_twirl(rho)) - fidelity(rho)) < 1e-12


def test_twirl_of_filtered_werner_never_gains_fidelity(rng):
    for _ in range(100):
        f = 0.55 + 0.45 * rng.random()
        out = apply_local_pair(make_werner(f), random_op(rng), random_op(rng))
        assert fidelity(werner_twirl(out.state)) <= f + 1e-9


def test_certificate_dict_schema():
    cert = maximize_concurrence_gain(make_werner(0.8), SMALL)
    d = certificate_to_dict(cert)
    assert set(d) == {
        "input_state",
        "config",
        "concurrence_in",
        "best_gain",
        "best_params",
        "evaluations",
        "holds",
    }
    assert set(d["best_params"]) == {"filter_a", "filter_b", "probability"}
    assert set(d["config"]) == {"restarts", "grid_density", "local_steps", "seed", "tolerance"}
