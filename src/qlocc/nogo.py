"""Certification by adversarial search that single-copy filtering cannot
increase the entanglement of Werner or Bell-diagonal states.

The search maximizes the concurrence gain over both parties' filter
strengths and axes: a coarse grid and uniform random draws, then lockstep
quasi-Newton refinements of the best candidates, each step of which sends
its points through one batched kernel call. Unitary factors are omitted:
the filtering transformation law is manifestly unitary-independent, which
the test suite checks separately. Filter scales are pinned to their maxima
1/(1+a) and 1/(1+b); they cancel between the transformed state and its
normalization, another identity the tests pin down.

Also here: the contrast operations that DO succeed on single copies of
pure states (Procrustean filtering), the probability floor that forbids
purification to a fixed goal state, and the convexity check showing that
randomizing outcomes never helps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qlocc import _kernels
from qlocc.entanglement import concurrence, entanglement_of_formation
from qlocc.errors import DomainError, NotEntangled
from qlocc.locc import (
    LocalFilter,
    LoccOutcome,
    apply_local_pair,
    closed_form_t,
    decompose_local_op,
    trivial_operation,
)
from qlocc.states import (
    DensityMatrix,
    PureState,
    density_from_pure,
    density_matrix_to_dict,
    fidelity,
    make_werner,
    to_pauli,
)

_REFINE_TOP = 6
_U_RANGE = 8.0  # random draws of the stretched strength coordinate
# quasi-Newton refinement: central-difference step, trial step lengths
# along each direction, and the rounding-level stop thresholds
_H = 1e-7
_ALPHAS = 0.25 ** np.arange(5)
_IMPROVE_TOL = 1e-15
_GRAD_TOL = 1e-10


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for the gain search.

    ``restarts`` counts uniform random parameter draws; ``grid_density``
    sets the points per parameter of the coarse 6-dimensional grid;
    ``local_steps`` caps the iterations per quasi-Newton refinement. The
    three budgets must be positive integers (not bools). All randomness
    flows from ``seed``.
    """

    restarts: int = 64
    grid_density: int = 4
    local_steps: int = 400
    seed: int = 0
    tolerance: float = 1e-7

    def __post_init__(self):
        for name in ("restarts", "grid_density", "local_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise DomainError(f"{name} must be a positive integer, got {value!r}")
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError("tolerance must be positive and finite")


@dataclass(frozen=True, eq=False)
class Certificate:
    """Best concurrence gain found by an exhaustive seeded search."""

    input_state: DensityMatrix
    config: SearchConfig
    concurrence_in: float
    best_gain: float
    best_filter_a: LocalFilter
    best_filter_b: LocalFilter
    probability: float
    evaluations: int

    @property
    def holds(self) -> bool:
        return self.best_gain <= self.config.tolerance


def _logit(a):
    a = np.clip(a, 1e-6, 1.0 - 1e-9)
    return np.log(a / (1.0 - a))


def _grid_params(g: int):
    """Coarse grid over strengths and spherical angles; includes a=b=0."""
    a_vals = np.linspace(0.0, 0.96, g)
    th_vals = np.linspace(0.0, math.pi, g)
    ph_vals = np.linspace(0.0, 2.0 * math.pi, g, endpoint=False)
    A, Tn, Pn, B, Tm, Pm = np.meshgrid(
        a_vals, th_vals, ph_vals, a_vals, th_vals, ph_vals, indexing="ij"
    )
    return (
        A.ravel(),
        Tn.ravel(),
        Pn.ravel(),
        B.ravel(),
        Tm.ravel(),
        Pm.ravel(),
    )


def _random_params(rng: np.random.Generator, count: int):
    """Uniform draws: stretched coordinates for strengths, area-uniform axes."""
    u = rng.random((count, 6))
    a = 1.0 / (1.0 + np.exp(-(2.0 * u[:, 0] - 1.0) * _U_RANGE))
    th_n = np.arccos(1.0 - 2.0 * u[:, 1])
    ph_n = 2.0 * math.pi * u[:, 2]
    b = 1.0 / (1.0 + np.exp(-(2.0 * u[:, 3] - 1.0) * _U_RANGE))
    th_m = np.arccos(1.0 - 2.0 * u[:, 4])
    ph_m = 2.0 * math.pi * u[:, 5]
    return a, th_n, ph_n, b, th_m, ph_m


def _axes_from_angles(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)


def _top_indices(g, k):
    """``np.argsort(-g, kind="stable")[:k]`` without sorting all of ``g``.

    The k-th largest value comes from ``np.partition``; only the entries at
    or above it are sorted, stably by descending value, so ties keep index
    order. ``g`` holds no NaN (the kernel's gains are finite or -inf).
    """
    if len(g) > k:
        cand = np.flatnonzero(g >= np.partition(g, len(g) - k)[len(g) - k])
    else:
        cand = np.arange(len(g))
    return cand[np.argsort(-g[cand], kind="stable")[:k]]


def _sigmoid(x):
    """1/(1 + exp(-x)) without overflow, for any real x."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


class _Refinement(NamedTuple):
    """Per-start outcome of :func:`_quasi_newton`."""

    x: np.ndarray  # (k, d) end points
    value: np.ndarray  # (k,) objective at the end points
    iterations: np.ndarray  # (k,)
    converged: np.ndarray  # (k,) stopped at a stationary point, not at the cap
    evaluations: np.ndarray  # (k,)


def _quasi_newton(f, x0, max_iter):
    """Minimize from each row of ``x0`` by inverse BFGS (Nocedal and Wright,
    Numerical Optimization, Sec. 6.1), all starts in lockstep.

    ``f`` maps a (k, d) array of points to k values. Gradients are central
    differences with step ``_H``. The first call evaluates every start and
    its 2d gradient points. Each iteration then makes at most two calls: the
    ``_ALPHAS`` trial steps along every active start's direction -H g, and
    the gradient points at each start's best improving trial. A start whose
    trials all fail to improve it by more than ``_IMPROVE_TOL`` retries once
    along -g with H reset to the identity; failing again, or reaching a
    gradient with max|g| <= ``_GRAD_TOL``, it has converged. A start also
    stops after ``max_iter`` iterations, or (unconverged) at a non-finite
    gradient. So a start uses at most 1 + max_iter (2d + len(_ALPHAS))
    evaluations.
    """
    k, d = x0.shape
    offsets = _H * np.concatenate([np.eye(d), -np.eye(d)])

    def gradients(vals):
        v = vals.reshape(-1, 2, d)
        return (v[:, 0] - v[:, 1]) / (2.0 * _H)

    first = f(np.concatenate([x0, (x0[:, None] + offsets).reshape(-1, d)]))
    x, fx, g = x0.copy(), first[:k], gradients(first[k:])
    hess_inv = np.repeat(np.eye(d)[None], k, axis=0)
    fresh = np.ones(k, dtype=bool)  # hess_inv is the identity
    iterations = np.zeros(k, dtype=int)
    evaluations = np.full(k, 1 + 2 * d)
    finite = np.isfinite(g).all(axis=1)
    converged = finite & (np.abs(g).max(axis=1) <= _GRAD_TOL)
    active = finite & ~converged
    while True:
        act = np.flatnonzero(active & (iterations < max_iter))
        if act.size == 0:
            return _Refinement(x, fx, iterations, converged, evaluations)
        p = -np.einsum("kij,kj->ki", hess_inv[act], g[act])
        trial = x[act, None] + _ALPHAS[:, None] * p[:, None]
        ft = f(trial.reshape(-1, d)).reshape(act.size, -1)
        iterations[act] += 1
        evaluations[act] += len(_ALPHAS)
        j = np.argmin(ft, axis=1)
        f_new = ft[np.arange(act.size), j]
        ok = f_new < fx[act] - _IMPROVE_TOL
        failed = act[~ok]
        done = failed[fresh[failed]]
        active[done], converged[done] = False, True
        retry = failed[~fresh[failed]]
        hess_inv[retry], fresh[retry] = np.eye(d), True
        moved = act[ok]
        s = trial[ok, j[ok]] - x[moved]
        x[moved], fx[moved] = trial[ok, j[ok]], f_new[ok]
        # a start at its iteration cap ends here and needs no gradient
        keep = iterations[moved] < max_iter
        moved, s = moved[keep], s[keep]
        if moved.size == 0:
            continue
        g_new = gradients(f((x[moved, None] + offsets).reshape(-1, d)))
        evaluations[moved] += 2 * d
        y = g_new - g[moved]
        g[moved] = g_new
        finite = np.isfinite(g_new).all(axis=1)
        flat = finite & (np.abs(g_new).max(axis=1) <= _GRAD_TOL)
        active[moved[~finite | flat]] = False
        converged[moved[flat]] = True
        # update where the curvature condition holds; a fresh identity is
        # first scaled to s.y / y.y
        sy = np.einsum("ki,ki->k", s, y)
        upd = finite & (sy > 1e-12 * np.linalg.norm(s, axis=1) * np.linalg.norm(y, axis=1))
        moved, s, y, sy = moved[upd], s[upd], y[upd], sy[upd]
        h = hess_inv[moved]
        scale = np.where(fresh[moved], sy / np.einsum("ki,ki->k", y, y), 1.0)
        h *= scale[:, None, None]
        rho = 1.0 / sy
        v = np.eye(d) - rho[:, None, None] * s[:, :, None] * y[:, None, :]
        hess_inv[moved] = (v @ h @ np.swapaxes(v, 1, 2)
                           + rho[:, None, None] * s[:, :, None] * s[:, None, :])
        fresh[moved] = False


def maximize_concurrence_gain(rho: DensityMatrix, cfg: SearchConfig) -> Certificate:
    """Search filter pairs for a concurrence increase; certify the maximum.

    Three stages share one budget, all counted in ``evaluations``: a coarse
    grid (``grid_density`` points per parameter), ``restarts`` uniform
    random draws, and quasi-Newton refinements of the best candidates, at
    most ``local_steps`` iterations each, in stretched coordinates that
    resolve the strength boundaries. The objective is the directly
    computed concurrence of the filtered state minus the input
    concurrence; no transformation-law shortcut is used, so the
    certificate is independent of the law it corroborates.

    Deterministic: identical config (including seed) yields an identical
    certificate. Raises :class:`~qlocc.errors.NotEntangled` when the input
    carries no concurrence to begin with.
    """
    c_in = _kernels.concurrence4(rho.mat)
    if c_in <= 0.0:
        raise NotEntangled("input state has zero concurrence; nothing to gain or lose")
    rng = np.random.default_rng(cfg.seed)
    evaluations = 0
    best = {"gain": -np.inf, "a": 0.0, "n": np.array([0.0, 0.0, 1.0]),
            "b": 0.0, "m": np.array([0.0, 0.0, 1.0]), "t": 1.0}

    def _consume(a_arr, th_n, ph_n, b_arr, th_m, ph_m):
        nonlocal evaluations
        n_arr = _axes_from_angles(th_n, ph_n)
        m_arr = _axes_from_angles(th_m, ph_m)
        gains, ts = _kernels.filter_gain_batch(rho.mat, c_in, a_arr, n_arr, b_arr, m_arr)
        evaluations += len(gains)
        k = int(np.argmax(gains))
        if gains[k] > best["gain"]:
            best.update(gain=float(gains[k]), a=float(a_arr[k]), n=n_arr[k].copy(),
                        b=float(b_arr[k]), m=m_arr[k].copy(), t=float(ts[k]))
        return gains

    grid = _grid_params(cfg.grid_density)
    grid_gains = _consume(*grid)
    rand = _random_params(rng, cfg.restarts)
    rand_gains = _consume(*rand)

    # refinement seeds: best candidates across both pools (grid first),
    # strengths stretched; only the chosen rows are gathered
    top = _top_indices(np.concatenate([grid_gains, rand_gains]), _REFINE_TOP)
    ng = len(grid_gains)
    x0 = np.array([[p[i] for p in grid] if i < ng else [p[i - ng] for p in rand] for i in top])
    x0[:, [0, 3]] = _logit(x0[:, [0, 3]])

    def neg_gains(x):
        a, b = _sigmoid(x[:, [0, 3]]).T
        return -_consume(a, x[:, 1], x[:, 2], b, x[:, 4], x[:, 5])

    _quasi_newton(neg_gains, x0, cfg.local_steps)

    fa = LocalFilter(strength=best["a"], axis=best["n"], scale=1.0 / (1.0 + best["a"]))
    fb = LocalFilter(strength=best["b"], axis=best["m"], scale=1.0 / (1.0 + best["b"]))
    return Certificate(
        input_state=rho,
        config=cfg,
        concurrence_in=float(c_in),
        best_gain=float(best["gain"]),
        best_filter_a=fa,
        best_filter_b=fb,
        probability=float(best["t"]),
        evaluations=int(evaluations),
    )


def certificate_to_dict(cert: Certificate) -> dict:
    """JSON form: input state, config echo, best gain and parameters."""

    def _filter_dict(f: LocalFilter) -> dict:
        return {
            "strength": float(f.strength),
            "axis": [float(x) for x in f.axis],
            "scale": float(f.scale),
        }

    return {
        "input_state": density_matrix_to_dict(cert.input_state),
        "config": {
            "restarts": int(cert.config.restarts),
            "grid_density": int(cert.config.grid_density),
            "local_steps": int(cert.config.local_steps),
            "seed": int(cert.config.seed),
            "tolerance": float(cert.config.tolerance),
        },
        "concurrence_in": float(cert.concurrence_in),
        "best_gain": float(cert.best_gain),
        "best_params": {
            "filter_a": _filter_dict(cert.best_filter_a),
            "filter_b": _filter_dict(cert.best_filter_b),
            "probability": float(cert.probability),
        },
        "evaluations": int(cert.evaluations),
        "holds": bool(cert.holds),
    }


def scale_factor_bound_check(F: float, grid_density: int = 100) -> float:
    """Maximum of (1-a^2)(1-b^2) / [(1+a^2)(1+b^2) + (4/3)(1-4F) a b u]
    over a dense (a, b, u = n.m) grid; at most 1 for entangled Werner input.
    """
    row = scale_factor_grid(F, grid_density)
    return row.max_factor


@dataclass(frozen=True)
class ScaleFactorRow:
    """One sweep row: worst-case concurrence scale factor and the branch
    probability and its floor at the maximizing filter pair."""

    F: float
    max_factor: float
    t_worst_case: float
    floor: float


def scale_factor_grid(F: float, grid_density: int = 100) -> ScaleFactorRow:
    """Grid evaluation of the Werner scale factor with worst-case bookkeeping."""
    F = float(F)
    if not 0.5 < F <= 1.0:
        raise DomainError(f"Werner fidelity F={F} must lie in (1/2, 1]")
    if grid_density < 2:
        raise DomainError("grid_density must be at least 2")
    vals = np.linspace(0.0, 1.0, grid_density)
    u = np.linspace(-1.0, 1.0, grid_density)
    A, B, U = np.meshgrid(vals, vals, u, indexing="ij")
    num = (1.0 - A * A) * (1.0 - B * B)
    den = (1.0 + A * A) * (1.0 + B * B) + (4.0 / 3.0) * (1.0 - 4.0 * F) * A * B * U
    factor = np.where(den > 1e-15, num / np.where(den > 1e-15, den, 1.0), 0.0)
    k = int(np.argmax(factor))
    ai, bi, ui = np.unravel_index(k, factor.shape)
    a, b = float(vals[ai]), float(vals[bi])
    nu, mu = 1.0 / (1.0 + a), 1.0 / (1.0 + b)
    t_worst = (mu * nu) ** 2 * float(den[ai, bi, ui])
    floor = (mu * nu) ** 2 * ((1.0 + a * a) * (1.0 + b * b) - (4.0 / 3.0) * a * b)
    return ScaleFactorRow(F=F, max_factor=float(factor.ravel()[k]),
                          t_worst_case=t_worst, floor=floor)


@dataclass(frozen=True)
class FloorCheck:
    """Branch probability for a Werner input against its analytic floor."""

    t: float
    floor: float
    holds: bool


def probability_floor(F: float, fA: LocalFilter, fB: LocalFilter) -> FloorCheck:
    """Branch probability t(W(F)) and the floor it approaches as F -> 1/2.

    The floor mu^2 nu^2 [(1+a^2)(1+b^2) - (4/3) a b] bounds the limiting
    probability for every axis choice; with axes satisfying n.m <= 0 it
    bounds t pointwise for all F in (1/2, 1]. Never raises: callers check
    ``holds``.
    """
    t = closed_form_t(to_pauli(make_werner(F)), fA, fB)
    a, nu = fA.strength, fA.scale
    b, mu = fB.strength, fB.scale
    floor = (mu * nu) ** 2 * ((1.0 + a * a) * (1.0 + b * b) - (4.0 / 3.0) * a * b)
    return FloorCheck(t=float(t), floor=float(floor), holds=t >= floor - 1e-12)


def probability_floor_sequence(
    fA: LocalFilter, fB: LocalFilter, k_max: int = 20
) -> list[tuple[float, FloorCheck]]:
    """Floor checks along the sequence F = 1/2 + 2^-k, k = 1..k_max."""
    out = []
    for k in range(1, k_max + 1):
        F = 0.5 + 2.0 ** (-k)
        out.append((F, probability_floor(F, fA, fB)))
    return out


@dataclass(frozen=True, eq=False)
class ProcrusteanResult:
    """Single-copy pure-state purification outcome."""

    probability: float
    entanglement_in: float
    concurrence_out: float
    outcome: LoccOutcome
    bound_holds: bool


def procrustean_pure(psi: PureState) -> ProcrusteanResult:
    """Filter an entangled pure state into a maximally entangled one.

    One party applies the filter with eigenvalues (c2/c1, 1) across their
    Schmidt basis, equalizing the Schmidt coefficients c1 >= c2. Succeeds
    with probability 2 c2^2, which never exceeds the input entanglement of
    formation. Raises :class:`~qlocc.errors.NotEntangled` when the smaller
    Schmidt coefficient vanishes (product state).
    """
    amp = psi.amps.reshape(2, 2)
    w, s, _ = np.linalg.svd(amp)
    c1, c2 = float(s[0]), float(s[1])
    if c2 < 1e-12:
        raise NotEntangled(f"smaller Schmidt coefficient {c2:.3e} below 1e-12")
    damp = w @ np.diag([c2 / c1, 1.0]) @ w.conj().T
    op_a = decompose_local_op(damp)
    outcome = apply_local_pair(density_from_pure(psi), op_a, trivial_operation())
    e_in = entanglement_of_formation(density_from_pure(psi))
    c_out = concurrence(outcome.state)
    p = outcome.probability
    return ProcrusteanResult(
        probability=p,
        entanglement_in=e_in,
        concurrence_out=c_out,
        outcome=outcome,
        bound_holds=p <= e_in + 1e-12,
    )


def randomization_convexity_check(states, weights) -> bool:
    """True when mixing loses entanglement: E(sum w_i rho_i) <= sum w_i E(rho_i),
    within 1e-10 slack."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if len(states) != w.shape[0]:
        raise DomainError("need one weight per state")
    if not len(w) or not np.isfinite(w).all() or w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-12:
        raise DomainError(f"invalid probability vector {w.tolist()}")
    mixed = DensityMatrix(sum(wi * s.mat for wi, s in zip(w, states)))
    lhs = entanglement_of_formation(mixed)
    rhs = float(sum(wi * entanglement_of_formation(s) for wi, s in zip(w, states)))
    return lhs <= rhs + 1e-10


def werner_twirl(rho: DensityMatrix) -> DensityMatrix:
    """Randomize a state into the Werner family with the same singlet overlap."""
    return make_werner(min(1.0, max(0.0, fidelity(rho))))
