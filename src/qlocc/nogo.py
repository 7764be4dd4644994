"""Certification by adversarial search that single-copy filtering cannot
increase the entanglement of Werner or Bell-diagonal states.

The search maximizes the concurrence gain over both parties' filter
strengths and axes. The candidate rows, a coarse grid followed by uniform
random draws, are scored in one call of the batched kernel, whose workers
write them chunk by chunk (the random ones with the bits of one whole
draw) and keep only each chunk's best, so no table of them is held;
lockstep quasi-Newton refinements then start from the best rows, one start
per distinct filter pair among them. Each refinement
step is one call of the gradient kernel on the trial points of every
active start; it returns their gains with exact gradients in the Cartesian
filter vectors v = a n. Both kernels run one chunk body, so a filter pair
has the same gain bits in every stage, and both take tau's singular
values, and the gradient its singular vectors, from tau's columns wherever
a per-point test allows. The refinement moves
each party's point u in R^3, mapped onto the open unit ball by
v = u / sqrt(1 + |u|^2). The map is smooth and regular at u = 0, the
identity filter, next to which lie the optimal filters of states close to
their normal form, so gains just above the tolerance are found there too.
Unitary factors are omitted: the filtering transformation law is
manifestly unitary-independent, which the test suite checks separately.
Filter scales are pinned to their maxima 1/(1+a) and 1/(1+b); they cancel
between the transformed state and its normalization, another identity the
tests pin down.

Also here: the contrast operations that DO succeed on single copies of
pure states (Procrustean filtering), the probability floor that forbids
purification to a fixed goal state, and the convexity check showing that
randomizing outcomes never helps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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
    check_probability_vector,
    density_from_pure,
    density_matrix_to_dict,
    integer_in_range,
    make_werner,
    real_number,
    require_state,
    to_pauli,
)

_REFINE_TOP = 6
_U_RANGE = 8.0  # random draws of the stretched strength coordinate
# quasi-Newton refinement: trial step lengths along each direction, and the
# rounding-level improvement below which a start stops
_ALPHAS = 0.25 ** np.arange(5)
_IMPROVE_TOL = 1e-15
# The most points the grid's grid_density**6 (so grid_density <= 12) and the
# random draws' restarts may each hold, a usage limit: a search scores up to
# 6,985,984 points. It holds no table of them, so at that size a search of
# W(0.75) peaked at 50 MB resident, under a 2 GB `ulimit -v` (2-CPU Xeon VM).
MAX_STAGE_POINTS = 4_000_000
# the largest grid_density of scale_factor_grid: 200**3 points take about
# 0.5 GB at its peak, again within a 2 GB `ulimit -v`
MAX_SCALE_GRID_DENSITY = 200


@dataclass(frozen=True)
class SearchConfig:
    """Budgets, seed and tolerance of the gain search.

    ``restarts`` counts uniform random parameter draws; ``grid_density``
    sets the points per parameter of the coarse 6-dimensional grid;
    ``local_steps`` caps the iterations per quasi-Newton refinement. The
    three budgets must be positive integers (not bools), and neither
    ``restarts`` nor ``grid_density**6`` may exceed ``MAX_STAGE_POINTS``
    (4,000,000), checked before the search starts. All
    randomness flows from ``seed``, a non-negative integer (not a bool).
    ``tolerance`` must be a positive, finite real number (not a bool).
    The fields hold the checked values as a Python int and float.
    """

    restarts: int = 64
    grid_density: int = 4
    local_steps: int = 400
    seed: int = 0
    tolerance: float = 1e-7

    def __post_init__(self):
        for name, least in (("restarts", 1), ("grid_density", 1), ("local_steps", 1), ("seed", 0)):
            object.__setattr__(self, name, integer_in_range(name, getattr(self, name), least))
        for name, points in (("grid_density**6", self.grid_density**6),
                             ("restarts", self.restarts)):
            if points > MAX_STAGE_POINTS:
                raise DomainError(f"{name} = {points} exceeds the {MAX_STAGE_POINTS} points "
                                  "one search stage may hold")
        tolerance = real_number("tolerance", self.tolerance)
        if not 0.0 < tolerance < math.inf:
            raise DomainError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        object.__setattr__(self, "tolerance", tolerance)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Best concurrence gain found by an exhaustive seeded search.

    ``evaluations`` counts the filter pairs whose gain the search computed:
    the grid, the random draws and every refinement point, whose gain comes
    with its exact gradient at no extra evaluation. A refinement start at a
    stationary point (as a Werner state's identity filter) converges after
    one iteration.
    """

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


def _axes(z, phi, out):
    """Writes into ``out`` the unit vectors with z-component ``z`` and
    azimuth ``phi``, and returns it. The candidate rows' axes go straight
    into the rows the kernel's workers score, which keeps the search's
    memory down."""
    out[..., 2] = z
    r = np.sqrt(1.0 - z * z)
    np.multiply(r, np.cos(phi), out=out[..., 0])
    np.multiply(r, np.sin(phi), out=out[..., 1])
    return out


def _grid_params(g: int, lo: int, a, n, b, m):
    """Writes rows ``lo``, ``lo + 1``, ... of the coarse grid of g**6 filter
    pairs into (a, n, b, m), one row per entry of ``a``; the grid includes
    a = b = 0.

    Each party's g*g axes (g polar angles in [0, pi], g azimuths) are
    built as a table; the grid is every combination of strength and axis
    for both parties, duplicate filter pairs included, and a row's entries
    follow from its index alone.
    """
    a_vals = np.linspace(0.0, 0.96, g)
    z, phi = np.meshgrid(np.cos(np.linspace(0.0, math.pi, g)),
                         np.linspace(0.0, 2.0 * math.pi, g, endpoint=False), indexing="ij")
    axes = _axes(z, phi, np.empty((g, g, 3))).reshape(-1, 3)
    ia, jn, ib, jm = np.unravel_index(np.arange(lo, lo + len(a)), (g, g * g, g, g * g))
    np.take(a_vals, ia, out=a)
    np.take(axes, jn, axis=0, out=n)
    np.take(a_vals, ib, out=b)
    np.take(axes, jm, axis=0, out=m)


def _random_params(rng: np.random.Generator, a, n, b, m):
    """Writes uniform draws into the rows (a, n, b, m), one row per draw:
    logistic strengths of a uniform stretched coordinate in
    [-_U_RANGE, _U_RANGE], area-uniform axes.

    A row takes six uniforms, ``rng.random((len(a), 6))``, and each of
    them one 64-bit output of the generator. So a run of rows written from
    a PCG64 advanced by six outputs per earlier row has the bits of the
    same rows of one whole draw; the search draws its rows that way, one
    chunk of the batched kernel at a time.
    """
    u = rng.random((len(a), 6))
    a[:] = 1.0 / (1.0 + np.exp(-(2.0 * u[:, 0] - 1.0) * _U_RANGE))
    b[:] = 1.0 / (1.0 + np.exp(-(2.0 * u[:, 3] - 1.0) * _U_RANGE))
    _axes(1.0 - 2.0 * u[:, 1], 2.0 * math.pi * u[:, 2], n)
    _axes(1.0 - 2.0 * u[:, 4], 2.0 * math.pi * u[:, 5], m)


class _Refinement(NamedTuple):
    """Per-start outcome of :func:`_quasi_newton`."""

    x: np.ndarray  # (k, d) end points
    value: np.ndarray  # (k,) objective at the end points
    iterations: np.ndarray  # (k,)
    converged: np.ndarray  # (k,) stopped where no step could improve it by _IMPROVE_TOL

    @property
    def evaluations(self) -> np.ndarray:
        """(k,) points evaluated per start: its start, then the trial steps
        of each iteration."""
        return 1 + len(_ALPHAS) * self.iterations


def _quasi_newton(f, x0, max_iter):
    """Minimize from each row of ``x0`` by inverse BFGS (Nocedal and Wright,
    Numerical Optimization, Sec. 6.1), all starts in lockstep.

    ``f`` maps a (k, d) array of points to their k values and their (k, d)
    gradients. The first call evaluates every start. Each iteration then
    makes one call, on the ``_ALPHAS`` trial steps along every running
    start's direction -H g, and the gradient at each start's best improving
    trial comes back with it. A start whose trials all fail to improve it by
    more than ``_IMPROVE_TOL`` retries once along -g with H reset to the
    identity; failing again, it stops. It has converged when the shortest
    trial step's first-order decrease, ``_ALPHAS[-1]`` |g|^2, is at most
    ``_IMPROVE_TOL``: a stationary start (g = 0) converges after one
    iteration, while a start whose every step overshoots a steep slope stops
    unconverged. A start also stops (unconverged) after ``max_iter``
    iterations, or at a non-finite gradient. So a start uses at most
    1 + max_iter len(_ALPHAS) evaluations, and a call holds at most
    k len(_ALPHAS) points.

    The loop holds x, f, g, H and whether H is a fresh identity for the
    running starts only, with ``rows``, each one's row of the result. The
    starts move in lockstep, so all have made ``it`` iterations; a start's
    result is written once, in the iteration it stops.
    """
    k, d = x0.shape
    fx, g = f(x0)
    out = _Refinement(x0.copy(), fx, np.zeros(k, dtype=int), np.zeros(k, dtype=bool))
    rows = np.flatnonzero(np.isfinite(g).all(axis=1))
    x, fx, g = x0[rows], fx[rows], g[rows]
    hess_inv = np.repeat(np.eye(d)[None], rows.size, axis=0)
    fresh = np.ones(rows.size, dtype=bool)
    for it in range(1, max_iter + 1):
        if rows.size == 0:
            break
        p = -np.einsum("kij,kj->ki", hess_inv, g)
        trial = x[:, None] + _ALPHAS[:, None] * p[:, None]
        ft, gt = f(trial.reshape(-1, d))
        ft = ft.reshape(rows.size, -1)
        best = np.arange(rows.size), np.argmin(ft, axis=1)
        x_new, f_new, g_new = trial[best], ft[best], gt.reshape(trial.shape)[best]
        ok = f_new < fx - _IMPROVE_TOL
        stuck = ~ok & fresh
        stop = stuck | (ok & ~np.isfinite(g_new).all(axis=1)) | (it == max_iter)
        # stuck where even the shortest step along -g promised no more than
        # _IMPROVE_TOL to first order; else every step overshot
        converged = stuck & (_ALPHAS[-1] * np.einsum("ki,ki->k", g, g) <= _IMPROVE_TOL)
        upd = np.flatnonzero(ok & ~stop)
        s, y = x_new[upd] - x[upd], g_new[upd] - g[upd]
        x[ok], fx[ok], g[ok] = x_new[ok], f_new[ok], g_new[ok]
        hess_inv[~ok], fresh[~ok] = np.eye(d), True
        # update where the curvature condition holds; a fresh identity is
        # first scaled to s.y / y.y
        sy = np.einsum("ki,ki->k", s, y)
        curv = sy > 1e-12 * np.linalg.norm(s, axis=1) * np.linalg.norm(y, axis=1)
        upd, s, y, sy = upd[curv], s[curv], y[curv], sy[curv]
        scale = np.where(fresh[upd], sy / np.einsum("ki,ki->k", y, y), 1.0)
        h = hess_inv[upd] * scale[:, None, None]
        rho = 1.0 / sy
        v = np.eye(d) - rho[:, None, None] * s[:, :, None] * y[:, None, :]
        hess_inv[upd] = (v @ h @ np.swapaxes(v, 1, 2)
                         + rho[:, None, None] * s[:, :, None] * s[:, None, :])
        fresh[upd] = False
        if stop.any():
            ended, keep = rows[stop], ~stop
            out.x[ended], out.value[ended] = x[stop], fx[stop]
            out.iterations[ended], out.converged[ended] = it, converged[stop]
            rows, x, fx, g, hess_inv, fresh = (a[keep] for a in (rows, x, fx, g, hess_inv, fresh))
    return out


def _chart(x):
    """Each row of ``x`` holds both parties' chart points u, whose filter
    vector is v = s u with s = 1 / sqrt(1 + |u|^2). Returns the filter pairs
    (a, n, b, m), strength |v| and axis u / |u| (z at u = 0), and s."""
    u = x.reshape(-1, 2, 3)
    norm = np.sqrt((u * u).sum(axis=-1, keepdims=True))
    s = 1.0 / np.sqrt(1.0 + norm * norm)
    a = (norm * s)[..., 0]
    axes = np.where(norm > 0.0, u / np.where(norm > 0.0, norm, 1.0), [0.0, 0.0, 1.0])
    return (a[:, 0], axes[:, 0], a[:, 1], axes[:, 1]), s


def maximize_concurrence_gain(rho: DensityMatrix, cfg: SearchConfig) -> Certificate:
    """Search filter pairs for a concurrence increase; certify the maximum.

    One budget, all counted in ``evaluations``, covers the candidate rows
    and the refinements that start from the best of them. The rows are a
    coarse grid (``grid_density`` points per parameter, its
    ``grid_density**6`` rows first) and then ``restarts`` uniform random
    draws, and one :func:`~qlocc._kernels.filter_gain_batch` call scores
    them with no table of them held: each chunk's worker writes its rows
    (the ``fill`` hook), the grid's from their row index and the random
    ones with the bits of one ``default_rng(seed).random((restarts, 6))``
    draw, and keeps its ``_REFINE_TOP`` (6) best (``top``). The call
    returns the best rows of all, ranked by gain with ties to the lower
    row. The refinements start from them, one per distinct chart point,
    the first in gain order: the grid's strength-0 rows are one identity
    filter for every axis, so a Werner state's six best rows make one
    start. They run at most ``local_steps`` iterations each, in each
    party's chart point u with filter vector v = u / sqrt(1 + |u|^2):
    regular at the identity filter u = 0, and reaching strengths near 1 as
    |u| grows. The root of rho that the refinement's kernel calls share
    (:func:`~qlocc._kernels.gain_root`) is computed once per search, and
    the input concurrence comes from the state's one spectrum
    (``DensityMatrix.lambdas``). The objective is the directly computed
    concurrence of the filtered state minus the input concurrence; no
    transformation-law shortcut is used, so the certificate is independent
    of the law it corroborates. The best point is the first best row, or
    the refinements' best end point where that gain is larger.

    Deterministic: identical config (including seed) yields an identical
    certificate. Raises :class:`~qlocc.errors.NotAState` when the input
    fails :func:`~qlocc.states.validate`, and
    :class:`~qlocc.errors.NotEntangled` when it carries no concurrence to
    begin with.
    """
    c_in = concurrence(require_state(rho))
    if c_in <= 0.0:
        raise NotEntangled("input state has zero concurrence; nothing to gain or lose")
    grid_size = cfg.grid_density**6

    def rows(lo, *chunk):
        # the chunk's rows, written on its worker: its first k rows from the
        # grid, by row index, and the rest drawn from a generator in
        # default_rng(seed)'s start state moved past the draws before them
        # (a double takes one 64-bit output, a row six). The draws are
        # written first: with chunk 0's grid rows first, the other worker's
        # first draw waited on them, and on two workers bell-nogo's median
        # certificate read about 7% slower than with this order.
        k = min(max(grid_size - lo, 0), len(chunk[0]))
        if k < len(chunk[0]):
            bits = np.random.PCG64(cfg.seed)
            bits.advance(6 * (lo + k - grid_size))
            _random_params(np.random.Generator(bits), *(col[k:] for col in chunk))
        if k:
            _grid_params(cfg.grid_density, lo, *(col[:k] for col in chunk))

    # zero-stride stand-ins give the batch its length; the workers write
    # the rows, and only the best _REFINE_TOP come back
    size = grid_size + cfg.restarts
    a, n = np.broadcast_to(0.0, (size,)), np.broadcast_to(0.0, (size, 3))
    gains, t, top = _kernels.filter_gain_batch(rho.mat, c_in, a, n, a, n,
                                               fill=rows, top=_REFINE_TOP)

    # refinement seeds: the best rows, as chart points u = v / sqrt(1 - |v|^2)
    u0 = np.concatenate([s[:, None] * v / np.sqrt(1.0 - s**2)[:, None]
                         for s, v in (top[:2], top[2:])], axis=1)
    # one start per distinct chart point, its first row in gain order
    # (+ 0.0 makes -0.0 equal to 0.0)
    u0 = u0[np.sort(np.unique(u0 + 0.0, axis=0, return_index=True)[1])]
    # the refinement's root, prepared once: its calls pay no eigh or svd of rho
    root = _kernels.gain_root(rho.mat)

    def neg_gains(x):
        params, s = _chart(x)
        gains, _, grad = _kernels.filter_gain_gradient(root, c_in, *params)
        grad = grad.reshape(-1, 2, 3)
        v = x.reshape(-1, 2, 3) * s
        # pulled back through dv/du = s (1 - v v^T)
        return -gains, -(s * (grad - v * (v * grad).sum(axis=-1, keepdims=True))).reshape(-1, 6)

    refinement = _quasi_newton(neg_gains, u0, cfg.local_steps)
    # the end points' probabilities, from a repeat call left out of evaluations;
    # a point's bits do not depend on its batch, so its gains are -refinement.value
    end, _ = _chart(refinement.x)
    end_gains, end_t, _ = _kernels.filter_gain_gradient(root, c_in, *end)
    # the best point: the first best row, unless an end point beats it
    i, j = 0, int(np.argmax(end_gains))
    if end_gains[j] > gains[i]:
        top, t, gains, i = end, end_t, end_gains, j
    a, n, b, m = top
    return Certificate(
        input_state=rho,
        config=cfg,
        concurrence_in=float(c_in),
        best_gain=float(gains[i]),
        best_filter_a=LocalFilter(strength=a[i], axis=n[i], scale=1.0 / (1.0 + a[i])),
        best_filter_b=LocalFilter(strength=b[i], axis=m[i], scale=1.0 / (1.0 + b[i])),
        probability=float(t[i]),
        evaluations=size + int(refinement.evaluations.sum()),
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
        "config": asdict(cert.config),
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


@dataclass(frozen=True)
class ScaleFactorRow:
    """One sweep row: worst-case concurrence scale factor and the branch
    probability and its floor at the maximizing filter pair."""

    F: float
    max_factor: float
    t_worst_case: float
    floor: float


def _werner_floor(a, nu, b, mu):
    """The probability floor mu^2 nu^2 [(1+a^2)(1+b^2) - (4/3) a b] of the
    filters nu(1 + a n.sigma) and mu(1 + b m.sigma)."""
    return (mu * nu) ** 2 * ((1.0 + a * a) * (1.0 + b * b) - (4.0 / 3.0) * a * b)


def scale_factor_grid(F: float, grid_density: int = 100) -> ScaleFactorRow:
    """Grid evaluation of the Werner scale factor with worst-case bookkeeping.

    The grid holds grid_density**3 points; ``grid_density`` must be an
    integer (not a bool) in [2, ``MAX_SCALE_GRID_DENSITY``] (200), checked
    before it is built.
    """
    F = real_number("Werner fidelity F", F)
    if not 0.5 < F <= 1.0:
        raise DomainError(f"Werner fidelity F={F} must lie in (1/2, 1]")
    integer_in_range("grid_density", grid_density, 2, MAX_SCALE_GRID_DENSITY)
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
    return ScaleFactorRow(F=F, max_factor=float(factor.ravel()[k]),
                          t_worst_case=t_worst, floor=_werner_floor(a, nu, b, mu))


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
    floor = _werner_floor(fA.strength, fA.scale, fB.strength, fB.scale)
    return FloorCheck(t=float(t), floor=float(floor), holds=t >= floor - 1e-12)


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
    w = check_probability_vector(weights)
    if len(states) != w.shape[0]:
        raise DomainError("need one weight per state")
    mixed = DensityMatrix(sum(wi * s.mat for wi, s in zip(w, states)))
    lhs = entanglement_of_formation(mixed)
    rhs = float(sum(wi * entanglement_of_formation(s) for wi, s in zip(w, states)))
    return lhs <= rhs + 1e-10
