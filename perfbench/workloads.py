"""The four workloads: inputs made from a seed, one round of operations, checks.

A round is a workload's fixed list of operations. Every round of a run
repeats the same operations on the same inputs, so their outputs must repeat
exactly. The checks compare the outputs with ``reference`` (which never
imports qlocc) or with properties the method must have; every tolerance is
an error bound computed from the state and the operation at hand.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

from qlocc import cli, entanglement, locc, nogo, protocols, states

import reference as ref

EPS = ref.EPS

WERNER_F = (0.55, 0.65, 0.75, 0.85, 0.95)
ACCEPTANCE_BUDGET = {"grid_density": 4, "restarts": 96_000, "local_steps": 500}
MIN_EVALUATIONS = 100_000
BELL_BUDGET = {"grid_density": 3, "restarts": 19_000, "local_steps": 250}
N_BELL_DIAGONAL = 8
N_FULL_RANK = 4
# a full-rank state enters bell-nogo when it is clearly entangled and its
# normal-form optimum exceeds its concurrence by this much, far above the
# 1e-7 certificate tolerance
MIN_CONCURRENCE = 0.05
MIN_OPTIMUM_GAIN = 1e-3
N_PAIRS = 300
MP_EVERY = 5  # every fifth pair of state-analysis gets the 40-digit reference
# per-layer figures that come from checks rather than from tracing
CHECK_FIGURES = ("nogo.power_gap_max", "nogo.power_gap_median", "entanglement.conc_err_max")

# rounding bounds for fixed-size sums, each stated where it is used
FIDELITY_TOL = 4.0 * ref.C_PRODUCT * EPS  # <S|rho|S>: two routes of 16-term sums
PAULI_TOL = 64.0 * EPS  # tr(rho P): 16 terms of modulus <= 1 summing to <= 4, two routes
ROUNDTRIP_TOL = 192.0 * EPS  # 15 coefficients off by PAULI_TOL/2, 16-term sum, over 4
RECURRENCE_TOL = 768.0 * EPS  # traces of two 16x16 products of a state's tensor square


def certify(rho, cfg):
    # looked up at call time, so the traced run sees the call
    return nogo.maximize_concurrence_gain(rho, cfg)


def certificate_text(cert) -> str:
    return json.dumps(nogo.certificate_to_dict(cert), sort_keys=True)


def check_reported_pair(label, rho, cert, sp_in):
    """Recompute the certificate's best filter pair from scratch.

    Returns (problems, gain recomputed, bound on |true gain - best_gain|).
    """
    fa, fb = cert.best_filter_a, cert.best_filter_b
    out, t, d_state, d_t = ref.apply_pair(
        rho,
        ref.filter_2x2(fa.strength, fa.axis, fa.scale),
        ref.filter_2x2(fb.strength, fb.axis, fb.scale),
    )
    problems = []
    if abs(t - cert.probability) > d_t:
        problems.append(f"{label}: probability {cert.probability!r} vs recomputed {t!r}")
    sp_out = ref.Spectrum(out)
    gain = sp_out.concurrence - sp_in.concurrence
    tol = (sp_out.conc_tol_program + sp_out.conc_tol_ref + sp_out.conc_shift(d_state)
           + sp_in.conc_tol_program + sp_in.conc_tol_ref)
    if abs(gain - cert.best_gain) > tol:
        problems.append(f"{label}: best gain {cert.best_gain!r} vs recomputed {gain!r} (tol {tol:.2e})")
    return problems, gain, tol


def check_normal_form_zero(label, rho, sp):
    """Werner and Bell-diagonal marginals are already proportional to 1, so
    the normal-form optimum gain is 0."""
    opt, err = ref.normal_form_optimum(rho, sp.concurrence)
    if abs(opt - sp.concurrence) > err:
        return [f"{label}: normal-form optimum gain {opt - sp.concurrence!r} is not 0"]
    return []


class Workload:
    """Inputs, operations and checks of one workload.

    ``ops`` is the round's list of (label, callable). ``traced_ops`` is what
    the traced run times with and without the layer wrappers; it is ``ops``
    except for the CLI, whose commands are then run in process.
    """

    ops: list
    layer: dict

    @property
    def traced_ops(self):
        return self.ops

    def warm_up(self):
        pass

    def failed(self, output) -> bool:
        return isinstance(output, Exception)

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process that ran the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check(self, outputs) -> list[str]:
        raise NotImplementedError


class WernerNogo(Workload):
    """Werner certificates at the acceptance budget; the batch kernel dominates."""

    def __init__(self, seed: int, run_dir: str):
        self.inputs = [
            (f, states.make_werner(f),
             nogo.SearchConfig(seed=seed * len(WERNER_F) + i, **ACCEPTANCE_BUDGET))
            for i, f in enumerate(WERNER_F)
        ]
        self.ops = [(f"F={f}", partial(certify, rho, cfg)) for f, rho, cfg in self.inputs]
        self.layer = {}

    def warm_up(self):
        certify(self.inputs[0][1], nogo.SearchConfig(restarts=64, grid_density=2, local_steps=50))

    def digest(self, cert):
        return certificate_text(cert)

    def check(self, outputs):
        problems = []
        for (f, rho, cfg), cert in zip(self.inputs, outputs):
            if cert is None:
                continue
            label = f"werner F={f}"
            sp = ref.Spectrum(rho.mat)
            if not cert.holds:
                problems.append(f"{label}: certificate fails, gain {cert.best_gain!r}")
            if cert.evaluations < MIN_EVALUATIONS:
                problems.append(f"{label}: {cert.evaluations} evaluations < {MIN_EVALUATIONS}")
            if abs(cert.concurrence_in - (2.0 * f - 1.0)) > sp.conc_tol_program + 2.0 * EPS:
                problems.append(f"{label}: concurrence_in {cert.concurrence_in!r} != 2F-1")
            problems += check_reported_pair(label, rho.mat, cert, sp)[0]
            problems += check_normal_form_zero(label, rho.mat, sp)
        return problems


class BellNogo(Workload):
    """Bell-diagonal certificates plus full-rank states that do admit a gain,
    at the Bell budget; every refinement runs its full budget."""

    def __init__(self, seed: int, run_dir: str):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for i in range(N_BELL_DIAGONAL):
            p = _entangled_bell_probabilities(rng)
            self.inputs.append(("bell-diagonal", p, states.make_bell_diagonal(p)))
        while len(self.inputs) < N_BELL_DIAGONAL + N_FULL_RANK:
            m = _hilbert_schmidt_state(rng)
            sp = ref.Spectrum(m)
            if sp.concurrence < MIN_CONCURRENCE:
                continue
            opt, _ = ref.normal_form_optimum(m, sp.concurrence)
            if opt - sp.concurrence >= MIN_OPTIMUM_GAIN:
                self.inputs.append(("full-rank", None, states.DensityMatrix(m)))
        self.configs = [nogo.SearchConfig(seed=seed * 100 + i, **BELL_BUDGET)
                        for i in range(len(self.inputs))]
        self.ops = [(f"{kind} {i}", partial(certify, rho, cfg))
                    for i, ((kind, _, rho), cfg) in enumerate(zip(self.inputs, self.configs))]
        self.layer = {}

    def warm_up(self):
        certify(self.inputs[0][2], nogo.SearchConfig(restarts=64, grid_density=2, local_steps=50))

    def digest(self, cert):
        return certificate_text(cert)

    def check(self, outputs):
        problems, gaps = [], []
        for i, ((kind, p, rho), cert) in enumerate(zip(self.inputs, outputs)):
            if cert is None:
                continue
            label = f"{kind} state {i}"
            sp = ref.Spectrum(rho.mat)
            pair_problems, _, pair_tol = check_reported_pair(label, rho.mat, cert, sp)
            problems += pair_problems
            if kind == "bell-diagonal":
                if not cert.holds:
                    problems.append(f"{label}: certificate fails, gain {cert.best_gain!r}")
                expected = max(0.0, 2.0 * max(p) - 1.0)
                if abs(cert.concurrence_in - expected) > sp.conc_tol_program + 2.0 * EPS:
                    problems.append(f"{label}: concurrence_in {cert.concurrence_in!r} != {expected!r}")
                problems += check_normal_form_zero(label, rho.mat, sp)
                continue
            opt, nf_err = ref.normal_form_optimum(rho.mat, sp.concurrence)
            opt_gain = opt - sp.concurrence
            slack = pair_tol + nf_err + sp.conc_tol_ref * (1.0 + opt / sp.concurrence)
            if cert.holds or not cert.best_gain > 0.0:
                problems.append(f"{label}: search missed a gain of {opt_gain:.3e}")
            if cert.best_gain > opt_gain + slack:
                problems.append(f"{label}: gain {cert.best_gain!r} beats the optimum {opt_gain!r}")
            gaps.append(opt_gain - cert.best_gain)
        if gaps:
            self.layer = {"nogo.power_gap_max": max(gaps),
                          "nogo.power_gap_median": statistics.median(gaps)}
        return problems


class Analysis(NamedTuple):
    report_in: tuple
    outcome: object
    report_out: tuple
    t_closed_form: float
    c_predicted: float
    decomposed: tuple
    roundtrip: tuple
    collective: tuple


def measure_report(rho):
    """The quantities of ``qlocc measure``: fidelity, lambda spectrum,
    concurrence, entanglement of formation, invariant ratios, Pauli form."""
    return (
        states.fidelity(rho),
        entanglement.lambda_spectrum(rho).lambdas,
        entanglement.concurrence(rho),
        entanglement.entanglement_of_formation(rho),
        entanglement.invariant_ratios(rho).ratios,
        states.to_pauli(rho),
    )


def analyse(rho, op_a, op_b, f_recurrence):
    report_in = measure_report(rho)
    outcome = locc.apply_local_pair(rho, op_a, op_b)
    report_out = measure_report(outcome.state)
    return Analysis(
        report_in=report_in,
        outcome=outcome,
        report_out=report_out,
        t_closed_form=locc.closed_form_t(report_in[5], op_a.filter, op_b.filter),
        c_predicted=locc.predicted_concurrence(
            report_in[2], op_a.filter, op_b.filter, outcome.probability),
        decomposed=(locc.decompose_local_op(op_a.matrix), locc.decompose_local_op(op_b.matrix)),
        roundtrip=(states.from_pauli(report_in[5]), states.from_pauli(report_out[5])),
        collective=protocols.collective_step(f_recurrence),
    )


class StateAnalysis(Workload):
    """Single-state routes the search never touches, on random states and
    random filter pairs."""

    def __init__(self, seed: int, run_dir: str):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(N_PAIRS):
            rho = states.DensityMatrix(_hilbert_schmidt_state(rng))
            ops = []
            for _party in range(2):
                a = 0.98 * rng.random()
                nu = (0.05 + 0.95 * rng.random()) / (1.0 + a)
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                u = _haar_unitary(rng)
                ops.append((u, a, axis, nu))
            f = 0.51 + 0.48 * rng.random()
            self.inputs.append((rho, ops, f))
        self.ops = []
        for i, (rho, ops, f) in enumerate(self.inputs):
            op_a, op_b = (locc.LocalOperation(u, locc.LocalFilter(a, axis, nu)) for u, a, axis, nu in ops)
            self.ops.append((f"pair {i}", partial(analyse, rho, op_a, op_b, f)))
        self.layer = {}

    def warm_up(self):
        self.ops[0][1]()

    def digest(self, a):
        return _flat(a)

    def check(self, outputs):
        problems, mp_errors = [], []
        for i, ((rho, ops, f), a) in enumerate(zip(self.inputs, outputs)):
            if a is None:
                continue
            label = f"pair {i}"
            mats = [u @ ref.filter_2x2(s, axis, nu) for u, s, axis, nu in ops]
            out, t, d_state, d_t = ref.apply_pair(rho.mat, *mats)
            if abs(a.outcome.probability - t) > d_t:
                problems.append(f"{label}: probability {a.outcome.probability!r} vs {t!r}")
            if np.linalg.norm(a.outcome.state.mat - out, 2) > d_state:
                problems.append(f"{label}: filtered state differs from the reference")
            sp_in = ref.Spectrum(rho.mat)
            sp_out = ref.Spectrum(a.outcome.state.mat)
            for side, r, rep, sp in (("in", rho.mat, a.report_in, sp_in),
                                     ("out", a.outcome.state.mat, a.report_out, sp_out)):
                problems += _check_report(f"{label} {side}", r, rep, sp)
                if i % MP_EVERY == 0:
                    c_mp = ref.mp_concurrence(r)
                    mp_errors.append(abs(rep[2] - c_mp))
                    if abs(rep[2] - c_mp) > sp.conc_tol_program:
                        problems.append(f"{label} {side}: concurrence {rep[2]!r} vs 40-digit {c_mp!r}")
                    if abs(sp.concurrence - c_mp) > sp.conc_tol_ref:
                        problems.append(f"{label} {side}: reference concurrence off the 40-digit value")
            # the program's filtered state is a rounding of the exact one,
            # whose ratios equal those of rho
            shifted = sp_out.err_program + sp_out.lambda_shift(d_state)
            for j in range(3):
                tol = _ratio_tol(sp_in, j, sp_in.err_program) + _ratio_tol(sp_out, j, shifted)
                if abs(a.report_in[4][j] - a.report_out[4][j]) > tol:
                    problems.append(f"{label}: invariant ratio {j} changed under filtering")
            (_, a_a, _, nu_a), (_, a_b, _, nu_b) = ops
            scale = (nu_a * (1.0 + a_a) * nu_b * (1.0 + a_b)) ** 2
            if abs(a.t_closed_form - a.outcome.probability) > d_t + 64.0 * EPS * scale:
                problems.append(f"{label}: closed_form_t {a.t_closed_form!r} vs trace {a.outcome.probability!r}")
            factor = (nu_a * nu_b) ** 2 * (1 - a_a * a_a) * (1 - a_b * a_b) / t
            tol = (sp_out.conc_tol_program + sp_out.conc_shift(d_state)
                   + factor * sp_in.conc_tol_program + 8.0 * EPS * a.c_predicted)
            if abs(a.report_out[2] - a.c_predicted) > tol:
                problems.append(f"{label}: transformation law off by {abs(a.report_out[2] - a.c_predicted):.2e}")
            for (u, s, axis, nu), mat, dec in zip(ops, mats, a.decomposed):
                problems += _check_decomposition(label, u, s, axis, nu, mat, dec)
            for r, back in ((rho.mat, a.roundtrip[0]), (a.outcome.state.mat, a.roundtrip[1])):
                if np.abs(back.mat - r).max() > ROUNDTRIP_TOL:
                    problems.append(f"{label}: from_pauli(to_pauli(rho)) != rho")
            f_next, p = a.collective
            f_map, p_map = ref.recurrence_map(f)
            if abs(p - p_map) > RECURRENCE_TOL or abs(f_next - f_map) > (1.0 + f_map) * RECURRENCE_TOL / p_map:
                problems.append(f"{label}: collective_step({f!r}) = {a.collective} vs map ({f_map!r}, {p_map!r})")
            if not f_next > f:
                problems.append(f"{label}: collective_step did not raise F={f!r}")
        if mp_errors:
            self.layer = {"entanglement.conc_err_max": max(mp_errors)}
        return problems


def _check_report(label, r, rep, sp):
    fid, lams, c, eof, ratios, pauli = rep
    problems = []
    if abs(fid - ref.fidelity(r)) > FIDELITY_TOL:
        problems.append(f"{label}: fidelity {fid!r}")
    err = sp.err_program + sp.err_ref
    if np.any(np.abs(np.asarray(lams) - sp.lambdas) > err):
        problems.append(f"{label}: lambda spectrum {lams} vs {sp.lambdas.tolist()}")
    tol = sp.conc_tol_program + sp.conc_tol_ref
    if abs(c - sp.concurrence) > tol:
        problems.append(f"{label}: concurrence {c!r} vs {sp.concurrence!r} (tol {tol:.2e})")
    lo = ref.eof(sp.concurrence - tol) - 16.0 * EPS
    hi = ref.eof(sp.concurrence + tol) + 16.0 * EPS
    if not lo <= eof <= hi:
        problems.append(f"{label}: entanglement of formation {eof!r} outside [{lo!r}, {hi!r}]")
    for j in range(3):
        true = sp.lambdas[j + 1] / sp.lambdas[0]
        tol = _ratio_tol(sp, j, sp.err_program) + _ratio_tol(sp, j, np.full(4, sp.err_ref))
        if abs(ratios[j] - true) > tol:
            problems.append(f"{label}: invariant ratio {j} {ratios[j]!r} vs {true!r}")
    alpha, beta, corr = ref.pauli_coefficients(r)
    for name, got, want in (("alpha", pauli.alpha, alpha), ("beta", pauli.beta, beta), ("R", pauli.R, corr)):
        if np.abs(got - want).max() > PAULI_TOL:
            problems.append(f"{label}: Pauli {name} {got.tolist()} vs {want.tolist()}")
    return problems


def _ratio_tol(sp, j, e):
    """Bound on the error of lambda_{j+1} / lambda_1 when each lambda_i is
    off by at most e[i]."""
    lam = sp.lambdas
    if lam[0] <= e[0]:
        return math.inf
    return (e[j + 1] + lam[j + 1] / lam[0] * e[0]) / (lam[0] - e[0]) + 4.0 * EPS


def _check_decomposition(label, u, a, axis, nu, mat, dec):
    """decompose_local_op(U F) against the U and F it was built from.

    The operator is decomposed exactly up to a backward error E of at most
    (C_SOLVER + C_PRODUCT) eps s1, s1 = nu (1 + a) its larger singular value.
    That bounds the strength, scale and reconstruction errors; the axis, an
    eigenvector, also divides by the gap s1 - s2 = 2 nu a.
    """
    s1 = nu * (1.0 + a)
    d = (ref.C_SOLVER + ref.C_PRODUCT) * EPS
    f = dec.filter
    problems = []
    if abs(f.strength - a) > d * (1.0 + a) or abs(f.scale - nu) > d * s1:
        problems.append(f"{label}: decomposed filter ({f.strength!r}, {f.scale!r}) vs ({a!r}, {nu!r})")
    if a > 0.0 and np.linalg.norm(f.axis - axis) > 2.0 * d * (1.0 + a) / a:
        problems.append(f"{label}: decomposed axis {f.axis.tolist()} vs {axis.tolist()}")
    rebuilt = dec.unitary @ ref.filter_2x2(f.strength, f.axis, f.scale)
    if np.linalg.norm(rebuilt - mat, 2) > 4.0 * d * s1:
        problems.append(f"{label}: unitary * filter does not rebuild the operator")
    # the polar factor moves by at most 2 |E| / (s1 + s2)
    if np.linalg.norm(dec.unitary - u, 2) > 2.0 * d * (1.0 + a):
        problems.append(f"{label}: decomposed unitary differs from the one applied")
    return problems


class CliResult(NamedTuple):
    name: str
    code: int
    body: str | None  # the --out file, None when the command wrote none


class CliSession(Workload):
    """A fixed list of qlocc commands, each in a fresh interpreter, so every
    command pays ``import qlocc``."""

    def __init__(self, seed: int, run_dir: str):
        rng = np.random.default_rng(seed)
        self.run_dir = run_dir
        f_werner = 0.55 + 0.4 * rng.random()
        p_bell = _entangled_bell_probabilities(rng)
        state = _hilbert_schmidt_state(rng)
        f_nogo = 0.55 + 0.4 * rng.random()
        p_nogo = _entangled_bell_probabilities(rng)
        f_separable = 0.1 + 0.4 * rng.random()
        f_sweep = sorted(float(f) for f in 0.51 + 0.48 * rng.random(4))
        f0 = 0.55 + 0.15 * rng.random()
        target = 0.9 + 0.09 * rng.random()
        state_path = os.path.join(run_dir, "state.json")
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump({"matrix": [[[z.real, z.imag] for z in row] for row in state.tolist()]}, fh)

        def csv(xs):
            return ",".join(repr(x) for x in xs)

        # (name, arguments, documented exit code, check of the --out file)
        self.commands = [
            ("measure-werner", ["measure", "--werner", repr(f_werner)], 0,
             partial(_check_measure, ref.werner(f_werner), 2.0 * f_werner - 1.0)),
            ("measure-bell", ["measure", "--bell", csv(p_bell)], 0,
             partial(_check_measure, ref.bell_diagonal(p_bell), max(0.0, 2.0 * max(p_bell) - 1.0))),
            ("measure-state", ["measure", "--state", state_path], 0,
             partial(_check_measure, state, None)),
            ("sweep", ["sweep", "--f-list", csv(f_sweep)], 0, partial(_check_sweep, f_sweep)),
            ("collective", ["collective", "--f0", repr(f0), "--target", repr(target)], 0,
             partial(_check_collective, f0, target)),
            ("nogo-werner", ["nogo", "--werner", repr(f_nogo), "--seed", str(seed)], 0,
             partial(_check_nogo, ref.werner(f_nogo), 2.0 * f_nogo - 1.0)),
            ("nogo-bell", ["nogo", "--bell", csv(p_nogo), "--seed", str(seed)], 0,
             partial(_check_nogo, ref.bell_diagonal(p_nogo), 2.0 * max(p_nogo) - 1.0)),
            ("nogo-separable", ["nogo", "--werner", repr(f_separable), "--seed", str(seed)], 2,
             lambda body: [] if body is None else ["wrote a certificate for a separable state"]),
        ]
        self.expected_code = {name: code for name, _, code, _ in self.commands}
        self._child_peak_kb = 0
        self.ops = [(name, partial(self._in_child, name, argv)) for name, argv, _, _ in self.commands]
        self.layer = {}

    @property
    def traced_ops(self):
        return [(name, partial(self._in_process, name, argv)) for name, argv, _, _ in self.commands]

    def _fresh_out_path(self, name):
        path = os.path.join(self.run_dir, name + ".out")
        if os.path.exists(path):
            os.remove(path)
        return path

    def _result(self, name, code, path):
        try:
            with open(path, encoding="utf-8") as fh:
                return CliResult(name, code, fh.read())
        except FileNotFoundError:
            return CliResult(name, code, None)

    def _in_child(self, name, argv):
        path = self._fresh_out_path(name)
        log = os.path.join(self.run_dir, name + ".log")
        code, maxrss_kb = run_child([sys.executable, "-m", "qlocc.cli", *argv, "--out", path], log)
        self._child_peak_kb = max(self._child_peak_kb, maxrss_kb)
        return self._result(name, code, path)

    def _in_process(self, name, argv):
        path = self._fresh_out_path(name)
        return self._result(name, cli.main([*argv, "--out", path]), path)

    def peak_rss_kb(self):
        """Peak resident set of the largest command process."""
        return self._child_peak_kb

    def failed(self, output):
        """A command fails when it raises or exits with another code than
        the documented one."""
        return isinstance(output, Exception) or output.code != self.expected_code[output.name]

    def digest(self, result):
        body = result.body
        if body is not None and body.startswith("{"):
            doc = json.loads(body)
            doc.pop("manifest")
            body = json.dumps(doc, sort_keys=True)
        return result.name, result.code, body

    def check(self, outputs):
        problems = []
        for (name, _, _, check), out in zip(self.commands, outputs):
            if out is not None:
                problems += [f"{name}: {p}" for p in check(out.body)]
        return problems


def _check_measure(rho, expected, body):
    """The report's concurrence: the closed form when one is given, else the
    reference route."""
    c = json.loads(body)["report"]["concurrence"]
    sp = ref.Spectrum(rho)
    if expected is None:
        expected, tol = sp.concurrence, sp.conc_tol_program + sp.conc_tol_ref
    else:
        tol = sp.conc_tol_program + 2.0 * EPS
    return [] if abs(c - expected) <= tol else [f"concurrence {c!r} vs {expected!r}"]


def _check_sweep(fs, body):
    rows = [line.split(",") for line in body.splitlines()[1:]]
    problems = [] if [float(r[0]) for r in rows] == fs else ["rows do not match the fidelities"]
    for r in rows:
        # the factor is exactly 1 at a = b = 0 and below 1 elsewhere
        if abs(float(r[1]) - 1.0) > 4.0 * EPS:
            problems.append(f"max factor {r[1]} at F={r[0]} is not 1")
    return problems


def _check_collective(f0, target, body):
    rows = [line.split(",") for line in body.splitlines()[1:]]
    problems, f = [], f0
    for k, r in enumerate(rows):
        f_map, p_map = ref.recurrence_map(f)
        if int(r[0]) != k or float(r[1]) != f:
            problems.append(f"row {k} does not continue from F={f!r}")
        if (abs(float(r[2]) - f_map) > (1.0 + f_map) * RECURRENCE_TOL / p_map
                or abs(float(r[3]) - p_map) > RECURRENCE_TOL):
            problems.append(f"row {k} is off the recurrence map")
        f = float(r[2])
    if not rows or f < target:
        problems.append(f"stops at F={f!r} below the target {target!r}")
    return problems


def _check_nogo(rho, expected, body):
    cert = json.loads(body)["certificate"]
    problems = []
    if not (cert["holds"] and cert["best_gain"] <= cert["config"]["tolerance"]):
        problems.append(f"certificate fails, gain {cert['best_gain']!r}")
    if abs(cert["concurrence_in"] - expected) > ref.Spectrum(rho).conc_tol_program + 2.0 * EPS:
        problems.append(f"concurrence_in {cert['concurrence_in']!r} != {expected!r}")
    return problems


WORKLOADS = {
    "werner-nogo": WernerNogo,
    "bell-nogo": BellNogo,
    "state-analysis": StateAnalysis,
    "cli-session": CliSession,
}


def run_child(argv, log_path):
    """Run argv to completion with output to log_path.
    Returns (exit code, peak resident set of the child in KiB)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=log, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def child_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _entangled_bell_probabilities(rng):
    """Bell weights with one component above 1/2, in a seeded order."""
    top = 0.5 + 0.5 * rng.random()
    rest = rng.random(3)
    p = np.concatenate([[top], (1.0 - top) * rest / rest.sum()])
    rng.shuffle(p)
    return [float(x) for x in p]


def _hilbert_schmidt_state(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _haar_unitary(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _flat(x):
    """Every number in a nest of tuples, arrays and dataclasses, in order."""
    if isinstance(x, (bool, int, float, np.floating)):
        return (float(x),)
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=complex).ravel()
        return tuple(np.concatenate([x.real, x.imag]).tolist())
    if isinstance(x, (tuple, list)):
        return tuple(v for item in x for v in _flat(item))
    return _flat(tuple(vars(x).values()))


