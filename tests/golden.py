"""Golden outputs: certificate and single-state bodies whose bits are kept
in ``golden.json``.

The file holds the bodies of four searches and of five single-state
computations (four ``qlocc measure`` reports and one recurrence step),
together with the environment that produced them
(:func:`qlocc.cli.environment`, the record every manifest holds): the
numpy version, the LAPACK build, OpenBLAS's core type and numpy's SIMD
dispatch targets. ``test_golden`` recomputes each body. Where the
whole environment matches the recorded one it compares them bit for bit;
elsewhere it compares the numbers within the bounds below. A change that moves their bits regenerates
the file, so the diff shows which fields moved and by how much:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from qlocc import cli, locc, nogo, protocols, states

from conftest import random_density_matrix, random_op
from test_acceptance import BELL_CONFIG
from test_nogo import SMALL, WERNER_EPSILONS, _perturbed, _power_states

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


class Golden(NamedTuple):
    """One golden search: how to run it, and how far its best gain may move
    in another environment."""

    input: str
    certify: Callable[[], dict]
    gain_bound: float


def _cli_certificate(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return json.loads(out.getvalue())["certificate"]


def _search(rho, cfg) -> dict:
    return nogo.certificate_to_dict(nogo.maximize_concurrence_gain(rho, cfg))


def tolerance_scale_state() -> states.DensityMatrix:
    """W(0.8) + 3e-4 H, with H the first of the four draws at that epsilon
    in ``test_nogo._perturbed(make_werner(0.8), 42, WERNER_EPSILONS)``.
    The normal-form optimum gain is 1.10e-7."""
    return _perturbed(states.make_werner(0.8), 42, WERNER_EPSILONS)[20][1]


# Werner and Bell-diagonal states gain nothing, so their best gains are
# rounding noise around 0; the full-rank state's is held to 1e-9 of its
# optimum by the power test, and the tolerance-scale state's (optimum 1.10e-7)
# by the tolerance-scale power test, so its verdict is compared too.
GOLDEN = {
    "werner-0.8-cli": Golden(
        "qlocc nogo --werner 0.8 --seed 7 (CLI defaults)",
        lambda: _cli_certificate(["nogo", "--werner", "0.8", "--seed", "7"]),
        1e-12,
    ),
    "bell-diagonal": Golden(
        "Bell-diagonal [0.7, 0.1, 0.15, 0.05] at test_nogo.SMALL",
        lambda: _search(states.make_bell_diagonal([0.7, 0.1, 0.15, 0.05]), SMALL),
        1e-12,
    ),
    "full-rank-gain": Golden(
        "first state of test_nogo._power_states(7, 1) at test_nogo.SMALL",
        lambda: _search(_power_states(7, 1)[0][0], SMALL),
        1e-9,
    ),
    "tolerance-scale": Golden(
        "W(0.8) + 3e-4 H (golden.tolerance_scale_state) at the Bell budget, seed 0",
        lambda: _search(tolerance_scale_state(), nogo.SearchConfig(seed=0, **BELL_CONFIG)),
        1e-9,
    ),
}


class Report(NamedTuple):
    """One golden single-state computation and how to run it."""

    input: str
    compute: Callable[[], dict]


def _cli_report(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return json.loads(out.getvalue())["report"]


def _state_report(rho) -> dict:
    """The ``qlocc measure --state`` report of rho; the JSON file keeps
    every bit of its matrix."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(states.density_matrix_to_dict(rho), fh)
        return _cli_report(["measure", "--state", path])


def random_state_and_image():
    """A Hilbert-Schmidt state from ``default_rng(5)`` and its image under a
    random operator pair drawn next from the same generator."""
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng)
    return rho, locc.apply_local_pair(rho, random_op(rng), random_op(rng)).state


def _collective_step(F) -> dict:
    f_prime, p_succ = protocols.collective_step(F)
    return {"fidelity_out": f_prime, "p_succ": p_succ}


REPORTS = {
    "werner-0.8-measure": Report(
        "qlocc measure --werner 0.8", lambda: _cli_report(["measure", "--werner", "0.8"])),
    "bell-diagonal-measure": Report(
        "qlocc measure --bell 0.7,0.1,0.15,0.05",
        lambda: _cli_report(["measure", "--bell", "0.7,0.1,0.15,0.05"])),
    "random-full-rank-measure": Report(
        "qlocc measure --state on golden.random_state_and_image()[0]",
        lambda: _state_report(random_state_and_image()[0])),
    "random-filtered-measure": Report(
        "qlocc measure --state on golden.random_state_and_image()[1]",
        lambda: _state_report(random_state_and_image()[1])),
    "collective-step-0.7": Report(
        "protocols.collective_step(0.7)", lambda: _collective_step(0.7)),
}


def entry(name: str) -> dict:
    g = GOLDEN[name]
    return {"input": g.input, "body": g.certify()}


def report_entry(name: str) -> dict:
    r = REPORTS[name]
    return {"input": r.input, "body": r.compute()}


def render(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main():
    doc = {**cli.environment(), "certificates": {name: entry(name) for name in GOLDEN},
           "reports": {name: report_entry(name) for name in REPORTS}}
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write(render(doc))
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
