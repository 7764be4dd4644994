"""Golden certificates: certificate bodies whose bits are kept in ``golden.json``.

The file holds the bodies of four searches, together with the numpy version
and the LAPACK build that produced them. ``test_golden`` recomputes each
body. Where numpy and LAPACK match the recorded ones it compares them bit
for bit; elsewhere it compares the numbers within the bounds below. A change
that moves certificate bits regenerates the file, so the diff shows which
fields moved and by how much:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Callable, NamedTuple

import numpy as np

from qlocc import cli, nogo, states

from test_acceptance import BELL_CONFIG
from test_nogo import SMALL, _power_states

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


class Golden(NamedTuple):
    """One golden search: how to run it, and how far its best gain may move
    under another numpy or LAPACK build."""

    input: str
    certify: Callable[[], dict]
    gain_bound: float
    note: str | None = None


def _cli_certificate(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return json.loads(out.getvalue())["certificate"]


def _search(rho, cfg) -> dict:
    return nogo.certificate_to_dict(nogo.maximize_concurrence_gain(rho, cfg))


def tolerance_scale_state() -> states.DensityMatrix:
    """W(0.8) + 3e-4 H, with H the first of the four draws at that epsilon.

    ``default_rng(42)`` draws four H for each epsilon in 1e-1, 3e-2, 1e-2,
    3e-3, 1e-3, 3e-4 and 1e-4, in that order. Each H is (G + G+)/2 for a
    complex standard-normal G, with its trace removed and scaled to unit
    Frobenius norm. The normal-form optimum gain is 1.10e-7.
    """
    rng = np.random.default_rng(42)
    for _ in range(21):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    h -= np.trace(h).real / 4 * np.eye(4)
    h /= np.linalg.norm(h)
    return states.DensityMatrix(states.make_werner(0.8).mat + 3e-4 * h)


# Werner and Bell-diagonal states gain nothing, so their best gains are
# rounding noise around 0; the full-rank state's is held to 1e-9 of its
# optimum by the power test; the tolerance-scale search may stop anywhere
# between 0 and its optimum of 1.1e-7.
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
        2e-7,
        "Records bits, not a correct verdict: the optimum gain 1.10e-7 is above "
        "the tolerance, so holds: true here is a false certificate. The fix for "
        "false certificates at the tolerance (ROADMAP item 1) regenerates this entry.",
    ),
}


def environment() -> dict:
    """The numpy version and LAPACK build that certificate bits depend on."""
    return {"numpy": np.__version__, "lapack": cli._lapack()}


def entry(name: str) -> dict:
    g = GOLDEN[name]
    doc = {"input": g.input, "body": g.certify()}
    if g.note:
        doc["note"] = g.note
    return doc


def render(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main():
    doc = {**environment(), "certificates": {name: entry(name) for name in GOLDEN}}
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write(render(doc))
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
