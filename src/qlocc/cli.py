"""Command-line front end.

Subcommands: ``measure`` (entanglement quantities of a state), ``nogo``
(gain-search certificate), ``sweep`` (scale-factor and probability-floor
grid as CSV), ``collective`` (two-copy recurrence trace as CSV).

Exit codes: 0 success / certificate holds, 1 usage error, 2 numerical
validation failure (among them ``NotAttained``: a filtering normal form
that no finite filter pair reaches), 3 certificate violation (a bug
sentinel, not physics).
Every output embeds or accompanies a manifest (command, parameter echo,
seed, version, kernel backend, numpy version, LAPACK name and version,
timestamp). Rerunning its command on the same numpy version and LAPACK
build reproduces the output apart from the timestamp (the state root and
single-state spectra go through LAPACK).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

import numpy as np

import qlocc
from qlocc import nogo, protocols
from qlocc.entanglement import (
    concurrence,
    entanglement_of_formation,
    invariant_ratios,
    lambda_spectrum,
)
from qlocc.errors import DomainError, QloccError
from qlocc.states import (
    density_matrix_from_dict,
    fidelity,
    make_bell_diagonal,
    make_werner,
    pauli_rep_to_dict,
    to_pauli,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the documented 1
    def error(self, message):
        raise _UsageError(message)


def _lapack() -> dict:
    """Name and version of the LAPACK numpy was built against."""
    try:
        dep = np.__config__.CONFIG["Build Dependencies"]["lapack"]
        return {"name": dep["name"], "version": dep["version"]}
    except (AttributeError, KeyError):  # pragma: no cover - numpy before 1.26
        return {"name": "unknown", "version": "unknown"}


def _manifest(command: str, params: dict, seed=None) -> dict:
    return {
        "command": command,
        "parameters": params,
        "seed": seed,
        "version": qlocc.__version__,
        "backend": qlocc.BACKEND,
        "numpy": np.__version__,
        "lapack": _lapack(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _add_state_flags(p: _Parser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--werner", type=float, metavar="F", help="Werner state with fidelity F")
    g.add_argument("--bell", metavar="P1,P2,P3,P4",
                   help="Bell-diagonal state with the given probabilities (singlet first)")
    g.add_argument("--state", metavar="PATH", help="density matrix from a JSON file")


def _state_from_args(args):
    if args.werner is not None:
        return make_werner(args.werner), {"werner": args.werner}
    if args.bell is not None:
        try:
            p = [float(x) for x in args.bell.split(",")]
        except ValueError as exc:
            raise _UsageError(f"--bell expects four comma-separated numbers: {exc}") from exc
        return make_bell_diagonal(p), {"bell": p}
    with open(args.state, encoding="utf-8") as fh:
        doc = json.load(fh)
    return density_matrix_from_dict(doc), {"state": args.state}


def _emit_json(doc: dict, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(text: str, manifest: dict, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)
        sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")


def cmd_measure(args) -> int:
    rho, echo = _state_from_args(args)
    spec = lambda_spectrum(rho)
    report = {
        "fidelity": fidelity(rho),
        "lambda_spectrum": [float(x) for x in spec.lambdas],
        "concurrence": concurrence(rho),
        "entanglement_of_formation": entanglement_of_formation(rho),
        "invariant_ratios": [float(x) for x in invariant_ratios(rho).ratios],
        "pauli": pauli_rep_to_dict(to_pauli(rho)),
    }
    _emit_json({"manifest": _manifest("measure", echo), "report": report}, args.out)
    return EXIT_OK


def cmd_nogo(args) -> int:
    rho, echo = _state_from_args(args)
    cfg = nogo.SearchConfig(
        restarts=args.restarts,
        grid_density=args.grid_density,
        local_steps=args.local_steps,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    cert = nogo.maximize_concurrence_gain(rho, cfg)
    doc = {
        "manifest": _manifest("nogo", {**echo, "restarts": args.restarts,
                                       "grid_density": args.grid_density,
                                       "local_steps": args.local_steps,
                                       "tolerance": args.tolerance}, seed=args.seed),
        "certificate": nogo.certificate_to_dict(cert),
    }
    _emit_json(doc, args.out)
    return EXIT_OK if cert.holds else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    if args.f_list:
        try:
            fs = [float(x) for x in args.f_list.split(",")]
        except ValueError as exc:
            raise _UsageError(f"--f-list expects comma-separated numbers: {exc}") from exc
    else:
        for flag, value in (("f-min", args.f_min), ("f-max", args.f_max), ("f-step", args.f_step)):
            if not math.isfinite(value):
                raise DomainError(f"--{flag} must be finite, got {value!r}")
        if args.f_step <= 0 or args.f_max < args.f_min:
            raise DomainError("empty sweep grid: need f-step > 0 and f-max >= f-min")
        count = int(round((args.f_max - args.f_min) / args.f_step)) + 1
        fs = [args.f_min + i * args.f_step for i in range(count)]
    if not fs:
        raise DomainError("empty sweep grid")
    lines = ["F,max_scale_factor,t_worst_case,floor"]
    for f in fs:
        row = nogo.scale_factor_grid(f, args.grid_density)
        lines.append(f"{row.F!r},{row.max_factor!r},{row.t_worst_case!r},{row.floor!r}")
    manifest = _manifest("sweep", {"F": fs, "grid_density": args.grid_density})
    _emit_csv("\n".join(lines) + "\n", manifest, args.out)
    return EXIT_OK


def cmd_collective(args) -> int:
    trace = protocols.iterate_to_target(args.f0, args.target, args.max_steps)
    manifest = _manifest("collective", {"f0": args.f0, "target": args.target,
                                        "max_steps": args.max_steps})
    _emit_csv(protocols.trace_to_csv(trace), manifest, args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="qlocc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="fidelity, spectrum, concurrence, Pauli form")
    _add_state_flags(p)
    p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("nogo", help="search for a concurrence gain; write a certificate")
    _add_state_flags(p)
    p.add_argument("--restarts", type=int, default=64, help="random parameter draws")
    p.add_argument("--grid-density", type=int, default=4, help="grid points per parameter")
    p.add_argument("--local-steps", type=int, default=400,
                   help="iteration cap per quasi-Newton refinement")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.add_argument("--tolerance", type=float, default=1e-7,
                   help="largest gain still counted as zero")
    p.add_argument("--out", metavar="PATH", help="write certificate JSON here")
    p.set_defaults(func=cmd_nogo)

    p = sub.add_parser("sweep", help="Werner scale-factor bound and probability floor as CSV")
    p.add_argument("--f-min", type=float, default=0.55)
    p.add_argument("--f-max", type=float, default=0.95)
    p.add_argument("--f-step", type=float, default=0.1)
    p.add_argument("--f-list", metavar="F1,F2,...",
                   help="explicit fidelities; overrides the min/max/step grid")
    p.add_argument("--grid-density", type=int, default=64,
                   help="points per parameter of the (a, b, n.m) grid")
    p.add_argument("--out", metavar="PATH", help="write CSV here (manifest as sidecar)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("collective", help="two-copy recurrence trace as CSV")
    p.add_argument("--f0", type=float, required=True, help="start fidelity in (1/2, 1)")
    p.add_argument("--target", type=float, required=True, help="target fidelity in (1/2, 1)")
    p.add_argument("--max-steps", type=int, default=64)
    p.add_argument("--out", metavar="PATH", help="write CSV here (manifest as sidecar)")
    p.set_defaults(func=cmd_collective)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, FileNotFoundError, json.JSONDecodeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QloccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
