"""Command-line front end.

Subcommands: ``measure`` (entanglement quantities of a state), ``nogo``
(gain-search certificate), ``sweep`` (scale-factor and probability-floor
grid as CSV), ``collective`` (two-copy recurrence trace as CSV).

Exit codes: 0 success / certificate holds, 1 usage error, 2 numerical
validation failure (among them ``NotAttained``: a filtering normal form
that no finite filter pair reaches), 3 certificate violation (a bug
sentinel, not physics).
Every output embeds or accompanies a manifest (command, parameter echo,
seed, version, kernel backend, the record of :func:`environment`: numpy
version, LAPACK name and version, OpenBLAS core type, numpy's enabled SIMD
dispatch targets; and a timestamp).
Rerunning its command where the numpy version, the LAPACK build, the core
type and the dispatch targets all match reproduces the output apart from
the timestamp. OpenBLAS picks its BLAS kernels per CPU and they set the
last bits of ``eigh``, ``svd`` and matmul, which the state root, the
spectra and the gain kernels go through; the dispatch targets set the bits
of ``np.exp`` in the search's random draws. Elsewhere a rerun agrees within
rounding.
"""

from __future__ import annotations

import argparse
import ctypes  # loaded by numpy already, so it adds nothing to the start
import dataclasses
import datetime
import json
import math
import os
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
# the most fidelities one `qlocc sweep` grid may hold
MAX_SWEEP_FIDELITIES = 10_000


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


def _blas_core() -> str:
    """The CPU core type whose kernels OpenBLAS chose when it loaded.

    OpenBLAS picks its kernels per CPU (``OPENBLAS_CORETYPE`` overrides
    the choice), and they set the last bits of ``eigh``, ``svd`` and matmul.
    Read from the OpenBLAS that numpy's wheel bundles in ``numpy.libs``;
    "unknown" for any other build.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = next(f for f in sorted(os.listdir(libs)) if "openblas" in f)
        corename = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_get_corename64_
    except (OSError, StopIteration, AttributeError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _cpu_dispatch() -> list:
    """numpy's SIMD dispatch targets enabled on this CPU; they set the bits
    of ``np.exp`` among others (``NPY_DISABLE_CPU_FEATURES`` turns targets
    off). ["unknown"] where numpy does not list them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # pragma: no cover - numpy before 2.0
        return ["unknown"]
    return [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]


def environment() -> dict:
    """What sets the bits of an output: the numpy version, the LAPACK
    build, the kernels OpenBLAS chose for this CPU and numpy's enabled SIMD
    dispatch targets. Every manifest records it, and the golden byte check
    compares bytes only where it matches the recorded one."""
    return {"numpy": np.__version__, "lapack": _lapack(), "blas_core": _blas_core(),
            "cpu_dispatch": _cpu_dispatch()}


def _manifest(command: str, params: dict, seed=None) -> dict:
    return {
        "command": command,
        "parameters": params,
        "seed": seed,
        "version": qlocc.__version__,
        "backend": qlocc.BACKEND,
        **environment(),
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
    try:
        with open(args.state, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read --state file {args.state!r}: {exc}") from exc
    return density_matrix_from_dict(json.loads(text)), {"state": args.state}


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc}") from exc


def _emit_json(doc: dict, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def _emit_csv(text: str, manifest: dict, out_path):
    if out_path:
        _write(out_path, text)
        _write(out_path + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
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
    # the flags' dests are the SearchConfig field names
    cfg = nogo.SearchConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(nogo.SearchConfig)})
    cert = nogo.maximize_concurrence_gain(rho, cfg)
    body = nogo.certificate_to_dict(cert)
    # the manifest echoes the certificate's config, with the seed under its own key
    params = dict(body["config"])
    seed = params.pop("seed")
    _emit_json({"manifest": _manifest("nogo", {**echo, **params}, seed=seed),
                "certificate": body}, args.out)
    return EXIT_OK if cert.holds else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    if args.f_list is not None:
        try:
            fs = [float(x) for x in args.f_list.split(",")]
        except ValueError as exc:
            raise _UsageError(f"--f-list expects comma-separated numbers: {exc}") from exc
        if len(fs) > MAX_SWEEP_FIDELITIES:
            raise DomainError(f"--f-list holds {len(fs)} fidelities, more than the "
                              f"{MAX_SWEEP_FIDELITIES} one sweep may hold")
    else:
        for flag, value in (("f-min", args.f_min), ("f-max", args.f_max), ("f-step", args.f_step)):
            if not math.isfinite(value):
                raise DomainError(f"--{flag} must be finite, got {value!r}")
        if args.f_step <= 0 or args.f_max < args.f_min:
            raise DomainError("empty sweep grid: need f-step > 0 and f-max >= f-min")
        # the grid holds round(steps) + 1 fidelities; steps may overflow to inf
        steps = (args.f_max - args.f_min) / args.f_step
        if steps >= MAX_SWEEP_FIDELITIES - 0.5:
            raise DomainError(f"the sweep grid would hold more than {MAX_SWEEP_FIDELITIES} "
                              "fidelities; raise --f-step")
        count = int(round(steps)) + 1
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
    defaults = nogo.SearchConfig()
    p.add_argument("--restarts", type=int, default=defaults.restarts,
                   help=f"random parameter draws, at most {nogo.MAX_STAGE_POINTS}")
    p.add_argument("--grid-density", type=int, default=defaults.grid_density,
                   help="grid points per parameter; the grid's grid_density**6 points "
                        f"may not exceed {nogo.MAX_STAGE_POINTS}")
    p.add_argument("--local-steps", type=int, default=defaults.local_steps,
                   help="iteration cap per quasi-Newton refinement")
    p.add_argument("--seed", type=int, default=defaults.seed, help="seed for all randomness")
    p.add_argument("--tolerance", type=float, default=defaults.tolerance,
                   help="largest gain still counted as zero")
    p.add_argument("--out", metavar="PATH", help="write certificate JSON here")
    p.set_defaults(func=cmd_nogo)

    p = sub.add_parser("sweep", help="Werner scale-factor bound and probability floor as CSV")
    p.add_argument("--f-min", type=float, default=0.55)
    p.add_argument("--f-max", type=float, default=0.95)
    p.add_argument("--f-step", type=float, default=0.1,
                   help=f"grid step; the grid may hold at most {MAX_SWEEP_FIDELITIES} fidelities")
    p.add_argument("--f-list", metavar="F1,F2,...",
                   help="explicit fidelities; overrides the min/max/step grid")
    p.add_argument("--grid-density", type=int, default=nogo.SCALE_GRID_DENSITY,
                   help="points per parameter of the (a, b, n.m) grid, "
                        f"at most {nogo.MAX_SCALE_GRID_DENSITY}")
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
    except (_UsageError, json.JSONDecodeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QloccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
