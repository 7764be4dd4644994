"""Layer tracing for the traced run, from outside the program.

``Tracer`` rebinds public functions of qlocc's modules to wrappers that
record, per layer boundary, the calls, their total time and a work count
where one exists. It keeps aggregates in memory only.

Also here: the import profile from ``python -X importtime`` and the kernel
micro-benchmark of ``benchmarks/bench_kernels.py`` (same inputs and method),
run on the backend ``import qlocc`` selected.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# (module, function, span name, work count from (args, result) or None)
BOUNDARIES = [
    ("qlocc._kernels", "filter_gain_batch", "kernels.batch", lambda args, res: len(args[2])),
    ("qlocc._kernels", "filter_gain_single", "kernels.single", None),
    ("qlocc._kernels", "concurrence4", "kernels.concurrence4", None),
    ("qlocc.nogo", "maximize_concurrence_gain", "nogo.search", lambda args, res: res.evaluations),
    ("qlocc.linalg", "eig_general", "linalg.eig_general", None),
    ("qlocc.entanglement", "lambda_spectrum", "entanglement.lambda_spectrum", None),
    ("qlocc.entanglement", "concurrence", "entanglement.concurrence", None),
    ("qlocc.states", "to_pauli", "states.to_pauli", None),
    ("qlocc.locc", "apply_local_pair", "locc.apply_local_pair", None),
    ("qlocc.protocols", "collective_step", "protocols.collective_step", None),
    ("qlocc.cli", "main", "cli.main", None),
]


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    work: int = 0

    def per_call_us(self) -> float:
        return self.total / self.calls * 1e6 if self.calls else 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._originals = []
        for mod_name, fn_name, span, count in BOUNDARIES:
            module = importlib.import_module(mod_name)
            self.stats[span] = SpanStats()
            orig = getattr(module, fn_name)
            self._originals.append((module, fn_name, orig, self._wrap(orig, span, count)))

    def _wrap(self, fn, span, count):
        stats = self.stats[span]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            stats.total += time.perf_counter() - t0
            stats.calls += 1
            if count is not None:
                stats.work += count(args, result)
            return result

        return wrapper

    def install(self):
        for module, name, _, wrapper in self._originals:
            setattr(module, name, wrapper)

    def remove(self):
        for module, name, orig, _ in self._originals:
            setattr(module, name, orig)


def layer_metrics(stats: dict[str, SpanStats], rounds: int) -> dict[str, float]:
    """Per-layer figures; totals are per traced round, times per call.
    A layer the workload never calls reads 0. Only the search calls the
    kernels, so its self time is its total minus theirs."""
    batch, single, search = stats["kernels.batch"], stats["kernels.single"], stats["nogo.search"]
    kernel_in_search = batch.total + single.total + stats["kernels.concurrence4"].total
    per_search = 1.0 / search.calls if search.calls else 0.0
    return {
        "kernels.batch_s": batch.total / rounds,
        "kernels.batch_points": batch.work / rounds,
        "kernels.batch_us_per_point": batch.total / batch.work * 1e6 if batch.work else 0.0,
        "kernels.single_s": single.total / rounds,
        "kernels.single_calls": single.calls / rounds,
        "kernels.single_us_per_call": single.per_call_us(),
        "nogo.search_s": search.total * per_search,
        "nogo.evaluations": search.work * per_search,
        "nogo.self_s": (search.total - kernel_in_search) * per_search,
        "linalg.eig_general_us": stats["linalg.eig_general"].per_call_us(),
        "entanglement.lambda_spectrum_us": stats["entanglement.lambda_spectrum"].per_call_us(),
        "entanglement.concurrence_us": stats["entanglement.concurrence"].per_call_us(),
        "states.to_pauli_us": stats["states.to_pauli"].per_call_us(),
        "locc.apply_local_pair_us": stats["locc.apply_local_pair"].per_call_us(),
        "protocols.collective_step_us": stats["protocols.collective_step"].per_call_us(),
        "cli.main_s": stats["cli.main"].per_call_us() / 1e6,
    }


def import_profile(env, repeats: int = 3) -> dict[str, float]:
    """Median cumulative import time of qlocc, and of the scipy modules it
    imports (all of them come in through ``from scipy import optimize``)."""
    qlocc_s, scipy_s = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qlocc"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        root = _import_tree(proc.stderr)["qlocc"]
        qlocc_s.append(root[0] / 1e6)
        scipy_s.append(sum(cum for name, cum in _topmost(root, "scipy")) / 1e6)
    return {
        "import.qlocc_s": statistics.median(qlocc_s),
        "import.scipy_optimize_s": statistics.median(scipy_s),
    }


def _import_tree(text: str) -> dict:
    """Top-level modules of an importtime log as name -> (cumulative us, children).

    The log prints each module after the modules it imported, indented two
    spaces per level, so a line adopts the pending lines one level deeper.
    """
    pending = []  # (depth, name, cumulative, children)
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line.split("|", 2)
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(cum), children[::-1]))
    return {name: (cum, kids) for depth, name, cum, kids in pending if depth == 0}


def _topmost(node, prefix):
    """(name, cumulative us) of the outermost descendants named prefix or prefix.*"""
    for _, name, cum, kids in node[1]:
        if name == prefix or name.startswith(prefix + "."):
            yield name, cum
        else:
            yield from _topmost((cum, kids), prefix)


def kernel_microbench() -> dict[str, float]:
    """The three figures of benchmarks/bench_kernels.py for the active backend:
    4x4 eigenvalues over 2000 matrices, the gain objective one point at a
    time over 2000 points, and batched over 100000 points, in us per item."""
    from qlocc import _kernels

    rng = np.random.default_rng(0)
    mats = rng.standard_normal((2000, 4, 4)) + 1j * rng.standard_normal((2000, 4, 4))
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    n = 100_000
    a = rng.random(n) * 0.98
    b = rng.random(n) * 0.98
    nv = rng.standard_normal((n, 3))
    nv /= np.linalg.norm(nv, axis=1)[:, None]
    mv = rng.standard_normal((n, 3))
    mv /= np.linalg.norm(mv, axis=1)[:, None]
    c_in = _kernels.concurrence4(rho)

    t0 = time.perf_counter()
    for m in mats:
        _kernels.eigvals4x4(m)
    t_eig = (time.perf_counter() - t0) / len(mats)
    t0 = time.perf_counter()
    for i in range(2000):
        _kernels.filter_gain_single(rho, c_in, a[i], nv[i], b[i], mv[i])
    t_single = (time.perf_counter() - t0) / 2000
    t0 = time.perf_counter()
    _kernels.filter_gain_batch(rho, c_in, a, nv, b, mv)
    t_batch = (time.perf_counter() - t0) / n
    return {
        "kernels.micro_eigvals4x4_us": t_eig * 1e6,
        "kernels.micro_gain_single_us": t_single * 1e6,
        "kernels.micro_gain_batch_us": t_batch * 1e6,
    }
