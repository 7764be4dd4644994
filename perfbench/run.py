"""Run one qlocc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qlocc is imported from its ``src``
directory, on whichever kernel backend ``import qlocc`` selects. The run
repeats whole rounds of the workload's operations for about S seconds
(at least two rounds), checks the outputs of the first round against
independent references and the later rounds against the first, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, op_p50_s and
peak_rss_mb. --trace 1 alternates untraced and traced rounds and reports the
per-layer metrics, the tracing overhead, the import profile and the kernel
micro-benchmark. Times are scaled to a reference machine speed measured by
SpeedProbe. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".perfbench_run")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
# Times are reported in seconds of a machine on which one speed probe takes
# PROBE_REFERENCE_S; the probe runs after every PROBE_EVERY_S of measured
# operations (see SpeedProbe).
PROBE_REFERENCE_S = 0.040
PROBE_EVERY_S = 0.25


class SpeedProbe:
    """A fixed piece of benchmark code that times how fast the machine runs now.

    On a shared machine the speed of one CPU drifts by tens of percent within
    seconds to minutes, for numpy kernels and interpreted Python alike. The
    probe runs right before and right after each group of operations (about
    PROBE_EVERY_S of them), and each operation's measured seconds are scaled
    by PROBE_REFERENCE_S / (mean of its two probes). A change to qlocc cannot
    move the probe: it is a frozen copy of the numpy steps of a batched gain
    evaluation (4000 filter pairs), 24 small eigenproblems one at a time, and
    an interpreted loop, none of it calling qlocc.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        n = 4000
        self._np = np
        self._a = rng.random(n)
        axes = rng.standard_normal((n, 3))
        self._axes = axes / np.linalg.norm(axes, axis=1)[:, None]
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        self._pauli = np.stack([np.array([[0, 1], [1, 0]], dtype=complex), sy, np.diag([1.0, -1.0]) + 0j])
        self._yy = np.kron(sy, sy).real
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        self._small = rng.standard_normal((24, 4, 4)) * (1.0 + 1.0j)
        self.samples = []

    def __call__(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        f = (np.eye(2) + self._a[:, None, None] * np.einsum("nk,kij->nij", self._axes, self._pauli))
        k = np.einsum("nab,ncd->nacbd", f, f).reshape(-1, 4, 4)
        ru = k @ self._rho @ k
        acc = float(np.linalg.eigvals(ru @ (self._yy @ ru.conj() @ self._yy)).real.sum())
        for m in self._small:
            acc += float(np.linalg.eigvals(m @ m.conj().T).real.sum())
        d = {}
        for i in range(8000):
            d[i % 97] = d.get(i % 97, 0.0) + math.sqrt(i)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt


def import_program():
    """Import qlocc from this checkout's src, never from anywhere else."""
    sys.path.insert(0, SRC)
    import qlocc

    where = os.path.realpath(qlocc.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"qlocc imported from {where}, not from {SRC}")
    return qlocc


def measure_setup(workload: str, seed: int, run_dir: str, speed: SpeedProbe):
    """Median time from spawning a fresh interpreter until it has imported
    qlocc and built the workload's inputs (CLOCK_MONOTONIC is system-wide),
    as measured and at reference speed."""
    script = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    before = speed()
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, script, workload, str(seed), run_dir],
            capture_output=True, text=True, timeout=170, check=True,
        )
        raw.append(float(proc.stdout.split()[-1]) - t0)
        after = speed()
        scaled.append(raw[-1] * 2.0 * PROBE_REFERENCE_S / (before + after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def run_rounds(wl, ops, seconds: float, speed: SpeedProbe, tracer=None):
    """Repeat whole rounds of ops until another round would pass ``seconds``.

    With a tracer, odd rounds run traced. Returns the round records
    [(measured seconds, seconds at reference speed, traced)], every op's
    (measured, reference) seconds, the first round's outputs (None for a
    failed op), counts attempted and failed, and problems found by comparing
    later rounds with the first. A round's seconds are the sum of its
    operations' seconds; the speed probes between them do not count.
    """
    rounds, op_times, problems = [], [], []
    first = first_digests = None
    attempted = failed = 0
    start = time.perf_counter()
    before = speed()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        outputs, times, group = [], [], []
        for i, (_, fn) in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # counted as a failed operation
                out = exc
            group.append(time.perf_counter() - t0)
            outputs.append(out)
            if sum(group) >= PROBE_EVERY_S or i == len(ops) - 1:
                after = speed()
                scale = 2.0 * PROBE_REFERENCE_S / (before + after)
                times += [(dt, dt * scale) for dt in group]
                before, group = after, []
        if traced:
            tracer.remove()
        op_times += times
        rounds.append((sum(t for t, _ in times), sum(t for _, t in times), traced))
        ok = []
        for (label, _), out in zip(ops, outputs):
            attempted += 1
            if wl.failed(out):
                failed += 1
                print(f"failed: {label}: {out!r}", file=sys.stderr)
                ok.append(None)
            else:
                ok.append(out)
        digests = [None if out is None else wl.digest(out) for out in ok]
        if first is None:
            first, first_digests = ok, digests
        else:
            for (label, _), d0, d in zip(ops, first_digests, digests):
                if d0 is not None and d is not None and d != d0:
                    problems.append(f"{label}: output of round {len(rounds)} differs from round 1")
        elapsed = time.perf_counter() - start
        typical = statistics.median(raw for raw, _, _ in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            return rounds, op_times, first, attempted, failed, problems


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = declared_units(bool(args.trace))

    qlocc = import_program()
    import numpy
    import scipy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"backend={qlocc.BACKEND} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")
    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        metrics = {}
        speed = SpeedProbe()
        if not args.trace:
            setup_raw, setup_s = measure_setup(args.workload, args.seed, run_dir, speed)
        wl = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        wl.warm_up()
        tracer = tracing.Tracer() if args.trace else None
        ops = wl.traced_ops if args.trace else wl.ops
        rounds, op_times, first, attempted, failed, problems = run_rounds(
            wl, ops, args.seconds, speed, tracer)
        peak_kb = wl.peak_rss_kb()
        problems += wl.check(first)
        if args.trace:
            traced = [dt for _, dt, on in rounds if on]
            plain = [dt for _, dt, on in rounds if not on]
            metrics.update(tracing.layer_metrics(tracer.stats, len(traced)))
            # figures the checks of bell-nogo and state-analysis produce
            metrics.update(dict.fromkeys(workloads.CHECK_FIGURES, 0.0))
            metrics.update(wl.layer)
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced) / statistics.median(plain) - 1.0)
            metrics.update(tracing.import_profile(workloads.child_env()))
            metrics.update(tracing.kernel_microbench())
            # per-layer times take the run's median probe, not a local one
            scale = PROBE_REFERENCE_S / statistics.median(speed.samples)
            metrics = {k: v * scale if units[k] in ("s", "us") else v for k, v in metrics.items()}
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(dt for _, dt, _ in rounds),
                "op_p50_s": statistics.median(dt for _, dt in op_times),
                "peak_rss_mb": peak_kb / 1024.0,
            }
            print(f"measured: setup_s={setup_raw:.6g} "
                  f"wall_s={statistics.median(dt for dt, _, _ in rounds):.6g} "
                  f"op_p50_s={statistics.median(dt for dt, _ in op_times):.6g}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"rounds={len(rounds)} checks={'ok' if not problems else len(problems)} "
          f"probes={len(speed.samples)} probe_median_s={statistics.median(speed.samples):.6g}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
