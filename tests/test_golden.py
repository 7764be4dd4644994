"""Golden outputs: a search or single-state route whose bits change fails
here until ``golden.json`` is regenerated (``PYTHONPATH=src python tests/golden.py``)."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import golden
from qlocc import cli

with open(golden.PATH, encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)

# in another environment: the input state and its concurrence,
# and every number of a single-state report, are a few roundings of the same
# formulas
INPUT_BOUND = 1e-12


def _numbers_agree(name, body, recorded):
    g = golden.GOLDEN[name]
    assert body["config"] == recorded["config"]
    np.testing.assert_allclose(body["input_state"]["matrix"], recorded["input_state"]["matrix"],
                               rtol=0, atol=INPUT_BOUND)
    assert abs(body["concurrence_in"] - recorded["concurrence_in"]) <= INPUT_BOUND
    assert abs(body["best_gain"] - recorded["best_gain"]) <= g.gain_bound
    # the verdict must match wherever the gain bound cannot cross the tolerance
    tol = body["config"]["tolerance"]
    if abs(recorded["best_gain"] - tol) > g.gain_bound:
        assert body["holds"] == recorded["holds"]


def _recorded(env) -> dict:
    """The recorded values of the environment's keys; None where golden.json
    holds none."""
    return {key: RECORDED.get(key) for key in env}


def _bytes_compared(computed, recorded) -> bool:
    """Compares two entries byte for byte and returns True where the whole
    recorded environment matches (``cli.environment()``: numpy, LAPACK,
    OpenBLAS's core type, numpy's dispatch targets); elsewhere warns,
    compares the inputs and returns False, leaving the numbers to the
    caller."""
    env = cli.environment()
    recorded_env = _recorded(env)
    if env == recorded_env:
        assert golden.render(computed) == golden.render(recorded)
        return True
    warnings.warn(f"byte check skipped: golden.json was made with {recorded_env}, "
                  f"this run has {env}; numbers compared within bounds")
    assert computed["input"] == recorded["input"]
    return False


@pytest.mark.parametrize("name", list(golden.GOLDEN))
def test_golden_certificate(name):
    recorded = RECORDED["certificates"][name]
    computed = golden.entry(name)
    if not _bytes_compared(computed, recorded):
        _numbers_agree(name, computed["body"], recorded["body"])


def _numbers(x):
    if isinstance(x, dict):
        return [v for key in sorted(x) for v in _numbers(x[key])]
    if isinstance(x, list):
        return [v for item in x for v in _numbers(item)]
    return [x]


@pytest.mark.parametrize("name", list(golden.REPORTS))
def test_golden_report(name):
    recorded = RECORDED["reports"][name]
    computed = golden.report_entry(name)
    if not _bytes_compared(computed, recorded):
        np.testing.assert_allclose(_numbers(computed["body"]), _numbers(recorded["body"]),
                                   rtol=0, atol=INPUT_BOUND)


def test_bounds_catch_a_moved_gain():
    # the comparison used under another build is not vacuous
    recorded = RECORDED["certificates"]["full-rank-gain"]["body"]
    _numbers_agree("full-rank-gain", {**recorded, "best_gain": recorded["best_gain"] - 1e-10}, recorded)
    with pytest.raises(AssertionError):
        _numbers_agree("full-rank-gain", {**recorded, "best_gain": recorded["best_gain"] - 1e-8}, recorded)


def test_golden_bounds_path_under_another_blas_core():
    # OpenBLAS made to pick an AVX2-only CPU's kernels moves the last bits
    # of eigh, svd and matmul; the record then differs and every golden
    # entry must pass within its bounds. Where OpenBLAS has one set of
    # kernels the variable does nothing, and the byte check runs.
    forced = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k",
         "test_golden_certificate or test_golden_report", os.path.abspath(__file__)],
        env=forced, cwd=root, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    core = subprocess.run(
        [sys.executable, "-c", "from qlocc import cli; print(cli._blas_core())"],
        env={**forced, "PYTHONPATH": os.path.join(root, "src")}, capture_output=True, text=True,
        timeout=60, check=True).stdout.strip()
    child = {**cli.environment(), "blas_core": core}
    entries = len(golden.GOLDEN) + len(golden.REPORTS)
    summary = run.stdout.strip().splitlines()[-1]
    assert f"{entries} passed" in summary
    # each entry warns that it took the bounds path exactly when the record differs
    assert (f"{entries} warnings" in summary) == (child != _recorded(child)), run.stdout
