"""Golden outputs: a search or single-state route whose bits change fails
here until ``golden.json`` is regenerated (``PYTHONPATH=src python tests/golden.py``)."""

import json
import warnings

import numpy as np
import pytest

import golden

with open(golden.PATH, encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)

# under another numpy or LAPACK build: the input state and its concurrence,
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


def _bytes_compared(computed, recorded) -> bool:
    """Compares two entries byte for byte and returns True under the
    recorded numpy and LAPACK build; elsewhere warns, compares the inputs
    and returns False, leaving the numbers to the caller."""
    env = golden.environment()
    recorded_env = {"numpy": RECORDED["numpy"], "lapack": RECORDED["lapack"]}
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
