import numpy as np
import pytest

from qlocc.errors import DomainError, TargetNotReached
from qlocc.protocols import (
    RecurrenceTrace,
    collective_step,
    iterate_to_target,
    trace_to_csv,
)

from conftest import NOT_REAL_NUMBERS, collective_step_closed_form, collective_step_oracle


def test_simulation_matches_closed_form():
    for f in np.linspace(0.505, 0.995, 50):
        fs, ps = collective_step(f)
        fc, pc = collective_step_closed_form(f)
        assert abs(fs - fc) < 1e-10
        assert abs(ps - pc) < 1e-10


def test_step_has_the_bits_of_the_literal_simulation():
    # 2000 uniform fidelities in (1/2, 1) and the ends of the interval
    fs = 0.5 + 0.5 * np.random.default_rng(29).random(2000)
    ends = [np.nextafter(0.5, 1.0), 0.5 + 1e-9, 1.0 - 1e-12, np.nextafter(1.0, 0.0)]
    for f in [*fs.tolist(), *ends]:
        new, old = collective_step(f), collective_step_oracle(f)
        assert [x.hex() for x in new] == [x.hex() for x in old], f


def test_step_strictly_increases_fidelity():
    for f in np.linspace(0.51, 0.99, 25):
        f_next, p = collective_step(f)
        assert f_next > f
        assert 0.0 < p < 1.0


def test_step_near_unit_fidelity_fixed_point():
    # F' -> 1 as F -> 1
    gaps = []
    for eps in [1e-2, 1e-3, 1e-4, 1e-5]:
        f_next, _ = collective_step(1.0 - eps)
        gaps.append(1.0 - f_next)
    assert all(x > y for x, y in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-5


def test_step_just_above_threshold():
    f_next, _ = collective_step(0.51)
    assert f_next > 0.51


def test_step_domain():
    for bad in [0.5, 0.2, 1.0, 1.2]:
        with pytest.raises(DomainError):
            collective_step(bad)
    for bad in NOT_REAL_NUMBERS:
        with pytest.raises(DomainError, match="real number"):
            collective_step(bad)
    assert collective_step(np.float64(0.75)) == collective_step(0.75)


def test_iterate_reaches_target():
    trace = iterate_to_target(0.6, 0.9, max_steps=64)
    fs = [s.fidelity_in for s in trace.steps]
    assert all(x < y for x, y in zip(fs, fs[1:]))
    assert trace.final_fidelity >= 0.9


def test_iterate_immediate_success_gives_empty_trace():
    trace = iterate_to_target(0.9, 0.9, max_steps=8)
    assert trace.steps == ()
    assert trace.final_fidelity is None


def test_iterate_far_target_reached_in_bounded_steps():
    trace = iterate_to_target(0.55, 0.999, max_steps=128)
    assert trace.final_fidelity >= 0.999
    assert len(trace.steps) < 64


def test_iterate_exhaustion_raises_with_trace():
    with pytest.raises(TargetNotReached) as exc_info:
        iterate_to_target(0.55, 0.99, max_steps=2)
    trace = exc_info.value.trace
    assert isinstance(trace, RecurrenceTrace)
    assert len(trace.steps) == 2


def test_iterate_domain():
    with pytest.raises(DomainError):
        iterate_to_target(0.4, 0.9, 8)
    with pytest.raises(DomainError):
        iterate_to_target(0.6, 1.0, 8)
    for bad in NOT_REAL_NUMBERS:
        with pytest.raises(DomainError, match="real number"):
            iterate_to_target(bad, 0.9, 8)
        with pytest.raises(DomainError, match="real number"):
            iterate_to_target(0.6, bad, 8)
    assert iterate_to_target(np.float64(0.6), 0.7, 16) == iterate_to_target(0.6, 0.7, 16)


def test_iterate_max_steps_must_be_an_integer():
    # a float, bool, str or None budget is rejected up front, not rounded
    # up by the loop's comparison or failing inside it
    for bad in (2.5, True, "3", None, -1, np.float64(2.0)):
        with pytest.raises(DomainError, match="max_steps"):
            iterate_to_target(0.55, 0.99, bad)
    with pytest.raises(TargetNotReached) as exc_info:
        iterate_to_target(0.55, 0.99, np.int64(3))
    assert len(exc_info.value.trace.steps) == 3
    assert iterate_to_target(0.6, 0.59, 0).steps == ()


def test_trace_csv_format():
    trace = iterate_to_target(0.6, 0.7, max_steps=16)
    text = trace_to_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "step,F,F_prime,p_succ"
    assert len(lines) == len(trace.steps) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == 0.6
    # values round-trip through repr
    assert float(first[2]) == trace.steps[0].fidelity_out
    assert float(first[3]) == trace.steps[0].p_succ


def test_header_only_csv_for_empty_trace():
    assert trace_to_csv(RecurrenceTrace()) == "step,F,F_prime,p_succ\n"
