"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import certcheck  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 8].
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    parents = [-1, 0, 0, 2]
    assert spans.self_times(starts, ends, parents) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_covered_time_once_and_inside_the_parent():
    # Children overlapping each other, and one reaching past its parent.
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_records_nesting_and_aggregates_by_name():
    tracer = spans.Tracer()
    inner = tracer.spanned("inner", lambda x: x + 1)
    outer = tracer.spanned("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert list(tracer.parents) == [-1, 0, 0]
    agg = tracer.aggregate()
    assert agg["calls"] == {"outer": 1, "inner": 2}
    assert agg["self_s"]["outer"] >= 0.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert summary.percentile(values, 0.5) == 50
    assert summary.percentile(values, 0.9) == 90
    assert summary.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        summary.percentile([], 0.5)


def test_p90_needs_a_hundred_samples_for_ten_beyond_it():
    assert summary.samples_beyond(100, 0.9) == 10
    assert summary.samples_beyond(99, 0.9) == 9
    assert summary.min_samples(0.9) == 100
    assert summary.min_samples(0.5) == 20


def test_median_of_takes_each_op_median_pass():
    passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 1.5, 0.5]]
    assert summary.median_of(passes) == [3.0, 1.5, 5.0]
    with pytest.raises(ValueError):
        summary.median_of([[1.0, 2.0], [1.0]])


def test_speed_window_takes_the_median_of_nearby_samples():
    import refspeed

    times = [0.1 * i for i in range(40)]
    # Half speed for the first second, full speed after, one spike.
    durations = [2.0 if t < 1.0 else 1.0 for t in times]
    durations[30] = 50.0
    assert refspeed.window_median(times, durations, 0.3, 0.4) == 2.0
    assert refspeed.window_median(times, durations, 2.9, 3.1) == 1.0
    # Far past the last sample the window grows to the nearest ones.
    assert refspeed.window_median(times, durations, 100.0, 101.0) == 1.0
    with pytest.raises(ValueError):
        refspeed.window_median([], [], 0.0, 1.0)


def test_sampler_samples_inside_the_block_and_scales_by_the_reference():
    import time

    import refspeed

    with refspeed.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 12 * refspeed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    taken = len(sampler.times)
    assert taken >= 3
    assert sampler.overhead > 0.0
    time.sleep(2 * refspeed.PERIOD_S)
    assert len(sampler.times) == taken  # the timer is off after the block
    reference = refspeed.window_median(sampler.times, sampler.durations, 0.0, time.perf_counter())
    assert sampler.scaled(2.0, 0.0, time.perf_counter()) == pytest.approx(
        2.0 * refspeed.REFERENCE_S / reference)


def test_forked_pass_returns_the_child_result_and_leaves_parent_state_alone():
    import run

    state = {"hits": 0}

    def bump(by):
        state["hits"] += by
        return state["hits"]

    assert [run.forked(bump, 2) for _ in range(3)] == [2, 2, 2]
    assert state["hits"] == 0


def test_forked_pass_reports_a_child_that_raised():
    import run

    def boom():
        raise KeyError("x")

    with pytest.raises(RuntimeError):
        run.forked(boom)


def _certificate(token, entries):
    from koszulkit import Matrix, jsonio, ring_from_token, snf

    ring = ring_from_token(token)
    if token != "Z":
        entries = [[ring.poly(x) for x in row] for row in entries]
    source = Matrix(ring, entries)
    return jsonio.matrix_to_json(source), jsonio.snf_certificate_to_json(snf(source))


@pytest.mark.parametrize("token, entries", [
    ("Z", [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]),
    ("Z", [[1, 2], [2, 4], [3, 7]]),
    ("fpx:3", [[[1, 1], [0, 1]], [[2], [1, 0, 1]]]),
])
def test_recheck_accepts_genuine_certificates(token, entries):
    source, cert = _certificate(token, entries)
    assert certcheck.check_snf_certificate(token, source, cert) is None


@pytest.mark.parametrize("token, entries", [
    ("Z", [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]),
    ("fpx:3", [[[1, 1], [0, 1]], [[2], [1, 0, 1]]]),
])
def test_recheck_rejects_a_corrupted_u(token, entries):
    source, cert = _certificate(token, entries)
    arith = certcheck.arith_for(token)
    u = cert["U"]["entries"]
    one = 1 if token == "Z" else [1]
    first = arith.parse(u[0][0])
    u[0][0] = arith.add(first, arith.parse(one))
    if token != "Z":
        u[0][0] = list(u[0][0])
    assert certcheck.check_snf_certificate(token, source, cert) == "U*A*V != D"


def test_recheck_rejects_a_non_unimodular_u_that_still_satisfies_uav_equals_d():
    # Doubling U doubles D; U*A*V == D and the chain still hold, but
    # det(2U) is not a unit.
    source, cert = _certificate("Z", [[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    cert["U"]["entries"] = [[2 * int(x) for x in row] for row in cert["U"]["entries"]]
    cert["D"]["entries"] = [[2 * int(x) for x in row] for row in cert["D"]["entries"]]
    cert["divisors"] = [2 * int(x) for x in cert["divisors"]]
    assert certcheck.check_snf_certificate("Z", source, cert) == "det U * det V is not a unit"


def test_recheck_rejects_a_broken_divisor_chain():
    source = {"rows": 2, "cols": 2, "entries": [[2, 0], [0, 3]]}
    cert = {"U": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]},
            "D": {"rows": 2, "cols": 2, "entries": [[2, 0], [0, 3]]},
            "V": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]},
            "divisors": [2, 3]}
    assert certcheck.check_snf_certificate("Z", source, cert) == "divisors do not form a divisibility chain"


def test_sympy_oracle_agrees_on_a_small_matrix():
    assert certcheck.sympy_invariant_factors({"rows": 2, "cols": 2, "entries": [[2, 0], [0, 3]]}) == [1, 6]
