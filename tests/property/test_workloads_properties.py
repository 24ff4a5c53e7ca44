"""Property-based tests for workload construction invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    SLA_TIERS,
    TraceConfig,
    assign_tiers,
    poisson_trace,
    rotating_priority_schedule,
    sample_mix,
    trace_peak_concurrency,
)
from repro.zoo import get_model


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1),
       st.floats(0.005, 0.1),
       st.floats(30.0, 600.0),
       st.integers(1, 5))
def test_trace_invariants(seed, rate, session, cap):
    """Any trace: sorted, within horizon, concurrency-capped, and every
    departure matches a preceding arrival of the same model."""
    config = TraceConfig(horizon_s=900.0, arrival_rate_per_s=rate,
                         mean_session_s=session, max_concurrent=cap)
    events = poisson_trace(np.random.default_rng(seed), config)
    times = [e.time for e in events]
    assert times == sorted(times)
    assert all(0 <= t < 900.0 for t in times)
    assert trace_peak_concurrency(events) <= cap
    live = set()
    for event in sorted(events,
                        key=lambda e: (e.time, e.kind != "departure")):
        if event.kind == "arrival":
            live.add(event.model.name)
        else:
            assert event.model.name in live
            live.remove(event.model.name)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
def test_sample_mix_always_distinct_and_buildable(seed, size):
    mix = sample_mix(np.random.default_rng(seed), size)
    names = [m.name for m in mix]
    assert len(set(names)) == size
    assert all(m.num_blocks >= 1 for m in mix)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.3, 0.9), st.floats(0.01, 0.25))
def test_rotating_schedule_total_priority_constant(high, low):
    """Each stage's priority dict has one high, rest low — the budget the
    manager normalises is the same in every stage."""
    models = [get_model(n) for n in ("alexnet", "vgg16", "squeezenet")]
    order = ["vgg16", "squeezenet", "alexnet"]
    events = rotating_priority_schedule(models, order, high=high, low=low)
    shifts = [e for e in events if e.kind == "priority"]
    totals = {round(sum(e.priorities.values()), 9) for e in shifts}
    assert len(totals) == 1
    for event in shifts:
        assert sorted(event.priorities.values())[-1] == high


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_assign_tiers_round_robin_covers_ladder(size, seed):
    mix = sample_mix(np.random.default_rng(seed), min(size, 5))
    assignment = assign_tiers(mix)
    used = {assignment.tier_of(m.name).name for m in mix}
    assert used <= {t.name for t in SLA_TIERS}
