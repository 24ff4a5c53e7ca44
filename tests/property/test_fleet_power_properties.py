"""Property-based tests for energy-budgeted fleet dispatch.

The power governor runs entirely in dispatch phase 1 (the parent
process), so everything it produces — `least_joules` routing decisions,
DVFS transitions, the watt-second violation ledger, shed counts — must be
bit-identical whether the node slices are then served by 1 worker or N.
Swept over randomized demand, brownout shifts, node failures and the
cap-blind baseline (derandomized, mirroring
``tests/property/test_obs_properties.py`` so tier-1 runs reproduce bit
for bit).

The governor answers every pricing query from a per-node watts table
built once per dispatch.  :class:`PerQueryPricingGovernor` is the
oracle for that table: it prices every query through
``DvfsState.node_watts`` and re-sums the fleet per trial level, and the
whole :class:`~repro.serve.fleet.DispatchPlan` must come out identical
under both.
"""

import math
import pickle
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import dvfs_ladder, jetson_class_power, orange_pi_5_power
from repro.obs import NULL_RECORDER
from repro.obs.registry import POWER_FLEET_WATTS
from repro.runner import FleetScenario, ScenarioRunner
from repro.runner.scenario import DynamicScenario
from repro.serve.fleet import FleetPowerConfig, NodeSpec, plan_dispatch
from repro.serve.fleet import dispatch as dispatch_module
from repro.serve.fleet.power import _PowerGovernor
from repro.workloads import SessionRequest, TraceConfig, \
    sample_session_requests

POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")


def power_fleet(seed, cap, shift, enforce, fail, observe=False):
    nodes = tuple(DynamicScenario(
        name=f"node{i}", manager="baseline", policy="full",
        platform=("orange_pi_5" if i % 2 == 0 else "jetson_class"),
        horizon_s=280.0, arrival_rate_per_s=0.05, mean_session_s=90.0,
        capacity=2, seed=seed, pool=POOL, observe=observe)
        for i in range(3))
    return FleetScenario(
        name="power_prop", nodes=nodes, routing="least_joules",
        horizon_s=280.0, arrival_rate_per_s=0.12, mean_session_s=90.0,
        seed=seed, fail_at=fail, power_cap_w=cap, power_cap_shift=shift,
        power_enforce=enforce)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       cap=st.sampled_from([14.0, 22.0, 40.0]),
       shift=st.sampled_from([None, (90.0, 9.0), (200.0, 30.0)]),
       enforce=st.booleans(),
       fail=st.sampled_from([(), ((0, 120.0),)]))
def test_power_ledger_worker_count_invariant(seed, cap, shift, enforce,
                                             fail):
    """1-vs-2-worker runs agree on every report bit, ledger included."""
    fleet = power_fleet(seed, cap, shift, enforce, fail)
    one = ScenarioRunner(max_workers=1).run_fleet([fleet])[0]
    two = ScenarioRunner(max_workers=2).run_fleet([fleet])[0]
    assert one.report == two.report
    ledger = one.report.power
    assert ledger is not None
    assert ledger.enforced == enforce
    # The ledger's segment trace always tiles the full horizon.
    assert ledger.segments[0].start_s == 0.0
    assert abs(ledger.segments[-1].end_s - 280.0) < 1e-9
    if not enforce:
        # The cap-blind baseline never renegotiates or sheds.
        assert ledger.dvfs_transitions == ()
        assert one.report.shed == 0


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       shift=st.sampled_from([(90.0, 9.0), (140.0, 12.0)]))
def test_power_telemetry_merge_deterministic(seed, shift):
    """Power metrics ride the observe path without perturbing reports,
    and 1- vs 2-worker telemetry snapshots merge identically."""
    off = ScenarioRunner(max_workers=1).run_fleet(
        [power_fleet(seed, 30.0, shift, True, ())])[0]
    on1 = ScenarioRunner(max_workers=1).run_fleet(
        [power_fleet(seed, 30.0, shift, True, (), observe=True)])[0]
    on2 = ScenarioRunner(max_workers=2).run_fleet(
        [power_fleet(seed, 30.0, shift, True, (), observe=True)])[0]
    assert on1.report == off.report
    assert on2.report == off.report
    assert on1.telemetry is not None
    assert on1.telemetry == on2.telemetry


class PerQueryPricingGovernor(_PowerGovernor):
    """Oracle: the governor's pricing with no table.

    Every query calls ``DvfsState.node_watts`` at ``est_live /
    capacity``, and the settle loops re-sum the whole fleet for each
    trial level.  Accounting, stepping and the report are inherited, so
    a plan that differs from the production governor's can only come
    from a mis-priced query.
    """

    def __init__(self, config, specs, horizon_s, recorder=NULL_RECORDER):
        super().__init__(config, specs, horizon_s, recorder)
        self._node_watts = [ladder[0].node_watts(0.0)
                            for ladder in config.ladders]

    def _watts(self, index, alive, est_live, level=None):
        if not alive:
            return 0.0
        spec = self.specs[index]
        state = self.config.ladders[index][
            self.levels[index] if level is None else level]
        return state.node_watts(min(1.0, est_live / spec.capacity))

    def _fleet_watts(self, loads, levels=None):
        return sum(
            self._watts(i, alive, est_live,
                        None if levels is None else levels[i])
            for i, (alive, est_live) in enumerate(loads))

    def marginal_watts(self, index, est_live):
        return (self._watts(index, True, est_live + 1)
                - self._watts(index, True, est_live))

    def update(self, t, loads):
        if self.config.enforce:
            while self._fleet_watts(loads) > self.cap_w:
                best, saving = -1, 0.0
                for i, (alive, est_live) in enumerate(loads):
                    if not alive or self.levels[i] + 1 >= \
                            len(self.config.ladders[i]):
                        continue
                    gain = (self._watts(i, alive, est_live)
                            - self._watts(i, alive, est_live,
                                          self.levels[i] + 1))
                    if gain > saving:
                        best, saving = i, gain
                if best < 0:
                    break
                self._step(t, best, self.levels[best] + 1)
            while True:
                candidates = [i for i, (alive, _) in enumerate(loads)
                              if alive and self.levels[i] > 0]
                candidates.sort(key=lambda i: (-self.levels[i], i))
                stepped = False
                for i in candidates:
                    trial = list(self.levels)
                    trial[i] -= 1
                    if self._fleet_watts(loads, trial) \
                            <= self.cap_w * self.config.hysteresis:
                        self._step(t, i, self.levels[i] - 1)
                        stepped = True
                        break
                if not stepped:
                    break
        self._node_watts = [self._watts(i, alive, est_live)
                            for i, (alive, est_live) in enumerate(loads)]
        if self.recorder.enabled:
            self.recorder.gauge(POWER_FLEET_WATTS, t,
                                sum(self._node_watts))

    def should_shed(self, tier, loads):
        if not self.config.enforce or tier not in self.config.shed_tiers:
            return False
        if not any(alive for alive, _ in loads):
            return False
        floors = [len(ladder) - 1 for ladder in self.config.ladders]
        best = math.inf
        for j, (alive, _) in enumerate(loads):
            if not alive:
                continue
            with_extra = [(a, e + 1 if i == j else e)
                          for i, (a, e) in enumerate(loads)]
            best = min(best, self._fleet_watts(with_extra, floors))
        return best > self.cap_w


PRESETS = (orange_pi_5_power, jetson_class_power)
MULTIPLIERS = (1.0, 0.8, 0.65, 0.5)
HORIZON = 300.0


def assert_matches_oracle(requests, specs, routing, config):
    """The table-priced plan equals the per-query-priced plan, pickle
    bytes included (so even a -0.0 against 0.0 would show)."""
    plan = plan_dispatch(requests, specs, routing, HORIZON, power=config)
    with mock.patch.object(dispatch_module, "_PowerGovernor",
                           PerQueryPricingGovernor):
        reference = plan_dispatch(requests, specs, routing, HORIZON,
                                  power=config)
    assert plan == reference
    assert pickle.dumps(plan) == pickle.dumps(reference)
    return plan


@settings(max_examples=100, deadline=None, derandomize=True)
@given(nodes=st.lists(st.tuples(st.integers(1, 5),      # capacity
                                st.integers(0, 1),      # power preset
                                st.integers(1, 4)),     # ladder depth
                      min_size=1, max_size=6),
       seed=st.integers(0, 10_000),
       cap=st.sampled_from([5.0, 12.0, 20.0, 40.0, math.inf]),
       brownout=st.booleans(),
       fail=st.booleans(),
       enforce=st.booleans(),
       hysteresis=st.sampled_from([0.5, 0.9, 1.0]),
       routing=st.sampled_from(["least_joules", "least_loaded",
                                "round_robin"]))
def test_table_pricing_matches_per_query_oracle(nodes, seed, cap, brownout,
                                                fail, enforce, hysteresis,
                                                routing):
    requests = sample_session_requests(
        np.random.default_rng(seed),
        TraceConfig(horizon_s=HORIZON, arrival_rate_per_s=0.3,
                    mean_session_s=60.0))
    specs = [NodeSpec(name=f"n{i}", capacity=capacity, speed=1.0 + 0.5 * i,
                      fail_at_s=(0.6 * HORIZON if fail and i == 0
                                 else None))
             for i, (capacity, _, _) in enumerate(nodes)]
    config = FleetPowerConfig(
        ladders=tuple(dvfs_ladder(PRESETS[preset](), MULTIPLIERS[:depth])
                      for _, preset, depth in nodes),
        cap_w=cap,
        cap_shift=(0.5 * HORIZON, 0.45 * min(cap, 40.0)) if brownout
        else None,
        enforce=enforce, hysteresis=hysteresis)
    assert_matches_oracle(requests, specs, routing, config)


def test_oversubscribed_node_matches_oracle():
    """One capacity-1 node under dense arrivals: the dispatcher's live
    estimate runs past capacity, so every lookup past the table's last
    column goes through the occupancy clamp."""
    requests = [SessionRequest(session_id=i, arrival_s=2.0 * i + 1.0,
                               duration_s=30.0,
                               tier=("gold", "silver", "bronze")[i % 3],
                               tier_shift=None)
                for i in range(120)]
    specs = [NodeSpec(name="only", capacity=1)]
    config = FleetPowerConfig(
        ladders=(dvfs_ladder(orange_pi_5_power(), MULTIPLIERS[:3]),),
        cap_w=5.0, cap_shift=(150.0, 3.0), shed_tiers=())
    plan = assert_matches_oracle(requests, specs, "least_loaded", config)
    routed = plan.node_requests[0]
    peak = max(sum(1 for r in routed
                   if r.arrival_s <= s.arrival_s < r.arrival_s + r.duration_s)
               for s in routed)
    assert peak > specs[0].capacity
    assert plan.power.dvfs_transitions
