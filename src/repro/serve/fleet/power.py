"""Fleet power governor: DVFS ladders, cap ledger, brownout renegotiation.

The dispatcher (:func:`repro.serve.fleet.plan_dispatch`) routes on
throughput headroom alone unless it is handed a
:class:`FleetPowerConfig`.  With one, a *power governor* rides along the
dispatch event walk and does three things, all inside phase 1 (the parent
process), so every figure it produces is bit-identical for any worker
count:

* **Accounting** — between consecutive dispatch events it integrates each
  node's estimated board draw (its current DVFS state's
  :meth:`~repro.hw.energy.DvfsState.node_watts` at the dispatcher's
  occupancy estimate ``est_live / capacity``) into per-node energy and a
  fleet-wide :class:`PowerSegment` trace.  Watt-seconds above the cap in
  force are the *violation ledger*, attributed to nodes in proportion to
  their share of the fleet draw.  Occupancy estimates are integers
  ``0..capacity``, so the governor prices each node once, when it is
  built — ``len(ladder) x (capacity + 1)`` ``node_watts`` calls — and
  every later query (this integral, the routing views' marginal watts,
  renegotiation and shedding) is a lookup into that table.
* **DVFS renegotiation** — when ``enforce`` is on and the fleet draw
  exceeds the cap, the governor steps nodes down their
  :func:`~repro.hw.energy.dvfs_ladder` (largest watts saving first),
  and steps them back up when the draw falls below ``hysteresis x cap``
  (most-throttled node first).  A stepped-down node serves slower: its
  routing view's ``speed`` carries the state's ``speed_multiplier``.
* **Tier shedding** — an arrival whose tier is in ``shed_tiers`` is
  dropped before routing when *no* placement could keep the fleet under
  the cap even with every node at its ladder floor; higher tiers are
  always routed and any overage lands in the ledger instead.

``cap_shift=(at_s, new_cap_w)`` models a **brownout**: the cap in force
drops (or rises) mid-trace and the governor renegotiates against the new
budget from that instant on.  ``enforce=False`` keeps the ladders pinned
at nominal and never sheds — the cap-blind baseline whose ledger shows
what enforcement would have saved.

Everything the governor measures rolls up into a plain-data
:class:`FleetPowerReport` on the
:class:`~repro.serve.fleet.DispatchPlan` / fleet report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ...hw.energy import DvfsState
from ...obs import NULL_RECORDER, Recorder
from ...obs.registry import (
    POWER_DVFS_TRANSITIONS,
    POWER_FLEET_WATTS,
    POWER_OVER_CAP_WS,
    POWER_SHED,
)

__all__ = [
    "FleetPowerConfig",
    "PowerSegment",
    "FleetPowerReport",
]


@dataclass(frozen=True)
class FleetPowerConfig:
    """Power-management spec for one fleet dispatch.

    ``ladders[i]`` is node ``i``'s descending DVFS ladder
    (:func:`repro.hw.energy.dvfs_ladder`); a single-state ladder means
    the node cannot be throttled.  ``cap_w`` is the fleet-wide draw
    budget (``inf`` = account only, never over cap) and ``cap_shift``
    optionally moves it mid-trace.  ``shed_tiers`` names the SLA tiers
    the governor may drop when even ladder-floor throttling cannot fit
    an arrival under the cap; ``hysteresis`` is the fraction of the cap
    the draw must fall below before nodes step back up (guards against
    level flapping at the cap boundary).  ``enforce=False`` disables
    renegotiation and shedding but keeps the full ledger — the
    cap-blind baseline.
    """

    ladders: tuple[tuple[DvfsState, ...], ...]
    cap_w: float = math.inf
    cap_shift: tuple[float, float] | None = None
    shed_tiers: tuple[str, ...] = ("bronze",)
    enforce: bool = True
    hysteresis: float = 0.9

    def __post_init__(self):
        if not self.ladders or any(not ladder for ladder in self.ladders):
            raise ValueError("every node needs a non-empty DVFS ladder")
        for i, ladder in enumerate(self.ladders):
            multipliers = [s.speed_multiplier for s in ladder]
            if any(b >= a for a, b in zip(multipliers, multipliers[1:])):
                raise ValueError(
                    f"node {i} ladder speed multipliers must strictly "
                    f"decrease, got {multipliers}")
        # ``not x > 0`` rejects NaN as well as non-positive values (a NaN
        # cap would compare false everywhere and silently mean uncapped);
        # ``inf`` stays legal as the account-only cap.
        if not self.cap_w > 0:
            raise ValueError(f"cap_w must be positive, got {self.cap_w!r}")
        if self.cap_shift is not None:
            if len(self.cap_shift) != 2:
                raise ValueError("cap_shift must be (at_s, new_cap_w)")
            at_s, new_cap = self.cap_shift
            if not at_s > 0:
                raise ValueError(
                    f"cap_shift time must be positive, got {at_s!r}")
            if not new_cap > 0:
                raise ValueError(
                    f"cap_shift new cap must be positive, got {new_cap!r}")
        if not 0.0 < self.hysteresis <= 1.0:
            raise ValueError("hysteresis must be in (0, 1]")


@dataclass(frozen=True)
class PowerSegment:
    """Constant-draw stretch of the dispatch timeline.

    One segment spans the gap between consecutive dispatch events (with
    the cap in force over it); the fleet draw is constant inside because
    occupancy and DVFS levels only change *at* events.
    """

    start_s: float
    end_s: float
    watts: float          # estimated fleet draw over the segment
    cap_w: float          # cap in force during the segment

    @property
    def duration_s(self) -> float:
        """Segment length in seconds."""
        return self.end_s - self.start_s

    @property
    def over_cap_ws(self) -> float:
        """Watt-seconds above the cap accrued in this segment."""
        return max(0.0, self.watts - self.cap_w) * self.duration_s


@dataclass(frozen=True)
class FleetPowerReport:
    """The power-cap violation ledger of one dispatched trace.

    Plain data end to end (it rides the :class:`FleetReport` across the
    process-pool boundary): per-node energies and over-cap shares, the
    DVFS transition log, shed counts per tier and the full
    :class:`PowerSegment` trace.  Over-cap watt-seconds are attributed
    to nodes in proportion to their share of the fleet draw during the
    violating segment.
    """

    cap_w: float                                  # initial cap in force
    cap_shift: tuple[float, float] | None
    enforced: bool
    node_names: tuple[str, ...]
    node_energy_ws: tuple[float, ...]
    node_over_cap_ws: tuple[float, ...]
    node_final_levels: tuple[int, ...]
    dvfs_transitions: tuple[tuple[float, int, int], ...]  # (t, node, level)
    shed_by_tier: tuple[tuple[str, int], ...] = ()
    segments: tuple[PowerSegment, ...] = ()

    @property
    def fleet_energy_ws(self) -> float:
        """Total estimated fleet energy over the horizon (watt-seconds)."""
        return sum(self.node_energy_ws)

    @property
    def fleet_over_cap_ws(self) -> float:
        """Total watt-seconds the fleet draw spent above the cap."""
        return sum(self.node_over_cap_ws)

    @property
    def mean_watts(self) -> float:
        """Mean fleet draw over the accounted timeline."""
        span = sum(s.duration_s for s in self.segments)
        if span <= 0:
            return 0.0
        return self.fleet_energy_ws / span

    @property
    def shed(self) -> int:
        """Arrivals the governor dropped to stay under the cap."""
        return sum(count for _, count in self.shed_by_tier)

    def over_cap_ws_between(self, start_s: float, end_s: float) -> float:
        """Over-cap watt-seconds accrued inside ``[start_s, end_s)``.

        Segments partially overlapping the window contribute
        pro rata — the brownout walkthrough uses this to split the
        ledger into pre- and post-shift halves.
        """
        total = 0.0
        for segment in self.segments:
            overlap = (min(segment.end_s, end_s)
                       - max(segment.start_s, start_s))
            if overlap <= 0 or segment.duration_s <= 0:
                continue
            total += segment.over_cap_ws * overlap / segment.duration_s
        return total

    def summary(self) -> str:
        """Human-readable digest (printed by the examples)."""
        cap = ("uncapped" if math.isinf(self.cap_w)
               else f"cap {self.cap_w:.1f} W")
        lines = [
            f"PowerLedger[{cap}"
            + (f", shift to {self.cap_shift[1]:.1f} W at "
               f"{self.cap_shift[0]:.0f} s" if self.cap_shift else "")
            + (", enforced]" if self.enforced else ", cap-blind]"),
            f"  energy {self.fleet_energy_ws:.0f} Ws "
            f"(mean {self.mean_watts:.2f} W), over cap "
            f"{self.fleet_over_cap_ws:.1f} Ws, "
            f"{len(self.dvfs_transitions)} DVFS transitions, "
            f"{self.shed} shed",
        ]
        for i, name in enumerate(self.node_names):
            lines.append(
                f"    {name}: {self.node_energy_ws[i]:.0f} Ws, over cap "
                f"{self.node_over_cap_ws[i]:.1f} Ws, final DVFS level "
                f"{self.node_final_levels[i]}")
        return "\n".join(lines)


class _PowerGovernor:
    """Dispatch-time power accounting and enforcement (phase 1 only).

    Mutable companion of one :func:`plan_dispatch` walk; everything it
    produces lands in the plain-data :class:`FleetPowerReport`.
    """

    def __init__(self, config: FleetPowerConfig, specs, horizon_s: float,
                 recorder: Recorder = NULL_RECORDER):
        if len(config.ladders) != len(specs):
            raise ValueError(
                f"power config has {len(config.ladders)} ladders for "
                f"{len(specs)} nodes")
        self.config = config
        self.specs = list(specs)
        self.horizon_s = horizon_s
        self.recorder = recorder
        self.cap_w = config.cap_w
        n = len(self.specs)
        self.levels = [0] * n
        self.last_t = 0.0
        # ``_table[i][level][k]``: node i's draw at that DVFS level with
        # ``k`` of its ``capacity`` slots estimated live.  The walk only
        # prices integer occupancies; one above capacity reads column
        # ``capacity``, whose ``capacity / capacity`` is exactly the 1.0
        # the utilisation clamps to, so every lookup is the float a
        # per-query ``node_watts`` call would return.
        self._table = [
            [[state.node_watts(min(1.0, k / spec.capacity))
              for k in range(spec.capacity + 1)]
             for state in ladder]
            for spec, ladder in zip(self.specs, config.ladders)]
        # Draw per node over the segment currently being integrated.
        self._node_watts = [table[0][0] for table in self._table]
        self.node_energy = [0.0] * n
        self.node_over = [0.0] * n
        self.segments: list[PowerSegment] = []
        self.transitions: list[tuple[float, int, int]] = []
        self.shed_counts: dict[str, int] = {}

    # ------------------------------------------------------------ model
    def _watts(self, index: int, est_live: int,
               level: int | None = None) -> float:
        """An alive node's draw at an occupancy estimate (table lookup)."""
        row = self._table[index][
            self.levels[index] if level is None else level]
        return row[min(est_live, self.specs[index].capacity)]

    def _draws(self, loads, levels=None) -> list[float]:
        """Per-node draws in index order; a dead node draws 0."""
        return [self._watts(i, est_live,
                            None if levels is None else levels[i])
                if alive else 0.0
                for i, (alive, est_live) in enumerate(loads)]

    def speed_multiplier(self, index: int) -> float:
        """Current DVFS speed multiplier of one node."""
        return self.config.ladders[index][self.levels[index]] \
            .speed_multiplier

    def marginal_watts(self, index: int, est_live: int) -> float:
        """Extra draw of landing one more session on a node, as priced
        at its current DVFS state (0 once the occupancy estimate is
        saturated — but such nodes have no free slots to route to)."""
        return (self._watts(index, est_live + 1)
                - self._watts(index, est_live))

    # ------------------------------------------------------- accounting
    def advance(self, t: float) -> None:
        """Integrate the stored draw over ``[last_t, t)``.

        Idempotent at a single instant, so every handler of a same-time
        event batch may call it; the stored per-node draw only changes
        in :meth:`update`, after the event's mutations are applied.
        """
        end = min(t, self.horizon_s)
        if end <= self.last_t:
            return
        dt = end - self.last_t
        fleet = sum(self._node_watts)
        over_ws = max(0.0, fleet - self.cap_w) * dt
        for i, watts in enumerate(self._node_watts):
            self.node_energy[i] += watts * dt
            if over_ws > 0.0 and fleet > 0.0:
                share = watts / fleet
                self.node_over[i] += over_ws * share
                if self.recorder.enabled:
                    self.recorder.count(POWER_OVER_CAP_WS, over_ws * share,
                                        label=self.specs[i].name)
        self.segments.append(PowerSegment(
            start_s=self.last_t, end_s=end, watts=fleet, cap_w=self.cap_w))
        self.last_t = end

    def shift_cap(self, new_cap: float) -> None:
        """Put a new fleet cap in force (brownout instant)."""
        self.cap_w = new_cap

    # ------------------------------------------------------ enforcement
    def _step(self, t: float, index: int, new_level: int) -> None:
        self.levels[index] = new_level
        self.transitions.append((t, index, new_level))
        if self.recorder.enabled:
            self.recorder.count(
                POWER_DVFS_TRANSITIONS,
                label=f"{self.specs[index].name}/{new_level}")

    def update(self, t: float, loads) -> None:
        """Settle DVFS levels for the new occupancy and re-price nodes.

        Called after every event's mutations: steps nodes down their
        ladders while the fleet draw exceeds the cap (largest single-step
        saving first, lowest index on ties), then back up while the draw
        stays under ``hysteresis x cap`` (deepest-throttled node first).
        With ``enforce=False`` levels stay pinned at nominal and this
        only refreshes the stored draw.

        The fleet draw is always the builtin ``sum`` of the index-ordered
        per-node draws; a step or a trial replaces one entry of that list
        rather than adjusting a running total, so every ``> cap`` test
        sees the same float however the levels got there.
        """
        draws = self._draws(loads)
        if self.config.enforce:
            while sum(draws) > self.cap_w:
                best, saving = -1, 0.0
                for i, (alive, est_live) in enumerate(loads):
                    if not alive or self.levels[i] + 1 >= \
                            len(self._table[i]):
                        continue
                    gain = draws[i] - self._watts(i, est_live,
                                                  self.levels[i] + 1)
                    if gain > saving:
                        best, saving = i, gain
                if best < 0:
                    break
                self._step(t, best, self.levels[best] + 1)
                draws[best] = self._watts(best, loads[best][1])
            budget = self.cap_w * self.config.hysteresis
            while True:
                candidates = [i for i, (alive, _) in enumerate(loads)
                              if alive and self.levels[i] > 0]
                candidates.sort(key=lambda i: (-self.levels[i], i))
                for i in candidates:
                    trial = list(draws)
                    trial[i] = self._watts(i, loads[i][1],
                                           self.levels[i] - 1)
                    if sum(trial) <= budget:
                        self._step(t, i, self.levels[i] - 1)
                        draws = trial
                        break
                else:
                    break
        self._node_watts = draws
        if self.recorder.enabled:
            self.recorder.gauge(POWER_FLEET_WATTS, t, sum(draws))

    def should_shed(self, tier: str, loads) -> bool:
        """True when an arrival of ``tier`` must be dropped, not routed.

        Only sheddable tiers are ever dropped, and only when *no*
        placement could keep the fleet under the cap even with every
        alive node stepped to its ladder floor — if some node could
        absorb the session within budget, the governor routes and lets
        renegotiation do its job.
        """
        if not self.config.enforce or tier not in self.config.shed_tiers:
            return False
        if not any(alive for alive, _ in loads):
            return False          # no node at all: that is a *lost* arrival
        floors = [len(table) - 1 for table in self._table]
        draws = self._draws(loads, floors)
        best = math.inf
        for j, (alive, est_live) in enumerate(loads):
            if not alive:
                continue
            trial = list(draws)
            trial[j] = self._watts(j, est_live + 1, floors[j])
            best = min(best, sum(trial))
        return best > self.cap_w

    def record_shed(self, tier: str) -> None:
        """Count one dropped arrival against its tier."""
        self.shed_counts[tier] = self.shed_counts.get(tier, 0) + 1
        if self.recorder.enabled:
            self.recorder.count(POWER_SHED, label=tier)

    # ----------------------------------------------------------- report
    def finish(self) -> FleetPowerReport:
        """Close the final segment and freeze the ledger."""
        self.advance(self.horizon_s)
        return FleetPowerReport(
            cap_w=self.config.cap_w,
            cap_shift=self.config.cap_shift,
            enforced=self.config.enforce,
            node_names=tuple(spec.name for spec in self.specs),
            node_energy_ws=tuple(self.node_energy),
            node_over_cap_ws=tuple(self.node_over),
            node_final_levels=tuple(self.levels),
            dvfs_transitions=tuple(self.transitions),
            shed_by_tier=tuple(sorted(self.shed_counts.items())),
            segments=tuple(self.segments),
        )
