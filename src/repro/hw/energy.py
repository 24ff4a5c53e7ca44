"""Platform power and energy model (extension; see DESIGN.md §6).

The paper optimises throughput only, but its sequel line of work
(MapFormer, ICCAD 2024 — reference [2] of the paper) co-optimises
throughput and power on the same class of boards.  This module adds the
measurement side of that extension: a utilisation-driven power model per
component and a steady-state power report for any simulated mapping,
which :class:`repro.core.power.PowerAwareRankMap` uses as its search
signal.

Model shape: each component draws ``idle_w`` when powered plus a dynamic
term that scales with its utilisation, ``P_c = idle + dyn · util^gamma``.
``gamma < 1`` captures race-to-idle effects (clock/power gating recovers
less than linearly as load drops); ``gamma = 1`` is the classic
linear-in-activity CMOS approximation.  Numbers for the Orange Pi 5 preset
are public-datasheet estimates, not board measurements — they set plausible
*relative* magnitudes (the big cluster burns ~3x the LITTLE cluster at full
tilt; the GPU is the most efficient MAC engine), which is all the mapping
comparisons need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..mapping.mapping import Mapping
from ..zoo.layers import ModelSpec
from .platform import Platform

__all__ = [
    "ComponentPower",
    "PlatformPower",
    "DvfsState",
    "EnergyReport",
    "orange_pi_5_power",
    "jetson_class_power",
    "dvfs_ladder",
    "interference_inflation",
    "inflated_component_utilisation",
    "energy_report",
]


@dataclass(frozen=True)
class ComponentPower:
    """Power envelope of one computing component."""

    name: str
    idle_w: float            # static draw while powered (W)
    dynamic_w: float         # extra draw at 100 % utilisation (W)
    util_exponent: float = 0.9

    def __post_init__(self):
        if self.idle_w < 0 or self.dynamic_w < 0:
            raise ValueError(f"{self.name}: power terms must be >= 0")
        if self.util_exponent <= 0:
            raise ValueError(f"{self.name}: util_exponent must be positive")

    def watts(self, utilisation: float) -> float:
        """Instantaneous draw at a utilisation, clamped to [0, 1]."""
        u = min(max(float(utilisation), 0.0), 1.0)
        return self.idle_w + self.dynamic_w * u ** self.util_exponent


@dataclass(frozen=True)
class PlatformPower:
    """Per-component power models plus uncore/board overhead."""

    components: tuple[ComponentPower, ...]
    board_overhead_w: float = 0.0   # SoC uncore, DRAM refresh, rails, ...

    def __post_init__(self):
        if self.board_overhead_w < 0:
            raise ValueError("board_overhead_w must be >= 0")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component power names: {names}")

    def matches(self, platform: Platform) -> bool:
        """True when component names align positionally with ``platform``."""
        if len(self.components) != platform.num_components:
            return False
        return all(p.name == platform.component(i).name
                   for i, p in enumerate(self.components))

    def system_watts(self, utilisations: Sequence[float]) -> float:
        """Total board draw for per-component utilisations (any sized
        sequence of scalars, e.g. a 1-D array or a tuple)."""
        if len(utilisations) != len(self.components):
            raise ValueError("utilisation vector must match components")
        return self.board_overhead_w + sum(
            c.watts(u) for c, u in zip(self.components, utilisations))


@dataclass(frozen=True)
class DvfsState:
    """One DVFS operating point: a relative speed and its power envelope.

    ``speed_multiplier`` scales the node's nominal steady-state speed
    (1.0 is the top frequency; lower states trade throughput for watts);
    ``power`` is the whole platform's envelope *at that operating point*.
    Fleet nodes carry a small descending ladder of these
    (:func:`dvfs_ladder`) and the dispatcher's power governor steps down
    it when the fleet is over its cap.
    """

    speed_multiplier: float
    power: PlatformPower

    def __post_init__(self):
        if not 0.0 < self.speed_multiplier <= 1.0:
            raise ValueError(
                f"speed_multiplier must be in (0, 1], "
                f"got {self.speed_multiplier}")

    def node_watts(self, utilisation: float) -> float:
        """Board draw at a scalar occupancy-style utilisation in [0, 1].

        The fleet dispatcher cannot see per-component utilisations (nodes
        serve after the plan is fixed), so it prices a node by applying
        one occupancy fraction uniformly across the envelope's
        components.
        """
        u = min(max(float(utilisation), 0.0), 1.0)
        return self.power.system_watts((u,) * len(self.power.components))


def dvfs_ladder(power: PlatformPower,
                multipliers: tuple[float, ...] = (1.0, 0.8, 0.6),
                ) -> tuple[DvfsState, ...]:
    """Build a descending DVFS ladder from a nominal power envelope.

    ``multipliers`` must start at 1.0 (the nominal operating point) and
    strictly decrease.  Each lower state scales every component's dynamic
    draw by ``m**3`` (the classic ``P ~ f * V^2`` CMOS scaling with
    voltage tracking frequency) and its idle draw by ``m`` (lower rails
    leak less); board overhead — rails, DRAM refresh — is frequency-blind
    and kept as is.
    """
    if not multipliers or multipliers[0] != 1.0:
        raise ValueError("multipliers must start at the nominal 1.0 state")
    if any(b >= a for a, b in zip(multipliers, multipliers[1:])):
        raise ValueError(
            f"multipliers must strictly decrease, got {multipliers}")
    states = []
    for m in multipliers:
        components = tuple(
            ComponentPower(name=c.name, idle_w=c.idle_w * m,
                           dynamic_w=c.dynamic_w * m ** 3,
                           util_exponent=c.util_exponent)
            for c in power.components)
        states.append(DvfsState(
            speed_multiplier=m,
            power=PlatformPower(components=components,
                                board_overhead_w=power.board_overhead_w)))
    return tuple(states)


def orange_pi_5_power() -> PlatformPower:
    """Estimated power envelopes for the paper's Orange Pi 5 (RK3588S)."""
    return PlatformPower(
        components=(
            ComponentPower("gpu", idle_w=0.30, dynamic_w=4.0),
            ComponentPower("big", idle_w=0.35, dynamic_w=4.5),
            ComponentPower("little", idle_w=0.15, dynamic_w=1.3),
        ),
        board_overhead_w=1.5,
    )


def jetson_class_power() -> PlatformPower:
    """Estimated power envelopes matching :func:`repro.hw.jetson_class`.

    Orin-NX-class module budgets (10-25 W modes): the Ampere iGPU
    dominates the envelope; the two 3-core A78AE groups are symmetric.
    """
    return PlatformPower(
        components=(
            ComponentPower("gpu", idle_w=0.8, dynamic_w=12.0),
            ComponentPower("big", idle_w=0.4, dynamic_w=3.6),
            ComponentPower("little", idle_w=0.4, dynamic_w=3.4),
        ),
        board_overhead_w=3.0,
    )


@dataclass(frozen=True)
class EnergyReport:
    """Power/energy accounting for one mapping at steady state.

    ``component_utilisation`` is the solver's utilisation clipped to
    [0, 1] — the busy fraction the power model converts to watts (a
    component cannot draw more than its 100 %-busy power).
    """

    component_names: tuple[str, ...]
    component_utilisation: np.ndarray
    component_watts: np.ndarray        # per component, incl. its idle term
    system_watts: float                # components + board overhead
    workload_names: tuple[str, ...]
    rates: np.ndarray                  # inferences/s per DNN

    @property
    def total_throughput(self) -> float:
        """Sum of per-DNN rates (inferences/s)."""
        return float(self.rates.sum())

    @property
    def inferences_per_joule(self) -> float:
        """System energy efficiency: total inferences per joule.

        Degenerate cases report 0.0, never ``inf``: zero throughput
        earns nothing per joule, and a zero/negative-watts envelope (an
        all-zero power model) has no meaningful efficiency — returning
        ``inf`` would poison ``reward / watts`` comparisons and JSON
        export alike.
        """
        throughput = self.total_throughput
        if throughput <= 0 or self.system_watts <= 0:
            return 0.0
        return throughput / self.system_watts

    def __repr__(self) -> str:
        return (f"EnergyReport({self.system_watts:.2f} W, "
                f"{self.total_throughput:.2f} inf/s, "
                f"{self.inferences_per_joule:.2f} inf/J)")


def interference_inflation(platform: Platform, demands) -> np.ndarray:
    """Per-component demand inflation from co-resident DNN contexts.

    Each component's factor is its
    :meth:`~repro.hw.component.Component.interference_factor` at the
    number of distinct DNNs with at least one stage resident there — the
    same contention model the steady-state solver applies.  ``demands``
    is the :func:`repro.sim.demands.compute_stage_demands` list.
    """
    inflation = np.ones(platform.num_components)
    for c in range(platform.num_components):
        contexts = len({d.dnn_index for d in demands if d.component == c})
        if contexts:
            inflation[c] = platform.component(c).interference_factor(contexts)
    return inflation


def inflated_component_utilisation(demands, rates: np.ndarray,
                                   platform: Platform) -> np.ndarray:
    """Raw per-component busy fraction at given per-DNN rates.

    Sums ``rate x interference-inflated service demand`` over the
    resident stages of each component: at the solver's rates, the
    solver's ``component_utilisation`` that :func:`energy_report` prices,
    up to rounding (``rate x seconds x inflation`` here, ``rate x
    (seconds x inflation)`` there, so the last bit may differ).
    :meth:`repro.core.power.PowerAwareRankMap.estimated_watts` prices it
    at predicted rates.  The result is *unclipped*: values above 1.0 mean
    the rates oversubscribe the component.
    """
    inflation = interference_inflation(platform, demands)
    util = np.zeros(platform.num_components)
    for d in demands:
        util[d.component] += (rates[d.dnn_index] * d.seconds_per_inference
                              * inflation[d.component])
    return util


def energy_report(workload: list[ModelSpec], mapping: Mapping,
                  platform: Platform, power: PlatformPower) -> EnergyReport:
    """Simulate ``mapping`` and account its steady-state power draw.

    Each component is priced at the solver's utilisation, clipped to
    [0, 1]; ``system_watts`` adds the board overhead.
    """
    from ..sim.engine import simulate

    if not power.matches(platform):
        raise ValueError("power model does not match platform components")

    solution = simulate(workload, mapping, platform).solution
    util = np.clip(np.asarray(solution.component_utilisation, dtype=float),
                   0.0, 1.0)
    watts = np.array([c.watts(u)
                      for c, u in zip(power.components, util)])
    return EnergyReport(
        component_names=tuple(c.name for c in power.components),
        component_utilisation=util,
        component_watts=watts,
        system_watts=power.system_watts(util),
        workload_names=tuple(m.name for m in workload),
        rates=solution.rates,
    )
