"""SLA service classes over multi-DNN workloads.

Sec. I of the paper: "Users are categorized into different SLA groups,
leading to multi-DNN workloads where each DNN has a different priority
level."  This module makes that concrete: a small tier ladder
(gold/silver/bronze) whose priorities weight RankMap's search, a
deterministic tier assignment for a workload, and a satisfaction report
over a simulated timeline (each tier demands a minimum potential
throughput P).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.dynamic import Timeline
from ..zoo.layers import ModelSpec

__all__ = [
    "SlaClass",
    "SlaAssignment",
    "SlaReport",
    "GOLD",
    "SILVER",
    "BRONZE",
    "SLA_TIERS",
    "assign_tiers",
    "evaluate_sla",
]


@dataclass(frozen=True)
class SlaClass:
    """One service tier: a priority weight and a minimum-P guarantee."""

    name: str
    priority: float          # relative weight fed to RankMap's p vector
    min_potential: float     # P the tier's DNNs must sustain

    def __post_init__(self):
        if self.priority <= 0:
            raise ValueError("priority must be positive")
        if not 0.0 <= self.min_potential <= 1.0:
            raise ValueError("min_potential must be within [0, 1]")


GOLD = SlaClass("gold", priority=0.7, min_potential=0.20)
SILVER = SlaClass("silver", priority=0.2, min_potential=0.08)
BRONZE = SlaClass("bronze", priority=0.1, min_potential=0.02)

#: Default tier ladder, highest first.
SLA_TIERS: tuple[SlaClass, ...] = (GOLD, SILVER, BRONZE)


@dataclass(frozen=True)
class SlaAssignment:
    """Tier per DNN name."""

    tiers: dict[str, SlaClass]

    def tier_of(self, name: str) -> SlaClass:
        return self.tiers[name]


def assign_tiers(workload: list[ModelSpec],
                 tier_of: dict[str, str] | None = None,
                 tiers: tuple[SlaClass, ...] = SLA_TIERS) -> SlaAssignment:
    """Assign a tier to every workload DNN.

    Without ``tier_of``, tiers are assigned round-robin in workload order
    starting from the highest tier — one gold DNN, then silver, bronze,
    gold, ... — a simple deterministic default for experiments.
    """
    by_name = {t.name: t for t in tiers}
    assignment: dict[str, SlaClass] = {}
    for i, model in enumerate(workload):
        if tier_of is not None:
            try:
                tier_name = tier_of[model.name]
            except KeyError:
                raise ValueError(f"no tier given for {model.name!r}") from None
            try:
                assignment[model.name] = by_name[tier_name]
            except KeyError:
                raise ValueError(f"unknown tier {tier_name!r}") from None
        else:
            assignment[model.name] = tiers[i % len(tiers)]
    return SlaAssignment(assignment)


@dataclass(frozen=True)
class SlaReport:
    """Satisfaction summary of one timeline against an assignment."""

    violation_seconds: float        # total time spent in violation
    observed_seconds: float         # total time DNNs were mapped
    mean_potential_by_tier: dict[str, float]

    @property
    def satisfied(self) -> bool:
        """No DNN fell below its tier's minimum P (each violating segment
        has positive duration, all of it counted in ``violation_seconds``)."""
        return self.violation_seconds == 0.0

    @property
    def violation_fraction(self) -> float:
        """Fraction of mapped DNN-time spent below the tier guarantee."""
        if self.observed_seconds <= 0:
            return 0.0
        return self.violation_seconds / self.observed_seconds


def evaluate_sla(timeline: Timeline, assignment: SlaAssignment,
                 settle_seconds: float = 0.0) -> SlaReport:
    """Score a timeline against per-tier minimum-P guarantees.

    ``settle_seconds`` exempts the start of the scenario — managers need
    one decision latency before the first mapping exists, and an SLA over
    that window would penalise every manager equally and uninformatively.
    """
    violation_time = 0.0
    observed_time = 0.0
    tier_acc: dict[str, list[tuple[float, float]]] = {}

    for segment in timeline.segments:
        if segment.t_end <= settle_seconds:
            continue
        start = max(segment.t_start, settle_seconds)
        duration = segment.t_end - start
        if duration <= 0:
            continue
        for name, potential in segment.potentials.items():
            tier = assignment.tiers.get(name)
            if tier is None:
                continue
            observed_time += duration
            tier_acc.setdefault(tier.name, []).append((potential, duration))
            if potential < tier.min_potential:
                violation_time += duration

    means = {
        tier_name: (sum(p * d for p, d in acc) / sum(d for _, d in acc))
        for tier_name, acc in tier_acc.items()
    }
    return SlaReport(
        violation_seconds=violation_time,
        observed_seconds=observed_time,
        mean_potential_by_tier=means,
    )
