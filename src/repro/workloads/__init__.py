"""Workload construction: mixes, dynamic scenarios, traces and SLA groups.

The paper evaluates RankMap on three workload shapes, all reproduced here
as a public API:

* :mod:`repro.workloads.mixes` — the Sec. II motivation workload and the
  Sec. V random mixes of 3/4/5 concurrent DNNs.
* :mod:`repro.workloads.scenarios` — the Fig. 8 staggered-arrival scenario
  and the Fig. 10 user-priority-shift scenario, plus the generic builders
  they are instances of.
* :mod:`repro.workloads.traces` — stochastic edge-data-center traces
  (Poisson query arrivals with finite sessions), the setting the paper's
  introduction motivates.
* :mod:`repro.workloads.sla` — SLA service classes ("users are categorised
  into different SLA groups", Sec. I) mapped onto RankMap priority vectors,
  with satisfaction reporting over simulated timelines.
"""

from .mixes import MOTIVATION_WORKLOAD, motivation_workload, sample_mix
from .scenarios import (
    FIG8_ARRIVALS,
    FIG8_HORIZON,
    FIG10_HORIZON,
    FIG10_STAGES,
    FIG10_WORKLOAD,
    fig8_events,
    fig10_events,
    rotating_priority_schedule,
    staggered_arrivals,
)
from .sla import (
    BRONZE,
    GOLD,
    SILVER,
    SLA_TIERS,
    SlaAssignment,
    SlaClass,
    SlaReport,
    assign_tiers,
    evaluate_sla,
)
from .traces import (
    SessionRequest,
    TraceConfig,
    check_tier_shift_prob,
    fleet_demand_config,
    iter_session_requests,
    poisson_trace,
    sample_session_requests,
    split_session_requests,
    trace_peak_concurrency,
)

__all__ = [
    "MOTIVATION_WORKLOAD",
    "motivation_workload",
    "sample_mix",
    "FIG8_ARRIVALS",
    "FIG8_HORIZON",
    "fig8_events",
    "FIG10_WORKLOAD",
    "FIG10_STAGES",
    "FIG10_HORIZON",
    "fig10_events",
    "staggered_arrivals",
    "rotating_priority_schedule",
    "TraceConfig",
    "SessionRequest",
    "poisson_trace",
    "check_tier_shift_prob",
    "iter_session_requests",
    "sample_session_requests",
    "trace_peak_concurrency",
    "fleet_demand_config",
    "split_session_requests",
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
