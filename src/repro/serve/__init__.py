"""Online serving layer: admission control + warm-start replanning.

The paper's motivating setting — an edge data center where multiple users
submit DNN queries — is a *serving* problem, not a one-shot planning
problem.  This subsystem closes that gap:

* :mod:`repro.serve.admission` — SLA-tier-aware accept/queue/reject
  decisions instead of the blind ``max_concurrent`` drop.
* :mod:`repro.serve.preempt` — pluggable preemption: a blocked
  higher-tier arrival may evict (suspend + later resume) or tier-demote
  a running lower-tier session instead of waiting behind it.
* :mod:`repro.serve.replan` — pluggable replanning on every workload
  change: full search, warm start from the incumbent mapping, or a plan
  cache keyed on the canonical workload.
* :mod:`repro.serve.loop` — the serving handlers tying both to the
  steady-state simulator over :class:`repro.sim.dynamic.EventCore`, the
  event core the scenario replay runs too.  Arrivals stream: any ordered
  iterable of requests works, so million-session traces are served
  without ever being materialised.  The pre-streaming loop survives as a
  test-only oracle, ``tests/oracles/serve_reference.py``; the property
  suite pins the two bit-identical.
* :mod:`repro.serve.report` — plain-data per-session and aggregate
  outcomes (:class:`ServeReport`), safe to ship across process pools.
* :mod:`repro.serve.fleet` — the cluster layer: a dispatcher routing one
  shared demand across N heterogeneous nodes (round-robin, least-loaded,
  tier-affinity), with node-failure draining and a :class:`FleetReport`
  rollup of per-node reports.

``repro.runner.DynamicScenario`` wraps a single node into a declarative
spec for dynamic-traffic sweeps; ``repro.runner.FleetScenario`` does the
same for whole fleets, fanning nodes across the process pool.

Every decision point accepts a :class:`repro.obs.Recorder` (default: the
zero-overhead null recorder) — see :mod:`repro.obs` for the deterministic
telemetry subsystem and its bit-identical-reports contract.
"""

from .admission import (
    ADMIT,
    PREEMPT,
    QUEUE,
    REJECT,
    AdmissionConfig,
    AdmissionController,
)
from .loop import ServeConfig, serve_trace
from .preempt import (
    PREEMPTION_POLICIES,
    EvictLowestTier,
    LiveView,
    NoPreempt,
    PreemptionDecision,
    PreemptionPolicy,
    RenegotiateTier,
    build_preemption_policy,
)
from .replan import (
    REPLAN_POLICIES,
    FullReplan,
    PlanCacheReplan,
    ReplanOutcome,
    ReplanPolicy,
    WarmStartReplan,
    build_replan_policy,
)
from .report import ServeReport, SessionOutcome

__all__ = [
    "ADMIT",
    "QUEUE",
    "REJECT",
    "PREEMPT",
    "AdmissionConfig",
    "AdmissionController",
    "PreemptionPolicy",
    "PreemptionDecision",
    "LiveView",
    "NoPreempt",
    "EvictLowestTier",
    "RenegotiateTier",
    "PREEMPTION_POLICIES",
    "build_preemption_policy",
    "ServeConfig",
    "serve_trace",
    "ReplanPolicy",
    "ReplanOutcome",
    "FullReplan",
    "WarmStartReplan",
    "PlanCacheReplan",
    "REPLAN_POLICIES",
    "build_replan_policy",
    "ServeReport",
    "SessionOutcome",
]
