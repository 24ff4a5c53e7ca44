"""Fleet-scale scenario execution: declarative specs + a process pool.

Three spec kinds ride the same :class:`ScenarioRunner` pool mechanics:

* :class:`Scenario` — one static (workload, platform, manager) planning
  problem, executed by :func:`execute_scenario`.
* :class:`DynamicScenario` — one online-serving study (a Poisson trace
  through :mod:`repro.serve`), executed by
  :func:`execute_dynamic_scenario`.
* :class:`FleetScenario` — one cluster study: N heterogeneous nodes
  sharing a demand via the :mod:`repro.serve.fleet` dispatcher, with the
  node slices fanned across the pool by
  :meth:`ScenarioRunner.run_fleet`.

Every spec is a few registry keys and scalars, so it ships to a worker
as bytes and every result is bit-identical for any worker count.
"""

from .managers import (
    MANAGER_SPECS,
    PLATFORM_SPECS,
    build_manager,
    resolve_predictor,
)
from .runner import (
    FleetNodeTask,
    ScenarioRunner,
    execute_dynamic_scenario,
    execute_fleet_node,
    execute_scenario,
    sample_fleet_requests,
)
from .scenario import (
    DynamicResult,
    DynamicScenario,
    FleetResult,
    FleetScenario,
    Scenario,
    ScenarioResult,
    dynamic_sweep_scenarios,
    fleet_sweep_scenarios,
    mix_scenarios,
    summarise,
    summarise_dynamic,
    summarise_fleet,
)

__all__ = [
    "Scenario",
    "ScenarioResult",
    "DynamicScenario",
    "DynamicResult",
    "FleetScenario",
    "FleetResult",
    "FleetNodeTask",
    "ScenarioRunner",
    "mix_scenarios",
    "dynamic_sweep_scenarios",
    "fleet_sweep_scenarios",
    "summarise",
    "summarise_dynamic",
    "summarise_fleet",
    "build_manager",
    "resolve_predictor",
    "execute_scenario",
    "execute_dynamic_scenario",
    "execute_fleet_node",
    "sample_fleet_requests",
    "MANAGER_SPECS",
    "PLATFORM_SPECS",
]
