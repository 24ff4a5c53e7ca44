"""Dynamic scenarios: Fig. 8 staggered arrivals and Fig. 10 priority shifts.

Both paper scenarios are instances of two generic builders —
:func:`staggered_arrivals` (DNNs arriving on a fixed cadence) and
:func:`rotating_priority_schedule` (the user moving the high priority
around a fixed workload) — so downstream users can construct their own
variants with different models, cadences or priority levels.
"""

from __future__ import annotations

from ..sim.dynamic import ScenarioEvent, arrival, priority_change
from ..zoo.layers import ModelSpec
from ..zoo.registry import get_model

__all__ = [
    "FIG8_ARRIVALS",
    "FIG8_HORIZON",
    "fig8_events",
    "FIG10_WORKLOAD",
    "FIG10_STAGES",
    "FIG10_HORIZON",
    "fig10_events",
    "staggered_arrivals",
    "rotating_priority_schedule",
]

#: Fig. 8 arrival order: (time in seconds, model name).
FIG8_ARRIVALS: tuple[tuple[float, str], ...] = (
    (0.0, "inception_resnet_v1"),
    (150.0, "alexnet"),
    (300.0, "squeezenet"),
    (450.0, "resnet50"),
)
FIG8_HORIZON = 600.0

#: Fig. 10 fixed workload and its priority-rotation order.
FIG10_WORKLOAD: tuple[str, ...] = (
    "mobilenet_v2", "squeezenet", "shufflenet", "alexnet",
)
FIG10_STAGES: tuple[tuple[float, str], ...] = (
    (0.0, "mobilenet_v2"),
    (150.0, "shufflenet"),
    (300.0, "alexnet"),
    (450.0, "squeezenet"),
)
FIG10_HORIZON = 600.0


def staggered_arrivals(models: list[ModelSpec],
                       period: float = 150.0,
                       start: float = 0.0) -> list[ScenarioEvent]:
    """Arrival events for ``models`` spaced ``period`` seconds apart."""
    if period <= 0:
        raise ValueError("period must be positive")
    return [arrival(start + i * period, m) for i, m in enumerate(models)]


def rotating_priority_schedule(models: list[ModelSpec],
                               order: list[str],
                               stage_seconds: float = 150.0,
                               high: float = 0.7,
                               low: float = 0.1) -> list[ScenarioEvent]:
    """All models arrive at t=0; the ``high`` priority rotates over ``order``.

    Stage ``k`` (starting at ``k * stage_seconds``) gives ``order[k]`` the
    high priority and every other model the low one — the Fig. 10 shape.
    """
    if stage_seconds <= 0:
        raise ValueError("stage_seconds must be positive")
    names = {m.name for m in models}
    unknown = [n for n in order if n not in names]
    if unknown:
        raise ValueError(f"priority order names not in workload: {unknown}")
    events = [arrival(0.0, m) for m in models]
    for k, critical in enumerate(order):
        vector = {m.name: (high if m.name == critical else low)
                  for m in models}
        events.append(priority_change(k * stage_seconds, vector))
    return events


def fig8_events() -> list[ScenarioEvent]:
    """The paper's Fig. 8 dynamic scenario (arrivals every 150 s)."""
    return staggered_arrivals([get_model(name) for _, name in FIG8_ARRIVALS],
                              period=150.0)


def fig10_events(high: float = 0.7, low: float = 0.1) -> list[ScenarioEvent]:
    """The paper's Fig. 10 scenario (priority shifts every 150 s)."""
    models = [get_model(n) for n in FIG10_WORKLOAD]
    order = [critical for _, critical in FIG10_STAGES]
    return rotating_priority_schedule(models, order, stage_seconds=150.0,
                                      high=high, low=low)
