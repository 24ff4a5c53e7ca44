"""Layer tracing from outside the program.

Each boundary is named by the module and attribute its caller looks up
(``"repro.sim.engine:compute_stage_demands"`` is the demand builder as
``simulate_batch`` finds it).  :class:`Tracer` resolves the names when it
is installed, swaps in timing wrappers and puts the originals back on
removal.  Every target name that no longer resolves is listed in
:attr:`Tracer.absent` as ``"boundary:module:attr"`` (a boundary with no
target left reads 0); the run goes on.

Coarse boundaries record spans (name, start, end, parent).  Hot ones only
accumulate calls and time.  Both push onto one stack, so the self time of
any boundary is its duration minus the time of the traced calls made
directly inside it.  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class Boundary:
    """One traced entry point.

    ``targets`` are ``"module:attr"`` or ``"module:Class.method"`` names;
    ``subclasses`` also patches every subclass that overrides the method.
    ``observe(tracer, args, result, state)`` adds counters after a call;
    ``before(tracer, args)`` runs first and returns that ``state``.
    """

    name: str
    targets: tuple[str, ...]
    span: bool = False
    subclasses: bool = False
    before: Callable | None = None
    observe: Callable | None = None


def _predict_rows(tracer, args, result, state):
    tracer.count("core.predict.rows", len(args[2]))


def _forward_rows(tracer, args, result, state):
    tracer.count("estimator.forward.rows", args[1].shape[0])


def _cache_hits_before(tracer, args):
    return args[0].hits


def _cache_lookups(tracer, args, result, state):
    tracer.count("sim.cache.lookups", len(args[2]))
    tracer.count("sim.cache.hits", args[0].hits - state)


def _batch_size(tracer, args, result, state):
    tracer.count("sim.batch.size", len(args[1]))


def _solve_stats(tracer, args, result, state):
    solutions = result if isinstance(result, list) else [result]
    tracer.count("sim.solve.instances", len(solutions))
    tracer.count("sim.solve.iterations", sum(s.iterations for s in solutions))
    tracer.count("sim.solve.converged", sum(bool(s.converged)
                                            for s in solutions))


def _search_before(tracer, args):
    # MCTS self time excludes its evaluator: wrap the instance's evaluator
    # for the duration of this search.
    search = args[0]
    original = search.evaluator
    search.evaluator = tracer.wrap("search.evaluate", original)
    return original


def _search_stats(tracer, args, result, state):
    args[0].evaluator = state
    stats = result[1]
    tracer.count("search.evaluations", stats.evaluations)
    tracer.count("search.disqualified", stats.disqualified)


def _replan_kind(tracer, args, result, state):
    if result.kind == "warm_fallback":
        tracer.count("serve.replan.fallbacks", 1)


def _serve_sessions(tracer, args, result, state):
    tracer.count("serve.sessions", len(result.sessions))


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("runner.execute", ("repro.runner.runner:execute_scenario",),
             span=True),
    Boundary("core.plan", ("repro.core.manager:RankMap.plan",), span=True),
    Boundary("search.mcts", ("repro.search.mcts:MCTS.search",), span=True,
             before=_search_before, observe=_search_stats),
    Boundary("core.predict",
             ("repro.core.predictor:OraclePredictor.predict_batch",
              "repro.core.predictor:EstimatorPredictor.predict_batch"),
             observe=_predict_rows),
    Boundary("estimator.forward",
             ("repro.estimator.model:ThroughputEstimator.predict_rates",),
             observe=_forward_rows),
    Boundary("mapping.qtensor",
             ("repro.core.predictor:build_q_tensor_batch",)),
    Boundary("vqvae.embed", ("repro.vqvae:EmbeddingCache.for_workload",)),
    Boundary("sim.cache", ("repro.sim.cache:EvaluationCache.simulate",),
             before=_cache_hits_before, observe=_cache_lookups),
    Boundary("sim.batch", ("repro.sim.cache:simulate_batch",),
             observe=_batch_size),
    Boundary("sim.demands", ("repro.sim.engine:compute_stage_demands",)),
    Boundary("sim.solve", ("repro.sim.engine:solve_steady_state_batch",
                           "repro.sim.engine:solve_steady_state"),
             observe=_solve_stats),
    Boundary("serve.replan", ("repro.serve.replan:ReplanPolicy.replan",),
             span=True, subclasses=True, observe=_replan_kind),
    Boundary("serve.admission",
             ("repro.serve.admission:AdmissionController.decide_with_plan",)),
    Boundary("serve.event_core", ("repro.serve:serve_trace",
                                  "repro.serve.fleet.dispatch:serve_trace"),
             span=True, observe=_serve_sessions),
    Boundary("fleet.dispatch", ("repro.serve.fleet.dispatch:plan_dispatch",),
             span=True),
    Boundary("fleet.routing",
             ("repro.serve.fleet.routing:RoutingPolicy.choose",),
             subclasses=True),
    Boundary("hw.node_watts", ("repro.hw.energy:DvfsState.node_watts",)),
)


def _resolve(target: str):
    """``(owner, attr)`` for a ``module:path`` name, or None if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _owners(owner, attr: str, subclasses: bool) -> list:
    if not subclasses or not isinstance(owner, type):
        return [owner]
    found, todo = [], [owner]
    while todo:
        cls = todo.pop()
        if cls is owner or attr in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class _Frame:
    __slots__ = ("name", "start", "child", "span_index")

    def __init__(self, name: str, start: float, span_index: int | None):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_index = span_index


class Tracer:
    """Install timing wrappers at :data:`BOUNDARIES`; collect in memory."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.child_seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.absent: list[str] = []
        self.found: list[str] = []
        self.active = False
        self._stack: list[_Frame] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------- recording
    @contextlib.contextmanager
    def recording(self):
        """Record only inside this block (the timed operations)."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn: Callable, span: bool = False,
             before: Callable | None = None,
             observe: Callable | None = None) -> Callable:
        """``fn`` timed as boundary ``name``.

        Calls outside :meth:`recording` pass straight through, and so does
        a call made while the same boundary is already open (a subclass
        calling ``super()``, a wrapped policy calling its inner policy),
        so it is counted once.
        """
        stack, open_ = self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or open_[name]:
                return fn(*args, **kwargs)
            state = before(self, args) if before is not None else None
            span_index = None
            if span:
                parent = next((f.span_index for f in reversed(stack)
                               if f.span_index is not None), None)
                span_index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent))
            frame = _Frame(name, _clock(), span_index)
            stack.append(frame)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                open_[name] -= 1
                stack.pop()
                duration = end - frame.start
                self.calls[name] += 1
                self.seconds[name] += duration
                self.child_seconds[name] += frame.child
                if stack:
                    stack[-1].child += duration
                if span_index is not None:
                    self.spans[span_index] = (name, frame.start, end,
                                              self.spans[span_index][3])
            if observe is not None:
                observe(self, args, result, state)
            return result

        return traced

    # ------------------------------------------------------- installation
    def install(self) -> "Tracer":
        for boundary in BOUNDARIES:
            for target in boundary.targets:
                hit = _resolve(target)
                if hit is None:
                    self.absent.append(f"{boundary.name}:{target}")
                    continue
                self.found.append(f"{boundary.name}:{target}")
                owner, attr = hit
                for cls in _owners(owner, attr, boundary.subclasses):
                    own = attr in vars(cls)
                    original = getattr(cls, attr)
                    self._patches.append((cls, attr, vars(cls).get(attr),
                                          own))
                    setattr(cls, attr, self.wrap(
                        boundary.name, original, boundary.span,
                        boundary.before, boundary.observe))
        return self

    def remove(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------ reading
    def ms(self, name: str) -> float:
        return self.seconds.get(name, 0.0) * 1e3

    def self_ms(self, name: str) -> float:
        return (self.seconds.get(name, 0.0)
                - self.child_seconds.get(name, 0.0)) * 1e3

    def dump(self, path) -> None:
        """Write spans and totals as one JSON document."""
        payload = {
            "absent": self.absent,
            "totals": {name: {"calls": self.calls[name],
                              "seconds": self.seconds[name],
                              "self_seconds": self.seconds[name]
                              - self.child_seconds[name]}
                       for name in sorted(self.calls)},
            "counters": dict(sorted(self.counters.items())),
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (value, unit) a traced pass produced."""
    c, k = tracer.calls, tracer.counters
    plans = c.get("core.plan", 0)
    solves = k.get("sim.solve.instances", 0)
    sessions = k.get("serve.sessions", 0)
    return {
        "runner.self_ms": (tracer.self_ms("runner.execute"), "ms"),
        "core.plan.calls": (plans, "count"),
        "core.plan.ms": (tracer.ms("core.plan"), "ms"),
        "core.plan.retry_ratio": (
            _ratio(c.get("search.mcts", 0) - plans, plans), "ratio"),
        "core.predict.calls": (c.get("core.predict", 0), "count"),
        "core.predict.rows": (k.get("core.predict.rows", 0), "count"),
        "core.predict.self_ms": (tracer.self_ms("core.predict"), "ms"),
        "search.evaluations": (k.get("search.evaluations", 0), "count"),
        "search.disqualified_ratio": (
            _ratio(k.get("search.disqualified", 0),
                   k.get("search.evaluations", 0)), "ratio"),
        "search.mcts.self_ms": (tracer.self_ms("search.mcts"), "ms"),
        "estimator.forward.calls": (c.get("estimator.forward", 0), "count"),
        "estimator.forward.rows": (k.get("estimator.forward.rows", 0),
                                   "count"),
        "estimator.forward.ms": (tracer.ms("estimator.forward"), "ms"),
        "mapping.qtensor.ms": (tracer.ms("mapping.qtensor"), "ms"),
        "vqvae.embed.ms": (tracer.ms("vqvae.embed"), "ms"),
        "sim.cache.lookups": (k.get("sim.cache.lookups", 0), "count"),
        "sim.cache.hit_ratio": (_ratio(k.get("sim.cache.hits", 0),
                                       k.get("sim.cache.lookups", 0)),
                                "ratio"),
        "sim.cache.self_ms": (tracer.self_ms("sim.cache"), "ms"),
        "sim.batch.calls": (c.get("sim.batch", 0), "count"),
        "sim.batch.mean_size": (_ratio(k.get("sim.batch.size", 0),
                                       c.get("sim.batch", 0)), "count"),
        "sim.demands.calls": (c.get("sim.demands", 0), "count"),
        "sim.demands.ms": (tracer.ms("sim.demands"), "ms"),
        "sim.solve.calls": (c.get("sim.solve", 0), "count"),
        "sim.solve.ms": (tracer.ms("sim.solve"), "ms"),
        "sim.solve.iterations": (k.get("sim.solve.iterations", 0), "count"),
        "sim.solve.converged_ratio": (
            _ratio(k.get("sim.solve.converged", 0), solves), "ratio"),
        "serve.replan.calls": (c.get("serve.replan", 0), "count"),
        "serve.replan.ms": (tracer.ms("serve.replan"), "ms"),
        "serve.replan.fallback_ratio": (
            _ratio(k.get("serve.replan.fallbacks", 0),
                   c.get("serve.replan", 0)), "ratio"),
        "serve.admission.calls": (c.get("serve.admission", 0), "count"),
        "serve.admission.ms": (tracer.ms("serve.admission"), "ms"),
        "serve.event_core.self_ms": (tracer.self_ms("serve.event_core"),
                                     "ms"),
        "serve.event_core.us_per_session": (
            _ratio(tracer.self_ms("serve.event_core") * 1e3, sessions), "us"),
        "fleet.dispatch.ms": (tracer.ms("fleet.dispatch"), "ms"),
        "fleet.dispatch.self_ms": (tracer.self_ms("fleet.dispatch"), "ms"),
        "fleet.routing.calls": (c.get("fleet.routing", 0), "count"),
        "fleet.routing.ms": (tracer.ms("fleet.routing"), "ms"),
        "hw.node_watts.calls": (c.get("hw.node_watts", 0), "count"),
        "hw.node_watts.ms": (tracer.ms("hw.node_watts"), "ms"),
    }
