"""Steady-state contention solver.

Models how co-resident pipeline stages share each computing component:

* **Interference** — every demand on a component with ``n`` resident stages
  is inflated by ``1 + α·(n−1)^β`` (cache/memory-system thrashing; the GPU's
  α is the largest, which is what collapses the all-on-GPU baseline).
* **Scheduling** — each component divides its time between resident stages
  with entitlements ∝ ``demand^κ`` (``κ = sharing_bias``): fair processor
  sharing on the CPU clusters, service-time-biased sharing on the GPU whose
  non-preemptive command queues favour long-kernel contexts.
* **Head-of-line blocking** — on a non-preemptive component every kernel
  launch of a stage may have to wait behind a co-resident's running kernel:
  a stage with ``L`` launches pays ``hol · L · Σ_t u_t · k_t`` extra seconds
  per inference, where ``u_t`` is the co-resident's utilisation and ``k_t``
  its mean kernel time.  Because the blocking term scales with utilisation
  it is solved inside the fixed point; it is the board effect that starves
  many-kernel light DNNs (SqueezeNet) sharing a saturated GPU with
  long-kernel heavy DNNs (VGG) — the paper's baseline pathology.
* **Work conservation** — a stage that is not its DNN's bottleneck only
  consumes what the pipeline feeds it; the surplus is redistributed to
  co-resident stages that can use it.

The resulting allocation is the fixed point of a damped iteration:
``rate_i = min_s alloc_s / demand_s`` coupled with per-component
water-filling of allocations.  Every DNN's steady-state throughput is its
bottleneck stage's rate, the classic pipeline result.

Two entry points compute the same fixed point:

* :func:`solve_steady_state` — one mapping in numpy, the paper-faithful
  reference.  It is the test oracle, and the production path on hosts
  with no C compiler.
* :func:`solve_steady_state_batch` — B mappings packed into flat arrays
  and solved by the C kernel ``_csolver.c`` (built on demand by
  :mod:`repro.sim._cext`).  The kernel repeats the oracle's operations in
  the oracle's order, so the contract is bit identity: rates, stage
  allocations, stage demands, utilisation, iteration counts and
  convergence flags all equal the oracle's exactly
  (``tests/property/test_solver_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.platform import Platform
from . import _cext
from .demands import StageDemand

__all__ = [
    "ContentionSolution",
    "solve_steady_state",
    "solve_steady_state_batch",
]

_MAX_ITER = 800
_DAMPING = 0.85
_TOL = 1e-8
# The discrete bottleneck-set switching can produce small limit cycles; a
# cycle with relative amplitude below this is resolved to its time average
# (the physical system time-shares through the same oscillation).
_CYCLE_WINDOW = 40
_CYCLE_TOL = 0.03
_CYCLE_BURN_IN = 150


@dataclass(frozen=True)
class ContentionSolution:
    """Solver output: per-DNN rates plus diagnostics."""

    rates: np.ndarray              # inferences/s per DNN
    stage_allocations: np.ndarray  # component-time fraction per stage
    stage_demands: np.ndarray      # effective (interference-inflated) demands
    component_utilisation: np.ndarray
    iterations: int
    converged: bool


def _segment_sum(values: np.ndarray, segments: np.ndarray,
                 num_segments: int) -> np.ndarray:
    """Sum ``values`` into ``num_segments`` buckets, sequentially in index
    order, with the rounding the C kernel's stage-order loops reproduce
    (``bincount`` walks the input in order, like ``add.at``, but in a
    single C pass)."""
    return np.bincount(segments, weights=values, minlength=num_segments)


def _context_counts(comp_of: np.ndarray, dnn_of: np.ndarray,
                    num_components: int, num_dnns: int) -> np.ndarray:
    """Distinct resident DNN contexts per component."""
    present = np.zeros((num_components, num_dnns), dtype=bool)
    present[comp_of, dnn_of] = True
    return present.sum(axis=1)


def _interference_table(platform: Platform, num_dnns: int) -> np.ndarray:
    """``gamma[c, n]`` = demand inflation of component ``c`` with ``n``
    resident DNN contexts; indexing the table reproduces the scalar calls
    to :meth:`ComputeComponent.interference_factor` exactly."""
    table = np.empty((platform.num_components, num_dnns + 1))
    for c in range(platform.num_components):
        comp = platform.component(c)
        for n in range(num_dnns + 1):
            table[c, n] = comp.interference_factor(n)
    return table


def _empty_solution(num_dnns: int, platform: Platform) -> ContentionSolution:
    return ContentionSolution(
        rates=np.zeros(num_dnns), stage_allocations=np.zeros(0),
        stage_demands=np.zeros(0),
        component_utilisation=np.zeros(platform.num_components),
        iterations=0, converged=True,
    )


def solve_steady_state(demands: list[StageDemand], num_dnns: int,
                       platform: Platform,
                       max_iter: int = _MAX_ITER) -> ContentionSolution:
    """Solve steady-state per-DNN inference rates for one mapping.

    ``max_iter`` caps the fixed-point iteration (the default is the
    production budget; tests lower it to exercise the non-converged path).
    """
    if not demands:
        return _empty_solution(num_dnns, platform)

    n_stages = len(demands)
    num_comp = platform.num_components
    comp_of = np.array([d.component for d in demands])
    dnn_of = np.array([d.dnn_index for d in demands])
    base_demand = np.array([d.seconds_per_inference for d in demands])
    if np.any(base_demand <= 0):
        raise ValueError("stage demands must be positive")

    # Interference-inflated demands: thrashing grows with the number of
    # distinct DNN contexts resident on the component.
    gamma_table = _interference_table(platform, num_dnns)
    contexts = _context_counts(comp_of, dnn_of, num_comp, num_dnns)
    inflated = base_demand * gamma_table[comp_of, contexts[comp_of]]

    kernels = np.array([max(1, d.num_kernels) for d in demands], dtype=np.float64)
    kernel_time = base_demand / kernels
    hol_coeff = np.array([
        platform.component(int(c)).hol_blocking for c in comp_of
    ])

    # Scheduling entitlements: weight ∝ demand^κ per component.
    kappa = np.array([platform.component(c).sharing_bias
                      for c in range(num_comp)])
    weights = inflated ** kappa[comp_of]
    alloc = weights / _segment_sum(weights, comp_of, num_comp)[comp_of]

    rates = np.zeros(num_dnns)
    hol_wait = np.zeros(n_stages)
    history: list[np.ndarray] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # Head-of-line waiting per inference, from current utilisations:
        # each launch waits behind co-residents in proportion to how busy
        # they keep the component.
        if hol_coeff.any():
            busy = rates[dnn_of] * inflated          # per-stage utilisation
            blocked = busy * kernel_time             # u_t * k_t
            totals = _segment_sum(blocked, comp_of, num_comp)
            new_wait = hol_coeff * kernels * (totals[comp_of] - blocked)
            # Damped so the rate<->waiting feedback loop cannot oscillate.
            hol_wait = _DAMPING * hol_wait + (1.0 - _DAMPING) * new_wait

        # A stage's rate is capped by its capacity share and by the serial
        # latency ceiling (service + waiting); a DNN runs at its slowest
        # stage's rate (pipeline bottleneck).
        cap_rate = alloc / inflated
        ceiling_rate = 1.0 / (inflated + hol_wait)
        stage_rate = np.minimum(cap_rate, ceiling_rate)
        new_rates = np.full(num_dnns, np.inf)
        np.minimum.at(new_rates, dnn_of, stage_rate)
        new_rates[np.isinf(new_rates)] = 0.0  # DNNs with no stages

        # Water-fill each component: non-bottleneck stages keep only what
        # they use; capacity-limited bottleneck stages split the remainder
        # by entitlement.  Ceiling-limited stages gain nothing from more
        # capacity, so they are treated as satisfied.  Components with no
        # capacity-hungry stage keep their allocations as-is.
        need = new_rates[dnn_of] * inflated
        limiting = stage_rate <= new_rates[dnn_of] * (1 + 1e-9)
        wants_more = limiting & (cap_rate <= ceiling_rate)
        sat_need = _segment_sum(np.where(wants_more, 0.0, need),
                                comp_of, num_comp)
        hot_weight = _segment_sum(np.where(wants_more, weights, 0.0),
                                  comp_of, num_comp)
        has_hot = hot_weight[comp_of] > 0.0
        free = np.maximum(1.0 - sat_need, 0.0)
        target = np.where(
            has_hot,
            np.where(wants_more,
                     free[comp_of] * weights
                     / np.where(hot_weight[comp_of] > 0.0,
                                hot_weight[comp_of], 1.0),
                     need),
            alloc,
        )

        max_rate = new_rates.max() if new_rates.size else 0.0
        if np.abs(new_rates - rates).max() <= _TOL * max(max_rate, 1e-12):
            rates = new_rates
            converged = True
            break
        rates = new_rates
        # Only the last _CYCLE_WINDOW iterates can ever be inspected, and
        # the first inspection happens at _CYCLE_BURN_IN.
        if iterations > _CYCLE_BURN_IN - _CYCLE_WINDOW:
            history.append(new_rates.copy())
        if len(history) > _CYCLE_WINDOW:
            history.pop(0)
        if iterations >= _CYCLE_BURN_IN and len(history) == _CYCLE_WINDOW:
            window = np.stack(history)
            span = window.max(axis=0) - window.min(axis=0)
            floor = np.maximum(window.mean(axis=0), 1e-12)
            if (span / floor).max() <= _CYCLE_TOL:
                rates = window.mean(axis=0)
                converged = True
                break
        alloc = _DAMPING * alloc + (1.0 - _DAMPING) * target

    utilisation = _segment_sum(rates[dnn_of] * inflated, comp_of, num_comp)

    return ContentionSolution(
        rates=rates, stage_allocations=alloc,
        stage_demands=inflated + hol_wait,
        component_utilisation=utilisation, iterations=iterations,
        converged=converged,
    )


def _pack(demand_sets: list[list[StageDemand]], num_dnns: int,
          platform: Platform) -> tuple:
    """Flatten non-empty demand sets into the C kernel's CSR-packed inputs.

    Performs the iteration-independent precomputation of
    :func:`solve_steady_state` (interference inflation, kernel times,
    head-of-line coefficients times launch counts, entitlement weights)
    per element with the same numpy expressions, so the packed quantities
    are bitwise identical to what the oracle derives.  Returns
    ``(packed_rows, offsets, comp_of, dnn_of, inflated, kernel_time,
    hol_k, weights)`` where ``packed_rows[i]`` is the batch index of
    packed element ``i``; empty demand sets are left out.
    """
    num_comp = platform.num_components
    gamma_table = _interference_table(platform, num_dnns)
    kappa = np.array([platform.component(c).sharing_bias
                      for c in range(num_comp)])
    hol_by_comp = np.array([platform.component(c).hol_blocking
                            for c in range(num_comp)])

    packed_rows: list[int] = []
    offsets = [0]
    comp_parts, dnn_parts = [], []
    infl_parts, ktime_parts, holk_parts, weight_parts = [], [], [], []
    for b, demands in enumerate(demand_sets):
        if not demands:
            continue
        comp = np.array([d.component for d in demands], dtype=np.int64)
        dnn = np.array([d.dnn_index for d in demands], dtype=np.int64)
        base = np.array([d.seconds_per_inference for d in demands])
        if np.any(base <= 0):
            raise ValueError("stage demands must be positive")
        contexts = _context_counts(comp, dnn, num_comp, num_dnns)
        inflated = base * gamma_table[comp, contexts[comp]]
        kernels = np.array([max(1, d.num_kernels) for d in demands],
                           dtype=np.float64)
        packed_rows.append(b)
        offsets.append(offsets[-1] + len(demands))
        comp_parts.append(comp)
        dnn_parts.append(dnn)
        infl_parts.append(inflated)
        ktime_parts.append(base / kernels)
        holk_parts.append(hol_by_comp[comp] * kernels)
        weight_parts.append(inflated ** kappa[comp])

    comp_of = np.concatenate(comp_parts)
    dnn_of = np.concatenate(dnn_parts)
    # The kernel indexes its scratch arrays with these unchecked.  An index
    # past the end already failed _context_counts; numpy wraps a negative.
    if comp_of.min() < 0 or dnn_of.min() < 0:
        raise ValueError("stage component or DNN index out of range")
    return (packed_rows,
            np.array(offsets, dtype=np.int64),
            comp_of,
            dnn_of,
            np.concatenate(infl_parts),
            np.concatenate(ktime_parts),
            np.concatenate(holk_parts),
            np.concatenate(weight_parts))


def solve_steady_state_batch(demand_sets: list[list[StageDemand]],
                             num_dnns: int, platform: Platform,
                             max_iter: int = _MAX_ITER,
                             ) -> list[ContentionSolution]:
    """Solve B mappings' fixed points in one call to the C kernel.

    All mappings must cover the same workload (``num_dnns`` DNNs on
    ``platform``); they may have different stage counts, and empty demand
    sets answer with an empty solution.  Each element's result is bit
    for bit what :func:`solve_steady_state` returns on its demands alone.

    Raises :class:`RuntimeError` when the kernel cannot be built or
    loaded on this host; :func:`repro.sim.engine.simulate_batch` checks
    :func:`repro.sim._cext.load_solver` first and falls back to the
    scalar oracle instead.
    """
    solutions = [_empty_solution(num_dnns, platform) for _ in demand_sets]
    if not any(demand_sets):
        return solutions
    (packed_rows, offsets, comp_of, dnn_of, inflated, kernel_time, hol_k,
     weights) = _pack(demand_sets, num_dnns, platform)

    n_packed = len(packed_rows)
    out_rates = np.zeros((n_packed, num_dnns))
    out_alloc = np.zeros(offsets[-1])
    out_eff = np.zeros_like(out_alloc)
    out_util = np.zeros((n_packed, platform.num_components))
    out_iters = np.zeros(n_packed, dtype=np.int64)
    out_conv = np.zeros(n_packed, dtype=np.uint8)
    _cext.solve_packed_c(
        offsets, comp_of, dnn_of, inflated, kernel_time, hol_k, weights,
        num_dnns, platform.num_components, max_iter, _DAMPING, _TOL,
        _CYCLE_WINDOW, _CYCLE_TOL, _CYCLE_BURN_IN,
        out_rates, out_alloc, out_eff, out_util, out_iters, out_conv)

    for i, b in enumerate(packed_rows):
        s0, s1 = offsets[i], offsets[i + 1]
        solutions[b] = ContentionSolution(
            rates=out_rates[i],
            stage_allocations=out_alloc[s0:s1].copy(),
            stage_demands=out_eff[s0:s1].copy(),
            component_utilisation=out_util[i],
            iterations=int(out_iters[i]),
            converged=bool(out_conv[i]),
        )
    return solutions
