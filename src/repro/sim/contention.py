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

The batch path takes its per-platform constants (interference table, κ,
head-of-line coefficients) from a :class:`~repro.sim.tables.PlatformTables`
built once per platform.  The entitlement weights ``demand ** κ`` stay a
numpy ``**`` on both paths: numpy's vectorised power differs from libm's
``pow`` in the last bit on some inputs (about 6% of them on an AVX-512
host), so moving it into C or Python floats would break bit identity.
Numpy's result for an element does not depend on the array around it,
so the batch path raises a whole batch's weights in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..hw.platform import Platform
from . import _cext
from .demands import StageDemand
from .tables import PlatformTables, _interference_table

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
          tables: PlatformTables) -> tuple:
    """Flatten non-empty demand sets into the C kernel's three buffers.

    Performs the iteration-independent precomputation of
    :func:`solve_steady_state` (interference inflation, kernel times,
    head-of-line coefficients times launch counts, entitlement weights)
    over the whole batch at once, with the oracle's elementwise numpy
    expressions, so the packed quantities are bitwise identical to what
    the oracle derives per mapping.  Returns ``(packed_rows, offsets,
    ints, reals, out)``: ``packed_rows[i]`` is the batch index of packed
    element ``i`` (empty demand sets are left out), whose stages are
    ``offsets[i]:offsets[i + 1]``, and the buffers are laid out as
    :func:`repro.sim._cext.buffer_lengths` says and checked by
    :func:`repro.sim._cext.check_buffers` before they are filled.

    Bad input stops here, before the kernel: a non-positive demand or a
    negative component or DNN index raises ``ValueError``, and an index
    past the end fails numpy's context count with ``IndexError``.
    """
    num_comp = tables.platform.num_components
    packed_rows = [b for b, demands in enumerate(demand_sets) if demands]
    lengths = [len(demand_sets[b]) for b in packed_rows]
    flat = [d for b in packed_rows for d in demand_sets[b]]
    n_batch, n = len(packed_rows), len(flat)
    ints, reals, out = _cext.empty_buffers(n_batch, n, num_dnns, num_comp)
    _cext.check_buffers(ints, reals, out, n_batch, n, num_dnns, num_comp)

    (offsets, comp_of, dnn_of, inflated, kernel_time, hol_k,
     weights) = _cext.input_views(ints, reals, n_batch, n)
    dnns, comps, _, _ = zip(*[d.stage for d in flat])
    base = np.array([d.seconds_per_inference for d in flat])
    if (base <= 0).any():
        raise ValueError("stage demands must be positive")
    # The kernel indexes its scratch arrays with these unchecked; numpy
    # would wrap a negative one below.
    if min(comps) < 0 or min(dnns) < 0:
        raise ValueError("stage component or DNN index out of range")
    bounds = list(accumulate(lengths, initial=0))
    offsets[:] = bounds
    comp_of[:] = comps
    dnn_of[:] = dnns

    # Distinct resident DNN contexts per (element, component) slot.
    slot = np.arange(n_batch).repeat(lengths) * num_comp + comp_of
    present = np.zeros((n_batch * num_comp, num_dnns), dtype=bool)
    present[slot, dnn_of] = True
    gamma = tables.gamma(num_dnns)[comp_of, present.sum(axis=1)[slot]]
    kernels = np.array([d.num_kernels for d in flat], dtype=np.float64)
    np.maximum(kernels, 1.0, out=kernels)
    np.multiply(base, gamma, out=inflated)
    np.divide(base, kernels, out=kernel_time)
    np.multiply(tables.hol[comp_of], kernels, out=hol_k)
    np.power(inflated, tables.kappa[comp_of], out=weights)
    return packed_rows, bounds, ints, reals, out


def solve_steady_state_batch(demand_sets: list[list[StageDemand]],
                             num_dnns: int, platform: Platform,
                             max_iter: int = _MAX_ITER,
                             tables: PlatformTables | None = None,
                             ) -> list[ContentionSolution]:
    """Solve B mappings' fixed points in one call to the C kernel.

    All mappings must cover the same workload (``num_dnns`` DNNs on
    ``platform``); they may have different stage counts, and empty demand
    sets answer with an empty solution.  Each element's result is bit
    for bit what :func:`solve_steady_state` returns on its demands alone.
    ``tables`` holds the platform's constants (a throwaway instance is
    built without it).

    Raises :class:`RuntimeError` when the kernel cannot be built or
    loaded on this host; :func:`repro.sim.engine.simulate_batch` checks
    :func:`repro.sim._cext.load_solver` first and falls back to the
    scalar oracle instead.
    """
    if not any(demand_sets):
        return [_empty_solution(num_dnns, platform) for _ in demand_sets]
    if tables is None:
        tables = PlatformTables(platform)
    packed_rows, offsets, ints, reals, out = _pack(demand_sets, num_dnns,
                                                   tables)
    solutions = [None if demands else _empty_solution(num_dnns, platform)
                 for demands in demand_sets]

    n_batch = len(packed_rows)
    num_comp = platform.num_components
    _cext.solve_packed_c(
        ints, reals, out, n_batch, num_dnns, num_comp, max_iter, _DAMPING,
        _TOL, _CYCLE_WINDOW, _CYCLE_TOL, _CYCLE_BURN_IN)

    rates, util, iterations, converged, alloc, eff = _cext.output_views(
        out, n_batch, offsets[-1], num_dnns, num_comp)
    iterations, converged = iterations.tolist(), converged.tolist()
    for i, b in enumerate(packed_rows):
        s0, s1 = offsets[i], offsets[i + 1]
        solutions[b] = ContentionSolution(
            rates=rates[i], stage_allocations=alloc[s0:s1],
            stage_demands=eff[s0:s1], component_utilisation=util[i],
            iterations=int(iterations[i]), converged=bool(converged[i]),
        )
    return solutions  # type: ignore[return-value]
