"""The numpy stage packer, kept as the C packer's oracle.

Production batch solves split and pack their mappings in C
(``pack_stages`` in ``src/repro/sim/_csolver.c``).  This module keeps the
numpy packer that came before it: it flattens
:class:`~repro.sim.demands.StageDemand` lists from
:func:`~repro.sim.demands.compute_stage_demands` into the kernel's
buffers with the scalar oracle's elementwise expressions.
``tests/property/test_stage_pack.py`` holds the C packer to it byte for
byte, and ``tests/property/test_solver_equivalence.py`` feeds the kernel
through it, so the kernel fuzz can still use synthetic demand sets
(empty elements and non-positive demands included) that no mapping
produces.  Only tests run it, so it lives under ``tests/oracles/`` and
is imported as ``tests.oracles.pack_reference``.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.hw.platform import Platform
from repro.sim import _cext
from repro.sim.contention import (
    _CYCLE_BURN_IN,
    _CYCLE_TOL,
    _CYCLE_WINDOW,
    _DAMPING,
    _MAX_ITER,
    _TOL,
    ContentionSolution,
)
from repro.sim.demands import StageDemand
from repro.sim.tables import PlatformTables

__all__ = ["pack_demands", "solve_demand_sets"]


def pack_demands(demand_sets: list[list[StageDemand]], num_dnns: int,
                 tables: PlatformTables) -> tuple:
    """Flatten non-empty demand sets into the C kernel's three buffers.

    Performs the iteration-independent precomputation of
    :func:`repro.sim.solve_steady_state` (interference inflation, kernel
    times, head-of-line coefficients times launch counts, entitlement
    weights) over the whole batch at once, with the oracle's elementwise
    numpy expressions, so the packed quantities are bitwise identical to
    what the oracle derives per mapping.  Returns ``(packed_rows, ints,
    reals, out)``: ``packed_rows[i]`` is the batch index of packed
    element ``i`` (empty demand sets are left out), and the buffers are
    laid out as :func:`repro.sim._cext.buffer_lengths` says and checked
    by :func:`repro.sim._cext.check_buffers` before they are filled.

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
    offsets[:] = list(accumulate(lengths, initial=0))
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
    return packed_rows, ints, reals, out


def solve_demand_sets(demand_sets: list[list[StageDemand]], num_dnns: int,
                      platform: Platform, max_iter: int = _MAX_ITER,
                      ) -> list[ContentionSolution]:
    """Run the C kernel on :func:`pack_demands`' buffers.

    Each element's result is what the scalar oracle returns on its
    demand set alone; an empty set answers with the oracle's empty
    solution.
    """
    solutions = [ContentionSolution(
        rates=np.zeros(num_dnns),
        component_utilisation=np.zeros(platform.num_components),
        iterations=0, converged=True) for _ in demand_sets]
    if not any(demand_sets):
        return solutions
    packed_rows, ints, reals, out = pack_demands(
        demand_sets, num_dnns, PlatformTables(platform))
    n_batch, num_comp = len(packed_rows), platform.num_components
    _cext.solve_packed_c(
        ints, reals, out, n_batch, num_dnns, num_comp, max_iter, _DAMPING,
        _TOL, _CYCLE_WINDOW, _CYCLE_TOL, _CYCLE_BURN_IN)
    rates, util, iterations, converged = _cext.output_views(
        out, n_batch, num_dnns, num_comp)
    for i, b in enumerate(packed_rows):
        solutions[b] = ContentionSolution(
            rates=rates[i], component_utilisation=util[i],
            iterations=int(iterations[i]), converged=bool(converged[i]))
    return solutions
