"""Seeded input generators for the three benchmark workloads.

The benchmark draws its own inputs from ``--seed`` with its own rng
streams instead of calling :mod:`repro.workloads`, so a change to the
program's samplers cannot change what is measured.  Every generator is a
pure function of ``(seed, seconds)``: ``seconds`` only sizes the fixed
input set, so two commits run with the same arguments decide exactly the
same inputs.  Model names come from ``repro.zoo.MODEL_POOL`` and sessions
are ``repro.workloads.SessionRequest`` values, the types the program takes.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from repro.workloads import SessionRequest
from repro.zoo import MODEL_POOL, get_model

TIERS = ("gold", "silver", "bronze")
MIX_SIZES = (3, 4, 5)
SEEDED_SIZE = 5                 # plan_sweep mixes that follow the seed

# Input sizes per second of ``--seconds``, calibrated so that one run's
# timed operations last roughly ``--seconds`` on a 2-core x86_64 host with
# the default (numpy) solver.  They are constants: a faster program decides
# the same inputs in less time.
PLANS_PER_SECOND = 1.07         # plan_sweep: ~1.2 s per plan
SERVE_ARRIVALS_PER_SECOND = 0.72    # serve_learned: ~2 replans per session
FLEET_ARRIVALS_PER_SECOND = 21.5    # fleet_power: 12 passes of ~1 s

SERVE_MEAN_GAP_S = 50.0         # one node: one arrival per 50 s ...
SERVE_MEAN_SESSION_S = 150.0    # ... of 150 s on average
FLEET_MEAN_GAP_S = 4.0          # aggregate fleet demand: 1 arrival / 4 s
FLEET_MEAN_SESSION_S = 90.0
SHIFT_PROB = 0.3                # non-gold sessions shifting up to gold
TRACE_JITTER = 0.1              # seeded scaling of a fixed trace draw


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent rng stream per (seed, workload)."""
    return np.random.default_rng([int(seed), stream])


def sized_pool() -> tuple[str, ...]:
    """``MODEL_POOL`` ordered by block count, ties by name."""
    return tuple(sorted(MODEL_POOL,
                        key=lambda name: (get_model(name).num_blocks, name)))


def plan_cases(seed: int, seconds: float) -> list[tuple[tuple[str, ...],
                                                       int]]:
    """``(mix, search seed)`` per ``plan_sweep`` plan: sizes 3, 4, 5 in turn.

    A mix of ``k`` models takes one model from each of ``k`` consecutive
    strata of :func:`sized_pool`, so it is drawn without replacement and
    spans small to large models.  Each stratum deals from its own shuffled
    deck, so every model appears about equally often in one run.  The
    deal is fixed: every seed plans the same model sets.

    A plan's order of models and search seed fix the search's decision
    sequence, and with it the plan's cost: the same mix cost up to +-25%
    more or less under another seed, and with every plan following the
    seed, the median over 15 plans spread 0.2 (quartile distance over
    median) across ten seeds.  So only the plans of :data:`SEEDED_SIZE`
    models take their order and search seed from ``seed``; the others
    take them from a fixed stream.  ``norm_throughput`` therefore follows
    every seed, while ``min_potential`` follows it only when a seeded plan
    starves a DNN more than the fixed plans do (0.0436, a 4-model plan),
    as on 3 of the 5 seeds tried.
    """
    pool = sized_pool()
    count = len(MIX_SIZES) * max(1, round(seconds * PLANS_PER_SECOND
                                          / len(MIX_SIZES)))
    deal = _rng(0, 1)
    decks: dict[tuple[int, int], list[str]] = {}
    cases = []
    for index in range(count):
        size = MIX_SIZES[index % len(MIX_SIZES)]
        mix = []
        for stratum, members in enumerate(np.array_split(list(pool), size)):
            deck = decks.get((size, stratum))
            if not deck:
                deck = decks[size, stratum] = [
                    str(members[i]) for i in deal.permutation(len(members))]
            mix.append(deck.pop())
        case = np.random.default_rng(
            [seed if size == SEEDED_SIZE else 0, 2, index])
        cases.append((tuple(mix[i] for i in case.permutation(size)),
                      int(case.integers(0, 2**31 - 1))))
    return cases


def session_trace(rng: np.random.Generator, count: int, mean_gap_s: float,
                  mean_session_s: float) -> list[SessionRequest]:
    """``count`` Poisson arrivals with exponential durations.

    Tiers are drawn uniformly from gold/silver/bronze; a non-gold session
    shifts to gold with probability :data:`SHIFT_PROB` at a uniform point
    between 20% and 80% of its duration.
    """
    requests = []
    t = 0.0
    for session_id in range(count):
        t += float(rng.exponential(mean_gap_s))
        duration = float(rng.exponential(mean_session_s))
        tier = TIERS[int(rng.integers(len(TIERS)))]
        shift_draw = float(rng.random())
        offset = float(rng.uniform(0.2, 0.8)) * duration
        shift = (offset, "gold") if tier != "gold" \
            and shift_draw < SHIFT_PROB else None
        requests.append(SessionRequest(session_id=session_id, arrival_s=t,
                                       duration_s=duration, tier=tier,
                                       tier_shift=shift))
    return requests


def jittered_trace(seed: int, stream: int, count: int, mean_gap_s: float,
                   mean_session_s: float) -> list[SessionRequest]:
    """One fixed Poisson draw of ``count`` sessions, jittered by ``seed``.

    The draw itself does not follow the seed: on the traces one run can
    afford, which sessions overlap and which tiers meet decides much of
    the run's work, so independent draws would spread the work across
    seeds as much as the host does.  The seed scales each gap and each
    duration (with its shift offset) by its own factor in
    ``1 +- TRACE_JITTER``: the events mostly keep their order, while the
    simulated times, and with them the rates and the SLA outcomes, follow
    the seed.
    """
    skeleton = session_trace(_rng(0, stream), count, mean_gap_s,
                             mean_session_s)
    factors = _rng(seed, stream).uniform(1 - TRACE_JITTER, 1 + TRACE_JITTER,
                                         (count, 2))
    requests, t, previous = [], 0.0, 0.0
    for request, (gap, stretch) in zip(skeleton, factors):
        t += (request.arrival_s - previous) * float(gap)
        previous = request.arrival_s
        shift = request.tier_shift
        stretch = float(stretch)
        requests.append(replace(
            request, arrival_s=t, duration_s=request.duration_s * stretch,
            tier_shift=None if shift is None
            else (shift[0] * stretch, shift[1])))
    return requests


def serve_trace_inputs(seed: int,
                       seconds: float) -> tuple[list[SessionRequest], float]:
    """The single-node trace for ``serve_learned`` and its horizon.

    Over 12 seeds of independent 16-session draws, the summed search size
    of the replans spread 35-40% (quartile distance over median); over
    jittered copies of one draw, 5%.  The horizon is the expected arrival
    time of the last session plus one mean session length, so most
    sessions depart inside it.
    """
    count = max(2, round(seconds * SERVE_ARRIVALS_PER_SECOND))
    requests = jittered_trace(seed, 3, count, SERVE_MEAN_GAP_S,
                              SERVE_MEAN_SESSION_S)
    return requests, count * SERVE_MEAN_GAP_S + SERVE_MEAN_SESSION_S


def fleet_trace_inputs(seed: int,
                       seconds: float) -> tuple[list[SessionRequest], float]:
    """The aggregate fleet trace and its horizon.

    Over 10 seeds of independent 301-session draws, the power-pricing
    calls per session spread 6%.  The horizon is the expected arrival
    time of the last session, so a few arrivals usually land past it and
    exercise the out-of-horizon ledger.
    """
    count = max(2, round(seconds * FLEET_ARRIVALS_PER_SECOND))
    requests = jittered_trace(seed, 4, count, FLEET_MEAN_GAP_S,
                              FLEET_MEAN_SESSION_S)
    return requests, count * FLEET_MEAN_GAP_S


def digest(value) -> str:
    """Stable digest of generated inputs (floats by exact ``repr``)."""
    def canon(item):
        if isinstance(item, (list, tuple)):
            return "(" + ",".join(canon(v) for v in item) + ")"
        if hasattr(item, "__dataclass_fields__"):
            return canon([getattr(item, name)
                          for name in item.__dataclass_fields__])
        return repr(item)
    return hashlib.sha256(canon(value).encode()).hexdigest()[:16]
