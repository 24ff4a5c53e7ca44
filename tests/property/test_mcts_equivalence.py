"""The bulk-replay MCTS against its scalar-draw oracle.

:class:`repro.search.MCTS` completes rollouts from one bulk draw of raw
PCG64 words and walks the tree on Python floats; the oracle in
``tests/oracles/mcts_reference.py`` is the implementation it replaced,
which calls ``Generator.random()`` and ``Generator.integers()`` once per
decision and scores UCB1 on numpy scalars.  The contract is draw-for-draw
identity: after every rollout the two produce the same mapping and leave
their generators in equal states, including the 32-bit half-word buffer
(``has_uint32`` and ``uinteger``), and a whole search returns the same
best mapping, statistics and top candidates.

The draws cover random block counts, one to four components (one is the
case where ``integers(1)`` draws nothing), persistence 0, 0.85 and 1,
random decision prefixes, extra ``integers`` draws between rollouts and
start states with a buffered half word, including the half word 0, which
forces Lemire's rejection step for three components.  A crafted generator
state forces the same step with no half word buffered, where the rollout
needs one word more than its bulk draw.
"""

from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import DISQUALIFIED, MCTS, MCTSConfig
from repro.zoo import get_model
from tests.oracles.mcts_reference import ReferenceMCTS, reference_complete


class _Blocks(NamedTuple):
    """All the search reads of a model: its block count."""

    num_blocks: int


def _stub_evaluator(mappings):
    """Deterministic rewards with some disqualified mappings."""
    rewards = []
    for mapping in mappings:
        flat = [c for a in mapping.assignments for c in a]
        x = sum((i + 1) * (c + 1) for i, c in enumerate(flat)) % 97
        rewards.append(DISQUALIFIED if x % 5 == 0 else x / 7.0)
    return np.array(rewards)


def _twins(workload, components, config, buffered):
    """Two searches on the same stream; ``buffered`` is ``None`` or the
    half word both generators start with in their buffer."""
    search = MCTS(workload, components, _stub_evaluator, config)
    mirror = ReferenceMCTS(workload, components, _stub_evaluator, config)
    if buffered is not None:
        for twin in (search, mirror):
            state = twin._rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, buffered
            twin._rng.bit_generator.state = state
    return search, mirror


def _states_equal(a, b):
    return a._rng.bit_generator.state == b._rng.bit_generator.state


#: PCG64's 128-bit LCG multiplier: it steps the state before each output.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _rejecting_state(generator):
    """A state for ``generator`` whose next output word has a zero low
    half and no half word buffered: an ``integers(3)`` drawn from it is
    rejected once and retried on the word's high half."""
    state = generator.bit_generator.state
    inc = state["state"]["inc"]
    high = 0x0123456789ABCDEF   # top six bits 0: the output is not rotated
    stepped = (high << 64) | (high ^ 0xDEADBEEF00000000)
    mod = 1 << 128
    state["state"]["state"] = ((stepped - inc) * pow(_PCG64_MULT, -1, mod)
                               % mod)
    state["has_uint32"] = state["uinteger"] = 0
    return state


COUNTS = st.lists(st.integers(1, 30), min_size=1, max_size=5)
PERSISTENCE = st.sampled_from([0.0, 0.85, 1.0])
BUFFERED = st.sampled_from([None, 0, 1, 2**32 - 1, 123456789])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(COUNTS, st.integers(1, 4), PERSISTENCE, BUFFERED,
       st.integers(0, 2**63 - 1), st.data())
def test_rollouts_replay_the_scalar_draws(counts, components, persistence,
                                          buffered, seed, data):
    workload = [_Blocks(n) for n in counts]
    config = MCTSConfig(rollout_persistence=persistence, seed=seed)
    search, mirror = _twins(workload, components, config, buffered)
    depth = sum(counts)
    for _ in range(data.draw(st.integers(1, 6), label="rollouts")):
        prefix = data.draw(st.lists(st.integers(0, components - 1),
                                    max_size=depth), label="prefix")
        for n in data.draw(st.lists(st.integers(1, 7), max_size=3),
                           label="extra integers draws"):
            assert search._rng.integers(n) == mirror._rng.integers(n)
        got = search._complete(prefix)
        want = reference_complete(mirror, prefix)
        assert got == want
        assert _states_equal(search, mirror)


def test_rejection_beyond_the_bulk_draw():
    """At persistence 0 every block draws; a rejection at the first of six
    blocks makes the rollout read nine words, one past its bulk draw."""
    probe = np.random.default_rng(0)
    probe.bit_generator.state = _rejecting_state(probe)
    probe.integers(3)
    assert probe.bit_generator.state["has_uint32"] == 0  # took both halves
    config = MCTSConfig(rollout_persistence=0.0, seed=1)
    search, mirror = _twins([_Blocks(6)], 3, config, None)
    for twin in (search, mirror):
        twin._rng.bit_generator.state = _rejecting_state(twin._rng)
    assert search._complete([]) == reference_complete(mirror, [])
    assert _states_equal(search, mirror)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(COUNTS, st.integers(1, 4), PERSISTENCE, BUFFERED,
       st.integers(1, 25), st.integers(1, 4),
       st.sampled_from([0.0, 0.7, 3.0]), st.integers(0, 2**63 - 1))
def test_search_equals_reference(counts, components, persistence, buffered,
                                 iterations, rollouts, exploration, seed):
    config = MCTSConfig(iterations=iterations, rollouts_per_leaf=rollouts,
                        exploration=exploration,
                        rollout_persistence=persistence, seed=seed)
    search, mirror = _twins([_Blocks(n) for n in counts], components,
                            config, buffered)
    got_mapping, got = search.search()
    want_mapping, want = mirror.search()
    assert got_mapping == want_mapping
    assert got == want
    assert got.top_candidates == want.top_candidates
    assert _states_equal(search, mirror)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(["squeezenet_v2", "inception_v4",
                                 "resnet50", "vgg16", "mobilenet",
                                 "alexnet"]), min_size=3, max_size=5),
       st.integers(0, 2**63 - 1))
def test_search_equals_reference_on_zoo_mixes(names, seed):
    """The plan-sized case: 3-5 zoo DNNs on three components, the
    planner's default budget shape."""
    config = MCTSConfig(iterations=40, rollouts_per_leaf=2, seed=seed)
    search, mirror = _twins([get_model(n) for n in names], 3, config, None)
    got_mapping, got = search.search()
    want_mapping, want = mirror.search()
    assert got_mapping == want_mapping and got == want
    assert _states_equal(search, mirror)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**63 - 1),
       st.lists(st.integers(1, 4), min_size=1, max_size=40))
def test_expansion_draw_matches_choice(seed, sizes):
    """``untried[integers(len(untried))]`` consumes the stream exactly as
    ``rng.choice(untried)`` does, a one-element list drawing nothing."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in sizes:
        untried = list(range(10, 10 + size))
        assert (untried[int(ours.integers(len(untried)))]
                == int(theirs.choice(untried)))
        assert ours.bit_generator.state == theirs.bit_generator.state
