"""Property tests shared by every simulation engine.

Two invariants, each checked against every engine:

* ``finish_time`` is non-decreasing in ``payload_bytes`` — more data can
  never finish earlier under work-conserving FIFO links.
  :meth:`NetworkSimulator.run` lowers :class:`Message` lists onto the
  event engine's array heap; the fast engines run on the compiled
  arrays (``compile_schedule(schedule).simulate``);
* results are invariant under a permutation of the message list (with
  ``deps`` indices remapped accordingly).  Message lists always run on
  the event engine, so every permuted list runs there, against the
  named engine's result on the unpermuted schedule.

The permutation property needs care: when two messages tie on arrival
time at a shared link, the FIFO grant order follows *push order*, so the
per-message timings (and, on some schedules, even ``finish_time``) are
legitimately order-dependent.  Full bit-identity is therefore asserted
only on tie-free configurations (verified to be push-order-independent);
``link_busy`` — total work per link — is asserted on every configuration,
ties or not.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import build_schedule, compile_schedule
from repro.network import Message, NetworkSimulator, PacketBased
from repro.ni.injector import build_messages
from repro.topology import BiGraph, FatTree, Mesh2D, Torus2D

KiB = 1024
MiB = 1 << 20
ENGINES = ["event", "lockstep", "lockstep-vec"]


def _permuted(messages, perm):
    """Reorder ``messages`` by ``perm``, remapping dep indices."""
    inv = {old: new for new, old in enumerate(perm)}
    out = []
    for old in perm:
        m = messages[old]
        out.append(
            Message(
                m.src,
                m.dst,
                m.payload_bytes,
                route=m.route,
                deps=tuple(sorted(inv[d] for d in m.deps)),
                not_before=m.not_before,
                receive_overhead=m.receive_overhead,
                tag=m.tag,
            )
        )
    return out, inv


# -- monotonicity in payload size ---------------------------------------------

MONO_CONFIGS = [
    pytest.param(lambda: Torus2D(4, 4), "multitree", id="torus-multitree"),
    pytest.param(lambda: Mesh2D(4, 4), "ring", id="mesh-ring"),
    pytest.param(lambda: FatTree(4, 4), "dbtree", id="fattree-dbtree"),
    pytest.param(lambda: BiGraph(4, 4), "multitree", id="bigraph-multitree"),
]


# Monotonicity is asserted over doubling ladders (the sweep size axis),
# not arbitrary nearby sizes: at percent-level size deltas, packet
# quantization can shift the lockstep gate estimates so that a slightly
# larger payload legitimately finishes earlier (e.g. fattree/dbtree at
# 29953 vs 30721 bytes — present in the seed event engine too).  Across
# a 2x size step the added wire time dominates any such gate jitter.
@pytest.mark.parametrize("make_topo,algorithm", MONO_CONFIGS)
@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=15, deadline=None)
@given(
    base=st.integers(1 * KiB, 1 * MiB),
    ladder=st.integers(2, 5),
)
def test_finish_time_nondecreasing_in_payload(
    make_topo, algorithm, engine, base, ladder
):
    topo = make_topo()
    schedule = build_schedule(algorithm, topo)
    fc = PacketBased()
    sim = NetworkSimulator(topo, fc)
    compiled = compile_schedule(schedule)
    finishes = []
    for size in [base << step for step in range(ladder)]:
        if engine == "event":
            messages = build_messages(schedule, float(size), fc)
            finishes.append(sim.run(messages).finish_time)
        else:
            finishes.append(compiled.simulate(size, fc, engine=engine).time)
    assert finishes == sorted(finishes)


def _engine_run(schedule, messages, size, fc, engine):
    """The unpermuted reference: the message list on the event engine for
    ``event``, the named fast engine on the compiled arrays otherwise."""
    if engine == "event":
        return NetworkSimulator(schedule.topology, fc).run(messages)
    return compile_schedule(schedule).simulate(
        float(size), fc, engine=engine
    ).simulation


# -- permutation invariance ---------------------------------------------------

# Configurations verified tie-free: every permutation of the message list
# reproduces identical per-message timings.  Serialization dominates at
# these sizes, so no two messages tie on arrival at a shared link.
TIE_FREE_CONFIGS = [
    pytest.param(lambda: Torus2D(4, 4), "ring", 64 * KiB, id="torus-ring-64k"),
    pytest.param(lambda: Torus2D(4, 4), "ring", 4 * MiB, id="torus-ring-4m"),
    pytest.param(lambda: Mesh2D(4, 4), "ring", 4 * MiB, id="mesh-ring-4m"),
    pytest.param(
        lambda: Torus2D(4, 4), "multitree", 4 * MiB, id="torus-multitree-4m"
    ),
    pytest.param(
        lambda: FatTree(4, 4), "multitree", 4 * MiB, id="fattree-multitree-4m"
    ),
    pytest.param(
        lambda: BiGraph(4, 4), "multitree", 4 * MiB, id="bigraph-multitree-4m"
    ),
]


@pytest.mark.parametrize("make_topo,algorithm,size", TIE_FREE_CONFIGS)
@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_permutation_invariance_tie_free(
    make_topo, algorithm, size, engine, seed
):
    topo = make_topo()
    schedule = build_schedule(algorithm, topo)
    fc = PacketBased()
    messages = build_messages(schedule, float(size), fc)
    base = _engine_run(schedule, messages, size, fc, engine)

    rng = np.random.default_rng(seed)
    perm = [int(x) for x in rng.permutation(len(messages))]
    permuted, inv = _permuted(messages, perm)
    result = NetworkSimulator(topo, fc).run(permuted)

    assert result.finish_time == base.finish_time
    assert result.link_busy == base.link_busy
    assert result.total_wire_bytes == base.total_wire_bytes
    for old, timing in enumerate(base.timings):
        assert result.timings[inv[old]] == timing


# Work conservation holds even with ties: total busy time per link cannot
# depend on FIFO grant order, only who waits.
TIED_CONFIGS = [
    pytest.param(lambda: Torus2D(4, 4), "dbtree", 64 * KiB, id="torus-dbtree"),
    pytest.param(
        lambda: FatTree(4, 4), "multitree", 64 * KiB, id="fattree-multitree"
    ),
]


@pytest.mark.parametrize("make_topo,algorithm,size", TIED_CONFIGS)
@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_link_busy_invariant_even_with_ties(
    make_topo, algorithm, size, engine, seed
):
    topo = make_topo()
    schedule = build_schedule(algorithm, topo)
    fc = PacketBased()
    messages = build_messages(schedule, float(size), fc)
    base = _engine_run(schedule, messages, size, fc, engine)

    rng = np.random.default_rng(seed)
    perm = [int(x) for x in rng.permutation(len(messages))]
    permuted, _ = _permuted(messages, perm)
    result = NetworkSimulator(topo, fc).run(permuted)

    assert result.link_busy == base.link_busy
    assert result.total_wire_bytes == base.total_wire_bytes
