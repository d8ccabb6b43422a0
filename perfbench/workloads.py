"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same op sequence, and the program under test only ever sees the
generated :class:`repro.sweep.SweepJob` series and HTTP query strings.

The (fabric, variant) universe is built from compatible pairs only (see
:data:`COMPATIBLE`), so no op fails because a variant cannot run on a
fabric.  Ops are drawn in *blocks*: one block visits every universe pair
once, and within a block the pairs of each cost class are interleaved at
evenly spaced positions.  Any prefix of the sequence therefore holds the
cost classes in close to their universe proportions, which keeps the
latency percentiles of a time-bounded run off the cliffs between classes
whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple
from urllib.parse import urlencode

KiB = 1024

ENGINES = ("event", "lockstep", "lockstep-vec")

#: Fig. 9 size axis of one sweep-cold op: 32 KiB .. 32 MiB, x4 steps.
COLD_SIZES = tuple(32 * KiB * 4 ** i for i in range(6))

#: Variants each fabric family can run (Table I constraints: 2D-Ring
#: needs a torus/mesh, HDRM a BiGraph, hierarchical a switch-grouped
#: fabric).  ``perfbench/test_perfbench.py`` builds every pair to pin it.
COMPATIBLE: Dict[str, Tuple[str, ...]] = {
    "torus": ("multitree", "multitree-msg", "ring", "2d-ring", "dbtree",
              "halving-doubling", "butterfly"),
    "mesh": ("multitree", "multitree-msg", "ring", "2d-ring", "dbtree",
             "halving-doubling", "butterfly"),
    "fattree": ("multitree", "multitree-msg", "ring", "dbtree",
                "halving-doubling", "butterfly", "hierarchical"),
    "bigraph": ("multitree", "multitree-msg", "ring", "dbtree",
                "halving-doubling", "butterfly", "hierarchical", "hdrm"),
}


def family(topology: str) -> str:
    return topology.partition("@")[0].partition("-")[0]


def compatible(topology: str, algorithm: str) -> bool:
    return algorithm in COMPATIBLE[family(topology)]


@dataclass(frozen=True)
class Pair:
    topology: str
    algorithm: str
    #: Cost class used only to interleave a block evenly (see module doc).
    cost: str


#: The sweep universe: 32-64-node torus, mesh, fat-tree and BiGraph,
#: uniform and profiled.  14 distinct (topology, builder) artifacts, more
#: than the artifact store's 8-entry in-process memo holds.  The cost
#: class only spaces a block's pairs (see :func:`interleave`).
UNIVERSE: Tuple[Pair, ...] = (
    # 64-node MultiTree on switched fabrics: construction-bound (~1 s).
    Pair("fattree-8x8", "multitree", "heavy"),
    Pair("bigraph-4x8", "multitree", "heavy"),
    Pair("bigraph-4x8@oversub=4", "multitree-msg", "heavy"),
    # 64-node direct fabrics and 64-node baselines.
    Pair("torus-8x8", "multitree", "mid"),
    Pair("torus-8x8@rails=2:0.5", "multitree", "mid"),
    Pair("mesh-8x8", "multitree-msg", "mid"),
    Pair("mesh-8x8", "2d-ring", "mid"),
    Pair("torus-8x8", "dbtree", "mid"),
    Pair("bigraph-4x8", "ring", "mid"),
    Pair("fattree-8x8@oversub=4", "dbtree", "mid"),
    # 32-node fabrics and a cheap 64-node baseline.
    Pair("torus-4x8", "multitree", "light"),
    Pair("mesh-4x8", "dbtree", "light"),
    Pair("torus-4x8@rails=2:0.5", "ring", "light"),
    Pair("fattree-8x8", "hierarchical", "light"),
)


def interleave(rng: random.Random, pairs: Sequence[Pair]) -> List[Pair]:
    """One block: every pair once, each cost class spread evenly.

    Member ``j`` of a class with ``n`` members sits at position
    ``(j + u) / n`` for a per-class seeded offset ``u``; members are
    shuffled within their class first.
    """
    classes: Dict[str, List[Pair]] = {}
    for pair in pairs:
        classes.setdefault(pair.cost, []).append(pair)
    keyed = []
    for name in sorted(classes):
        members = list(classes[name])
        rng.shuffle(members)
        offset = rng.random()
        for j, pair in enumerate(members):
            keyed.append(((j + offset) / len(members), rng.random(), pair))
    keyed.sort(key=lambda item: item[:2])
    return [pair for _pos, _tie, pair in keyed]


@dataclass(frozen=True)
class SweepOp:
    index: int
    topology: str
    algorithm: str
    engine: str
    sizes: Tuple[int, ...]

    def job(self):
        from repro.sweep import SweepJob

        return SweepJob(self.topology, self.algorithm, self.sizes,
                        engine=self.engine)

    def key(self) -> str:
        return "%s/%s@%s:%s" % (
            self.topology, self.algorithm, self.engine,
            ",".join(str(s) for s in self.sizes),
        )


def cold_ops(seed: int) -> Iterator[SweepOp]:
    """sweep-cold: Fig. 9 series from scratch, engine drawn per op.

    Each pair draws its engines for every ``len(ENGINES)`` consecutive
    blocks as a seeded permutation, one per block, so those blocks run
    every (pair, engine) combination exactly once.
    """
    rng = random.Random("sweep-cold:%d" % seed)
    index = 0
    while True:
        engines = {pair: rng.sample(ENGINES, len(ENGINES)) for pair in UNIVERSE}
        for block in range(len(ENGINES)):
            for pair in interleave(rng, UNIVERSE):
                yield SweepOp(index, pair.topology, pair.algorithm,
                              engines[pair][block], COLD_SIZES)
                index += 1


#: sweep-warm ladders: base in [32 KiB, 64 KiB) on a 32-byte grid, then
#: x8 steps — four sizes spanning 32 KiB .. 32 MiB like Fig. 9.
WARM_BASES = tuple(32 * KiB + 32 * k for k in range(1024))


def warm_ops(seed: int) -> Iterator[SweepOp]:
    """sweep-warm: artifact-backed lockstep-vec series, fresh ladders.

    Each pair deals its ladder bases from its own shuffled deck, so no
    (pair, ladder) repeats within the first 1024 visits of a pair.
    """
    rng = random.Random("sweep-warm:%d" % seed)
    decks = {}
    index = 0
    while True:
        for pair in interleave(rng, UNIVERSE):
            deck = decks.get(pair)
            if not deck:
                deck = decks[pair] = list(WARM_BASES)
                rng.shuffle(deck)
            base = deck.pop()
            yield SweepOp(index, pair.topology, pair.algorithm,
                          "lockstep-vec", tuple(base * 8 ** i for i in range(4)))
            index += 1


# -- serve-http ------------------------------------------------------------

#: Prewarmed 16-node fabrics; each is also a warm /plan query.
SERVE_FABRICS = (
    "torus-4x4", "mesh-4x4", "fattree-4x4", "bigraph-2x4",
    "fattree-4x4@oversub=4", "torus-4x4@rails=2:0.5",
)
#: Doubling ladder 32 KiB .. 32 MiB (the planner's ``32K..32M`` grammar).
SERVE_SIZES_TEXT = "32K..32M"
PLAN_SIZES_TEXT = "1M..16M"
SERVE_SIZES = tuple(32 * KiB * 2 ** i for i in range(11))
#: Profiled fabrics never prewarmed: cold /predict queries on them force
#: a background artifact compile as well as a cache write.
SERVE_COLD_FABRICS = (
    "torus-4x4@rails=2:0.25", "mesh-4x4@rails=2:0.5",
    "fattree-4x4@oversub=2", "bigraph-2x4@oversub=2",
    "fattree-4x4@oversub=8", "mesh-4x4@rails=2:0.25",
)
ZIPF_S = 1.1
#: Requests per mix block and their shares: 92% warm /predict, 6% cold
#: /predict (half first asks, half re-asks of the previous block's first
#: asks) and 2% warm /plan.  A /plan holds its connection for ~2x a
#: /predict; at 4% the requests queued behind plans put p90 on the edge
#: of the stall cluster, where it moved with host speed.
BLOCK = 100
BLOCK_PLANS = 2
BLOCK_COLD = 3


def predict_target(topology: str, algorithm: str, size: int) -> str:
    from repro.scenario import Scenario

    scenario = Scenario(topology=topology, algorithm=algorithm,
                        data_bytes=size, engine="lockstep-vec")
    return "/predict?" + urlencode({"scenario": str(scenario)})


def plan_target(topology: str, sizes: str = PLAN_SIZES_TEXT) -> str:
    """A /plan query over the fabric's compatible variants only: an
    incompatible candidate would be queued (and fail) on every query."""
    return "/plan?" + urlencode({
        "topology": topology, "sizes": sizes,
        "algorithms": ",".join(COMPATIBLE[family(topology)]),
    })


def warm_pool() -> List[Tuple[str, str, int]]:
    """Every prewarmed (topology, variant, size) point, in a fixed order."""
    return [
        (topology, algorithm, size)
        for topology in SERVE_FABRICS
        for algorithm in COMPATIBLE[family(topology)]
        for size in SERVE_SIZES
    ]


@dataclass(frozen=True)
class Request:
    index: int
    kind: str        # "warm" | "cold" | "again" | "plan"
    target: str      # path + query


def serve_requests(seed: int, count: int) -> List[Request]:
    """The first ``count`` requests of the seeded serve-http trace."""
    rng = random.Random("serve-http:%d" % seed)
    pool = warm_pool()
    rng.shuffle(pool)                      # seeded popularity ranking
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    warm_sizes = set(SERVE_SIZES)
    used = set()

    def fresh_cold() -> str:
        while True:
            if rng.random() < 0.5:         # new size on a prewarmed fabric
                topology = rng.choice(SERVE_FABRICS)
                size = rng.randrange(48, 24 * 1024) * KiB
                if size in warm_sizes:
                    continue
            else:                          # new profiled fabric
                topology = rng.choice(SERVE_COLD_FABRICS)
                size = rng.choice(SERVE_SIZES)
            algorithm = rng.choice(COMPATIBLE[family(topology)])
            target = predict_target(topology, algorithm, size)
            if target not in used:
                used.add(target)
                return target

    requests: List[Request] = []
    previous_cold: List[str] = []
    while len(requests) < count:
        cold = [fresh_cold() for _ in range(BLOCK_COLD)]
        kinds = (["plan"] * BLOCK_PLANS + ["cold"] * BLOCK_COLD
                 + ["again"] * len(previous_cold))
        kinds += ["warm"] * (BLOCK - len(kinds))
        rng.shuffle(kinds)
        firsts = iter(cold)
        agains = iter(previous_cold)
        for kind in kinds:
            if kind == "warm":
                point = rng.choices(pool, weights)[0]
                target = predict_target(*point)
            elif kind == "plan":
                target = plan_target(rng.choice(SERVE_FABRICS))
            elif kind == "cold":
                target = next(firsts)
            else:
                target = next(agains)
            requests.append(Request(len(requests), kind, target))
        previous_cold = cold
    return requests[:count]
