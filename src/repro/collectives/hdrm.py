"""Halving-Doubling with Rank Mapping (HDRM) from EFLOPS (Dong et al.,
HPCA 2020), §II-C / §VI-A.

Halving-doubling partners differ in exactly one bit of the rank, so the
parity of ``popcount(rank)`` flips between any communicating pair.  HDRM
places even-parity ranks on upper-layer nodes and odd-parity ranks on
lower-layer nodes of the BiGraph: every exchange then crosses the two
switch layers through a dedicated inter-layer link, which is what makes the
pattern contention-free on BiGraph — at the cost of never exploiting the
one-hop distance between nodes on the same switch (the latency penalty the
paper measures for small messages).
"""

from __future__ import annotations

from typing import List

from ..topology.bigraph import BiGraph
from .halving_doubling import halving_doubling_allreduce, is_power_of_two
from .schedule import Schedule


def hdrm_rank_mapping(topology: BiGraph) -> List[int]:
    """rank -> physical node, placing rank parity on alternating layers.

    Two requirements make the mapping contention-free:

    1. *Layer crossing*: ``popcount(rank)`` parity selects the layer, so
       every halving-doubling partner (one bit apart) crosses layers.
    2. *Link balancing*: ranks ``2k`` and ``2k+1`` share the pair index
       ``k = rank >> 1``; the upper layer places pair indices in consecutive
       *blocks* per switch while the lower layer *stripes* them round-robin
       across switches.  Because halving-doubling partners differ in one
       bit, their pair indices differ by a power of two, and block-vs-stripe
       placement splits each step's partner set evenly over every
       inter-switch link (each carries exactly its full-bisection share).
    """
    n = topology.num_nodes
    spl = topology.switches_per_layer
    nps = topology.nodes_per_switch
    mapping: List[int] = []
    for rank in range(n):
        layer = bin(rank).count("1") % 2
        pair_index = rank >> 1
        if layer == 0:
            # Blocks: consecutive pair indices fill one upper switch.
            node = pair_index
        else:
            # Stripes: pair indices round-robin across lower switches.
            switch = pair_index % spl
            position = pair_index // spl
            node = n // 2 + switch * nps + position
        mapping.append(node)
    return mapping


def hdrm_allreduce(topology: BiGraph) -> Schedule:
    """Build the HDRM schedule for a BiGraph network."""
    if not isinstance(topology, BiGraph):
        raise ValueError("HDRM is dedicated to the BiGraph topology (Table I)")
    if not is_power_of_two(topology.num_nodes):
        raise ValueError("HDRM requires a power-of-two node count")
    schedule = halving_doubling_allreduce(
        topology, rank_to_node=hdrm_rank_mapping(topology), algorithm_name="hdrm"
    )
    schedule.metadata["layers_crossed"] = True
    return schedule
