"""Core topology abstractions.

A topology is a directed multigraph over *vertices*.  Vertices are small
integers; compute endpoints (accelerator nodes) occupy ids ``0..num_nodes-1``
and switches (for indirect networks) occupy ids ``num_nodes..``.  Every
physical channel is a :class:`LinkSpec` keyed by the ``(u, v)`` vertex pair;
``capacity`` models parallel unit links (a multigraph edge), which the paper
uses to represent heterogeneous/wide links (§VII-B).

Two views of a topology are needed by the rest of the system:

* a *routing* view used by the network simulator to expand a node-to-node
  message into the sequence of links it traverses, and
* an *allocation* view used by the MultiTree construction (Algorithm 1),
  which hands out link capacity one unit at a time and supports the
  indirect-network extension of §III-C3.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Default link parameters from Table III of the paper.
DEFAULT_BANDWIDTH = 16e9  # bytes per second
DEFAULT_LATENCY = 150e-9  # seconds

LinkKey = Tuple[int, int]


@dataclass(frozen=True)
class LinkSpec:
    """A directed physical channel between two vertices.

    ``capacity`` is the number of parallel unit links aggregated under this
    key; the simulator treats them as independently grantable channels and
    the MultiTree allocator consumes them one unit at a time.
    """

    src: int
    dst: int
    bandwidth: float = DEFAULT_BANDWIDTH
    latency: float = DEFAULT_LATENCY
    capacity: int = 1

    @property
    def key(self) -> LinkKey:
        return (self.src, self.dst)


#: :func:`topology_fingerprint` digests of spec-parsed topologies, by
#: ``_spec_key``; cleared when full, so a server fed endless distinct
#: specs holds at most this many.
_SPEC_FINGERPRINTS: Dict[object, str] = {}
_SPEC_FINGERPRINTS_MAX = 1024


def topology_fingerprint(topology: "Topology") -> str:
    """Digest of a topology's full link structure.

    Two topologies that merely share a name cannot collide: the digest
    covers the node/switch counts and every link's
    ``(src, dst, bandwidth, latency, capacity)``.  Both the prediction
    cache (:mod:`repro.sweep.cache`) and the compiled-schedule artifact
    store (:mod:`repro.sweep.artifacts`) key on it.

    Memoized per instance: topologies are immutable after construction,
    and every artifact/cache lookup keys on the fingerprint — at 8k+
    nodes re-walking ~50k sorted links per lookup dominates the lookup
    itself.  A topology parsed from a spec
    (:func:`repro.topology.specs.parse_topology`) carries the spec as
    ``_spec_key``; one spec always builds one structure, so every
    instance parsed from it reuses the first instance's digest.  Sweep
    jobs and served queries parse their fabric afresh each time.
    """
    state = topology.__dict__
    cached = state.get("_fingerprint_cache")
    if cached is not None:
        return cached
    spec_key = state.get("_spec_key")
    if spec_key is not None:
        cached = _SPEC_FINGERPRINTS.get(spec_key)
    if cached is not None:
        state["_fingerprint_cache"] = cached
        return cached
    # One hash update over the joined text (the digest equals per-link
    # updates), and each distinct link parameter set formatted once.
    parts = ["%s|%d|%d" % (
        topology.name, topology.num_nodes, topology.num_switches
    )]
    tails: Dict[Tuple[float, float, int], str] = {}
    for _key, spec in sorted(topology.links.items()):
        params = (spec.bandwidth, spec.latency, spec.capacity)
        tail = tails.get(params)
        if tail is None:
            tail = tails[params] = ",%r,%r,%d" % params
        parts.append("|%d,%d%s" % (spec.src, spec.dst, tail))
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()[:16]
    state["_fingerprint_cache"] = digest
    if spec_key is not None:
        if len(_SPEC_FINGERPRINTS) >= _SPEC_FINGERPRINTS_MAX:
            _SPEC_FINGERPRINTS.clear()
        _SPEC_FINGERPRINTS[spec_key] = digest
    return digest


class Topology:
    """Base class for all interconnect topologies.

    Subclasses populate ``_links`` and implement :meth:`route`.  Direct
    networks (Torus, Mesh) have one router per node and no separate switch
    vertices; indirect networks (Fat-Tree, BiGraph) add switch vertices and
    must override :meth:`is_switch` bookkeeping via ``num_switches``.
    """

    #: The parsed :class:`repro.topology.profile.LinkProfile` this instance
    #: was built from, set by the spec layer when a spec carries link mods;
    #: ``None`` for uniform fabrics and direct constructions.
    link_profile = None

    def __init__(self, num_nodes: int, name: str) -> None:
        if num_nodes < 2:
            raise ValueError("a network needs at least 2 nodes, got %d" % num_nodes)
        self.num_nodes = num_nodes
        self.name = name
        self._links: Dict[LinkKey, LinkSpec] = {}
        self._neighbors: Dict[int, List[int]] = {}

    # -- construction helpers -------------------------------------------------

    def _add_link(
        self,
        src: int,
        dst: int,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        capacity: int = 1,
    ) -> None:
        if src == dst:
            raise ValueError("self-link at vertex %d" % src)
        key = (src, dst)
        if key in self._links:
            raise ValueError("duplicate link %s" % (key,))
        self._links[key] = LinkSpec(src, dst, bandwidth, latency, capacity)
        self._neighbors.setdefault(src, []).append(dst)

    def _add_bidirectional(
        self,
        u: int,
        v: int,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        capacity: int = 1,
    ) -> None:
        self._add_link(u, v, bandwidth, latency, capacity)
        self._add_link(v, u, bandwidth, latency, capacity)

    # -- basic queries ---------------------------------------------------------

    @property
    def num_switches(self) -> int:
        return 0

    @property
    def num_vertices(self) -> int:
        return self.num_nodes + self.num_switches

    @property
    def nodes(self) -> range:
        """Compute endpoints."""
        return range(self.num_nodes)

    @property
    def links(self) -> Dict[LinkKey, LinkSpec]:
        return dict(self._links)

    def link(self, src: int, dst: int) -> LinkSpec:
        return self._links[(src, dst)]

    def has_link(self, src: int, dst: int) -> bool:
        return (src, dst) in self._links

    def is_switch(self, vertex: int) -> bool:
        return vertex >= self.num_nodes

    def neighbors(self, vertex: int) -> List[int]:
        """Outgoing neighbors in construction order."""
        return list(self._neighbors.get(vertex, []))

    def node_neighbors(self, node: int) -> List[int]:
        """Adjacent compute nodes (through at most the attached switch)."""
        result = []
        for nxt in self.neighbors(node):
            if self.is_switch(nxt):
                result.extend(n for n in self.neighbors(nxt) if not self.is_switch(n) and n != node)
            else:
                result.append(nxt)
        return result

    def total_link_capacity(self) -> int:
        """Total number of directed unit links (multigraph edges).

        Memoized per instance (links are immutable after construction);
        metrics and bench reporting call this per run, and at large N the
        full-dict sum is measurable.
        """
        total = self.__dict__.get("_total_capacity_cache")
        if total is None:
            total = sum(spec.capacity for spec in self._links.values())
            self.__dict__["_total_capacity_cache"] = total
        return total

    def capacity_template(self) -> Dict[LinkKey, int]:
        """Fresh ``{link key: capacity}`` dict for one allocation step.

        :class:`AllocationGraph` needs a mutable capacity snapshot per
        MultiTree time step.  Deriving it from the :class:`LinkSpec`
        objects costs one attribute walk per link per step; copying a
        cached plain-int template is a single C-level ``dict`` copy.
        """
        template = self.__dict__.get("_capacity_template")
        if template is None:
            template = self.__dict__["_capacity_template"] = {
                key: spec.capacity for key, spec in self._links.items()
            }
        return dict(template)

    # -- routing ---------------------------------------------------------------

    def route(self, src: int, dst: int) -> List[LinkKey]:
        """Sequence of link keys a message takes from node ``src`` to ``dst``.

        Subclasses implement topology-specific deterministic routing
        (dimension-order for grids, up-down for trees).
        """
        raise NotImplementedError

    def route_latency(self, src: int, dst: int) -> float:
        """Sum of propagation latencies along the route (no serialization)."""
        return sum(self._links[key].latency for key in self.route(src, dst))

    def hop_count(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))

    # -- MultiTree allocation view ----------------------------------------------

    def allocation_graph(self) -> "AllocationGraph":
        """A fresh capacity snapshot used for one MultiTree time step."""
        raise NotImplementedError

    def neighbor_preference(self, vertex: int) -> List[int]:
        """Neighbor visiting order for MultiTree child selection.

        Grids override this to prefer the Y dimension before X (§III-C1);
        the default is construction order.
        """
        return self.neighbors(vertex)

    def neighbor_preference_cached(self, vertex: int) -> Tuple[int, ...]:
        """Memoized :meth:`neighbor_preference` (topologies are immutable).

        Tree construction probes the same parents thousands of times per
        build; deriving the preference order once per vertex instead of per
        probe is one of the construction fast paths.
        """
        cache = self.__dict__.setdefault("_pref_cache", {})
        pref = cache.get(vertex)
        if pref is None:
            pref = cache[vertex] = tuple(self.neighbor_preference(vertex))
        return pref

    def neighbors_cached(self, vertex: int) -> Tuple[int, ...]:
        """Memoized :meth:`neighbors` (no per-call list copy)."""
        cache = self.__dict__.setdefault("_neighbors_cache", {})
        result = cache.get(vertex)
        if result is None:
            result = cache[vertex] = tuple(self._neighbors.get(vertex, ()))
        return result

    def switch_tables(self) -> "SwitchTables":
        """Memoized §III-C3 adjacency, split by vertex kind.

        Indexed by vertex id, each entry a tuple of ``(link key, vertex)``
        pairs in construction order: ``uplinks[node]`` are the node's
        links into switches, ``down[switch]`` the switch's links to
        compute nodes and ``across[switch]`` its links to other switches.
        The switch search walks these instead of re-splitting a
        neighbor list with :meth:`is_switch` on every visit.
        """
        tables = self.__dict__.get("_switch_tables")
        if tables is None:
            count = self.num_vertices
            uplinks: List[Tuple[Tuple[LinkKey, int], ...]] = [()] * count
            down: List[Tuple[Tuple[LinkKey, int], ...]] = [()] * count
            across: List[Tuple[Tuple[LinkKey, int], ...]] = [()] * count
            for v in range(count):
                nbrs = self.neighbors_cached(v)
                to_switch = tuple(((v, u), u) for u in nbrs if self.is_switch(u))
                if self.is_switch(v):
                    across[v] = to_switch
                    down[v] = tuple(
                        ((v, u), u) for u in nbrs if not self.is_switch(u)
                    )
                else:
                    uplinks[v] = to_switch
            tables = self.__dict__["_switch_tables"] = SwitchTables(
                tuple(uplinks), tuple(down), tuple(across)
            )
        return tables

    # -- misc -------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(nodes=%d, switches=%d, links=%d)" % (
            self.name,
            self.num_nodes,
            self.num_switches,
            len(self._links),
        )


class SwitchTables(NamedTuple):
    """Per-vertex adjacency of a switched topology (see
    :meth:`Topology.switch_tables`)."""

    uplinks: Tuple[Tuple[Tuple[LinkKey, int], ...], ...]
    down: Tuple[Tuple[Tuple[LinkKey, int], ...], ...]
    across: Tuple[Tuple[Tuple[LinkKey, int], ...], ...]


@dataclass
class Allocation:
    """The result of connecting a child node to a parent during tree build."""

    parent: int
    child: int
    route: List[LinkKey] = field(default_factory=list)


class AllocationGraph:
    """Remaining link capacity during one MultiTree time step.

    Algorithm 1 copies the full topology graph at the start of each time
    step and removes edges as they are allocated to trees.  ``find_child``
    implements line 10 (direct networks) or the BFS extension of §III-C3
    (indirect networks), and *commits* the consumed capacity.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # One C-level dict copy of the cached template instead of a
        # whole-graph LinkSpec walk (plus the ``links`` property's dict
        # copy) per time step — this runs once per MultiTree step.
        #: Remaining units per link key; construction reads it to skip
        #: parents without probing.  Only allocations consume it.
        self.capacity: Dict[LinkKey, int] = topology.capacity_template()
        #: ``spent[node]`` is set once every link a search could start on
        #: from ``node`` is used up for this step; the node then fails
        #: every probe, so construction skips it without probing.
        #: Allocators that do not track this leave it all zero.
        self.spent = bytearray(topology.num_nodes)
        #: How many ``spent`` bytes are still clear.  At zero no probe
        #: can succeed, so construction ends the step.
        self.unspent = topology.num_nodes

    def remaining(self, key: LinkKey) -> int:
        return self.capacity.get(key, 0)

    def total_remaining(self) -> int:
        return sum(self.capacity.values())

    def _consume(self, key: LinkKey) -> None:
        left = self.capacity.get(key, 0)
        if left <= 0:
            raise RuntimeError("link %s has no remaining capacity" % (key,))
        self.capacity[key] = left - 1

    def route_limits(self) -> Tuple[Optional[int], ...]:
        """The route-length ladder construction should probe, short first.

        Searching same-switch routes (2 links) before one inter-switch hop
        (3) before unbounded is the "check close neighbors first"
        refinement of §III-C3.  Allocators for which the ladder collapses
        (direct networks: every candidate is exactly one link) override
        this so callers skip the redundant passes.
        """
        return (2, 3, None)

    def find_child(
        self,
        parent: int,
        eligible: Callable[[int], bool],
        max_route_len: Optional[int] = None,
    ) -> Optional[Allocation]:
        """Find and connect an eligible child node reachable from ``parent``.

        ``max_route_len`` optionally bounds the number of links in the
        allocated route, letting callers prefer short connections (same
        switch, then one inter-switch hop) before long ones.  Returns
        ``None`` when no capacity-respecting connection exists.  On success
        the traversed capacity has been consumed.
        """
        raise NotImplementedError

    def turn(self, joined: Sequence[int]) -> "Probe":
        """A child probe for one tree's turn of Algorithm 1.

        ``joined[node]`` is truthy for nodes already in the tree.  The
        returned ``probe(parent, max_route_len=None)`` behaves exactly
        like :meth:`find_child` with the complementary eligibility.  A
        turn consumes capacity only in its one successful probe, so an
        allocator may reuse search state across the turn's probes;
        take a fresh probe for every turn.
        """
        find_child = self.find_child

        def eligible(node: int) -> bool:
            return not joined[node]

        def probe(parent: int, max_route_len: Optional[int] = None):
            return find_child(parent, eligible, max_route_len)

        return probe


#: ``probe(parent, max_route_len=None) -> Optional[Allocation]``; the
#: switched allocator's probe also takes a ``dead`` table (see
#: :meth:`IndirectAllocationGraph.turn`).
Probe = Callable[..., Optional[Allocation]]


class DirectAllocationGraph(AllocationGraph):
    """Allocator for direct networks: children are physical neighbors."""

    def route_limits(self) -> Tuple[Optional[int], ...]:
        # Every allocatable route is a single link, so any limit >= 1
        # finds exactly what the unbounded search finds: one pass suffices.
        return (None,)

    def find_child(
        self,
        parent: int,
        eligible: Callable[[int], bool],
        max_route_len: Optional[int] = None,
    ) -> Optional[Allocation]:
        if max_route_len is not None and max_route_len < 1:
            return None
        capacity = self.capacity
        for child in self.topology.neighbor_preference_cached(parent):
            key = (parent, child)
            if capacity.get(key, 0) > 0 and eligible(child):
                capacity[key] -= 1
                return Allocation(parent, child, [key])
        return None


class IndirectAllocationGraph(AllocationGraph):
    """Allocator implementing the switch-based extension of §III-C3.

    The search runs breadth-first over switches starting from the parent's
    attached switch.  At each switch it first tries to eject to an eligible
    node attached there (switch-to-node capacity), then expands to neighbor
    switches through remaining switch-to-switch capacity.  All capacity on
    the successful path — node-to-switch, the traversed switch-to-switch
    links, and the final switch-to-node link — is consumed.

    A route limit of ``L`` links admits ejection from switches at most
    ``L - 2`` levels from the start switch, so a bounded search is a
    prefix of the unbounded one.  The search past the first hop depends
    only on its start switch, the remaining capacity and the tree's
    membership; within a step capacity only shrinks and membership only
    grows.  :meth:`turn` exploits both: one resumable search per start
    switch answers every parent attached there at every rung of the
    turn, and a search that fails marks its start switch dead for that
    tree and rung for the rest of the step.
    """

    def find_child(
        self,
        parent: int,
        eligible: Callable[[int], bool],
        max_route_len: Optional[int] = None,
    ) -> Optional[Allocation]:
        joined = bytearray(
            not eligible(node) for node in range(self.topology.num_nodes)
        )
        return self.turn(joined)(parent, max_route_len)

    def turn(self, joined: Sequence[int]) -> Probe:
        """A child probe for one tree's turn; see :meth:`AllocationGraph.turn`.

        The probe takes an optional third argument ``dead``, a byte table
        over vertices owned by the caller for one (tree, rung) pair and
        step.  The probe skips uplinks whose start switch is marked there
        and marks every start switch whose search fails at this rung: no
        later probe of the same tree at the same rung can succeed from it
        within the step.  Uplinks are still tried in order, and each
        parent commits its own uplink as the route's first hop.
        """
        capacity = self.capacity
        uplinks, down, across = self.topology.switch_tables()
        unbounded = self.topology.num_switches  # deeper than any BFS level
        searches: Dict[int, _SwitchSearch] = {}  # by start switch

        def probe(
            parent: int,
            max_route_len: Optional[int] = None,
            dead: Optional[bytearray] = None,
        ) -> Optional[Allocation]:
            deepest = unbounded if max_route_len is None else max_route_len - 2
            for first_key, start in uplinks[parent]:
                if capacity[first_key] <= 0:
                    continue  # uplink spent for this step
                if dead is not None and dead[start]:
                    continue  # failed from here earlier in the step
                search = searches.get(start)
                if search is None:
                    search = searches[start] = _SwitchSearch(start)
                prev = search.prev
                while search.level:
                    if not search.scanned:
                        if search.depth > deepest:
                            break
                        for switch in search.level:
                            for key, node in down[switch]:
                                if not joined[node] and capacity[key] > 0:
                                    return self._commit(
                                        parent, first_key, prev, switch, key, node
                                    )
                        search.scanned = True
                    if search.depth >= deepest:
                        break  # the next level is beyond this rung
                    nxt = []
                    for switch in search.level:
                        for key, other in across[switch]:
                            if other not in prev and capacity[key] > 0:
                                prev[other] = switch
                                nxt.append(other)
                    search.level = nxt
                    search.depth += 1
                    search.scanned = False
                if dead is not None:
                    dead[start] = 1
            return None

        return probe

    def _commit(
        self,
        parent: int,
        first_key: LinkKey,
        prev: Dict[int, int],
        switch: int,
        eject_key: LinkKey,
        child: int,
    ) -> Allocation:
        """Consume the route ending at ``switch -> child`` and return it."""
        hops = [eject_key]
        at = switch
        before = prev[at]
        while before >= 0:
            hops.append((before, at))
            at = before
            before = prev[at]
        hops.append(first_key)
        hops.reverse()
        capacity = self.capacity
        for key in hops:
            capacity[key] -= 1
        # Only the first hop leaves a node, so only the parent can have
        # just spent its last uplink.
        if capacity[first_key] <= 0 and all(
            capacity[key] <= 0
            for key, _switch in self.topology.switch_tables().uplinks[parent]
        ):
            self.spent[parent] = 1
            self.unspent -= 1
        return Allocation(parent, child, hops)


class _SwitchSearch:
    """One start switch's breadth-first search, resumable across rungs.

    Shared by every parent attached to the start switch within one turn:
    nothing is consumed before the turn's successful probe, so each
    parent would repeat the same search.

    ``level`` holds the switches ``depth`` hops from the start switch,
    ``scanned`` records that none of them can eject a child, and ``prev``
    maps every visited switch to its BFS predecessor (``-1`` for the
    start): the visited set and every path, as parent pointers.
    """

    __slots__ = ("level", "depth", "scanned", "prev")

    def __init__(self, start: int) -> None:
        self.level = [start]
        self.depth = 0
        self.scanned = False
        self.prev = {start: -1}
