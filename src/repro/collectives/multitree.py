"""MULTITREE all-reduce construction and scheduling (Algorithm 1, §III).

One spanning tree is rooted at every node.  Trees are built *top-down and
concurrently*: for each time step a fresh copy of the topology graph hands
out link capacity, trees take turns (ascending root id) adding one child at
a time to a node that joined in a *previous* step, and the step ends when no
tree can connect another node with the remaining capacity.  Building from
the roots makes the levels near the roots denser — balancing communication
across tree levels — and consuming shared link capacity inside a step makes
the resulting per-step schedule contention-free by construction.

The all-gather (broadcast) schedule falls directly out of construction; the
reduce-scatter schedule is its time-reversed mirror (lines 16-18).  On
switch-based networks, child search runs breadth-first over the
node-to-switch / switch-to-switch / switch-to-node capacity lists (§III-C3)
and the allocated route is recorded on each op for source routing (§IV-B).
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..topology.base import Allocation, LinkKey, Topology
from .schedule import ChunkRange, CommOp, OpKind, Schedule


@dataclass
class TreeEdge:
    """One parent->child connection with its construction time step."""

    parent: int
    child: int
    step: int
    route: Tuple[LinkKey, ...]


@dataclass
class SpanningTree:
    """A schedule tree rooted at ``root`` (the flow/tree id).

    Parent/child adjacency is indexed at :meth:`add` time so
    :meth:`parent_of` and :meth:`children_of` are O(1) lookups instead of
    O(E) scans over ``edges``.
    """

    root: int
    num_nodes: int
    edges: List[TreeEdge] = field(default_factory=list)
    added_step: Dict[int, int] = field(default_factory=dict)
    order: List[int] = field(default_factory=list)
    _parent: Dict[int, int] = field(default_factory=dict, repr=False)
    _children: Dict[int, List[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.order:
            self.added_step[self.root] = 0
            self.order.append(self.root)
        elif self.edges and not self._parent:
            # Rebuilt from pre-populated fields (e.g. deserialization):
            # derive the adjacency indices from the edge list.
            for edge in self.edges:
                self._parent[edge.child] = edge.parent
                self._children.setdefault(edge.parent, []).append(edge.child)

    @property
    def members(self) -> Dict[int, int]:
        return self.added_step

    @property
    def complete(self) -> bool:
        return len(self.added_step) == self.num_nodes

    def add(self, allocation: Allocation, step: int) -> None:
        child = allocation.child
        if child in self.added_step:
            raise ValueError("node %d already in tree %d" % (child, self.root))
        parent = allocation.parent
        self.edges.append(TreeEdge(parent, child, step, tuple(allocation.route)))
        self.added_step[child] = step
        self.order.append(child)
        self._parent[child] = parent
        self._children.setdefault(parent, []).append(child)

    def parents_for_step(self, step: int) -> List[int]:
        """Members added before ``step``, in breadth-first addition order."""
        return [n for n in self.order if self.added_step[n] < step]

    def parent_of(self, node: int) -> Optional[int]:
        return self._parent.get(node)

    def children_of(self, node: int) -> List[int]:
        return list(self._children.get(node, ()))

    def depth(self) -> int:
        return max((edge.step for edge in self.edges), default=0)


#: Tree turn orders for the construction loop (line 8 of Algorithm 1).
#: ``root-id`` is the paper's default ("works fine in most cases,
#: especially for symmetric networks like Torus"); ``most-remaining``
#: prioritizes trees with the most unconnected nodes — the paper's
#: suggested refinement for asymmetric/irregular networks where trees with
#: larger remaining height should be scheduled earlier.
TREE_PRIORITIES = ("root-id", "most-remaining")


class FlatForest:
    """Array-backed MultiTree forest — the large-N construction product.

    One growable typed array per column instead of per-edge
    :class:`TreeEdge` objects and per-tree dicts: at 8k nodes the object
    forest holds ~67M dataclass instances (tens of GiB and a cyclic-GC
    scan burden), while the flat form is a few hundred MiB of ``array``
    buffers that convert zero-copy to numpy for the streaming compiler.

    Per tree (indexed by root id): ``edge_parent[root][k]`` /
    ``edge_child[root][k]`` / ``edge_step[root][k]`` describe the k-th
    edge in addition order, and ``orders[root]`` is the breadth-first
    member order starting at the root.  ``edge_routes`` is only populated
    on switched topologies (direct-network routes are always the single
    ``(parent, child)`` link and are reconstructed on demand).
    """

    __slots__ = (
        "num_nodes",
        "tot_t",
        "edge_parent",
        "edge_child",
        "edge_step",
        "edge_routes",
        "orders",
    )

    def __init__(self, num_nodes: int, typecode: str, switched: bool) -> None:
        self.num_nodes = num_nodes
        self.tot_t = 0
        self.edge_parent: List[array] = [array(typecode) for _ in range(num_nodes)]
        self.edge_child: List[array] = [array(typecode) for _ in range(num_nodes)]
        self.edge_step: List[array] = [array(typecode) for _ in range(num_nodes)]
        self.edge_routes: Optional[List[List[Tuple[LinkKey, ...]]]] = (
            [[] for _ in range(num_nodes)] if switched else None
        )
        self.orders: List[array] = [
            array(typecode, (root,)) for root in range(num_nodes)
        ]

    def num_edges(self) -> int:
        return sum(len(par) for par in self.edge_parent)

    def depth(self, root: int) -> int:
        steps = self.edge_step[root]
        return max(steps) if steps else 0

    def route_of(self, root: int, k: int) -> Tuple[LinkKey, ...]:
        """Allocated route of the k-th edge of tree ``root``."""
        if self.edge_routes is not None:
            return self.edge_routes[root][k]
        return ((self.edge_parent[root][k], self.edge_child[root][k]),)

    def to_trees(self) -> List[SpanningTree]:
        """Materialize the object forest (small-N / rendering paths)."""
        trees: List[SpanningTree] = []
        for root in range(self.num_nodes):
            tree = SpanningTree(root=root, num_nodes=self.num_nodes)
            parents = self.edge_parent[root]
            childs = self.edge_child[root]
            steps = self.edge_step[root]
            for k in range(len(parents)):
                parent = parents[k]
                child = childs[k]
                step = steps[k]
                tree.edges.append(
                    TreeEdge(parent, child, step, self.route_of(root, k))
                )
                tree.added_step[child] = step
                tree.order.append(child)
                tree._parent[child] = parent
                tree._children.setdefault(parent, []).append(child)
            trees.append(tree)
        return trees


def build_forest(
    topology: Topology, priority: str = "root-id"
) -> FlatForest:
    """Run Algorithm 1's construction loop (lines 1-15) into flat arrays.

    Exactly the sequence of allocations :func:`build_trees` historically
    produced — same turn order, same parent probe order, same capacity
    consumption — recorded into a :class:`FlatForest` instead of
    :class:`SpanningTree` objects.  Structural observations make the
    probe loop cheap without changing its outcome:

    * Line 9's parent set is fixed for the whole step (children added
      *during* a step never qualify), so each tree scans a length
      snapshot of its addition order rather than a fresh list copy.
    * ``find_child`` is monotone within a step — capacity and eligible
      sets only shrink — and a turn always probes parents in snapshot
      order, failing (and thereby permanently exhausting) every parent
      before the one that succeeds.  The exhausted set is therefore
      always a *prefix* of the snapshot, so a per-``(tree, limit)``
      cursor replaces the seed implementation's per-parent dead-set
      membership tests.
    * On switched fabrics the same monotonicity holds per start switch:
      once a switch search fails for a (tree, limit), every parent whose
      live uplinks all lead to such dead switches is skipped without a
      probe.  Every allocation spends one parent uplink, so once every
      node's uplinks are spent the step ends (the switched analogue of
      the direct path's capacity budget).
    * Some of that deadness is permanent: at a bounded rung a start
      switch's search can only eject to nodes attached within the
      rung's reach (``limit - 2`` across-hops, capacity ignored), so
      once every such node has joined a tree the switch is dead for
      that tree and rung for the rest of the build (the switched
      counterpart of the direct path's dead mask).  A per-(tree, rung)
      count of non-members in each start switch's reach finds these
      switches; they seed every step's dead tables, and the bounded
      rungs walk a live-parent list in tree order instead of the whole
      snapshot, dropping a parent once every uplink's start switch is
      dead.  A capacity-limited search reaches a subset of the
      structural reach, so a dropped parent would have failed its
      probe, and the turn's shared search resumes to the same answer.

    Runs inside a ``multitree.build`` span carrying the step and turn
    counts, plus the allocator's probe calls where construction probes
    through one (the direct fast path scans neighbor lists inline).
    While metering, the span also carries each tree's depth and largest
    fan-out, in root order.
    """
    if priority not in TREE_PRIORITIES:
        raise ValueError(
            "unknown priority %r; choose from %s" % (priority, TREE_PRIORITIES)
        )
    with obs.span(
        "multitree.build", topology=topology.name, priority=priority
    ) as sp:
        forest, turns, probes = _grow_forest(topology, priority)
        sp.set("steps", forest.tot_t)
        sp.set("turns", turns)
        sp.set("probes", probes)
        if obs.metering():
            roots = range(forest.num_nodes)
            sp.set("depths", [forest.depth(root) for root in roots])
            sp.set("branching", [
                max(Counter(forest.edge_parent[root]).values(), default=0)
                for root in roots
            ])
    return forest


def _grow_forest(
    topology: Topology, priority: str
) -> Tuple[FlatForest, int, Optional[int]]:
    """:func:`build_forest`'s loop; returns the forest, turns and probes
    (``None`` on the direct fast path)."""
    n = topology.num_nodes
    typecode = "h" if topology.num_vertices <= 0x7FFF else "i"
    switched = topology.num_switches > 0
    forest = FlatForest(n, typecode, switched=switched)
    orders = forest.orders
    e_parent = forest.edge_parent
    e_child = forest.edge_child
    e_step = forest.edge_step
    e_routes = forest.edge_routes
    # One membership byte table per tree: stays correct as children join.
    member = [bytearray(n) for _ in range(n)]
    for root in range(n):
        member[root][root] = 1
    counts = [1] * n  # members per tree (root included)
    most_remaining = priority == "most-remaining"
    version = 0  # bumped on every add; lets the sorted turn order be reused
    complete_trees = 0
    step = 0
    # Every turn either connects a child or stalls its tree for the
    # step, so turns = edges + stalls and the loops need not count them.
    stalls = probes = 0
    roots = range(n)

    # The allocator advertises which route-length limits are worth
    # probing: (2, 3, None) on switch-based networks — the same-switch /
    # one-inter-switch-hop / unbounded ladder of §III-C3 ("check close
    # neighbors first").
    limits = topology.allocation_graph().route_limits()
    num_limits = len(limits)
    direct = not switched and limits == (None,)
    if switched:
        uplinks = topology.switch_tables().uplinks
        num_vertices = topology.num_vertices
        # A start switch whose structural reach at a bounded rung holds no
        # non-member can never eject a child for that tree at that rung
        # again — membership only grows, so unlike a failed search this
        # deadness outlives the step.  Per (tree, rung): the non-member
        # count of every start switch's reach; ``gone``, set for each
        # switch that count has zeroed and for each node whose uplinks
        # all lead to such switches; and the parents not gone, in tree order
        # (``live``; compacted at step start once a switch has died,
        # flagged in ``stale``).
        reach_size, holders = _start_switch_reach(topology, limits)
        attached: Dict[int, List[int]] = {}
        for node in roots:
            for _key, start in uplinks[node]:
                attached.setdefault(start, []).append(node)
        left = [
            [None if size is None else list(size) for size in reach_size]
            for _ in roots
        ]
        gone = [
            [None if size is None else bytearray(num_vertices)
             for size in reach_size]
            for _ in roots
        ]
        live: List[List[List[int]]] = [
            [[] for _ in range(num_limits)] for _ in roots
        ]
        stale = [bytearray(num_limits) for _ in roots]
        seen = [0] * n  # addition-order entries already sorted into ``live``

        def bury(rung_gone: bytearray, start: int) -> None:
            rung_gone[start] = 1
            for node in attached[start]:
                if all(rung_gone[s] for _key, s in uplinks[node]):
                    rung_gone[node] = 1

        for root in roots:
            for li, start in holders[root]:
                left[root][li][start] -= 1
                if not left[root][li][start]:
                    bury(gone[root][li], start)
    if direct:
        # Array-backed adjacency for the direct fast path: the
        # preference-ordered neighbor/link-id lists of every node,
        # concatenated, plus the per-link capacity template.  The per-step
        # allocator state collapses to one flat int list.
        # Plain lists, not typed arrays: these tables are O(links) small,
        # and a list fetch returns the stored int object while an ``array``
        # fetch boxes a fresh one — a ~3x difference on the probe loop.
        id_of: Dict[LinkKey, int] = {}
        cap_template: List[int] = []
        pref_off = [0] * (n + 1)
        pref_child: List[int] = []
        pref_link: List[int] = []
        max_deg = 0
        for p in range(n):
            deg = 0
            for c in topology.neighbor_preference_cached(p):
                key = (p, c)
                lid = id_of.get(key)
                if lid is None:
                    lid = id_of[key] = len(cap_template)
                    cap_template.append(topology.link(p, c).capacity)
                pref_child.append(c)
                pref_link.append(lid)
                deg += 1
            pref_off[p + 1] = len(pref_child)
            if deg > max_deg:
                max_deg = deg
        direct = max_deg <= 16  # mask fits 'H'; real grids are degree <= 6
    if direct:
        step_budget = sum(cap_template)
        # An entry whose child has *joined* the tree can never yield again
        # — membership only grows, so member-deadness is permanent across
        # steps, unlike capacity exhaustion which resets.  A bitmask of
        # dead entries per (tree, parent) plus a table mapping mask ->
        # live entry positions makes every member entry cost one skip
        # *ever* instead of one per step; parents with a full mask are
        # dead outright, and a dead-prefix bound over the (breadth-first)
        # addition order jumps the scan straight to the active frontier.
        # Without this the construction is O(n^3)-flavored and 2k+ nodes
        # are out of reach.
        full_mask = (1 << max_deg) - 1
        bit = [1 << k for k in range(max_deg)]
        live_ks = [
            tuple(k for k in range(max_deg) if not mask & (1 << k))
            for mask in range(full_mask + 1)
        ]
        mcode = "B" if full_mask <= 0xFF else "H"
        mask_template = array(
            mcode,
            [
                full_mask ^ ((1 << (pref_off[p + 1] - pref_off[p])) - 1)
                for p in range(n)
            ],
        )
        masks = [array(mcode, mask_template) for _ in range(n)]
        perm_pi = [0] * n

    while complete_trees < n:
        step += 1
        snap_len = counts[:]  # per-tree parent snapshot for this step
        stalled = bytearray(n)
        sorted_order: List[int] = []
        sorted_version = -1
        if direct:
            # One C-level copy of the capacity ints — the step's G'(V', E').
            cap = cap_template.copy()
            budget = step_budget
            # Resume point per tree: index into the parent snapshot plus an
            # absolute position in the concatenated preference lists (-1 =
            # start of the current parent's list).  Within a step a neighbor
            # rejected once stays rejected — capacity only shrinks and
            # membership only grows — so the scan never needs to revisit
            # anything left of the resume point: the probe outcome is
            # identical to rescanning from the start of the snapshot.
            par_idx = [-1] * n
            resume_k = [0] * n
            saturated = False
            progress = True
            while progress and not saturated:
                progress = False
                if most_remaining:
                    if sorted_version != version:
                        sorted_order = sorted(
                            roots, key=lambda r: (counts[r], r)
                        )
                        sorted_version = version
                    turn_order = sorted_order
                else:
                    turn_order = roots  # ascending root id (line 8)
                for root in turn_order:
                    if counts[root] == n or stalled[root]:
                        continue
                    mem = member[root]
                    pmask = masks[root]
                    order = orders[root]
                    bound = snap_len[root]
                    pi = par_idx[root]
                    if pi < 0:
                        pi = perm_pi[root]
                    rk = resume_k[root]
                    found = -1
                    parent = -1
                    while pi < bound:  # line 9
                        parent = order[pi]
                        mask = pmask[parent]
                        if mask == full_mask:  # no live entries, ever
                            if pi == perm_pi[root]:
                                perm_pi[root] = pi + 1
                            pi += 1
                            rk = 0
                            continue
                        off = pref_off[parent]
                        for k in live_ks[mask]:  # line 10
                            if k < rk:  # already probed this step
                                continue
                            c = pref_child[off + k]
                            if mem[c]:
                                mask |= bit[k]  # dead for the whole build
                                continue
                            lid = pref_link[off + k]
                            if cap[lid] > 0:
                                cap[lid] -= 1
                                found = c
                                rk = k + 1
                                break
                            # Capacity block only — retry next step.
                        pmask[parent] = mask
                        if found >= 0:
                            break
                        # Parent exhausted for this step; a full mask means
                        # it is dead for the rest of the build.
                        if mask == full_mask and pi == perm_pi[root]:
                            pp = pi + 1
                            cnt = counts[root]
                            while pp < cnt and pmask[order[pp]] == full_mask:
                                pp += 1
                            perm_pi[root] = pp
                        pi += 1
                        rk = 0
                    par_idx[root] = pi
                    resume_k[root] = rk
                    if found >= 0:
                        e_parent[root].append(parent)
                        e_child[root].append(found)
                        e_step[root].append(step)
                        mem[found] = 1
                        order.append(found)
                        counts[root] += 1
                        if counts[root] == n:
                            complete_trees += 1
                        version += 1
                        progress = True
                        budget -= 1
                        if budget == 0:
                            # Every capacity unit of this step is consumed:
                            # no tree can connect another child, so further
                            # probing (and the per-tree stall proof) is
                            # pointless — identical outcome, skipped work.
                            saturated = True
                            break
                    else:
                        stalled[root] = 1  # cannot reconnect this step
        else:
            alloc = topology.allocation_graph()  # fresh G' for this step
            turn = alloc.turn
            spent = alloc.spent
            capacity = alloc.capacity
            # Exhausted-prefix cursor per (tree, limit); see the docstring.
            cursors = [[0] * num_limits for _ in roots]
            # The sequence each (tree, limit) walks and its length this
            # step; switched trees walk their live-parent lists at the
            # bounded rungs and the whole snapshot only unbounded.
            walks: List[List[Tuple[Sequence[int], int]]] = []
            # Dead start switches per (tree, limit), seeded with the
            # membership-dead ones; see the docstring.
            dead: List[List[bytearray]] = []
            for root in roots:
                order = orders[root]
                snapshot = (order, snap_len[root])
                if not switched or counts[root] == n:
                    walks.append([snapshot] * num_limits)
                    dead.append([])
                    continue
                fresh = order[seen[root]:snap_len[root]]
                seen[root] = snap_len[root]
                rungs = []
                rung_deads = []
                for li in range(num_limits):
                    rung_gone = gone[root][li]
                    if rung_gone is None:
                        rungs.append(snapshot)
                        rung_deads.append(bytearray(num_vertices))
                        continue
                    parents = live[root][li]
                    if stale[root][li]:
                        stale[root][li] = 0
                        parents = live[root][li] = [
                            p for p in parents if not rung_gone[p]
                        ]
                    parents.extend([p for p in fresh if not rung_gone[p]])
                    rungs.append((parents, len(parents)))
                    rung_deads.append(bytearray(rung_gone))
                walks.append(rungs)
                dead.append(rung_deads)
            progress = True
            while progress:
                progress = False
                if most_remaining:
                    if sorted_version != version:
                        sorted_order = sorted(
                            roots, key=lambda r: (counts[r], r)
                        )
                        sorted_version = version
                    turn_order = sorted_order
                else:
                    turn_order = roots  # ascending root id (line 8)
                for root in turn_order:
                    if counts[root] == n or stalled[root]:
                        continue
                    # One probe per turn: nothing is consumed before its
                    # successful call, so it may share search state
                    # across the ladder's rungs.
                    probe = turn(member[root])
                    walk = walks[root]
                    cur = cursors[root]
                    found = None
                    for li in range(num_limits):
                        limit = limits[li]
                        parents, bound = walk[li]
                        i = cur[li]
                        rung_dead = dead[root][li] if switched else None
                        while i < bound:  # line 9
                            parent = parents[i]
                            # A parent with every uplink spent fails any
                            # probe, and so does one whose live uplinks all
                            # lead to switches already dead at this rung:
                            # skipping either changes nothing.
                            if not spent[parent]:
                                if rung_dead is None:
                                    probes += 1
                                    found = probe(parent, limit)
                                else:
                                    for key, start in uplinks[parent]:
                                        if not rung_dead[start] and capacity[key] > 0:
                                            probes += 1
                                            found = probe(parent, limit, rung_dead)
                                            break
                                if found is not None:
                                    break
                            i += 1
                        cur[li] = i
                        if found is not None:
                            break
                    if found is not None:
                        child = found.child
                        e_parent[root].append(found.parent)
                        e_child[root].append(child)
                        e_step[root].append(step)
                        if e_routes is not None:
                            e_routes[root].append(tuple(found.route))
                        member[root][child] = 1
                        orders[root].append(child)
                        counts[root] += 1
                        if counts[root] == n:
                            complete_trees += 1
                        version += 1
                        progress = True
                        if switched:
                            tree_left = left[root]
                            for li, start in holders[child]:
                                rung_left = tree_left[li]
                                rung_left[start] -= 1
                                if not rung_left[start]:
                                    bury(gone[root][li], start)
                                    dead[root][li][start] = 1
                                    stale[root][li] = 1
                        if alloc.unspent == 0:
                            # Every allocation spends a parent uplink and
                            # none is left: no tree can connect another
                            # child this step, so skip the stall proofs.
                            progress = False
                            break
                    else:
                        stalled[root] = 1  # cannot reconnect this step
        stalls += stalled.count(1)
        if step > 4 * n:  # safety net; never triggered on connected graphs
            raise RuntimeError("MultiTree construction did not converge")
    forest.tot_t = step
    return forest, forest.num_edges() + stalls, None if direct else probes


def _start_switch_reach(
    topology: Topology, limits: Sequence[Optional[int]]
) -> Tuple[List[Optional[List[int]]], List[List[Tuple[int, int]]]]:
    """Structural reach of every start switch at each bounded rung.

    A route limit of ``L`` links ejects only from switches within
    ``L - 2`` across-hops of the start switch (see
    :class:`~repro.topology.base.IndirectAllocationGraph`); ignoring
    capacity, the compute nodes attached to those switches are every
    child such a search could ever find.  Returns ``reach_size[li][v]``,
    the reach's node count for start switch ``v`` at rung ``li`` (zero
    for other vertices; ``None`` in place of the unbounded rung's list),
    and ``holders[node]``, the ``(li, start)`` pairs whose reach holds
    ``node``.
    """
    n = topology.num_nodes
    uplinks, down, across = topology.switch_tables()
    starts = sorted({start for node in range(n) for _key, start in uplinks[node]})
    reach_size: List[Optional[List[int]]] = [None] * len(limits)
    holders: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for li, limit in enumerate(limits):
        if limit is None:
            continue
        reach_size[li] = [0] * topology.num_vertices
        for start in starts:
            visited = {start}
            level = [start]
            for _hop in range(limit - 2):
                nxt = []
                for switch in level:
                    for _key, other in across[switch]:
                        if other not in visited:
                            visited.add(other)
                            nxt.append(other)
                level = nxt
            reach = {node for switch in visited for _key, node in down[switch]}
            reach_size[li][start] = len(reach)
            for node in reach:
                holders[node].append((li, start))
    return reach_size, holders


def build_trees(
    topology: Topology, priority: str = "root-id"
) -> Tuple[List[SpanningTree], int]:
    """Run Algorithm 1's construction loop (lines 1-15).

    Returns the |V| spanning trees (edge steps = all-gather time steps) and
    the total number of time steps ``tot_t``.  The construction itself
    runs in the flat-array form (:func:`build_forest`); this wrapper
    materializes the object forest for the schedule-IR and rendering
    paths.  Large-N callers (the streaming compiler) stay on the flat
    form and never pay for the objects.
    """
    forest = build_forest(topology, priority)
    return forest.to_trees(), forest.tot_t


def _reverse_route(route: Tuple[LinkKey, ...]) -> Tuple[LinkKey, ...]:
    return tuple((dst, src) for (src, dst) in reversed(route))


def multitree_allreduce(topology: Topology, priority: str = "root-id") -> Schedule:
    """Build the full MULTITREE all-reduce schedule.

    Tree ``f`` carries chunk ``f`` (1/n of the gradient).  Reduce-scatter
    runs the trees leaf-to-root in mirrored time (steps ``1..tot_t``), then
    all-gather runs root-to-leaf (steps ``tot_t+1..2*tot_t``), exactly the
    adjustment of lines 16-18.
    """
    trees, tot_t = build_trees(topology, priority)
    return trees_to_schedule(trees, tot_t, topology, priority)


def trees_to_schedule(
    trees: Sequence[SpanningTree],
    tot_t: int,
    topology: Topology,
    priority: str = "root-id",
) -> Schedule:
    """Lower constructed spanning trees to the all-reduce schedule IR."""
    n = topology.num_nodes
    ops: List[CommOp] = []
    for tree in trees:
        chunk = ChunkRange.nth_of(tree.root, n)
        for edge in tree.edges:
            route = edge.route if edge.route else None
            ops.append(
                CommOp(
                    kind=OpKind.REDUCE,
                    src=edge.child,
                    dst=edge.parent,
                    chunk=chunk,
                    step=tot_t - edge.step + 1,
                    flow=tree.root,
                    route=_reverse_route(edge.route) if route else None,
                )
            )
            ops.append(
                CommOp(
                    kind=OpKind.GATHER,
                    src=edge.parent,
                    dst=edge.child,
                    chunk=chunk,
                    step=tot_t + edge.step,
                    flow=tree.root,
                    route=edge.route if route else None,
                )
            )
    return Schedule(
        topology=topology,
        ops=ops,
        algorithm="multitree",
        metadata={
            "tot_t": tot_t,
            "priority": priority,
            "tree_depths": [tree.depth() for tree in trees],
        },
    )
