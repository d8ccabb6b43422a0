"""Unit tests for switch-based topologies (FatTree, BiGraph)."""

import pytest

import repro.topology.base as base
from repro import obs
from repro.bench import reference_build_trees
from repro.collectives import build_trees
from repro.collectives.multitree import _start_switch_reach, build_forest
from repro.topology import BiGraph, FatTree
from repro.topology.base import IndirectAllocationGraph, Topology


class TestFatTreeStructure:
    def test_dgx2_like_16_nodes(self):
        ft = FatTree(4, 4)
        assert ft.num_nodes == 16
        assert ft.num_switches == 8  # 4 leaves + 4 spines

    def test_8ary_64_nodes(self):
        ft = FatTree(8, 8)
        assert ft.num_nodes == 64
        assert ft.num_switches == 16

    def test_leaf_assignment(self):
        ft = FatTree(4, 4)
        assert ft.leaf_of(0) == ft.leaf_of(3)
        assert ft.leaf_of(0) != ft.leaf_of(4)
        assert ft.leaf_members(1) == [4, 5, 6, 7]

    def test_switch_vertices_flagged(self):
        ft = FatTree(4, 4)
        assert not ft.is_switch(15)
        assert ft.is_switch(16)

    def test_full_bisection_uplinks(self):
        ft = FatTree(4, 4)
        leaf = ft.leaf_of(0)
        up = [v for v in ft.neighbors(leaf) if ft.is_switch(v)]
        assert len(up) == 4  # one link to each spine


class TestFatTreeRouting:
    def test_same_leaf_two_hops(self):
        ft = FatTree(4, 4)
        assert len(ft.route(0, 1)) == 2

    def test_cross_leaf_four_hops(self):
        ft = FatTree(4, 4)
        path = ft.route(0, 5)
        assert len(path) == 4
        assert path[0] == (0, ft.leaf_of(0))
        assert path[-1][1] == 5

    def test_route_uses_existing_links(self):
        ft = FatTree(4, 4)
        for src in ft.nodes:
            for dst in ft.nodes:
                for (u, v) in ft.route(src, dst):
                    assert ft.has_link(u, v)

    def test_spines_spread_by_destination(self):
        ft = FatTree(4, 4)
        spines = {ft.route(0, dst)[1][1] for dst in range(4, 8)}
        assert len(spines) == 4  # different dests pick different spines


class TestBiGraphStructure:
    def test_paper_instances(self):
        assert BiGraph(2, 8).num_nodes == 32   # "4x8"
        assert BiGraph(2, 16).num_nodes == 64  # "4x16"

    def test_layers_split_evenly(self):
        bg = BiGraph(2, 8)
        upper = [n for n in bg.nodes if bg.layer_of(n) == 0]
        assert len(upper) == 16

    def test_switch_members(self):
        bg = BiGraph(2, 4)
        first_switch = bg.switch_of(0)
        assert bg.switch_members(first_switch) == [0, 1, 2, 3]

    def test_interlayer_capacity_full_bisection(self):
        bg = BiGraph(2, 8)
        upper_sw = bg.switch_of(0)
        lower_sw = bg.switch_of(31)
        assert bg.link(upper_sw, lower_sw).capacity == 4  # 8 nodes / 2 switches

    def test_no_same_layer_switch_links(self):
        bg = BiGraph(2, 8)
        sw_a = bg.switch_of(0)
        sw_b = bg.switch_of(8)  # second upper switch
        assert not bg.has_link(sw_a, sw_b)

    def test_indivisible_capacity_rejected(self):
        with pytest.raises(ValueError):
            BiGraph(3, 8)


class TestBiGraphRouting:
    def test_same_switch_two_hops(self):
        bg = BiGraph(2, 8)
        assert len(bg.route(0, 1)) == 2

    def test_cross_layer_three_hops(self):
        bg = BiGraph(2, 8)
        src, dst = 0, 16  # upper-layer node to lower-layer node
        assert bg.layer_of(src) != bg.layer_of(dst)
        assert len(bg.route(src, dst)) == 3

    def test_same_layer_cross_switch_four_hops(self):
        bg = BiGraph(2, 8)
        src, dst = 0, 8  # both upper layer, different switches
        assert bg.layer_of(src) == bg.layer_of(dst)
        assert len(bg.route(src, dst)) == 4

    def test_route_links_exist(self):
        bg = BiGraph(2, 4)
        for src in bg.nodes:
            for dst in bg.nodes:
                for (u, v) in bg.route(src, dst):
                    assert bg.has_link(u, v)


class TestIndirectAllocation:
    def test_same_switch_child_preferred(self):
        ft = FatTree(4, 4)
        alloc = ft.allocation_graph()
        assert isinstance(alloc, IndirectAllocationGraph)
        found = alloc.find_child(0, lambda c: c != 0)
        assert found is not None
        # BFS finds a same-leaf node first: route is node->leaf->node.
        assert len(found.route) == 2
        assert found.child in (1, 2, 3)

    def test_cross_switch_when_leaf_exhausted(self):
        ft = FatTree(4, 4)
        alloc = ft.allocation_graph()
        found = alloc.find_child(0, lambda c: c >= 4)
        assert found is not None
        assert len(found.route) == 4

    def test_capacity_consumed_along_route(self):
        ft = FatTree(4, 4)
        alloc = ft.allocation_graph()
        before = alloc.total_remaining()
        found = alloc.find_child(0, lambda c: c >= 4)
        assert alloc.total_remaining() == before - len(found.route)

    def test_nic_capacity_limits_parent(self):
        ft = FatTree(4, 4)
        alloc = ft.allocation_graph()
        assert alloc.find_child(0, lambda c: c != 0) is not None
        # The parent's single NIC uplink is now consumed.
        assert alloc.find_child(0, lambda c: c != 0) is None

    def test_bigraph_allocation_finds_same_switch_first(self):
        bg = BiGraph(2, 8)
        alloc = bg.allocation_graph()
        found = alloc.find_child(0, lambda c: c != 0)
        assert found is not None
        assert len(found.route) == 2


class DualHomed(Topology):
    """Four nodes on three switches; node 0 has two uplinks.

    Node 0 attaches to S1 (first uplink) and S2 (second), node 1 to S1,
    node 2 to S2 and node 3 to S3; S1 and S2 each link to S3.  From node
    0, node 2 is a 2-link route through the second uplink while node 3 is
    only reachable by a 3-link route, through either uplink.
    """

    S1, S2, S3 = 4, 5, 6

    def __init__(self):
        super().__init__(4, "dual-homed")
        for node, switch in ((0, self.S1), (0, self.S2), (1, self.S1),
                             (2, self.S2), (3, self.S3)):
            self._add_bidirectional(node, switch)
        self._add_bidirectional(self.S1, self.S3)
        self._add_bidirectional(self.S2, self.S3)

    @property
    def num_switches(self):
        return 3

    def allocation_graph(self):
        return IndirectAllocationGraph(self)


class TestMultiHomedAllocation:
    S1, S2, S3 = DualHomed.S1, DualHomed.S2, DualHomed.S3

    def test_tables_split_by_vertex_kind(self):
        tables = DualHomed().switch_tables()
        assert tables.uplinks[0] == (((0, self.S1), self.S1),
                                     ((0, self.S2), self.S2))
        assert tables.down[self.S3] == (((self.S3, 3), 3),)
        assert tables.across[self.S3] == (((self.S3, self.S1), self.S1),
                                          ((self.S3, self.S2), self.S2))

    def test_short_rung_met_through_second_uplink(self):
        alloc = DualHomed().allocation_graph()
        found = alloc.find_child(0, lambda c: c in (2, 3), 2)
        assert found.child == 2
        assert found.route == [(0, self.S2), (self.S2, 2)]

    def test_unbounded_search_keeps_uplink_order(self):
        # The first uplink's whole search runs before the second's, so
        # its long route wins over the second uplink's short one.
        alloc = DualHomed().allocation_graph()
        found = alloc.find_child(0, lambda c: c in (2, 3))
        assert found.child == 3
        assert found.route == [(0, self.S1), (self.S1, self.S3), (self.S3, 3)]

    def test_turn_resumes_each_uplink_in_order_across_rungs(self):
        # Node 3 is reachable in 3 links through either uplink.  After
        # the shared rung-2 pass fails, rung 3 must extend the first
        # uplink's search before the second's.
        alloc = DualHomed().allocation_graph()
        probe = alloc.turn(bytearray([1, 1, 1, 0]))
        assert probe(0, 2) is None
        found = probe(0, 3)
        assert found.route == [(0, self.S1), (self.S1, self.S3), (self.S3, 3)]
        assert alloc.remaining((0, self.S1)) == 0
        assert alloc.remaining((0, self.S2)) == 1

    def test_spent_marks_parent_after_last_uplink(self):
        alloc = DualHomed().allocation_graph()
        alloc.find_child(0, lambda c: c == 2)
        assert not alloc.spent[0]  # the first uplink is still free
        alloc.find_child(0, lambda c: c == 3)
        assert alloc.spent[0]
        assert alloc.find_child(0, lambda c: c != 0) is None

    @pytest.mark.parametrize("priority", ["root-id", "most-remaining"])
    def test_construction_matches_seed(self, priority):
        fast, fast_tot = build_trees(DualHomed(), priority)
        ref, ref_tot = reference_build_trees(DualHomed(), priority)
        assert fast_tot == ref_tot
        assert [t.edges for t in fast] == [t.edges for t in ref]


class TestTurnSharing:
    """Each shortcut in a switched turn is exact: pinned one at a time."""

    def test_parents_on_one_switch_share_one_search(self, monkeypatch):
        made = []

        class CountingSearch(base._SwitchSearch):
            __slots__ = ()

            def __init__(self, start):
                made.append(start)
                super().__init__(start)

        monkeypatch.setattr(base, "_SwitchSearch", CountingSearch)
        ft = FatTree(4, 4)
        joined = bytearray(ft.num_nodes)
        for node in ft.leaf_members(0):  # nodes 0-3 share leaf 0
            joined[node] = 1
        probe = ft.allocation_graph().turn(joined)
        found = [probe(0, 2), probe(1, 2), probe(1, None)]
        assert made == [ft.leaf_of(0)]  # one search for both parents
        fresh = [
            ft.allocation_graph().find_child(p, lambda c: not joined[c], limit)
            for p, limit in ((0, 2), (1, 2), (1, None))
        ]
        assert found[:2] == [None, None] == fresh[:2]
        assert (found[2].child, found[2].route) == (fresh[2].child, fresh[2].route)
        assert found[2].route[0] == (1, ft.leaf_of(1))  # its own uplink

    def test_dead_first_switch_connects_through_second_uplink(self):
        S1, S2 = DualHomed.S1, DualHomed.S2
        topo = DualHomed()
        alloc = topo.allocation_graph()
        probe = alloc.turn(bytearray([1, 1, 0, 0]))
        dead = bytearray(topo.num_vertices)
        # Node 1 sits on S1 alone: its failed rung-2 search kills S1.
        assert probe(1, 2, dead) is None
        assert dead[S1] and not dead[S2]
        # Node 0's first uplink now leads to a dead switch; its second
        # is live, so it is still probed and connects through it.
        found = probe(0, 2, dead)
        assert found.child == 2
        assert found.route == [(0, S2), (S2, 2)]
        assert alloc.remaining((0, S1)) == 1

    def test_step_ends_when_every_uplink_is_spent(self):
        ft = FatTree(4, 4)
        alloc = ft.allocation_graph()
        assert alloc.unspent == ft.num_nodes
        for parent in ft.nodes:
            assert alloc.find_child(parent, lambda c: c != parent) is not None
        assert alloc.unspent == 0
        with obs.observing() as rec:
            forest = build_forest(ft)
        attrs = [r["attrs"] for r in rec.records
                 if r["name"] == "multitree.build"][0]
        # Without the early end every step closes with one failed turn
        # per incomplete tree; here every turn connects a child.
        assert attrs["turns"] == forest.num_edges() == 16 * 15

    @staticmethod
    def build_attrs(topology):
        with obs.observing() as rec:
            build_forest(topology, "root-id")
        (span,) = [r for r in rec.records if r["name"] == "multitree.build"]
        return span["attrs"]

    def test_construction_counts_on_fattree_8x8(self):
        attrs = self.build_attrs(FatTree(8, 8))
        assert attrs["topology"] == "fattree-64n"
        assert attrs["steps"] == 63
        # One turn per tree edge (none fails) and one probe per turn:
        # no parent on a membership-dead start switch is ever probed.
        assert attrs["probes"] == attrs["turns"] == 4032

    def test_construction_counts_on_bigraph_4x8(self):
        attrs = self.build_attrs(BiGraph(4, 8))
        assert attrs["topology"] == "bigraph-64n"
        assert attrs["steps"] == 63
        assert attrs["probes"] == attrs["turns"] == 4032


class TestMembershipDeadSwitches:
    """A start switch whose structural reach at a bounded rung holds no
    non-member is skipped for the rest of the build.  Exact, because a
    capacity-limited search only reaches a subset of that reach."""

    def test_reach_grows_with_the_rung_on_bigraph(self):
        bg = BiGraph(2, 4)
        sizes, holders = _start_switch_reach(bg, (2, 3, None))
        start = bg.switch_of(0)
        lower = bg.switch_of(8)
        assert bg.layer_of(8) == 1
        assert sizes[0][start] == 4  # its own nodes
        assert sizes[1][start] == 12  # plus the other layer's 8
        assert sizes[2] is None  # the unbounded rung is not tracked
        assert (0, start) in holders[0] and (1, start) in holders[0]
        assert (1, start) in holders[8] and (0, start) not in holders[8]
        assert (0, lower) in holders[8]

    def test_rung_two_dead_switch_still_connects_at_rung_three(self):
        bg = BiGraph(2, 4)
        start = bg.switch_of(0)
        joined = bytearray(bg.num_nodes)
        for node in bg.switch_members(start):  # its whole rung-2 reach
            joined[node] = 1
        probe = bg.allocation_graph().turn(joined)
        assert probe(0, 2) is None
        found = probe(0, 3)
        assert found is not None
        assert len(found.route) == 3 and bg.layer_of(found.child) == 1

    def test_dead_first_uplink_connects_through_second(self):
        S1, S2 = DualHomed.S1, DualHomed.S2
        topo = DualHomed()
        sizes, _holders = _start_switch_reach(topo, (2, 3, None))
        assert sizes[0][S1] == sizes[0][S2] == 2  # {0, 1} and {0, 2}
        # Nodes 0 and 1 joined: S1 is membership-dead at rung 2, S2 not.
        dead = bytearray(topo.num_vertices)
        dead[S1] = 1
        probe = topo.allocation_graph().turn(bytearray([1, 1, 0, 0]))
        found = probe(0, 2, dead)
        assert found.route == [(0, S2), (S2, 2)]
