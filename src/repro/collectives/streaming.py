"""Streaming CSR compilation of MultiTree schedules at cluster scale.

:func:`repro.collectives.compiled.compile_schedule` lowers a
:class:`~repro.collectives.schedule.Schedule`, which means first
materializing one :class:`CommOp` (plus a ``Fraction`` pair and a route
list) per transfer — 2·n·(n−1) Python objects for an n-node MultiTree
all-reduce.  At 1024 nodes that is ~2M objects and tolerable; at 8192 it
is ~134M objects, tens of GiB, and hours of interpreter time.

This module compiles the *flat forest* (the array-backed construction
product of :func:`repro.collectives.multitree.build_forest`) straight
into :class:`CompiledSchedule` numpy columns without ever creating the
per-op objects.  Every column is derived analytically from the tree
structure and is **bit-identical** to the object path:

* **Op order** — ``Schedule`` sorts ops by ``(step, src, dst,
  chunk.lo)``.  For MultiTree the chunk of tree ``r`` is the ``r``-th
  n-th of the gradient, so the key is ``(step, src, dst, root)`` and it
  is *unique* (a tree never schedules the same directed pair twice at
  one step, and distinct trees have distinct chunks) — a lexsort
  reproduces the exact order with no stability caveats.  All
  reduce-scatter steps (``1..tot_t``) sort before all all-gather steps
  (``tot_t+1..2·tot_t``), so REDUCE ops occupy indices ``[0, E)`` and
  GATHER ops ``[E, 2E)``.
* **Dependencies** — op ``i`` depends on ``j`` iff ``j.dst == i.src``,
  ``j.step < i.step`` and the chunks overlap.  MultiTree chunks are
  disjoint n-ths, so dependencies never cross trees, and within tree
  ``r`` they collapse to tree adjacency: the REDUCE op of edge ``(p,c)``
  depends on the REDUCE ops of ``c``'s child edges, and the GATHER op of
  ``(p,c)`` depends on the REDUCE ops of ``p``'s child edges plus the
  GATHER op of ``p``'s own parent edge (when ``p`` is not the root).
  Both lists come out sorted by construction (REDUCE indices all precede
  GATHER indices).
* **Fractions** — every op moves exactly ``1/n`` of the gradient; the
  numerator/denominator columns are constant (stored as zero-memory
  broadcast views) and the schedule carries a single wire class.

Transient memory is engineered as carefully as the stored columns: sort
keys use the narrowest dtype that fits (``root·V + node`` stays in int32
through 16k vertices), permutations are cast down from ``intp``
immediately, per-op gathers run in bounded chunks, and the serialization
profile never materializes a per-op float column (homogeneous networks
reduce it to the unique steps of an already-sorted column).  This is
what keeps an 8192-node compile inside the scale-out envelope — the
naive int64/intp pipeline costs ~120 bytes of scratch per op, which at
134M ops is more than 10 GiB.

The result compares exactly ``==`` to the object path's
``CompiledSchedule.to_dict()`` across the golden-equivalence grid
(``tests/test_streaming.py``), which is the acceptance oracle for every
consumer downstream (artifacts, lockstep engines, the vectorized batch
engine).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..topology.base import Topology
from .compiled import CompiledSchedule, lower_schedule, segment_arange
from .multitree import FlatForest, build_forest

#: Dtype ceilings for the compiled columns.  Node/step ids use the
#: smallest signed type that fits (int16 up to 32k vertices), op indices
#: always fit int32 (2·n·(n−1) < 2**31 for n <= 32k).
_IDX_DTYPE = np.int32

#: Elements per chunked gather/searchsorted pass — bounds the intp-sized
#: scratch of each pass to ~32 MiB regardless of the op count.
_CHUNK = 1 << 22


def _node_dtype(num_vertices: int):
    return np.int16 if num_vertices <= 0x7FFF else np.int32


def _key_dtype(num_vertices: int):
    """Narrowest dtype holding ``tree * V + vertex`` composite keys."""
    if num_vertices * num_vertices + num_vertices < 2 ** 31:
        return np.int32
    return np.int64


def _min_index_dtype(count: int):
    """Narrowest dtype for indices into a ``count``-entry table."""
    return np.uint16 if count < 0x10000 else _IDX_DTYPE


def compile_multitree(
    topology: Topology, priority: str = "root-id"
) -> CompiledSchedule:
    """Build and compile a MultiTree all-reduce without the object IR.

    Equivalent to ``compile_schedule(multitree_allreduce(topology,
    priority))`` — same ``to_dict()`` output — but streams the flat
    forest into numpy columns directly.  The forest is released as its
    columns are consumed (it is not returned), so its array storage does
    not double-count against the compile's memory envelope.
    """
    with obs.span(
        "schedule.compile",
        topology=topology.name,
        algorithm="multitree",
        path="streaming",
    ) as sp:
        forest = build_forest(topology, priority)
        compiled = compile_forest(forest, topology, priority, release=True)
        sp.set("steps", compiled.num_steps)
        sp.set("ops", len(compiled))
        return compiled


def compile_forest(
    forest: FlatForest,
    topology: Topology,
    priority: str = "root-id",
    release: bool = False,
) -> CompiledSchedule:
    """Lower a :class:`FlatForest` to a :class:`CompiledSchedule`.

    With ``release=True`` the forest's edge storage is dropped as soon
    as it has been copied into columns — the forest is unusable
    afterwards, but the compile's peak memory no longer carries both
    representations.
    """
    n = forest.num_nodes
    tot_t = forest.tot_t
    edges_per_tree = np.asarray(
        [len(par) for par in forest.edge_parent], dtype=_IDX_DTYPE
    )
    num_edges = int(edges_per_tree.sum())
    if num_edges == 0:
        # Degenerate (single-node) forests: the object path is free here
        # and keeps the empty-schedule semantics in one place.
        from .multitree import multitree_allreduce

        return lower_schedule(multitree_allreduce(topology, priority))

    vcount = topology.num_vertices
    node_dt = _node_dtype(vcount)
    eroot = np.repeat(
        np.arange(n, dtype=node_dt), edges_per_tree.astype(np.intp)
    )
    eparent = _concat_columns(forest.edge_parent, node_dt)
    echild = _concat_columns(forest.edge_child, node_dt)
    estep = _concat_columns(forest.edge_step, np.int32)
    switched = forest.edge_routes is not None
    edge_routes = forest.edge_routes
    if release:
        forest.edge_parent = forest.edge_child = forest.edge_step = None
        forest.edge_routes = None
        forest.orders = None

    # -- per-tree depths (metadata), while estep is still edge-ordered -----
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(edges_per_tree, out=bounds[1:])
    depths = [
        int(estep[bounds[r]:bounds[r + 1]].max()) if bounds[r] != bounds[r + 1]
        else 0
        for r in range(n)
    ]

    # -- final op order ----------------------------------------------------
    # REDUCE ops mirror construction steps (tot_t - s + 1), GATHER ops run
    # them forward (tot_t + s).  Sort each half by its unique key; REDUCE
    # indices are 0..E-1 and GATHER indices E..2E-1 in the merged order.
    r_perm = np.lexsort((eroot, eparent, echild, tot_t - estep)).astype(
        _IDX_DTYPE
    )
    g_perm = np.lexsort((eroot, echild, eparent, estep)).astype(_IDX_DTYPE)
    # Final index of each edge's REDUCE / GATHER op, by edge position.
    r_pos = np.empty(num_edges, dtype=_IDX_DTYPE)
    r_pos[r_perm] = np.arange(num_edges, dtype=_IDX_DTYPE)
    g_pos = np.empty(num_edges, dtype=_IDX_DTYPE)
    g_pos[g_perm] = np.arange(
        num_edges, 2 * num_edges, dtype=_IDX_DTYPE
    )

    step_dt = np.int16 if 2 * tot_t <= 0x7FFF else np.int32
    steps = np.empty(2 * num_edges, dtype=step_dt)
    steps[:num_edges] = tot_t - estep[r_perm] + 1
    steps[num_edges:] = tot_t + estep[g_perm]
    srcs = np.empty(2 * num_edges, dtype=node_dt)
    srcs[:num_edges] = echild[r_perm]
    srcs[num_edges:] = eparent[g_perm]
    dsts = np.empty(2 * num_edges, dtype=node_dt)
    dsts[:num_edges] = eparent[r_perm]
    dsts[num_edges:] = echild[g_perm]
    # Tree id of each op half, in final order — the dependency keys below
    # need it after the permutations are gone.
    r_tree = eroot[r_perm]
    g_tree = eroot[g_perm]
    del estep

    # -- routes ------------------------------------------------------------
    if not switched:
        del r_perm, g_perm
        links, route_off, route_val, bw_info = _unit_routes(
            topology, srcs, dsts
        )
    else:
        links, route_off, route_val, bw_info = _stored_routes(
            topology, edge_routes, n, num_edges, r_perm, g_perm
        )
        del r_perm, g_perm

    # -- dependency CSR ----------------------------------------------------
    dep_off, dep_val = _dependency_csr(
        vcount, eroot, eparent, echild, r_pos, g_pos,
        r_tree, g_tree, srcs,
    )
    del eroot, eparent, echild, r_pos, g_pos, r_tree, g_tree

    # -- serialization profile --------------------------------------------
    # First-occurrence-ordered unique (step, bottleneck bandwidth,
    # fraction) triples over the sorted ops; the fraction is 1/n for
    # every op, so the triple collapses to (step, bandwidth).
    frac_float = 1 / n  # == float(Fraction(1, n)): both round-to-nearest
    ser_profile = _ser_profile(steps, route_val, bw_info, frac_float)

    metadata = {"tot_t": tot_t, "priority": priority, "tree_depths": depths}

    num_ops = 2 * num_edges
    return CompiledSchedule(
        topology=topology,
        algorithm="multitree",
        num_steps=2 * tot_t,
        srcs=srcs,
        dsts=dsts,
        steps=steps,
        # Constant 1/n chunks: zero-memory broadcast views that still
        # round-trip to the exact per-op lists in to_dict().
        frac_num=np.broadcast_to(np.int64(1), (num_ops,)),
        frac_den=np.broadcast_to(np.int64(n), (num_ops,)),
        links=links,
        route_off=route_off,
        route_val=route_val,
        dep_off=dep_off,
        dep_val=dep_val,
        ser_profile=ser_profile,
        metadata=metadata,
    )


def _concat_columns(columns, dtype) -> np.ndarray:
    """Concatenate per-tree ``array`` columns into one numpy array."""
    total = sum(len(col) for col in columns)
    out = np.empty(total, dtype=dtype)
    pos = 0
    for col in columns:
        if len(col):
            out[pos:pos + len(col)] = np.frombuffer(col, dtype=col.typecode)
            pos += len(col)
    return out


def _first_occurrence_links(
    vcount: int, ucode: np.ndarray, first: np.ndarray
) -> Tuple[List[Tuple[int, int]], np.ndarray]:
    """Dedup link codes (``a * V + b``) in first-occurrence order.

    ``ucode``/``first`` are ``np.unique(code, return_index=True)``
    results.  Returns ``(links, rank_of_unique)`` where ``links`` is the
    deduplicated key list exactly as the object compiler would have
    built it (first occurrence over the sorted ops) and
    ``rank_of_unique[k]`` maps the k-th value-sorted code to its
    first-occurrence rank.
    """
    order = np.argsort(first)  # unique first indices: no ties possible
    rank = np.empty(len(ucode), dtype=_IDX_DTYPE)
    rank[order] = np.arange(len(ucode), dtype=_IDX_DTYPE)
    links = [
        (int(c) // vcount, int(c) % vcount) for c in ucode[order]
    ]
    return links, rank


def _unit_routes(topology, srcs, dsts):
    """Route columns for direct networks: every route is ``((src, dst),)``."""
    vcount = topology.num_vertices
    key_dt = _key_dtype(vcount)
    code = srcs.astype(key_dt) * vcount + dsts
    ucode, first = np.unique(code, return_index=True)
    links, rank = _first_occurrence_links(vcount, ucode, first)
    num_ops = len(srcs)
    route_val = np.empty(num_ops, dtype=_min_index_dtype(len(links)))
    for lo in range(0, num_ops, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, num_ops))
        route_val[sl] = rank[np.searchsorted(ucode, code[sl])]
    del code
    route_off = np.arange(num_ops + 1, dtype=_IDX_DTYPE)
    link_bw = np.asarray(
        [topology.link(a, b).bandwidth for a, b in links], dtype=np.float64
    )
    return links, route_off, route_val, ("per-link", link_bw)


def _stored_routes(topology, edge_routes, num_trees, num_edges, r_perm,
                   g_perm):
    """Route columns from per-edge allocated routes (switched networks).

    The REDUCE op of an edge traverses the stored route reversed
    (child→parent), the GATHER op traverses it forward.
    """
    vcount = topology.num_vertices
    flat: List[Tuple] = []
    for root in range(num_trees):
        flat.extend(edge_routes[root])
    lens = np.asarray([len(r) for r in flat], dtype=_IDX_DTYPE)
    hop_a = np.empty(int(lens.sum()), dtype=np.int32)
    hop_b = np.empty(len(hop_a), dtype=np.int32)
    pos = 0
    for route in flat:
        for a, b in route:
            hop_a[pos] = a
            hop_b[pos] = b
            pos += 1
    hop_off = np.zeros(num_edges + 1, dtype=_IDX_DTYPE)
    np.cumsum(lens, out=hop_off[1:])

    # Per-op hop codes in final op order: REDUCE = reversed swapped hops.
    def _op_codes(perm, reverse):
        starts = hop_off[perm]
        counts = lens[perm]
        sel = np.repeat(starts.astype(np.int64), counts) + segment_arange(
            counts, reverse=reverse
        )
        if reverse:
            return hop_b[sel].astype(np.int64) * vcount + hop_a[sel], counts
        return hop_a[sel].astype(np.int64) * vcount + hop_b[sel], counts

    r_codes, r_counts = _op_codes(r_perm, reverse=True)
    g_codes, g_counts = _op_codes(g_perm, reverse=False)
    code = np.concatenate([r_codes, g_codes])
    counts = np.concatenate([r_counts, g_counts])
    ucode, first = np.unique(code, return_index=True)
    links, rank = _first_occurrence_links(vcount, ucode, first)
    route_val = rank[np.searchsorted(ucode, code)].astype(
        _min_index_dtype(len(links))
    )
    route_off = np.zeros(2 * num_edges + 1, dtype=_IDX_DTYPE)
    np.cumsum(counts, out=route_off[1:])
    bw = np.asarray(
        [topology.link(a, b).bandwidth for a, b in links], dtype=np.float64
    )
    bw_per_op = np.minimum.reduceat(bw[route_val], route_off[:-1])
    return links, route_off, route_val, ("per-op", bw_per_op)


def _ser_profile(steps, route_val, bw_info, frac_float):
    """Unique (step, bandwidth, fraction) triples, first-occurrence order.

    Never materializes a per-op float column.  On a homogeneous network
    (every link the same bandwidth — all stock topologies) the triples
    collapse to the unique steps of the already-sorted ``steps`` column,
    which *is* first-occurrence order.  Heterogeneous networks fall back
    to a chunked scan keeping one first-seen index per (step, class)
    pair.
    """
    kind, bw_data = bw_info
    ubw = np.unique(bw_data)
    if len(ubw) == 1:
        return [
            (int(s), float(ubw[0]), frac_float) for s in np.unique(steps)
        ]
    if kind == "per-link":
        link_cls = np.searchsorted(ubw, bw_data)

        def op_class(sl):
            return link_cls[route_val[sl]]
    else:
        def op_class(sl):
            return np.searchsorted(ubw, bw_data[sl])

    nb = len(ubw)
    first: Dict[int, int] = {}
    num_ops = len(steps)
    for lo in range(0, num_ops, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, num_ops))
        code = steps[sl].astype(np.int64) * nb + op_class(sl)
        ucode, fi = np.unique(code, return_index=True)
        for c, f in zip(ucode.tolist(), fi.tolist()):
            if c not in first:  # chunks scan forward: first wins
                first[c] = lo + f
    return [
        (int(c // nb), float(ubw[c % nb]), frac_float)
        for c, _f in sorted(first.items(), key=lambda kv: kv[1])
    ]


def _dependency_csr(
    num_vertices: int,
    eroot: np.ndarray,
    eparent: np.ndarray,
    echild: np.ndarray,
    r_pos: np.ndarray,
    g_pos: np.ndarray,
    r_tree: np.ndarray,
    g_tree: np.ndarray,
    srcs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The analytic dependency CSR (see module docstring for the rules).

    ``srcs`` doubles as the lookup operand: the REDUCE half holds each
    op's child vertex, the GATHER half its parent vertex — exactly the
    node whose child-edge group each rule asks for.
    """
    num_edges = len(eroot)
    key_dt = _key_dtype(num_vertices)
    # Child-edge groups: edges keyed by (tree, parent), members listed in
    # ascending REDUCE-op order — exactly the sorted dep lists.
    kp = eroot.astype(key_dt) * num_vertices + eparent
    grp_order = np.lexsort((r_pos, kp)).astype(_IDX_DTYPE)
    kp_sorted = kp[grp_order]
    grp_members = r_pos[grp_order]
    del kp, grp_order
    # Group boundaries on the sorted keys (cheaper than np.unique: the
    # array is already sorted, a neighbor-diff finds the starts).
    boundary = np.empty(num_edges, dtype=bool)
    boundary[0] = True
    np.not_equal(kp_sorted[1:], kp_sorted[:-1], out=boundary[1:])
    grp_start = np.flatnonzero(boundary).astype(_IDX_DTYPE)
    del boundary
    grp_keys = kp_sorted[grp_start]
    grp_size = np.diff(np.append(grp_start, num_edges)).astype(_IDX_DTYPE)
    del kp_sorted

    def _group_lookup(tree, node):
        """(start, size) of each (tree, node) child-edge group (0 if none)."""
        num = len(tree)
        start = np.empty(num, dtype=_IDX_DTYPE)
        size = np.empty(num, dtype=_IDX_DTYPE)
        for lo in range(0, num, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, num))
            keys = tree[sl].astype(key_dt) * num_vertices + node[sl]
            at = np.searchsorted(grp_keys, keys)
            np.minimum(at, len(grp_keys) - 1, out=at)
            hit = grp_keys[at] == keys
            start[sl] = np.where(hit, grp_start[at], 0)
            size[sl] = np.where(hit, grp_size[at], 0)
        return start, size

    # Parent-edge lookup: the edge whose child is v (unique per tree).
    kc = eroot.astype(key_dt) * num_vertices + echild
    kc_order = np.argsort(kc).astype(_IDX_DTYPE)
    kc_sorted = kc[kc_order]
    del kc

    def _parent_lookup(tree, node):
        """GATHER-op index of each (tree, node)'s joining edge."""
        num = len(tree)
        val = np.empty(num, dtype=_IDX_DTYPE)
        hit = np.empty(num, dtype=bool)
        for lo in range(0, num, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, num))
            keys = tree[sl].astype(key_dt) * num_vertices + node[sl]
            at = np.searchsorted(kc_sorted, keys)
            np.minimum(at, len(kc_sorted) - 1, out=at)
            h = kc_sorted[at] == keys  # miss <=> node is the tree root
            val[sl] = g_pos[kc_order[np.where(h, at, 0)]]
            hit[sl] = h
        return val, hit

    # REDUCE section: deps of edge (p, c) = child-edge group of c.
    r_start, r_size = _group_lookup(r_tree, srcs[:num_edges])
    # GATHER section: child-edge group of p, plus G(parent edge of p).
    g_start, g_size = _group_lookup(g_tree, srcs[num_edges:])
    g_extra_val, g_extra = _parent_lookup(g_tree, srcs[num_edges:])
    del kc_order, kc_sorted

    counts = np.concatenate([r_size, g_size + g_extra])
    dep_off = np.zeros(2 * num_edges + 1, dtype=_IDX_DTYPE)
    np.cumsum(counts, out=dep_off[1:])
    del counts
    dep_val = np.empty(int(dep_off[-1]), dtype=_IDX_DTYPE)
    _fill_group_section(
        dep_val, dep_off[:num_edges + 1], r_start, r_size, grp_members
    )
    _fill_group_section(
        dep_val, dep_off[num_edges:], g_start, g_size, grp_members,
        extra_mask=g_extra, extra_val=g_extra_val,
    )
    return dep_off, dep_val


def _fill_group_section(
    dep_val: np.ndarray,
    off: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    members: np.ndarray,
    extra_mask: Optional[np.ndarray] = None,
    extra_val: Optional[np.ndarray] = None,
    chunk: int = 1 << 21,
) -> None:
    """Copy each op's group slice (plus optional trailing extra) into CSR.

    Chunked so the transient ``repeat`` scratch stays bounded at
    large N instead of scaling with the total dependency count.
    """
    num = len(starts)
    for lo in range(0, num, chunk):
        hi = min(lo + chunk, num)
        sz = sizes[lo:hi].astype(np.int64)
        total = int(sz.sum())
        if total:
            out0 = np.repeat(
                off[lo:hi].astype(np.int64), sz
            ) + segment_arange(sz)
            src = np.repeat(
                starts[lo:hi].astype(np.int64), sz
            ) + segment_arange(sz)
            dep_val[out0] = members[src]
        if extra_mask is not None:
            sel = np.flatnonzero(extra_mask[lo:hi])
            if len(sel):
                dest = off[lo:hi][sel].astype(np.int64) + sz[sel]
                dep_val[dest] = extra_val[lo:hi][sel]
