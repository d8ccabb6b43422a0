"""Textual topology specs shared by the CLI, scenarios and sweep jobs.

A spec names a topology family and its dimensions either split
(``"torus"``, ``"4x4"``) or combined (``"torus-4x4"``), optionally
followed by a link-profile suffix (``"fattree-8x8@oversub=4"``,
``"torus-4x4@rails=2:0.5"`` — see :mod:`repro.topology.profile`).  Specs
are plain strings, so sweep jobs and :class:`repro.scenario.Scenario`
descriptors stay picklable across multiprocessing workers — each worker
rebuilds its topology from the spec.

:data:`TOPOLOGY_BUILDERS` is the single source of truth for which
families exist and which link mods each supports; ``repro list`` and the
scenario grammar help both derive from it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import obs
from .base import Topology
from .bigraph import BiGraph
from .fattree import FatTree
from .fattree3 import FatTree3
from .grid import Mesh2D, Torus2D
from .profile import LinkProfile, link_mods_help, parse_link_mods
from .ring1d import Ring1D
from .torus3d import Torus3D


class TopologyFamily(NamedTuple):
    """One registered topology family: dims grammar, builder, link mods,
    and the node count its dims give (the product, unless stated)."""

    dims_help: str
    builder: Callable[[Sequence[int], LinkProfile], Topology]
    mods: Tuple[str, ...]
    nodes: Callable[[Sequence[int]], int] = math.prod

    @property
    def arity(self) -> int:
        """How many ``x``-joined dimensions the family takes."""
        return self.dims_help.count("x") + 1


def _rails(profile: LinkProfile) -> Tuple[int, float]:
    rails = profile.get("rails")
    return (1, 1.0) if rails is None else rails  # type: ignore[return-value]


def _oversub(profile: LinkProfile) -> float:
    return float(profile.get("oversub", 1.0))  # type: ignore[arg-type]


#: Family name -> (dims help, builder over parsed dims + profile, mods).
TOPOLOGY_BUILDERS: Dict[str, TopologyFamily] = {
    "torus": TopologyFamily(
        "WxH",
        lambda parts, prof: Torus2D(
            *parts, x_rails=_rails(prof)[0], y_scale=_rails(prof)[1]
        ),
        ("rails",),
    ),
    "mesh": TopologyFamily(
        "WxH",
        lambda parts, prof: Mesh2D(
            *parts, x_rails=_rails(prof)[0], y_scale=_rails(prof)[1]
        ),
        ("rails",),
    ),
    "torus3d": TopologyFamily(
        "WxHxD",
        lambda parts, prof: Torus3D(
            *parts, x_rails=_rails(prof)[0], yz_scale=_rails(prof)[1]
        ),
        ("rails",),
    ),
    "ring1d": TopologyFamily(
        "N",
        lambda parts, prof: Ring1D(
            parts[0], forward_rails=_rails(prof)[0],
            reverse_scale=_rails(prof)[1],
        ),
        ("rails",),
    ),
    "fattree": TopologyFamily(
        "LEAVESxNODES",
        lambda parts, prof: FatTree(*parts, oversub=_oversub(prof)),
        ("oversub",),
    ),
    "fattree3": TopologyFamily(
        "PODSxLEAVESxNODES",
        lambda parts, prof: FatTree3(
            *parts, oversub=_oversub(prof),
            uplink_scale=float(prof.get("uplink", 1.0)),  # type: ignore[arg-type]
        ),
        ("oversub", "uplink"),
    ),
    "bigraph": TopologyFamily(
        "SWITCHES_PER_LAYERxNODES_PER_SWITCH",
        lambda parts, prof: BiGraph(*parts, oversub=_oversub(prof)),
        ("oversub",),
        lambda parts: 2 * math.prod(parts),  # two switch layers
    ),
}

TOPOLOGY_HELP = " | ".join(
    "%s %s%s" % (
        kind, family.dims_help,
        "[@%s]" % link_mods_help(family.mods).replace(", ", ",") if family.mods else "",
    )
    for kind, family in TOPOLOGY_BUILDERS.items()
)


def topology_mods_help() -> str:
    """Per-family link-mod summary for ``repro list`` (one line per family)."""
    lines = []
    for kind, family in TOPOLOGY_BUILDERS.items():
        if family.mods:
            lines.append("%s: %s" % (kind, link_mods_help(family.mods)))
    return "\n".join(lines)


def link_profile_for(kind: str, modtext: Optional[str]) -> LinkProfile:
    """Parse + validate mod text for a family; raises :class:`ValueError`."""
    try:
        family = TOPOLOGY_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            "unknown topology %r (choose: %s)" % (kind, TOPOLOGY_HELP)
        )
    return parse_link_mods(kind, modtext, family.mods)


def _parse_dims(kind: str, dims: str) -> List[int]:
    """The family's integer dimensions; a missing or wrong count is an error."""
    family = TOPOLOGY_BUILDERS[kind]
    try:
        parts = [int(p) for p in dims.lower().split("x")]
    except ValueError:
        parts = []
    if len(parts) != family.arity:
        raise ValueError(
            "bad dimensions %r for topology %r (expected %s-%s)"
            % (dims, kind, kind, family.dims_help)
        )
    return parts


def canonical_topology_spec(spec: str) -> str:
    """Validate a spec's family, dims and link mods; return the canonical form.

    Pure string normalization — no topology is built.  Mods are
    name-sorted and values canonically spelled (``@oversub=4.0`` becomes
    ``@oversub=4``); a spec without mods comes back byte-identical apart
    from surrounding whitespace.  Raises :class:`ValueError` on unknown
    families, missing dims or a wrong dimension count for the family,
    unknown/unsupported mods and malformed mod values.
    """
    head, _at, modtext = spec.strip().partition("@")
    kind, _sep, dims = head.partition("-")
    profile = link_profile_for(kind, modtext)
    _parse_dims(kind, dims)
    return head + profile.suffix()


def spec_node_count(spec: str) -> int:
    """The node count a combined spec names, worked out from its family
    and dims alone — nothing is built, and link mods, which do not change
    the count, are not read.  A bad family or dims raise
    :class:`ValueError`."""
    kind, _sep, dims = spec.strip().partition("@")[0].partition("-")
    link_profile_for(kind, None)  # rejects an unknown family
    return TOPOLOGY_BUILDERS[kind].nodes(_parse_dims(kind, dims))


def parse_topology(kind: str, dims: str, modtext: Optional[str] = None) -> Topology:
    """Build a topology from split ``kind`` + ``dims``; raises :class:`ValueError`."""
    kind, _at, kind_mods = kind.partition("@")
    modtext = modtext if modtext is not None else kind_mods
    profile = link_profile_for(kind, modtext)
    parts = _parse_dims(kind, dims)
    family = TOPOLOGY_BUILDERS[kind]
    # Construction cost scales with the link count — a span makes a
    # multi-second scale-out build (8k-node torus: millions of link
    # entries) visible in traces instead of looking like a hang.
    with obs.span(
        "topology.build", kind=kind, dims=dims,
        mods=profile.canonical() or None,
    ) as sp:
        topology = family.builder(parts, profile)
        if profile:
            # The suffix joins the name (and with it the structural
            # fingerprint) so profiled fabrics never alias uniform
            # ones; uniform specs keep their exact historical names.
            topology.name = topology.name + profile.suffix()
            topology.link_profile = profile
        # Shares the structural fingerprint with every other instance
        # parsed from this spec (see topology_fingerprint).
        topology.__dict__["_spec_key"] = (kind, dims, profile.canonical())
        sp.set("nodes", topology.num_nodes)
        sp.set("links", len(topology.links))
        return topology


def parse_topology_spec(spec: str, dims: Optional[str] = None) -> Topology:
    """Parse split (``torus``, ``4x4``) or combined ``torus-4x4[@mods]`` form.

    Malformed specs raise :class:`ValueError`; only the CLI turns that
    into an exit.
    """
    if dims:
        return parse_topology(spec, dims)
    head, _at, modtext = spec.partition("@")
    kind, _sep, joined = head.partition("-")
    return parse_topology(kind, joined, modtext)
