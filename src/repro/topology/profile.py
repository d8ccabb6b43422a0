"""Per-link bandwidth/latency profiles ("link mods") for topology specs.

Every topology used to build uniform links from scalar defaults; a
:class:`LinkProfile` makes heterogeneity first-class.  A profile is a
small set of named *mods* appended to a topology spec after ``@`` —
``fattree-8x8@oversub=4``, ``fattree3-4x4x4@oversub=2+uplink=0.5``,
``torus-4x4@rails=2:0.5`` — each mod reshaping one tier or dimension of
the fabric:

``oversub=R``
    Oversubscription ratio ``R >= 1``: the topology's upper tier
    (leaf-spine, spine-core, or inter-layer links) carries ``1/R`` of the
    edge bandwidth, the classic oversubscribed data-center fabric.
``uplink=F``
    Extra multiplier ``F > 0`` on the topmost tier only (spine-core links
    of a 3-level fat-tree), modelling WAN-like core uplinks
    (``uplink=0.25`` = quarter-rate core).
``rails=K:F``
    Rail-optimized direct network: the X dimension (the ring direction
    for 1D rings) gets ``K`` parallel rails (capacity x ``K``) while the
    remaining dimensions run at fraction ``F`` of the link bandwidth.

Mods are separated by ``+`` canonically (``,`` is also accepted on
parse) so profiled specs survive comma-delimited contexts such as metric
label sets unmangled.  Which mods a topology family supports is declared
next to its builder in :data:`repro.topology.specs.TOPOLOGY_BUILDERS`;
parsing an unsupported or unknown mod fails loudly there.

Profiles change the constructed :class:`~repro.topology.base.LinkSpec`
parameters, so :func:`~repro.topology.base.topology_fingerprint` — and
with it every scenario fingerprint and cache key — distinguishes
heterogeneous fabrics automatically.  A spec with no mods builds exactly
the uniform links it always did, bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple


def _format_number(value: float) -> str:
    """Canonical numeric spelling: integral values drop the decimal."""
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


def _parse_finite(name: str, text: str) -> float:
    try:
        number = float(text)
    except ValueError:
        raise ValueError("%s wants a number, got %r" % (name, text))
    if not math.isfinite(number):
        raise ValueError("%s wants a finite number, got %r" % (name, text))
    return number


def _parse_oversub(text: str) -> float:
    ratio = _parse_finite("oversub", text)
    if ratio < 1.0:
        raise ValueError(
            "oversub ratio must be >= 1 (got %s); use uplink=F for "
            "faster-than-edge tiers" % text
        )
    return ratio


def _parse_uplink(text: str) -> float:
    scale = _parse_finite("uplink", text)
    if scale <= 0.0:
        raise ValueError("uplink scale must be > 0, got %s" % text)
    return scale


_RAILS_RE = re.compile(r"([0-9]+):([0-9]*\.?[0-9]+)")


def _parse_rails(text: str) -> Tuple[int, float]:
    match = _RAILS_RE.fullmatch(text.strip())
    if not match:
        raise ValueError(
            "rails wants K:F (rail count and cross-dimension bandwidth "
            "fraction, e.g. rails=2:0.5), got %r" % text
        )
    rails = int(match.group(1))
    fraction = float(match.group(2))
    if rails < 1:
        raise ValueError("rails count must be >= 1, got %d" % rails)
    if fraction <= 0.0:
        raise ValueError("rails fraction must be > 0, got %s" % match.group(2))
    return rails, fraction


def _format_rails(value: Tuple[int, float]) -> str:
    rails, fraction = value
    return "%d:%s" % (rails, _format_number(fraction))


class ModSpec(NamedTuple):
    """One link-mod kind: value grammar, parser and canonical formatter."""

    value_help: str
    doc: str
    parse: Callable[[str], object]
    format: Callable[[object], str]


#: Every known link mod.  Families opt into a subset via
#: ``TOPOLOGY_BUILDERS``; a mod name outside this table never parses.
LINK_MODS: Dict[str, ModSpec] = {
    "oversub": ModSpec(
        "R", "upper-tier oversubscription ratio (tier bandwidth / R)",
        _parse_oversub, _format_number,
    ),
    "uplink": ModSpec(
        "F", "topmost-tier bandwidth multiplier (spine-core links x F)",
        _parse_uplink, _format_number,
    ),
    "rails": ModSpec(
        "K:F", "K parallel X-dimension rails, other dimensions at "
        "fraction F of link bandwidth",
        _parse_rails, _format_rails,
    ),
}


@dataclass(frozen=True)
class LinkProfile:
    """A parsed, validated set of link mods for one topology family.

    ``mods`` is name-sorted and hashable, so profiles compare and
    canonicalize deterministically regardless of spelling order.
    """

    family: str
    mods: Tuple[Tuple[str, object], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.mods)

    def get(self, name: str, default: object = None) -> object:
        for key, value in self.mods:
            if key == name:
                return value
        return default

    def canonical(self) -> str:
        """Canonical mod text (no leading ``@``): ``oversub=4+uplink=0.5``."""
        return "+".join(
            "%s=%s" % (name, LINK_MODS[name].format(value))
            for name, value in self.mods
        )

    def suffix(self) -> str:
        """The spec suffix: ``@`` + canonical mods, or ``""`` when uniform."""
        return "@" + self.canonical() if self.mods else ""


def parse_link_mods(
    family: str,
    modtext: Optional[str],
    supported: Tuple[str, ...],
) -> LinkProfile:
    """Parse ``oversub=4+uplink=0.5``-style mod text into a profile.

    ``supported`` is the family's declared mod subset.  Raises
    :class:`ValueError` on unknown mods, mods the family does not
    support, duplicate mods, and malformed values.
    """
    mods: Dict[str, object] = {}
    for item in re.split(r"[+,]", modtext or ""):
        item = item.strip()
        if not item:
            continue
        name, eq, value_text = item.partition("=")
        name = name.strip()
        if not eq or name not in LINK_MODS:
            raise ValueError(
                "unknown link mod %r for topology %r (supported: %s)"
                % (item, family, link_mods_help(supported) or "none")
            )
        if name not in supported:
            raise ValueError(
                "link mod %r is not supported by topology %r (supported: %s)"
                % (name, family, link_mods_help(supported) or "none")
            )
        if name in mods:
            raise ValueError("duplicate link mod %r for topology %r" % (name, family))
        mods[name] = LINK_MODS[name].parse(value_text.strip())
    return LinkProfile(family, tuple(sorted(mods.items())))


def link_mods_help(supported: Tuple[str, ...]) -> str:
    """Short grammar help for a family's mods: ``oversub=R, uplink=F``."""
    return ", ".join(
        "%s=%s" % (name, LINK_MODS[name].value_help) for name in supported
    )


__all__ = [
    "LINK_MODS",
    "LinkProfile",
    "ModSpec",
    "link_mods_help",
    "parse_link_mods",
]
