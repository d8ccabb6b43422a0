"""The scenario layer: one typed descriptor per experiment point.

The paper's evaluation (§VI) is a grid of (topology x algorithm variant x
flow control x payload size) points.  A :class:`Scenario` is that point as
a first-class, frozen value with

* a **canonical one-line string form** —
  ``torus-4x4/multitree-msg/16MiB@lockstep`` — parsed and emitted by
  :meth:`Scenario.parse` / :meth:`Scenario.canonical`;
* a **dict/JSON round-trip** (:meth:`to_dict` / :meth:`from_dict`);
* a single :meth:`fingerprint` that subsumes the prediction-cache key
  (:func:`point_key`), the compiled-artifact key
  (:func:`artifact_fingerprint`) and the run-manifest config
  fingerprint — identical points always share one identity, no matter
  which layer asks.

Canonical string grammar::

    scenario  := TOPOLOGY "/" ALGORITHM "/" SIZE [ "@" MOD ("," MOD)* ]
    TOPOLOGY  := family "-" dims [ "@" LINKMOD ("+" LINKMOD)* ]
                                          (e.g. torus-4x4 or
                                           fattree-8x8@oversub=4; repro list)
    ALGORITHM := a registered variant     (repro.collectives.variant_names)
    SIZE      := bytes or K/M/GiB form    (e.g. 1MiB, 32K, 12345)
    MOD       := "packet" | "message"     flow-control override
               | "free"                   lockstep gating off
               | "event" | "lockstep" | "lockstep-vec"
                                          simulation engine (a hint,
                                          not part of the identity)
               | "flit_bytes=" INT        flit size (Table III override)
               | "data_packet_payload_bytes=" INT
                                          packet payload (packet-based
                                          flow control only)

An override is a positive integer, and only a field the resolved flow
control reads is accepted: no other Table III field reaches a
prediction.  A packet payload must be a whole number of flits.

Mods may equivalently be separated by ``+`` (useful where a comma is a
delimiter, e.g. metric label sets).  Canonical form omits every default
and orders mods: flow control, ``free``, engine, overrides (sorted).

The topology field may itself carry an ``@``-suffixed link profile
(:mod:`repro.topology.profile`); the scenario parser therefore splits on
``/`` first, so only an ``@`` *after* the size introduces scenario mods
— ``fattree-8x8@oversub=4/multitree/16MiB@lockstep`` reads as a profiled
fat-tree with the lockstep engine.  Link mods canonicalize on scenario
construction (``@oversub=4.0`` becomes ``@oversub=4``), so equal
physical fabrics always share one spelling and one fingerprint.

Identity is *resolved*: ``torus-4x4/multitree-msg/1MiB`` and
``torus-4x4/multitree/1MiB@message`` describe the same physical point and
share one fingerprint, because fingerprints embed the resolved (builder,
flow control) pairing from the variant registry, not the spelling.  The
engine is an execution hint, not part of the identity: every engine
returns ``==`` numbers, so ``...@lockstep-vec`` and the event-engine
spelling of a point share one fingerprint and one cached prediction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .collectives.variants import (
    FLOW_CONTROL_FACTORIES,
    FLOW_CONTROL_FIELDS,
    get_variant,
    make_flow_control,
    variant_names,
)
from .config import SystemConfig, TABLE_III
from .network.flowcontrol import FlowControl
from .network.simulator import ENGINES, check_engine
from .topology.base import Topology, topology_fingerprint
from .topology.specs import canonical_topology_spec, parse_topology_spec

KiB = 1024
MiB = 1 << 20
GiB = 1 << 30

#: The single invalidation key for every scenario-derived identity: the
#: prediction cache, the manifest fingerprint, and (through its own
#: version) the artifact store all embed it.  Bump whenever a change
#: alters predicted timings or the meaning of a scenario's fields; every
#: previously persisted key then misses instead of serving stale numbers.
#: v3: keys are scenario fingerprints — the algorithm field is the
#: *resolved builder* (variants collapse onto their pairing) and a
#: SystemConfig-override field joined the key.
#: v4: topology specs gained link-profile mods (``@oversub=4`` and
#: friends); profiled fabrics mint distinct structural digests and the
#: topology spelling canonicalizes on scenario construction, so every
#: pre-profile persisted key misses instead of aliasing a heterogeneous
#: fabric onto its uniform namesake.
#: v5: the engine left the key (every engine is held to ``==``), so a
#: point cached under one engine is a hit for every other.
FINGERPRINT_SCHEMA_VERSION = 5

#: Artifact identities are payload independent, so they version separately
#: (an artifact survives fingerprint-schema bumps that only reprice
#: predictions).  Bump when the compiled layout changes meaning.
ARTIFACT_SCHEMA_VERSION = 1

#: One-line grammar reminder for CLI help output.
SCENARIO_HELP = (
    "TOPOLOGY[@LINKMOD+...]/ALGORITHM/SIZE[@MOD,...] — mods: "
    "packet|message, free, event|lockstep|lockstep-vec, flit_bytes=N, "
    "data_packet_payload_bytes=N "
    "(e.g. torus-4x4/multitree-msg/16MiB@lockstep or "
    "fattree-8x8@oversub=4/multitree/16MiB; link mods: repro list)"
)

Overrides = Tuple[Tuple[str, object], ...]

_SIZE_RE = re.compile(
    r"\s*([0-9]*\.?[0-9]+)\s*(?:([KMG])I?)?B?\s*", re.IGNORECASE
)

#: The only SystemConfig fields an override may set.
_OVERRIDE_FIELDS = sorted(
    {name for fields in FLOW_CONTROL_FIELDS.values() for name in fields}
)


def parse_size(text: str) -> int:
    """Parse a byte size: plain int or K/M/G with optional iB/B suffix.

    A fractional number is fine while it names whole bytes (``1.5K`` is
    1536); ``1.5`` is rejected rather than truncated.
    """
    match = _SIZE_RE.fullmatch(text)
    if not match:
        raise ValueError("cannot parse size %r (try e.g. 32K, 16MiB, 1G)" % text)
    factor = {None: 1, "K": KiB, "M": MiB, "G": GiB}[
        match.group(2).upper() if match.group(2) else None
    ]
    whole, _dot, fraction = match.group(1).partition(".")
    size, rest = divmod(int(whole + fraction) * factor, 10 ** len(fraction))
    if rest:
        raise ValueError("size %r is not a whole number of bytes" % text)
    return size


def parse_sizes(text: str) -> Tuple[int, ...]:
    """Parse a size axis: comma-separated sizes and/or ``LO..HI`` ranges.

    A range expands to the geometric doubling ladder from ``LO`` up to
    ``HI`` — ``32K..64M`` is 32 KiB, 64 KiB, ..., 64 MiB — with ``HI``
    itself always included even when the ladder does not land on it
    exactly (the stated bound is an evaluation point, not just a limit).
    Items may mix freely (``16K,32K..1M,100M``); duplicates collapse,
    first occurrence wins the ordering.

    This is the one size-axis grammar shared by ``repro sweep --sizes``,
    ``repro plan --sizes`` and the service's ``sizes=`` query parameter.
    """
    sizes: List[int] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ".." in item:
            lo_text, _sep, hi_text = item.partition("..")
            lo, hi = parse_size(lo_text), parse_size(hi_text)
            if lo <= 0 or hi < lo:
                raise ValueError(
                    "bad size range %r (want LO..HI with LO <= HI)" % item
                )
            size = lo
            while size <= hi:
                sizes.append(size)
                size *= 2
            if sizes[-1] != hi:
                sizes.append(hi)
        else:
            size = parse_size(item)
            if size <= 0:
                raise ValueError(
                    "bad size %r (payload sizes must be positive)" % item
                )
            sizes.append(size)
    if not sizes:
        raise ValueError("empty size list %r" % text)
    return tuple(dict.fromkeys(sizes))


def format_size(data_bytes: int) -> str:
    """Canonical size spelling: largest exact binary unit, else raw bytes."""
    for factor, suffix in ((GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if data_bytes >= factor and data_bytes % factor == 0:
            return "%d%s" % (data_bytes // factor, suffix)
    return "%d" % data_bytes


def _parse_override_value(text: str) -> object:
    """Typed override values: int, then float, then bare string."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _format_override_value(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def normalize_overrides(
    overrides: Union[None, Mapping[str, object], Iterable[Tuple[str, object]]],
) -> Overrides:
    """Sorted, hashable override tuple.

    Only the fields a flow control reads are accepted, each a positive
    integer; anything else would change a point's identity but not its
    prediction, or fail deep inside the wire math.
    """
    if not overrides:
        return ()
    items = sorted(
        overrides.items() if isinstance(overrides, Mapping) else overrides
    )
    for key, value in items:
        if key not in _OVERRIDE_FIELDS:
            raise ValueError(
                "unsupported override %r: no prediction reads it (choose: %s)"
                % (key, ", ".join(_OVERRIDE_FIELDS))
            )
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ValueError(
                "override %s=%r must be a positive integer" % (key, value)
            )
    return tuple(items)


class ResolvedScenario(NamedTuple):
    """A scenario's registry-resolved execution recipe."""

    builder: str                 # key in repro.collectives.ALGORITHMS
    flow_control: FlowControl
    label: str


def point_key(
    topology: Topology,
    algorithm: str,
    flow_control: FlowControl,
    data_bytes: int,
    lockstep: bool = True,
    overrides: Overrides = (),
) -> str:
    """The readable identity string behind every scenario fingerprint.

    ``algorithm`` is the resolved builder name; named pairings collapse
    onto their (builder, flow control) resolution so all spellings of one
    physical point share one key.  The topology contribution is the
    structural digest from :func:`repro.topology.base.topology_fingerprint`
    (name, node counts, every link's parameters).  The engine is
    deliberately absent: every engine returns ``==`` numbers.
    """
    return "v%d|%s|%s|%s|%d|%s|%s" % (
        FINGERPRINT_SCHEMA_VERSION,
        topology_fingerprint(topology),
        algorithm,
        repr(flow_control),
        int(data_bytes),
        "lockstep" if lockstep else "free",
        ",".join(
            "%s=%r" % (key, value) for key, value in overrides
        ) or "-",
    )


def artifact_fingerprint(
    topology: Topology,
    builder_algorithm: str,
    version: Optional[int] = None,
) -> str:
    """Identity of one compiled schedule artifact (payload independent)."""
    return "v%d|%s|%s" % (
        ARTIFACT_SCHEMA_VERSION if version is None else version,
        topology_fingerprint(topology),
        builder_algorithm,
    )


@dataclass(frozen=True)
class Scenario:
    """One experiment point, fully described by picklable plain data.

    ``topology`` is a combined spec (``torus-4x4``); ``algorithm`` is a
    registered variant name.  ``flow_control`` of ``None`` defers to the
    variant's pairing (packet-based when the variant does not pin one).
    ``overrides`` replace the Table III :class:`SystemConfig` framing
    fields the flow control reads (see :func:`normalize_overrides`).
    """

    topology: str
    algorithm: str
    data_bytes: int
    flow_control: Optional[str] = None
    lockstep: bool = True
    engine: str = "event"
    overrides: Overrides = ()

    def __post_init__(self) -> None:
        if int(self.data_bytes) <= 0:
            raise ValueError("scenario data_bytes must be positive")
        check_engine(self.engine)
        if (
            self.flow_control is not None
            and self.flow_control not in FLOW_CONTROL_FACTORIES
        ):
            raise ValueError(
                "unknown flow control %r (choose: %s)"
                % (self.flow_control, sorted(FLOW_CONTROL_FACTORIES))
            )
        # Canonicalize the link-profile suffix (``@oversub=4.0`` becomes
        # ``@oversub=4``) so one physical fabric keeps one spelling — and
        # one fingerprint — across every layer; unknown families, a wrong
        # dimension count and unknown or malformed link mods fail loudly
        # here rather than at build time.
        object.__setattr__(
            self, "topology", canonical_topology_spec(self.topology)
        )
        object.__setattr__(self, "overrides", normalize_overrides(self.overrides))

    # -- string form -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Scenario":
        """Parse the canonical one-line form (see module docstring).

        The split on ``/`` happens first so a topology link profile
        (``fattree-8x8@oversub=4``) never collides with scenario mods —
        only an ``@`` inside the third (size) part introduces mods.
        """
        parts = text.strip().split("/")
        if len(parts) != 3 or not all(p.strip() for p in parts):
            raise ValueError(
                "cannot parse scenario %r (expected %s)" % (text, SCENARIO_HELP)
            )
        topology, algorithm, sizetext = (p.strip() for p in parts)
        size, _at, modtext = sizetext.partition("@")
        size = size.strip()
        if not size:
            raise ValueError(
                "cannot parse scenario %r (expected %s)" % (text, SCENARIO_HELP)
            )
        get_variant(algorithm)  # reject unknown variants loudly
        flow_control: Optional[str] = None
        lockstep = True
        engine = "event"
        overrides: List[Tuple[str, object]] = []
        for mod in (m.strip() for m in re.split(r"[+,]", modtext) if m.strip()):
            if "=" in mod:
                key, _eq, value = mod.partition("=")
                overrides.append((key.strip(), _parse_override_value(value.strip())))
            elif mod == "free":
                lockstep = False
            elif mod in ENGINES:
                engine = mod
            elif mod in ("packet", "message"):
                flow_control = mod
            else:
                raise ValueError(
                    "unknown scenario mod %r in %r (expected %s)"
                    % (mod, text, SCENARIO_HELP)
                )
        return cls(
            topology=topology,
            algorithm=algorithm,
            data_bytes=parse_size(size),
            flow_control=flow_control,
            lockstep=lockstep,
            engine=engine,
            overrides=tuple(overrides),
        )

    def canonical(self, sep: str = ",") -> str:
        """The canonical string form; defaults are omitted, mods ordered."""
        mods: List[str] = []
        if self.flow_control is not None:
            mods.append(self.flow_control)
        if not self.lockstep:
            mods.append("free")
        if self.engine != "event":
            mods.append(self.engine)
        mods.extend(
            "%s=%s" % (key, _format_override_value(value))
            for key, value in self.overrides
        )
        base = "%s/%s/%s" % (
            self.topology, self.algorithm, format_size(self.data_bytes)
        )
        return base + ("@" + sep.join(mods) if mods else "")

    def __str__(self) -> str:
        return self.canonical()

    def label_form(self) -> str:
        """Canonical form safe for comma-delimited metric label sets."""
        return self.canonical(sep="+")

    def slug(self) -> str:
        """Filesystem-safe form for file names (no ``/``, ``@``, ``=``, ``:``)."""
        return re.sub(r"[/@,+=:]", "-", self.canonical())

    # -- dict / JSON round-trip -------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "algorithm": self.algorithm,
            "data_bytes": int(self.data_bytes),
            "flow_control": self.flow_control,
            "lockstep": self.lockstep,
            "engine": self.engine,
            "overrides": {key: value for key, value in self.overrides},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Scenario":
        return cls(
            topology=str(payload["topology"]),
            algorithm=str(payload["algorithm"]),
            data_bytes=int(payload["data_bytes"]),
            flow_control=payload.get("flow_control"),
            lockstep=bool(payload.get("lockstep", True)),
            engine=str(payload.get("engine", "event")),
            overrides=normalize_overrides(payload.get("overrides")),
        )

    # -- resolution --------------------------------------------------------

    def system(self) -> SystemConfig:
        """Table III with this scenario's overrides applied."""
        if not self.overrides:
            return TABLE_III
        return dataclasses.replace(TABLE_III, **dict(self.overrides))

    def resolve(self) -> ResolvedScenario:
        """Registry-resolved ``(builder, flow control, label)``.

        Raises :class:`ValueError` for an override the resolved flow
        control does not read, or a packet payload that is not a whole
        number of flits.
        """
        variant = get_variant(self.algorithm)
        name = variant.flow_control_name(self.flow_control)
        flow_control = make_flow_control(name, self.system())
        unread = [
            key for key, _value in self.overrides
            if key not in FLOW_CONTROL_FIELDS[name]
        ]
        if unread:
            raise ValueError(
                "%s-based flow control does not read %s"
                % (name, ", ".join(unread))
            )
        return ResolvedScenario(
            builder=variant.builder,
            flow_control=flow_control,
            label=variant.display_label,
        )

    def build_topology(self) -> Topology:
        return parse_topology_spec(self.topology)

    # -- identity ----------------------------------------------------------

    def cache_key(self, topology: Optional[Topology] = None) -> str:
        """The readable prediction-cache key for this point.

        Pass the already-built ``topology`` to skip rebuilding it from the
        spec (the digest is structural, so it must see the real object).
        """
        resolved = self.resolve()
        return point_key(
            topology if topology is not None else self.build_topology(),
            resolved.builder,
            resolved.flow_control,
            self.data_bytes,
            self.lockstep,
            self.overrides,
        )

    def fingerprint(self, topology: Optional[Topology] = None) -> str:
        """Short stable digest of this point — the one config fingerprint
        shared by prediction caching, run manifests and reports."""
        return hashlib.sha256(self.cache_key(topology).encode()).hexdigest()[:16]

    def artifact_key(self, topology: Optional[Topology] = None) -> str:
        """The compiled-artifact identity for this point's schedule."""
        return artifact_fingerprint(
            topology if topology is not None else self.build_topology(),
            self.resolve().builder,
        )


def scenario_set_fingerprint(
    scenarios: Sequence[Scenario], topology: Optional[Topology] = None
) -> str:
    """One digest for a run over several scenarios (order independent);
    pass their shared, already-built ``topology`` to skip rebuilding it."""
    if len(scenarios) == 1:
        return scenarios[0].fingerprint(topology)
    joined = "\n".join(sorted(s.fingerprint(topology) for s in scenarios))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def group_scenarios(
    scenarios: Sequence[Scenario],
) -> List[List[Scenario]]:
    """Group scenarios that differ only in payload size, preserving order.

    Each group is one sweep series (the unit :class:`repro.sweep.SweepJob`
    runs); within a group the size axis keeps its given order.
    """
    groups: Dict[Tuple, List[Scenario]] = {}
    order: List[Tuple] = []
    for scenario in scenarios:
        key = (
            scenario.topology, scenario.algorithm, scenario.flow_control,
            scenario.lockstep, scenario.engine, scenario.overrides,
        )
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(scenario)
    return [groups[key] for key in order]


__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ENGINES",
    "FINGERPRINT_SCHEMA_VERSION",
    "ResolvedScenario",
    "SCENARIO_HELP",
    "Scenario",
    "artifact_fingerprint",
    "format_size",
    "group_scenarios",
    "normalize_overrides",
    "parse_size",
    "parse_sizes",
    "point_key",
    "scenario_set_fingerprint",
    "variant_names",
]
