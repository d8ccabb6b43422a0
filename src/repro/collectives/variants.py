"""Algorithm-variant registry: named (builder, flow control, label) pairings.

The paper's evaluation points are not bare algorithms — MULTITREEMSG
(§IV-B) is the MULTITREE schedule *paired with* message-based flow
control.  Historically that pairing was re-derived ad hoc wherever an
algorithm name was handled; this registry makes each pairing one
declarative entry so the CLI, sweep runner, scenario layer, benchmarks
and reports all resolve names the same way.

A variant names:

* ``builder`` — the schedule builder key in
  :data:`repro.collectives.ALGORITHMS`;
* ``flow_control`` — a pinned flow-control name (``"packet"`` /
  ``"message"``), or ``None`` to accept the caller's choice (defaulting
  to packet-based);
* ``label`` — the display label (defaults to the variant name).

Every base algorithm is auto-registered as an identity variant, so the
registry is the complete catalogue of runnable algorithm names:
``variant_names()`` is what ``repro list`` prints.  New pairings (e.g.
lockstep-only or per-algorithm-chunked variants) register with
:func:`register_variant` instead of adding ``if name == ...`` branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..config import SystemConfig, TABLE_III
from ..network.flowcontrol import FlowControl

#: Flow-control name -> factory over a :class:`SystemConfig`, so framing
#: parameters (packet payload, flit size) always come from one config.
FLOW_CONTROL_FACTORIES: Dict[str, Callable[[SystemConfig], FlowControl]] = {
    "packet": lambda system: system.packet_flow_control(),
    "message": lambda system: system.message_flow_control(),
}

#: Flow-control name -> the SystemConfig fields its factory reads: the
#: only overrides that can change a prediction.
FLOW_CONTROL_FIELDS: Dict[str, Tuple[str, ...]] = {
    "packet": ("data_packet_payload_bytes", "flit_bytes"),
    "message": ("flit_bytes",),
}


def make_flow_control(name: str, system: Optional[SystemConfig] = None) -> FlowControl:
    """Build the named flow control from ``system`` (default Table III)."""
    try:
        factory = FLOW_CONTROL_FACTORIES[name]
    except KeyError:
        raise ValueError(
            "unknown flow control %r (choose: %s)"
            % (name, sorted(FLOW_CONTROL_FACTORIES))
        )
    return factory(system or TABLE_III)


@dataclass(frozen=True)
class AlgorithmVariant:
    """One registered algorithm variant (see module docstring)."""

    name: str
    builder: str
    flow_control: Optional[str] = None
    label: Optional[str] = None
    description: str = ""

    @property
    def display_label(self) -> str:
        return self.label or self.name

    def flow_control_name(self, fallback: Optional[str] = None) -> str:
        """This variant's flow-control name.

        A pinned ``flow_control`` wins; otherwise ``fallback`` (a
        flow-control name) or packet-based.  A ``fallback`` that
        contradicts the pin is an error — the pairing *is* the variant.
        """
        if self.flow_control is None:
            return fallback or "packet"
        if fallback is not None and fallback != self.flow_control:
            raise ValueError(
                "variant %r pins %s-based flow control; cannot override "
                "with %r" % (self.name, self.flow_control, fallback)
            )
        return self.flow_control


_VARIANTS: Dict[str, AlgorithmVariant] = {}
_BUILTIN_REGISTERED = False


def _ensure_builtin() -> None:
    """Populate identity variants + the paper's named pairings (lazy so the
    registry can live inside :mod:`repro.collectives` without an import
    cycle on :data:`ALGORITHMS`)."""
    global _BUILTIN_REGISTERED
    if _BUILTIN_REGISTERED:
        return
    _BUILTIN_REGISTERED = True
    from . import ALGORITHMS

    for name in ALGORITHMS:
        _VARIANTS.setdefault(name, AlgorithmVariant(name=name, builder=name))
    _VARIANTS.setdefault(
        "multitree-msg",
        AlgorithmVariant(
            name="multitree-msg",
            builder="multitree",
            flow_control="message",
            description="MULTITREE paired with message-based flow control "
                        "(the MULTITREEMSG co-design point, §IV-B)",
        ),
    )


def register_variant(variant: AlgorithmVariant, replace: bool = False) -> None:
    """Add a variant to the registry.

    The builder must name a known base algorithm; duplicate names are
    rejected unless ``replace=True``.
    """
    _ensure_builtin()
    from . import ALGORITHMS

    if variant.builder not in ALGORITHMS:
        raise ValueError(
            "variant %r names unknown builder %r (choose: %s)"
            % (variant.name, variant.builder, sorted(ALGORITHMS))
        )
    if not replace and variant.name in _VARIANTS:
        raise ValueError("variant %r is already registered" % variant.name)
    _VARIANTS[variant.name] = variant


def get_variant(name: str) -> AlgorithmVariant:
    """Look up a variant by name; unknown names raise ``ValueError``."""
    _ensure_builtin()
    try:
        return _VARIANTS[name]
    except KeyError:
        raise ValueError(
            "unknown algorithm variant %r; choose from %s"
            % (name, ", ".join(variant_names()))
        )


def variant_names() -> List[str]:
    """Every registered variant name, sorted."""
    _ensure_builtin()
    return sorted(_VARIANTS)


def resolve_variant(
    name: str,
    flow_control: Optional[str] = None,
    system: Optional[SystemConfig] = None,
) -> Tuple[str, FlowControl, str]:
    """Resolve a variant name to ``(builder algorithm, flow control, label)``.

    This is the one place the name -> behaviour mapping happens; every
    layer that used to special-case named pairings inline calls this (or
    :meth:`repro.scenario.Scenario.resolve`, which wraps it).
    """
    variant = get_variant(name)
    fc = make_flow_control(variant.flow_control_name(flow_control), system)
    return variant.builder, fc, variant.display_label
