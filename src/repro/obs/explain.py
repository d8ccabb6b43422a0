"""Span-tree assembly and the ``repro obs explain`` waterfall.

Rebuilds per-trace span trees from a flat record stream (parent ids
resolve across processes and threads — the whole point of the carrier
propagation) and renders each trace as an indented waterfall: one line
per span with its offset/duration bar, attributes inline, and every
``engine.fallback`` event called out under the span it happened in.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

_BAR_WIDTH = 24


class SpanNode:
    """One span with its resolved children and attached events."""

    __slots__ = ("record", "children", "events")

    def __init__(self, record: Dict[str, object]) -> None:
        self.record = record
        self.children: List["SpanNode"] = []
        self.events: List[Dict[str, object]] = []

    @property
    def name(self) -> str:
        return str(self.record.get("name"))

    @property
    def span_id(self) -> Optional[str]:
        return self.record.get("span")  # type: ignore[return-value]

    @property
    def trace_id(self) -> Optional[str]:
        return self.record.get("trace")  # type: ignore[return-value]

    @property
    def parent_id(self) -> Optional[str]:
        return self.record.get("parent")  # type: ignore[return-value]

    @property
    def start(self) -> float:
        return float(self.record.get("start", 0.0))

    @property
    def end(self) -> float:
        return float(self.record.get("end", self.start))

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def attrs(self) -> Dict[str, object]:
        attrs = self.record.get("attrs")
        return attrs if isinstance(attrs, dict) else {}

    def walk(self):
        """Depth-first iteration over this subtree (self included)."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_trees(
    records: Sequence[Dict[str, object]],
) -> Tuple[Dict[str, List[SpanNode]], List[SpanNode], List[Dict[str, object]]]:
    """``(roots by trace id, orphans, loose events)`` from a record list.

    A span parent-links when its ``parent`` id names a span present in
    the stream; a span whose parent id is set but *missing* is an
    **orphan** — it is promoted to a root of its trace so nothing is
    dropped, and returned separately so tests (and ``explain``) can
    flag broken propagation.  Events attach to their span when present,
    else land in the loose list.
    """
    nodes: Dict[str, SpanNode] = {}
    span_records: List[Dict[str, object]] = []
    event_records: List[Dict[str, object]] = []
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            span_id = record.get("span")
            if isinstance(span_id, str):
                nodes[span_id] = SpanNode(record)
                span_records.append(record)
        elif kind == "event":
            event_records.append(record)
    roots: Dict[str, List[SpanNode]] = {}
    orphans: List[SpanNode] = []
    for record in span_records:
        node = nodes[record["span"]]  # type: ignore[index]
        parent_id = record.get("parent")
        parent = nodes.get(parent_id) if isinstance(parent_id, str) else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            trace = str(record.get("trace"))
            roots.setdefault(trace, []).append(node)
            if parent_id:
                orphans.append(node)
    loose: List[Dict[str, object]] = []
    for record in event_records:
        span_id = record.get("span")
        node = nodes.get(span_id) if isinstance(span_id, str) else None
        if node is not None:
            node.events.append(record)
        else:
            loose.append(record)
    for node in nodes.values():
        node.children.sort(key=lambda child: (child.start, child.span_id or ""))
        node.events.sort(key=lambda ev: float(ev.get("time", 0.0)))
    for trace_roots in roots.values():
        trace_roots.sort(key=lambda root: (root.start, root.span_id or ""))
    return roots, orphans, loose


def _format_attrs(attrs: Dict[str, object], skip: Sequence[str] = ()) -> str:
    parts = [  # metric sample lists (queue delays...) shown by length
        "%s=%s" % (key, "<%d items>" % len(value)
                   if isinstance(value, list) else value)
        for key, value in sorted(attrs.items())
        if key not in skip
    ]
    return "  " + " ".join(parts) if parts else ""


def _format_fields(fields: object) -> str:
    if not isinstance(fields, dict) or not fields:
        return ""
    return " ".join("%s=%s" % (key, fields[key]) for key in sorted(fields))


def _bar(offset: float, duration: float, total: float) -> str:
    if total <= 0:
        return "[" + "#" * _BAR_WIDTH + "]"
    lead = min(_BAR_WIDTH, int(round(_BAR_WIDTH * offset / total)))
    body = max(1, int(round(_BAR_WIDTH * duration / total)))
    body = min(body, _BAR_WIDTH - lead)
    return "[%s%s%s]" % (
        " " * lead, "#" * body, " " * (_BAR_WIDTH - lead - body)
    )


def _render_node(
    node: SpanNode,
    origin: float,
    total: float,
    depth: int,
    lines: List[str],
) -> None:
    indent = "  " * depth
    lines.append(
        "%s%-*s %s %8.3f ms @ +%.3f ms%s"
        % (
            indent,
            max(1, 28 - len(indent)),
            node.name,
            _bar(node.start - origin, node.duration, total),
            node.duration * 1e3,
            (node.start - origin) * 1e3,
            _format_attrs(node.attrs),
        )
    )
    for ev in node.events:
        marker = "!" if ev.get("name") == "engine.fallback" else "·"
        lines.append(
            "%s  %s %s  %s"
            % (indent, marker, ev.get("name"), _format_fields(ev.get("fields")))
        )
    for child in node.children:
        _render_node(child, origin, total, depth + 1, lines)


def format_explain(
    records: Sequence[Dict[str, object]],
    trace: Optional[str] = None,
    limit: Optional[int] = None,
) -> str:
    """The per-trace waterfall rendering of an obs record stream.

    ``trace`` narrows to traces whose id starts with the given prefix;
    ``limit`` keeps only the most recent N traces (by root start time).
    """
    roots, orphans, loose = build_trees(records)
    if trace:
        roots = {
            trace_id: nodes
            for trace_id, nodes in roots.items()
            if trace_id.startswith(trace)
        }
        if not roots:
            return "no trace matching %r (stream has %d)" % (trace, len(
                build_trees(records)[0]
            ))
    ordered = sorted(
        roots.items(), key=lambda item: min(node.start for node in item[1])
    )
    if limit is not None and limit > 0:
        ordered = ordered[-limit:]
    lines: List[str] = []
    for trace_id, trace_roots in ordered:
        origin = min(node.start for node in trace_roots)
        end = max(
            max(n.end for n in root.walk()) for root in trace_roots
        )
        total = max(0.0, end - origin)
        spans = sum(1 for root in trace_roots for _ in root.walk())
        fallbacks = sum(
            1
            for root in trace_roots
            for node in root.walk()
            for ev in node.events
            if ev.get("name") == "engine.fallback"
        )
        header = "trace %s · %s · %.3f ms · %d span%s" % (
            trace_id,
            trace_roots[0].name,
            total * 1e3,
            spans,
            "" if spans == 1 else "s",
        )
        if fallbacks:
            header += " · %d fallback%s" % (
                fallbacks, "" if fallbacks == 1 else "s"
            )
        if lines:
            lines.append("")
        lines.append(header)
        for root in trace_roots:
            _render_node(root, origin, total, 1, lines)
    if orphans:
        lines.append("")
        lines.append(
            "WARNING: %d orphan span(s) (parent id not in stream): %s"
            % (len(orphans),
               ", ".join(sorted(node.name for node in orphans[:8])))
        )
    if loose:
        lines.append("")
        lines.append("%d event(s) outside any span:" % len(loose))
        for ev in loose[-8:]:
            lines.append(
                "  %s  %s" % (ev.get("name"), _format_fields(ev.get("fields")))
            )
    if not lines:
        return "empty obs stream (no spans recorded)"
    return "\n".join(lines)
