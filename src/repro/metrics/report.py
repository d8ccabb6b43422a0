"""``repro report``: cross-run comparison dashboards and regression gates.

Consumes the JSON-lines run manifests written by ``repro --manifest``
(whose metric snapshots carry labeled ``bandwidth`` gauges from sweeps and
``bench.speedup`` gauges from bench runs) plus raw ``BENCH_*.json``
harness reports, and renders a markdown dashboard:

* the run ledger (who/what/when: version, git SHA, wall time, config
  fingerprint);
* per-algorithm x topology bandwidth tables across runs with deltas — the
  Fig. 9 view (bandwidth vs size, one table per topology) and the Fig. 10
  view (bandwidth vs topology at the largest common size);
* bench speedup comparisons against a committed baseline;
* a regression list: every tracked metric that drifted down past the
  threshold, every ``--bench-baseline`` case with no current speedup, and
  an input that holds no run and no bench report at all.  ``repro report
  --check`` exits non-zero when this list is non-empty, which is the CI
  gate.

Baseline semantics: the *earliest* manifest record is the baseline run and
the *latest* is the current run (override with ``--baseline-run``); a
bandwidth point regresses when ``current < baseline * (1 - threshold)``.
Bench speedups gate against ``--bench-baseline`` with
:func:`repro.bench.harness.floor_failures`, the one floor rule
``repro bench --baseline`` applies too.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.harness import (
    compare_to_baseline,
    floor_failures,
    is_bench_report,
    load_report,
)
from ..obs import load_stream
from ..scenario import Scenario
from ..scenario import format_size as _scenario_size
from .registry import parse_key

KiB = 1024
MiB = 1 << 20

SeriesKey = Tuple[str, str, int]  # (topology, algorithm, data_bytes)


def _series_label(key: SeriesKey) -> str:
    """A series key in canonical scenario-string form for report rows."""
    topology, algorithm, size = key
    return "%s/%s/%s" % (topology, algorithm, _scenario_size(size))


def format_size(size: int) -> str:
    if size >= MiB:
        return "%g MiB" % (size / MiB)
    if size >= KiB:
        return "%g KiB" % (size / KiB)
    return "%d B" % size


def classify_inputs(
    paths: Sequence[str],
) -> Tuple[List[Dict[str, object]], List[Tuple[str, Dict[str, object]]]]:
    """Split input files into (manifest records, named bench reports).

    ``.jsonl`` files are manifests; ``.json`` files are sniffed — a bench
    harness report is recognized by its ``results``/``schema`` shape,
    anything else is rejected loudly rather than silently ignored.
    """
    runs: List[Dict[str, object]] = []
    benches: List[Tuple[str, Dict[str, object]]] = []
    for path in paths:
        if path.endswith(".jsonl"):
            runs.extend(load_stream(path))
            continue
        with open(path) as fh:
            payload = json.load(fh)
        if is_bench_report(payload):
            benches.append((path, payload))
        elif isinstance(payload, dict) and "run_id" in payload:
            runs.append(payload)  # a single manifest record saved as .json
        else:
            raise ValueError(
                "%s is neither a run manifest nor a bench report" % path
            )
    runs.sort(key=lambda r: r.get("timestamp", 0.0))
    return runs, benches


def bandwidth_series(record: Dict[str, object]) -> Dict[SeriesKey, float]:
    """The labeled ``bandwidth`` gauges of one manifest record.

    Gauges stamped with a ``scenario`` label (the ``+``-separated
    :meth:`repro.scenario.Scenario.label_form`) key their series from that
    one descriptor; older records fall back to the separate
    topology/algorithm/size labels, so reports stay comparable across the
    schema generations.
    """
    series: Dict[SeriesKey, float] = {}
    metrics = record.get("metrics") or {}
    for key, value in (metrics.get("gauges") or {}).items():
        name, labels = parse_key(key)
        if name != "bandwidth":
            continue
        scenario_label = labels.get("scenario")
        if scenario_label:
            try:
                scenario = Scenario.parse(scenario_label)
            except ValueError:
                scenario = None
            if scenario is not None:
                series[
                    (scenario.topology, scenario.algorithm, scenario.data_bytes)
                ] = float(value)
                continue
        try:
            size = int(labels["size"])
            series[(labels["topology"], labels["algorithm"], size)] = float(value)
        except (KeyError, ValueError):
            continue
    return series


def engine_mix(
    record: Dict[str, object],
) -> Tuple[Dict[Tuple[str, str], float], Dict[Tuple[str, str, str], float]]:
    """The engine run/fallback counters of one manifest record.

    Returns ``(runs, fallbacks)``: runs keyed by ``(engine, topology)``
    from ``sim.engine_runs``, fallbacks keyed by ``(engine, reason,
    topology)`` from the reasoned ``sim.fallbacks`` counter.
    """
    runs: Dict[Tuple[str, str], float] = {}
    fallbacks: Dict[Tuple[str, str, str], float] = {}
    metrics = record.get("metrics") or {}
    counters = metrics.get("counters") or {}
    for key, value in counters.items():
        name, labels = parse_key(key)
        if name == "sim.engine_runs":
            mix_key = (
                labels.get("engine", "?"), labels.get("topology", "?")
            )
            runs[mix_key] = runs.get(mix_key, 0.0) + float(value)
        elif name == "sim.fallbacks":
            fb_key = (
                labels.get("engine", "?"),
                labels.get("reason", "?"),
                labels.get("topology", "?"),
            )
            fallbacks[fb_key] = fallbacks.get(fb_key, 0.0) + float(value)
    return runs, fallbacks


def bench_speedups(record: Dict[str, object]) -> Dict[str, float]:
    """The ``bench.speedup`` gauges of one manifest record."""
    out: Dict[str, float] = {}
    metrics = record.get("metrics") or {}
    for key, value in (metrics.get("gauges") or {}).items():
        name, labels = parse_key(key)
        if name == "bench.speedup" and "benchmark" in labels:
            out[labels["benchmark"]] = float(value)
    return out


def _short_id(record: Dict[str, object], index: int) -> str:
    rid = str(record.get("run_id") or "run-%d" % index)
    return rid if len(rid) <= 24 else rid[:21] + "..."


def _md_table(header: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: List[str]) -> str:
        return "| " + " | ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ) + " |"
    lines = [fmt(header),
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(fmt(row) for row in rows)
    return lines


class Regression:
    """One gate failure: a tracked metric that drifted below its allowed
    floor, or, with no floor, a failure that ``metric`` states whole."""

    def __init__(self, metric: str, current: float = 0.0,
                 baseline: float = 0.0, floor: Optional[float] = None,
                 unit: str = "") -> None:
        self.metric = metric
        self.current = current
        self.baseline = baseline
        self.floor = floor
        self.unit = unit

    def __str__(self) -> str:
        if self.floor is None:
            return self.metric
        return (
            "%s regressed: %.4g%s < floor %.4g%s (baseline %.4g%s)"
            % (self.metric, self.current, self.unit, self.floor, self.unit,
               self.baseline, self.unit)
        )


def build_report(
    runs: List[Dict[str, object]],
    benches: Sequence[Tuple[str, Dict[str, object]]] = (),
    bench_baseline: Optional[Dict[str, object]] = None,
    threshold: float = 0.05,
    max_bench_regression: float = 0.25,
    baseline_run: Optional[str] = None,
) -> Tuple[str, List[Regression]]:
    """Render the dashboard; returns (markdown text, regression list)."""
    lines: List[str] = ["# repro run report", ""]
    regressions: List[Regression] = []

    # -- run ledger --------------------------------------------------------
    if runs:
        lines.append("## Runs")
        lines.append("")
        rows = []
        for i, record in enumerate(runs):
            rows.append([
                _short_id(record, i),
                str(record.get("date", "?")),
                str(record.get("command", "?")),
                str(record.get("version", "?")),
                str(record.get("git_sha") or "-")[:12],
                "%.2f" % float(record.get("wall_time_s") or 0.0),
                str(record.get("fingerprint", "-")),
            ])
        lines.extend(_md_table(
            ["run", "date", "command", "version", "git", "wall s",
             "config"],
            rows,
        ))
        lines.append("")

    # -- pick baseline / current runs for bandwidth comparison -------------
    base_record: Optional[Dict[str, object]] = None
    if runs:
        if baseline_run is not None:
            matches = [r for r in runs if r.get("run_id") == baseline_run]
            if not matches:
                raise ValueError("baseline run %r not found" % baseline_run)
            base_record = matches[0]
        else:
            base_record = runs[0]
    current_record = runs[-1] if runs else None

    base_bw = bandwidth_series(base_record) if base_record else {}
    run_bw = [(r, bandwidth_series(r)) for r in runs]
    all_keys = sorted({k for _r, bw in run_bw for k in bw})

    # -- Fig. 9 view: bandwidth vs size, one table per topology x algo ----
    if all_keys:
        lines.append("## All-reduce bandwidth (GB/s) — fig. 9 view")
        lines.append("")
        topologies = sorted({k[0] for k in all_keys})
        for topology in topologies:
            algorithms = sorted(
                {k[1] for k in all_keys if k[0] == topology}
            )
            sizes = sorted({k[2] for k in all_keys if k[0] == topology})
            lines.append("### %s" % topology)
            lines.append("")
            header = ["size", "algorithm"]
            header += [_short_id(r, i) for i, (r, _bw) in enumerate(run_bw)]
            if len(run_bw) > 1:
                header.append("delta")
            rows = []
            for size in sizes:
                for algorithm in algorithms:
                    key = (topology, algorithm, size)
                    cells = [format_size(size), algorithm]
                    values = []
                    for _record, bw in run_bw:
                        value = bw.get(key)
                        values.append(value)
                        cells.append(
                            "%.2f" % (value / 1e9) if value is not None else "-"
                        )
                    if len(run_bw) > 1:
                        base = base_bw.get(key)
                        cur = values[-1]
                        if base and cur is not None:
                            delta = 100.0 * (cur - base) / base
                            cells.append("%+.1f%%" % delta)
                            floor = base * (1.0 - threshold)
                            if cur < floor:
                                regressions.append(Regression(
                                    "bandwidth[%s]" % _series_label(key),
                                    cur / 1e9, base / 1e9, floor / 1e9,
                                    unit=" GB/s",
                                ))
                        else:
                            cells.append("-")
                    if any(v is not None for v in values):
                        rows.append(cells)
            lines.extend(_md_table(header, rows))
            lines.append("")

        # -- Fig. 10 view: bandwidth vs topology at the largest shared size
        size_sets = [
            {k[2] for k in all_keys if k[0] == topo} for topo in topologies
        ]
        common = set.intersection(*size_sets) if size_sets else set()
        if len(topologies) > 1 and common:
            at = max(common)
            current_bw = bandwidth_series(current_record) if current_record else {}
            algorithms = sorted({k[1] for k in all_keys if k[2] == at})
            lines.append(
                "## Scalability at %s — fig. 10 view (latest run)"
                % format_size(at)
            )
            lines.append("")
            rows = []
            for topology in topologies:
                cells = [topology]
                for algorithm in algorithms:
                    value = current_bw.get((topology, algorithm, at))
                    cells.append(
                        "%.2f" % (value / 1e9) if value is not None else "-"
                    )
                rows.append(cells)
            lines.extend(_md_table(["topology"] + algorithms, rows))
            lines.append("")

    # -- engine mix: which rung resolved runs, and why declines fell -------
    if current_record is not None:
        mix_runs, mix_fallbacks = engine_mix(current_record)
        if mix_runs or mix_fallbacks:
            lines.append("## Engine mix (latest run)")
            lines.append("")
            if mix_runs:
                rows = [
                    [engine, topology, "%d" % count]
                    for (engine, topology), count in sorted(mix_runs.items())
                ]
                lines.extend(_md_table(["engine", "topology", "runs"], rows))
                lines.append("")
            if mix_fallbacks:
                rows = [
                    [engine, reason, topology, "%d" % count]
                    for (engine, reason, topology), count in sorted(
                        mix_fallbacks.items(), key=lambda kv: (-kv[1], kv[0])
                    )
                ]
                lines.append("fallbacks by validation gate:")
                lines.append("")
                lines.extend(_md_table(
                    ["engine", "reason", "topology", "count"], rows
                ))
                lines.append("")

    # -- bench speedups ----------------------------------------------------
    bench_rows: List[List[str]] = []
    baseline_speedups: Dict[str, float] = {}
    if bench_baseline is not None:
        baseline_speedups = {
            name: float(entry["speedup"])
            for name, entry in (bench_baseline.get("results") or {}).items()
        }
    # Current speedups: explicit bench reports first, else the latest
    # manifest that carried bench.speedup gauges.
    current_speedups: Dict[str, float] = {}
    source = None
    if benches:
        source, payload = benches[-1]
        current_speedups = {
            name: float(entry["speedup"])
            for name, entry in payload["results"].items()
        }
        if bench_baseline is not None:
            for failure in compare_to_baseline(
                payload, bench_baseline, max_bench_regression
            ):
                regressions.append(Regression("bench: %s" % failure))
    else:
        for record in reversed(runs):
            speedups = bench_speedups(record)
            if speedups:
                current_speedups = speedups
                source = _short_id(record, 0)
                break
        # With nothing measured, every baseline case is missing.
        for name, cur, base, floor in sorted(floor_failures(
            current_speedups, baseline_speedups, max_bench_regression
        )):
            regressions.append(
                Regression("bench.speedup[%s] missing from current run" % name)
                if cur is None
                else Regression(
                    "bench.speedup[%s]" % name, cur, base, floor, unit="x"
                )
            )
    if current_speedups:
        for name in sorted(current_speedups):
            cur = current_speedups[name]
            base = baseline_speedups.get(name)
            bench_rows.append([
                name,
                "%.2fx" % cur,
                "%.2fx" % base if base is not None else "-",
                "%+.1f%%" % (100.0 * (cur - base) / base)
                if base else "-",
            ])
        lines.append("## Bench speedups (vs in-process reference)")
        lines.append("")
        if source:
            lines.append("source: %s" % source)
            lines.append("")
        lines.extend(_md_table(
            ["benchmark", "current", "baseline", "delta"], bench_rows
        ))
        lines.append("")

    # -- regression summary ------------------------------------------------
    if not runs and not benches:
        regressions.append(
            Regression("no run manifest or bench report to check")
        )
    lines.append("## Regressions")
    lines.append("")
    if regressions:
        for regression in regressions:
            lines.append("- **FAIL** %s" % regression)
    else:
        lines.append("none — all tracked metrics within threshold "
                     "(bandwidth %.0f%%, bench %.0f%%)"
                     % (threshold * 100, max_bench_regression * 100))
    lines.append("")
    return "\n".join(lines), regressions


def run_report(
    paths: Sequence[str],
    bench_baseline_path: Optional[str] = None,
    threshold: float = 0.05,
    max_bench_regression: float = 0.25,
    baseline_run: Optional[str] = None,
) -> Tuple[str, List[Regression]]:
    """File-level entry point used by the CLI."""
    runs, benches = classify_inputs(paths)
    bench_baseline = (
        load_report(bench_baseline_path) if bench_baseline_path else None
    )
    return build_report(
        runs,
        benches,
        bench_baseline=bench_baseline,
        threshold=threshold,
        max_bench_regression=max_bench_regression,
        baseline_run=baseline_run,
    )
