"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``sweep``    all-reduce bandwidth across data sizes (a Fig. 9 panel);
             ``--jobs``/``--cache`` run it parallel and memoized
``plan``     scenario planner: latency/bandwidth Pareto frontier per size
             bucket over the algorithm-variant space (``repro.serve``)
``serve``    the high-QPS HTTP prediction service (/predict /plan
             /healthz /metrics) with background cache warming
``replay``   record or replay a query trace (in-process or --url against
             a live service), reporting QPS, hit rate and p50/p99
``bench``    the fast-path micro-benchmark harness (BENCH_<date>.json)
``report``   cross-run comparison dashboard + regression gate (``--check``)
``trees``    print MultiTree construction and NI schedule tables (Fig. 3/5)
``train``    one training iteration for a DNN workload (Fig. 11 rows)
``trace``    simulate one all-reduce with full event tracing and diagnosis
``scenario`` inspect experiment descriptors: canonical form + fingerprint
``status``   live text view of a run's flushed obs span stream
``obs``      span-stream tools: explain (per-request waterfall + fallback
             reasons), export (Perfetto), validate (schema), overhead
             (obs-on vs obs-off gate)
``table1``   the measured Table I
``list``     available topologies, algorithm variants and DNN models

Size axes (``--sizes``) share one grammar everywhere: comma-separated
sizes and/or ``LO..HI`` doubling ranges (``32K..64M``), parsed by
:func:`repro.scenario.parse_sizes`.

Every experiment-shaped command parses its arguments into
:class:`repro.scenario.Scenario` descriptors once, up front — sweep/trace
accept the canonical one-line form directly (``--scenario
torus-4x4/multitree-msg/16MiB``) and run manifests fingerprint runs by
their scenarios.

Exit contract: :func:`main` is the one input-error boundary.  A command
that lets a ``ValueError`` or ``OSError`` escape — an unknown model or
algorithm, a malformed size, scenario or topology, a missing or
unparseable input file, a port that cannot be bound — exits with status
1 and the error's message on stderr, never a traceback (``--obs`` still
closes its stream first).  ``repro serve`` keeps the same contract per
request: a ``ValueError`` answers 400.

Global options (before the command): ``--manifest PATH`` turns metric
collection on (it is off by default) and appends a self-describing
JSON-lines run manifest (config fingerprint, version, git SHA, wall time,
metric snapshot) that ``repro report`` can diff across runs.  ``--obs
PATH`` streams correlated spans + structured logs (one JSONL record per
closed span) to PATH — ``repro status`` tails it live, ``repro obs
explain`` renders the span trees after, and under ``repro serve`` each
``http.request`` span is the record of one served request.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import Optional, Sequence

from . import obs as _obs
from .analysis import format_bandwidth_table, format_table1, measure_table1
from .bench import (
    compare_to_baseline,
    default_report_path,
    format_report,
    load_report,
    run_bench,
    write_report,
)
from .collectives import build_schedule, build_trees, variant_names
from .compute import MODEL_BUILDERS, get_model
from .metrics import (
    append_manifest,
    build_manifest,
    collecting,
    repro_version,
)
from .metrics.report import run_report
from .ni import build_schedule_tables, simulate_allreduce
from .scenario import ENGINES, SCENARIO_HELP, Scenario, parse_size, parse_sizes
from .sweep import SweepStats, jobs_from_scenarios, run_sweep
from .topology.specs import (
    TOPOLOGY_BUILDERS,
    TOPOLOGY_HELP,
    link_profile_for,
    parse_topology,
    topology_mods_help,
)
from .topology.profile import link_mods_help
from .trace import Trace, format_trace_report, write_chrome_trace
from .training import nonoverlapped_iteration, overlapped_iteration

#: Shared size-axis help blurb.
SIZES_HELP = "comma-separated sizes and/or LO..HI doubling ranges (32K..64M)"


def _combined_spec(topology: str, dims: Optional[str]) -> str:
    """The combined topology spec for split or already-combined CLI args."""
    return "%s-%s" % (topology, dims) if dims else topology


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.scenario:
        scenarios = [Scenario.parse(s) for s in args.scenario]
    else:
        spec = _combined_spec(args.topology, args.dims)
        sizes = parse_sizes(args.sizes)
        scenarios = [
            Scenario(
                topology=spec, algorithm=algorithm.strip(),
                data_bytes=size, engine=args.engine,
            )
            for algorithm in args.algorithms.split(",")
            for size in sizes
        ]
    args._scenarios = scenarios
    jobs = jobs_from_scenarios(scenarios)
    show_stats = (
        args.jobs > 1 or args.cache or args.artifacts or args.scenario
        or any(s.engine != "event" for s in scenarios)
    )
    stats = SweepStats()
    sweeps = run_sweep(
        jobs, processes=args.jobs, cache_path=args.cache, stats=stats,
        artifacts_path=args.artifacts,
    )
    topologies = list(dict.fromkeys(s.topology for s in scenarios))
    print("all-reduce bandwidth on %s" % ", ".join(topologies))
    print(format_bandwidth_table(sweeps))
    if show_stats:
        print(stats.format())
    return 0


def _workload_spec(args: argparse.Namespace):
    """Build a planner WorkloadSpec from plan/replay-style CLI flags."""
    from .serve.planner import WorkloadSpec

    return WorkloadSpec(
        topology=_combined_spec(args.topology, args.dims),
        sizes=parse_sizes(args.sizes),
        algorithms=tuple(
            a.strip() for a in (args.algorithms or "").split(",") if a.strip()
        ),
        flow_control=args.flow_control,
        engine=args.engine,
    )


def _open_state(args: argparse.Namespace):
    """(cache, artifacts) for the planner, honoring ``--no-cache``."""
    from .serve.service import ARTIFACTS_DIRNAME, CACHE_FILENAME
    from .sweep import ArtifactStore, PredictionCache

    if getattr(args, "no_cache", False):
        return None, None
    return (
        PredictionCache(os.path.join(args.state_dir, CACHE_FILENAME)),
        ArtifactStore(os.path.join(args.state_dir, ARTIFACTS_DIRNAME)),
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    from .serve.planner import plan

    spec = _workload_spec(args)
    cache, artifacts = _open_state(args)
    result = plan(spec, cache=cache, artifacts=artifacts)
    if cache is not None:
        cache.save()
    args._scenarios = list(result.scenarios)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.format_table())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.service import PredictionService, make_server

    service = PredictionService(
        args.state_dir,
        workers=args.workers,
        queue_size=args.queue_size,
        retry_after_s=args.retry_after,
    )
    # While open, the server folds every record of the process into the
    # service registry: /metrics shows simulator and sweep internals too.
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        "repro serve listening on http://%s:%d (state %s, %d workers)"
        % (host, port, args.state_dir, args.workers)
    )
    print("endpoints: /predict?scenario=...  /plan?topology=...&sizes=...  "
          "/healthz  /metrics")
    sys.stdout.flush()
    # SIGTERM, and SIGINT even where a background launch ignores it, stop
    # the server as Ctrl-C does, so the shutdown below (and the --obs
    # recorder's close) runs instead of losing unflushed records.
    previous = {
        signum: signal.signal(signum, _interrupt)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        service.close()
    return 0


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _cmd_replay(args: argparse.Namespace) -> int:
    from .serve.replay import (
        load_trace,
        record_trace,
        replay,
        replay_http,
        workload_trace,
    )

    if args.record:
        spec = _workload_spec(args)
        scenarios = workload_trace(
            spec.topology, spec.sizes, spec.candidate_algorithms(),
            engine=spec.engine, flow_control=spec.flow_control,
        )
        written = record_trace(args.record, scenarios, repeat=args.passes)
        print("recorded %d queries to %s" % (written, args.record))
        return 0
    if not args.trace:
        raise ValueError("replay needs --trace PATH (or --record PATH)")
    scenarios = load_trace(args.trace)
    if args.url:
        stats = replay_http(args.url, scenarios * max(1, args.passes))
    else:
        from .serve.service import PredictionService

        service = PredictionService(args.state_dir, workers=0)
        try:
            stats = replay(
                service, scenarios * max(1, args.passes), block=args.block
            )
        finally:
            service.close()
    print(stats.format())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(stats.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.json_out)
    if stats.hit_rate < args.min_hit_rate:
        print(
            "FAIL: hit rate %.2f below required %.2f"
            % (stats.hit_rate, args.min_hit_rate),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    # A missing or malformed baseline fails before the minutes-long run.
    baseline = load_report(args.baseline) if args.baseline else None
    report = run_bench(quick=args.quick, repeat=args.repeat)
    # Speedups are the machine-independent tracked metric; manifests
    # carry them so `repro report --check` can gate on drift.
    _obs.event("bench.report", results=report["results"])
    print(format_report(report))
    output = args.output or default_report_path(report)
    write_report(report, output)
    print("wrote %s" % output)
    if baseline is not None:
        failures = compare_to_baseline(report, baseline, args.max_regression)
        if failures:
            for failure in failures:
                print("REGRESSION: %s" % failure, file=sys.stderr)
            return 1
        print("no regression vs %s" % args.baseline)
    return 0


def _cmd_trees(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology, args.dims)
    trees, tot_t = build_trees(topology, priority=args.priority)
    print("%s: %d trees built in %d time steps" % (topology.name, len(trees), tot_t))
    for tree in trees[: args.limit]:
        print("tree T%d (depth %d):" % (tree.root, tree.depth()))
        for edge in tree.edges:
            print("  step %d: %d -> %d" % (edge.step, edge.parent, edge.child))
    if args.tables:
        schedule = build_schedule("multitree", topology)
        tables = build_schedule_tables(schedule, data_bytes=args.data_bytes)
        for node in list(topology.nodes)[: args.limit]:
            print()
            print(tables[node].format())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology, args.dims)
    spec = _combined_spec(args.topology, args.dims)
    model = get_model(args.model)
    data_bytes = max(1, int(model.gradient_bytes))
    print(
        "%s on %s (%.1fM params, %.1f MB gradients)"
        % (model.name, topology.name, model.total_params / 1e6, model.gradient_bytes / 1e6)
    )
    scenarios = []
    for algorithm in args.algorithms.split(","):
        scenario = Scenario(
            topology=spec, algorithm=algorithm.strip(), data_bytes=data_bytes
        )
        scenarios.append(scenario)
        resolved = scenario.resolve()
        algorithm, fc = resolved.label, resolved.flow_control
        schedule = build_schedule(resolved.builder, topology)
        if args.overlap:
            b = overlapped_iteration(model, schedule, flow_control=fc)
            print(
                "  %-14s %8.2f ms (compute %.2f, comm %.2f of which hidden %.2f)"
                % (algorithm, b.total_time * 1e3, b.compute_time * 1e3,
                   b.allreduce_time * 1e3, b.overlap_time * 1e3)
            )
        else:
            b = nonoverlapped_iteration(model, schedule, flow_control=fc)
            print(
                "  %-14s %8.2f ms (compute %.2f + all-reduce %.2f, comm share %.0f%%)"
                % (algorithm, b.total_time * 1e3, b.compute_time * 1e3,
                   b.allreduce_time * 1e3, 100 * b.comm_fraction)
            )
    args._scenarios = scenarios
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.scenario:
        scenario = Scenario.parse(args.scenario)
    else:
        scenario = Scenario(
            topology=_combined_spec(args.topology, args.dims),
            algorithm=args.algorithm.strip(),
            data_bytes=parse_size(args.size),
            flow_control=(
                None if args.flow_control == "packet" else args.flow_control
            ),
            lockstep=not args.no_lockstep,
        )
    args._scenarios = [scenario]
    resolved = scenario.resolve()
    topology = scenario.build_topology()
    schedule = build_schedule(resolved.builder, topology)
    recorder = Trace()
    result = simulate_allreduce(
        schedule, scenario.data_bytes, resolved.flow_control,
        lockstep=scenario.lockstep, recorder=recorder,
    )
    output = args.output or "trace-%s.json" % scenario.slug()
    write_chrome_trace(recorder, output)
    print(format_trace_report(recorder, topology, top=args.top))
    print()
    print(
        "simulated finish time: %.3f us (%.2f GB/s all-reduce bandwidth)"
        % (result.time * 1e6, result.bandwidth / 1e9)
    )
    print("wrote %s — open it at https://ui.perfetto.dev" % output)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    text, regressions = run_report(
        args.files,
        bench_baseline_path=args.bench_baseline,
        threshold=args.threshold,
        max_bench_regression=args.max_bench_regression,
        baseline_run=args.baseline_run,
    )
    print(text)
    if regressions:
        for regression in regressions:
            print("REGRESSION: %s" % regression, file=sys.stderr)
        if args.check:
            return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .obs import load_stream
    from .obs.status import format_status

    def render() -> str:
        return format_status(load_stream(args.stream), path=args.stream)

    if not args.follow:
        print(render())
        return 0
    try:
        while True:
            print("\033[2J\033[H" + render(), flush=True)
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import load_stream, validate_stream

    if args.obs_command == "explain":
        from .obs.explain import format_explain

        records = load_stream(args.stream)
        print(format_explain(records, trace=args.trace, limit=args.limit))
        return 0
    if args.obs_command == "export":
        from .obs.export import write_chrome_spans

        records = load_stream(args.stream)
        output = args.output or args.stream + ".perfetto.json"
        write_chrome_spans(records, output)
        print(
            "wrote %s (%d records) — open it at https://ui.perfetto.dev"
            % (output, len(records))
        )
        return 0
    if args.obs_command == "validate":
        failed = False
        for stream in args.streams:
            count, errors = validate_stream(stream)
            if errors:
                failed = True
                print("%s: %d records, %d invalid" % (stream, count, len(errors)))
                for message in errors[:10]:
                    print("  %s" % message)
            else:
                print("%s: %d records, all valid" % (stream, count))
        return 1 if failed else 0
    # overhead, the one subcommand left
    from .obs.overhead import format_overhead, measure_overhead

    result = measure_overhead(repeat=args.repeat)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(format_overhead(result))
    if float(result["overhead"]) > args.max_overhead:
        print(
            "FAIL: obs overhead %.2f%% above allowed %.2f%%"
            % (
                100.0 * float(result["overhead"]),
                100.0 * args.max_overhead,
            ),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(format_table1(measure_table1()))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("topologies: %s" % TOPOLOGY_HELP)
    print("link mods (append to a topology spec after @, join with +):")
    for line in topology_mods_help().splitlines():
        print("  %s" % line)
    print("algorithms: %s" % ", ".join(variant_names()))
    print("models:     %s" % ", ".join(sorted(MODEL_BUILDERS)))
    print("scenarios:  %s" % SCENARIO_HELP)
    return 0


def _scenario_link_mods(scenario: Scenario):
    """(active link-mod text or None, supported-mods help) for a scenario."""
    head, _at, modtext = scenario.topology.partition("@")
    kind = head.partition("-")[0]
    profile = link_profile_for(kind, modtext)
    return (
        profile.canonical() or None,
        link_mods_help(TOPOLOGY_BUILDERS[kind].mods) or None,
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    scenarios = [Scenario.parse(s) for s in args.specs]
    args._scenarios = scenarios
    if args.json:
        payload = []
        for scenario in scenarios:
            resolved = scenario.resolve()
            mods, supported = _scenario_link_mods(scenario)
            entry = scenario.to_dict()
            entry["canonical"] = str(scenario)
            entry["fingerprint"] = scenario.fingerprint()
            entry["cache_key"] = scenario.cache_key()
            entry["artifact_key"] = scenario.artifact_key()
            entry["link_mods"] = mods
            entry["supported_link_mods"] = supported
            entry["resolved"] = {
                "builder": resolved.builder,
                "flow_control": repr(resolved.flow_control),
                "label": resolved.label,
            }
            payload.append(entry)
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
        return 0
    for scenario in scenarios:
        resolved = scenario.resolve()
        mods, supported = _scenario_link_mods(scenario)
        print("scenario:     %s" % scenario)
        print("fingerprint:  %s" % scenario.fingerprint())
        print("cache key:    %s" % scenario.cache_key())
        print("artifact key: %s" % scenario.artifact_key())
        print(
            "link mods:    %s (supported: %s)"
            % (mods or "uniform", supported or "none")
        )
        print(
            "resolved:     builder=%s flow_control=%r label=%s"
            % (resolved.builder, resolved.flow_control, resolved.label)
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MultiTree all-reduce co-design (ISCA 2021) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + repro_version()
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="collect telemetry and append a JSON-lines run manifest "
             "(config fingerprint, version, git SHA, metric snapshot)",
    )
    parser.add_argument(
        "--obs", default=None, metavar="PATH",
        help="stream correlated spans + structured logs (JSONL, one record "
             "per closed span) here; inspect with `repro status` and "
             "`repro obs explain`",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="all-reduce bandwidth vs data size")
    p.add_argument(
        "--scenario", action="append", default=None, metavar="SPEC",
        help="run this exact scenario (repeatable; overrides "
             "--topology/--algorithms/--sizes): " + SCENARIO_HELP,
    )
    p.add_argument("--topology", default="torus")
    p.add_argument("--dims", default="4x4", help=TOPOLOGY_HELP)
    p.add_argument("--algorithms", default="ring,multitree,multitree-msg")
    p.add_argument("--sizes", default="32K,1M,16M,64M")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (one algorithm series per job; 1 = serial)",
    )
    p.add_argument(
        "--cache", default=None, metavar="PATH",
        help="persistent prediction cache journal (JSONL; created if missing)",
    )
    p.add_argument(
        "--engine", choices=ENGINES,
        default="event",
        help="simulation engine (lockstep: step-level fast path; "
             "lockstep-vec: vectorized batch fast path; both bit-identical, "
             "falling back down the engine ladder per run if ungated)",
    )
    p.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="compiled-schedule artifact store directory: load lowered "
             "schedules instead of rebuilding them (created if missing)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "plan",
        help="Pareto frontier per size bucket over the algorithm-variant "
             "space (uses the prediction cache; repeat plans are free)",
    )
    p.add_argument("--topology", default="torus")
    p.add_argument("--dims", default="8x8", help=TOPOLOGY_HELP)
    p.add_argument("--sizes", default="32K..64M", help=SIZES_HELP)
    p.add_argument(
        "--algorithms", default=None,
        help="candidate variants, comma-separated (default: every "
             "registered variant; incompatible ones are reported skipped)",
    )
    p.add_argument(
        "--flow-control", choices=("packet", "message"), default=None,
        help="constrain every candidate's flow control (default: each "
             "variant's own pairing)",
    )
    p.add_argument(
        "--engine", choices=ENGINES,
        default="lockstep-vec",
        help="simulation engine for cold points (default lockstep-vec: "
             "batched vectorized evaluation of each size bucket)",
    )
    p.add_argument(
        "--state-dir", default=".repro", metavar="DIR",
        help="prediction cache + artifact store directory shared with "
             "`repro serve` (default .repro, created if missing)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the state dir (every point simulates)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "serve",
        help="HTTP prediction service: /predict /plan /healthz /metrics, "
             "warm-cache answers + background compilation on miss",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8177, help="0 = ephemeral")
    p.add_argument(
        "--state-dir", default=".repro", metavar="DIR",
        help="prediction cache + artifact store directory (default .repro)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="background compile workers (default 2)",
    )
    p.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded compile-queue depth; beyond it misses answer 503",
    )
    p.add_argument(
        "--retry-after", type=float, default=2.0, metavar="SECONDS",
        help="retry hint returned with 202/503 answers (default 2.0)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "replay",
        help="record or replay a query trace against the prediction "
             "service (in-process, or --url for a live server)",
    )
    p.add_argument(
        "--record", default=None, metavar="PATH",
        help="write the workload's query trace here instead of replaying",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH", help="query trace to replay"
    )
    p.add_argument(
        "--url", default=None, metavar="URL",
        help="replay over HTTP against this server base "
             "(e.g. http://127.0.0.1:8177)",
    )
    p.add_argument(
        "--state-dir", default=".repro", metavar="DIR",
        help="state directory for in-process replay (default .repro)",
    )
    p.add_argument(
        "--passes", type=int, default=1,
        help="trace traversals (record: repetitions written; replay: "
             "repetitions driven)",
    )
    p.add_argument(
        "--block", action="store_true",
        help="in-process replay simulates misses synchronously (cold-path "
             "timing) instead of counting them as misses",
    )
    p.add_argument(
        "--min-hit-rate", type=float, default=0.0, metavar="FRACTION",
        help="exit non-zero when the replay hit rate falls below this",
    )
    p.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the replay stats as JSON",
    )
    p.add_argument("--topology", default="torus")
    p.add_argument("--dims", default="4x4", help="for --record: " + TOPOLOGY_HELP)
    p.add_argument("--sizes", default="32K..1M", help="for --record: " + SIZES_HELP)
    p.add_argument(
        "--algorithms", default=None, help="for --record: candidate variants"
    )
    p.add_argument(
        "--flow-control", choices=("packet", "message"), default=None,
        help="for --record: constrain flow control",
    )
    p.add_argument(
        "--engine", choices=ENGINES,
        default="lockstep-vec",
        help="for --record: simulation engine",
    )
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "bench", help="fast-path micro-benchmarks vs the seed implementations"
    )
    p.add_argument(
        "--quick", action="store_true", help="small topologies (CI smoke mode)"
    )
    p.add_argument("--repeat", type=int, default=None, help="timing repetitions")
    p.add_argument(
        "--output", default=None, help="report path (default BENCH_<date>.json)"
    )
    p.add_argument(
        "--baseline", default=None,
        help="committed BENCH_*.json to compare speedups against",
    )
    p.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional speedup drop vs baseline (default 0.25)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "report",
        help="comparison dashboard + regression gate over run manifests "
             "and BENCH_*.json reports",
    )
    p.add_argument(
        "files", nargs="+",
        help="run-manifest .jsonl files and/or BENCH_*.json harness reports",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit non-zero when any tracked metric regresses past threshold",
    )
    p.add_argument(
        "--threshold", type=float, default=0.05,
        help="allowed fractional bandwidth drop vs the baseline run "
             "(default 0.05)",
    )
    p.add_argument(
        "--bench-baseline", default=None, metavar="PATH",
        help="committed BENCH_*.json to gate bench speedups against",
    )
    p.add_argument(
        "--max-bench-regression", type=float, default=0.25,
        help="allowed fractional speedup drop vs the bench baseline "
             "(default 0.25)",
    )
    p.add_argument(
        "--baseline-run", default=None, metavar="RUN_ID",
        help="run_id to use as baseline (default: earliest manifest record)",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("trees", help="print MultiTree construction (Fig. 3/5)")
    p.add_argument("--topology", default="mesh")
    p.add_argument("--dims", default="2x2")
    p.add_argument("--priority", default="root-id")
    p.add_argument("--limit", type=int, default=4, help="trees/tables to print")
    p.add_argument("--tables", action="store_true", help="also print NI tables")
    p.add_argument("--data-bytes", type=int, default=4096)
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("train", help="one training iteration (Fig. 11 rows)")
    p.add_argument("--model", default="ResNet50")
    p.add_argument("--topology", default="torus")
    p.add_argument("--dims", default="8x8")
    p.add_argument("--algorithms", default="ring,2d-ring,multitree,multitree-msg")
    p.add_argument("--overlap", action="store_true", help="layer-wise all-reduce")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "trace", help="trace one all-reduce: Perfetto JSON + diagnosis report"
    )
    p.add_argument(
        "--scenario", default=None, metavar="SPEC",
        help="trace this exact scenario (overrides the flags below): "
             + SCENARIO_HELP,
    )
    p.add_argument("--algorithm", default="multitree")
    p.add_argument(
        "--topology", default="torus-4x4",
        help="combined form (torus-4x4) or kind alone with --dims",
    )
    p.add_argument("--dims", default=None, help=TOPOLOGY_HELP)
    p.add_argument("--size", default="16MiB", help="all-reduce data size")
    p.add_argument("--flow-control", choices=("packet", "message"), default="packet")
    p.add_argument("--no-lockstep", action="store_true", help="disable step gates")
    p.add_argument("--output", default=None, help="trace JSON path")
    p.add_argument("--top", type=int, default=8, help="hotspot links to report")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "scenario",
        help="inspect scenario descriptors: canonical form, fingerprint, "
             "resolution",
    )
    p.add_argument("specs", nargs="+", metavar="SPEC", help=SCENARIO_HELP)
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser(
        "status",
        help="live text view of a flushed obs span stream (--obs PATH)",
    )
    p.add_argument("stream", help="obs JSONL stream written by --obs")
    p.add_argument(
        "--follow", action="store_true",
        help="re-read and re-render on an interval (watch a live run)",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period with --follow (default 2.0)",
    )
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser(
        "obs",
        help="span-stream tools: explain / export / validate / overhead",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    q = obs_sub.add_parser(
        "explain",
        help="per-trace span waterfalls with engine fallback reasons",
    )
    q.add_argument("stream", help="obs JSONL stream written by --obs")
    q.add_argument(
        "--trace", default=None, metavar="ID",
        help="render only this trace id",
    )
    q.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="render at most N traces (default: all)",
    )
    q.set_defaults(func=_cmd_obs)
    q = obs_sub.add_parser(
        "export", help="export the span stream as Perfetto-loadable JSON"
    )
    q.add_argument("stream", help="obs JSONL stream written by --obs")
    q.add_argument(
        "--output", default=None, metavar="PATH",
        help="output path (default STREAM.perfetto.json)",
    )
    q.set_defaults(func=_cmd_obs)
    q = obs_sub.add_parser(
        "validate",
        help="validate span streams against the obs record schema",
    )
    q.add_argument("streams", nargs="+", help="obs JSONL streams to check")
    q.set_defaults(func=_cmd_obs)
    q = obs_sub.add_parser(
        "overhead",
        help="measure obs-on vs obs-off wall time on the quick workload",
    )
    q.add_argument(
        "--repeat", type=int, default=5, help="off/on pairs (default 5)"
    )
    q.add_argument(
        "--max-overhead", type=float, default=0.03, metavar="FRACTION",
        help="exit non-zero above this fractional overhead (default 0.03)",
    )
    q.add_argument("--json", action="store_true", help="JSON output")
    q.set_defaults(func=_cmd_obs)

    p = sub.add_parser("table1", help="measured Table I")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("list", help="available topologies/algorithms/models")
    p.set_defaults(func=_cmd_list)
    return parser


def _manifest_labels(args: argparse.Namespace) -> dict:
    """Topology/algorithm/size-style labels harvested from the parsed args."""
    skip = {"func", "command", "manifest", "obs", "files"}
    labels = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or key.startswith("_") or value is None or callable(value):
            continue
        if key == "scenario" and isinstance(value, list):
            value = ";".join(value)
        labels[key] = str(value)
    return labels


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args, argv)
    except (OSError, ValueError) as error:
        # The one input-error boundary: bad outside input exits 1 with
        # its message, never a traceback (``repro serve`` answers 400).
        raise SystemExit(str(error))


def _run(args: argparse.Namespace, argv: Optional[Sequence[str]]) -> int:
    if not args.manifest and not args.obs:
        return args.func(args)
    from contextlib import ExitStack

    registry = None
    start = time.perf_counter()
    with ExitStack() as stack:
        if args.manifest:
            registry = stack.enter_context(collecting())
        if args.obs:
            stack.enter_context(_obs.observing(stream_path=args.obs))
            stack.enter_context(_obs.span("cli", command=args.command))
        rc = args.func(args)
    wall = time.perf_counter() - start
    if args.manifest:
        record = build_manifest(
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            labels=_manifest_labels(args),
            wall_time_s=wall,
            registry=registry,
            scenarios=getattr(args, "_scenarios", None),
            obs_stream=args.obs,
        )
        append_manifest(args.manifest, record)
        print("appended run %s to %s" % (record["run_id"], args.manifest))
    if args.obs:
        print("wrote obs span stream to %s" % args.obs)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
