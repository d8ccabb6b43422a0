"""Tests for the trace/observability subsystem (repro.trace)."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.collectives import build_schedule
from repro.network import Message, MessageBased, NetworkSimulator, PacketBased
from repro.ni import simulate_allreduce
from repro.runtime import Communicator
from repro.topology import Mesh2D, Torus2D
from repro.topology.specs import parse_topology_spec
from repro.trace import (
    COMPONENTS,
    Trace,
    extract_critical_path,
    format_hotspots,
    format_trace_report,
    link_hotspots,
    to_chrome_trace,
    utilization_heatmap,
    write_chrome_trace,
)
from repro.training import overlapped_iteration
from repro.compute import get_model

MiB = 1 << 20


def traced_allreduce(algorithm="multitree", topo=None, size=16 * MiB, **kwargs):
    schedule = build_schedule(algorithm, topo or Torus2D(4, 4))
    trace = Trace()
    result = simulate_allreduce(schedule, size, recorder=trace, **kwargs)
    return result, trace


class TestRecorder:
    def test_collects_all_event_families(self):
        result, trace = traced_allreduce()
        assert len(trace.messages) == len(result.schedule.ops)
        assert len(trace.hops) == sum(
            len(ev.route) for ev in trace.messages.values()
        )
        assert [g.step for g in trace.gates] == list(
            range(1, result.schedule.num_steps + 1)
        )
        assert trace.metadata["algorithm"] == "multitree"
        assert trace.metadata["data_bytes"] == float(16 * MiB)

    def test_message_events_carry_op_metadata(self):
        _, trace = traced_allreduce()
        kinds = {ev.op_kind for ev in trace.messages.values()}
        assert kinds == {"reduce", "gather"}
        assert all(ev.op_step >= 1 for ev in trace.messages.values())

    def test_hops_of_follows_route_order(self):
        _, trace = traced_allreduce()
        for index, ev in trace.messages.items():
            hops = trace.hops_of(index)
            assert [h.link for h in hops] == list(ev.route)
            assert all(h.grant >= h.arrive for h in hops)

    def test_finish_time_matches_simulation(self):
        result, trace = traced_allreduce()
        assert trace.finish_time == result.time

    def test_to_dict_round_trips_through_json(self):
        _, trace = traced_allreduce(topo=Mesh2D(2, 2), size=4096)
        data = json.loads(json.dumps(trace.to_dict()))
        assert data["finish_time"] == trace.finish_time
        assert len(data["messages"]) == len(trace.messages)
        assert len(data["hops"]) == len(trace.hops)
        assert len(data["step_gates"]) == len(trace.gates)


#: sha256 of ``json.dumps(trace.to_dict(), sort_keys=True)`` and of the
#: same dump of ``to_chrome_trace(trace)``: every recorded hop, message,
#: gate and export byte, frozen.  Covers channel pools (``rails=2``), an
#: ungated run with receive overhead, and message-based flow control.
TRACE_DIGESTS = [
    ("torus-4x8@rails=2:0.5", "ring", PacketBased(), {},
     "12929ccfb0c11d19654c131c1eada23bec25bb48fd921fdad6418fde9a2c2154",
     "b4c0249cd33838f7ba6abf1fdf29c0c2846f85e225fe501e523ee8db734431d9"),
    ("torus-4x4", "multitree", PacketBased(),
     {"lockstep": False, "scheduling_overhead": 1e-6},
     "1fc113476a54ed14c5346e04b08696b49d11dc97c522e1b0d89f40c6ce8bd82f",
     "b4c292189ae3c968867ee5abb8ca60a4d49fe7593daba2e261b867f887ac593f"),
    ("bigraph-4x8", "multitree", MessageBased(), {},
     "c8e8adb24d0cad3e38ca86053a7facbd198bc2bb1dc411f9ce42cf994958afaa",
     "7ea3cc5192f31315788b97611678c696c189955d36bccbac817ec1fc54604ae8"),
]


def _digest(data):
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestTraceDigests:
    @pytest.mark.parametrize(
        "spec,algorithm,fc,kwargs,trace_sha,chrome_sha", TRACE_DIGESTS,
        ids=[case[0] for case in TRACE_DIGESTS],
    )
    def test_recorded_trace_is_frozen(
        self, spec, algorithm, fc, kwargs, trace_sha, chrome_sha
    ):
        schedule = build_schedule(algorithm, parse_topology_spec(spec))
        trace = Trace()
        simulate_allreduce(schedule, 1 * MiB, fc, recorder=trace, **kwargs)
        assert _digest(trace.to_dict()) == trace_sha
        assert _digest(to_chrome_trace(trace)) == chrome_sha


class TestDisabledTracing:
    def test_recorder_none_is_bit_identical(self):
        schedule = build_schedule("multitree", Torus2D(4, 4))
        plain = simulate_allreduce(schedule, 16 * MiB)
        traced = simulate_allreduce(schedule, 16 * MiB, recorder=Trace())
        assert plain.simulation.finish_time == traced.simulation.finish_time
        assert plain.simulation.total_wire_bytes == traced.simulation.total_wire_bytes
        assert plain.simulation.link_busy == traced.simulation.link_busy
        for a, b in zip(plain.simulation.timings, traced.simulation.timings):
            assert (a.ready, a.inject, a.deliver, a.ideal_deliver) == (
                b.ready, b.inject, b.deliver, b.ideal_deliver
            )


class TestCriticalPath:
    @pytest.mark.parametrize("algorithm", ["multitree", "ring", "dbtree"])
    def test_components_sum_to_finish_time(self, algorithm):
        result, trace = traced_allreduce(algorithm)
        path = extract_critical_path(trace)
        assert path.finish_time == result.time
        assert path.total == pytest.approx(result.time, rel=1e-12)
        totals = path.component_totals()
        assert set(totals) == set(COMPONENTS)
        assert all(value >= 0 for value in totals.values())

    def test_chain_is_time_ordered_and_dependency_linked(self):
        _, trace = traced_allreduce()
        path = extract_critical_path(trace)
        for prev, nxt in zip(path.segments, path.segments[1:]):
            assert prev.message.index in nxt.message.deps
            assert nxt.anchor == prev.message.deliver
        assert path.segments[-1].message.deliver == path.finish_time

    def test_sw_overhead_component_appears(self):
        result, trace = traced_allreduce(scheduling_overhead=1e-6)
        path = extract_critical_path(trace)
        totals = path.component_totals()
        assert totals["sw_overhead"] > 0
        assert path.total == pytest.approx(result.time, rel=1e-12)

    def test_without_lockstep_no_stall_on_gates(self):
        result, trace = traced_allreduce(algorithm="ring", lockstep=False)
        path = extract_critical_path(trace)
        assert not trace.gates
        assert path.total == pytest.approx(result.time, rel=1e-12)

    def test_empty_trace(self):
        path = extract_critical_path(Trace())
        assert path.segments == [] and path.total == 0.0

    def test_format_mentions_every_component(self):
        _, trace = traced_allreduce()
        text = extract_critical_path(trace).format()
        for name in COMPONENTS:
            assert name in text


class TestHotspots:
    def test_contended_link_ranks_first(self):
        # Three messages fight for one link; one runs free elsewhere.
        topo = Torus2D(4, 4)
        sim = NetworkSimulator(topo)
        trace = Trace()
        size = 64 * 1024
        sim.run(
            [
                Message(0, 1, size, route=[(0, 1)]),
                Message(0, 1, size, route=[(0, 1)]),
                Message(0, 1, size, route=[(0, 1)]),
                Message(2, 3, size, route=[(2, 3)]),
            ],
            recorder=trace,
        )
        spots = link_hotspots(trace)
        assert spots[0].link == (0, 1)
        assert spots[0].queue_wait > 0
        assert spots[0].grants == 3
        assert spots[0].delayed_grants == 2
        quiet = [s for s in spots if s.link == (2, 3)][0]
        assert quiet.queue_wait == 0.0
        assert "0->1" in format_hotspots(trace)

    def test_contention_free_run_reports_none(self):
        topo = Torus2D(4, 4)
        trace = Trace()
        NetworkSimulator(topo).run(
            [Message(0, 1, 1024, route=[(0, 1)])], recorder=trace
        )
        assert "none" in format_hotspots(trace)


class TestHeatmap:
    def test_rows_and_columns(self):
        _, trace = traced_allreduce(topo=Mesh2D(2, 2), size=1 * MiB)
        text = utilization_heatmap(trace, Mesh2D(2, 2))
        lines = text.splitlines()
        # 8 directed mesh links + header + column labels.
        assert len(lines) == 2 + 8
        assert "s1" in lines[1]
        assert any("0->1" in line for line in lines)

    def test_no_traffic(self):
        assert "no traffic" in utilization_heatmap(Trace())

    def test_equal_bins_without_gates(self):
        _, trace = traced_allreduce(
            algorithm="ring", topo=Mesh2D(2, 2), size=1 * MiB, lockstep=False
        )
        text = utilization_heatmap(trace)
        assert "time bin" in text


class TestChromeTraceExport:
    def test_structure(self):
        _, trace = traced_allreduce(topo=Mesh2D(2, 2), size=4096)
        doc = to_chrome_trace(trace)
        events = doc["traceEvents"]
        assert events
        phases = {ev["ph"] for ev in events}
        assert {"X", "b", "e", "M", "i"} <= phases
        for ev in events:
            assert "pid" in ev and "tid" in ev
            if ev["ph"] != "M":
                assert ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
        # Async begin/end pairs balance per id.
        begins = sorted(ev["id"] for ev in events if ev["ph"] == "b")
        ends = sorted(ev["id"] for ev in events if ev["ph"] == "e")
        assert begins == ends

    def test_write_chrome_trace(self, tmp_path):
        _, trace = traced_allreduce(topo=Mesh2D(2, 2), size=4096)
        path = tmp_path / "out.json"
        write_chrome_trace(trace, str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["algorithm"] == "multitree"


class TestCommunicatorTrace:
    def test_trace_matches_prediction_and_bypasses_cache(self):
        comm = Communicator(Torus2D(2, 2))
        timing = comm.predict(1 * MiB)
        result, trace = comm.trace(1 * MiB)
        assert result.time == timing.time
        assert trace.messages and trace.hops and trace.gates
        # A second trace records fresh events (no cache short-circuit).
        _, again = comm.trace(1 * MiB)
        assert again is not trace and len(again.messages) == len(trace.messages)

    def test_bad_bytes_rejected(self):
        with pytest.raises(ValueError):
            Communicator(Torus2D(2, 2)).trace(0)


class TestTrainingSpans:
    def test_overlapped_iteration_emits_compute_and_comm_spans(self):
        model = get_model("AlexNet")
        schedule = build_schedule("multitree", Torus2D(4, 4))
        trace = Trace()
        breakdown = overlapped_iteration(model, schedule, recorder=trace)
        compute = [s for s in trace.spans if s.track == "compute"]
        comm = [s for s in trace.spans if s.track == "comm"]
        # forward + one span per backward layer.
        assert len(compute) == 1 + len(model.layers)
        assert len(comm) == len(model.weighted_layers())
        assert sum(s.duration for s in comm) == pytest.approx(
            breakdown.allreduce_time
        )
        assert max(s.end for s in trace.spans) == pytest.approx(
            breakdown.total_time
        )
        assert trace.metadata["execution"] == "overlapped"
        # Spans show up in the combined report and the Perfetto export.
        assert "phase spans" in format_trace_report(trace)
        doc = to_chrome_trace(trace)
        assert any(ev.get("cat") == "comm" for ev in doc["traceEvents"])


class TestTraceCLI:
    def test_acceptance_command(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            [
                "trace",
                "--algorithm", "multitree",
                "--topology", "torus-4x4",
                "--size", "16MiB",
                "--output", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        printed = capsys.readouterr().out
        assert "critical path" in printed
        assert "lockstep_stall" in printed
        assert "perfetto" in printed.lower()

    def test_dims_form_and_message_flow_control(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            [
                "trace", "--algorithm", "ring", "--topology", "mesh",
                "--dims", "2x2", "--size", "64K", "--flow-control", "message",
                "--output", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["otherData"]["flow_control"] == "message"
        assert "critical path" in capsys.readouterr().out

    def test_bad_topology_spec(self):
        with pytest.raises(SystemExit):
            main(["trace", "--topology", "torus"])


class TestReport:
    def test_report_sections(self):
        result, trace = traced_allreduce(topo=Mesh2D(2, 2), size=1 * MiB)
        text = format_trace_report(trace, Mesh2D(2, 2))
        assert "critical path" in text
        assert "hotspots" in text
        assert "heatmap" in text or "link utilization" in text
        assert "%.3f" % (result.time * 1e6) in text
