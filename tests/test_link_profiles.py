"""Link profiles: heterogeneous fabrics as a first-class scenario axis.

Covers the profile layer end to end: mod-text parsing and canonical
spelling, per-family support declared in ``TOPOLOGY_BUILDERS``, the
uniform-spec bit-identity contract (no mods => exactly the historical
fabric, name, and fingerprint), structural-fingerprint distinctness for
profiled fabrics, the :class:`~repro.network.links.LinkTable` lazy
ndarray columns every engine gathers from, the engine exactness contract
(event == lockstep == lockstep-vec, ``==`` not approx) on at least two
heterogeneous profiles per topology family, scenario grammar round-trips
with ``@``-bearing topology specs, and the heterogeneity-aware energy
and utilization reporting.
"""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.collectives import build_schedule, compile_schedule
from repro.network import EnergyModel, PacketBased
from repro.network.energy import link_energy_scales
from repro.network.links import LinkTable, link_table
from repro.network.simulator import NetworkSimulator
from repro.ni.injector import build_messages, simulate_allreduce
from repro.scenario import Scenario
from repro.topology import Torus2D
from repro.topology.base import DEFAULT_BANDWIDTH, topology_fingerprint
from repro.topology.profile import LinkProfile, parse_link_mods
from repro.topology.specs import (
    TOPOLOGY_BUILDERS,
    canonical_topology_spec,
    link_profile_for,
    parse_topology_spec,
    topology_mods_help,
)

MiB = 1 << 20

#: Two heterogeneous profiles per topology family (satellite contract).
HETERO_SPECS = [
    "torus-4x4@rails=2:0.5",
    "torus-4x4@rails=3:0.25",
    "mesh-3x3@rails=2:0.5",
    "mesh-3x3@rails=2:0.25",
    "torus3d-2x2x2@rails=2:0.5",
    "torus3d-2x2x2@rails=4:0.125",
    "ring1d-6@rails=2:0.5",
    "ring1d-6@rails=2:0.25",
    "fattree-4x4@oversub=2",
    "fattree-4x4@oversub=4",
    "fattree3-2x2x2@oversub=2",
    "fattree3-2x2x2@oversub=2+uplink=0.25",
    "bigraph-2x4@oversub=2",
    "bigraph-2x4@oversub=8",
]


class TestParsing:
    def test_canonical_sorting_and_number_spelling(self):
        spec = canonical_topology_spec("fattree3-2x2x2@uplink=0.25+oversub=4.0")
        assert spec == "fattree3-2x2x2@oversub=4+uplink=0.25"

    def test_comma_and_plus_separators_equivalent(self):
        a = link_profile_for("fattree3", "oversub=2,uplink=0.5")
        b = link_profile_for("fattree3", "uplink=0.5+oversub=2")
        assert a == b

    def test_uniform_spec_is_untouched(self):
        assert canonical_topology_spec("torus-4x4") == "torus-4x4"
        assert canonical_topology_spec(" torus-4x4 ") == "torus-4x4"

    def test_unknown_mod_rejected(self):
        with pytest.raises(ValueError, match="unknown link mod"):
            link_profile_for("torus", "warp=9")

    def test_unsupported_mod_rejected_with_supported_list(self):
        with pytest.raises(ValueError, match="not supported.*rails"):
            link_profile_for("torus", "oversub=4")

    def test_duplicate_mod_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            link_profile_for("fattree", "oversub=2+oversub=4")

    def test_oversub_below_one_rejected(self):
        with pytest.raises(ValueError, match="oversub"):
            link_profile_for("fattree", "oversub=0.5")

    @pytest.mark.parametrize("family, mods", [
        ("fattree", "oversub=nan"),
        ("fattree", "oversub=inf"),
        ("bigraph", "oversub=nan"),
        ("bigraph", "oversub=inf"),
        ("fattree3", "oversub=Infinity"),
        ("fattree3", "uplink=nan"),
        ("fattree3", "uplink=inf"),
    ])
    def test_non_finite_mod_rejected(self, family, mods):
        # nan passes every range check and inf divides a bandwidth to 0.
        with pytest.raises(ValueError, match="finite"):
            link_profile_for(family, mods)

    @pytest.mark.parametrize("text", [
        "fattree-4x4@oversub=nan/ring/1MiB",
        "fattree-4x4@oversub=inf/ring/1MiB",
        "bigraph-4x8@oversub=nan/ring/1MiB",
        "fattree3-2x2x2@uplink=nan/ring/1MiB",
    ])
    def test_non_finite_mod_scenario_exits_cleanly(self, text):
        with pytest.raises(SystemExit, match="finite"):
            main(["sweep", "--scenario", text])

    def test_rails_grammar_rejected(self):
        with pytest.raises(ValueError, match="rails"):
            link_profile_for("torus", "rails=2")
        with pytest.raises(ValueError, match="rails"):
            link_profile_for("torus", "rails=0:0.5")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            canonical_topology_spec("hypercube-4x4@oversub=2")

    def test_profile_order_independent_equality(self):
        fam = TOPOLOGY_BUILDERS["fattree3"].mods
        a = parse_link_mods("fattree3", "oversub=2+uplink=0.5", fam)
        b = parse_link_mods("fattree3", "uplink=0.5,oversub=2", fam)
        assert a == b and hash(a) == hash(b)
        assert a.suffix() == "@oversub=2+uplink=0.5"
        assert not LinkProfile("fattree3")
        assert LinkProfile("fattree3").suffix() == ""

    def test_every_family_advertises_its_mods(self):
        help_text = topology_mods_help()
        for kind, family in TOPOLOGY_BUILDERS.items():
            if family.mods:
                assert kind in help_text


class TestTopologyConstruction:
    def test_uniform_spec_builds_identical_links(self):
        profiled_path = parse_topology_spec("torus-4x4")
        direct = Torus2D(4, 4)
        assert profiled_path.name == direct.name
        assert profiled_path.links == direct.links
        assert profiled_path.link_profile is None
        assert topology_fingerprint(profiled_path) == topology_fingerprint(direct)

    @pytest.mark.parametrize("spec", HETERO_SPECS)
    def test_profiled_name_and_fingerprint_distinct(self, spec):
        topo = parse_topology_spec(spec)
        uniform = parse_topology_spec(spec.partition("@")[0])
        assert topo.name.endswith("@" + spec.partition("@")[2])
        assert topo.link_profile is not None
        assert topology_fingerprint(topo) != topology_fingerprint(uniform)

    @pytest.mark.parametrize("spec", ["torus-4x4", *HETERO_SPECS])
    def test_spec_fingerprint_shared_across_parses(self, spec, monkeypatch):
        """Every instance parsed from one spec reuses the first one's
        digest, and that digest is the one the links give."""
        from repro.topology import base

        monkeypatch.setattr(base, "_SPEC_FINGERPRINTS", {})
        first = topology_fingerprint(parse_topology_spec(spec))
        again = parse_topology_spec(spec)
        assert base._SPEC_FINGERPRINTS == {again._spec_key: first}
        assert topology_fingerprint(again) == first
        monkeypatch.setattr(base, "_SPEC_FINGERPRINTS", {})
        del again.__dict__["_fingerprint_cache"]
        assert topology_fingerprint(again) == first

    def test_oversub_thins_the_upper_tier(self):
        topo = parse_topology_spec("fattree-4x4@oversub=4")
        bandwidths = sorted({s.bandwidth for s in topo.links.values()})
        assert bandwidths == [DEFAULT_BANDWIDTH / 4, DEFAULT_BANDWIDTH]

    def test_uplink_scales_core_tier_only(self):
        topo = parse_topology_spec("fattree3-2x2x2@uplink=0.25")
        bandwidths = sorted({s.bandwidth for s in topo.links.values()})
        assert bandwidths == [DEFAULT_BANDWIDTH / 4, DEFAULT_BANDWIDTH]

    def test_rails_adds_capacity_and_thins_cross_dims(self):
        topo = parse_topology_spec("torus-4x4@rails=2:0.5")
        capacities = {s.capacity for s in topo.links.values()}
        bandwidths = sorted({s.bandwidth for s in topo.links.values()})
        assert 2 in capacities
        assert bandwidths == [DEFAULT_BANDWIDTH / 2, DEFAULT_BANDWIDTH]


class TestLinkTable:
    def test_columns_match_specs(self):
        topo = parse_topology_spec("fattree-4x4@oversub=4")
        table = link_table(topo)
        for key, spec in topo.links.items():
            li = table.id_of[key]
            assert table.bandwidth[li] == spec.bandwidth
            assert table.latency[li] == spec.latency
            assert table.capacity[li] == spec.capacity

    def test_arrays_are_lazy_then_memoized(self):
        table = LinkTable(parse_topology_spec("torus-4x4@rails=2:0.5"))
        assert table._arrays is None
        bw, lat, cap = table.arrays()
        assert table._arrays is not None
        assert table.arrays()[0] is bw  # memoized, not rebuilt

    def test_arrays_bit_identical_to_columns(self):
        import numpy as np

        table = link_table(parse_topology_spec("fattree3-2x2x2@oversub=2"))
        bw, lat, cap = table.arrays()
        assert bw.dtype == np.float64 and lat.dtype == np.float64
        assert cap.dtype == np.int64
        assert list(bw) == table.bandwidth
        assert list(lat) == table.latency
        assert list(cap) == table.capacity

    def test_table_memoized_on_topology(self):
        topo = parse_topology_spec("ring1d-6@rails=2:0.5")
        assert link_table(topo) is link_table(topo)


class TestEngineExactness:
    """event == lockstep == lockstep-vec, exactly, on profiled fabrics."""

    @pytest.mark.parametrize("spec", HETERO_SPECS)
    def test_three_engines_exactly_equal(self, spec):
        scenario = Scenario(
            topology=spec, algorithm="multitree", data_bytes=1 * MiB,
        )
        resolved = scenario.resolve()
        topo = scenario.build_topology()
        fc = resolved.flow_control
        schedule = build_schedule(resolved.builder, topo)
        messages = build_messages(schedule, scenario.data_bytes, fc)
        ref = NetworkSimulator(topo, fc).run(messages)
        compiled = compile_schedule(schedule)
        for engine in ("lockstep", "lockstep-vec"):
            fast = compiled.simulate(
                scenario.data_bytes, fc, engine=engine
            ).simulation
            assert fast.finish_time == ref.finish_time, (spec, engine)
            assert fast.timings == ref.timings, (spec, engine)
            assert fast.link_busy == ref.link_busy, (spec, engine)

    def test_acceptance_fattree_8x8_oversub4(self):
        scenario = Scenario(
            topology="fattree-8x8@oversub=4", algorithm="multitree",
            data_bytes=4 * MiB,
        )
        resolved = scenario.resolve()
        topo = scenario.build_topology()
        fc = resolved.flow_control
        schedule = build_schedule(resolved.builder, topo)
        messages = build_messages(schedule, scenario.data_bytes, fc)
        ref = NetworkSimulator(topo, fc).run(messages)
        compiled = compile_schedule(schedule)
        results = {
            engine: compiled.simulate(
                scenario.data_bytes, fc, engine=engine
            ).simulation
            for engine in ("lockstep", "lockstep-vec")
        }
        for engine, fast in results.items():
            assert fast.finish_time == ref.finish_time
            assert fast.timings == ref.timings
            assert fast.link_busy == ref.link_busy

    def test_oversub_slows_the_collective(self):
        times = {}
        for spec in ("fattree-4x4", "fattree-4x4@oversub=4"):
            scenario = Scenario(
                topology=spec, algorithm="multitree", data_bytes=1 * MiB,
            )
            resolved = scenario.resolve()
            topo = scenario.build_topology()
            schedule = build_schedule(resolved.builder, topo)
            messages = build_messages(
                schedule, scenario.data_bytes, resolved.flow_control
            )
            times[spec] = NetworkSimulator(
                topo, resolved.flow_control
            ).run(messages).finish_time
        assert times["fattree-4x4@oversub=4"] > times["fattree-4x4"]

    def test_batch_fallbacks_are_reasoned(self):
        """Multi-channel (rails) fabrics may decline the batched range
        plan, but only with a reasoned per-point fallback to the scalar
        lockstep engine — never silently."""
        topo = parse_topology_spec("torus-4x4@rails=2:0.5")
        fc = Scenario(
            topology="torus-4x4@rails=2:0.5", algorithm="multitree",
            data_bytes=1 * MiB,
        ).resolve().flow_control
        compiled = compile_schedule(build_schedule("multitree", topo))
        batch = compiled.simulate_batch((512 * 1024, 1 * MiB), fc)
        for point in batch.points:
            if point.engine != "lockstep-vec":
                assert point.engine == "lockstep"
                assert point.reason  # reasoned, not silent


class TestScenarioIntegration:
    def test_parse_with_topology_and_scenario_mods(self):
        s = Scenario.parse("fattree-8x8@oversub=4/multitree/16MiB@lockstep")
        assert s.topology == "fattree-8x8@oversub=4"
        assert s.engine == "lockstep"
        assert Scenario.parse(str(s)) == s
        assert Scenario.parse(s.label_form()) == s
        assert Scenario.from_dict(s.to_dict()) == s

    def test_topology_spelling_canonicalizes(self):
        a = Scenario(
            topology="fattree-8x8@oversub=4.0", algorithm="ring",
            data_bytes=1 * MiB,
        )
        b = Scenario(
            topology="fattree-8x8@oversub=4", algorithm="ring",
            data_bytes=1 * MiB,
        )
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_profiled_fingerprint_differs_from_uniform(self):
        prof = Scenario.parse("fattree-4x4@oversub=4/ring/1MiB")
        uni = Scenario.parse("fattree-4x4/ring/1MiB")
        assert prof.fingerprint() != uni.fingerprint()
        assert prof.artifact_key() != uni.artifact_key()

    def test_unknown_link_mod_fails_at_parse(self):
        with pytest.raises(ValueError, match="link mod"):
            Scenario.parse("torus-4x4@oversub=4/ring/1MiB")

    def test_slug_stays_filesystem_safe(self):
        s = Scenario.parse("torus-4x4@rails=2:0.5/ring/1MiB@message")
        assert not set(s.slug()) & set("/@,+=:")


class TestHeterogeneousReporting:
    def test_energy_uniform_fabric_bit_identical(self):
        topo = parse_topology_spec("fattree-4x4")
        schedule = build_schedule("multitree", topo)
        model = EnergyModel()
        plain = model.schedule_energy_pj(schedule, 1 * MiB, PacketBased())
        aware = model.schedule_energy_pj(schedule, 1 * MiB, PacketBased(), topo)
        assert plain == aware

    def test_energy_scales_with_bandwidth_class(self):
        topo = parse_topology_spec("fattree-4x4@oversub=4")
        schedule = build_schedule("multitree", topo)
        model = EnergyModel()
        plain = model.schedule_energy_pj(schedule, 1 * MiB, PacketBased())
        aware = model.schedule_energy_pj(schedule, 1 * MiB, PacketBased(), topo)
        # Quarter-rate uplinks drive fewer lanes => less wire energy.
        assert aware < plain

    def test_link_energy_scales_per_hop(self):
        topo = parse_topology_spec("fattree-4x4@oversub=4")
        thin = [
            key for key, spec in topo.links.items()
            if spec.bandwidth < DEFAULT_BANDWIDTH
        ]
        scales = link_energy_scales(topo, thin[:2])
        assert scales == [0.25, 0.25]

    def test_message_energy_rejects_scale_hop_mismatch(self):
        with pytest.raises(ValueError, match="hops"):
            EnergyModel().message_energy_pj(
                1024, 3, PacketBased(), link_scales=[0.5]
            )

    def test_mean_utilization_uniform_path_unchanged(self):
        scenario = Scenario.parse("torus-4x4/multitree/1MiB")
        resolved = scenario.resolve()
        topo = scenario.build_topology()
        schedule = build_schedule(resolved.builder, topo)
        messages = build_messages(
            schedule, scenario.data_bytes, resolved.flow_control
        )
        result = NetworkSimulator(topo, resolved.flow_control).run(messages)
        busy = sum(result.link_busy.get(key, 0.0) for key in topo.links)
        expected = busy / (result.finish_time * topo.total_link_capacity())
        assert result.mean_link_utilization(topo) == expected

    @pytest.mark.parametrize("spec,variant", [
        ("torus-8x8", "multitree"),
        ("mesh-8x8", "multitree"),
        ("bigraph-4x8", "hdrm"),
    ])
    def test_mean_utilization_equal_across_engines(self, spec, variant):
        """The uniform-bandwidth mean sums busy time in topology link
        order, so it does not depend on the order an engine filled
        ``link_busy`` in: the Message path and every compiled engine
        report the same float."""
        resolved = Scenario(spec, variant, 32 * 1024).resolve()
        topo = parse_topology_spec(spec)
        fc = resolved.flow_control
        schedule = build_schedule(resolved.builder, topo)
        compiled = compile_schedule(schedule)
        for size in (32 * 1024, 1 * MiB):
            message_path = simulate_allreduce(schedule, size, fc).simulation
            means = {
                engine: compiled.simulate(
                    size, fc, engine=engine
                ).simulation.mean_link_utilization(topo)
                for engine in ("event", "lockstep", "lockstep-vec")
            }
            means["messages"] = message_path.mean_link_utilization(topo)
            reordered = replace(message_path, link_busy=dict(
                reversed(list(message_path.link_busy.items()))
            ))
            means["reordered"] = reordered.mean_link_utilization(topo)
            assert len(set(means.values())) == 1, (spec, size, means)

    def test_mean_utilization_weights_by_bandwidth(self):
        scenario = Scenario.parse("fattree-4x4@oversub=4/multitree/1MiB")
        resolved = scenario.resolve()
        topo = scenario.build_topology()
        schedule = build_schedule(resolved.builder, topo)
        messages = build_messages(
            schedule, scenario.data_bytes, resolved.flow_control
        )
        result = NetworkSimulator(topo, resolved.flow_control).run(messages)
        unweighted = sum(result.link_busy.values()) / (
            result.finish_time * topo.total_link_capacity()
        )
        weighted = result.mean_link_utilization(topo)
        assert 0.0 < weighted <= 1.0
        assert weighted != unweighted

    def test_saturated_links_read_full_regardless_of_rate(self):
        scenario = Scenario.parse("fattree-4x4@oversub=4/multitree/1MiB")
        resolved = scenario.resolve()
        topo = scenario.build_topology()
        schedule = build_schedule(resolved.builder, topo)
        messages = build_messages(
            schedule, scenario.data_bytes, resolved.flow_control
        )
        result = NetworkSimulator(topo, resolved.flow_control).run(messages)
        for fraction in result.link_utilization(topo).values():
            assert 0.0 <= fraction <= 1.0

    def test_heatmap_tags_bandwidth_classes(self):
        from repro.ni.injector import simulate_allreduce
        from repro.trace import Trace
        from repro.trace.hotspots import utilization_heatmap

        topo = parse_topology_spec("fattree-4x4@oversub=4")
        schedule = build_schedule("multitree", topo)
        trace = Trace()
        simulate_allreduce(schedule, 1 * MiB, recorder=trace)
        text = utilization_heatmap(trace, topo)
        assert " x0.25" in text

    def test_heatmap_uniform_fabric_untagged(self):
        from repro.ni.injector import simulate_allreduce
        from repro.trace import Trace
        from repro.trace.hotspots import utilization_heatmap

        topo = parse_topology_spec("fattree-4x4")
        schedule = build_schedule("multitree", topo)
        trace = Trace()
        simulate_allreduce(schedule, 1 * MiB, recorder=trace)
        assert " x" not in utilization_heatmap(trace, topo)
