"""Tests for the scenario layer: one typed descriptor per experiment point.

Covers the canonical string grammar, dict/JSON round-trips (property-based
across the full topology x variant x engine grid), the resolved-identity
fingerprint that predictions, artifacts, and manifests share, the
algorithm-variant registry, and — critically — that the fingerprint schema
bump makes every old-format cache entry miss instead of serving stale
numbers.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.collectives import (
    AlgorithmVariant,
    build_schedule,
    get_variant,
    register_variant,
    resolve_variant,
    variant_names,
)
from repro.metrics import build_manifest
from repro.network.flowcontrol import MessageBased, PacketBased
from repro.scenario import (
    ENGINES,
    FINGERPRINT_SCHEMA_VERSION,
    Scenario,
    artifact_fingerprint,
    format_size,
    group_scenarios,
    parse_size,
    parse_sizes,
    point_key,
    scenario_set_fingerprint,
)
from repro.sweep import (
    PredictionCache,
    SweepJob,
    jobs_from_scenarios,
    run_job,
)
from repro.topology.base import topology_fingerprint

TOPOLOGIES = [
    "torus-2x2",
    "torus-3x3",
    "mesh-2x3",
    "torus3d-2x2x2",
    "ring1d-5",
    "fattree-4x4",
    "bigraph-2x4",
]

scenario_strategy = st.builds(
    Scenario,
    topology=st.sampled_from(TOPOLOGIES),
    algorithm=st.sampled_from(variant_names()),
    data_bytes=st.integers(min_value=1, max_value=1 << 40),
    flow_control=st.sampled_from([None, "packet", "message"]),
    lockstep=st.booleans(),
    engine=st.sampled_from(["event", "lockstep"]),
    # The grammar accepts only the flow-control framing fields, each a
    # positive integer (whether the resolved flow control reads them is a
    # resolve-time check).
    overrides=st.dictionaries(
        st.sampled_from(["flit_bytes", "data_packet_payload_bytes"]),
        st.integers(min_value=1, max_value=1 << 20),
        max_size=2,
    ),
)


class TestSizes:
    def test_parse_size_suffixes(self):
        assert parse_size("32K") == 32 * 1024
        assert parse_size("16MiB") == 16 << 20
        assert parse_size("1G") == 1 << 30
        assert parse_size("12345") == 12345

    def test_parse_size_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_size("lots")

    @pytest.mark.parametrize("text", ["1.5", "2.7", "1.0000001K", "0.1M"])
    def test_parse_size_rejects_partial_bytes(self, text):
        with pytest.raises(ValueError):
            parse_size(text)

    def test_parse_size_accepts_whole_byte_fractions(self):
        assert parse_size("1.5K") == 1536
        assert parse_size("0.5MiB") == 512 * 1024
        assert parse_size("2.0") == 2

    def test_format_size_prefers_exact_units(self):
        assert format_size(32 * 1024) == "32KiB"
        assert format_size(16 << 20) == "16MiB"
        assert format_size(1 << 30) == "1GiB"
        assert format_size(12345) == "12345"

    @given(st.integers(min_value=1, max_value=1 << 50))
    def test_format_parse_round_trip(self, data_bytes):
        assert parse_size(format_size(data_bytes)) == data_bytes

    def test_parse_sizes_comma_list(self):
        assert parse_sizes("32K,1M,16M") == (32 << 10, 1 << 20, 16 << 20)

    def test_parse_sizes_doubling_range(self):
        assert parse_sizes("32K..256K") == (
            32 << 10, 64 << 10, 128 << 10, 256 << 10,
        )
        # A non-power-of-two endpoint is included as the final bucket.
        assert parse_sizes("32K..96K") == (32 << 10, 64 << 10, 96 << 10)

    def test_parse_sizes_mixed_and_deduped(self):
        assert parse_sizes("16K, 32K..64K, 64K") == (
            16 << 10, 32 << 10, 64 << 10,
        )

    def test_parse_sizes_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_sizes("1M..32K")  # descending range
        with pytest.raises(ValueError):
            parse_sizes("")
        with pytest.raises(ValueError):
            parse_sizes("32K..lots")


class TestGrammar:
    def test_parse_minimal(self):
        s = Scenario.parse("torus-4x4/multitree-msg/16MiB")
        assert s.topology == "torus-4x4"
        assert s.algorithm == "multitree-msg"
        assert s.data_bytes == 16 << 20
        assert s.flow_control is None
        assert s.lockstep and s.engine == "event" and s.overrides == ()

    def test_parse_mods(self):
        s = Scenario.parse("mesh-2x3/ring/1MiB@message,free,lockstep,flit_bytes=32")
        assert s.flow_control == "message"
        assert not s.lockstep
        assert s.engine == "lockstep"
        assert s.overrides == (("flit_bytes", 32),)

    def test_plus_separator_equivalent(self):
        assert Scenario.parse("torus-4x4/ring/1MiB@message+free") == \
            Scenario.parse("torus-4x4/ring/1MiB@message,free")

    def test_canonical_omits_defaults(self):
        assert str(Scenario(topology="torus-4x4", algorithm="multitree",
                            data_bytes=1 << 20)) == "torus-4x4/multitree/1MiB"

    def test_label_form_has_no_commas(self):
        s = Scenario.parse("torus-4x4/ring/1MiB@message,free,lockstep")
        assert "," not in s.label_form()
        assert Scenario.parse(s.label_form()) == s

    def test_slug_is_filesystem_safe(self):
        s = Scenario.parse("torus-4x4/ring/1MiB@message,flit_bytes=32")
        assert not set(s.slug()) & set("/@,+=")

    @pytest.mark.parametrize("bad", [
        "torus-4x4/ring",                      # missing size
        "torus-4x4//1MiB",                     # empty algorithm
        "hypercube-4x4/ring/1MiB",             # unknown topology kind
        "torus/ring/1MiB",                     # missing dims
        "torus-4x/ring/1MiB",                  # empty dimension
        "torus-4x4x4/ring/1MiB",               # too many dims
        "mesh-4x4x2/ring/1MiB",                # too many dims
        "torus3d-4x4/ring/1MiB",               # too few dims
        "torus-4x4/warp/1MiB",                 # unknown variant
        "torus-4x4/ring/huge",                 # unparseable size
        "torus-4x4/ring/1MiB@wormhole",        # unknown mod
        "torus-4x4/ring/1MiB@warp_core=9",     # unknown override field
        # Overrides no prediction reads, and bad override values.
        "torus-4x4/ring/1MiB@link_bandwidth_bytes_per_s=32e9",
        "torus-4x4/ring/1MiB@link_latency_s=3e-07",
        "torus-4x4/ring/1MiB@router_clock_hz=2e9",
        "torus-4x4/ring/1MiB@flit_bytes=0",
        "torus-4x4/ring/1MiB@flit_bytes=-16",
        "torus-4x4/ring/1MiB@flit_bytes=abc",
        "torus-4x4/ring/1MiB@flit_bytes=16.0",
        "torus-4x4/ring/1MiB@data_packet_payload_bytes=0",
        "torus-4x4/ring/1MiB@data_packet_payload_bytes=-16",
        "torus-4x4/ring/1.5",                  # not a whole number of bytes
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Scenario.parse(bad)

    @pytest.mark.parametrize("text", [
        # Message-based flow control has no packet payload.
        "torus-4x4/ring/1MiB@message,data_packet_payload_bytes=128",
        "torus-4x4/multitree-msg/1MiB@data_packet_payload_bytes=128",
        # A payload of 100 bytes is not a whole number of 16-byte flits.
        "torus-4x4/ring/1MiB@data_packet_payload_bytes=100",
        "torus-4x4/ring/1MiB@flit_bytes=48",
    ])
    def test_resolve_rejects_overrides_the_flow_control_cannot_use(
            self, text):
        scenario = Scenario.parse(text)
        with pytest.raises(ValueError):
            scenario.resolve()
        with pytest.raises(ValueError):
            scenario.cache_key()

    def test_accepted_overrides_reach_the_flow_control(self):
        resolved = Scenario.parse(
            "torus-4x4/ring/1MiB@data_packet_payload_bytes=128,flit_bytes=32"
        ).resolve()
        assert resolved.flow_control == PacketBased(
            payload_bytes=128, flit_bytes=32
        )
        resolved = Scenario.parse("torus-4x4/ring/1MiB@message,flit_bytes=48")
        assert resolved.resolve().flow_control == MessageBased(flit_bytes=48)

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            Scenario(topology="torus-4x4", algorithm="ring", data_bytes=0)
        with pytest.raises(ValueError):
            Scenario(topology="torus-4x4", algorithm="ring", data_bytes=1,
                     engine="warp")
        with pytest.raises(ValueError):
            Scenario(topology="torus-4x4", algorithm="ring", data_bytes=1,
                     flow_control="wormhole")

    @settings(deadline=None)
    @given(scenario_strategy)
    def test_string_round_trip(self, scenario):
        assert Scenario.parse(str(scenario)) == scenario
        assert Scenario.parse(scenario.label_form()) == scenario

    @settings(deadline=None)
    @given(scenario_strategy)
    def test_dict_round_trip(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        # and through actual JSON, as manifests store it
        assert Scenario.from_dict(
            json.loads(json.dumps(scenario.to_dict()))
        ) == scenario


class TestRegistry:
    def test_builtin_variants_cover_every_builder(self):
        names = variant_names()
        assert "multitree" in names and "multitree-msg" in names
        assert "ring" in names

    def test_multitree_msg_resolution(self):
        builder, fc, label = resolve_variant("multitree-msg")
        assert builder == "multitree"
        assert fc == MessageBased()
        assert label == "multitree-msg"

    def test_identity_variant_defaults_to_packet(self):
        builder, fc, _label = resolve_variant("ring")
        assert builder == "ring"
        assert fc == PacketBased()

    def test_pinned_flow_control_rejects_contradiction(self):
        with pytest.raises(ValueError):
            get_variant("multitree-msg").flow_control_name("packet")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            get_variant("warp")

    def test_register_and_use_in_scenario(self):
        try:
            register_variant(AlgorithmVariant(
                name="ring-msg-test", builder="ring", flow_control="message",
            ))
            s = Scenario.parse("torus-2x2/ring-msg-test/1MiB")
            resolved = s.resolve()
            assert resolved.builder == "ring"
            assert resolved.flow_control == MessageBased()
            # resolved identity: same fingerprint as the explicit spelling
            assert s.fingerprint() == Scenario.parse(
                "torus-2x2/ring/1MiB@message"
            ).fingerprint()
        finally:
            from repro.collectives.variants import _VARIANTS
            _VARIANTS.pop("ring-msg-test", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_variant(AlgorithmVariant(name="multitree-msg",
                                              builder="multitree"))

    def test_unknown_builder_rejected(self):
        with pytest.raises(ValueError):
            register_variant(AlgorithmVariant(name="warp-test", builder="warp"))


class TestFingerprint:
    def test_variant_spellings_share_identity(self):
        named = Scenario.parse("torus-4x4/multitree-msg/1MiB")
        explicit = Scenario.parse("torus-4x4/multitree/1MiB@message")
        assert named.fingerprint() == explicit.fingerprint()
        assert named.cache_key() == explicit.cache_key()
        assert named.artifact_key() == explicit.artifact_key()

    @pytest.mark.parametrize("other", [
        "torus-2x2/multitree/1MiB",            # topology
        "torus-4x4/ring/1MiB",                 # algorithm
        "torus-4x4/multitree/2MiB",            # size
        "torus-4x4/multitree/1MiB@message",    # flow control
        "torus-4x4/multitree/1MiB@free",       # lockstep
        "torus-4x4/multitree/1MiB@flit_bytes=32",  # override
    ])
    def test_every_axis_changes_fingerprint(self, other):
        base = Scenario.parse("torus-4x4/multitree/1MiB")
        assert base.fingerprint() != Scenario.parse(other).fingerprint()

    def test_engine_shares_fingerprint(self):
        # The engine chooses what runs, not what the point is: every
        # engine returns == numbers, so all share one identity.
        base = Scenario.parse("torus-4x4/multitree/1MiB")
        for engine in ENGINES:
            other = Scenario.parse("torus-4x4/multitree/1MiB@" + engine)
            assert other.engine == engine
            assert other.fingerprint() == base.fingerprint()
            assert other.cache_key() == base.cache_key()

    def test_point_key_matches_cache_key(self):
        s = Scenario.parse("torus-2x2/multitree-msg/1MiB")
        topo = s.build_topology()
        assert point_key(
            topo, "multitree", MessageBased(), 1 << 20
        ) == s.cache_key(topo)

    def test_artifact_fingerprint_matches_scenario(self):
        s = Scenario.parse("torus-2x2/multitree-msg/1MiB")
        topo = s.build_topology()
        assert artifact_fingerprint(topo, "multitree") == s.artifact_key(topo)

    def test_point_key_embeds_schema_version(self):
        s = Scenario.parse("torus-2x2/ring/1MiB")
        assert s.cache_key().startswith("v%d|" % FINGERPRINT_SCHEMA_VERSION)

    def test_set_fingerprint_order_independent(self):
        a = Scenario.parse("torus-2x2/ring/1MiB")
        b = Scenario.parse("torus-2x2/multitree/1MiB")
        assert scenario_set_fingerprint([a, b]) == scenario_set_fingerprint([b, a])
        assert scenario_set_fingerprint([a]) == a.fingerprint()


class TestStaleCache:
    def test_old_schema_keys_are_not_reused(self, tmp_path):
        """A v2-format cache entry must miss under the v3 scheme.

        Seeds the cache with a poisoned prediction stored under the exact
        key format the previous schema produced; a sweep over the same
        physical point must re-simulate instead of serving the poison.
        """
        s = Scenario.parse("torus-2x2/multitree-msg/64KiB")
        topo = s.build_topology()
        fc = s.resolve().flow_control
        old_key = "v2|%s|%s|%s|%d|%s|%s" % (
            topology_fingerprint(topo), "multitree", repr(fc),
            64 * 1024, "lockstep", "event",
        )
        assert old_key != s.cache_key(topo)
        cache = PredictionCache(str(tmp_path / "cache.json"))
        cache.put(old_key, time=1.0, bandwidth=1e99, max_queue_delay=0.0)
        job = SweepJob.from_scenarios([s])
        sweep = run_job(job, cache=cache)
        assert sweep.points[0].bandwidth < 1e12  # physical, not poison
        assert cache.get(s.cache_key(topo))["bandwidth"] < 1e12

    def test_warm_v3_entry_is_served(self, tmp_path):
        s = Scenario.parse("torus-2x2/ring/64KiB")
        cache = PredictionCache(str(tmp_path / "cache.json"))
        job = SweepJob.from_scenarios([s])
        first = run_job(job, cache=cache)
        hits_before = cache.hits
        second = run_job(job, cache=cache)
        assert cache.hits > hits_before
        assert second.points[0].bandwidth == first.points[0].bandwidth


class TestSweepIntegration:
    def test_jobs_from_scenarios_groups_by_series(self):
        scenarios = [
            Scenario.parse("torus-2x2/ring/32KiB"),
            Scenario.parse("torus-2x2/ring/64KiB"),
            Scenario.parse("torus-2x2/multitree/32KiB"),
        ]
        jobs = jobs_from_scenarios(scenarios)
        assert len(jobs) == 2
        assert jobs[0].algorithm == "ring" and jobs[0].sizes == (32768, 65536)
        assert jobs[1].algorithm == "multitree"

    def test_group_scenarios_preserves_order(self):
        a = Scenario.parse("torus-2x2/ring/32KiB")
        b = Scenario.parse("torus-2x2/multitree/32KiB")
        c = Scenario.parse("torus-2x2/ring/64KiB")
        assert group_scenarios([a, b, c]) == [[a, c], [b]]

    def test_sweepjob_round_trips_through_scenarios(self):
        job = SweepJob(topology="torus-2x2", algorithm="multitree-msg",
                       sizes=(32768, 65536))
        assert SweepJob.from_scenarios(job.scenarios()) == job

    def test_mixed_axes_rejected(self):
        with pytest.raises(ValueError):
            SweepJob.from_scenarios([
                Scenario.parse("torus-2x2/ring/32KiB"),
                Scenario.parse("torus-4x4/ring/64KiB"),
            ])

    def test_resolved_schedule_matches_variant(self):
        s = Scenario.parse("mesh-2x2/multitree-msg/32KiB")
        resolved = s.resolve()
        schedule = build_schedule(resolved.builder, s.build_topology())
        assert schedule.algorithm == "multitree"


class TestManifestFingerprint:
    def test_manifest_uses_scenario_set_fingerprint(self):
        scenarios = [Scenario.parse("torus-4x4/multitree-msg/1MiB")]
        record = build_manifest(
            command="sweep", argv=["sweep"], labels={}, wall_time_s=0.1,
            scenarios=scenarios,
        )
        assert record["fingerprint"] == scenarios[0].fingerprint()
        assert record["scenarios"] == ["torus-4x4/multitree-msg/1MiB"]

    def test_manifest_without_scenarios_keeps_argv_digest(self):
        record = build_manifest(
            command="trees", argv=["trees"], labels={}, wall_time_s=0.1,
        )
        assert record["scenarios"] is None
        assert len(record["fingerprint"]) == 16


class TestCli:
    def test_scenario_subcommand(self, capsys):
        assert main(["scenario", "torus-4x4/multitree-msg/16MiB"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "builder=multitree" in out

    def test_scenario_subcommand_json(self, capsys):
        assert main(["scenario", "torus-4x4/multitree-msg/1MiB", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = Scenario.parse("torus-4x4/multitree-msg/1MiB")
        assert payload["fingerprint"] == expected.fingerprint()
        assert payload["canonical"] == str(expected)
        assert payload["resolved"]["builder"] == "multitree"

    def test_scenario_subcommand_rejects_garbage(self):
        with pytest.raises(SystemExit):
            main(["scenario", "torus-4x4/warp/1MiB"])

    def test_sweep_scenario_flag(self, capsys):
        assert main([
            "sweep", "--scenario", "torus-2x2/multitree-msg/32KiB",
            "--scenario", "torus-2x2/ring/32KiB",
        ]) == 0
        out = capsys.readouterr().out
        assert "torus-2x2" in out
        assert "multitree-msg" in out

    def test_trace_scenario_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "trace", "--scenario", "mesh-2x2/ring/32KiB", "--output",
            str(tmp_path / "t.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "simulated finish time" in out

    def test_list_enumerates_registered_variants(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "(+ multitree-msg)" not in out
        for name in variant_names():
            assert name in out
        assert "TOPOLOGY[@LINKMOD+...]/ALGORITHM/SIZE" in out
