"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import socket
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.obs import load_stream
from repro.scenario import parse_size
from repro.topology import BiGraph, FatTree, Mesh2D, Ring1D, Torus2D, Torus3D
from repro.topology.specs import parse_topology

SRC = os.path.dirname(os.path.dirname(repro.__file__))


class TestParsers:
    def test_parse_size_suffixes(self):
        assert parse_size("32K") == 32 * 1024
        assert parse_size("4M") == 4 << 20
        assert parse_size("1G") == 1 << 30
        assert parse_size("12345") == 12345
        assert parse_size("1.5M") == int(1.5 * (1 << 20))

    @pytest.mark.parametrize(
        "kind,dims,cls,nodes",
        [
            ("torus", "4x4", Torus2D, 16),
            ("mesh", "2x3", Mesh2D, 6),
            ("torus3d", "2x2x2", Torus3D, 8),
            ("ring1d", "7", Ring1D, 7),
            ("fattree", "4x4", FatTree, 16),
            ("bigraph", "2x4", BiGraph, 16),
        ],
    )
    def test_parse_topology(self, kind, dims, cls, nodes):
        topo = parse_topology(kind, dims)
        assert isinstance(topo, cls)
        assert topo.num_nodes == nodes

    def test_unknown_topology_exits(self):
        with pytest.raises(SystemExit, match="hypercube"):
            main(["trees", "--topology", "hypercube", "--dims", "4x4"])

    def test_bad_dims_exit(self):
        with pytest.raises(SystemExit):
            main(["trees", "--topology", "torus3d", "--dims", "4x4"])

    @pytest.mark.parametrize("scenario,message", [
        ("torus-4x4/hdrm/1MiB", "HDRM is dedicated to the BiGraph"),
        ("fattree-4x4/2d-ring/1MiB", "2D-Ring is dedicated to 2D Torus/Mesh"),
        ("torus-4x4/hierarchical/1MiB", "needs a switch-grouped topology"),
    ])
    def test_incompatible_fabric_exits_cleanly(self, scenario, message):
        # A variant that cannot run on the fabric is bad input: one
        # message through the ValueError boundary, not a traceback.
        with pytest.raises(SystemExit, match=message):
            main(["sweep", "--scenario", scenario])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "multitree" in out and "ResNet50" in out

    def test_sweep(self, capsys):
        assert main([
            "sweep", "--topology", "torus", "--dims", "2x2",
            "--algorithms", "ring,multitree-msg", "--sizes", "32K,256K",
        ]) == 0
        out = capsys.readouterr().out
        assert "torus-2x2" in out
        assert "multitree-msg" in out
        assert "32 KiB" in out

    def test_trees_with_tables(self, capsys):
        assert main([
            "trees", "--topology", "mesh", "--dims", "2x2", "--tables",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 trees built in 2 time steps" in out
        assert "Accelerator 0" in out
        assert "Reduce" in out

    @pytest.mark.parametrize("topology_args, name", [
        (["--topology", "fattree-4x4"], "fattree-16n"),
        (["--topology", "fattree-4x4@oversub=2"], "fattree-16n@oversub=2"),
        (["--topology", "fattree", "--dims", "4x4"], "fattree-16n"),
    ])
    def test_trees_topology_forms(self, capsys, topology_args, name):
        assert main(["trees", "--limit", "1"] + topology_args) == 0
        out = capsys.readouterr().out
        assert "%s: 16 trees built in 15 time steps" % name in out

    def test_trees_default_dims(self, capsys):
        assert main(["trees", "--limit", "1"]) == 0
        assert "mesh-2x2: 4 trees built" in capsys.readouterr().out

    @pytest.mark.parametrize("topology_args, name", [
        (["--topology", "fattree-4x4"], "fattree-16n"),
        (["--topology", "fattree-4x4@oversub=2"], "fattree-16n@oversub=2"),
        (["--topology", "fattree", "--dims", "4x4"], "fattree-16n"),
    ])
    def test_train_topology_forms(self, capsys, topology_args, name):
        assert main([
            "train", "--model", "NCF", "--algorithms", "multitree",
        ] + topology_args) == 0
        assert "NCF on %s (" % name in capsys.readouterr().out

    def test_train_nonoverlap(self, capsys):
        assert main([
            "train", "--model", "GoogLeNet", "--topology", "torus",
            "--dims", "2x2", "--algorithms", "ring,multitree",
        ]) == 0
        out = capsys.readouterr().out
        assert "GoogLeNet" in out and "comm share" in out

    def test_train_overlap(self, capsys):
        assert main([
            "train", "--model", "NCF", "--topology", "torus", "--dims", "2x2",
            "--algorithms", "multitree", "--overlap",
        ]) == 0
        out = capsys.readouterr().out
        assert "hidden" in out

    def test_unknown_model_exits(self):
        with pytest.raises(SystemExit, match="unknown model 'VGG'"):
            main(["train", "--model", "VGG", "--dims", "2x2"])

    def test_input_error_still_closes_the_obs_stream(self, tmp_path):
        stream = str(tmp_path / "obs.jsonl")
        with pytest.raises(SystemExit, match="unknown model 'VGG'"):
            main(["--obs", stream, "train", "--model", "VGG", "--dims", "2x2"])
        cli, = [r for r in load_stream(stream) if r["name"] == "cli"]
        assert cli["attrs"]["error"].startswith("ValueError: unknown model")


#: Malformed invocations: (argv, files to create, expected message).
#: ``{port}`` is a port held open by the test, so ``serve`` cannot bind.
MALFORMED = [
    pytest.param(
        ["train", "--model", "VGG", "--dims", "2x2"], {},
        "unknown model 'VGG'", id="train-unknown-model",
    ),
    pytest.param(
        ["trees", "--priority", "nope"], {},
        "unknown priority 'nope'", id="trees-unknown-priority",
    ),
    pytest.param(
        ["sweep", "--algorithms", "nope", "--dims", "2x2", "--sizes", "32K"],
        {}, "unknown algorithm variant 'nope'", id="sweep-unknown-algorithm",
    ),
    pytest.param(
        ["report", "missing.jsonl"], {},
        "No such file or directory: 'missing.jsonl'", id="report-missing-file",
    ),
    pytest.param(
        ["report", "bad.json"], {"bad.json": "{bad"},
        "Expecting property name", id="report-bad-json",
    ),
    pytest.param(
        ["obs", "validate", "garbage.jsonl"], {"garbage.jsonl": "garbage\n"},
        "garbage.jsonl:1: unparseable line", id="obs-validate-garbage",
    ),
    pytest.param(
        ["replay", "--trace", "trace.jsonl"],
        {"trace.jsonl": '{"scenario": 5}\n'},
        "bad trace record at trace.jsonl:1", id="replay-non-string-scenario",
    ),
    pytest.param(
        ["report", "--check", "--bench-baseline", "base.json", "empty.jsonl"],
        {
            "base.json": json.dumps({
                "schema": 5, "quick": True,
                "results": {"simulate": {"speedup": 2.0}},
            }),
            "empty.jsonl": "",
        },
        "bench.speedup[simulate] missing from current run",
        id="report-check-nothing-measured",
    ),
    pytest.param(
        ["serve", "--port", "{port}", "--state-dir", "state"], {},
        "Address already in use", id="serve-held-port",
    ),
    pytest.param(
        ["serve", "--port", "99999", "--state-dir", "state"], {},
        "port must be in 0-65535", id="serve-port-out-of-range",
    ),
]


@pytest.mark.parametrize("argv,files,message", MALFORMED)
def test_malformed_invocation_exits_cleanly(tmp_path, argv, files, message):
    """Bad outside input exits 1 with a message and no traceback."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        port = str(held.getsockname()[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro"]
            + [arg.replace("{port}", port) for arg in argv],
            cwd=str(tmp_path), env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=5,
        )
    assert proc.returncode == 1
    assert message in proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
