"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.io import read_edge_list


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    code = main([
        "generate", "--dataset", "lastfm", "--nodes", "120",
        "--seed", "1", "--output", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture()
def index_file(tmp_path, graph_file):
    path = tmp_path / "idx.json"
    code = main([
        "build-index", "--graph", str(graph_file),
        "--output", str(path), "--seed", "0",
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--dataset", "nope", "--output", "x"]
            )

    def test_sources_parsing(self):
        args = build_parser().parse_args(
            ["query", "--graph", "g", "--sources", "1,2,3", "--eta", "0.5"]
        )
        assert args.sources == [1, 2, 3]

    def test_bad_sources_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--graph", "g", "--sources", "a,b", "--eta", "0.5"]
            )


class TestGenerate:
    def test_writes_valid_edge_list(self, graph_file):
        graph = read_edge_list(graph_file)
        assert graph.num_nodes == 120
        assert graph.num_arcs > 0

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            main([
                "generate", "--dataset", "nethept", "--nodes", "64",
                "--seed", "7", "--output", str(out),
            ])
        assert a.read_text() == b.read_text()


class TestBuildIndex:
    def test_writes_loadable_index(self, index_file):
        document = json.loads(index_file.read_text())
        assert document["format"] == "repro-rqtree"

    def test_build_prints_report(self, tmp_path, graph_file, capsys):
        out = tmp_path / "idx2.json"
        capsys.readouterr()  # drain fixture output
        code = main([
            "build-index", "--graph", str(graph_file), "--output", str(out)
        ])
        assert code == 0
        assert "# clusters" in capsys.readouterr().out

    def test_branching_option(self, tmp_path, graph_file):
        out = tmp_path / "idx4.json"
        code = main([
            "build-index", "--graph", str(graph_file),
            "--output", str(out), "--branching", "4",
        ])
        assert code == 0


class TestStats:
    def test_graph_only(self, graph_file, capsys):
        assert main(["stats", "--graph", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "arcs" in out

    def test_with_index(self, graph_file, index_file, capsys):
        code = main([
            "stats", "--graph", str(graph_file), "--index", str(index_file)
        ])
        assert code == 0
        assert "index height" in capsys.readouterr().out


class TestQuery:
    def test_query_with_prebuilt_index(self, graph_file, index_file, capsys):
        code = main([
            "query", "--graph", str(graph_file), "--index", str(index_file),
            "--sources", "3", "--eta", "0.4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "answer size" in out
        assert "nodes:" in out

    def test_query_builds_index_on_the_fly(self, graph_file, capsys):
        code = main([
            "query", "--graph", str(graph_file),
            "--sources", "3", "--eta", "0.4",
        ])
        assert code == 0

    def test_query_mc_method(self, graph_file, index_file):
        code = main([
            "query", "--graph", str(graph_file), "--index", str(index_file),
            "--sources", "3", "--eta", "0.4",
            "--method", "mc", "--samples", "100", "--seed", "0",
        ])
        assert code == 0

    def test_query_max_hops(self, graph_file, index_file, capsys):
        code = main([
            "query", "--graph", str(graph_file), "--index", str(index_file),
            "--sources", "3", "--eta", "0.4", "--max-hops", "1",
        ])
        assert code == 0

    def test_multi_source_exact_mode(self, graph_file, index_file):
        code = main([
            "query", "--graph", str(graph_file), "--index", str(index_file),
            "--sources", "3,40", "--eta", "0.4",
            "--multi-source-mode", "exact",
        ])
        assert code == 0


class TestTopK:
    def test_ranked_output(self, graph_file, index_file, capsys):
        code = main([
            "top-k", "--graph", str(graph_file), "--index", str(index_file),
            "--sources", "3", "-k", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rank" in out


class TestDetect:
    def test_bracket_output(self, graph_file, index_file, capsys):
        code = main([
            "detect", "--graph", str(graph_file), "--index", str(index_file),
            "--source", "3", "--target", "4",
            "--tolerance", "0.2", "--samples", "200", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "point estimate" in out


class TestTransform:
    def test_scale(self, tmp_path, graph_file):
        out = tmp_path / "scaled.txt"
        code = main([
            "transform", "--graph", str(graph_file),
            "--scale", "0.5", "--output", str(out),
        ])
        assert code == 0
        original = read_edge_list(graph_file)
        scaled = read_edge_list(out)
        for u, v, p in original.arcs():
            assert scaled.probability(u, v) == pytest.approx(p * 0.5)

    def test_backbone_drops_weak_arcs(self, tmp_path, graph_file):
        out = tmp_path / "bb.txt"
        code = main([
            "transform", "--graph", str(graph_file),
            "--backbone", "0.4", "--output", str(out),
        ])
        assert code == 0
        backbone = read_edge_list(out)
        assert all(p >= 0.4 for _, _, p in backbone.arcs())

    def test_power(self, tmp_path, graph_file):
        out = tmp_path / "pow.txt"
        assert main([
            "transform", "--graph", str(graph_file),
            "--power", "2.0", "--output", str(out),
        ]) == 0

    def test_exactly_one_option_required(self, tmp_path, graph_file):
        out = tmp_path / "x.txt"
        assert main([
            "transform", "--graph", str(graph_file), "--output", str(out),
        ]) == 2
        assert main([
            "transform", "--graph", str(graph_file), "--output", str(out),
            "--scale", "0.5", "--power", "2.0",
        ]) == 2


class TestServeSetup:
    def test_sharded_serve_builds_no_whole_graph_index(
        self, graph_file, monkeypatch
    ):
        import repro.core.engine as engine_module
        from repro.cli import _build_service

        built = []
        original = engine_module.build_rqtree

        def recording_build(graph, *args, **kwargs):
            built.append(graph.num_nodes)
            return original(graph, *args, **kwargs)

        monkeypatch.setattr(engine_module, "build_rqtree", recording_build)
        num_nodes = read_edge_list(graph_file).num_nodes
        args = build_parser().parse_args([
            "serve", "--graph", str(graph_file), "--workers", "1",
            "--shards", "2", "--shard-mode", "inline",
        ])
        service = _build_service(args)
        try:
            assert service.engine.num_shards == 2
            assert service.engine.graph.num_nodes == num_nodes
        finally:
            service.stop()
        # Only the two shard-local indexes were built.
        assert len(built) == 2
        assert all(n < num_nodes for n in built)

        built.clear()
        args = build_parser().parse_args([
            "serve", "--graph", str(graph_file), "--workers", "1",
        ])
        service = _build_service(args)
        service.stop()
        assert built == [num_nodes]  # unsharded: the whole-graph index
