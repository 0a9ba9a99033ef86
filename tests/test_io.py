"""Unit tests for graph serialization."""

from __future__ import annotations

import pytest

from repro import UncertainGraph
from repro.errors import GraphError
from repro.graph.generators import uncertain_gnp
from repro.graph.io import (
    graph_from_json,
    graph_to_json,
    load_graph_json,
    read_edge_list,
    save_graph_json,
    write_edge_list,
)


def _assert_graphs_equal(a: UncertainGraph, b: UncertainGraph) -> None:
    assert a.num_nodes == b.num_nodes
    assert sorted(a.arcs()) == pytest.approx(sorted(b.arcs()))


class TestEdgeList:
    def test_round_trip(self, tmp_path, fig1_graph):
        path = tmp_path / "g.txt"
        write_edge_list(fig1_graph, path)
        _assert_graphs_equal(fig1_graph, read_edge_list(path))

    def test_round_trip_preserves_isolated_nodes(self, tmp_path):
        g = UncertainGraph(10)
        g.add_arc(0, 1, 0.5)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).num_nodes == 10

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1 0.5\n# trailing\n")
        g = read_edge_list(path)
        assert g.num_arcs == 1

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5\n0 1\n")
        with pytest.raises(GraphError, match=":2"):
            read_edge_list(path)

    def test_non_numeric_fields_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b 0.5\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("%% nodes many\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_probability_precision_survives(self, tmp_path):
        g = UncertainGraph(2)
        g.add_arc(0, 1, 0.123456789012)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).probability(0, 1) == pytest.approx(
            0.123456789012, rel=1e-10
        )


class TestJson:
    def test_round_trip(self, fig1_graph):
        _assert_graphs_equal(
            fig1_graph, graph_from_json(graph_to_json(fig1_graph))
        )

    def test_file_round_trip(self, tmp_path):
        g = uncertain_gnp(15, 0.3, seed=8)
        path = tmp_path / "g.json"
        save_graph_json(g, path)
        _assert_graphs_equal(g, load_graph_json(path))

    def test_unknown_format_rejected(self):
        with pytest.raises(GraphError):
            graph_from_json({"format": "something-else"})

    def test_document_structure(self, fig1_graph):
        doc = graph_to_json(fig1_graph)
        assert doc["format"] == "repro-uncertain-graph"
        assert doc["num_nodes"] == 5
        assert len(doc["arcs"]) == 8


class TestGzipIO:
    def test_edge_list_gz_round_trip(self, tmp_path):
        graph = uncertain_gnp(15, 0.3, seed=2)
        path = tmp_path / "g.txt.gz"
        write_edge_list(graph, path)
        restored = read_edge_list(path)
        originals = sorted(graph.arcs())
        round_tripped = sorted(restored.arcs())
        assert len(round_tripped) == len(originals)
        for (u1, v1, p1), (u2, v2, p2) in zip(originals, round_tripped):
            assert (u1, v1) == (u2, v2)
            assert p2 == pytest.approx(p1, rel=1e-9)
        # The file really is gzip (magic bytes).
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_json_gz_round_trip(self, tmp_path):
        graph = uncertain_gnp(15, 0.3, seed=3)
        path = tmp_path / "g.json.gz"
        save_graph_json(graph, path)
        restored = load_graph_json(path)
        assert restored.num_arcs == graph.num_arcs

    def test_plain_files_still_work(self, tmp_path):
        graph = uncertain_gnp(10, 0.3, seed=1)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        assert path.read_text().startswith("%%")
