"""Unit tests for the serving wire schemas (no sockets, no models)."""

import json

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.serve.schemas import (
    DEFAULT_TOP_K,
    MAX_GRAPHS_PER_REQUEST,
    MAX_VERTICES_PER_GRAPH,
    SchemaError,
    graph_from_payload,
    json_safe_label,
    parse_predict_request,
    parse_reload_request,
    prediction_payload,
)


def predict_body(graphs, **extra) -> bytes:
    return json.dumps({"graphs": graphs, **extra}).encode("utf-8")


TRIANGLE = {"num_vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}


class TestGraphFromPayload:
    def test_round_trips_a_graph(self):
        graph = graph_from_payload(
            {
                "num_vertices": 4,
                "edges": [[0, 1], [1, 2], [2, 3]],
                "vertex_labels": ["C", "C", "N", "O"],
            }
        )
        assert isinstance(graph, Graph)
        assert graph.num_vertices == 4
        assert graph.num_edges == 3
        assert graph.vertex_labels == ["C", "C", "N", "O"]

    def test_edges_default_to_empty(self):
        graph = graph_from_payload({"num_vertices": 2})
        assert graph.num_edges == 0

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match=r"graphs\[3\] must be a JSON object"):
            graph_from_payload([1, 2], index=3)

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown fields \\['nodes'\\]"):
            graph_from_payload({"num_vertices": 1, "nodes": []})

    @pytest.mark.parametrize("bad", ["3", 2.0, True, None])
    def test_non_integer_num_vertices_rejected(self, bad):
        with pytest.raises(SchemaError, match="num_vertices must be an integer"):
            graph_from_payload({"num_vertices": bad})

    def test_negative_num_vertices_rejected(self):
        with pytest.raises(SchemaError, match="non-negative"):
            graph_from_payload({"num_vertices": -1})

    def test_num_vertices_capped(self):
        at_cap = graph_from_payload({"num_vertices": MAX_VERTICES_PER_GRAPH})
        assert at_cap.num_vertices == MAX_VERTICES_PER_GRAPH
        with pytest.raises(
            SchemaError,
            match=rf"graphs\[4\].num_vertices = {MAX_VERTICES_PER_GRAPH + 1} exceeds",
        ):
            graph_from_payload({"num_vertices": MAX_VERTICES_PER_GRAPH + 1}, index=4)

    @pytest.mark.parametrize(
        "bad_edge", [[0], [0, 1, 2], [0, "1"], [0, 1.0], [0, True], "01", None]
    )
    def test_malformed_edge_rejected(self, bad_edge):
        with pytest.raises(SchemaError, match=r"edges\[0\] must be a \[u, v\] pair"):
            graph_from_payload({"num_vertices": 2, "edges": [bad_edge]})

    def test_out_of_range_edge_names_graph_and_edge(self):
        with pytest.raises(
            SchemaError, match=r"graphs\[2\].edges\[1\] = \[1, 5\] is out of range"
        ):
            graph_from_payload(
                {"num_vertices": 3, "edges": [[0, 1], [1, 5]]}, index=2
            )

    def test_vertex_labels_length_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="2 entries for 3 vertices"):
            graph_from_payload({"num_vertices": 3, "vertex_labels": ["a", "b"]})


class TestParsePredictRequest:
    def test_parses_graphs_and_top_k(self):
        request = parse_predict_request(predict_body([TRIANGLE, TRIANGLE], top_k=2))
        assert len(request.graphs) == 2
        assert request.top_k == 2

    def test_top_k_defaults(self):
        request = parse_predict_request(predict_body([TRIANGLE]))
        assert request.top_k == DEFAULT_TOP_K

    def test_top_k_clamped_to_num_classes(self):
        request = parse_predict_request(
            predict_body([TRIANGLE], top_k=10), num_classes=3
        )
        assert request.top_k == 3

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_predict_request(b"{nope")

    def test_non_object_body_rejected(self):
        with pytest.raises(SchemaError, match="must be a JSON object, got list"):
            parse_predict_request(b"[1, 2]")

    def test_unknown_body_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown fields \\['batch'\\]"):
            parse_predict_request(predict_body([TRIANGLE], batch=True))

    @pytest.mark.parametrize("graphs", [[], None, "x", {}])
    def test_missing_or_empty_graphs_rejected(self, graphs):
        body = json.dumps({} if graphs is None else {"graphs": graphs})
        with pytest.raises(SchemaError, match="non-empty 'graphs' list"):
            parse_predict_request(body)

    def test_too_many_graphs_rejected(self):
        body = predict_body([TRIANGLE] * 4)
        with pytest.raises(SchemaError, match="at most 3 per request"):
            parse_predict_request(body, max_graphs=3)

    def test_default_cap_is_module_constant(self):
        body = predict_body([{"num_vertices": 0}] * (MAX_GRAPHS_PER_REQUEST + 1))
        with pytest.raises(SchemaError, match=str(MAX_GRAPHS_PER_REQUEST)):
            parse_predict_request(body)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_bad_top_k_rejected(self, bad):
        with pytest.raises(SchemaError, match="top_k must be a positive integer"):
            parse_predict_request(predict_body([TRIANGLE], top_k=bad))

    def test_bad_graph_error_names_its_index(self):
        with pytest.raises(SchemaError, match=r"graphs\[1\]"):
            parse_predict_request(predict_body([TRIANGLE, {"num_vertices": -2}]))


class TestParseReloadRequest:
    def test_empty_body_means_unconditional_in_place_reload(self):
        request = parse_reload_request(b"")
        assert request.path is None
        assert request.expected_version is None

    def test_parses_path_and_expected_version(self):
        request = parse_reload_request(
            json.dumps({"path": "m.npz", "expected_version": 4})
        )
        assert request.path == "m.npz"
        assert request.expected_version == 4

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown fields \\['version'\\]"):
            parse_reload_request(json.dumps({"version": 2}))

    @pytest.mark.parametrize("bad", [1, ["a"], True])
    def test_non_string_path_rejected(self, bad):
        with pytest.raises(SchemaError, match="path must be a string"):
            parse_reload_request(json.dumps({"path": bad}))

    @pytest.mark.parametrize("bad", ["2", 1.0, True])
    def test_non_integer_expected_version_rejected(self, bad):
        with pytest.raises(SchemaError, match="expected_version must be an integer"):
            parse_reload_request(json.dumps({"expected_version": bad}))


class TestResponseHelpers:
    @pytest.mark.parametrize(
        ("label", "expected"),
        [
            (np.int64(3), 3),
            (np.float32(0.5), 0.5),
            ((1, "a"), [1, "a"]),
            (None, None),
            ("mutagenic", "mutagenic"),
            (frozenset({1}), str(frozenset({1}))),
        ],
    )
    def test_json_safe_label(self, label, expected):
        safe = json_safe_label(label)
        assert safe == expected
        json.dumps(safe)  # must serialize

    def test_prediction_payload_winner_first(self):
        payload = prediction_payload([(np.int64(1), 0.9), (0, 0.4)])
        assert payload["label"] == 1
        assert payload["top_k"] == [
            {"label": 1, "score": 0.9},
            {"label": 0, "score": 0.4},
        ]
        json.dumps(payload)
