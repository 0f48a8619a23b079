"""Request/response schemas of the inference service.

The wire format is plain JSON.  A prediction request carries a batch of
graphs and an optional ``top_k``::

    {
      "graphs": [
        {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
        ...
      ],
      "top_k": 3
    }

and the response echoes one prediction per graph, each with the winning
label and the ``top_k`` ranked ``(label, score)`` pairs::

    {
      "model_version": 1,
      "metric": "cosine",
      "batch_size": 8,
      "predictions": [
        {"label": 1, "top_k": [{"label": 1, "score": 0.61},
                               {"label": 0, "score": 0.40}]},
        ...
      ]
    }

``batch_size`` reports how many graphs the serving micro-batch that answered
this request actually coalesced (across concurrent requests), so clients and
load generators can observe batching without scraping ``/stats``.

Every parse error raises :class:`SchemaError` with a message naming the
offending field; the HTTP layer maps it to a 400 response.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "SchemaError",
    "PredictRequest",
    "ReloadRequest",
    "graph_from_payload",
    "json_safe_label",
    "parse_predict_request",
    "parse_reload_request",
    "prediction_payload",
]

#: Hard cap on graphs per request, so one malformed client cannot queue an
#: unbounded amount of encoding work.
MAX_GRAPHS_PER_REQUEST = 1024

#: Hard cap on ``num_vertices`` per graph.  Encoding a graph grows the served
#: model's vertex basis to its vertex count for good, so an uncapped
#: ~40-byte request could stall the batcher for seconds and pin hundreds of
#: MB; at d = 10,000 the cap bounds one request's growth to ~100 MB dense
#: (~12.5 MB packed).
MAX_VERTICES_PER_GRAPH = 10_000

#: Default number of ranked (label, score) pairs returned per graph.
DEFAULT_TOP_K = 1


class SchemaError(ValueError):
    """A request payload does not match the serving schema (HTTP 400)."""


@dataclass
class PredictRequest:
    """A parsed, validated prediction request."""

    graphs: list[Graph]
    top_k: int = DEFAULT_TOP_K


@dataclass
class ReloadRequest:
    """A parsed, validated model-reload request.

    ``expected_version`` makes the hot swap compare-and-swap: the reload is
    refused when the live model version moved past it (another operator beat
    this request to the swap).  ``None`` reloads unconditionally.
    """

    path: str | None = None
    expected_version: int | None = None


def _parse_json_object(body: bytes | str, what: str) -> dict:
    try:
        payload = json.loads(body or b"{}")
    except json.JSONDecodeError as error:
        raise SchemaError(f"{what} is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise SchemaError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def graph_from_payload(payload, index: int = 0) -> Graph:
    """Build a :class:`Graph` from one JSON graph object.

    Requires ``num_vertices`` (an int in ``0..MAX_VERTICES_PER_GRAPH``) and
    accepts ``edges`` (a list of ``[u, v]`` vertex-index pairs; duplicates
    collapse, order is irrelevant) plus an optional ``vertex_labels`` list.
    Out-of-range endpoints raise :class:`SchemaError` naming the graph and
    the edge.
    """
    where = f"graphs[{index}]"
    if not isinstance(payload, dict):
        raise SchemaError(
            f"{where} must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - {"num_vertices", "edges", "vertex_labels"}
    if unknown:
        raise SchemaError(
            f"{where} has unknown fields {sorted(unknown)}; expected "
            "num_vertices, edges, vertex_labels"
        )
    num_vertices = payload.get("num_vertices")
    if not isinstance(num_vertices, int) or isinstance(num_vertices, bool):
        raise SchemaError(f"{where}.num_vertices must be an integer")
    if num_vertices < 0:
        raise SchemaError(
            f"{where}.num_vertices must be non-negative, got {num_vertices}"
        )
    if num_vertices > MAX_VERTICES_PER_GRAPH:
        raise SchemaError(
            f"{where}.num_vertices = {num_vertices} exceeds the server's cap "
            f"of {MAX_VERTICES_PER_GRAPH} vertices per graph"
        )
    edges = payload.get("edges", [])
    if not isinstance(edges, list):
        raise SchemaError(f"{where}.edges must be a list of [u, v] pairs")
    pairs: list[tuple[int, int]] = []
    for position, edge in enumerate(edges):
        if (
            not isinstance(edge, (list, tuple))
            or len(edge) != 2
            or not all(isinstance(end, int) and not isinstance(end, bool) for end in edge)
        ):
            raise SchemaError(
                f"{where}.edges[{position}] must be a [u, v] pair of "
                f"integers, got {edge!r}"
            )
        u, v = int(edge[0]), int(edge[1])
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise SchemaError(
                f"{where}.edges[{position}] = [{u}, {v}] is out of range for "
                f"{num_vertices} vertices"
            )
        pairs.append((u, v))
    vertex_labels = payload.get("vertex_labels")
    if vertex_labels is not None:
        if not isinstance(vertex_labels, list):
            raise SchemaError(f"{where}.vertex_labels must be a list")
        if len(vertex_labels) != num_vertices:
            raise SchemaError(
                f"{where}.vertex_labels has {len(vertex_labels)} entries for "
                f"{num_vertices} vertices"
            )
    return Graph(num_vertices, pairs, vertex_labels=vertex_labels)


def parse_predict_request(
    body: bytes | str,
    *,
    max_graphs: int = MAX_GRAPHS_PER_REQUEST,
    num_classes: int | None = None,
) -> PredictRequest:
    """Parse and validate a ``POST /predict`` body."""
    payload = _parse_json_object(body, "predict request body")
    unknown = set(payload) - {"graphs", "top_k"}
    if unknown:
        raise SchemaError(
            f"predict request has unknown fields {sorted(unknown)}; "
            "expected graphs, top_k"
        )
    graphs_payload = payload.get("graphs")
    if not isinstance(graphs_payload, list) or not graphs_payload:
        raise SchemaError("predict request must carry a non-empty 'graphs' list")
    if len(graphs_payload) > max_graphs:
        raise SchemaError(
            f"predict request carries {len(graphs_payload)} graphs; the "
            f"server accepts at most {max_graphs} per request"
        )
    top_k = payload.get("top_k", DEFAULT_TOP_K)
    if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
        raise SchemaError(f"top_k must be a positive integer, got {top_k!r}")
    if num_classes is not None:
        top_k = min(top_k, num_classes)
    graphs = [
        graph_from_payload(graph, index)
        for index, graph in enumerate(graphs_payload)
    ]
    return PredictRequest(graphs=graphs, top_k=top_k)


def parse_reload_request(body: bytes | str) -> ReloadRequest:
    """Parse and validate a ``POST /reload`` body."""
    payload = _parse_json_object(body, "reload request body")
    unknown = set(payload) - {"path", "expected_version"}
    if unknown:
        raise SchemaError(
            f"reload request has unknown fields {sorted(unknown)}; "
            "expected path, expected_version"
        )
    path = payload.get("path")
    if path is not None and not isinstance(path, str):
        raise SchemaError(f"reload path must be a string, got {path!r}")
    expected = payload.get("expected_version")
    if expected is not None and (
        not isinstance(expected, int) or isinstance(expected, bool)
    ):
        raise SchemaError(
            f"expected_version must be an integer, got {expected!r}"
        )
    return ReloadRequest(path=path, expected_version=expected)


def json_safe_label(label):
    """A class label coerced into a JSON-serializable value.

    Numpy scalars become native Python scalars, tuples become lists; other
    non-JSON types fall back to ``str`` so any hashable label survives the
    trip (the textual form is stable for the benchmark label universe).
    """
    if isinstance(label, np.generic):
        label = label.item()
    if isinstance(label, (list, tuple)):
        return [json_safe_label(item) for item in label]
    if label is None or isinstance(label, (bool, int, float, str)):
        return label
    return str(label)


def prediction_payload(
    topk: list[tuple[object, float]]
) -> dict:
    """One response entry from a ranked (label, score) list (winner first)."""
    return {
        "label": json_safe_label(topk[0][0]),
        "top_k": [
            {"label": json_safe_label(label), "score": float(score)}
            for label, score in topk
        ],
    }
