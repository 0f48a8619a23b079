"""End-to-end HTTP tests of ``repro serve``.

Each test spins up a real ``ThreadingHTTPServer`` on an ephemeral port and
talks to it through the stdlib :class:`ServingClient` — the same transport
the CI smoke and the load generator use.  The headline guarantees:

* served predictions are bit-identical to offline ``predict_encoded`` on the
  same archive, for the dense and the packed backend, including under
  concurrent clients whose requests may share micro-batches;
* a version-checked hot swap is atomic — every response reports a model
  version whose answers are exactly that version's offline answers, never a
  mixture.
"""

import json
import os
import shutil
import socket
import threading

import pytest

from repro.core.model import GraphHDClassifier
from repro.graphs.graph import Graph
from repro.serve.app import (
    InferenceService,
    _RequestHandler,
    create_server,
    start_in_thread,
)
from repro.serve.client import ServingClient, ServingError, graph_payload


@pytest.fixture
def serve(request):
    """Factory fixture: start a server for a model path, yield a client."""
    servers = []

    def start(model_path):
        server = create_server(model_path, port=0)
        start_in_thread(server)
        servers.append(server)
        host, port = server.server_address[:2]
        return ServingClient(host, port)

    yield start
    for server in servers:
        server.server_close()


def offline_predictions(model_path, graphs):
    """The ground truth: load the archive and run the offline batch path."""
    model = GraphHDClassifier.load(model_path)
    encodings = model.encoder.encode_many(graphs)
    return model.classifier.predict(encodings)


class TestServedEqualsOffline:
    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_single_client_bit_identical(
        self, backend, serve, serve_dataset, dense_model_path, packed_model_path
    ):
        model_path = dense_model_path if backend == "dense" else packed_model_path
        client = serve(model_path)
        graphs = serve_dataset.graphs[:16]
        assert client.predict_labels(graphs) == offline_predictions(
            model_path, graphs
        )

    @pytest.mark.parametrize("backend", ["dense", "packed"])
    def test_concurrent_clients_coalesce_and_stay_bit_identical(
        self, backend, serve, serve_dataset, dense_model_path, packed_model_path
    ):
        model_path = dense_model_path if backend == "dense" else packed_model_path
        client = serve(model_path)
        graphs = serve_dataset.graphs[:24]
        expected = offline_predictions(model_path, graphs)

        results = [None] * len(graphs)
        barrier = threading.Barrier(len(graphs))

        def worker(index):
            barrier.wait()
            host, port = client.host, client.port
            with ServingClient(host, port) as own:
                response = own.predict([graphs[index]])
            results[index] = response["predictions"][0]["label"]

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(graphs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)

        # Bit-identical to the offline answers regardless of how the
        # concurrent singleton requests were packed into micro-batches.
        assert results == expected

    def test_topk_matches_offline_predict_topk(
        self, serve, serve_dataset, packed_model_path
    ):
        client = serve(packed_model_path)
        graphs = serve_dataset.graphs[:8]
        model = GraphHDClassifier.load(packed_model_path)
        offline = model.predict_topk(graphs, k=2)
        response = client.predict(graphs, top_k=2)
        assert response["metric"] == model.metric
        for served, expected in zip(response["predictions"], offline):
            assert served["label"] == expected[0][0]
            assert [entry["label"] for entry in served["top_k"]] == [
                label for label, _ in expected
            ]
            for entry, (_, score) in zip(served["top_k"], expected):
                assert entry["score"] == pytest.approx(score, abs=1e-12)

    def test_top_k_clamped_to_class_count(
        self, serve, serve_dataset, dense_model_path
    ):
        client = serve(dense_model_path)
        response = client.predict(serve_dataset.graphs[:1], top_k=99)
        model = GraphHDClassifier.load(dense_model_path)
        assert len(response["predictions"][0]["top_k"]) == len(model.classes)


class TestEndpoints:
    def test_healthz_reports_live_model(self, serve, dense_model_path):
        client = serve(dense_model_path)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["model"]["version"] == 1
        assert health["model"]["path"] == dense_model_path
        assert health["model"]["backend"] == "dense"

    def test_stats_shape_and_counters(self, serve, serve_dataset, dense_model_path):
        client = serve(dense_model_path)
        client.predict(serve_dataset.graphs[:5])
        stats = client.stats()
        assert stats["requests_total"] == 1
        assert stats["graphs_total"] == 5
        assert stats["batches_total"] == 1
        assert stats["request_latency"]["count"] == 1
        assert stats["request_latency"]["p50_ms"] > 0
        assert stats["request_latency"]["p99_ms"] >= stats["request_latency"]["p50_ms"]
        assert stats["batch_sizes"]["histogram"] == {"5": 1}
        assert stats["model"]["version"] == 1
        assert {
            "batch_latency",
            "max_queue_depth",
            "encode_seconds_total",
            "similarity_seconds_total",
        } <= stats.keys()

    def test_malformed_graph_rejected_400(self, serve, dense_model_path):
        client = serve(dense_model_path)
        with pytest.raises(ServingError) as excinfo:
            client.predict([{"num_vertices": 2, "edges": [[0, 5]]}])
        assert excinfo.value.status == 400
        assert "out of range" in str(excinfo.value)

    def test_invalid_json_rejected_400(self, serve, dense_model_path):
        client = serve(dense_model_path)
        with pytest.raises(ServingError) as excinfo:
            client._request("POST", "/predict", {"graphs": "nope"})
        assert excinfo.value.status == 400

    def test_unknown_path_404_lists_routes(self, serve, dense_model_path):
        client = serve(dense_model_path)
        with pytest.raises(ServingError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert "/predict" in excinfo.value.payload["paths"]

    def test_wrong_method_405_names_allowed(self, serve, dense_model_path):
        client = serve(dense_model_path)
        with pytest.raises(ServingError) as excinfo:
            client._request("GET", "/predict")
        assert excinfo.value.status == 405
        assert excinfo.value.payload["allowed"] == ["POST"]

    def test_accepted_connections_disable_nagle(
        self, serve, dense_model_path, monkeypatch
    ):
        nodelay = []
        setup = _RequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_RequestHandler, "setup", recording_setup)
        client = serve(dense_model_path)
        client.healthz()
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_graph_payload_round_trip(self, serve_dataset):
        graph = serve_dataset.graphs[0]
        payload = graph_payload(graph)
        json.dumps(payload)
        assert payload["num_vertices"] == graph.num_vertices
        assert len(payload["edges"]) == graph.num_edges


class TestHotSwap:
    def test_reload_bumps_version_and_serves_new_model(
        self, serve, serve_dataset, dense_model_path, retrained_model_path
    ):
        client = serve(dense_model_path)
        graphs = serve_dataset.graphs[:8]
        before = client.predict(graphs)
        assert before["model_version"] == 1

        response = client.reload(path=retrained_model_path, expected_version=1)
        assert response["reloaded"] is True
        assert response["model"]["version"] == 2
        assert response["model"]["path"] == retrained_model_path

        after = client.predict(graphs)
        assert after["model_version"] == 2
        assert [p["label"] for p in after["predictions"]] == offline_predictions(
            retrained_model_path, graphs
        )

    def test_stale_reload_rejected_409(self, serve, dense_model_path):
        client = serve(dense_model_path)
        client.reload()  # version 1 -> 2
        with pytest.raises(ServingError) as excinfo:
            client.reload(expected_version=1)
        assert excinfo.value.status == 409
        assert client.healthz()["model"]["version"] == 2

    def test_reload_missing_file_rejected_400(
        self, serve, dense_model_path, serve_model_dir
    ):
        client = serve(dense_model_path)
        with pytest.raises(ServingError) as excinfo:
            client.reload(path=str(serve_model_dir / "missing.npz"))
        assert excinfo.value.status == 400
        assert "No such file" in str(excinfo.value)
        assert client.healthz()["model"]["version"] == 1

    @pytest.mark.parametrize("through_parent", [False, True])
    def test_reload_outside_model_directory_rejected_400(
        self, serve, dense_model_path, serve_model_dir, tmp_path, through_parent
    ):
        outside = tmp_path / "outside.npz"
        shutil.copy(dense_model_path, outside)  # a valid archive, elsewhere
        path = str(outside)
        if through_parent:  # names the model directory, then climbs out
            path = os.path.join(serve_model_dir, os.path.relpath(outside, serve_model_dir))
            assert path.startswith(str(serve_model_dir)) and ".." in path
        client = serve(dense_model_path)
        with pytest.raises(ServingError) as excinfo:
            client.reload(path=path)
        assert excinfo.value.status == 400
        assert "outside the model directory" in str(excinfo.value)
        assert client.healthz()["model"]["version"] == 1

    def test_no_request_sees_a_half_swapped_model(
        self, serve, serve_dataset, dense_model_path, retrained_model_path
    ):
        """Predictions under concurrent hot swaps are always version-consistent.

        Clients hammer /predict while another thread flips the model between
        two archives; every response's labels must exactly equal the offline
        answers of the model version the response reports — a mixture would
        mean a batch straddled the swap.
        """
        client = serve(dense_model_path)
        graphs = serve_dataset.graphs[:6]
        truth = {
            1: offline_predictions(dense_model_path, graphs),
        }
        # Versions alternate between the two archives: even -> retrained.
        retrained_truth = offline_predictions(retrained_model_path, graphs)

        stop = threading.Event()
        mismatches = []

        def hammer():
            with ServingClient(client.host, client.port) as own:
                while not stop.is_set():
                    response = own.predict(graphs)
                    version = response["model_version"]
                    labels = [p["label"] for p in response["predictions"]]
                    expected = retrained_truth if version % 2 == 0 else truth[1]
                    if labels != expected:
                        mismatches.append((version, labels))
                        return

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        paths = [retrained_model_path, dense_model_path]
        for swap in range(6):
            client.reload(path=paths[swap % 2])
        stop.set()
        for worker in workers:
            worker.join(30.0)

        assert mismatches == []
        assert client.healthz()["model"]["version"] == 7  # 1 + 6 swaps


class TestVertexCap:
    @pytest.fixture
    def service(self, dense_model_path):
        service = InferenceService(dense_model_path)
        yield service
        service.close()

    @staticmethod
    def body(graph_payloads) -> bytes:
        return json.dumps({"graphs": graph_payloads}).encode("utf-8")

    def test_oversized_graph_rejected_400_without_growing_basis(self, service):
        encoder = service.manager.current().model.encoder
        basis_before = len(encoder._basis)
        status, payload = service.predict(
            self.body([{"num_vertices": 3}, {"num_vertices": 200_000}])
        )
        assert status == 400
        assert "graphs[1].num_vertices" in payload["error"]
        assert len(encoder._basis) == basis_before
        assert service.stats_recorder.graphs_total == 0

    def test_980_vertex_graph_still_served(self, service, dense_model_path):
        ring = Graph(980, [(vertex, (vertex + 1) % 980) for vertex in range(980)])
        status, payload = service.predict(self.body([graph_payload(ring)]))
        assert status == 200
        assert [p["label"] for p in payload["predictions"]] == offline_predictions(
            dense_model_path, [ring]
        )


class TestCLI:
    def test_serve_parser_wires_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--model",
                "model.npz",
                "--host",
                "0.0.0.0",
                "--port",
                "0",
                "--verbose",
            ]
        )
        assert args.command == "serve"
        assert args.model == "model.npz"
        assert args.host == "0.0.0.0"
        assert args.port == 0
        assert args.verbose is True

    @pytest.mark.parametrize(
        "flag", ["--max-batch-size=32", "--max-delay-ms=1.5", "--request-timeout=5"]
    )
    def test_removed_batching_flags_fail(self, flag):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--model", "model.npz", flag])
        assert excinfo.value.code == 2
