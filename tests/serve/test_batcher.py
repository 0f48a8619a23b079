"""Unit tests for the micro-batcher, serving stats and model manager.

The batcher tests run against a tiny fake model (parity-of-vertex-count
"classifier") so batch composition is fully controllable; the model-manager
tests exercise real saved archives.
"""

import threading
import time

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.serve import batcher as batcher_module
from repro.serve.batcher import (
    MicroBatcher,
    ServerStats,
    ServiceClosedError,
)
from repro.serve.model_manager import ModelHandle, ModelManager, StaleVersionError


def graph_with(num_vertices: int) -> Graph:
    return Graph(num_vertices, [])


class FakeEncoder:
    """Encodes a graph as its vertex count; optionally blocks on an event."""

    def __init__(self):
        self.batch_sizes: list[int] = []
        self.gate: threading.Event | None = None
        self.entered = threading.Event()
        self.fail_with: Exception | None = None

    def encode_many(self, graphs):
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(5.0), "test gate never released"
        if self.fail_with is not None:
            raise self.fail_with
        self.batch_sizes.append(len(graphs))
        return np.array([[graph.num_vertices] for graph in graphs], dtype=np.float64)


class FakeClassifier:
    """Scores by vertex-count parity: even graphs -> 'even', odd -> 'odd'."""

    def decision_scores(self, encodings):
        parity = encodings[:, 0] % 2
        scores = np.stack([1.0 - parity, parity], axis=1)
        return scores, ["even", "odd"]


class FakeModel:
    metric = "parity"

    def __init__(self):
        self.encoder = FakeEncoder()
        self.classifier = FakeClassifier()


@pytest.fixture
def fake_setup():
    model = FakeModel()
    handle = ModelHandle(model=model, version=1, path="<fake>")
    batchers = []

    def make(**kwargs):
        batcher = MicroBatcher(lambda: handle, **kwargs)
        batchers.append(batcher)
        return batcher

    yield model, handle, make
    for batcher in batchers:
        batcher.close()


class TestMicroBatcher:
    def test_single_request_round_trip(self, fake_setup):
        model, handle, make = fake_setup
        batcher = make()
        result = batcher.submit([graph_with(2), graph_with(3)], top_k=2)
        assert result.handle is handle
        assert result.batch_size == 2
        assert [topk[0][0] for topk in result.topk] == ["even", "odd"]
        # top-2 carries both labels with their scores, winner first.
        assert [label for label, _ in result.topk[0]] == ["even", "odd"]
        assert result.topk[0][0][1] == 1.0
        assert result.topk[0][1][1] == 0.0

    def test_empty_submit_rejected(self, fake_setup):
        _, _, make = fake_setup
        with pytest.raises(ValueError, match="empty graph batch"):
            make().submit([])

    def test_concurrent_requests_coalesce_into_one_batch(self, fake_setup):
        model, _, make = fake_setup
        batcher = make()
        # Block the batcher inside the first batch so later submissions pile
        # up in the queue, then release and watch them coalesce.
        model.encoder.gate = threading.Event()
        opener = threading.Thread(target=batcher.submit, args=([graph_with(2)],))
        opener.start()
        assert model.encoder.entered.wait(5.0)

        results = [None] * 4
        def client(slot):
            results[slot] = batcher.submit([graph_with(slot + 1)])
        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        while batcher.queue_depth() < 4:
            time.sleep(0.001)
        model.encoder.gate.set()
        opener.join(5.0)
        for thread in threads:
            thread.join(5.0)

        # First batch was the lone opener; the queued four ran as one batch.
        assert model.encoder.batch_sizes == [1, 4]
        for slot, result in enumerate(results):
            assert result.batch_size == 4
            expected = "even" if (slot + 1) % 2 == 0 else "odd"
            assert result.topk[0][0][0] == expected

    def test_batch_respects_graph_budget_on_whole_requests(
        self, fake_setup, monkeypatch
    ):
        model, _, make = fake_setup
        monkeypatch.setattr(batcher_module, "MAX_BATCH_GRAPHS", 4)
        batcher = make()
        model.encoder.gate = threading.Event()
        opener = threading.Thread(target=batcher.submit, args=([graph_with(1)],))
        opener.start()
        assert model.encoder.entered.wait(5.0)

        # 3 + 2 graphs: the second request would overflow the 4-graph budget
        # and must wait for the next batch (requests are never split).
        threads = [
            threading.Thread(
                target=batcher.submit, args=([graph_with(1)] * count,)
            )
            for count in (3, 2)
        ]
        threads[0].start()
        while batcher.queue_depth() < 1:
            time.sleep(0.001)
        threads[1].start()
        while batcher.queue_depth() < 2:
            time.sleep(0.001)
        model.encoder.gate.set()
        model.encoder.gate = None
        opener.join(5.0)
        for thread in threads:
            thread.join(5.0)
        assert model.encoder.batch_sizes == [1, 3, 2]

    def test_oversized_request_runs_alone(self, fake_setup, monkeypatch):
        model, _, make = fake_setup
        monkeypatch.setattr(batcher_module, "MAX_BATCH_GRAPHS", 2)
        batcher = make()
        result = batcher.submit([graph_with(1)] * 5)
        assert result.batch_size == 5
        assert model.encoder.batch_sizes == [5]

    def test_batch_failure_propagates_to_every_request(self, fake_setup):
        model, _, make = fake_setup
        stats = ServerStats()
        batcher = make(stats=stats)
        model.encoder.fail_with = RuntimeError("encoder exploded")
        with pytest.raises(RuntimeError, match="encoder exploded"):
            batcher.submit([graph_with(1)])
        assert stats.errors_total == 1
        # The batcher thread survives a failed batch.
        model.encoder.fail_with = None
        assert batcher.submit([graph_with(2)]).topk[0][0][0] == "even"

    def test_submit_timeout(self, fake_setup, monkeypatch):
        model, _, make = fake_setup
        monkeypatch.setattr(batcher_module, "REQUEST_TIMEOUT_SECONDS", 0.05)
        batcher = make()
        model.encoder.gate = threading.Event()
        try:
            with pytest.raises(TimeoutError, match="did not complete within"):
                batcher.submit([graph_with(1)])
        finally:
            model.encoder.gate.set()

    def test_submit_after_close_raises(self, fake_setup):
        _, _, make = fake_setup
        batcher = make()
        batcher.close()
        with pytest.raises(ServiceClosedError):
            batcher.submit([graph_with(1)])

    def test_close_is_idempotent(self, fake_setup):
        _, _, make = fake_setup
        batcher = make()
        batcher.close()
        batcher.close()

    def test_stats_recorded(self, fake_setup):
        model, _, make = fake_setup
        stats = ServerStats()
        batcher = make(stats=stats)
        batcher.submit([graph_with(1), graph_with(2)])
        batcher.submit([graph_with(3)])
        snapshot = stats.snapshot(queue_depth=0)
        assert snapshot["requests_total"] == 2
        assert snapshot["graphs_total"] == 3
        assert snapshot["batches_total"] == 2
        assert snapshot["errors_total"] == 0
        assert snapshot["batch_sizes"]["max"] == 2
        assert snapshot["batch_sizes"]["histogram"] == {"1": 1, "2": 1}
        assert snapshot["request_latency"]["count"] == 2
        assert snapshot["request_latency"]["p99_ms"] >= snapshot["request_latency"]["p50_ms"]
        assert snapshot["encode_seconds_total"] >= 0.0


class TestServerStats:
    def test_empty_snapshot(self):
        snapshot = ServerStats().snapshot(queue_depth=3)
        assert snapshot["requests_total"] == 0
        assert snapshot["queue_depth"] == 3
        assert snapshot["batch_sizes"]["mean"] is None
        assert snapshot["batch_sizes"]["max"] is None
        assert snapshot["request_latency"] == {
            "count": 0,
            "p50_ms": None,
            "p99_ms": None,
            "mean_ms": None,
        }

    def test_latency_window_caps_samples(self):
        stats = ServerStats(window=8)
        for index in range(20):
            stats.record_request_latency(index / 1000.0)
        latency = stats.snapshot()["request_latency"]
        assert latency["count"] == 8
        # Only the last 8 samples (12ms..19ms) remain in the window.
        assert latency["p50_ms"] >= 12.0

    def test_max_queue_depth_high_water_mark(self):
        stats = ServerStats()
        stats.record_enqueue(2)
        stats.record_enqueue(7)
        stats.record_enqueue(1)
        assert stats.snapshot()["max_queue_depth"] == 7

    def test_snapshot_is_json_ready(self):
        import json

        stats = ServerStats()
        stats.record_batch(
            num_requests=1,
            num_graphs=4,
            encode_seconds=0.001,
            similarity_seconds=0.0005,
            batch_seconds=0.002,
        )
        json.dumps(stats.snapshot())


class TestModelManager:
    def test_loads_and_warms_at_version_one(self, dense_model_path):
        manager = ModelManager(dense_model_path)
        handle = manager.current()
        assert handle.version == 1
        assert handle.path == dense_model_path
        assert handle.num_classes == len(handle.model.classes)
        # Warmed: the shared reference matrix is memoized and frozen.
        matrix = handle.model.classifier.memory._reference_matrix_native()
        assert matrix.flags.writeable is False

    def test_describe_is_json_ready(self, packed_model_path):
        import json

        description = ModelManager(packed_model_path).current().describe()
        assert description["version"] == 1
        assert description["backend"] == "packed"
        json.dumps(description)

    def test_reload_in_place_bumps_version(self, dense_model_path):
        manager = ModelManager(dense_model_path)
        old = manager.current()
        new = manager.reload()
        assert new.version == 2
        assert new.path == dense_model_path
        assert manager.current() is new
        # The old handle stays fully usable for in-flight batches.
        assert old.version == 1
        assert old.model.classes == new.model.classes

    def test_reload_with_matching_expected_version(self, dense_model_path):
        manager = ModelManager(dense_model_path)
        assert manager.reload(expected_version=1).version == 2

    def test_stale_expected_version_refused(self, dense_model_path):
        manager = ModelManager(dense_model_path)
        manager.reload()  # live version is now 2
        with pytest.raises(StaleVersionError, match="version 2, reload expected 1"):
            manager.reload(expected_version=1)
        assert manager.current().version == 2

    def test_reload_to_new_path(self, dense_model_path, retrained_model_path):
        manager = ModelManager(dense_model_path)
        handle = manager.reload(path=retrained_model_path)
        assert handle.path == retrained_model_path
        assert handle.version == 2
        # A later in-place reload re-reads the *new* path.
        assert manager.reload().path == retrained_model_path

    def test_failed_reload_keeps_old_model(self, dense_model_path, serve_model_dir):
        manager = ModelManager(dense_model_path)
        live = manager.current()
        with pytest.raises(FileNotFoundError):
            manager.reload(path=str(serve_model_dir / "missing.npz"))
        assert manager.current() is live

    def test_missing_archive_refused_at_startup(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelManager(str(tmp_path / "missing.npz"))
