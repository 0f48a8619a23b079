"""One benchmark run: set-up, measuring rounds, checks.

A run measures in rounds.  Every round runs each phase in turn: ``fit`` then
``predict`` on each backend, ``cross_validate``, one online stream, and one
part of the low-rate and of the high-rate serving phase.  Within a round
each backend's fit + predict pair repeats until it has taken an eightieth
of ``--seconds``, so the short calls of ``uniform`` are sampled twice a
round and the long ones of ``longtail`` once.  Rounds repeat while the next
one is expected to end within ``--seconds`` (less the time kept for the
rate ladder), at least ``MIN_ROUNDS`` of them, after warm-up calls of fit,
predict and cross-validation whose timings are dropped.  Every reported
time is a median over the run's samples, so a slow spell of the shared host
lands on a few samples of every metric rather than on all samples of one.
The program is driven only through ``GraphHDClassifier`` (fit, predict,
partial_fit_many, save, load), ``cross_validate`` and ``repro serve``
processes.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import repro.core.encoding as encoding_module
from repro.core import GraphHDClassifier, GraphHDConfig
from repro.datasets.dataset import GraphDataset
from repro.eval.cross_validation import cross_validate
from repro.serve.client import graph_payload
from repro.serve.schemas import parse_predict_request

import checks
from serving import ServerProcess, percentile, run_phase, tail_quantile
from tracing import Recorder
from workloads import (HIGH_RPS, LOW_RPS, canary_fingerprint, make_workload,
                       recorded_fingerprints)

SETUP_REPEATS = 3
#: Measured rounds a run makes however slow the host is.
MIN_ROUNDS = 3
#: Share of ``--seconds`` each backend's fit + predict pair repeats for
#: within a round: 0.5 s at 40 s.  With one pair per round, a uniform run's
#: median dense fit rested on four 0.2 s calls and spread 27% over five
#: runs of the same code.
REPEAT_SHARE = 1 / 80
BACKENDS = ("dense", "packed")
CV_SPLITS = 10
CV_REPETITIONS = 3
#: Mini-batch of the online test-then-train stream.
STREAM_BATCH = 8
#: Low-rate requests per round.  Each part carries on through the held-out
#: graphs where the previous one stopped.
LOW_PART_REQUESTS = 20
LADDER_RUNG_SECONDS = 1.5
#: Time kept out of the rounds for the ladder's three rungs.
LADDER_RESERVE_SECONDS = 3 * LADDER_RUNG_SECONDS
#: Share of a rung's requests that must meet the workload's latency limit.
WITHIN_LIMIT_SHARE = 0.95
#: Traced run: untraced/traced pairs of packed fit + predict.
OVERHEAD_PAIRS = 3


def _n(args, kwargs):
    return len(args[0])


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, src_dir: Path, toy: bool) -> None:
        self.name, self.seed, self.seconds, self.toy = name, seed, seconds, toy
        self.repeat_seconds = REPEAT_SHARE * seconds
        self.rec = Recorder(trace)
        self.src_dir = src_dir
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
        self.servers: list[ServerProcess] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.details: dict = {}
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.parts: dict[str, list] = {"low": [], "high": []}
        self.next_body = {"low": 0, "high": 0}
        self.models: dict[str, GraphHDClassifier] = {}
        self.predictions: dict[str, list] = {}
        self._pagerank = {False: encoding_module.pagerank_matrix}

    # ----------------------------------------------------------- plumbing
    def stop_servers(self) -> None:
        for server in self.servers:
            server.stop()

    def close(self) -> None:
        self.stop_servers()
        encoding_module.pagerank_matrix = self._pagerank[False]
        shutil.rmtree(self.tmp, ignore_errors=True)

    def model(self, backend: str, traced: bool = True) -> GraphHDClassifier:
        model = GraphHDClassifier(
            GraphHDConfig(dimension=self.w.dimension, backend=backend)
        )
        if self.rec.enabled and traced:
            self.rec.wrap(model.encoder, "encode_many", "encode.encode_many", _n)
            self.rec.count_calls(
                model.encoder, "encode_many_per_graph", "encode.per_graph_route", _n
            )
            self.rec.wrap(model.classifier, "fit_state", "hdc.fit_state", _n)
            self.rec.wrap(model.classifier, "decision_scores", "hdc.decision_scores", _n)
        return model

    def _trace_pagerank(self) -> None:
        # The encoder looks pagerank_matrix up in its own module on each
        # call; rebinding that name times the public function without
        # touching the encoder class.
        original, rec = self._pagerank[False], self.rec

        def traced(graphs, **kwargs):
            with rec.span("graphs.pagerank_matrix", items=len(graphs)):
                return original(graphs, **kwargs)

        self._pagerank[True] = encoding_module.pagerank_matrix = traced

    def timed(self, name: str, call, **args):
        """``(seconds, value)`` of one traced, counted call."""
        with self.rec.span(name, **args):
            start = time.perf_counter()
            value = call()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        return elapsed, value

    # -------------------------------------------------------------- phases
    def setup(self) -> None:
        """Make inputs, train and save the served model, start the server."""
        setup_s, save_s = [], []
        for index in range(SETUP_REPEATS):
            with self.rec.span("setup", repeat=index):
                start = time.perf_counter()
                self.w = make_workload(self.name, self.seed, toy=self.toy)
                served = self.model("packed")
                served.fit(self.w.train_graphs, self.w.train_labels)
                path = self.tmp / f"served-{index}.npz"
                with self.rec.span("model.save"):
                    saved = time.perf_counter()
                    served.save(path)
                    save_s.append(time.perf_counter() - saved)
                server = ServerProcess(path, self.src_dir, self.tmp, str(index))
                self.servers.append(server)
                server.start()
                setup_s.append(time.perf_counter() - start)
            self.attempted += 1
        self.model_path = path
        self.e2e["setup_s"] = statistics.median(setup_s)
        self.layers["model.save_ms"] = 1000 * statistics.median(save_s)
        self.details["setup_s"] = setup_s
        self.dataset = GraphDataset(self.w.name, self.w.all_graphs)
        self.bodies = [
            json.dumps({"graphs": [graph_payload(graph)]}).encode()
            for graph in self.w.test_graphs
        ]

    def check_inputs(self) -> None:
        w = self.w
        fingerprint = w.fingerprint()
        canary = canary_fingerprint()
        self.details["fingerprint"] = fingerprint
        self.details["canary_fingerprint"] = canary
        recorded = recorded_fingerprints()
        if recorded.get(("canary", "-")) != canary:
            self.problems.append(
                "generator canary fingerprint differs from the README's: "
                "repro.datasets now makes different inputs"
            )
        expected = recorded.get((w.name, str(w.seed)))
        if not self.toy and expected is not None and expected != fingerprint:
            self.problems.append(
                f"{w.name} seed {w.seed}: input fingerprint differs from the README's"
            )

    def warm_up(self) -> None:
        """Offline calls whose timings are dropped, then the offline answers
        every served answer is checked against.

        The first ``cross_validate`` in a process ran up to twice as slow as
        later ones, and the first ``fit`` of each backend slower too; the
        first online stream of a run was no slower than the later ones.
        """
        with self.rec.span("warm_up"):
            for backend in BACKENDS:
                self.fit_predict(backend, keep=False)
            self.cv(keep=False)
        load_s = []
        for _ in range(3):
            with self.rec.span("model.load"):
                start = time.perf_counter()
                loaded = GraphHDClassifier.load(self.model_path)
                load_s.append(time.perf_counter() - start)
        self.layers["model.load_ms"] = 1000 * statistics.median(load_s)
        self.offline_scores = loaded.decision_scores(self.w.test_graphs)

    def measure(self) -> None:
        """Rounds while the next is expected to end in time, then the ladder."""
        deadline = time.perf_counter() + self.seconds - LADDER_RESERVE_SECONDS
        rounds: list[float] = []
        while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() + statistics.median(rounds) <= deadline
        ):
            start = time.perf_counter()
            with self.rec.span("round", index=len(rounds)):
                self.offline_round()
                self.serve_part("low")
                self.serve_part("high")
            rounds.append(time.perf_counter() - start)
        self.details["round_seconds"] = rounds
        # The offline phases are over; the ladder only adds the load
        # generator's buffers.
        self.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.e2e["serve_max_rps"] = self._ladder(self.servers[2])
        self.summarise()

    def offline_round(self) -> None:
        for backend in BACKENDS:
            # The pair again, with a new model, until the round has spent
            # ``repeat_seconds`` on it.
            spent = 0.0
            while spent < self.repeat_seconds:
                spent += self.fit_predict(backend, keep=True)
        self.cv(keep=True)
        self.online()

    def fit_predict(self, backend: str, keep: bool) -> float:
        w = self.w
        model = self.model(backend)
        fit_s, _ = self.timed(
            f"fit.{backend}", lambda: model.fit(w.train_graphs, w.train_labels)
        )
        predict_s, prediction = self.timed(
            f"predict.{backend}", lambda: model.predict(w.test_graphs)
        )
        self.models[backend], self.predictions[backend] = model, prediction
        if keep:
            self.samples[f"fit.{backend}"].append(fit_s)
            self.samples[f"predict.{backend}"].append(predict_s)
        return fit_s + predict_s

    def cv(self, keep: bool) -> None:
        elapsed, result = self.timed("cv", lambda: cross_validate(
            lambda: self.model("dense"), self.dataset, method_name="GraphHD",
            n_splits=CV_SPLITS, repetitions=CV_REPETITIONS, seed=self.w.seed, n_jobs=1))
        self.cv_result = result
        if keep:
            fold_s = sum(f.train_seconds + f.test_seconds for f in result.folds)
            self.samples["cv"].append(elapsed)
            self.samples["cv.encode"].append(result.encoding_seconds)
            self.samples["cv.folds"].append(fold_s)
            self.samples["cv.overhead"].append(elapsed - result.encoding_seconds - fold_s)

    def online(self) -> None:
        w = self.w
        batches = [
            (w.train_graphs[i : i + STREAM_BATCH], w.train_labels[i : i + STREAM_BATCH])
            for i in range(0, len(w.train_graphs), STREAM_BATCH)
        ]
        model = self.model("packed")
        spent = {"predict": 0.0, "fit": 0.0}
        with self.rec.span("online"):
            start = time.perf_counter()
            for number, (graphs, labels) in enumerate(batches):
                # Test, then train; the first batch has nothing to test against.
                if number:
                    began = time.perf_counter()
                    model.predict(graphs)
                    spent["predict"] += time.perf_counter() - began
                    self.attempted += 1
                began = time.perf_counter()
                model.partial_fit_many(graphs, labels)
                spent["fit"] += time.perf_counter() - began
                self.attempted += 1
            elapsed = time.perf_counter() - start
        self.stream_model = model
        self.samples["online"].append(elapsed)
        self.samples["online.predict"].append(spent["predict"])
        self.samples["online.partial_fit"].append(spent["fit"])

    def serve_part(self, label: str) -> None:
        n = len(self.bodies)
        if label == "low":
            server, rate, count = self.servers[0], LOW_RPS, LOW_PART_REQUESTS
        else:
            # Whole passes over the held-out graphs, so every part has the
            # same mix, and at least 40 requests (toy inputs).
            passes = max(self.w.serve.high_part_passes, math.ceil(40 / n))
            server, rate, count = self.servers[1], HIGH_RPS, passes * n
        first = self.next_body[label]
        self.next_body[label] = (first + count) % n
        self.parts[label].append(
            self._serve_phase(f"serve.{label}", server, rate, count, first))

    def _serve_phase(self, name, server, rate, count, first=0):
        with self.rec.span(name, rate=rate):
            # A full collection of this process's heap takes ~30 ms, long
            # enough to send requests late; the generator runs without one.
            gc.disable()
            try:
                result = run_phase(server, self.bodies, rate, count, first)
            finally:
                gc.enable()
            for request, sent, done in result.spans:
                self.rec.add("serve.request", sent, done, self.attempted + request, phase=name)
        self.attempted += count
        self.failed += result.failed
        answered = [i for i, status in enumerate(result.status) if status == 200]
        scores, labels = self.offline_scores
        self.problems += checks.check_served(
            [json.loads(result.bodies[i]) for i in answered],
            [(first + i) % len(self.bodies) for i in answered], scores, labels)
        return result

    def _ladder(self, server) -> float:
        """Climbing from the lowest rung, the last one at which the stated
        share meets the limit with no backlog."""
        plan = self.w.serve
        rungs = []
        passed_rate = 0.0
        for rate in plan.ladder_rps:
            result = self._serve_phase("serve.ladder", server, rate,
                                       round(rate * LADDER_RUNG_SECONDS))
            within = sum(
                1 for x in result.latency if x is not None and 1000 * x <= plan.limit_ms
            ) / len(result.latency)
            backlog = result.in_flight_at_end > rate * plan.limit_ms / 1000
            passed = within >= WITHIN_LIMIT_SHARE and not backlog
            rungs.append({"rate": rate, "within_limit": within,
                          "in_flight_at_end": result.in_flight_at_end, "passed": passed})
            if not passed:
                break
            passed_rate = rate
        self.details["ladder"] = rungs
        return passed_rate

    def summarise(self) -> None:
        """Medians over the run's samples, and the serving phases' split."""
        w, s = self.w, self.samples
        for backend in BACKENDS:
            self.e2e[f"fit_graphs_per_s.{backend}"] = (
                len(w.train_graphs) / statistics.median(s[f"fit.{backend}"]))
            self.e2e[f"predict_graphs_per_s.{backend}"] = (
                len(w.test_graphs) / statistics.median(s[f"predict.{backend}"]))
        self.e2e["cv_s"] = statistics.median(s["cv"])
        self.layers["eval.cv_encode_s"] = statistics.median(s["cv.encode"])
        self.layers["eval.cv_folds_s"] = statistics.median(s["cv.folds"])
        self.layers["eval.cv_overhead_s"] = statistics.median(s["cv.overhead"])
        self.e2e["online_graphs_per_s"] = len(w.train_graphs) / statistics.median(s["online"])
        self.layers["online.predict_s"] = statistics.median(s["online.predict"])
        self.layers["online.partial_fit_s"] = statistics.median(s["online.partial_fit"])
        self.details["samples"] = dict(s)

        for label, server, rate in (("low", self.servers[0], LOW_RPS),
                                    ("high", self.servers[1], HIGH_RPS)):
            results = self.parts[label]
            stats = server.get("/stats")
            # A failed request misses every limit: it counts as infinitely slow.
            per_part = [
                [math.inf if x is None else 1000 * x for x in r.latency] for r in results
            ]
            latencies = [x for part in per_part for x in part]
            client_p50 = percentile(latencies, 0.5)
            self.e2e[f"serve_p50_ms.{label}"] = client_p50
            server_p50 = stats["request_latency"]["p50_ms"]
            batch_p50 = stats["batch_latency"]["p50_ms"]
            parse = self._parse_ms(len(latencies))
            self.layers[f"serve.server_ms.{label}"] = server_p50
            self.layers[f"serve.batch_ms.{label}"] = batch_p50
            self.layers[f"serve.queue_wait_ms.{label}"] = server_p50 - batch_p50
            self.layers[f"serve.transport_ms.{label}"] = client_p50 - server_p50 - parse["p50"]
            self.layers[f"serve.graphs_per_batch.{label}"] = (
                stats["graphs_total"] / stats["batches_total"]
            )
            self.layers[f"serve.generator_late_ms.{label}"] = 1000 * max(
                max(r.late) for r in results)
            self.details[f"serve.{label}"] = {
                "rate": rate, "requests": [len(r.latency) for r in results],
                "part_p50_ms": [percentile(part, 0.5) for part in per_part],
                "latency_ms": [[round(x, 3) for x in part] for part in per_part],
                "failed": sum(r.failed for r in results),
                "connections": [r.connections_opened for r in results],
                "in_flight_at_end": [r.in_flight_at_end for r in results], "stats": stats,
            }
            if label == "high":
                groups = [latencies] if w.serve.tail_pooled else per_part
                tails = [percentile(group, tail_quantile(len(group))) for group in groups]
                self.e2e["serve_tail_ms.high"] = statistics.median(tails)
                self.details["serve_tail"] = {
                    "samples": [len(group) for group in groups],
                    "quantiles": [tail_quantile(len(group)) for group in groups],
                    "tails_ms": tails}
                self.layers["serve.parse_ms"] = parse["mean"]
                self.layers["serve.max_queue_depth"] = stats["max_queue_depth"]
                graphs = stats["graphs_total"]
                self.layers["serve.encode_ms_per_graph"] = 1000 * stats["encode_seconds_total"] / graphs
                self.layers["serve.similarity_ms_per_graph"] = (
                    1000 * stats["similarity_seconds_total"] / graphs
                )

    def _parse_ms(self, requests: int) -> dict:
        """parse_predict_request cost per request over a phase's bodies.

        A phase's parts run through the held-out graphs in order, so its
        ``requests`` requests carry bodies 0, 1, ... modulo their count.
        """
        per_body = []
        for body in self.bodies:
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                parse_predict_request(body)
                samples.append(time.perf_counter() - start)
            per_body.append(1000 * min(samples))
        sequence = [per_body[i % len(per_body)] for i in range(requests)]
        return {"mean": sum(sequence) / len(sequence), "p50": percentile(sequence, 0.5)}

    # -------------------------------------------------------------- checks
    def check_outputs(self) -> None:
        w = self.w
        dense, packed = self.models["dense"], self.models["packed"]
        train_dense = dense.encode(w.train_graphs)
        train_packed = packed.encode(w.train_graphs)
        if not np.array_equal(checks.pack(train_dense), train_packed):
            self.problems.append("packed training encodings are not the packing of the dense ones")
        with np.load(self.model_path, allow_pickle=True) as archive:
            rows = checks.unpack(archive["item_vectors"], w.dimension)
            basis = {int(key): row for key, row in zip(archive["item_keys"], rows)}
        sizes = [g.num_vertices for g in w.train_graphs]
        sample = sorted(set(range(6)) | set(np.argsort(sizes)[-2:].tolist()))
        for index in sample:
            graph = w.train_graphs[index]
            ranks = dense.encoder.vertex_identifiers(graph)
            self.problems += checks.check_ranks(graph, ranks)
            self.problems += checks.check_encoding(
                graph, ranks, basis, train_dense[index], train_packed[index]
            )
        sums = checks.class_sums(train_dense, w.train_labels)
        self.problems += checks.check_accumulators(dense, sums, "dense fit")
        self.problems += checks.check_accumulators(packed, sums, "packed fit")
        self.problems += checks.check_accumulators(self.stream_model, sums, "online stream")
        self.test_dense = dense.encode(w.test_graphs)
        self.test_packed = packed.encode(w.test_graphs)
        self.problems += checks.check_predictions(
            dense, self.test_dense, self.predictions["dense"], "dense predict")
        self.problems += checks.check_predictions(
            packed, checks.unpack(self.test_packed, w.dimension),
            self.predictions["packed"], "packed predict")
        self.problems += checks.check_folds(
            self.cv_result, self.dataset.labels, CV_SPLITS, CV_REPETITIONS, w.cv_margin)
        self.details["cv_accuracy"] = self.cv_result.mean_accuracy
        self.attempted += 1

    # ------------------------------------------------------ traced probes
    def probes(self) -> None:
        """Layer measurements that need calls of their own (traced run)."""
        w = self.w
        queries = {"dense": self.test_dense, "packed": self.test_packed}
        for backend in BACKENDS:
            model = self.models[backend]
            with self.rec.span(f"probe.small_batch.{backend}"):
                for i in range(0, len(w.test_graphs), STREAM_BATCH):
                    model.encode(w.test_graphs[i : i + STREAM_BATCH])
            model.classifier.decision_scores(queries[backend])
            warm = []
            for _ in range(5):
                start = time.perf_counter()
                model.classifier.decision_scores(queries[backend])
                warm.append(time.perf_counter() - start)
            self.layers[f"hdc.scores_us_per_query.{backend}"] = (
                1e6 * statistics.median(warm) / len(w.test_graphs))
            few = queries[backend][:STREAM_BATCH]
            rebuild = []
            for k in range(5):
                model.partial_fit_many(w.test_graphs[k : k + 1], w.test_labels[k : k + 1])
                start = time.perf_counter()
                model.classifier.decision_scores(few)
                first = time.perf_counter() - start
                start = time.perf_counter()
                model.classifier.decision_scores(few)
                rebuild.append(first - (time.perf_counter() - start))
            self.layers[f"hdc.reference_rebuild_ms.{backend}"] = 1000 * statistics.median(rebuild)

    def overhead(self) -> None:
        """Tracing overhead: packed fit + predict, traced model and PageRank
        against untraced ones, alternating which runs first.  Both backends
        carry the same spans per call."""
        w = self.w
        seconds = {False: [], True: []}
        for pair in range(OVERHEAD_PAIRS):
            for traced in (False, True) if pair % 2 == 0 else (True, False):
                encoding_module.pagerank_matrix = self._pagerank[traced]
                start = time.perf_counter()
                model = self.model("packed", traced)
                model.fit(w.train_graphs, w.train_labels)
                model.predict(w.test_graphs)
                seconds[traced].append(time.perf_counter() - start)
        encoding_module.pagerank_matrix = self._pagerank[True]
        self.layers["trace.overhead_pct"] = 100 * (
            statistics.median(seconds[True]) / statistics.median(seconds[False]) - 1)
        self.details["trace_overhead_seconds"] = {
            "untraced": seconds[False], "traced": seconds[True]}

    def trace_layers(self) -> None:
        rec = self.rec
        spans = rec.spans
        measured = ("round",)
        dataset_level = tuple(f"{op}.{b}" for op in ("fit", "predict") for b in BACKENDS)
        pagerank = rec.within("graphs.pagerank_matrix", measured, dataset_level)
        self.layers["graphs.pagerank_ms_per_graph"] = 1000 * sum(
            spans[i].seconds for i in pagerank) / sum(spans[i].args["items"] for i in pagerank)
        for backend in BACKENDS:
            for metric, ancestors in (
                (f"encode.ms_per_graph.{backend}",
                 (measured, (f"fit.{backend}", f"predict.{backend}"))),
                (f"encode.small_batch_ms_per_graph.{backend}",
                 ((f"probe.small_batch.{backend}",),)),
            ):
                calls = rec.within("encode.encode_many", *ancestors)
                self.layers[metric] = 1000 * sum(rec.self_seconds(i) for i in calls) / sum(
                    spans[i].args["items"] for i in calls)
            fits = rec.within("hdc.fit_state", measured, (f"fit.{backend}",))
            self.layers[f"hdc.accumulate_us_per_vector.{backend}"] = 1e6 * sum(
                spans[i].seconds for i in fits) / sum(spans[i].args["items"] for i in fits)
        encodes = rec.within("encode.encode_many", measured, dataset_level + ("cv",))
        routed = sum(
            rec.counter_total("encode.per_graph_route", spans[i].start_ns, spans[i].end_ns)
            for i in encodes
        )
        self.layers["encode.per_graph_route_share"] = routed / sum(
            spans[i].args["items"] for i in encodes)
        self.details["trace"] = {"spans": len(rec.finished()), "counters": len(rec.counters)}

    # ---------------------------------------------------------------- main
    def execute(self) -> None:
        if self.rec.enabled:
            self._trace_pagerank()
        phases = [self.setup, self.check_inputs, self.warm_up, self.measure,
                  self.stop_servers, self.check_outputs]
        if self.rec.enabled:
            phases += [self.probes, self.overhead, self.trace_layers]
        spent = self.details["phase_seconds"] = {}
        counts = self.details["phase_operations"] = {}
        for phase in phases:
            start, attempted, failed = time.perf_counter(), self.attempted, self.failed
            phase()
            spent[phase.__name__] = time.perf_counter() - start
            counts[phase.__name__] = (self.attempted - attempted, self.failed - failed)
