#!/usr/bin/env python3
"""Reference figures quoted in the README (not part of BENCHMARK.json).

    python3 perfbench/reference.py serve-split [--workload uniform]
        Client p50 of 200 sequential single-graph requests (seed 0 inputs)
        on one keep-alive connection and on a fresh connection per request,
        against the server-side p50 that /stats reports for the same
        requests.

    python3 perfbench/reference.py gin
        Train and inference time of repro.nn's GIN-e (make_method("GIN-e"),
        50 epochs) and of GraphHD dense/packed on 20 980-vertex Figure 4
        graphs (Erdős–Rényi, p = 0.05, seed 0), 90/10 split, one timing each.

Each mode prints one table and the JSON it was made from.
"""

from __future__ import annotations

import argparse
import http.client
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SEED = 0
SPLIT_REQUESTS = 200
GIN_GRAPHS = 20


def serve_split(args) -> dict:
    from repro.core import GraphHDClassifier, GraphHDConfig
    from repro.serve.client import graph_payload
    from serving import ServerProcess, percentile
    from workloads import make_workload

    w = make_workload(args.workload, SEED)
    model = GraphHDClassifier(GraphHDConfig(backend="packed"))
    model.fit(w.train_graphs, w.train_labels)
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=out))
    path = tmp / "served.npz"
    model.save(path)
    # Small graphs only: the split is about transport, not encode cost.
    bodies = [json.dumps({"graphs": [graph_payload(g)]}).encode()
              for g in w.test_graphs if g.num_vertices < 200]
    headers = {"Content-Type": "application/json"}
    result = {"workload": args.workload, "requests": SPLIT_REQUESTS}
    try:
        for mode in ("keep_alive", "fresh_connection"):
            server = ServerProcess(path, SRC, tmp, mode)
            server.start()
            try:
                latencies = []
                connection = None
                for i in range(SPLIT_REQUESTS):
                    if connection is None or mode == "fresh_connection":
                        connection = http.client.HTTPConnection(server.host, server.port)
                    start = time.perf_counter()
                    connection.request("POST", "/predict", bodies[i % len(bodies)], headers)
                    response = connection.getresponse()
                    response.read()
                    latencies.append(1000 * (time.perf_counter() - start))
                    if response.status != 200:
                        raise RuntimeError(f"HTTP {response.status}")
                    if mode == "fresh_connection":
                        connection.close()
                connection.close()
                stats = server.get("/stats")
            finally:
                server.stop()
            result[mode] = {"client_p50_ms": percentile(latencies, 0.5),
                            "server_p50_ms": stats["request_latency"]["p50_ms"],
                            "batch_p50_ms": stats["batch_latency"]["p50_ms"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{'connection':18s} {'client p50 ms':>14s} {'server p50 ms':>14s}")
    for mode in ("keep_alive", "fresh_connection"):
        print(f"{mode:18s} {result[mode]['client_p50_ms']:14.2f} "
              f"{result[mode]['server_p50_ms']:14.2f}")
    return result


def gin() -> dict:
    from repro.core import GraphHDClassifier, GraphHDConfig
    from repro.eval.methods import make_method
    from workloads import tail_graphs

    graphs = tail_graphs(980, GIN_GRAPHS, SEED)
    split = int(0.9 * len(graphs))
    train, test = graphs[:split], graphs[split:]
    labels = [g.graph_label for g in train]
    methods = {
        "GIN-e": lambda: make_method("GIN-e", seed=SEED),
        "GraphHD dense": lambda: GraphHDClassifier(GraphHDConfig(backend="dense")),
        "GraphHD packed": lambda: GraphHDClassifier(GraphHDConfig(backend="packed")),
    }
    result = {"graphs": GIN_GRAPHS, "vertices": 980, "train": len(train), "test": len(test)}
    for name, factory in methods.items():
        model = factory()
        start = time.perf_counter()
        model.fit(train, labels)
        fit_s = time.perf_counter() - start
        start = time.perf_counter()
        model.predict(test)
        predict_s = time.perf_counter() - start
        result[name] = {"train_s_per_graph": fit_s / len(train),
                        "infer_s_per_graph": predict_s / len(test)}
    print(f"{'method':16s} {'train s/graph':>14s} {'infer s/graph':>14s}")
    for name in methods:
        print(f"{name:16s} {result[name]['train_s_per_graph']:14.4f} "
              f"{result[name]['infer_s_per_graph']:14.4f}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    split = sub.add_parser("serve-split")
    split.add_argument("--workload", choices=("uniform", "longtail"), default="uniform")
    sub.add_parser("gin")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = serve_split(args) if args.mode == "serve-split" else gin()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
