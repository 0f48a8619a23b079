"""Workload inputs of the benchmark, made from a seed.

Both workloads hold 600 Table I-shaped graphs, split 480 for training and
120 held out.  ``longtail`` adds five Figure 4 graphs (Erdős–Rényi, 980
vertices) placed four in training and one held out, so both splits carry the
same share of them.

* ``uniform`` — ENZYMES-shaped (6 classes, ~33 vertices).  Graphs of 116 or
  more vertices are left out, so the encoder's rank-pair-table pre-gate
  never trips on a dataset-level batch.
* ``longtail`` — NCI1-shaped (2 classes, ~30 vertices) plus the tail.  Every
  batch that holds a tail graph takes the per-graph encoding route.

The program only ever sees the generated graphs; the seed stays here.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets.dataset import graphs_fingerprint
from repro.datasets.synthetic import make_benchmark_dataset
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.graph import Graph

#: Smallest vertex count for which a batch's pair table fails the encoder's
#: size pre-gate at d = 10,000 (116 * 117 / 2 pairs * 40 kB > 256 MiB).
PRE_GATE_VERTICES = 116

SMALL_GRAPHS = 600
HELD_OUT_EVERY = 5  # every fifth small graph is held out: 480 / 120
TAIL_GRAPHS = 5
TAIL_VERTICES = 980
TAIL_EDGE_PROBABILITY = 0.05

#: Seed of the canary inputs whose fingerprint the README records.
CANARY_SEED = 20240601

README = Path(__file__).resolve().parent / "README.md"


#: Open-loop request rates (req/s) of the low- and high-rate serving phases.
#: At the low rate a keep-alive connection idles ~90 ms between requests; at
#: the high rate connections are reused within the 40 ms delayed-ACK window.
#: At 120 req/s the high-rate p50 and tail moved with the host's speed: on
#: longtail each 980-vertex request held up ~65 of every 242 requests, and
#: on uniform the tail spread 22-35% over runs of the same code.
LOW_RPS = 10
HIGH_RPS = 60


@dataclass
class ServePlan:
    """Latency limit (ms), rate ladder (req/s) and high-rate parts of one workload."""

    limit_ms: float
    ladder_rps: tuple[float, ...]
    #: Passes over the held-out graphs in each round's high-rate part.
    high_part_passes: int
    #: ``serve_tail_ms.high`` over all the run's high-rate requests (True),
    #: or the median over the parts of each part's tail (False).  On
    #: ``longtail`` the tail is the 980-vertex requests (one per pass) and
    #: the requests queued behind them.  A part of two passes held two, and
    #: its tail fell on the falling edges of their backlogs, wherever the
    #: arrivals happened to put it: the per-part median spread 17% over five
    #: runs, the pooled tail (six such requests) 7% over the same runs.
    #: Three passes a part give the pooled tail nine of them.  On
    #: ``uniform`` the tail is set by the host's stalls, which the per-part
    #: median rides out: 8-9% against 12-18% pooled over the same runs.
    tail_pooled: bool


@dataclass
class Workload:
    name: str
    seed: int
    dimension: int
    train_graphs: list[Graph]
    train_labels: list
    test_graphs: list[Graph]
    test_labels: list
    serve: ServePlan
    #: Mean CV accuracy must exceed the majority-class share by this much
    #: (None: not checked).  Over seeds 0-29 the excess was at least 0.22 on
    #: uniform but as low as 0.005 on longtail, whose NCI1-shaped classes
    #: overlap so much that only accuracy well below chance (swapped labels
    #: score ~0.43) can be ruled out there.
    cv_margin: float | None

    @property
    def all_graphs(self) -> list[Graph]:
        return self.train_graphs + self.test_graphs

    def fingerprint(self) -> str:
        return graphs_fingerprint(self.all_graphs)


#: The ladder climbs from the lowest rung.  Today's capacity on a 2-core
#: host sits between two rungs with room on either side, so the metric
#: rarely flips between runs: a uniform rung of 540 req/s met the limit in
#: one run of five and missed it in four, and a uniform rung of 300 req/s,
#: met by every request in 20 runs, missed it in a run on a slow spell of
#: the host (51% within); a longtail rung of 150 req/s met it with every
#: request of every run while 450 never did.  Climbing keeps the overloaded
#: top rung from running just before the one that is measured: after a
#: 900 req/s rung, the 300 req/s rung met the limit with 81.6-100% of its
#: requests.
SERVE_PLANS = {
    "uniform": ServePlan(limit_ms=250, ladder_rps=(100, 200, 900),
                         high_part_passes=2, tail_pooled=False),
    "longtail": ServePlan(limit_ms=600, ladder_rps=(50, 150, 450),
                          high_part_passes=3, tail_pooled=True),
    "toy": ServePlan(limit_ms=1000, ladder_rps=(20, 40), high_part_passes=2,
                     tail_pooled=True),
}


CV_MARGINS = {"uniform": 0.15, "longtail": -0.05}


def _split(graphs: list[Graph]) -> tuple[list[Graph], list[Graph]]:
    train = [g for i, g in enumerate(graphs) if i % HELD_OUT_EVERY != HELD_OUT_EVERY - 1]
    test = [g for i, g in enumerate(graphs) if i % HELD_OUT_EVERY == HELD_OUT_EVERY - 1]
    return train, test


def _small_graphs(dataset: str, count: int, seed: int) -> list[Graph]:
    """``count`` graphs of a Table I shape, all below the pre-gate size."""
    full = {"ENZYMES": 600, "NCI1": 4110}[dataset]
    scale = 1.05 * count / full
    graphs = [
        graph
        for graph in make_benchmark_dataset(dataset, scale=scale, seed=seed).graphs
        if graph.num_vertices < PRE_GATE_VERTICES
    ]
    if len(graphs) < count:
        raise RuntimeError(
            f"{dataset} seed {seed}: only {len(graphs)} graphs below "
            f"{PRE_GATE_VERTICES} vertices, need {count}"
        )
    return graphs[:count]


def tail_graphs(vertices: int, count: int, seed) -> list[Graph]:
    """Figure 4 graphs at one density, so every seed has the same tail cost."""
    rng = np.random.default_rng(seed)
    return [
        erdos_renyi_graph(vertices, TAIL_EDGE_PROBABILITY, rng=rng, graph_label=i % 2)
        for i in range(count)
    ]


def make_workload(name: str, seed: int, *, toy: bool = False) -> Workload:
    """Generate the inputs of one workload from ``seed``.

    ``toy`` shrinks everything (80 graphs, tail of 120-vertex graphs,
    d = 512) so a smoke run of the harness takes seconds.
    """
    count = 80 if toy else SMALL_GRAPHS
    tail_vertices = 120 if toy else TAIL_VERTICES
    if name == "uniform":
        small = _small_graphs("ENZYMES", count, seed)
        tail: list[Graph] = []
    elif name == "longtail":
        small = _small_graphs("NCI1", count, seed)
        tail = tail_graphs(tail_vertices, TAIL_GRAPHS, seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    small_train, small_test = _split(small)
    # Four tail graphs train, one is held out: equal tail shares on both sides.
    train = small_train + tail[:-1] if tail else small_train
    # The held-out tail graph sits mid-way, so each served cycle meets it once.
    test = list(small_test)
    if tail:
        test.insert(len(test) // 2, tail[-1])
    return Workload(
        name=name,
        seed=seed,
        dimension=512 if toy else 10_000,
        train_graphs=train,
        train_labels=[g.graph_label for g in train],
        test_graphs=test,
        test_labels=[g.graph_label for g in test],
        serve=SERVE_PLANS["toy" if toy else name],
        # Eighty toy graphs at d = 512 carry too little signal for a margin.
        cv_margin=None if toy else CV_MARGINS[name],
    )


def canary_fingerprint() -> str:
    """Hash of small fixed-seed draws from every generator the workloads use.

    A change to ``repro.datasets`` that alters the workloads' inputs alters
    this hash too, whatever seed a run uses.
    """
    digest = hashlib.sha256()
    for graphs in (
        make_benchmark_dataset("ENZYMES", scale=0.05, seed=CANARY_SEED).graphs,
        make_benchmark_dataset("NCI1", scale=0.01, seed=CANARY_SEED).graphs,
        tail_graphs(TAIL_VERTICES, 1, CANARY_SEED),
    ):
        digest.update(graphs_fingerprint(graphs).encode())
    return digest.hexdigest()


_ROW = re.compile(r"^\|\s*(canary|uniform|longtail)\s*\|\s*(\S+)\s*\|\s*([0-9a-f]{64})\s*\|")


def recorded_fingerprints() -> dict[tuple[str, str], str]:
    """``(workload, seed) -> sha256`` rows of the README's fingerprint table."""
    rows = {}
    if README.exists():
        for line in README.read_text(encoding="utf-8").splitlines():
            match = _ROW.match(line)
            if match:
                rows[(match.group(1), match.group(2))] = match.group(3)
    return rows
