"""Correctness checks, computed here apart from the program.

Each check compares the program's output with a computation made in this
file (a dense PageRank, edge-by-edge bundling, per-class sums, cosine
argmax, fold bookkeeping) or with a property of the method.  Nothing is
compared with a stored copy of earlier output.  A check returns a list of
problems; an empty list passes.
"""

from __future__ import annotations

import numpy as np

from repro.serve.schemas import json_safe_label

#: Relative slack for comparing float results of the same quantity computed
#: in a different order (PageRank values, dense cosines).
NEAR_TIE = 1e-9

def pack(bipolar: np.ndarray) -> np.ndarray:
    """Bit-pack {-1, +1} rows: -1 -> bit 1, 64 per uint64 word, LSB first."""
    bits = np.atleast_2d(bipolar) < 0
    words = -(-bits.shape[1] // 64)
    padded = np.zeros((bits.shape[0], words * 64), dtype=bool)
    padded[:, : bits.shape[1]] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view("<u8")


def unpack(words: np.ndarray, dimension: int) -> np.ndarray:
    """Inverse of :func:`pack`, as int8 {-1, +1}."""
    as_bytes = np.ascontiguousarray(np.atleast_2d(words)).astype("<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :dimension]
    return (1 - 2 * bits.astype(np.int16)).astype(np.int8)


def pagerank(num_vertices: int, edges, damping: float = 0.85, iterations: int = 10):
    """Dense power-iteration PageRank; dangling mass spreads uniformly."""
    n = num_vertices
    adjacency = np.zeros((n, n))
    for u, v in edges:
        adjacency[u, v] = adjacency[v, u] = 1.0
    degrees = adjacency.sum(axis=1)
    transition = np.divide(
        adjacency, degrees[:, None], out=np.zeros_like(adjacency), where=degrees[:, None] > 0
    )
    rank = np.full(n, 1.0 / n)
    for _ in range(iterations):
        rank = (1.0 - damping) / n + damping * (
            transition.T @ rank + rank[degrees == 0].sum() / n
        )
    return rank / rank.sum()


def check_ranks(graph, ranks) -> list[str]:
    """Program ranks must order vertices by descending PageRank."""
    ranks = np.asarray(ranks)
    n = graph.num_vertices
    if sorted(ranks.tolist()) != list(range(n)):
        return [f"ranks of a {n}-vertex graph are not a permutation of 0..{n - 1}"]
    scores = pagerank(n, graph.edges())
    by_rank = scores[np.argsort(ranks)]
    slack = NEAR_TIE * max(float(scores.max()), 1e-300)
    worst = float(np.max(by_rank[1:] - by_rank[:-1], initial=0.0))
    if worst > slack:
        return [f"{n}-vertex graph: rank order breaks PageRank order by {worst:.3g}"]
    return []


def check_encoding(graph, ranks, basis: dict, dense_row, packed_row) -> list[str]:
    """Dense row = sign of the bundled edge bindings; packed row = its packing."""
    problems = []
    ranks = np.asarray(ranks)
    rows = np.stack([basis[rank] for rank in range(graph.num_vertices)]).astype(np.int32)
    edges = np.asarray(graph.edges(), dtype=np.int64).reshape(-1, 2)
    total = np.zeros(len(dense_row), dtype=np.int64)
    for start in range(0, len(edges), 1024):
        chunk = edges[start : start + 1024]
        total += (rows[ranks[chunk[:, 0]]] * rows[ranks[chunk[:, 1]]]).sum(axis=0)
    nonzero = total != 0
    if not np.array_equal(np.sign(total[nonzero]), np.asarray(dense_row)[nonzero]):
        problems.append(
            f"{graph.num_vertices}-vertex graph: dense encoding is not the sign "
            "of its bundled edge bindings"
        )
    if not np.array_equal(pack(dense_row)[0], np.asarray(packed_row)):
        problems.append(
            f"{graph.num_vertices}-vertex graph: packed encoding is not the "
            "bit-packing of the dense one"
        )
    return problems


def class_sums(encodings: np.ndarray, labels) -> dict:
    sums = {}
    for row, label in zip(encodings, labels):
        if label not in sums:
            sums[label] = np.zeros(encodings.shape[1], dtype=np.int64)
        sums[label] += row
    return sums


def check_accumulators(model, sums: dict, what: str) -> list[str]:
    """``class_vector(label, normalized=False)`` equals the per-class sums."""
    memory = model.classifier.memory
    if set(model.classes) != set(sums):
        return [f"{what}: classes {model.classes} differ from {sorted(sums)}"]
    bad = [
        label
        for label in sums
        if not np.array_equal(memory.class_vector(label, normalized=False), sums[label])
    ]
    return [f"{what}: accumulators differ from class sums for {bad}"] if bad else []


def check_predictions(model, bipolar_queries: np.ndarray, predictions, what: str) -> list[str]:
    """Each prediction is the cosine argmax; earliest-trained class wins ties."""
    memory = model.classifier.memory
    labels = list(model.classes)
    references = np.vstack(
        [np.asarray(memory.class_vector(label), dtype=np.float64) for label in labels]
    )
    queries = np.asarray(bipolar_queries, dtype=np.float64)
    cosine = (queries @ references.T) / (
        np.linalg.norm(queries, axis=1)[:, None] * np.linalg.norm(references, axis=1)[None, :]
    )
    winners = np.argmax(cosine, axis=1)
    bad = 0
    for row, predicted in enumerate(predictions):
        if predicted == labels[winners[row]]:
            continue
        if predicted not in labels:
            bad += 1
            continue
        # An exact tie goes to the earliest class on both sides; a gap within
        # rounding may legitimately fall either way.
        if cosine[row, winners[row]] - cosine[row, labels.index(predicted)] > NEAR_TIE:
            bad += 1
    return [f"{what}: {bad} of {len(predictions)} predictions are not the cosine argmax"] if bad else []


def check_folds(result, labels, splits: int, repetitions: int, margin) -> list[str]:
    """``repetitions`` x ``splits`` folds; in each repetition the test sets
    partition the data and every fold trains on the rest; accuracy beats
    chance by ``margin`` (if not None)."""
    problems = []
    n = len(labels)
    if len(result.folds) != splits * repetitions:
        problems.append(f"{len(result.folds)} folds, not {repetitions} x {splits}")
    for repetition in range(repetitions):
        folds = [fold for fold in result.folds if fold.repetition == repetition]
        held = sorted(index for fold in folds for index in fold.test_indices)
        if len(folds) != splits or held != list(range(n)):
            problems.append(
                f"repetition {repetition}: {len(folds)} folds do not partition the data")
    uneven = [
        fold for fold in result.folds
        if fold.num_test_graphs != len(fold.test_indices)
        or fold.num_train_graphs + fold.num_test_graphs != n
    ]
    if uneven:
        problems.append(f"{len(uneven)} folds do not train on all the graphs they do not test")
    counts = np.unique(np.asarray(labels), return_counts=True)[1]
    chance = counts.max() / counts.sum()
    if margin is not None and not result.mean_accuracy > chance + margin:
        problems.append(
            f"mean accuracy {result.mean_accuracy:.3f} does not beat chance "
            f"{chance:.3f} by {margin}"
        )
    return problems


def check_served(responses, graph_index, scores, labels) -> list[str]:
    """Served top-1 label and score equal the offline decision scores."""
    bad = 0
    for body, index in zip(responses, graph_index):
        answer = body["predictions"][0]
        column = int(np.argmax(scores[index]))
        top = answer["top_k"][0]
        if (
            answer["label"] != json_safe_label(labels[column])
            or top["label"] != answer["label"]
            or top["score"] != float(scores[index, column])
        ):
            bad += 1
    return [f"{bad} of {len(responses)} served answers differ from offline scores"] if bad else []
