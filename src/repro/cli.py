"""Command-line interface for the GraphHD reproduction.

Provides a thin wrapper over the library so the main experiments can be run
without writing code::

    python -m repro.cli quickstart --dataset MUTAG --scale 0.5
    python -m repro.cli compare --datasets MUTAG PTC_FM --methods GraphHD 1-WL
    python -m repro.cli scaling --sizes 50 100 200 --num-graphs 40
    python -m repro.cli robustness --dataset MUTAG --fractions 0 0.1 0.3
    python -m repro.cli datasets
    python -m repro.cli store stats .encoding-store
    python -m repro.cli store prune .encoding-store --max-bytes 100000000
    python -m repro.cli train shard --dataset MUTAG --shard-index 0 --num-shards 2 --output s0.npz
    python -m repro.cli train merge s0.npz s1.npz --output model.npz
    python -m repro.cli train info s0.npz
    python -m repro.cli serve --model model.npz --port 8080

Every sub-command prints plain-text tables (the same renderer the benchmark
harness uses) and returns a zero exit code on success.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.core.encoding import GraphHDConfig
from repro.core.model import GraphHDClassifier
from repro.hdc.backend import BACKEND_NAMES
from repro.datasets.registry import available_datasets, load_dataset
from repro.datasets.splits import train_test_split
from repro.eval.comparison import compare_methods
from repro.eval.cross_validation import cross_validate
from repro.eval.encoding_store import EncodingStore, dataset_encodings
from repro.eval.sharded import shard_indices
from repro.hdc.training_state import TrainingState, merge_states
from repro.eval.methods import METHOD_NAMES
from repro.eval.parallel import ENV_N_JOBS, TaskPolicy
from repro.eval.reporting import render_figure3, render_series, render_table
from repro.eval.robustness import graphhd_robustness_curve
from repro.eval.scaling import scaling_experiment


def _add_backend_argument(parser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="dense",
        help="GraphHD compute backend: dense int8 bipolar (paper) or "
        "bit-packed uint64 binary (XOR/popcount, ~8x less memory)",
    )


def _add_encoding_cache_argument(parser) -> None:
    parser.add_argument(
        "--no-encoding-cache",
        dest="encoding_cache",
        action="store_false",
        help="re-encode graphs in every fold/draw instead of encoding each "
        "dataset once (the paper's timing protocol; slower, same accuracies)",
    )


def _add_parallel_arguments(parser) -> None:
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="worker processes for the evaluation harness "
        f"(default: the {ENV_N_JOBS} environment variable, or 1 = serial; "
        "0 or negative = all cores); accuracies and fold assignments are "
        "bit-identical to serial, but measured wall-clock timings reflect "
        "concurrently running workers",
    )
    parser.add_argument(
        "--encoding-store",
        metavar="PATH",
        default=None,
        help="directory of the persistent on-disk encoding store; repeated "
        "runs and sweeps load cached encodings instead of re-encoding",
    )
    parser.add_argument(
        "--clear-encoding-store",
        action="store_true",
        help="delete every entry of --encoding-store before running",
    )
    parser.add_argument(
        "--encoding-store-mmap",
        action="store_true",
        help="serve encoding-store hits as read-only memory-mapped views, so "
        "worker processes share one page-cached matrix instead of copying it "
        "(results are bit-identical either way)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any evaluation task attempt running longer than "
        "this many seconds (needs worker processes, i.e. --n-jobs > 1; "
        "default: unlimited)",
    )
    parser.add_argument(
        "--task-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a failed/timed-out/killed evaluation task up to N more "
        "times with exponential backoff before quarantining it "
        "(results stay bit-identical to an undisturbed run; default: 0)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="directory of a crash-safe result journal: completed tasks are "
        "recorded as they finish, and re-running the same command resumes "
        "from the journal, executing only unfinished tasks",
    )


def _encoding_store_from_args(args) -> tuple[EncodingStore | None, str]:
    """The persistent store selected by the CLI flags, cleared when asked.

    Returns ``(store, preamble)``; the preamble reports a requested
    ``--clear-encoding-store`` honestly (complete entries and swept
    temporary files counted separately).  The store only participates when
    the in-memory encoding cache is on; ``--no-encoding-cache`` (the paper's
    timing protocol) therefore disables it too, though
    ``--clear-encoding-store`` still clears the directory.
    """
    path = getattr(args, "encoding_store", None)
    if path is None:
        return None, ""
    store = EncodingStore(path)
    preamble = ""
    if getattr(args, "clear_encoding_store", False):
        report = store.clear()
        preamble = (
            f"cleared encoding store {store.path}: "
            f"{report.entries_removed} entries, "
            f"{report.temp_files_removed} temp files\n"
        )
    if not getattr(args, "encoding_cache", True):
        return None, preamble
    return store, preamble


def _mmap_mode_from_args(args) -> str | None:
    """The store mmap policy selected by ``--encoding-store-mmap``."""
    return "r" if getattr(args, "encoding_store_mmap", False) else None


def _task_policy_from_args(args) -> TaskPolicy | None:
    """The fault-tolerance policy selected by the CLI flags (None = default)."""
    timeout = getattr(args, "task_timeout", None)
    retries = getattr(args, "task_retries", 0) or 0
    checkpoint = getattr(args, "checkpoint", None)
    if timeout is None and retries == 0 and checkpoint is None:
        return None
    return TaskPolicy(timeout=timeout, retries=retries, checkpoint_dir=checkpoint)


def _store_summary(store: EncodingStore | None) -> str:
    """One-line persistent-store report appended to a command's output."""
    if store is None:
        return ""
    stats = store.stats
    return (
        f"\nencoding store {store.path}: hits={stats['hits']} "
        f"misses={stats['misses']} entries={stats['entries']}"
    )


def _add_quickstart_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "quickstart", help="cross-validate GraphHD on one benchmark dataset"
    )
    parser.add_argument("--dataset", default="MUTAG", help="benchmark dataset name")
    parser.add_argument("--scale", type=float, default=0.5, help="dataset subsample fraction")
    parser.add_argument("--dimension", type=int, default=10_000, help="hypervector dimensionality")
    parser.add_argument("--folds", type=int, default=5, help="number of cross-validation folds")
    parser.add_argument("--seed", type=int, default=0)
    _add_backend_argument(parser)
    _add_encoding_cache_argument(parser)
    _add_parallel_arguments(parser)


def _add_compare_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "compare", help="compare methods on benchmark datasets (Figure 3)"
    )
    parser.add_argument("--datasets", nargs="+", default=["MUTAG", "PTC_FM"])
    parser.add_argument("--methods", nargs="+", default=list(METHOD_NAMES))
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--folds", type=int, default=3)
    parser.add_argument("--repetitions", type=int, default=1)
    parser.add_argument("--dimension", type=int, default=10_000)
    parser.add_argument("--fast", action="store_true", help="use reduced baseline settings")
    parser.add_argument("--seed", type=int, default=0)
    _add_backend_argument(parser)
    _add_encoding_cache_argument(parser)
    _add_parallel_arguments(parser)


def _add_scaling_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "scaling", help="training time vs. graph size sweep (Figure 4)"
    )
    parser.add_argument("--sizes", nargs="+", type=int, default=[50, 100, 200, 400])
    parser.add_argument("--num-graphs", type=int, default=40)
    parser.add_argument("--methods", nargs="+", default=["GraphHD", "GIN-e", "WL-OA"])
    parser.add_argument("--edge-probability", type=float, default=0.05)
    parser.add_argument("--dimension", type=int, default=10_000)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    _add_backend_argument(parser)
    _add_encoding_cache_argument(parser)
    _add_parallel_arguments(parser)


def _add_robustness_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "robustness", help="accuracy under corrupted class hypervectors"
    )
    parser.add_argument("--dataset", default="MUTAG")
    parser.add_argument("--scale", type=float, default=0.35)
    parser.add_argument(
        "--fractions",
        nargs="+",
        type=float,
        default=[0.0, 0.1, 0.2, 0.3, 0.4],
        help="fractions of corrupted class-vector components",
    )
    parser.add_argument("--dimension", type=int, default=10_000)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    _add_backend_argument(parser)
    _add_encoding_cache_argument(parser)
    _add_parallel_arguments(parser)


def _add_datasets_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "datasets", help="list the available benchmark datasets"
    )
    # Accepted for CLI uniformity; listing datasets is backend-independent.
    _add_backend_argument(parser)


def _add_store_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "store", help="manage a persistent encoding store directory"
    )
    actions = parser.add_subparsers(dest="store_action", required=True)

    list_parser = actions.add_parser(
        "list", help="list every entry with size, format and access times"
    )
    stats_parser = actions.add_parser(
        "stats", help="aggregate store statistics (entries, bytes, formats)"
    )
    prune_parser = actions.add_parser(
        "prune", help="evict entries by LRU size bound and/or age horizon"
    )
    prune_parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="evict least-recently-used entries until the store fits this "
        "many bytes",
    )
    prune_parser.add_argument(
        "--max-age",
        type=float,
        default=None,
        help="evict entries last accessed more than this many seconds ago",
    )
    prune_parser.add_argument(
        "--policy",
        choices=["lru"],
        default="lru",
        help="eviction order (only least-recently-used is implemented)",
    )
    clear_parser = actions.add_parser(
        "clear", help="delete every entry and stray temporary file"
    )
    migrate_parser = actions.add_parser(
        "migrate",
        help="rewrite legacy compressed .npz entries into the "
        "uncompressed, mmap-able format",
    )
    for action_parser in (
        list_parser,
        stats_parser,
        prune_parser,
        clear_parser,
        migrate_parser,
    ):
        action_parser.add_argument("path", help="encoding store directory")


def _add_train_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "train",
        help="sharded map-reduce training: accumulate shard states, merge "
        "them into a model (bit-identical to single-shot training)",
    )
    actions = parser.add_subparsers(dest="train_action", required=True)

    shard_parser = actions.add_parser(
        "shard",
        help="train one shard of a dataset into a mergeable TrainingState",
    )
    shard_parser.add_argument("--dataset", default="MUTAG", help="benchmark dataset name")
    shard_parser.add_argument(
        "--scale", type=float, default=0.5, help="dataset subsample fraction"
    )
    shard_parser.add_argument(
        "--dimension", type=int, default=10_000, help="hypervector dimensionality"
    )
    shard_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="basis seed; shards merge only when trained with the same seed",
    )
    shard_parser.add_argument(
        "--shard-index", type=int, required=True, help="which shard to train (0-based)"
    )
    shard_parser.add_argument(
        "--num-shards", type=int, required=True, help="total number of shards"
    )
    shard_parser.add_argument(
        "--output", required=True, help="path of the .npz training-state file to write"
    )
    _add_backend_argument(shard_parser)
    _add_parallel_arguments(shard_parser)

    merge_parser = actions.add_parser(
        "merge",
        help="merge shard TrainingStates and save the resulting model",
    )
    merge_parser.add_argument(
        "states", nargs="+", help="shard .npz training-state files, in shard order"
    )
    merge_parser.add_argument(
        "--output", required=True, help="path of the model .npz archive to write"
    )
    merge_parser.add_argument(
        "--state-output",
        default=None,
        help="optionally also save the merged TrainingState itself",
    )
    merge_parser.add_argument(
        "--metric", default="cosine", help="similarity metric of the saved model"
    )

    info_parser = actions.add_parser(
        "info", help="summarize a saved TrainingState file"
    )
    info_parser.add_argument("path", help=".npz training-state file")


def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="serve a saved model over HTTP with micro-batched inference "
        "(POST /predict, GET /healthz, GET /stats, POST /reload)",
    )
    parser.add_argument(
        "--model",
        required=True,
        help="path of a trained GraphHDClassifier .npz archive "
        "(GraphHDClassifier.save or `repro train merge`); train with "
        "--backend packed for the fastest popcount inference hot path. "
        "POST /reload may only name archives under this archive's directory",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every request line"
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser for ``python -m repro.cli``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphHD reproduction: graph classification with hyperdimensional computing",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_quickstart_parser(subparsers)
    _add_compare_parser(subparsers)
    _add_scaling_parser(subparsers)
    _add_robustness_parser(subparsers)
    _add_datasets_parser(subparsers)
    _add_store_parser(subparsers)
    _add_train_parser(subparsers)
    _add_serve_parser(subparsers)
    return parser


def run_quickstart(args) -> str:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    store, preamble = _encoding_store_from_args(args)
    result = cross_validate(
        lambda: GraphHDClassifier(
            GraphHDConfig(
                dimension=args.dimension, seed=args.seed, backend=args.backend
            )
        ),
        dataset,
        method_name="GraphHD",
        n_splits=args.folds,
        repetitions=1,
        seed=args.seed,
        encoding_cache=args.encoding_cache,
        n_jobs=args.n_jobs,
        encoding_store=store,
        mmap_mode=_mmap_mode_from_args(args),
        task_policy=_task_policy_from_args(args),
    )
    rows = [
        ["dataset", dataset.name],
        ["graphs", len(dataset)],
        ["classes", dataset.num_classes],
        ["accuracy (mean)", round(result.mean_accuracy, 4)],
        ["accuracy (std)", round(result.std_accuracy, 4)],
        ["train seconds/fold", round(result.mean_train_seconds, 4)],
        ["inference seconds/graph", round(result.mean_inference_seconds_per_graph, 6)],
    ]
    if result.encoding_cached:
        rows.append(["encode-once seconds", round(result.encoding_seconds, 4)])
        if store is not None:
            rows.append(
                ["encoding store", "hit" if result.encoding_store_hit else "miss"]
            )
    return preamble + render_table(
        ["metric", "value"], rows, title="GraphHD quickstart"
    ) + _store_summary(store)


def run_compare(args) -> str:
    datasets = [
        load_dataset(name, scale=args.scale, seed=args.seed) for name in args.datasets
    ]
    store, preamble = _encoding_store_from_args(args)
    comparison = compare_methods(
        datasets,
        methods=tuple(args.methods),
        fast=args.fast,
        n_splits=args.folds,
        repetitions=args.repetitions,
        seed=args.seed,
        dimension=args.dimension,
        backend=args.backend,
        encoding_cache=args.encoding_cache,
        n_jobs=args.n_jobs,
        encoding_store=store,
        mmap_mode=_mmap_mode_from_args(args),
        task_policy=_task_policy_from_args(args),
    )
    output = preamble + render_figure3(comparison)
    # With the encoding cache, per-fold training time excludes encoding; show
    # the one-off encode cost alongside so the timing panel stays honest.
    # encoding_store_hit is recorded per result, so the report stays accurate
    # when the grid cells encoded inside worker processes.
    cached_rows = [
        [
            dataset,
            method,
            round(result.encoding_seconds, 4),
            ("hit" if result.encoding_store_hit else "miss") if store else "-",
        ]
        for (dataset, method), result in comparison.results.items()
        if result.encoding_cached
    ]
    if cached_rows:
        output += "\n\n" + render_table(
            ["dataset", "method", "encode-once seconds", "store"],
            cached_rows,
            title="Encoding cache: dataset encoded once per method "
            "(excluded from per-fold training time)",
        )
    store_hits = sum(
        result.encoding_store_hit for result in comparison.results.values()
    )
    if store is not None:
        output += (
            f"\nencoding store {store.path}: hits={store_hits} "
            f"misses={len(cached_rows) - store_hits} entries={len(store)}"
        )
    return output


def run_scaling(args) -> str:
    store, preamble = _encoding_store_from_args(args)
    points = scaling_experiment(
        args.sizes,
        methods=tuple(args.methods),
        num_graphs=args.num_graphs,
        edge_probability=args.edge_probability,
        fast=args.fast,
        seed=args.seed,
        dimension=args.dimension,
        backend=args.backend,
        encoding_cache=args.encoding_cache,
        n_jobs=args.n_jobs,
        encoding_store=store,
        mmap_mode=_mmap_mode_from_args(args),
        task_policy=_task_policy_from_args(args),
    )
    series = {
        method: [round(point.train_seconds[method], 4) for point in points]
        for method in args.methods
    }
    if args.encoding_cache:
        for method in args.methods:
            encode_series = [
                round(point.encode_seconds.get(method, 0.0), 4) for point in points
            ]
            if any(encode_series):
                series[f"{method} (encode)"] = encode_series
    output = preamble + render_series(
        [point.num_vertices for point in points],
        series,
        x_name="vertices",
        title="Training time in seconds vs. graph size (Figure 4)",
    )
    if store is not None:
        hits = sum(
            sum(point.encoding_store_hit.values()) for point in points
        )
        totals = sum(len(point.encoding_store_hit) for point in points)
        output += (
            f"\nencoding store {store.path}: hits={hits} "
            f"misses={totals - hits} entries={len(store)}"
        )
    return output


def run_robustness(args) -> str:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    store, preamble = _encoding_store_from_args(args)
    train_indices, test_indices = train_test_split(
        dataset.labels, test_fraction=0.25, seed=args.seed
    )
    curve = graphhd_robustness_curve(
        lambda: GraphHDClassifier(
            GraphHDConfig(
                dimension=args.dimension, seed=args.seed, backend=args.backend
            )
        ),
        [dataset.graphs[i] for i in train_indices],
        [dataset.labels[i] for i in train_indices],
        [dataset.graphs[i] for i in test_indices],
        [dataset.labels[i] for i in test_indices],
        corruption_fractions=args.fractions,
        repetitions=args.repetitions,
        seed=args.seed,
        encoding_cache=args.encoding_cache,
        n_jobs=args.n_jobs,
        encoding_store=store,
        mmap_mode=_mmap_mode_from_args(args),
        task_policy=_task_policy_from_args(args),
    )
    rows = [
        [f"{point.corruption_fraction:.0%}", round(point.accuracy, 4)]
        for point in curve.points
    ]
    return preamble + render_table(
        ["corrupted components", "accuracy"],
        rows,
        title=f"GraphHD robustness on {dataset.name}",
    ) + _store_summary(store)


def run_datasets(args) -> str:
    rows = [[name] for name in available_datasets()]
    return render_table(["dataset"], rows, title="Available benchmark datasets")


def _format_timestamp(stamp: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(stamp))


def run_store(args) -> str:
    store = EncodingStore(args.path)
    if args.store_action == "list":
        manifest = store.manifest()
        rows = [
            [
                info.key[:16],
                info.format,
                info.size_bytes,
                _format_timestamp(info.created_at),
                _format_timestamp(info.last_access_at),
            ]
            for info in sorted(
                manifest.values(), key=lambda info: info.last_access_at
            )
        ]
        return render_table(
            ["key", "format", "bytes", "created", "last access"],
            rows,
            title=f"Encoding store {store.path} ({len(rows)} entries)",
        )
    if args.store_action == "stats":
        stats = store.stats
        rows = [
            ["entries", stats["entries"]],
            ["total bytes", stats["total_bytes"]],
            ["legacy (.npz) entries", stats["legacy_entries"]],
            ["mmap-able (.npy) entries", stats["entries"] - stats["legacy_entries"]],
            ["stray temp files", stats["temp_files"]],
        ]
        return render_table(
            ["metric", "value"], rows, title=f"Encoding store {store.path}"
        )
    if args.store_action == "prune":
        if args.max_bytes is None and args.max_age is None:
            raise SystemExit(
                "repro store prune: at least one of --max-bytes / --max-age "
                "is required"
            )
        report = store.prune(
            max_bytes=args.max_bytes, max_age=args.max_age, policy=args.policy
        )
        return (
            f"pruned encoding store {store.path}: "
            f"removed {report.entries_removed} entries "
            f"({report.bytes_freed} bytes), "
            f"{report.entries_remaining} entries "
            f"({report.bytes_remaining} bytes) remain"
        )
    if args.store_action == "clear":
        report = store.clear()
        return (
            f"cleared encoding store {store.path}: "
            f"{report.entries_removed} entries, "
            f"{report.temp_files_removed} temp files"
        )
    if args.store_action == "migrate":
        migrated = store.migrate()
        return (
            f"migrated encoding store {store.path}: "
            f"{migrated} legacy entries rewritten to the mmap-able format"
        )
    raise ValueError(f"unknown store action {args.store_action!r}")


def _run_train_shard(args) -> str:
    if args.num_shards < 1:
        raise SystemExit(
            f"repro train shard: --num-shards must be positive, got {args.num_shards}"
        )
    if not 0 <= args.shard_index < args.num_shards:
        raise SystemExit(
            f"repro train shard: --shard-index must be in [0, {args.num_shards}), "
            f"got {args.shard_index}"
        )
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    store, preamble = _encoding_store_from_args(args)
    model = GraphHDClassifier(
        GraphHDConfig(dimension=args.dimension, seed=args.seed, backend=args.backend)
    )
    block = shard_indices(len(dataset), args.num_shards)[args.shard_index]
    if block.size == 0:
        raise SystemExit(
            f"repro train shard: shard {args.shard_index} of {args.num_shards} is "
            f"empty ({len(dataset)} graphs); use fewer shards"
        )
    labels = [dataset.labels[i] for i in block]
    if store is not None:
        # Encode the whole dataset through the persistent store, so every
        # shard process shares one cached entry instead of re-encoding.
        encodings, _ = dataset_encodings(
            model,
            dataset.graphs,
            store,
            fingerprint=dataset.fingerprint(),
            mmap_mode=_mmap_mode_from_args(args),
        )
        state = model.fit_state_encoded(encodings[block], labels)
    else:
        state = model.fit_state([dataset.graphs[i] for i in block], labels)
    state.save(args.output)
    rows = [
        ["dataset", dataset.name],
        ["shard", f"{args.shard_index + 1}/{args.num_shards}"],
        ["graphs in shard", int(block.size)],
        ["classes in shard", len(state.classes)],
        ["dimension", state.dimension],
        ["backend", state.backend.name],
        ["state file", args.output],
    ]
    return (
        preamble
        + render_table(["field", "value"], rows, title="Trained shard state")
        + _store_summary(store)
    )


def _run_train_merge(args) -> str:
    states = [TrainingState.load(path) for path in args.states]
    merged = merge_states(states)
    context = merged.context
    if context is None or context.get("encoder") != "GraphHDEncoder":
        raise SystemExit(
            "repro train merge: the merged state carries no GraphHDEncoder "
            "context, so the model configuration cannot be reconstructed; "
            "merge states produced by `repro train shard` or "
            "GraphHDClassifier.fit_state"
        )
    model = GraphHDClassifier(GraphHDConfig(**context["config"]), metric=args.metric)
    model.fit_from_state(merged)
    model.save(args.output)
    if args.state_output is not None:
        merged.save(args.state_output)
    rows = [
        ["shards merged", len(states)],
        ["classes", len(merged.classes)],
        ["training samples", merged.num_samples],
        ["dimension", merged.dimension],
        ["backend", merged.backend.name],
        ["model file", args.output],
    ]
    if args.state_output is not None:
        rows.append(["merged state file", args.state_output])
    return render_table(["field", "value"], rows, title="Merged sharded model")


def _run_train_info(args) -> str:
    state = TrainingState.load(args.path)
    context = state.context or {}
    config = context.get("config", {})
    rows = [
        ["dimension", state.dimension],
        ["backend", state.backend.name],
        ["classes", len(state.classes)],
        ["training samples", state.num_samples],
        ["encoder", context.get("encoder", "-")],
        ["seed", config.get("seed", "-")],
        ["centrality", config.get("centrality", "-")],
    ]
    rows += [
        [f"count[{label!r}]", state.count(label)] for label in state.classes
    ]
    return render_table(
        ["field", "value"], rows, title=f"TrainingState {args.path}"
    )


def run_serve(args) -> str:
    """Start the batched inference service and block until interrupted."""
    # Imported lazily so the serving stack only loads for this command.
    from repro.serve.app import create_server, run_server

    server = create_server(
        args.model, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    handle = server.service.manager.current()
    rows = [
        ["address", f"http://{host}:{port}"],
        ["model", handle.path],
        ["model version", handle.version],
        ["backend", handle.model.config.backend],
        ["dimension", handle.model.config.dimension],
        ["classes", handle.num_classes],
        ["metric", handle.model.metric],
        ["endpoints", "POST /predict, GET /healthz, GET /stats, POST /reload"],
    ]
    print(render_table(["field", "value"], rows, title="repro serve"), flush=True)
    run_server(server)
    return f"server on http://{host}:{port} stopped"


def run_train(args) -> str:
    if args.train_action == "shard":
        return _run_train_shard(args)
    if args.train_action == "merge":
        return _run_train_merge(args)
    if args.train_action == "info":
        return _run_train_info(args)
    raise ValueError(f"unknown train action {args.train_action!r}")


_COMMANDS = {
    "quickstart": run_quickstart,
    "compare": run_compare,
    "scaling": run_scaling,
    "robustness": run_robustness,
    "datasets": run_datasets,
    "store": run_store,
    "train": run_train,
    "serve": run_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro.cli`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "clear_encoding_store", False) and not getattr(
        args, "encoding_store", None
    ):
        parser.error("--clear-encoding-store requires --encoding-store PATH")
    output = _COMMANDS[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
