#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload uniform --seed 0 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Full results (and, when traced, a Chrome trace-event file)
go to ``--out``, which is git-ignored.  Exit status is 0 only when the run
finished and every correctness check passed.

    python3 perfbench/run.py --toy --workload longtail --seed 0 --seconds 3 --trace 1
        a smoke run at toy size (seconds)
    python3 perfbench/run.py --fingerprints 0-19
        prints the README's input fingerprint table
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"

#: The run and its servers use one BLAS thread, as cross-validation runs
#: with n_jobs=1: on a 2-core shared host a second thread measured the
#: scheduler.  With numpy's default two OpenBLAS threads, the folds of a
#: uniform cross-validation took ~0.23 s or ~0.65 s, depending on whether
#: the servers had just been busy; with one thread, 0.21-0.26 s every time.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _fingerprint_rows(seeds: list[int]) -> str:
    from workloads import canary_fingerprint, make_workload

    rows = [f"| canary | - | {canary_fingerprint()} |"]
    for name in ("uniform", "longtail"):
        rows += [f"| {name} | {seed} | {make_workload(name, seed).fingerprint()} |"
                 for seed in seeds]
    return "\n".join(rows)


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("uniform", "longtail"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "perfbench",
                        help="directory for full results and traces")
    parser.add_argument("--toy", action="store_true", help="toy-size smoke run")
    parser.add_argument("--fingerprints", metavar="A-B",
                        help="print the input fingerprint table for seeds A..B")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not CONTRACT.is_file():
        print(f"error: {SRC / 'repro'} or {CONTRACT} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_THREADS)  # before numpy loads; servers inherit it
    if args.fingerprints:
        print(_fingerprint_rows(_seeds(args.fingerprints)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    signal.signal(signal.SIGTERM, _stop)
    args.out.mkdir(parents=True, exist_ok=True)

    from bench import Run

    args.seconds = args.seconds or contract["run_seconds"]
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.out, SRC, args.toy)
    try:
        run.execute()
    finally:
        run.close()

    measured = {**run.e2e, **run.layers}
    problems = list(run.problems)
    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None:
            problems.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    if run.rec.enabled:
        run.rec.write_chrome_trace(args.out / f"{stem}.trace.json",
                                   {"workload": args.workload, "seed": args.seed})
    with open(args.out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "toy": args.toy, "problems": problems,
                   "attempted": run.attempted, "failed": run.failed,
                   "end_to_end": run.e2e, "per_layer": run.layers,
                   "details": run.details}, handle, indent=1, default=str)

    for phase, (attempted, failed) in run.details["phase_operations"].items():
        if attempted:
            print(f"phase {phase:14s} attempted {attempted:6d}  failed {failed}")
    for label in ("low", "high"):
        print(f"generator ran up to {run.layers[f'serve.generator_late_ms.{label}']:.1f} ms "
              f"late in the {label}-rate phase")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
