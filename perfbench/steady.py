#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs per workload.

    python3 perfbench/steady.py --runs 10

For each workload, runs ``run.py`` 2 x ``--runs`` times, alternating set A
and set B (A B B A A B ...), every run with its own seed (0, 1, 2, ...).
Prints, per end-to-end metric, each set's median and quartiles, the spread
(quartile distance over the median), and whether the sets agree: each
spread within the metric's bound and set B's median no worse than set A's
by more than the bound.  The failed share of operations must be identical
across the sets.  Exits 1 when the sets do not agree.  ``--markdown``
prints the README's table of an earlier summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, out: Path) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0", "--out", str(out)]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} failed ({completed.returncode}):\n"
                           f"{completed.stdout[-2000:]}\n{completed.stderr[-3000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def compare(metric: dict, a: list[float], b: list[float]) -> dict:
    sa, sb = summary(a), summary(b)
    change = (sb["median"] - sa["median"]) / sa["median"]
    worse = change if metric["better"] == "lower" else -change
    spread_ok = max(sa["spread"], sb["spread"]) <= metric["bound"]
    return {"a": sa, "b": sb, "change": change,
            "agree": spread_ok and worse <= metric["bound"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "perfbench")
    parser.add_argument("--markdown", type=Path, metavar="SUMMARY_JSON",
                        help="print the README table of an earlier summary and exit")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = contract["end_to_end"]
    if args.markdown:
        print(markdown(json.loads(args.markdown.read_text()), metrics))
        return 0
    args.out.mkdir(parents=True, exist_ok=True)

    report = {"seconds": contract["run_seconds"], "runs": args.runs, "workloads": {}}
    agree = True
    for workload in [w["name"] for w in contract["workloads"]]:
        seed = 0
        sets = {"A": [], "B": []}
        broken = []
        for index in range(args.runs):
            order = ("A", "B") if index % 2 == 0 else ("B", "A")
            for name in order:
                try:
                    result = run_once(workload, seed, args.out)
                except RuntimeError as error:
                    print(error, flush=True)
                    broken.append(seed)
                    seed += 1
                    continue
                result["seed"] = seed
                sets[name].append(result)
                seed += 1
                print(f"{workload} set {name} seed {result['seed']}: "
                      f"correct={result['correct']} failed={result['failed']}/"
                      f"{result['attempted']}", flush=True)
        rows = {}
        print(f"\n{workload}: metric, set A median [q1, q3] spread | set B ... | change agree")
        for metric in metrics:
            name = metric["name"]
            row = compare(metric, *[[r["metrics"][name]["value"] for r in sets[s]]
                                    for s in ("A", "B")])
            rows[name] = row
            agree &= row["agree"]
            print(f"  {name:30s} " + " | ".join(
                f"{row[s]['median']:10.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}] "
                f"{100 * row[s]['spread']:5.1f}%" for s in ("a", "b"))
                + f" | {100 * row['change']:+6.1f}% {'ok' if row['agree'] else 'DIFFER'}"
                + f" (bound {100 * metric['bound']:.0f}%)")
        shares = {s: sorted({r["failed"] / r["attempted"] for r in sets[s]}) for s in sets}
        all_correct = not broken and all(r["correct"] for s in sets for r in sets[s])
        same_failures = shares["A"] == shares["B"] and len(shares["A"]) == 1
        agree &= all_correct and same_failures
        print(f"  failed share A {shares['A']} B {shares['B']}; all correct: {all_correct}")
        report["workloads"][workload] = {
            "metrics": rows, "failed_share": shares, "all_correct": all_correct,
            "seeds": {s: [r["seed"] for r in sets[s]] for s in sets},
            "broken_runs": broken,
        }
        report["agree"] = agree
        path = args.out / "steady-summary.json"
        path.write_text(json.dumps(report, indent=1))
    print(f"\nsets agree: {agree} (summary: {path})")
    return 0 if agree else 1


def markdown(report: dict, metrics: list[dict]) -> str:
    lines = ["| workload | metric | unit | set A median [q1, q3] | set B median [q1, q3] "
             "| spread A / B | change | bound |", "|---|---|---|---|---|---|---|---|"]
    for workload, data in report["workloads"].items():
        for metric in metrics:
            row = data["metrics"][metric["name"]]
            cells = [f"{row[s]['median']:.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}]"
                     for s in ("a", "b")]
            lines.append(
                f"| {workload} | `{metric['name']}` | {metric['unit']} | {cells[0]} | "
                f"{cells[1]} | {100 * row['a']['spread']:.1f}% / "
                f"{100 * row['b']['spread']:.1f}% | {100 * row['change']:+.1f}% | "
                f"{100 * metric['bound']:.0f}% |")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
