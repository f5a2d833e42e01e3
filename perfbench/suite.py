#!/usr/bin/env python3
"""Run the benchmark's workloads over several seeds, and compare result sets.

    python3 perfbench/suite.py run [--workloads A,B] [--seeds 1-10] [--seconds S]
                                   [--trace] [--results DIR]
    python3 perfbench/suite.py summary DIR
    python3 perfbench/suite.py compare BASE_DIR NEW_DIR

`run` starts a fresh run.py process for every (seed, workload), so no
workload inherits another's peak memory or warm imports.  It prints each
run's metrics, then the summary of the set, and exits 1 if any run failed a
check.  A result set is the directory of run records that run.py writes.

`summary` gives, per workload and end-to-end metric, the median, the
quartiles and the spread (quartile distance as a share of the median),
marked "steady" when the spread is under a third of the metric's bound in
BENCHMARK.json, and "unresolved" when it exceeds the bound.  `compare` adds
the delta between two sets, marks a metric unresolved when either set's
spread exceeds its bound, and flags any change in the deterministic counts
(every metric with unit "count" in the traced runs, matched by workload and
seed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if hi else [int(lo)]
    return seeds


def load_records(directory: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.json"))]


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def by_workload(records, trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def summary(records, spec) -> bool:
    """Print the set's statistics; True when every run passed its checks."""
    ok = all(r["correct"] for r in records)
    for workload, runs in sorted(by_workload(records, 0).items()):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed_frac {failed / attempted:.6g} "
              f"({failed}/{attempted})")
        for m in spec["end_to_end"]:
            med, q1, q3, spread = stats([r["metrics"][m["name"]]["value"] for r in runs])
            status = ("steady" if spread < m["bound"] / 3
                      else "within bound" if spread <= m["bound"] else "unresolved")
            print(f"  {m['name']:<12} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {100 * spread:.2f}% (bound {100 * m['bound']:.0f}%): {status}")
    for workload, runs in sorted(by_workload(records, 1).items()):
        differs = sorted({text for r in runs for text, holds in r.get("reasons", {}).items() if not holds})
        print(f"{workload}: {len(runs)} traced runs; workload reason "
              + (f"DIFFERS: {differs}" if differs else "holds in every run"))
    return ok


def counts_of(record) -> dict:
    return {k: v["value"] for k, v in record["metrics"].items() if v["unit"] == "count"}


def count_changes(base, new) -> dict[str, list[str]]:
    """Count differences between traced runs of the same workload and seed."""
    index = {(r["workload"], r["seed"], r["sweep_seed"]): counts_of(r) for r in base if r["trace"] == 1}
    out: dict[str, list[str]] = {}
    for r in new:
        key = (r["workload"], r["seed"], r["sweep_seed"])
        if r["trace"] != 1 or key not in index:
            continue
        for name, value in counts_of(r).items():
            if index[key].get(name) != value:
                out.setdefault(r["workload"], []).append(
                    f"{name} seed {r['seed']}: {index[key].get(name)} -> {value}")
    return out


def compare(base, new, spec) -> None:
    base_w, new_w = by_workload(base, 0), by_workload(new, 0)
    for workload in sorted(set(base_w) & set(new_w)):
        print(workload)
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in base_w[workload]]
            n = [r["metrics"][m["name"]]["value"] for r in new_w[workload]]
            bm, bq1, bq3, bs = stats(b)
            nm, nq1, nq3, ns = stats(n)
            delta = nm / bm - 1
            worse = delta if m["better"] == "lower" else -delta
            all_better = (max(n) < min(b)) if m["better"] == "lower" else (min(n) > max(b))
            if max(bs, ns) > m["bound"] and not all_better:
                verdict = "unresolved (spread exceeds bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
            elif all_better or -worse > max(bs, ns):
                verdict = "better"
            else:
                verdict = "no change beyond spread"
            print(f"  {m['name']:<12} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"new {nm:.6g} [{nq1:.6g}, {nq3:.6g}] {m['unit']}  "
                  f"delta {100 * delta:+.2f}% (bound {100 * m['bound']:.0f}%): {verdict}")
    changes = count_changes(base, new)
    for workload, lines in sorted(changes.items()):
        for line in lines:
            print(f"COUNT CHANGED {workload}: {line}")
    if not changes:
        print("deterministic counts: identical wherever both sets traced the same workload and seed")


def run(args, spec) -> int:
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    args.results.mkdir(parents=True, exist_ok=True)
    exit_code = 0
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "1" if args.trace else "0", "--results", str(args.results)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 2
            for line in lines[:-1]:
                if line.startswith(("# FAIL", "# reason")) or (not args.trace and " = " in line):
                    print(f"{workload} seed {seed} {line}")
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            exit_code |= proc.returncode
    print()
    summary(load_records(args.results), spec)
    return exit_code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default=None, help="comma-separated; default: all")
    p.add_argument("--seeds", default="20260810", help="e.g. 1-10 or 3,5")
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--results", type=Path, default=BENCH_DIR / "results")
    p = sub.add_parser("summary")
    p.add_argument("results", type=Path)
    p = sub.add_parser("compare")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.cmd == "run":
        return run(args, spec)
    if args.cmd == "summary":
        return 0 if summary(load_records(args.results), spec) else 1
    compare(load_records(args.base), load_records(args.new), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
