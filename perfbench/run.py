#!/usr/bin/env python3
"""Run one hampower benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--sweep-seed N] [--results DIR]

Run it from the root of a checkout; the program is imported from `src/`.
Each workload runs in its own process, so peak memory and set-up time are
its own.  The workload is a fixed batch run to completion by one process at
workers=1 (a closed loop with one client).  A sweep then runs the same batch
once at workers=2: its CSV must be identical, and its rate is reported.

--trace 0 repeats the batch for about --seconds and reports the end-to-end
metrics named in BENCHMARK.json.  --trace 1 runs the batch once untraced and
once traced at workers=1 and reports the per-layer metrics; the spans are
written to DIR/spans/.  Every run writes its record to DIR (default
perfbench/results).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5
REFERENCE_ITERATIONS = 100_000
DEFAULT_SEED = 20260810


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed for the inputs drawn per run (certify's random graphs and labelings)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep-seed", type=int, default=None,
                    help="seed of the sweeps' pinned trial set (default 20260810; "
                         "second documented seed 20261017)")
    ap.add_argument("--results", type=Path, default=BENCH_DIR / "results")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import hampower from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(1, str(src))
    import hampower

    if Path(hampower.__file__).resolve().parent != src / "hampower":
        raise ImportError(f"hampower was imported from {hampower.__file__}, not {src}")


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes: interpreter start, imports and input
    building, up to the point where the timed phase would begin."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--sweep-seed", str(args.sweep_seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return times


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds taken by a fixed pure-Python loop of integer, bit and set
    operations, the kind of work the program does.  It shares no code with
    the program, so it measures only how fast this core runs right now."""
    t0 = time.perf_counter()
    x, acc, seen = 0x9E3779B97F4A7C15, 0, set()
    for _ in range(iterations):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc += (x & -x).bit_length()
        if x & 1:
            seen.add(x >> 52)
        elif x >> 52 in seen:
            acc += 1
    return time.perf_counter() - t0


class Reference:
    """Job time measured relative to a reference loop.

    On a machine shared with other jobs a core's speed can change by 40%
    within seconds and drift for minutes (seen on a 2-vCPU virtual machine),
    which no practical run length averages away.  So each
    stretch of work is also divided by the time of the reference loop run
    just before and just after it: work that takes 20 reference loops reads
    20 whatever the current speed of the core.  Stretches end at job
    boundaries and at the checkpoints a job calls; the reference time is
    excluded from the work time.  A checkpoint repeats the loop until it has
    run for 5% of the preceding stretch, so that a long stretch gets a
    steady reference.
    """

    def __init__(self):
        self.last = statistics.mean(reference_loop() for _ in range(5))
        self.wall = 0.0
        self.relative = 0.0
        self.mark = time.perf_counter()

    def begin(self) -> None:
        self.mark = time.perf_counter()

    def checkpoint(self) -> None:
        stretch = time.perf_counter() - self.mark
        times = [reference_loop()]
        while sum(times) < 0.05 * stretch:
            times.append(reference_loop())
        after = statistics.mean(times)
        self.wall += stretch
        self.relative += stretch / ((self.last + after) / 2)
        self.last = after
        self.mark = time.perf_counter()


def run_jobs(make_jobs, reference: Reference | None = None):
    """Run one pass of `make_jobs(checkpoint)`.  Returns (outcome, wall time
    of the work, wall time in reference loops or None)."""
    from workloads import PassOutcome

    total = PassOutcome(0, 0)
    if reference is None:
        t0 = time.perf_counter()
        for job in make_jobs(None):
            total.merge(job())
        return total, time.perf_counter() - t0, None
    wall0, rel0 = reference.wall, reference.relative
    for job in make_jobs(reference.checkpoint):
        reference.begin()
        total.merge(job())
        reference.checkpoint()
    return total, reference.wall - wall0, reference.relative - rel0


def timed_passes(make_jobs, seconds: float):
    """Run whole passes while the next one is expected to end within `seconds`
    (at least one).  Returns (pass walls, pass walls in reference loops,
    outcomes)."""
    walls, relative, outcomes = [], [], []
    reference = Reference()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome, wall, rel = run_jobs(make_jobs, reference)
        outcomes.append(outcome)
        walls.append(wall)
        relative.append(rel)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return walls, relative, outcomes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_percentile(durations):
    """(percentile, value) for the highest percentile with >= 10 samples
    beyond it, by nearest rank; None when there are fewer than 20 samples."""
    xs = sorted(durations)
    n = len(xs)
    best = None
    for q in (50, 75, 90, 95, 99, 99.9, 99.99):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            best = (q, xs[rank - 1])
    return best


def layer_metrics(summary, setup_summary, traced_wall, untraced_wall, w2_wall, cells) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""

    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "durations_ns": [], "notes": []}

    def get(name, source=summary):
        return source.get(name, empty)

    def secs(name, source=summary):
        return get(name, source)["incl_ns"] / 1e9

    out = {}
    hs = get("hamsearch.contains_ham_power")
    nodes = {"found": [0, 0], "not_found": [0, 0], "unknown": [0, 0]}
    for verdict, n in hs["notes"]:
        nodes[verdict][0] += 1
        nodes[verdict][1] += n
    total_nodes = sum(v[1] for v in nodes.values())
    out["hamsearch.calls"] = (hs["calls"], "count")
    out["hamsearch.busy_s"] = (hs["incl_ns"] / 1e9, "s")
    out["hamsearch.nodes"] = (total_nodes, "count")
    out["hamsearch.us_per_node"] = (hs["incl_ns"] / 1e3 / total_nodes if total_nodes else 0.0, "us")
    out["hamsearch.found_calls"] = (nodes["found"][0], "count")
    out["hamsearch.found_nodes"] = (nodes["found"][1], "count")
    out["hamsearch.notfound_calls"] = (nodes["not_found"][0], "count")
    out["hamsearch.notfound_nodes"] = (nodes["not_found"][1], "count")
    out["hamsearch.unknown_calls"] = (nodes["unknown"][0], "count")
    vw = get("hamsearch.verify_witness")
    out["hamsearch.verify_witness_calls"] = (vw["calls"], "count")
    out["hamsearch.verify_witness_s"] = (secs("hamsearch.verify_witness"), "s")
    durations = hs["durations_ns"]
    out["hamsearch.call_samples"] = (len(durations), "count")
    out["hamsearch.call_p50_ms"] = (statistics.median(durations) / 1e6 if durations else 0.0, "ms")
    tail = tail_percentile(durations)
    out["hamsearch.call_tail_pct"] = (tail[0] if tail else 0, "percentile")
    out["hamsearch.call_tail_ms"] = (tail[1] / 1e6 if tail else 0.0, "ms")

    out["graphs.pair_uniforms_s"] = (secs("graphs.pair_uniforms"), "s")
    for short in ("union", "count_cliques"):
        out[f"graphs.{short}_calls"] = (get(f"graphs.{short}")["calls"], "count")
        out[f"graphs.{short}_s"] = (secs(f"graphs.{short}"), "s")
    out["graphs.cliques_counted"] = (sum(get("graphs.count_cliques")["notes"]), "count")

    out["montecarlo.self_s"] = (get("montecarlo.run_sweep")["self_ns"] / 1e9, "s")
    out["montecarlo.cells"] = (cells, "count")
    out["montecarlo.cells_searched"] = (hs["calls"] if cells else 0, "count")
    out["montecarlo.transfer_ratio"] = (1 - hs["calls"] / cells if cells else 0.0, "ratio")
    # trials_per_s_w2 / (2 * trials_per_s); 0 where nothing ran at workers=2
    out["montecarlo.w2_efficiency"] = (untraced_wall / (2 * w2_wall) if w2_wall else 0.0, "ratio")

    enum = get("partitioned_paths.enumerate")
    floor = get("partitioned_paths.check_edge_floor_exhaustive")
    out["partitioned_paths.labelings_enumerated"] = (sum(enum["notes"]) + sum(floor["notes"]), "count")
    out["partitioned_paths.enumerate_s"] = (secs("partitioned_paths.enumerate"), "s")
    out["partitioned_paths.edge_floor_s"] = (secs("partitioned_paths.check_edge_floor_exhaustive"), "s")
    out["partitioned_paths.clique_free_s"] = (secs("partitioned_paths.clique_free"), "s")
    for m in (6, 9):
        chk = get(f"partitioned_paths.m{m}_structure_check")
        out[f"partitioned_paths.m{m}_check_calls"] = (chk["calls"], "count")
        out[f"partitioned_paths.m{m}_check_s"] = (chk["incl_ns"] / 1e9, "s")
    norm = get("partitioned_paths.normalize")
    out["partitioned_paths.normalize_calls"] = (norm["calls"], "count")
    out["partitioned_paths.normalize_steps"] = (sum(norm["notes"]), "count")
    out["partitioned_paths.normalize_s"] = (norm["incl_ns"] / 1e9, "s")

    brute, bal, opt = (get(f"density.{f}") for f in ("max_density_brute", "is_strictly_balanced", "max_density_opt"))
    out["density.brute_calls"] = (brute["calls"], "count")
    out["density.brute_s"] = (brute["incl_ns"] / 1e9, "s")
    out["density.balanced_s"] = (bal["incl_ns"] / 1e9, "s")
    out["density.subsets_scanned"] = (sum(brute["notes"]) + sum(bal["notes"]), "count")  # 2^n per scan, computed
    out["density.opt_calls"] = (opt["calls"], "count")
    out["density.opt_s"] = (opt["incl_ns"] / 1e9, "s")

    out["braids.build_s"] = (secs("braids.braid", setup_summary), "s")

    self_ns = {}
    for name, d in summary.items():
        layer = name.split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + d["self_ns"]
    for layer in ("hamsearch", "graphs", "montecarlo", "partitioned_paths", "density", "bench"):
        out[f"{layer}.self_pct"] = (100 * self_ns.get(layer, 0) / 1e9 / traced_wall, "%")
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.overhead_pct"] = (100 * (traced_wall - untraced_wall) / untraced_wall, "%")
    return out


REASONS = {
    "sweep-threshold": [
        ("hamsearch self time >= 90% of the batch", lambda r: r["hamsearch.self_pct"][0] >= 90),
    ],
    "sweep-supercritical": [
        ("graphs + montecarlo self time > hamsearch self time",
         lambda r: r["graphs.self_pct"][0] + r["montecarlo.self_pct"][0] > r["hamsearch.self_pct"][0]),
    ],
    "certify": [
        ("partitioned_paths + density self time > 50% of the batch",
         lambda r: r["partitioned_paths.self_pct"][0] + r["density.self_pct"][0] > 50),
    ],
}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"run.py: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer, summarize

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.sweep_seed is None:
        args.sweep_seed = workloads.SWEEP_SEED
    is_sweep = isinstance(wl, workloads.Sweep)

    if args.setup_probe:
        wl.setup(args.seed, args.sweep_seed, workloads.Calls())
        print("ready", flush=True)
        return 0

    env = environment()
    plain = workloads.Calls()
    tracer = Tracer() if args.trace else None
    state = wl.setup(args.seed, args.sweep_seed, workloads.Calls(tracer))
    setup_spans = len(tracer.spans) if tracer else 0
    report: dict[str, tuple] = {}
    messages: list[str] = []
    outcomes = []

    if not args.trace:
        walls, relative, outcomes = timed_passes(lambda cp: wl.jobs(state, plain, 1, cp), args.seconds)
        report["peak_rss_mb"] = (peak_rss_mb(), "MB")
        wall = statistics.median(walls)
        report["wall_ref"] = (statistics.median(relative), "ref")
        report["wall_s"] = (wall, "s")
        q1, q3 = quartiles(walls)
        report["wall_q1_s"], report["wall_q3_s"] = (q1, "s"), (q3, "s")
        report["passes"] = (len(walls), "count")
        if is_sweep:
            report["trials_per_s"] = (state.trials / wall, "1/s")
    else:
        first_w1, untraced_wall, _ = run_jobs(lambda cp: wl.jobs(state, plain, 1))
        traced, traced_wall, _ = run_jobs(lambda cp: wl.jobs(state, workloads.Calls(tracer), 1))
        outcomes = [first_w1, traced]

    w2_wall = None
    if is_sweep:
        # the same batch at workers=2, once: its CSV must match workers=1
        w2, w2_wall, _ = run_jobs(lambda cp: wl.jobs(state, plain, 2))
        outcomes.append(w2)
        report["trials_per_s_w2"] = (state.trials / w2_wall, "1/s")
        wl.check_outputs(state, outcomes, messages)

    if not args.trace:
        report["setup_s"] = (statistics.median(setup_seconds(args)), "s")
    else:
        summary = summarize(tracer.spans, setup_spans)
        report.update(layer_metrics(summary, summarize(tracer.spans, 0, setup_spans),
                                    traced_wall, untraced_wall, w2_wall,
                                    traced.ops if is_sweep else 0))
        pin = wl.pinned.get(state.seed) if is_sweep else None
        if pin is not None and report["hamsearch.nodes"][0] != pin[1]:
            traced.failed = traced.ops
            messages.append(f"hamsearch.nodes {report['hamsearch.nodes'][0]} != pinned {pin[1]}")
        spans_dir = args.results / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "sweep_seed": args.sweep_seed})

    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        messages += o.messages
    report["failed_frac"] = (failed / attempted, "ratio")
    env["loadavg_end"] = list(os.getloadavg())

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    print(f"# workload {args.workload} seed {args.seed} sweep-seed {args.sweep_seed} "
          f"trace {args.trace} seconds {args.seconds}")
    print("# env " + json.dumps(env))
    for name, (value, unit) in report.items():
        print(f"# {name} = {value} {unit}")
    reasons = {text: holds(report) for text, holds in REASONS[wl.name]} if args.trace else {}
    for text, holds in reasons.items():
        print(f"# reason: {text}: {'holds' if holds else 'DIFFERS'}")
    for msg in messages[:50]:
        print(f"# FAIL {msg}")

    args.results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "sweep_seed": args.sweep_seed,
              "trace": args.trace, "seconds": args.seconds, "env": env, **result,
              "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
              "reasons": reasons, "messages": messages[:200]}
    with open(args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
