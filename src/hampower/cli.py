"""Command-line entry point.

Subcommands: braid, gen, density, threshold-table, normalize, verify,
search, sweep.  Exit codes: 0 success / all checks passed, 1 verification
counterexample, 2 usage error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import braids, density, graphs, hamsearch, montecarlo, partitioned_paths, thresholds, verify

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit_graph(g, args):
    text = graphs.to_dot(g) if getattr(args, "dot", False) else graphs.to_edge_list(g)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_braid(args) -> int:
    _emit_graph(braids.s_braids(args.ell, args.r, args.t, args.s), args)
    return EXIT_OK


_GEN_KINDS = {
    "complete": lambda a: graphs.complete_graph(a.n),
    "path-power": lambda a: graphs.path_power(a.v, a.m),
    "cycle-power": lambda a: graphs.cycle_power(a.v, a.m),
    "patched-bipartite": lambda a: graphs.patched_bipartite(a.n, a.eps),
    "gnp": lambda a: graphs.sample_gnp(a.n, a.p, a.seed),
}


def _cmd_gen(args) -> int:
    _emit_graph(_GEN_KINDS[args.kind](args), args)
    return EXIT_OK


def _cmd_density(args) -> int:
    g = graphs.load_edge_list(args.input)
    if args.balanced:
        ok, witness = density.is_strictly_balanced(g)
        payload = {"balanced": ok, "witness": None if witness is None else list(witness)}
        print(json.dumps(payload))
        return EXIT_OK if ok else EXIT_COUNTEREXAMPLE
    if args.phi:
        n, p = int(args.phi[0]), float(args.phi[1])
        rep = density.first_moment_profile(g, n, p)
    else:
        rep = (density.max_density_opt if args.opt else density.max_density_brute)(g)
    print(json.dumps(graphs._to_json(rep)))
    return EXIT_OK


def _frac(x) -> str:
    return "n/a" if x is None else str(x)


def _tables_payload(m_max: int) -> dict:
    report = thresholds.build_tables(m_max)
    records = [thresholds.threshold_exponent(m) for m in range(2, m_max + 1)]
    cells = {"alpha": [], "optimal": [], "summary": []}
    for c in report.cells:
        row = {"name": c.name, "computed": _frac(c.computed), "expected": _frac(c.expected),
               "match": c.match}
        if c.table == "summary":
            row["known_inconsistent"] = c.known_inconsistent
        cells[c.table].append(row)
    return {
        "exponents": [
            {"m": r.m, "ell": r.ell, "density_at_ell": str(r.density_at_ell), "alpha": str(r.alpha),
             "exponent_of_n": str(thresholds.threshold_exponent_of_n(r.m)), "regime": r.regime}
            for r in records
        ],
        "cells": cells,
        "discrepancies": report.discrepancies,
        "ok": report.ok,
    }


def _cmd_threshold_table(args) -> int:
    payload = _tables_payload(args.m_max)
    rows = [[str(v) for v in row.values()] for row in payload["exponents"]]
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("m,ell,density_at_ell,alpha,exponent_of_n,regime")
        for row in rows:
            print(",".join(row))
    else:
        print("| m | ell | density at ell | alpha | exponent of n | regime |")
        print("|---|-----|----------------|-------|---------------|--------|")
        for row in rows:
            print(f"| {' | '.join(row)} |")
        for note in payload["discrepancies"]:
            print(f"NOTE: {note}")
    return EXIT_OK if payload["ok"] else EXIT_COUNTEREXAMPLE


def _cmd_normalize(args) -> int:
    path = partitioned_paths.PartitionedPath(args.m, args.labels)
    result = partitioned_paths.normalize(path)
    payload = {
        "sizes": list(result.segments.sizes),
        "first_side": result.segments.first_side,
        "labels": result.segments.to_labels(),
        "original_edges": result.original_edges,
        "normalized_edges": result.normalized_edges,
        "slack": result.slack,
        "steps": result.steps,
    }
    if args.transcript:
        payload["transcript"] = [
            {"op": s.op, "index": s.index, "before": list(s.before), "after": list(s.after)}
            for s in result.transcript
        ]
    print(json.dumps(payload))
    return EXIT_OK


_VERIFY_TARGETS = {
    "tables": lambda a: verify.tables(),
    "regime": lambda a: verify.regime(a.m_max),
    "edge-floor": lambda a: verify.edge_floor(a.m, a.lmax),
    "m6": lambda a: verify.structure(6, a.lmax),
    "m9": lambda a: verify.structure(9, a.lmax),
    "tail-margins": lambda a: verify.tail_margins(a.ell_max, a.t_max),
    "balanced": lambda a: verify.balanced(a.ell_max, a.t_max),
}


def _cmd_verify(args) -> int:
    targets = list(_VERIFY_TARGETS) if args.target == "all" else [args.target]
    # every target runs before anything is printed, so one that raises
    # (an empty range) leaves no partial report
    checks = {name: _VERIFY_TARGETS[name](args) for name in targets}
    overall_ok = all(c.ok for c in checks.values())
    if args.format == "json":
        payload = {name: {"ok": c.ok, "counterexample": c.counterexample} for name, c in checks.items()}
        print(json.dumps({**payload, "ok": overall_ok}))
    else:
        for name, c in checks.items():
            print(f"[{name}] {'PASS' if c.ok else 'FAIL'}")
            if args.verbose or not c.ok:
                for ln in c.lines:
                    print(f"  {ln}")
            if c.counterexample:
                print(f"  counterexample: {c.counterexample}")
        print(f"verify: {'all checks passed' if overall_ok else 'FAILURES above'}")
    return EXIT_OK if overall_ok else EXIT_COUNTEREXAMPLE


def _cmd_search(args) -> int:
    g = graphs.load_edge_list(args.input)
    outcome = hamsearch.contains_ham_power(g, args.m, args.budget)
    print(json.dumps(graphs._to_json(outcome)))
    if outcome.verdict == hamsearch.FOUND and args.witness_out:
        with open(args.witness_out, "w", encoding="ascii") as f:
            f.write(" ".join(map(str, outcome.witness)) + "\n")
    return EXIT_BUDGET if outcome.verdict == hamsearch.UNKNOWN else EXIT_OK


def _cmd_sweep(args) -> int:
    config = montecarlo.load_config(args.config)
    result = montecarlo.run_sweep(config, workers=args.workers)
    montecarlo.emit_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out} in {result.wall_time:.2f}s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hampower",
        description="Braid graphs, exact densities, containment thresholds, and sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("braid", help="emit a braid graph as an edge list")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, default=1, help="number of disjoint copies")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of edge list")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("gen", help="emit a standard graph as an edge list")
    gsub = p.add_subparsers(dest="kind", required=True)
    q = gsub.add_parser("complete")
    q.add_argument("--n", type=int, required=True)
    q = gsub.add_parser("path-power")
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q = gsub.add_parser("cycle-power")
    q.add_argument("--v", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q = gsub.add_parser("patched-bipartite")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--eps", required=True, help="rational like 1/12")
    q = gsub.add_parser("gnp")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--seed", type=int, default=0)
    for q in gsub.choices.values():
        q.add_argument("--dot", action="store_true")
        q.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("density", help="exact density reports for an edge-list file")
    p.add_argument("--input", required=True)
    q = p.add_mutually_exclusive_group()
    q.add_argument("--max", action="store_true", help="maximum 1-density (default)")
    q.add_argument("--opt", action="store_true", help="use the min-cut maximizer")
    q.add_argument("--balanced", action="store_true", help="strict-balance check")
    q.add_argument("--phi", nargs=2, metavar=("N", "P"),
                   help="first-moment profile at scale N and probability P")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("threshold-table", help="threshold exponents and reference tables")
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p.set_defaults(func=_cmd_threshold_table)

    p = sub.add_parser("normalize", help="normalize a partitioned-path labeling")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--labels", required=True, help="A/B string, e.g. AABAB")
    p.add_argument("--transcript", action="store_true")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("verify", help="run finite verification suites")
    p.add_argument("target", choices=sorted(_VERIFY_TARGETS) + ["all"])
    p.add_argument("--m", type=int, default=2, help="power for edge-floor")
    p.add_argument("--lmax", type=int, default=12)
    p.add_argument("--m-max", type=int, default=200, help="range for regime")
    p.add_argument("--ell-max", type=int, default=10)
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="decide m-th-power Hamiltonian cycle containment")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--witness-out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("sweep", help="run a Monte Carlo sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
