"""Reproducible containment-threshold sweeps over a probability grid.

One uniform is drawn per vertex pair per trial (counter-based, keyed by a
per-trial seed); an edge is present at probability p iff its uniform is
below p.  Thresholding the same uniforms across the whole grid couples the
trials: the edge set at p is a superset of the edge set at any p' < p, so a
containment hit at p' guarantees one at p and the per-trial found curve is
monotone by construction.  Coupling changes no marginal distribution.

Results are assembled keyed by (p index, trial index), so the output is
byte-identical for a fixed config regardless of the worker count (set via
the `workers` argument or the HAMPOWER_WORKERS environment variable).
Unknown outcomes (spent search budget) are first-class and never folded
into either verdict.
"""

from __future__ import annotations

import io
import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .graphs import Graph, complete_graph, count_cliques, load_edge_list, pair_uniforms, patched_bipartite, union
from .hamsearch import FOUND, NOT_FOUND, UNKNOWN, contains_ham_power

_M64 = (1 << 64) - 1

BASE_KINDS = ("complete", "empty", "patched_bipartite", "file")


def _reject_unknown_keys(what: str, d: dict, cls) -> None:
    """Raise ValueError if the JSON object d has a key that is not a field of cls."""
    allowed = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}; expected some of {allowed}")


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def trial_seed(seed: int, trial: int) -> int:
    """Fixed mixing of the experiment seed with the trial index."""
    return _splitmix64((seed & _M64) ^ _splitmix64(trial + 1))


@dataclass(frozen=True)
class BaseGraphSpec:
    kind: str
    eps: Fraction | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ValueError(f"unknown base kind {self.kind!r}; expected one of {BASE_KINDS}")
        if self.kind == "patched_bipartite" and self.eps is None:
            raise ValueError("patched_bipartite base needs eps")
        if self.kind == "file" and not self.path:
            raise ValueError("file base needs a path")

    def build(self, n: int) -> Graph:
        if self.kind == "complete":
            return complete_graph(n)
        if self.kind == "empty":
            return Graph(n)
        if self.kind == "patched_bipartite":
            return patched_bipartite(n, self.eps)
        g = load_edge_list(self.path)
        if g.n != n:
            raise ValueError(f"file base has {g.n} vertices, config says {n}")
        return g

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.eps is not None:
            d["eps"] = str(self.eps)
        if self.path is not None:
            d["path"] = self.path
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "BaseGraphSpec":
        _reject_unknown_keys("base", d, BaseGraphSpec)
        return BaseGraphSpec(
            kind=d["kind"],
            eps=Fraction(d["eps"]) if "eps" in d else None,
            path=d.get("path"),
        )


@dataclass(frozen=True)
class ExponentGrid:
    """p = n^(-alpha - mu) for each offset mu; exponents are exact rationals."""

    alpha: Fraction
    mu_list: tuple[Fraction, ...]

    def probabilities(self, n: int) -> tuple[float, ...]:
        return tuple(float(n) ** float(-(self.alpha + mu)) for mu in self.mu_list)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    m: int
    base: BaseGraphSpec
    p_grid: tuple[float, ...] | ExponentGrid
    trials: int
    seed: int
    budget: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.n < self.m + 2:
            raise ValueError(f"need n >= m + 2, got n={self.n}, m={self.m}")
        for p in self.probabilities():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"grid probability {p} outside [0, 1]")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be positive or None")
        if self.budget is None and self.n > 28:
            warnings.warn(
                f"n={self.n} with no search budget: exhaustive NotFound proofs "
                "may be very slow; consider setting one",
                stacklevel=2,
            )
        if self.budget is not None and self.budget < self.n * self.n:
            warnings.warn(
                f"budget {self.budget} is below n^2; expect heavy Unknown rates",
                stacklevel=2,
            )

    def probabilities(self) -> tuple[float, ...]:
        if isinstance(self.p_grid, ExponentGrid):
            return self.p_grid.probabilities(self.n)
        return tuple(self.p_grid)

    def to_json_dict(self) -> dict:
        if isinstance(self.p_grid, ExponentGrid):
            grid = {
                "alpha": str(self.p_grid.alpha),
                "mu_list": [str(mu) for mu in self.p_grid.mu_list],
            }
        else:
            grid = list(self.p_grid)
        return {
            "n": self.n,
            "m": self.m,
            "base": self.base.to_json_dict(),
            "p_grid": grid,
            "trials": self.trials,
            "seed": self.seed,
            "budget": self.budget,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        _reject_unknown_keys("config", d, ExperimentConfig)
        budget = d.get("budget")
        if budget is not None and type(budget) is not int:  # bool is rejected too
            raise ValueError(f"config budget must be an integer or null, got {budget!r}")
        raw = d["p_grid"]
        if isinstance(raw, dict):
            _reject_unknown_keys("p_grid", raw, ExponentGrid)
            grid = ExponentGrid(
                Fraction(raw["alpha"]), tuple(Fraction(s) for s in raw["mu_list"])
            )
        else:
            grid = tuple(float(x) for x in raw)
        return ExperimentConfig(
            n=int(d["n"]),
            m=int(d["m"]),
            base=BaseGraphSpec.from_json_dict(d["base"]),
            p_grid=grid,
            trials=int(d["trials"]),
            seed=int(d["seed"]),
            budget=budget,
        )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return ExperimentConfig.from_json_dict(json.load(f))


@dataclass(frozen=True)
class SweepRow:
    p: float
    found: int
    not_found: int
    unknown: int
    mean_cliques: float


@dataclass
class SweepResult:
    config: ExperimentConfig
    rows: list[SweepRow]
    wall_time: float


def _run_trial(base: Graph, n: int, m: int, ps: tuple[float, ...], seed: int,
               budget: int | None, t: int):
    """All grid points for one trial, sharing one uniform array (the coupling).

    Because the per-trial graphs are nested along the grid, the verdict curve
    is a monotone step (up to Unknowns), so the transition is located by
    bisection: a NotFound verdict transfers exactly to every smaller p (the
    graph there is a subgraph), and a Found witness is re-verified directly
    on every larger p (the graph there is a supergraph).  Unknown probes
    transfer nothing; any grid point left unresolved by them is searched
    individually.
    """
    from .hamsearch import verify_witness

    u = pair_uniforms(n, trial_seed(seed, t))
    iu, ju = np.triu_indices(n, k=1)
    k = len(ps)
    by_p = sorted(range(k), key=lambda i: (ps[i], i))

    random_parts: list[Graph | None] = [None] * k
    graphs: list[Graph | None] = [None] * k

    def random_part(gi: int) -> Graph:
        if random_parts[gi] is None:
            keep = u < ps[gi]
            random_parts[gi] = Graph(n, zip(iu[keep].tolist(), ju[keep].tolist()))
        return random_parts[gi]

    def graph_at(gi: int) -> Graph:
        if graphs[gi] is None:
            graphs[gi] = union(base, random_part(gi))
        return graphs[gi]

    probes: dict[int, object] = {}  # position in by_p -> SearchOutcome
    lo, hi = 0, k - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        out = contains_ham_power(graph_at(by_p[mid]), m, budget)
        probes[mid] = out
        if out.verdict == FOUND:
            hi = mid - 1
        else:
            lo = mid + 1

    found_positions = sorted(pos for pos, o in probes.items() if o.verdict == FOUND)
    notfound_positions = sorted(pos for pos, o in probes.items() if o.verdict == NOT_FOUND)

    verdicts: list[str | None] = [None] * k
    for pos in range(k):
        gi = by_p[pos]
        if pos in probes:
            verdicts[gi] = probes[pos].verdict
        elif notfound_positions and pos < notfound_positions[-1]:
            verdicts[gi] = NOT_FOUND  # subgraph of an exhaustively refuted graph
        elif found_positions and pos > found_positions[0]:
            witness = probes[found_positions[0]].witness
            if not verify_witness(graph_at(gi), m, witness):
                raise AssertionError("coupled witness failed to verify on a supergraph")
            verdicts[gi] = FOUND
        else:
            verdicts[gi] = contains_ham_power(graph_at(gi), m, budget).verdict

    return t, [(verdicts[gi], count_cliques(random_part(gi), m + 1)) for gi in range(k)]


def _worker(args):
    return _run_trial(*args)


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get("HAMPOWER_WORKERS", "1"))
    return max(1, workers)


def run_sweep(config: ExperimentConfig, workers: int | None = None) -> SweepResult:
    """Run the sweep; output is independent of the worker count."""
    start = time.monotonic()
    ps = config.probabilities()
    base = config.base.build(config.n)
    nworkers = resolve_workers(workers)

    tasks = [
        (base, config.n, config.m, ps, config.seed, config.budget, t)
        for t in range(config.trials)
    ]
    per_trial: dict[int, list] = {}
    if nworkers == 1:
        for task in tasks:
            t, data = _worker(task)
            per_trial[t] = data
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            for t, data in pool.map(_worker, tasks, chunksize=max(1, len(tasks) // (4 * nworkers))):
                per_trial[t] = data

    rows = []
    for ip, p in enumerate(ps):
        found = not_found = unknown = 0
        clique_total = 0
        for t in range(config.trials):  # fixed fold order for bitwise determinism
            verdict, cliques = per_trial[t][ip]
            if verdict == FOUND:
                found += 1
            elif verdict == NOT_FOUND:
                not_found += 1
            elif verdict == UNKNOWN:
                unknown += 1
            clique_total += cliques
        rows.append(SweepRow(p, found, not_found, unknown, clique_total / config.trials))
    return SweepResult(config, rows, time.monotonic() - start)


def per_trial_found_curves(config: ExperimentConfig) -> list[list[bool]]:
    """Found verdict per (trial, grid point); used to assert the coupling
    monotonicity exactly rather than statistically."""
    ps = config.probabilities()
    base = config.base.build(config.n)
    curves = []
    for t in range(config.trials):
        _, data = _run_trial(base, config.n, config.m, ps, config.seed, config.budget, t)
        curves.append([verdict == FOUND for verdict, _ in data])
    return curves


# ---------------------------------------------------------------------------
# Clique statistics and CSV output


@dataclass(frozen=True)
class CliqueStats:
    n: int
    m: int
    p: float
    trials: int
    empirical_mean: float
    first_moment: float   # C(n, m+1) * p^C(m+1, 2)


def clique_stats(n: int, p: float, m: int, trials: int, seed: int) -> CliqueStats:
    """Empirical mean count of K_{m+1} in the random graph alone, next to the
    analytic first-moment value."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    from math import comb

    total = 0
    from .graphs import sample_gnp

    for t in range(trials):
        g = sample_gnp(n, p, trial_seed(seed, t))
        total += count_cliques(g, m + 1)
    return CliqueStats(
        n, m, p, trials, total / trials, comb(n, m + 1) * p ** comb(m + 1, 2)
    )


CSV_HEADER = "p,found_frac,notfound_frac,unknown_frac,mean_kcliques"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def result_to_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    trials = result.config.trials
    for row in result.rows:
        buf.write(
            ",".join(
                [
                    _fmt(row.p),
                    _fmt(row.found / trials),
                    _fmt(row.not_found / trials),
                    _fmt(row.unknown / trials),
                    _fmt(row.mean_cliques),
                ]
            )
            + "\n"
        )
    return buf.getvalue()


def emit_csv(result: SweepResult, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(result_to_csv(result))


def parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed header row")
    names = CSV_HEADER.split(",")
    return [dict(zip(names, map(float, ln.split(",")))) for ln in lines[1:]]
