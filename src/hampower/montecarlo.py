"""Reproducible containment-threshold sweeps over a probability grid.

One uniform is drawn per vertex pair per trial (counter-based, keyed by a
per-trial seed); an edge is present at probability p iff its uniform is
below p.  Thresholding the same uniforms across the whole grid couples the
trials: the edge set at p is a superset of the edge set at any p' < p, so a
trial's graphs, sorted by p, form a nested chain (as in a random graph
process), and `_decide_chain` settles every cell it does not search
exactly: NotFound transfers down the chain and a checked Found witness up
it.  The found curve is monotone by construction, and coupling changes no
marginal distribution.

`run_sweep` is the one way to run trials.  It returns the per-trial
verdicts (`SweepResult.verdicts`, indexed [trial][grid point]) next to the
aggregated rows, both assembled in trial order, so the output is
byte-identical for a fixed config regardless of the `workers` count.  At
most `trials` worker processes are started, and one worker runs in this
process.  Unknown outcomes (spent search budget) are first-class and never
folded into either verdict.
"""

from __future__ import annotations

import io
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from functools import partial
from math import comb

from .graphs import (
    Graph,
    _integer,
    _number,
    complete_graph,
    count_cliques,
    count_new_cliques,
    coupled_gnp,
    load_edge_list,
    pair_uniforms,
    patched_bipartite,
    sample_gnp,
    union,
)
from .hamsearch import FOUND, NOT_FOUND, UNKNOWN, contains_ham_power

_M64 = (1 << 64) - 1

BASE_KINDS = ("complete", "empty", "patched_bipartite", "file")


def _json_list(what: str, value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def _json_object(what: str, d, cls) -> dict:
    """d, once it is known to be a JSON object whose keys are fields of cls and
    include each field without a default; a ValueError names the fault."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    allowed = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}; expected some of {allowed}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in d:
            raise ValueError(f"{what} is missing required key {f.name!r}")
    return d


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
    """The base graph of a sweep; eps is stored as a Fraction."""

    kind: str
    eps: Fraction | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ValueError(f"unknown base kind {self.kind!r}; expected one of {BASE_KINDS}")
        if self.kind == "patched_bipartite":
            object.__setattr__(self, "eps", _number("base eps", self.eps))
        elif self.eps is not None:
            raise ValueError(f"base eps is used only by kind 'patched_bipartite', not {self.kind!r}")
        if self.kind == "file" and not (isinstance(self.path, str) and self.path):
            raise ValueError(f"base path must be a string naming a file, got {self.path!r}")
        if self.path is not None and self.kind != "file":
            raise ValueError(f"base path is used only by kind 'file', not {self.kind!r}")

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
        return BaseGraphSpec(**_json_object("base", d, BaseGraphSpec))


@dataclass(frozen=True)
class ExponentGrid:
    """p = n^(-alpha - mu) for each offset mu; exponents are exact rationals,
    stored as a Fraction and a tuple of Fractions."""

    alpha: Fraction
    mu_list: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number("p_grid alpha", self.alpha))
        object.__setattr__(self, "mu_list", tuple(_number("p_grid mu_list entry", mu) for mu in self.mu_list))

    def probabilities(self, n: int) -> tuple[float, ...]:
        return tuple(float(n) ** float(-(self.alpha + mu)) for mu in self.mu_list)


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep.  The constructor checks every field and stores plain ints, a
    BaseGraphSpec, and either a tuple of floats or an ExponentGrid."""

    n: int
    m: int
    base: BaseGraphSpec
    p_grid: tuple[float, ...] | ExponentGrid
    trials: int
    seed: int
    budget: int | None = None

    def __post_init__(self):
        for name in ("n", "m", "trials", "seed") + (("budget",) if self.budget is not None else ()):
            object.__setattr__(self, name, _integer(f"config {name}", getattr(self, name)))
        if not isinstance(self.p_grid, ExponentGrid):
            object.__setattr__(self, "p_grid", tuple(_number("config p_grid entry", p, float) for p in self.p_grid))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
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
                stacklevel=3,  # the caller of the generated __init__
            )
        if self.budget is not None and self.budget < self.n * self.n:
            warnings.warn(
                f"budget {self.budget} is below n^2; expect heavy Unknown rates",
                stacklevel=3,
            )

    def probabilities(self) -> tuple[float, ...]:
        if isinstance(self.p_grid, ExponentGrid):
            return self.p_grid.probabilities(self.n)
        return self.p_grid

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
        """The config a JSON object describes.  Only the JSON shape is checked
        here; the constructors check the values, and a TypeError of theirs is
        raised as a ValueError."""
        _json_object("config", d, ExperimentConfig)
        grid = d["p_grid"]
        try:
            if isinstance(grid, dict):
                _json_list("p_grid mu_list", _json_object("p_grid", grid, ExponentGrid)["mu_list"])
                grid = ExponentGrid(**grid)
            else:
                _json_list("config p_grid (a list or an exponent grid object)", grid)
            return ExperimentConfig(**dict(d, base=BaseGraphSpec.from_json_dict(d["base"]), p_grid=grid))
        except TypeError as exc:
            raise ValueError(str(exc)) from exc


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
    verdicts: tuple[tuple[str, ...], ...]  # [trial][grid point], in p_grid order


def _decide_chain(chain: list[Graph], m: int, budget: int | None) -> list[str]:
    """The verdict on each graph of `chain`, where each graph is a subgraph
    of the next.  Bisection finds the step of the monotone verdicts:
    NotFound transfers exactly down the chain, and the lowest Found witness
    is re-verified on each later graph (AssertionError if it fails, as it
    can only on a chain that is not nested).  Unknown probes transfer
    nothing; each graph they leave open is searched on its own.
    """
    from .hamsearch import verify_witness  # at call time, so a rebinding in hamsearch is seen

    # Bisection moves up past every NotFound probe and down past every Found
    # one, so the last of each is the highest NotFound and the lowest Found.
    verdicts: list[str | None] = [None] * len(chain)
    refuted_below, found_above, witness = -1, len(chain), None
    lo, hi = 0, len(chain) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        out = contains_ham_power(chain[mid], m, budget)
        verdicts[mid] = out.verdict
        if out.verdict == FOUND:
            found_above, witness = mid, out.witness
            hi = mid - 1
        else:
            if out.verdict == NOT_FOUND:
                refuted_below = mid
            lo = mid + 1

    for i, g in enumerate(chain):
        if verdicts[i] is not None:
            continue
        if i < refuted_below:
            verdicts[i] = NOT_FOUND  # subgraph of an exhaustively refuted graph
        elif i > found_above:
            if not verify_witness(g, m, witness):
                raise AssertionError("witness failed to verify on a later graph: the chain is not nested")
            verdicts[i] = FOUND
        else:
            verdicts[i] = contains_ham_power(g, m, budget).verdict
    return verdicts


def _run_trial(config: ExperimentConfig, base: Graph, t: int) -> list[tuple[str, int]]:
    """(verdict, random-part clique count) at each grid point of trial t.

    Sorting the grid by p (ties in grid order) orders the random parts and
    their unions with the base as a nested chain.  `_decide_chain` decides
    the unions; one walk up the parts counts K_{m+1}, with `count_cliques` on
    the first and, at each step, `count_new_cliques` through the edges gained
    (a repeated p adds 0).
    """
    ps = config.probabilities()
    gnp = coupled_gnp(config.n, pair_uniforms(config.n, trial_seed(config.seed, t)))
    order = sorted(range(len(ps)), key=lambda i: (ps[i], i))
    parts = [gnp(ps[i]) for i in order]
    verdicts = _decide_chain([union(base, part) for part in parts], config.m, config.budget)

    cliques = [count_cliques(parts[0], config.m + 1)] if parts else []
    for below, part in zip(parts, parts[1:]):
        cliques.append(cliques[-1] + count_new_cliques(below, part, config.m + 1))
    # back to grid order: position pos of the chain is grid point order[pos]
    return [cell for _, cell in sorted(zip(order, zip(verdicts, cliques)))]


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Run the sweep; output is independent of the worker count.  At most
    one worker per trial is started, and one worker runs in this process."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    start = time.monotonic()
    workers = min(workers, config.trials)
    trial = partial(_run_trial, config, config.base.build(config.n))
    if workers == 1:
        per_trial = [trial(t) for t in range(config.trials)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, config.trials // (4 * workers))
            per_trial = list(pool.map(trial, range(config.trials), chunksize=chunksize))

    verdicts = tuple(tuple(v for v, _ in data) for data in per_trial)
    rows = []
    for ip, p in enumerate(config.probabilities()):
        column = [trial_verdicts[ip] for trial_verdicts in verdicts]
        clique_total = sum(data[ip][1] for data in per_trial)
        rows.append(SweepRow(p, column.count(FOUND), column.count(NOT_FOUND),
                             column.count(UNKNOWN), clique_total / config.trials))
    return SweepResult(config, rows, time.monotonic() - start, verdicts)


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    total = 0
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
