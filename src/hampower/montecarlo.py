"""Reproducible containment-threshold sweeps over a probability grid.

One uniform is drawn per vertex pair per trial (counter-based, keyed by a
per-trial seed); an edge is present at probability p iff its uniform is
below p.  Thresholding the same uniforms across the whole grid couples the
trials: the edge set at p is a superset of the edge set at any p' < p, so a
trial's graphs, sorted by p, form a nested chain (as in a random graph
process), and `_decide_chain` settles every cell it does not search
exactly: NotFound transfers down the chain and a Found witness up it,
checked once against every graph it settles.  The found curve is monotone
by construction, under a search budget too, and coupling changes no
marginal distribution.

`run_sweep` is the one way to run trials.  It returns the per-trial
verdicts (`SweepResult.verdicts`, indexed [trial][grid point]) next to the
aggregated rows, both assembled in trial order, so the output is
byte-identical for a fixed config regardless of the `workers` count.  At
workers = 1 the trials run in the calling process; at workers = k >= 2 a
pool starts min(k, trials) processes and the caller only waits.  Unknown
outcomes (spent search budget) are first-class: a cell is Unknown only
when its own search ran out and no exact outcome in its chain settles it.
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
from itertools import starmap
from math import comb
from operator import and_

from . import hamsearch
from .graphs import (
    Graph,
    _integer,
    _number,
    _to_json,
    complete_graph,
    count_cliques,
    gnp_process,
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
    seed, trial = _integer("seed", seed), _integer("trial", trial)
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
        return _to_json(self)

    @staticmethod
    def from_json_dict(d: dict) -> "BaseGraphSpec":
        return BaseGraphSpec(**_json_object("base", d, BaseGraphSpec))


@dataclass(frozen=True)
class ExponentGrid:
    """p = n^(-alpha - mu) for each offset mu; exponents are exact rationals,
    stored as a Fraction and a tuple of Fractions.

    `alpha` is the grid's own exponent, not the threshold's alpha_m: m's
    threshold is p = n^(-1/alpha_m), so a grid centred on it takes
    alpha = -thresholds.threshold_exponent_of_n(m), which is 1/alpha_m.
    For m = 6 that is 4/9, not threshold_exponent(6).alpha = 9/4."""

    alpha: Fraction
    mu_list: tuple[Fraction, ...]

    def __post_init__(self):
        if isinstance(self.mu_list, str):
            raise TypeError(f"p_grid mu_list must be a sequence of numbers, got str {self.mu_list!r}")
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
        for name, least in (("n", None), ("m", 1), ("trials", 1), ("seed", None), ("budget", 1)):
            if name != "budget" or self.budget is not None:
                object.__setattr__(self, name, _integer(f"config {name}", getattr(self, name), least))
        if isinstance(self.p_grid, str):
            raise TypeError(f"config p_grid must be a sequence of numbers or an ExponentGrid, "
                            f"got str {self.p_grid!r}")
        if not isinstance(self.p_grid, ExponentGrid):
            object.__setattr__(self, "p_grid", tuple(_number("config p_grid entry", p, float) for p in self.p_grid))
        if self.n < self.m + 2:
            raise ValueError(f"need n >= m + 2, got n={self.n}, m={self.m}")
        for p in self.probabilities():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"grid probability {p} outside [0, 1]")
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
        return _to_json(self)

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
    of the next.  Each search is of the middle graph among those no outcome
    settles yet: the unsearched ones strictly between the highest NotFound
    and the lowest Found, so with no Unknown outcome this is bisection.  Then
    each graph keeps its own exact verdict, or else is NotFound below the
    highest NotFound, Found above the lowest Found, and Unknown only in
    between.  So the verdicts read NotFound*, Unknown*, Found* under any
    budget.  The lowest Found witness is checked once against every graph it
    settles, unsearched or spent alike, by one check on their intersection:
    AssertionError if it fails, as it can only on a chain that is not nested.
    """
    outcomes = [None] * len(chain)
    refuted, found = -1, len(chain)
    while unsettled := [i for i in range(refuted + 1, found) if outcomes[i] is None]:
        mid = unsettled[(len(unsettled) - 1) // 2]
        outcomes[mid] = out = contains_ham_power(chain[mid], m, budget)
        if out.verdict == FOUND:
            found = mid
        elif out.verdict == NOT_FOUND:
            refuted = mid

    verdicts, carried = [], []
    for i, (g, out) in enumerate(zip(chain, outcomes)):
        if out is not None and out.verdict != UNKNOWN:
            verdicts.append(out.verdict)
        elif i < refuted:
            verdicts.append(NOT_FOUND)  # subgraph of an exhaustively refuted graph
        elif i > found:
            carried.append(g)  # takes the lowest Found witness
            verdicts.append(FOUND)
        else:
            verdicts.append(UNKNOWN)
    if carried:
        # the witness's pairs lie in every carried graph iff they lie in the
        # intersection, so one check covers them all
        common = carried[0].adj
        for g in carried[1:]:
            common = tuple(starmap(and_, zip(common, g.adj, strict=True)))
        if not hamsearch.verify_witness(Graph._from_rows(common), m, outcomes[found].witness):
            raise AssertionError("witness failed to verify on a later graph: the chain is not nested")
    return verdicts


def _run_trial(config: ExperimentConfig, base: Graph, t: int) -> list[tuple[str, int]]:
    """(verdict, random-part clique count) at each grid point of trial t.

    The grid sorted by p (ties in grid order) is walked once by
    `gnp_process`: trial t's pairs are added in increasing order of their
    uniforms, and the random part and its running K_{m+1} count are read
    off at each p.  The parts, and so their unions with the base, form a
    nested chain, which `_decide_chain` decides.
    """
    ps = config.probabilities()
    order = sorted(range(len(ps)), key=lambda i: (ps[i], i))
    uniforms = pair_uniforms(config.n, trial_seed(config.seed, t))
    parts, cliques = gnp_process(config.n, uniforms, [ps[i] for i in order], config.m + 1)
    verdicts = _decide_chain([union(base, part) for part in parts], config.m, config.budget)
    # back to grid order: position pos of the chain is grid point order[pos]
    return [cell for _, cell in sorted(zip(order, zip(verdicts, cliques)))]


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Run the sweep; output is independent of the worker count.  At
    workers = 1 the trials run in this process; at workers = k >= 2 a pool
    starts min(k, trials) processes and this process only waits."""
    workers = _integer("workers", workers, 1)
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
    n, m = _integer("n", n), _integer("power m", m, 1)
    trials, seed = _integer("trials", trials, 1), _integer("seed", seed)
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
