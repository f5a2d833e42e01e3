"""The benchmark's workloads: fixed batches of calls into hampower's public
functions, each with the checks that its outputs are correct.

A workload has `setup(seed, sweep_seed, calls)`, which builds its inputs,
and `jobs(state, calls, workers, checkpoint)`, which returns the batch as a
list of jobs; each job is a callable returning a `PassOutcome`, and running
them all is one pass.  A job may call `checkpoint()` (when it is not None)
between units of its work, where the timing harness may measure the core's
speed (see run.py).  `calls` is a `Calls`: plain function calls when untraced,
spans around each call when traced (see spans.py).

Why these workloads:

* sweep-threshold: the criterion-11 sweep config (n=16, m=2, patched
  bipartite base, eps=1/12, p in {0, 0.1, ..., 1}, no node budget).  Exact
  NotFound proofs near the threshold are the known hot spot; the search takes
  over 95% of the time.  Per-trial cost is heavy-tailed (0.01 s to 6 s), so
  the workers=2 pass also shows how the process pool balances load.
* sweep-supercritical: n=40, eps=1/8, 11 p evenly spaced in [0.5, 1], every
  cell Found.  The search runs on its Found path only; sampling, graph
  building, `union` and `count_cliques` take most of the time, and trials
  are short (about 15 ms), so the workers=2 pass shows per-task pool
  overhead.
* certify: the exact finite certificates that neither sweep touches: the
  partitioned-path edge floors, the m=6 and m=9 structure suites,
  normalization, and the density maximizers against brute force and the
  closed-form braid densities.

The sweeps run a pinned trial set (the first N trials of SWEEP_SEED, or of
--sweep-seed).  They do not draw trials from the run seed because a sweep's
cost depends heavily on which trials it gets: at the threshold one trial's
cost has a coefficient of variation of about 1.2, and above it about one
trial in 600 needs a Found search 40 times longer than the rest.  A
seed-drawn batch that fits in one run would move by 10-40% between seeds,
wider than any bound that could catch a regression.  certify draws its
random graphs and labelings from the run seed; those are many small inputs,
so its cost does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from hampower import braids, density, graphs, hamsearch, montecarlo
from hampower import partitioned_paths as pp

from spans import Tracer, rebind

SWEEP_SEED = 20260810         # the criterion-11 seed
SECOND_SWEEP_SEED = 20261017  # for checking a claim on trials it was not tuned on


@dataclass
class PassOutcome:
    ops: int                     # operations attempted: sweep cells or certify checks
    failed: int
    output: str | None = None    # sweep CSV, compared across passes and worker counts
    messages: list[str] = field(default_factory=list)

    def merge(self, other: "PassOutcome") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.messages += other.messages
        if other.output is not None:
            self.output = other.output


class Calls:
    """How a workload calls the program: directly, or through tracing wrappers."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer

    def wrap(self, name, fn, note=None, before=None):
        if self.tracer is None:
            return fn
        return self.tracer.wrap(name, fn, note=note, before=before)

    def rebind(self, bindings):
        return contextlib.nullcontext() if self.tracer is None else rebind(bindings)

    def set_trace_id(self, value):
        if self.tracer is not None:
            self.tracer.trace_id = value


# ---------------------------------------------------------------------------
# Coupled sweeps


class Sweep:
    def __init__(self, name, n, m, eps, ps, trials, budget, checkpoint_every, pinned):
        self.name = name
        self.checkpoint_every = checkpoint_every  # trials between checkpoints at workers=1
        self.n, self.m, self.eps, self.ps = n, m, eps, ps
        self.trials, self.budget = trials, budget
        self.pinned = pinned  # sweep seed -> (CSV sha256, hamsearch.nodes)

    def setup(self, seed: int, sweep_seed: int, calls: Calls):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a config warning is a setup failure
            return montecarlo.ExperimentConfig(
                n=self.n, m=self.m,
                base=montecarlo.BaseGraphSpec("patched_bipartite", eps=self.eps),
                p_grid=self.ps, trials=self.trials, seed=sweep_seed, budget=self.budget,
            )

    def jobs(self, config, calls: Calls, workers: int, checkpoint=None) -> list:
        if checkpoint is None or workers > 1:
            return [lambda: self.sweep(config, calls, workers)]
        trial_starts = 0

        def pair_uniforms(n, seed):
            # each trial starts by drawing its uniforms
            nonlocal trial_starts
            if trial_starts and trial_starts % self.checkpoint_every == 0:
                checkpoint()
            trial_starts += 1
            return graphs.pair_uniforms(n, seed)

        def job() -> PassOutcome:
            with rebind([(montecarlo, "pair_uniforms", pair_uniforms)]):
                return self.sweep(config, calls, workers)

        return [job]

    def sweep(self, config, calls: Calls, workers: int) -> PassOutcome:
        trial_of = {montecarlo.trial_seed(config.seed, t): t for t in range(config.trials)}

        def start_trial(args, kwargs):
            calls.set_trace_id(trial_of.get(args[1]))

        bindings = [
            (montecarlo, "contains_ham_power",
             calls.wrap("hamsearch.contains_ham_power", hamsearch.contains_ham_power,
                        note=lambda out, a, k: [out.verdict, out.nodes_expanded])),
            (hamsearch, "verify_witness", calls.wrap("hamsearch.verify_witness", hamsearch.verify_witness)),
            (montecarlo, "pair_uniforms",
             calls.wrap("graphs.pair_uniforms", graphs.pair_uniforms, before=start_trial)),
            (montecarlo, "union", calls.wrap("graphs.union", graphs.union)),
            (montecarlo, "count_cliques",
             calls.wrap("graphs.count_cliques", graphs.count_cliques, note=lambda r, a, k: r)),
        ]
        run_sweep = calls.wrap("montecarlo.run_sweep", montecarlo.run_sweep)
        calls.set_trace_id(None)
        with calls.rebind(bindings):
            result = run_sweep(config, workers=workers)
        return self.check(config, result)

    def check(self, config, result) -> PassOutcome:
        """Every cell at p=1 Found, found fractions monotone in p, no Unknown.
        A row failing a check fails all its cells; otherwise its Unknown
        cells fail."""
        trials = config.trials
        messages = []
        failed = 0
        prev = 0
        for row in result.rows:
            if row.found < prev or (row.p == 1.0 and row.found != trials):
                failed += trials
                messages.append(f"p={row.p}: found {row.found} of {trials} after {prev}")
            elif row.unknown:
                failed += row.unknown
                messages.append(f"p={row.p}: {row.unknown} Unknown cells")
            prev = row.found
        return PassOutcome(trials * len(result.rows), failed, montecarlo.result_to_csv(result), messages)

    def check_outputs(self, config, outcomes: list, messages: list) -> None:
        """Every pass's CSV equals the first pass's (a workers=1 pass) and, for
        a pinned sweep seed, that CSV's sha256 equals the pinned value.  A
        CSV row that differs fails its cells."""
        first = outcomes[0].output
        for out in outcomes[1:]:
            if out.output == first:
                continue
            got, want = out.output.splitlines(), first.splitlines()
            if len(got) != len(want):
                out.failed = out.ops
                out.messages.append("CSV row count differs from the first pass")
                continue
            for a, b in zip(got[1:], want[1:]):
                if a != b:
                    out.failed += config.trials
                    out.messages.append(f"CSV row {a!r} differs from the first pass's {b!r}")
            out.failed = min(out.failed, out.ops)
        pin = self.pinned.get(config.seed)
        if pin is not None and csv_sha256(first) != pin[0]:
            outcomes[0].failed = outcomes[0].ops
            messages.append(f"CSV sha256 {csv_sha256(first)} != pinned {pin[0]}")


def csv_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


SWEEP_THRESHOLD = Sweep(
    "sweep-threshold", n=16, m=2, eps=Fraction(1, 12),
    ps=tuple(i / 10 for i in range(11)), trials=6, budget=None, checkpoint_every=1,
    pinned={
        SWEEP_SEED: ("eb92036bb824db18d306f38e3401f15286ba1ac4d5e71cb020aee3ba71628d61", 1586027),
        SECOND_SWEEP_SEED: ("a472aba767407d70ca1a2cc10886b623a18393e2a78eff78ce4162fc6cc7b377", 884971),
    },
)

SWEEP_SUPERCRITICAL = Sweep(
    "sweep-supercritical", n=40, m=2, eps=Fraction(1, 8),
    ps=tuple((10 + i) / 20 for i in range(11)), trials=300, budget=1_000_000, checkpoint_every=25,
    pinned={
        SWEEP_SEED: ("a8c5d330e108386ddff110c7ed950da3ada24ddec5c2287fcc8e04ffd761630d", 59678),
        SECOND_SWEEP_SEED: ("6c732d8d85b9fc8e82b22efc82d7f1a10d2267a17a80f3ba0f7dca48b5e0fd1b", 77346),
    },
)


# ---------------------------------------------------------------------------
# Exact certificates


@dataclass
class CertifyInputs:
    grid: list          # [((ell, r, t), Graph)] criterion-4 braid grid, t*ell <= BRAID_CAP
    big_braids: list    # [((ell, r, t), Graph)] braids of 30-70 vertices
    gnp12: list         # seeded G(12, 0.4): max_density_opt against brute force
    gnp30: list         # seeded G(30, 0.3): max_density_opt witness check
    labelings: list     # seeded random valid labelings [(m, labels)], as in criterion 8


def random_labeling(rng: random.Random) -> tuple[int, str]:
    """A random valid labeling with m in 2..9 and L in 1..200, as in criterion 8."""
    m = rng.randint(2, 9)
    L = rng.randint(1, 200)
    labs = []
    side = rng.choice("AB")
    while len(labs) < L:
        labs.extend(side * rng.randint(1, m))
        side = "A" if side == "B" else "B"
    return m, "".join(labs[:L])


def labelings(m: int, L: int) -> list:
    """Every valid labeling of length L for power m, as PartitionedPath objects."""
    return [pp.PartitionedPath(m, pp.mask_to_labels(x, L)) for x in pp.iter_valid_label_masks(L, m)]


def subsets_scanned(result, args, kwargs) -> int:
    return 2 ** args[0].n


def witness_density(g, report) -> Fraction:
    return Fraction(graphs.induced_edge_count(g, report.witness), len(report.witness) - 1)


class Certify:
    name = "certify"
    FLOORS = ((2, 16), (3, 16), (4, 16), (5, 16))  # (m, L_max)
    M6_LMAX = 15
    M9_LMAX = 13
    CORPUS_LMAX = 12        # every valid labeling for m in {2, 3}
    RANDOM_LABELINGS = 2000
    BRAID_CAP = 16
    BIG_BRAIDS = ((5, 3, 6), (6, 3, 8), (4, 3, 14), (6, 4, 11), (7, 3, 10))
    GNP12 = 30
    GNP30 = 5

    def setup(self, seed: int, sweep_seed: int, calls: Calls) -> CertifyInputs:
        braid = calls.wrap("braids.braid", braids.braid)
        sample_gnp = calls.wrap("graphs.sample_gnp", graphs.sample_gnp)
        grid = [
            (ell, r, t)
            for ell in range(2, 8)
            for r in range(1, ell + 1)
            for t in range(2, 5)
            if t * ell <= self.BRAID_CAP
        ]
        rng = random.Random(seed)
        return CertifyInputs(
            grid=[(key, braid(*key)) for key in grid],
            big_braids=[(key, braid(*key)) for key in self.BIG_BRAIDS],
            gnp12=[sample_gnp(12, 0.4, rng.getrandbits(64)) for _ in range(self.GNP12)],
            gnp30=[sample_gnp(30, 0.3, rng.getrandbits(64)) for _ in range(self.GNP30)],
            labelings=[random_labeling(rng) for _ in range(self.RANDOM_LABELINGS)],
        )

    def jobs(self, inputs: CertifyInputs, calls: Calls, workers: int, checkpoint=None) -> list:
        c = _CertifyCalls(calls)
        jobs = [(f"floor-m{m}", c.floor_job, (m, lmax)) for m, lmax in self.FLOORS]
        jobs += [
            ("m6", c.structure_job, (6, 5, self.M6_LMAX, c.m6_check, _m6_ok)),
            ("m9", c.structure_job, (9, 7, self.M9_LMAX, c.m9_check, _m9_ok)),
            ("normalize-corpus", c.normalize_corpus_job, (self.CORPUS_LMAX,)),
            ("normalize-random", c.normalize_random_job, (inputs.labelings,)),
            ("braid-grid", c.braid_grid_job, (inputs.grid,)),
            ("opt-vs-brute", c.opt_vs_brute_job, (inputs.gnp12,)),
            ("opt-braids", c.opt_braids_job, (inputs.big_braids,)),
            ("opt-gnp30", c.opt_witness_job, (inputs.gnp30,)),
        ]

        def job(index, name, fn, args):
            def run() -> PassOutcome:
                calls.set_trace_id(index)
                out = calls.wrap(f"bench.{name}", fn)(*args)
                calls.set_trace_id(None)
                out.messages = [f"{name}: {msg}" for msg in out.messages]
                return out
            return run

        return [job(index, *spec) for index, spec in enumerate(jobs)]


def _m6_ok(p, rep) -> bool:
    L = p.L
    return rep.ok and 4 * rep.far3_edges >= L - 6 and (L < 7 or rep.far12_edges == 2 * L - 6)


def _m9_ok(p, rep) -> bool:
    L = p.L
    return (rep.ok and L - 8 - rep.w <= 4 * rep.z and 2 * (rep.w + rep.z) >= L - 10
            and (L < 10 or rep.far123_edges == 3 * L - 12))


class _CertifyCalls:
    """The certify jobs, calling the program through `calls`."""

    def __init__(self, calls: Calls):
        self.floor = calls.wrap("partitioned_paths.check_edge_floor_exhaustive",
                                pp.check_edge_floor_exhaustive,
                                note=lambda rows, a, k: sum(r.num_valid for r in rows))
        self.enumerate = calls.wrap("partitioned_paths.enumerate", labelings,
                                    note=lambda paths, a, k: len(paths))
        self.clique_free = calls.wrap("partitioned_paths.clique_free", pp.clique_free)
        self.m6_check = calls.wrap("partitioned_paths.m6_structure_check", pp.m6_structure_check)
        self.m9_check = calls.wrap("partitioned_paths.m9_structure_check", pp.m9_structure_check)
        self.normalize = calls.wrap("partitioned_paths.normalize", pp.normalize,
                                    note=lambda res, a, k: res.steps)
        self.brute = calls.wrap("density.max_density_brute", density.max_density_brute,
                                note=subsets_scanned)
        self.balanced = calls.wrap("density.is_strictly_balanced", density.is_strictly_balanced,
                                   note=subsets_scanned)
        self.opt = calls.wrap("density.max_density_opt", density.max_density_opt)

    def floor_job(self, m, lmax) -> PassOutcome:
        rows = self.floor(m, lmax)
        bad = [r.L for r in rows if not r.ok]
        return PassOutcome(len(rows), len(bad), messages=[f"floor fails at L={bad}"] if bad else [])

    def structure_job(self, m, clique_size, lmax, check, ok) -> PassOutcome:
        out = PassOutcome(0, 0)
        for L in range(2, lmax + 1):
            for p in self.enumerate(m, L):
                if not self.clique_free(p, clique_size):
                    continue
                out.ops += 1
                if not ok(p, check(p)):
                    out.failed += 1
                    out.messages.append(p.labels)
        return out

    def _normalize_checked(self, p, out: PassOutcome) -> None:
        res = self.normalize(p)
        m, L = p.m, p.L
        out.ops += 1
        if not (res.steps <= 4 * L * L
                and res.segments.is_normalized(m)
                and pp.normalized_edge_closed_form(res.segments, m) == res.normalized_edges
                and 2 * res.slack <= (m - 1) ** 2):
            out.failed += 1
            out.messages.append(f"m={m} {p.labels}")

    def normalize_corpus_job(self, lmax) -> PassOutcome:
        out = PassOutcome(0, 0)
        for m in (2, 3):
            for L in range(1, lmax + 1):
                for p in self.enumerate(m, L):
                    self._normalize_checked(p, out)
        return out

    def normalize_random_job(self, labelings_) -> PassOutcome:
        out = PassOutcome(0, 0)
        for m, labels in labelings_:
            self._normalize_checked(pp.PartitionedPath(m, labels), out)
        return out

    def _opt_checked(self, g, out: PassOutcome, expected=None):
        rep = self.opt(g)
        out.ops += 1
        if witness_density(g, rep) != rep.value or (expected is not None and rep.value != expected):
            out.failed += 1
            out.messages.append(f"max_density_opt {rep.value} on {g!r}, expected {expected}")

    def braid_grid_job(self, grid) -> PassOutcome:
        """Criterion 4 (brute force against the closed form, strict balance in
        the braid regime) and criterion 5 (optimized against brute force)."""
        out = PassOutcome(0, 0)
        for (ell, r, t), g in grid:
            rep = self.brute(g)
            out.ops += 1
            regime = ell < r * (r + 1)
            want = density.braid_density(ell, r, t) if regime else Fraction(ell, 2)
            if rep.value != want:
                out.failed += 1
                out.messages.append(f"brute {rep.value} != {want} at {(ell, r, t)}")
            if regime:
                out.ops += 1
                if not self.balanced(g)[0]:
                    out.failed += 1
                    out.messages.append(f"not strictly balanced at {(ell, r, t)}")
            self._opt_checked(g, out, rep.value)
        return out

    def opt_vs_brute_job(self, gs) -> PassOutcome:
        out = PassOutcome(0, 0)
        for g in gs:
            self._opt_checked(g, out, self.brute(g).value)
        return out

    def opt_braids_job(self, big) -> PassOutcome:
        """Braids beyond brute force, in the regime where the braid is its own
        densest subgraph: the optimum equals the closed form."""
        out = PassOutcome(0, 0)
        for (ell, r, t), g in big:
            self._opt_checked(g, out, density.braid_density(ell, r, t))
        return out

    def opt_witness_job(self, gs) -> PassOutcome:
        out = PassOutcome(0, 0)
        for g in gs:
            self._opt_checked(g, out)
        return out


WORKLOADS = {
    "sweep-threshold": SWEEP_THRESHOLD,
    "sweep-supercritical": SWEEP_SUPERCRITICAL,
    "certify": Certify(),
}
