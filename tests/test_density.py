"""Exact 1-density: brute maximizer, min-cut maximizer, balance, profiles."""

import hashlib
import math
import random
from bisect import bisect_left
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest

from hampower.braids import braid, check_braid_params, s_braids
from hampower.density import (
    CapExceeded,
    DensityReport,
    _first_denser_subset,
    _subset_pairs,
    _subset_table,
    braid_density,
    first_moment_profile,
    is_strictly_balanced,
    max_density_brute,
    max_density_opt,
    one_density,
    truncation_margin_high,
    truncation_margin_linear_factor,
    truncation_margin_low,
    verify_truncation_margins,
)
from hampower.graphs import Graph, complete_graph, cycle_power, induced_edge_count, path_power, sample_gnp
from hampower.thresholds import braid_density_limit


def disjoint_cliques(*sizes) -> Graph:
    edges = []
    off = 0
    for s in sizes:
        edges.extend((off + i, off + j) for i, j in combinations(range(s), 2))
        off += s
    return Graph(off, edges)


def naive_max_density(g: Graph) -> Fraction:
    best = Fraction(0)
    for k in range(2, g.n + 1):
        for sub in combinations(range(g.n), k):
            e = sum(1 for u, v in combinations(sub, 2) if g.adj[u] >> v & 1)
            best = max(best, Fraction(e, k - 1))
    return best


def braid_density_gap_form(ell: int, r: int, t: int) -> Fraction:
    """Second form of braid_density: the limit density minus
    (ell-1)*(r*(r+1)-ell) / (2*ell*(t*ell-1)).

    Strictly increasing in t exactly when ell < r*(r+1), with the limit
    braid_density_limit(ell + r, ell).
    """
    check_braid_params(ell, r, t)
    return braid_density_limit(ell + r, ell) - Fraction(
        (ell - 1) * (r * (r + 1) - ell), 2 * ell * (t * ell - 1)
    )


def test_one_density():
    for ell in range(2, 9):
        assert one_density(complete_graph(ell)) == Fraction(ell, 2)
    assert one_density(Graph(2, [(0, 1)])) == 1
    assert one_density(braid(5, 3, 4)) == Fraction(58, 19)
    with pytest.raises(ValueError):
        one_density(Graph(1))


def test_max_density_brute_disjoint_cliques():
    rep = max_density_brute(disjoint_cliques(4, 3))
    assert rep.value == 2
    assert rep.witness == (0, 1, 2, 3)
    assert rep.method == "brute"


def test_max_density_brute_braid_is_argmax():
    # ell=4 < r(r+1)=12: the whole braid is the densest induced subgraph
    g = braid(4, 3, 3)
    rep = max_density_brute(g)
    assert rep.value == Fraction(30, 11)
    assert rep.witness == tuple(range(12))


def test_max_density_brute_empty_graph():
    rep = max_density_brute(Graph(5))
    assert rep.value == 0
    assert rep.witness == (0, 1)


def test_max_density_brute_matches_naive():
    for seed in range(8):
        g = sample_gnp(8, 0.45, 900 + seed)
        assert max_density_brute(g).value == naive_max_density(g)


def test_max_density_brute_cap():
    with pytest.raises(CapExceeded, match="capped at 20 vertices, graph has 25"):
        max_density_brute(Graph(25))


def test_max_density_opt_fixed():
    assert max_density_opt(complete_graph(5)).value == Fraction(5, 2)
    # powers of paths are strictly balanced, so the whole graph is the argmax
    assert max_density_opt(path_power(12, 2)).value == Fraction(21, 11)
    assert max_density_opt(Graph(4)).value == 0


def test_max_density_opt_two_isolated_edges():
    g = Graph(6, [(0, 1), (2, 3)])
    rep = max_density_opt(g)
    assert rep.value == 1 and rep.method == "optimized"


def test_max_density_opt_large_strictly_balanced():
    # powers of paths and cycles, and braids with ell < r(r+1), are their own
    # densest subgraphs; these sizes are far beyond brute force.  Augmenting
    # paths run around the long cycle: a recursive push raised RecursionError
    # there from 499 vertices on.
    for g, value in ((cycle_power(200, 2), Fraction(400, 199)), (path_power(150, 3), Fraction(444, 149)),
                     (cycle_power(600, 1), Fraction(600, 599)), (path_power(1200, 2), Fraction(2397, 1199)),
                     (braid(4, 3, 60), braid_density(4, 3, 60)), (braid(7, 3, 40), braid_density(7, 3, 40))):
        assert max_density_opt(g) == DensityReport(value, tuple(range(g.n)), "optimized")


def test_max_density_opt_equals_brute_on_corpus():
    from hampower.graphs import induced_edge_count

    for seed in range(40):
        g = sample_gnp(12, 0.4, 7000 + seed)
        brute = max_density_brute(g)
        opt = max_density_opt(g)
        assert opt.value == brute.value
        # report invariant: the witness realizes the reported value
        for rep in (brute, opt):
            assert len(rep.witness) >= 2
            e = induced_edge_count(g, rep.witness)
            assert Fraction(e, len(rep.witness) - 1) == rep.value


def test_max_density_opt_equals_brute_on_denser_corpus():
    for seed in range(10):
        g = sample_gnp(14, 0.6, 8100 + seed)
        assert max_density_opt(g).value == max_density_brute(g).value


def test_braid_density_forms():
    assert braid_density(5, 3, 4) == Fraction(58, 19)
    # cross-check of the rewrite: 16/5 - 28/190
    assert Fraction(16, 5) - Fraction(28, 190) == Fraction(58, 19)
    for ell in range(2, 8):
        for r in range(1, ell + 1):
            for t in range(1, 8):
                assert braid_density(ell, r, t) == braid_density_gap_form(ell, r, t)
    for ell in range(2, 7):
        assert braid_density(ell, min(2, ell), 1) == Fraction(ell, 2)


def test_braid_density_strictly_increasing_in_braid_regime():
    for ell, r in [(4, 3), (5, 3), (3, 2), (7, 4)]:
        assert ell < r * (r + 1)
        prev = braid_density(ell, r, 1)
        for t in range(2, 51):
            cur = braid_density(ell, r, t)
            assert cur > prev
            prev = cur
        assert prev < braid_density_limit(ell + r, ell)


def test_braid_density_path_power_identity():
    # for ell in {r, r+1} the braid is a path power with density r - C(r,2)/(v-1)
    for r in range(2, 6):
        for ell in (r, r + 1):
            for t in range(1, 8):
                v = t * ell
                assert braid_density(ell, r, t) == r - Fraction(math.comb(r, 2), v - 1)


def test_is_strictly_balanced():
    for ell in range(2, 9):
        assert is_strictly_balanced(complete_graph(ell)) == (True, None)
    ok, witness = is_strictly_balanced(disjoint_cliques(4, 4))
    assert not ok
    assert witness == (0, 1, 2, 3)  # a proper K_4 ties the whole graph's maximum
    assert is_strictly_balanced(braid(4, 3, 3)) == (True, None)


def test_first_moment_profile_single_edge():
    g = Graph(2, [(0, 1)])
    rep = first_moment_profile(g, 100, 0.3)
    assert rep.log_whole == pytest.approx(2 * math.log(100) + math.log(0.3))
    assert rep.min_profile == (2, 1)


def test_first_moment_profile_braid_floor():
    # at p = C * n^(-1/d_t), C >= 1, every subgraph profile stays above C*n
    for ell, r, t in [(4, 3, 2), (5, 3, 2), (3, 2, 3)]:
        d = braid_density(ell, r, t)
        g = braid(ell, r, t)
        for n in (10, 100, 10000):
            for c in (1.0, 2.0):
                p = c * float(n) ** (-1 / float(d))
                if p >= 1.0:
                    continue
                rep = first_moment_profile(g, n, p)
                assert rep.log_min >= math.log(c * n) - 1e-9


def test_first_moment_profile_disconnected_not_minimal():
    g = s_braids(3, 1, 1, 2)  # two disjoint triangles
    rep = first_moment_profile(g, 50, 0.1)  # n p = 5 > 1
    assert rep.min_profile == (3, 3)  # a single triangle, never the whole graph


def test_first_moment_profile_domain():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        first_moment_profile(g, 100, 0.0)
    with pytest.raises(ValueError):
        first_moment_profile(g, 100, 1.0)
    with pytest.raises(ValueError):
        first_moment_profile(Graph(3), 100, 0.5)  # no edges


def test_first_moment_profile_reads_p_as_a_number():
    # "0.3" failed comparing a float with a str, and True got the p-range message
    g = complete_graph(3)
    for bad in ("0.3", True):
        with pytest.raises(ValueError, match=f"^p must be a number, got {bad!r}$"):
            first_moment_profile(g, 100, bad)


def test_truncation_margin_low_values():
    assert truncation_margin_low(4, 3, 2, 0) == 12  # (ell-1)/2 * (r(r+1)-ell)
    for t in range(2, 7):
        for r in range(1, 6):
            ell = r * (r + 1)
            assert truncation_margin_low(ell, r, t, 0) == 0  # boundary case


def test_truncation_margin_factorization():
    for ell in range(4, 10):
        for r in range(1, ell - 1):
            for t in range(2, 6):
                for x in range(r + 1, ell):
                    g = truncation_margin_high(ell, r, t, x)
                    h = truncation_margin_linear_factor(ell, r, t, x)
                    assert 2 * g == (ell - x) * h


def test_verify_truncation_margins():
    assert verify_truncation_margins(5, 3, 3) is True
    # the margins it decides: low at x = 0..r, high at x = r+1..ell-1
    margins = [truncation_margin_low(5, 3, 3, x) for x in range(4)] + [truncation_margin_high(5, 3, 3, 4)]
    assert all(v > 0 for v in margins)
    with pytest.raises(ValueError):
        verify_truncation_margins(4, 3, 2)  # r < ell - 1 fails
    with pytest.raises(ValueError):
        verify_truncation_margins(5, 3, 1)  # t >= 2 fails
    with pytest.raises(ValueError):
        verify_truncation_margins(12, 3, 2)  # ell < r(r+1) fails


def test_truncation_margins_against_subgraph_densities():
    """The margins are cross-multiplied density differences; check the sign
    against literally built truncated subgraphs."""
    from hampower.graphs import induced_subgraph

    ell, r, t = 5, 3, 3
    g = braid(ell, r, t)
    d = braid_density(ell, r, t)
    for x in range(0, ell):
        kept = list(range((t - 1) * ell + x))
        if len(kept) < 2:
            continue
        sub = induced_subgraph(g, kept)
        assert one_density(sub) < d


# Reference oracle: the Gray-code walk that the subset table replaced, with
# the per-subset comparisons of the brute scans and the first-moment profile.


def reference_gray_subsets(g: Graph):
    """Every nonempty vertex subset once, as (mask, size, induced edges)."""
    mask = size = edges = 0
    for i in range(1, 1 << g.n):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            edges -= (g.adj[v] & mask).bit_count()
            size -= 1
        else:
            edges += (g.adj[v] & mask).bit_count()
            mask |= bit
            size += 1
        yield mask, size, edges


def mask_vertices(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def reference_scans(g: Graph, scales) -> tuple:
    """One walk: (max density, witness, strictly balanced) by density, then
    fewest vertices, then lexicographically smallest, the whole set losing
    ties; and for each (n, p) in `scales` the first-moment (log_min,
    min_vertices, min_profile), in the same float arithmetic."""
    full = (1 << g.n) - 1
    best_e, best_size, best_mask = -1, 2, 0
    logs = [(math.log(n), math.log(p)) for n, p in scales]
    keys = [(math.inf, 0, 0)] * len(scales)
    key_masks = [0] * len(scales)
    for mask, size, edges in reference_gray_subsets(g):
        if edges >= 1:
            for i, (ln_n, ln_p) in enumerate(logs):
                key = (size * ln_n + edges * ln_p, size, edges)
                if key < keys[i] or (key == keys[i] and mask_vertices(mask) < mask_vertices(key_masks[i])):
                    keys[i], key_masks[i] = key, mask
        if size < 2 or mask == full:
            continue
        lhs, rhs = edges * (best_size - 1), best_e * (size - 1)
        if lhs > rhs or (lhs == rhs and (size < best_size or (
                size == best_size and mask_vertices(mask) < mask_vertices(best_mask)))):
            best_e, best_size, best_mask = edges, size, mask
    profiles = [(key[0], mask_vertices(mask), key[1:]) for key, mask in zip(keys, key_masks)]
    if best_mask == 0 or g.num_edges * (best_size - 1) > best_e * (g.n - 1):
        return Fraction(g.num_edges, g.n - 1), tuple(range(g.n)), True, profiles
    return Fraction(best_e, best_size - 1), mask_vertices(best_mask), False, profiles


# Scales with equal float keys: at p = 1 - 2^-53, |ln p| is below half an ulp
# of the size term, so the edge counts of one size share a key value; at
# (64, 1/64), ln p = -ln n, so sizes and edge counts trade off exactly.
FIRST_MOMENT_SCALES = ((2, 0.5), (100, 0.05), (10_000, 0.3), (50, 1 - 2**-53), (64, 1 / 64), (7, 1e-9))


def assert_scans_match_reference(g: Graph) -> None:
    value, witness, balanced, profiles = reference_scans(g, FIRST_MOMENT_SCALES if g.num_edges else ())
    rep = max_density_brute(g)
    assert (rep.value, rep.witness) == (value, witness)
    assert is_strictly_balanced(g) == ((True, None) if balanced else (False, witness))
    for (n, p), want in zip(FIRST_MOMENT_SCALES, profiles):
        fm = first_moment_profile(g, n, p)
        assert (fm.log_min, fm.min_vertices, fm.min_profile) == want


def test_brute_scans_match_reference_on_braid_grid():
    # the criterion-4 braid grid up to 16 vertices
    for ell in range(2, 8):
        for r in range(1, ell + 1):
            for t in range(2, 5):
                if t * ell <= 16:
                    assert_scans_match_reference(braid(ell, r, t))


def test_brute_scans_match_reference_on_gnp():
    for n in range(2, 15):
        for p in (0.0, 0.15, 0.4, 0.7, 1.0):
            for seed in range(2):
                assert_scans_match_reference(sample_gnp(n, p, 15000 + 100 * n + seed))
    assert_scans_match_reference(disjoint_cliques(3, 3, 2, 3))


def test_brute_scans_match_reference_at_the_cap():
    g = sample_gnp(20, 0.25, 15020)
    assert max_density_brute(g).witness != tuple(range(20))  # a proper subset wins
    assert_scans_match_reference(g)


# Golden values: the exact (value, witness) of max_density_brute, the
# strict-balance verdict and two first-moment profiles on a seeded corpus,
# digested.  Ties are common here (equal densities of different sizes, and
# of equal size in many places), so the digest pins every tie-break rule as
# well as the values.
GOLDEN_DENSITY_GRAPHS = 68
GOLDEN_DENSITY_SHA256 = "326306759bbf546dce495d29e2d3ee4443e55e05da4be43ed424d92ea488cf79"


def golden_density_corpus() -> list[Graph]:
    gs = [
        braid(ell, r, t)
        for ell in range(2, 7)
        for r in range(1, ell + 1)
        for t in range(2, 5)
        if t * ell <= 12
    ]
    gs += [
        Graph(2), Graph(2, [(0, 1)]), Graph(5), complete_graph(4),
        disjoint_cliques(4, 4), disjoint_cliques(3, 3, 2), s_braids(3, 1, 1, 2),
    ]
    gs += [
        sample_gnp(n, p, 4000 + 100 * n + i)
        for n in (6, 9, 12)
        for p in (0.15, 0.35, 0.6)
        for i in range(3)
    ]
    return gs


def golden_density_lines() -> list[str]:
    lines = []
    for i, g in enumerate(golden_density_corpus()):
        rep = max_density_brute(g)
        balanced, violating = is_strictly_balanced(g)
        # `verify balanced` reads strict balance off the brute witness alone
        assert balanced == (len(rep.witness) == g.n), i
        assert violating == (None if balanced else rep.witness), i
        line = f"{i}: {rep.value} {rep.witness} {(balanced, violating)}"
        if g.num_edges:
            for n, p in ((100, 0.05), (10_000, 0.3)):
                fm = first_moment_profile(g, n, p)
                line += f" | {fm.log_whole!r} {fm.log_min!r} {fm.min_vertices} {fm.min_profile}"
        lines.append(line)
    return lines


def test_golden_density_corpus():
    lines = golden_density_lines()
    assert len(lines) == GOLDEN_DENSITY_GRAPHS
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_DENSITY_SHA256


# Golden values of max_density_opt: the exact (value, witness) on a corpus of
# braids, seeded G(n, p) (sparse ones with isolated vertices among them) and
# disjoint cliques, digested.  The witness is the first improving anchor's
# minimal min-cut source side, so the digest pins the whole Dinkelbach path,
# not just the optimum.
GOLDEN_OPT_GRAPHS = 115
GOLDEN_OPT_SHA256 = "95b9cfe10d8512a0f20a8ff4445ed7ee76e6f151c3eddc9be2d3634f0d788cbd"


def golden_opt_corpus() -> list[Graph]:
    gs = [
        braid(ell, r, t)
        for ell in range(2, 9)
        for r in range(1, ell + 1)
        for t in range(2, 5)
        if t * ell <= 16
    ]
    gs += [sample_gnp(12, 0.4, 7000 + seed) for seed in range(40)]
    gs += [sample_gnp(n, 0.1, 5100 + n) for n in (8, 12, 16, 20)]
    gs += [Graph(6, [(0, 1), (2, 3)]), disjoint_cliques(4, 4), disjoint_cliques(2, 3, 3)]
    gs += [braid(*key) for key in ((5, 3, 6), (6, 3, 8), (4, 3, 14), (6, 4, 11), (7, 3, 10))]
    gs += [sample_gnp(30, 0.3, 9300 + seed) for seed in range(5)]
    return gs


def golden_opt_lines() -> list[str]:
    lines = []
    for i, g in enumerate(golden_opt_corpus()):
        rep = max_density_opt(g)
        lines.append(f"{i}: {rep.value} {rep.witness}")
    return lines


def test_golden_opt_corpus():
    lines = golden_opt_lines()
    assert len(lines) == GOLDEN_OPT_GRAPHS
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_OPT_SHA256


# Reference oracle: the Dinkelbach loop with one network built afresh per
# anchor, which the single residual network per round replaced.


class ReferenceDinic:
    """The oracle's own max flow: Dinic with a full level search per phase
    and a recursive push, kept apart from the flow core under test."""

    def __init__(self, n: int):
        self.n = n
        self.g: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev-index]

    def add(self, u: int, v: int, cap: int) -> None:
        self.g[u].append([v, cap, len(self.g[v])])
        self.g[v].append([u, 0, len(self.g[u]) - 1])

    def _levels(self, s: int):
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v, cap, _ in self.g[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level

    def _push(self, u: int, t: int, f: int, level, it) -> int:
        if u == t:
            return f
        out = self.g[u]
        nxt = level[u] + 1
        while it[u] < len(out):
            e = out[it[u]]
            v, cap, rev = e
            if cap > 0 and level[v] == nxt:
                d = self._push(v, t, f if f < cap else cap, level, it)
                if d > 0:
                    e[1] -= d
                    self.g[v][rev][1] += d
                    return d
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int):
        """(flow value, levels of the final residual network: >= 0 on the
        nodes reachable from s)."""
        flow = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return flow, level
            it = [0] * self.n
            while True:
                f = self._push(s, t, 1 << 300, level, it)
                if f == 0:
                    break
                flow += f


def reference_improving_subset(g: Graph, edges: list, lam: Fraction, anchor: int):
    """A vertex set S with min(S) = `anchor` and density > lam, or None, from
    a network on the vertices anchor..n-1 and the edges among them."""
    a, b = lam.numerator, lam.denominator
    edges = edges[bisect_left(edges, (anchor,)):]
    m = len(edges)
    src = 0
    sink = 1 + m + g.n - anchor
    node = 1 + m - anchor  # vertex v is node + v
    inf = b * m + a * (g.n - anchor) + 1
    net = ReferenceDinic(sink + 1)
    for i, (u, v) in enumerate(edges, 1):
        net.add(src, i, b)
        net.add(i, node + u, inf)
        net.add(i, node + v, inf)
    for v in range(anchor, g.n):
        net.add(node + v, sink, a)
    net.add(src, node + anchor, inf)
    mincut, level = net.max_flow(src, sink)
    if b * m - mincut + a <= 0:
        return None
    return [v for v in range(anchor, g.n) if level[node + v] >= 0]


def reference_first_denser_subset(g: Graph, edges: list, lam: Fraction):
    """The least anchor's improving subset, one fresh network per anchor."""
    for anchor in range(g.n):
        s = reference_improving_subset(g, edges, lam, anchor)
        if s is not None:
            return s
    return None


def reference_max_density_opt(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    edges = sorted(g.edges)
    if not edges:
        return Fraction(0), (0, 1)
    best, witness = Fraction(g.num_edges, g.n - 1), tuple(range(g.n))
    if best < 1:
        best, witness = Fraction(1), edges[0]
    while True:
        s = reference_first_denser_subset(g, edges, best)
        if s is None:
            return best, witness
        best, witness = Fraction(induced_edge_count(g, s), len(s) - 1), tuple(s)


def assert_opt_matches_reference(g: Graph) -> None:
    rep = max_density_opt(g)
    assert (rep.value, rep.witness) == reference_max_density_opt(g), g


def test_opt_matches_reference_on_braids():
    # the criterion-4 braid grid, then the five braids beyond brute force
    # that the certify benchmark checks against the closed form
    for ell in range(2, 8):
        for r in range(1, ell + 1):
            for t in range(2, 5):
                if t * ell <= 20:
                    assert_opt_matches_reference(braid(ell, r, t))
    for key in ((5, 3, 6), (6, 3, 8), (4, 3, 14), (6, 4, 11), (7, 3, 10)):
        assert_opt_matches_reference(braid(*key))


def test_opt_matches_reference_on_gnp():
    # 203 graphs: edgeless ones, sparse ones with isolated vertices, complete ones
    rng = random.Random(18)
    for n in range(2, 31):
        for p in (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0):
            assert_opt_matches_reference(sample_gnp(n, p, rng.getrandbits(64)))
    # a single edge, isolated vertices beside dense parts, and disjoint cliques
    for g in (Graph(2, [(0, 1)]), Graph(7, [(3, 5)]), Graph(6, [(0, 1), (2, 3)]),
              Graph(8, [(1, 2), (1, 3), (2, 3), (5, 6)]), disjoint_cliques(4, 4),
              disjoint_cliques(2, 3, 3), disjoint_cliques(1, 5, 1, 4)):
        assert_opt_matches_reference(g)


def test_opt_matches_reference_on_path_powers():
    for v in range(2, 81):
        for m in (2, 3):
            assert_opt_matches_reference(path_power(v, m))


def densities_just_below(g: Graph, opt: Fraction) -> list[Fraction]:
    """The largest ratio e/(k - 1) below opt with 2 <= k <= n and
    e <= C(k, 2), and, when the subset table fits, the largest density below
    opt that some vertex subset realizes."""
    ratios = [Fraction(min(math.ceil(opt * (k - 1)) - 1, math.comb(k, 2)), k - 1) for k in range(2, g.n + 1)]
    out = [max(ratios)]
    if g.n <= 20:
        out.append(max(Fraction(e, size - 1) for size, e in _subset_pairs(*_subset_table(g))
                       if size >= 2 and Fraction(e, size - 1) < opt))
    return out


def assert_denser_subset_matches_reference(g: Graph) -> None:
    edges = sorted(g.edges)
    opt = max_density_opt(g).value
    assert _first_denser_subset(g.n, edges, opt) is None, g
    assert reference_first_denser_subset(g, edges, opt) is None, g
    for lam in densities_just_below(g, opt):
        s = _first_denser_subset(g.n, edges, lam)
        assert s is not None and s == reference_first_denser_subset(g, edges, lam), (g, lam)


def test_denser_subset_matches_reference_at_and_below_the_optimum():
    # lam = the optimum leaves no denser subset; just below it, the first
    # anchor's smallest maximizer must equal the one a fresh network gives
    for ell in range(2, 8):
        for r in range(1, ell + 1):
            for t in range(2, 5):
                if t * ell <= 20:
                    assert_denser_subset_matches_reference(braid(ell, r, t))
    rng = random.Random(29)
    for n in range(3, 31, 3):
        for p in (0.1, 0.3, 0.5, 0.8):
            g = sample_gnp(n, p, rng.getrandbits(64))
            if g.num_edges:
                assert_denser_subset_matches_reference(g)

