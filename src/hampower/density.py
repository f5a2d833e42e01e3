"""Exact 1-density machinery.

The 1-density of a graph is e/(v - 1).  Everything here is exact rational.
One table of every vertex subset's induced edge count and size
(`_subset_table`, numpy arrays indexed by the subset's bitmask) serves every
brute-force scan.  The scans read it by (size, edges) pair: the maximizer and
the strict-balance check read the same result (the densest proper subset
against the whole graph), and the first-moment profile applies its own
objective to each pair.  The optimized maximizer runs Dinkelbach iteration
where each candidate ratio is tested by minimum cuts on the edge-selection
network, one cut per anchor vertex in increasing order (the anchor forces a
nonempty subset).  The cut for anchor v only needs the vertices v..n-1: a
denser subset holding a smaller vertex would already have stopped the scan
at that vertex.  So one network per ratio serves every anchor: each anchor
augments the flow the one before it left, and a failed anchor is deleted
with the flow through it, its dead arcs cut off the front of the source's
arc list.  The cut itself needs no search of its own: Dinic's last level
search, the one that no longer reaches the sink, has marked exactly the
residual source side; every other level search stops as soon as it reaches
the sink.  Augmenting paths are followed with an explicit stack of arcs, so
no path is too long for the recursion limit.  Every lambda visited is a
realized density with denominator <= v - 1, so termination and exactness
are automatic.

Also here: the closed-form braid density (its edge count is
`braids.braid_edge_count`), strict-balance certification, first-moment
exponent profiles (n^v p^e over subgraphs), and the exact positivity
certificates showing a braid is denser than any of its truncated-last-clique
subgraphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import itemgetter

import numpy as np

from .braids import braid_edge_count, check_braid_params
from .graphs import Graph, _integer, _number, induced_edge_count


class CapExceeded(ValueError):
    """A brute-force scan was asked to exceed BRUTE_CAP vertices."""


BRUTE_CAP = 20  # largest graph the 2^n subset scans accept


@dataclass(frozen=True)
class DensityReport:
    value: Fraction
    witness: tuple[int, ...]
    method: str  # "brute" | "optimized"


def one_density(g: Graph) -> Fraction:
    """e/(v - 1), exact."""
    if g.n < 2:
        raise ValueError(f"1-density needs at least 2 vertices, got {g.n}")
    return Fraction(g.num_edges, g.n - 1)


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return tuple(out)


def _subset_table(g: Graph):
    """Every vertex subset's induced edge count and size, as two arrays
    indexed by the subset's bitmask (the empty set included).

    Built by doubling: the subsets holding vertex v as their highest vertex
    are those below 2^v plus v, which gains one edge per neighbour in them.
    """
    idx = np.arange(1 << g.n, dtype=np.uint32)
    edges = np.zeros(1 << g.n, np.int16)
    sizes = np.zeros(1 << g.n, np.uint8)
    for v, row in enumerate(g.adj):
        h = 1 << v
        edges[h : 2 * h] = edges[:h] + np.bitwise_count(idx[:h] & row)
        sizes[h : 2 * h] = sizes[:h] + 1
    return edges, sizes


def _subset_pairs(edges, sizes) -> list[list[int]]:
    """The distinct (size, edges) pairs of a subset table, in increasing order."""
    present = np.zeros((int(sizes[-1]) + 1, int(edges.max()) + 1), bool)  # sizes[-1]: the full set
    present[sizes, edges] = True
    return np.argwhere(present).tolist()


def _first_mask(edges, sizes, size: int, count: int) -> int:
    """The mask with the lexicographically smallest vertex tuple among the
    subsets of `size` vertices inducing `count` edges."""
    masks = np.flatnonzero((sizes == size) & (edges == count)).tolist()
    return min(masks, key=_mask_vertices)


def _brute_densest(g: Graph, what: str):
    """Scan every vertex subset of size >= 2; returns (edges, size, mask,
    whole_wins): the densest subset, and whether it is the whole vertex set,
    that is, whether the whole set is strictly denser than every proper one.

    "Densest" is highest density, then fewest vertices, then lexicographically
    smallest vertex tuple; comparisons are exact integer cross-multiplications.
    Subsets of one size and edge count tie, so the scan compares the distinct
    (size, edges) pairs, fewest vertices first, and only then picks the
    smallest vertex tuple of the winning pair.
    The whole vertex set has the most vertices, so it loses every tie: it is
    compared once, after the proper subsets, and wins only when strictly
    denser.
    """
    if g.n < 2:
        raise ValueError(f"{what} needs at least 2 vertices")
    if g.n > BRUTE_CAP:
        raise CapExceeded(f"brute force capped at {BRUTE_CAP} vertices, graph has {g.n}")
    edges, sizes = _subset_table(g)
    best_e, best_size = -1, 2  # density -1: every subset beats it
    for size, e in _subset_pairs(edges, sizes):
        if 2 <= size < g.n and e * (best_size - 1) > best_e * (size - 1):
            best_e, best_size = e, size
    # best_e == -1 when n == 2: there is no proper subset of size >= 2
    if best_e < 0 or g.num_edges * (best_size - 1) > best_e * (g.n - 1):
        return g.num_edges, g.n, (1 << g.n) - 1, True
    return best_e, best_size, _first_mask(edges, sizes, best_size, best_e), False


def max_density_brute(g: Graph) -> DensityReport:
    """Exact maximum 1-density over induced subgraphs with >= 2 vertices.

    Induced subgraphs suffice: deleting edges from a fixed vertex set never
    increases the density.  Ties break to the smallest witness, then
    lexicographic, so the witness is the whole vertex set exactly when g is
    strictly balanced.
    """
    e, size, mask, _ = _brute_densest(g, "max density")
    return DensityReport(Fraction(e, size - 1), _mask_vertices(mask), "brute")


def is_strictly_balanced(g: Graph):
    """True iff every proper vertex subset of size >= 2 induces strictly
    smaller 1-density than the whole graph.

    Proper spanning subgraphs are automatically strictly sparser, so vertex
    subsets suffice.  Returns (verdict, violating_subset_or_None); the
    violating subset is the densest proper one.
    """
    _, _, mask, balanced = _brute_densest(g, "strict balance")
    return (True, None) if balanced else (False, _mask_vertices(mask))


# ---------------------------------------------------------------------------
# Optimized maximizer: Dinkelbach + minimum cuts


class _Dinic:
    """Max-flow with arbitrary-precision integer capacities.

    Each node's arcs are `[to, cap, rev]` lists, `rev` being the index of
    the reverse arc in the list of `to`.
    """

    def __init__(self, n: int):
        self.n = n
        self.g: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev-index]

    def add(self, u: int, v: int, cap: int) -> list[int]:
        """Adds the arc u -> v and its reverse; returns the arc."""
        arc = [v, cap, len(self.g[v])]
        self.g[u].append(arc)
        self.g[v].append([u, 0, len(self.g[u]) - 1])
        return arc

    def cut(self, arc: list[int]) -> int:
        """Drops an arc added by `add` and its reverse from the residual
        network; returns the flow the arc carried."""
        rev = self.g[arc[0]][arc[2]]
        flow = rev[1]
        arc[1] = rev[1] = 0
        return flow

    def cancel(self, arc: list[int], flow: int) -> None:
        """Takes `flow` units of flow off an arc added by `add`."""
        arc[1] += flow
        self.g[arc[0]][arc[2]][1] -= flow

    def _levels(self, s: int, t: int):
        """Breadth-first levels from s in the residual network (-1: none),
        given up to the moment t gets one, or to every node reachable from s
        when t is not reachable."""
        level = [-1] * self.n
        level[s] = 0
        q = [s]
        for u in q:
            nxt = level[u] + 1
            for v, cap, _ in self.g[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = nxt
                    if v == t:
                        return level
                    q.append(v)
        return level

    def _blocking_flow(self, s: int, t: int, level) -> int:
        """Saturates every s-t path of the level graph; returns the flow added.

        Depth-first along the arcs that go one level up, keeping the path as
        a stack of arcs, so the path length is not bounded by the recursion
        limit.  `it[u]` is the first arc of u not yet known to be useless in
        this phase; a node whose arcs run out is left for good.
        """
        g = self.g
        it = [0] * self.n
        flow = 0
        path: list[list[int]] = []  # arcs from s to u
        tails: list[int] = []       # the tail of each arc of path
        u = s
        while True:
            if u == t:
                # the first arc of least residual capacity: the first one
                # the augmentation saturates
                first_sat = min(path, key=itemgetter(1))
                k = path.index(first_sat)
                f = first_sat[1]
                for arc in path:
                    arc[1] -= f
                    g[arc[0]][arc[2]][1] += f
                flow += f
                u = tails[k]  # resume below the first saturated arc
                del path[k:], tails[k:]
                continue
            out = g[u]
            nxt = level[u] + 1
            for i in range(it[u], len(out)):
                arc = out[i]
                if arc[1] > 0 and level[arc[0]] == nxt:
                    it[u] = i
                    path.append(arc)
                    tails.append(u)
                    u = arc[0]
                    break
            else:  # u is a dead end: retreat and skip the arc into it
                if u == s:
                    return flow
                it[u] = len(out)
                path.pop()
                u = tails.pop()
                it[u] += 1

    def max_flow(self, s: int, t: int):
        """(flow value, levels of the final residual network).

        Each phase's level search stops once t has a level.  That is exact:
        a breadth-first search levels every node nearer s than t before it
        reaches t, and the blocking flow moves only along arcs one level up,
        so every path it augments runs through those nodes.  The last level
        search is the one that fails to reach t, so it runs to the end: the
        nodes it levelled (level >= 0) are exactly those reachable from s in
        the residual network, the source side of a minimum cut.
        """
        flow = 0
        while True:
            level = self._levels(s, t)
            if level[t] < 0:
                return flow, level
            flow += self._blocking_flow(s, t, level)


def _first_denser_subset(n: int, edges: list, lam: Fraction):
    """A vertex set denser than lam = a/b, or None when there is none: for
    the least anchor v that has one, the smallest maximizer of
    b*e(S) - a*|S| over the sets S of v..n-1 containing v.

    One network serves every anchor: source -> each edge node (cap b), edge
    node -> both endpoints (inf), vertex -> sink (cap a), and source ->
    anchor (inf) once that vertex is the anchor.  Its finite min cut for
    anchor v equals b*(m_v - e(S)) + a*|S| minimized over the sets S of
    v..n-1 containing v, where m_v is the number of edges among v..n-1, so
    a strictly denser subset exists iff b*m_v - mincut + a > 0.  The source
    side of the residual network is the smallest maximizing S.

    The anchors are tried in increasing order, each augmenting the flow the
    previous one left.  A failed anchor v is deleted before the next: its
    arcs and those of its edge nodes lose all residual capacity, and the
    flow through them is cancelled.  Vertex nodes send flow only to the
    sink, so the flow that edge node (v, w) sent to w is returned on
    w -> sink; what remains is a flow of the network on v+1..n-1 with the
    same value less the cancelled flow.  Augmenting from it gives a maximum
    flow of that network, and the vertices reachable from the source in the
    residual network of any maximum flow form the same set, the minimal
    source side of a minimum cut; so the witness is the one a network built
    afresh for the anchor would give.

    The source's arcs are laid out in deletion order: anchor v, then the
    edges whose lower endpoint is v, for v = 0, 1, ...  So the arcs a
    failed anchor kills form a prefix of the source's list, and that prefix
    is cut off: every level search and every blocking flow scans that list,
    and would otherwise step over all the dead arcs of the anchors before.
    Cutting it off leaves the `rev` indices of the reverse arcs into the
    source stale.  They are never read: an arc is read through its reverse
    only when flow moves along it, no search levels the source twice, and
    no augmenting path enters the source, whose level is 0.
    """
    a, b = lam.numerator, lam.denominator
    m = len(edges)
    src, sink = 0, 1 + m + n
    node = 1 + m  # vertex v is node + v
    inf = b * m + a * n + 1
    net = _Dinic(sink + 1)
    anchor_arc = []
    edge_arcs = []
    for v in range(n):
        anchor_arc.append(net.add(src, node + v, 0))
        for i in range(len(edge_arcs), m):
            u, w = edges[i]
            if u != v:
                break
            edge_arcs.append((net.add(src, i + 1, b), net.add(i + 1, node + u, inf),
                              net.add(i + 1, node + w, inf)))
    sink_arc = [net.add(node + v, sink, a) for v in range(n)]
    flow = 0
    first = 0  # edges[first:] are the edges among the anchor and the vertices above it
    for v in range(n):
        anchor_arc[v][1] = inf
        more, level = net.max_flow(src, sink)
        flow += more
        if b * (m - first) - flow + a > 0:
            return [u for u in range(v, n) if level[node + u] >= 0]
        net.cut(anchor_arc[v])
        flow -= net.cut(sink_arc[v])
        dead = first
        while first < m and edges[first][0] == v:
            into_src, to_v, to_w = edge_arcs[first]
            net.cut(into_src)
            net.cut(to_v)
            sent = net.cut(to_w)
            net.cancel(sink_arc[edges[first][1]], sent)
            flow -= sent
            first += 1
        del net.g[src][: 1 + first - dead]  # anchor v and its edges
    return None


def max_density_opt(g: Graph) -> DensityReport:
    """Same value as max_density_brute, via exact Dinkelbach iteration.

    Each iteration tests "is there a subset strictly denser than lam" with
    one min cut per anchor vertex, in increasing order, all on one residual
    network (`_first_denser_subset`); any hit yields a realized density
    strictly above lam, so the sequence of lambdas is a strictly increasing
    walk through the finite set of realized densities and terminates
    exactly.

    The cut for anchor v runs on the vertices v..n-1 and the edges among
    them only.  That is exact: when anchor v is tried, no anchor u < v had a
    subset denser than lam, so no such subset contains u.  Hence, whenever
    some S containing v is denser than lam, every maximizer of
    b*e(S) - a*|S| over the sets S containing v lies in v..n-1.  The first
    improving anchor, the optimum of its cut and the smallest optimal source
    side, which becomes the witness, are therefore those of the cut on the
    whole graph.
    """
    if g.n < 2:
        raise ValueError("max density needs at least 2 vertices")
    edges = sorted(g.edges)
    if not edges:
        return DensityReport(Fraction(0), (0, 1), "optimized")
    best = one_density(g)
    witness: tuple[int, ...] = tuple(range(g.n))
    if best < 1:
        best = Fraction(1)
        witness = edges[0]
    while True:
        improved = _first_denser_subset(g.n, edges, best)
        if improved is None:
            return DensityReport(best, witness, "optimized")
        e = induced_edge_count(g, improved)
        val = Fraction(e, len(improved) - 1)
        if val <= best:
            raise AssertionError("min-cut returned a non-improving subset")
        best, witness = val, tuple(improved)


# ---------------------------------------------------------------------------
# Braid densities in closed form


def braid_density(ell: int, r: int, t: int) -> Fraction:
    """1-density of B(ell, r, t): (t*C(ell,2) + (t-1)*C(r+1,2)) / (t*ell - 1)."""
    ell, r, t, _ = check_braid_params(ell, r, t)
    return Fraction(braid_edge_count(ell, r, t), t * ell - 1)


# ---------------------------------------------------------------------------
# First-moment exponent profiles: n^v p^e over subgraphs


@dataclass(frozen=True)
class FirstMomentReport:
    log_whole: float                 # v_G*ln(n) + e_G*ln(p)
    log_min: float                   # min over subgraphs with >= 1 edge
    min_vertices: tuple[int, ...]
    min_profile: tuple[int, int]     # (v, e) of the minimizing subgraph


def first_moment_profile(g: Graph, n: int, p: float) -> FirstMomentReport:
    """Log of n^v p^e for the whole graph and its minimum over subgraphs.

    The expected-copy-count scale n^v p^e depends only on the (v, e) profile,
    so the minimization runs over (vertex subset, edge count 1..induced max)
    profiles.  For p in (0, 1), ln(p) < 0, so at a fixed vertex subset the
    minimum sits at the full induced edge count; the scan exploits that.
    """
    p = _number("p", p, float)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    n = _integer("scale n", n, 2)
    if g.n > BRUTE_CAP:
        raise CapExceeded(f"profile scan capped at {BRUTE_CAP} vertices, graph has {g.n}")
    if g.num_edges == 0:
        raise ValueError("minimization over subgraphs with >= 1 edge needs an edge")

    ln_n = math.log(n)
    ln_p = math.log(p)
    log_whole = g.n * ln_n + g.num_edges * ln_p

    edges, sizes = _subset_table(g)
    # the key depends on the (size, edges) pair only, and distinct pairs
    # have distinct keys
    val, size, count = min(
        (size * ln_n + e * ln_p, size, e) for size, e in _subset_pairs(edges, sizes) if e >= 1
    )
    return FirstMomentReport(log_whole, val, _mask_vertices(_first_mask(edges, sizes, size, count)),
                             (size, count))


# ---------------------------------------------------------------------------
# Positivity certificates: a braid beats its truncated-last-clique subgraphs
#
# H keeps the first t-1 cliques whole plus x vertices of the last clique.
# The margins below are the cross-multiplied differences d_braid - d_H, so
# positivity for all x certifies the braid is strictly denser than every
# such truncation.  Both are plain integer polynomials.


def truncation_margin_low(ell: int, r: int, t: int, x: int) -> int:
    """Margin for 0 <= x <= r: each kept vertex of the last clique contributes
    exactly r edges.  At x=0 this equals (ell-1)*(r*(r+1)-ell)/2, which
    vanishes exactly on the boundary ell = r*(r+1)."""
    ell, r, t, _ = check_braid_params(ell, r, t)
    x = _integer("x", x)
    braid_e = braid_edge_count(ell, r, t)
    trunc_e = braid_e - comb(ell, 2) - comb(r + 1, 2) + r * x
    return braid_e * ((t - 1) * ell + x - 1) - trunc_e * (t * ell - 1)


def truncation_margin_high(ell: int, r: int, t: int, x: int) -> int:
    """Margin for r+1 <= x <= ell-1: the kept vertices induce a K_x joined to
    the previous clique by a full r-bridge."""
    ell, r, t, _ = check_braid_params(ell, r, t)
    x = _integer("x", x)
    braid_e = braid_edge_count(ell, r, t)
    trunc_e = braid_e - comb(ell, 2) + comb(x, 2)
    return braid_e * ((t - 1) * ell + x - 1) - trunc_e * (t * ell - 1)


def truncation_margin_linear_factor(ell: int, r: int, t: int, x: int) -> int:
    """The linear-in-x factor h with 2*margin_high = (ell - x)*h; h is
    increasing in x (slope ell*t - 1 > 0)."""
    ell, r, t, _ = check_braid_params(ell, r, t)
    x = _integer("x", x)
    return ell * t * x - r * r * t + r * r - r * t - ell + r - x + 1


def verify_truncation_margins(ell: int, r: int, t: int) -> bool:
    """True iff every truncation margin for one (ell, r, t) is positive (exact).

    Requires t >= 2, r < ell - 1 and ell < r*(r+1) (the regime where the
    braid is the densest subgraph).  The low margins are linear in x, so the
    endpoints would suffice, but every integer x is evaluated; the high
    margins are checked both directly and through the factored form
    (ell - x)/2 * h together with h's monotonicity in x.
    """
    ell, r = _integer("clique size ell", ell), _integer("bridge width r", r)
    t = _integer("clique count t", t, 2)
    if not 1 <= r < ell - 1:
        raise ValueError(f"need 1 <= r < ell - 1, got r={r}, ell={ell}")
    if not ell < r * (r + 1):
        raise ValueError(f"need ell < r*(r+1), got ell={ell}, r={r}")

    ok = min(truncation_margin_low(ell, r, t, x) for x in range(0, r + 1)) > 0
    # closed form at x = 0
    if 2 * truncation_margin_low(ell, r, t, 0) != (ell - 1) * (r * (r + 1) - ell):
        raise AssertionError(f"low margin at x=0 disagrees with its closed form for {(ell, r, t)}")

    prev_h = None
    for x in range(r + 1, ell):
        val = truncation_margin_high(ell, r, t, x)
        h = truncation_margin_linear_factor(ell, r, t, x)
        if 2 * val != (ell - x) * h:
            raise AssertionError(f"high margin at x={x} disagrees with (ell - x)/2 * h for {(ell, r, t)}")
        if prev_h is not None and h <= prev_h:  # slope ell*t - 1 > 0
            raise AssertionError(f"h is not increasing at x={x} for {(ell, r, t)}")
        prev_h = h
        ok &= val > 0
    return ok
