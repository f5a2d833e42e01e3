"""Exact 1-density machinery.

The 1-density of a graph is e/(v - 1).  Everything here is exact rational:
the brute-force maximizer scans induced vertex subsets with a Gray-code
incremental edge count, and the optimized maximizer runs Dinkelbach iteration
where each candidate ratio is tested by minimum cuts on the edge-selection
network (one cut per anchor vertex forces nonempty subsets).  Every lambda
visited is a realized density with denominator <= v - 1, so termination and
exactness are automatic.

Also here: the closed-form braid density, strict-balance certification,
first-moment exponent profiles (n^v p^e over subgraphs), and the exact
positivity certificates showing a braid is denser than any of its
truncated-last-clique subgraphs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graphs import Graph, induced_edge_count


class CapExceeded(ValueError):
    """A brute-force scan was asked to exceed its configured vertex cap."""


DEFAULT_BRUTE_CAP = 20


@dataclass(frozen=True)
class DensityReport:
    value: Fraction
    witness: tuple[int, ...]
    method: str  # "brute" | "optimized"

    def to_json_dict(self) -> dict:
        return {
            "value": str(self.value),
            "witness": list(self.witness),
            "method": self.method,
        }


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


def _subset_density_scan(g: Graph):
    """Gray-code scan over all vertex subsets of size >= 2.

    Returns ((num, den, size, mask) for the best subset overall, same for the
    best proper subset).  "Best" is highest density, then fewest vertices,
    then lexicographically smallest vertex tuple; comparisons are exact
    integer cross-multiplications.
    """
    n = g.n
    adj = g.adj

    best_all = None     # (e, v-1, size, mask)
    best_proper = None
    full = (1 << n) - 1

    def better(e: int, size: int, mask: int, cur) -> bool:
        if cur is None:
            return True
        ce, cd, csize, cmask = cur
        lhs = e * cd
        rhs = ce * (size - 1)
        if lhs != rhs:
            return lhs > rhs
        if size != csize:
            return size < csize
        return _mask_vertices(mask) < _mask_vertices(cmask)

    mask = 0
    size = 0
    edges = 0
    for i in range(1, 1 << n):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            edges -= (adj[v] & mask).bit_count()
            size -= 1
        else:
            edges += (adj[v] & mask).bit_count()
            mask |= bit
            size += 1
        if size < 2:
            continue
        if better(edges, size, mask, best_all):
            best_all = (edges, size - 1, size, mask)
        if mask != full and better(edges, size, mask, best_proper):
            best_proper = (edges, size - 1, size, mask)
    return best_all, best_proper


def max_density_brute(g: Graph, cap: int = DEFAULT_BRUTE_CAP) -> DensityReport:
    """Exact maximum 1-density over induced subgraphs with >= 2 vertices.

    Induced subgraphs suffice: deleting edges from a fixed vertex set never
    increases the density.  Ties break to the smallest witness, then
    lexicographic.
    """
    if g.n < 2:
        raise ValueError("max density needs at least 2 vertices")
    if g.n > cap:
        raise CapExceeded(f"brute force capped at {cap} vertices, graph has {g.n}")
    best_all, _ = _subset_density_scan(g)
    e, d, _, mask = best_all
    return DensityReport(Fraction(e, d), _mask_vertices(mask), "brute")


def is_strictly_balanced(g: Graph, cap: int = DEFAULT_BRUTE_CAP):
    """True iff every proper vertex subset of size >= 2 induces strictly
    smaller 1-density than the whole graph.

    Proper spanning subgraphs are automatically strictly sparser, so vertex
    subsets suffice.  Returns (verdict, violating_subset_or_None).
    """
    if g.n < 2:
        raise ValueError("strict balance needs at least 2 vertices")
    if g.n > cap:
        raise CapExceeded(f"brute force capped at {cap} vertices, graph has {g.n}")
    whole = one_density(g)
    _, best_proper = _subset_density_scan(g)
    if best_proper is None:  # n == 2: no proper subset of size >= 2
        return True, None
    e, d, _, mask = best_proper
    if Fraction(e, d) >= whole:
        return False, _mask_vertices(mask)
    return True, None


# ---------------------------------------------------------------------------
# Optimized maximizer: Dinkelbach + minimum cuts


class _Dinic:
    """Max-flow with arbitrary-precision integer capacities."""

    def __init__(self, n: int):
        self.n = n
        self.g: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev-index]

    def add(self, u: int, v: int, cap: int) -> None:
        self.g[u].append([v, cap, len(self.g[v])])
        self.g[v].append([u, 0, len(self.g[u]) - 1])

    def _levels(self, s: int, t: int):
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v, cap, _ in self.g[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _push(self, u: int, t: int, f: int, level, it) -> int:
        if u == t:
            return f
        while it[u] < len(self.g[u]):
            e = self.g[u][it[u]]
            v, cap, rev = e
            if cap > 0 and level[v] == level[u] + 1:
                d = self._push(v, t, min(f, cap), level, it)
                if d > 0:
                    e[1] -= d
                    self.g[v][rev][1] += d
                    return d
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                f = self._push(s, t, 1 << 300, level, it)
                if f == 0:
                    break
                flow += f

    def source_side(self, s: int) -> set[int]:
        """Vertices reachable from s in the residual network (a minimum cut)."""
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for v, cap, _ in self.g[u]:
                if cap > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen


def _improving_subset(g: Graph, edges: list, lam: Fraction, anchor: int):
    """A vertex set S containing `anchor` with density > lam, or None.

    Network: source -> each edge node (cap b), edge node -> endpoints (inf),
    vertex -> sink (cap a), source -> anchor (inf), where lam = a/b.  The
    finite min cut equals b*(m - e(S)) + a*|S| minimized over S containing
    the anchor, so max(b*e(S) - a*|S|) = b*m - mincut, and a strictly denser
    subset exists iff that max exceeds -a.
    """
    a, b = lam.numerator, lam.denominator
    m = len(edges)
    n = g.n
    src = 0
    sink = 1 + m + n
    inf = b * m + a * n + 1
    net = _Dinic(sink + 1)
    for i, (u, v) in enumerate(edges):
        node = 1 + i
        net.add(src, node, b)
        net.add(node, 1 + m + u, inf)
        net.add(node, 1 + m + v, inf)
    for v in range(n):
        net.add(1 + m + v, sink, a)
    net.add(src, 1 + m + anchor, inf)
    mincut = net.max_flow(src, sink)
    if b * m - mincut + a <= 0:
        return None
    side = net.source_side(src)
    return sorted(v for v in range(n) if (1 + m + v) in side)


def max_density_opt(g: Graph) -> DensityReport:
    """Same value as max_density_brute, via exact Dinkelbach iteration.

    Each iteration tests "is there a subset strictly denser than lam" with
    one min cut per anchor vertex; any hit yields a realized density strictly
    above lam, so the sequence of lambdas is a strictly increasing walk
    through the finite set of realized densities and terminates exactly.
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
        improved = None
        for anchor in range(g.n):
            s = _improving_subset(g, edges, best, anchor)
            if s is not None:
                improved = s
                break
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
    from .braids import check_braid_params

    check_braid_params(ell, r, t)
    return Fraction(t * comb(ell, 2) + (t - 1) * comb(r + 1, 2), t * ell - 1)


def braid_density_gap_form(ell: int, r: int, t: int) -> Fraction:
    """Equivalent form: limit density minus (ell-1)*(r*(r+1)-ell) / (2*ell*(t*ell-1)).

    Strictly increasing in t exactly when ell < r*(r+1), with the limit
    braid_density_limit(ell + r, ell).
    """
    from .braids import check_braid_params
    from .thresholds import braid_density_limit

    check_braid_params(ell, r, t)
    return braid_density_limit(ell + r, ell) - Fraction(
        (ell - 1) * (r * (r + 1) - ell), 2 * ell * (t * ell - 1)
    )


# ---------------------------------------------------------------------------
# First-moment exponent profiles: n^v p^e over subgraphs


@dataclass(frozen=True)
class FirstMomentReport:
    log_whole: float                 # v_G*ln(n) + e_G*ln(p)
    log_min: float                   # min over subgraphs with >= 1 edge
    min_vertices: tuple[int, ...]
    min_profile: tuple[int, int]     # (v, e) of the minimizing subgraph


def first_moment_profile(g: Graph, n: int, p: float,
                         cap: int = DEFAULT_BRUTE_CAP) -> FirstMomentReport:
    """Log of n^v p^e for the whole graph and its minimum over subgraphs.

    The expected-copy-count scale n^v p^e depends only on the (v, e) profile,
    so the minimization runs over (vertex subset, edge count 1..induced max)
    profiles.  For p in (0, 1), ln(p) < 0, so at a fixed vertex subset the
    minimum sits at the full induced edge count; the scan exploits that.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    if n < 2:
        raise ValueError(f"scale n must be >= 2, got {n}")
    if g.n > cap:
        raise CapExceeded(f"profile scan capped at {cap} vertices, graph has {g.n}")
    if g.num_edges == 0:
        raise ValueError("minimization over subgraphs with >= 1 edge needs an edge")

    ln_n = math.log(n)
    ln_p = math.log(p)
    log_whole = g.n * ln_n + g.num_edges * ln_p

    adj = g.adj
    best = None  # (log value, size, e, mask)
    mask = 0
    size = 0
    edges = 0
    for i in range(1, 1 << g.n):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            edges -= (adj[v] & mask).bit_count()
            size -= 1
        else:
            edges += (adj[v] & mask).bit_count()
            mask |= bit
            size += 1
        if edges < 1:
            continue
        val = size * ln_n + edges * ln_p
        key = (val, size, edges, _mask_vertices(mask))
        if best is None or key < best:
            best = key
    val, size, edges, vertices = best
    return FirstMomentReport(log_whole, val, vertices, (size, edges))


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
    braid_e = t * comb(ell, 2) + (t - 1) * comb(r + 1, 2)
    trunc_e = (t - 1) * comb(ell, 2) + (t - 2) * comb(r + 1, 2) + r * x
    return braid_e * ((t - 1) * ell + x - 1) - trunc_e * (t * ell - 1)


def truncation_margin_high(ell: int, r: int, t: int, x: int) -> int:
    """Margin for r+1 <= x <= ell-1: the kept vertices induce a K_x joined to
    the previous clique by a full r-bridge."""
    braid_e = t * comb(ell, 2) + (t - 1) * comb(r + 1, 2)
    trunc_e = (t - 1) * comb(ell, 2) + (t - 1) * comb(r + 1, 2) + comb(x, 2)
    return braid_e * ((t - 1) * ell + x - 1) - trunc_e * (t * ell - 1)


def truncation_margin_linear_factor(ell: int, r: int, t: int, x: int) -> int:
    """The linear-in-x factor h with 2*margin_high = (ell - x)*h; h is
    increasing in x (slope ell*t - 1 > 0)."""
    return ell * t * x - r * r * t + r * r - r * t - ell + r - x + 1


@dataclass(frozen=True)
class MarginRow:
    x: int
    kind: str       # "low" | "high"
    value: int
    positive: bool


@dataclass(frozen=True)
class TruncationMarginReport:
    ell: int
    r: int
    t: int
    ok: bool
    rows: tuple[MarginRow, ...]


def verify_truncation_margins(ell: int, r: int, t: int) -> TruncationMarginReport:
    """Exact positivity of every truncation margin for one (ell, r, t).

    Requires t >= 2, r < ell - 1 and ell < r*(r+1) (the regime where the
    braid is the densest subgraph).  The low margins are linear in x, so the
    endpoints would suffice, but every integer x is evaluated; the high
    margins are checked both directly and through the factored form
    (ell - x)/2 * h together with h's monotonicity in x.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if not 1 <= r < ell - 1:
        raise ValueError(f"need 1 <= r < ell - 1, got r={r}, ell={ell}")
    if not ell < r * (r + 1):
        raise ValueError(f"need ell < r*(r+1), got ell={ell}, r={r}")

    rows = []
    for x in range(0, r + 1):
        val = truncation_margin_low(ell, r, t, x)
        rows.append(MarginRow(x, "low", val, val > 0))
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
        rows.append(MarginRow(x, "high", val, val > 0))

    ok = all(row.positive for row in rows)
    return TruncationMarginReport(ell, r, t, ok, tuple(rows))
