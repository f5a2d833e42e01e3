"""Undirected simple graphs on vertices 0..n-1, stored as bitmask adjacency rows.

Every neighborhood is a Python int used as a bitset, and these rows are the
only stored form of a graph: the hot operations everywhere else in the
package (intersecting neighborhoods during clique counting and cycle-power
search, unions of graphs) are word-parallel ANDs and ORs.  The edge set is
derived from the rows on first use.  Random graphs are thresholded straight
into rows through numpy bit packing, with no edge list in between.  Graphs
are immutable after construction and safe to share across workers.

Cliques are counted either from scratch (`count_cliques`) or, for a graph
that only adds edges to another, as the cliques through the added edges
(`count_new_cliques`); the coupled sweep counts each trial's first graph
the first way and every larger one the second.

The package's two argument rules live here too: `_integer` (an int, numpy
integers by value, never a bool or a float) and `_number` (a number, never
a bool, or a string such as "1/8" where a Fraction is wanted).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

Edge = tuple[int, int]

_MASK128 = (1 << 128) - 1


def _integer(name: str, value) -> int:
    """value as an int through operator.index, so numpy integers pass; a
    float, which would be truncated or compared as a real, and a bool, which
    would act as 0 or 1, raise TypeError naming the parameter."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def _number(what: str, value, kind=Fraction):
    """kind(value), or a ValueError naming the field.  Booleans are not
    numbers; strings are read only as Fractions, in a form such as "1/8"."""
    if isinstance(value, bool) or (isinstance(value, str) and kind is not Fraction):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{what} must be a number, got {value!r}") from exc


class Graph:
    """Immutable simple graph: a vertex count n plus one neighbor bitmask per vertex.

    `adj[i]` has bit j set iff ij is an edge.  `Graph(n, edges)` validates the
    edges (no self-loops, endpoints in 0..n-1; duplicates merge) and writes
    the rows; `edges` is the frozenset of pairs (u, v), u < v, read off the
    rows.
    """

    def __init__(self, n: int, edges=()):
        n = _integer("vertex count", n)
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                u, v = _integer("edge endpoint", u), _integer("edge endpoint", v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj: tuple[int, ...] = tuple(rows)

    @classmethod
    def _from_rows(cls, rows) -> "Graph":
        """A graph from rows already known to be symmetric and loop-free."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g.adj = tuple(rows)
        return g

    @cached_property
    def edges(self) -> frozenset[Edge]:
        es = []
        for u, row in enumerate(self.adj):
            rest = row >> (u + 1) << (u + 1)
            while rest:
                bit = rest & -rest
                rest ^= bit
                es.append((u, bit.bit_length() - 1))
        return frozenset(es)

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("empty graph has no degrees")
        return min(r.bit_count() for r in self.adj)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def _pack_rows(bits: np.ndarray) -> tuple[int, ...]:
    """Rows of an n x n boolean matrix as ints: bit j of row i is bits[i, j]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return tuple(int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(packed)))


def _unpack_rows(rows, n: int) -> np.ndarray:
    """Inverse of _pack_rows: a len(rows) x n uint8 matrix of adjacency bits."""
    width = (n + 7) // 8
    data = b"".join(r.to_bytes(width, "little") for r in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


# ---------------------------------------------------------------------------
# Deterministic constructors


def complete_graph(n: int) -> Graph:
    """All C(n, 2) edges on n >= 1 vertices."""
    n = _integer("n", n)
    if n < 1:
        raise ValueError("complete_graph needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def path_power(v: int, m: int) -> Graph:
    """m-th power of the path on v vertices: i ~ j iff 0 < |i - j| <= m.

    For v >= m + 1 the edge count is v*m - C(m+1, 2).
    """
    v, m = _integer("v", v), _integer("m", m)
    if v < 1 or m < 1:
        raise ValueError("path_power needs v >= 1 and m >= 1")
    edges = [(i, j) for i in range(v) for j in range(i + 1, min(i + m, v - 1) + 1)]
    return Graph(v, edges)


def cycle_power(v: int, m: int) -> Graph:
    """m-th power of the cycle on v vertices: i ~ j iff cyclic distance <= m.

    For v >= 2m + 1 the edge count is v*m (the graph is 2m-regular).
    """
    v, m = _integer("v", v), _integer("m", m)
    if v < 3 or m < 1:
        raise ValueError("cycle_power needs v >= 3 and m >= 1")
    edges = set()
    for i in range(v):
        for d in range(1, min(m, v - 1) + 1):
            j = (i + d) % v
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph(v, edges)


def eps_patch_size(n: int, eps: Fraction) -> int:
    """floor(eps * n) for the patched bipartite construction."""
    eps = Fraction(eps)
    return (eps.numerator * n) // eps.denominator


def patched_bipartite(n: int, eps) -> Graph:
    """Complete bipartite K_{n/2,n/2} plus one patch on each side.

    The sides are X = {0..n/2-1} and Y = {n/2..n-1}.  The patches join the
    first floor(eps*n) vertices of each side (U in X, W in Y) completely to
    the rest of their own side.  U and W sit at fixed canonical positions so
    the output is reproducible.  Minimum degree is n/2 + floor(eps*n)
    (attained on X\\U and Y\\W whenever floor(eps*n) <= n/2 - floor(eps*n)).
    eps may be a number or a string such as "1/8".
    """
    n, eps = _integer("n", n), _number("eps", eps)
    if n < 2 or n % 2 != 0:
        raise ValueError(f"patched_bipartite needs even n >= 2, got {n}")
    if not (0 < eps <= Fraction(1, 4)):
        raise ValueError(f"eps must lie in (0, 1/4], got {eps}")
    k = eps_patch_size(n, eps)
    if k < 1:
        raise ValueError(f"floor(eps*n) = {k}; patches would be empty (n={n}, eps={eps})")
    half = n // 2
    edges = [(x, y) for x in range(half) for y in range(half, n)]
    edges += [(u, x) for u in range(k) for x in range(k, half)]
    edges += [(w, y) for w in range(half, half + k) for y in range(half + k, n)]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Random graphs

# The sampler is counter-based (Philox): the k-th pair always consumes the
# k-th draw of the stream, independent of evaluation order.  Thresholding one
# fixed uniform per pair is also the coupling device used by the sweep module.


def pair_uniforms(n: int, seed: int) -> np.ndarray:
    """One uniform per unordered pair, in row-major upper-triangle order."""
    n, seed = _integer("n", n), _integer("seed", seed)
    if n < 0:
        raise ValueError("n must be nonnegative")
    bg = np.random.Philox(key=seed & _MASK128)
    return np.random.Generator(bg).random(n * (n - 1) // 2)


def coupled_gnp(n: int, uniforms: np.ndarray):
    """The coupled family p -> G(n, p) over one array of pair uniforms.

    `uniforms` is pair_uniforms(n, seed) (row-major upper triangle).  The
    returned function maps p in [0, 1] to the graph keeping each pair whose
    uniform lies below p, so the graphs are nested in p.  The uniforms are
    laid out once as a symmetric n x n matrix (diagonal 1, never below p);
    each p then costs one comparison and one bit packing of that matrix.
    """
    if len(uniforms) != n * (n - 1) // 2:
        raise ValueError(f"need {n * (n - 1) // 2} pair uniforms for n={n}, got {len(uniforms)}")
    matrix = np.ones((n, n))
    iu = np.triu_indices(n, k=1)
    matrix[iu] = uniforms
    matrix.T[iu] = uniforms

    def at(p: float) -> Graph:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        return Graph._from_rows(_pack_rows(matrix < p))

    return at


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each pair kept independently with probability p.

    Identical (n, p, seed) triples give identical edge sets.  For a fixed
    seed the edge set at p' <= p is a subset of the edge set at p.
    """
    return coupled_gnp(n, pair_uniforms(n, seed))(p)


def union(g: Graph, h: Graph) -> Graph:
    """Edge-set union of two graphs on the same vertex set."""
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    return Graph._from_rows([a | b for a, b in zip(g.adj, h.adj)])


# ---------------------------------------------------------------------------
# Subgraph machinery


def _cliques_in(adj, cand: int, need: int) -> int:
    """Number of need-vertex cliques inside the vertex mask cand.

    Vertices are extended in ascending index order, so every clique is counted
    once; candidate sets shrink via bitmask intersection.  The last two levels
    are one flat loop: a candidate v closes (rest & adj[v]).bit_count()
    cliques with the candidates above it.
    """
    total = 0
    rest = cand
    if need == 2:
        while rest:
            bit = rest & -rest
            rest ^= bit
            total += (rest & adj[bit.bit_length() - 1]).bit_count()
        return total
    if need < 2:
        return 1 if need == 0 else cand.bit_count()
    if cand.bit_count() < need:
        return 0
    while rest:
        bit = rest & -rest
        rest ^= bit
        total += _cliques_in(adj, rest & adj[bit.bit_length() - 1], need - 1)
    return total


def count_cliques(g: Graph, s: int) -> int:
    """Exact number of s-vertex cliques, by pruned recursion on neighborhood masks."""
    s = _integer("clique size", s)
    if s < 1:
        raise ValueError("clique size must be >= 1")
    if s == 1:
        return g.n
    if s > g.n:
        return 0
    return _cliques_in(g.adj, (1 << g.n) - 1, s)


def count_new_cliques(old: Graph, new: Graph, s: int) -> int:
    """Number of s-vertex cliques of `new` that are not cliques of `old`.

    `old` must be a subgraph of `new` on the same vertices, and then this
    equals count_cliques(new, s) - count_cliques(old, s).  The edges `new`
    adds are inserted one at a time into a copy of `old`'s rows; edge uv
    closes exactly the cliques of the current graph that contain u and v,
    that is the (s-2)-cliques among their common neighbors.  Each new clique
    is counted once, when its last edge goes in, so the cost follows the
    cliques through new edges rather than all of `new`'s cliques.  For s = 3
    an edge closes one triangle per common neighbor, counted inline.
    """
    if old.n != new.n:
        raise ValueError(f"vertex counts differ: {old.n} vs {new.n}")
    s = _integer("clique size", s)
    if s < 1:
        raise ValueError("clique size must be >= 1")
    if any(a & ~b for a, b in zip(old.adj, new.adj)):
        raise ValueError("old graph has an edge the new graph lacks")
    if s == 1:
        return 0
    cur = list(old.adj)
    total = 0
    for u, row in enumerate(new.adj):
        added = (row & ~cur[u]) >> (u + 1) << (u + 1)  # new edges uv with v > u
        while added:
            bit = added & -added
            added ^= bit
            v = bit.bit_length() - 1
            common = cur[u] & cur[v]
            total += common.bit_count() if s == 3 else _cliques_in(cur, common, s - 2)
            cur[u] |= bit
            cur[v] |= 1 << u
    return total


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Relabeled induced subgraph; vertex i of the result is vertices[i]."""
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertices in subset")
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    bits = _unpack_rows([g.adj[v] for v in vs], g.n)
    return Graph._from_rows(_pack_rows(bits[:, vs]))


def induced_edge_count(g: Graph, vertices) -> int:
    """Number of edges of g with both endpoints in the given vertex set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    adj = g.adj
    total = 0
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        total += (adj[bit.bit_length() - 1] & mask).bit_count()
    return total // 2


# ---------------------------------------------------------------------------
# I/O: edge-list text format and DOT export (both byte-stable)


def to_edge_list(g: Graph) -> str:
    """Text form: first line "n m", then one "u v" line per edge, u < v, sorted."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not u < v:
            raise ValueError(f"edge lines must satisfy u < v, got {ln!r}")
        edges.append((u, v))
    g = Graph(n, edges)
    if g.num_edges != m:
        raise ValueError(f"header claims {m} edges but {g.num_edges} parsed")
    return g


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(to_edge_list(g))


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="ascii") as f:
        return parse_edge_list(f.read())


def to_dot(g: Graph) -> str:
    """Undirected DOT form for visual inspection; byte-stable for a fixed graph."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in sorted(g.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
