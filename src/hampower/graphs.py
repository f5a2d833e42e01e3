"""Undirected simple graphs on vertices 0..n-1, stored as bitmask adjacency rows.

Every neighborhood is a Python int used as a bitset, and these rows are the
only stored form of a graph: the hot operations everywhere else in the
package (intersecting neighborhoods during clique counting and cycle-power
search, unions of graphs) are word-parallel ANDs and ORs.  The edge set is
derived from the rows on first use.  Graphs are immutable after
construction and safe to share across workers.

Random graphs come from one walk (`gnp_process`): the pairs whose uniform
lies below the largest p are added to the rows one at a time in increasing
order of their uniforms, as in a random graph process, and the rows are
copied out at each p.  Each added edge uv also closes the K_s that contain
u and v, the (s-2)-cliques among their common neighbors, so the walk keeps
a running K_s count; `count_cliques` counts a given graph from scratch.

The package's argument rules live here too: `_integer` (an int, numpy
integers by value, never a bool or a float, and at least a given bound,
in one wording), `_number` (a number, never a bool, or a string such as
"1/8" where a Fraction is wanted) and `_vertices` (distinct vertices of a
graph).  Their way out is `_to_json`, the one JSON writer of reports and
configs: a dataclass leaves as its fields, a Fraction as a "p/q" string.
"""

from __future__ import annotations

import dataclasses
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

Edge = tuple[int, int]

_MASK128 = (1 << 128) - 1


def _integer(name: str, value, least: int | None = None) -> int:
    """value as an int through operator.index, so numpy integers pass; a
    float, which would be truncated or compared as a real, and a bool, which
    would act as 0 or 1, raise TypeError naming the parameter.  A value below
    `least` (when given) raises ValueError naming it."""
    if type(value) is not int:
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


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
        n = _integer("vertex count", n, 0)
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

    def degree(self, v: int) -> int:
        return self.adj[_vertices(self, (v,))[0]].bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def _pack_rows(bits: np.ndarray) -> tuple[int, ...]:
    """Rows of a k x n boolean matrix as ints: bit j of row i is bits[i, j].
    The bits go through little-endian 64-bit words, one column at a time."""
    k, n = bits.shape
    words = np.zeros((k, max(1, -(-n // 64))), dtype="<u8")
    words.view(np.uint8)[:, : -(-n // 8)] = np.packbits(bits, axis=1, bitorder="little")
    rows = words[:, 0].tolist()
    for w in range(1, words.shape[1]):
        rows = [r | x << 64 * w for r, x in zip(rows, words[:, w].tolist())]
    return tuple(rows)


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
    n = _integer("n", n, 1)
    return Graph(n, combinations(range(n), 2))


def path_power(v: int, m: int) -> Graph:
    """m-th power of the path on v vertices: i ~ j iff 0 < |i - j| <= m.

    For v >= m + 1 the edge count is v*m - C(m+1, 2).
    """
    v, m = _integer("v", v, 1), _integer("power m", m, 1)
    edges = [(i, j) for i in range(v) for j in range(i + 1, min(i + m, v - 1) + 1)]
    return Graph(v, edges)


def cycle_power(v: int, m: int) -> Graph:
    """m-th power of the cycle on v vertices: i ~ j iff cyclic distance <= m.

    For v >= 2m + 1 the edge count is v*m (the graph is 2m-regular).
    """
    v, m = _integer("v", v, 3), _integer("power m", m, 1)
    return Graph(v, ((i, (i + d) % v) for i in range(v) for d in range(1, min(m, v - 1) + 1)))


def eps_patch_size(n: int, eps: Fraction) -> int:
    """floor(eps * n) for the patched bipartite construction."""
    n, eps = _integer("n", n), _number("eps", eps)
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
    n, seed = _integer("n", n, 0), _integer("seed", seed)
    bg = np.random.Philox(key=seed & _MASK128)
    return np.random.Generator(bg).random(n * (n - 1) // 2)


@lru_cache(maxsize=4)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1): the two ends of each pair, in the order of
    pair_uniforms.  Built once per n and shared, so the arrays are read-only."""
    iu, iv = np.triu_indices(n, k=1)
    iu.flags.writeable = iv.flags.writeable = False
    return iu, iv


def gnp_process(n: int, uniforms: np.ndarray, ps, s: int) -> tuple[list[Graph], list[int]]:
    """The graph at each p of the nondecreasing iterable ps, and its K_s count.

    `uniforms` is pair_uniforms(n, seed) (row-major upper triangle); the
    graph at p keeps each pair whose uniform lies below p, so the graphs are
    nested.  The pairs below the largest p are added one at a time in
    increasing order of their uniforms (ties in pair order), and the rows
    are copied out at each p's cut-off.  Edge uv closes exactly the K_s of
    the current graph that contain u and v, the (s-2)-cliques among their
    common neighbors, so each clique is counted once, when its last edge goes
    in.  For s = 3 an edge closes one triangle per common neighbor.
    """
    n, s = _integer("n", n), _integer("clique size", s, 2)
    if len(uniforms) != n * (n - 1) // 2:
        raise ValueError(f"need {n * (n - 1) // 2} pair uniforms for n={n}, got {len(uniforms)}")
    ps = [_number("p", p, float) for p in ps]
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
    if any(a > b for a, b in zip(ps, ps[1:])):
        raise ValueError(f"p list must be nondecreasing, got {ps}")
    kept = np.flatnonzero(uniforms < (ps[-1] if ps else 0.0))
    order = kept[np.argsort(uniforms[kept], kind="stable")]
    cuts = np.searchsorted(uniforms[order], ps, side="left").tolist()
    iu, iv = _pair_indices(n)
    us, vs = iu[order].tolist(), iv[order].tolist()
    rows, bits = [0] * n, [1 << v for v in range(n)]
    # the number of K_s that an edge closes, from its ends' common neighbors
    closed = int.bit_count if s == 3 else lambda common: _cliques_in(rows, common, s - 2)
    graphs, counts, total, done = [], [], 0, 0
    for cut in cuts:
        for u, v in zip(us[done:cut], vs[done:cut]):
            ru, rv = rows[u], rows[v]
            total += closed(ru & rv)
            rows[u], rows[v] = ru | bits[v], rv | bits[u]
        done = cut
        graphs.append(Graph._from_rows(rows))
        counts.append(total)
    return graphs, counts


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each pair kept independently with probability p.

    Identical (n, p, seed) triples give identical edge sets.  For a fixed
    seed the edge set at p' <= p is a subset of the edge set at p.
    """
    return gnp_process(n, pair_uniforms(n, seed), [p], 2)[0][0]


def union(g: Graph, h: Graph) -> Graph:
    """Edge-set union of two graphs on the same vertex set."""
    if g.n != h.n:
        raise ValueError(f"vertex counts differ: {g.n} vs {h.n}")
    return Graph._from_rows(tuple(map(operator.or_, g.adj, h.adj)))


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
    s = _integer("clique size", s, 1)
    return _cliques_in(g.adj, (1 << g.n) - 1, s)


def _vertices(g: Graph, vertices) -> list[int]:
    """The vertices as a list of ints, once each is known to be an integer
    (numpy integers by value, never a bool) in 0..n-1 and none repeats.  The
    checks scan the list in C, so a list of plain ints costs no Python call
    per vertex."""
    vs = list(vertices)
    if not set(map(type, vs)) <= {int}:
        vs = [_integer("vertex", v) for v in vs]
    if vs and not (0 <= min(vs) and max(vs) < g.n):
        bad = next(v for v in vs if not 0 <= v < g.n)
        raise ValueError(f"vertex {bad} out of range for n={g.n}")
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertices in subset")
    return vs


def _induced_rows(g: Graph, vs: list[int]) -> tuple[int, ...]:
    """The rows of induced_subgraph(g, vs), for vs already known to be
    distinct vertices of g: a caller that built vs itself skips the checks."""
    bits = _unpack_rows([g.adj[v] for v in vs], g.n)
    return _pack_rows(bits[:, vs])


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Relabeled induced subgraph; vertex i of the result is vertices[i]."""
    return Graph._from_rows(_induced_rows(g, _vertices(g, vertices)))


def induced_edge_count(g: Graph, vertices) -> int:
    """Number of edges of g with both endpoints in the given vertex set."""
    mask = 0
    for v in _vertices(g, vertices):
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
# I/O: edge-list text format, DOT export and JSON values (all byte-stable)


def _to_json(value):
    """value as plain JSON data: a dataclass as a dict of its fields in
    declaration order, a tuple or list as a list, a Fraction as its "p/q"
    string; ints, floats, strings, bools and None pass unchanged.  Any other
    type raises TypeError naming it, rather than being stringified."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if value is None or isinstance(value, (int, float, str)):
        return value
    raise TypeError(f"no JSON form for type {type(value).__name__}")


def to_edge_list(g: Graph) -> str:
    """Text form: first line "n m", then one "u v" line per edge, u < v, sorted."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _decimal(token: str) -> int:
    """An edge-list token as an int.  The format holds plain ASCII decimal
    integers; int() alone would also take a sign, underscores and non-ASCII
    digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"edge-list entries must be plain decimal integers, got {token!r}")
    return int(token)


def parse_edge_list(text: str) -> Graph:
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {rows[0]!r}")
    n, m = _decimal(head[0]), _decimal(head[1])
    edges = set()
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = _decimal(parts[0]), _decimal(parts[1])
        if not u < v:
            raise ValueError(f"edge lines must satisfy u < v, got {ln!r}")
        if (u, v) in edges:
            raise ValueError(f"duplicate edge line {ln!r}")
        edges.add((u, v))
    g = Graph(n, edges)
    if g.num_edges != m:
        raise ValueError(f"header claims {m} edges but {g.num_edges} parsed")
    return g


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(to_edge_list(g))


def load_edge_list(path) -> Graph:
    """The graph in an edge-list file.  The file is read as UTF-8, so that a
    token outside the format (a non-ASCII digit, say) is named by the parser;
    bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_edge_list(f.read())


def to_dot(g: Graph) -> str:
    """Undirected DOT form for visual inspection; byte-stable for a fixed graph."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in sorted(g.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
