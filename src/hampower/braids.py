"""Bridges, braid graphs B(ell, r, t), and disjoint unions of braid copies.

A braid is t ordered disjoint ell-cliques where the last r vertices of each
clique and the first r of the next form an r-bridge.  The bridge orientation
is fixed canonically: the j-th of the last r vertices of a clique is adjacent
to the first j vertices among the first r of the next clique.  Total edge
count and density do not depend on this choice, but a fixed one makes the
outputs byte-stable.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .graphs import Graph, _integer


def check_braid_params(ell: int, r: int, t: int, s: int = 1) -> tuple[int, int, int, int]:
    """(ell, r, t, s) as ints, once each is known to be an integer in range."""
    ell, r = _integer("clique size ell", ell, 2), _integer("bridge width r", r)
    t, s = _integer("clique count t", t, 1), _integer("copy count s", s, 1)
    if not 1 <= r <= ell:
        raise ValueError(f"bridge width must satisfy 1 <= r <= ell, got r={r}, ell={ell}")
    return ell, r, t, s


def bridge(r: int) -> Graph:
    """The r-bridge on 2r vertices: v_1..v_r then u_1..u_r, with v_i ~ u_j for j <= i.

    Exactly C(r+1, 2) edges.
    """
    r = _integer("bridge width r", r, 1)
    edges = [(i, r + j) for i in range(r) for j in range(i + 1)]
    return Graph(2 * r, edges)


def _braid_edges(ell: int, r: int, t: int, offset: int = 0) -> list[tuple[int, int]]:
    """Edge list of one braid copy, vertices offset..offset + t*ell - 1, for
    parameters that check_braid_params has passed."""
    edges = []
    for c in range(t):
        lo = offset + c * ell
        edges.extend(combinations(range(lo, lo + ell), 2))
    for c in range(t - 1):
        nxt = offset + (c + 1) * ell
        # last r of clique c, in order, against first r of clique c+1
        for j in range(r):
            vj = nxt - r + j
            edges.extend((vj, nxt + i) for i in range(j + 1))
    return edges


def braid(ell: int, r: int, t: int) -> Graph:
    """The braid B(ell, r, t) on t*ell vertices in canonical clique order.

    Edge count: t*C(ell, 2) + (t-1)*C(r+1, 2).  For t = 1 this is K_ell, and
    for ell in {r, r+1} it coincides with the r-th power of the path on
    t*ell vertices under the canonical labeling.
    """
    ell, r, t, _ = check_braid_params(ell, r, t)
    return Graph(t * ell, _braid_edges(ell, r, t))


def s_braids(ell: int, r: int, t: int, s: int) -> Graph:
    """s vertex-disjoint relabeled copies of B(ell, r, t), on s*t*ell vertices."""
    ell, r, t, s = check_braid_params(ell, r, t, s)
    edges = []
    for copy in range(s):
        edges.extend(_braid_edges(ell, r, t, offset=copy * t * ell))
    return Graph(s * t * ell, edges)


def braid_edge_count(ell: int, r: int, t: int) -> int:
    """Closed form t*C(ell, 2) + (t-1)*C(r+1, 2)."""
    ell, r, t, _ = check_braid_params(ell, r, t)
    return t * comb(ell, 2) + (t - 1) * comb(r + 1, 2)
