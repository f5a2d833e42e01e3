"""Exact decision procedure for "contains the m-th power of a Hamiltonian cycle".

The backtracker builds a cyclic vertex order anchored at a canonical vertex
(killing the n rotations) with the last slot forced above the second slot
(killing the reflection).  Every appended vertex must be adjacent to the
previous min(m, prefix) vertices, and inside the final m slots also to the
matching head vertices, so a completed order needs no closure pass.
Candidate sets are bitmask intersections of adjacency rows.

Vertices are relabeled by ascending degree before the search, so extracting
candidate bits lowest-first tries candidates in ascending degree order
(fail-first near the threshold) at no scanning cost; the anchor is the
maximum-degree vertex, which measurably shrinks refutation trees on dense
cores.  Two exactness-preserving accelerators keep NotFound proofs
tractable:

  * forward feasibility: each of the last m placed vertices must retain
    enough unused neighbors to fill the rest of its adjacency window;
  * failure memoization: completability from a state depends only on the
    used set, the ordered last m vertices, and the head (wrap constraints
    plus the reflection pivot), so exhausted states are recorded as packed
    integers and never re-explored.

Each node does little besides bit operations.  Everything that depends only
on the position (the window slots a child inherits, the head slots that wrap
round to it, the forward check's (slot, needed) pairs) sits in tables built
once per (n, m) and cached.  A node ANDs the rows its children share once and
passes `keep & adj[child]` down as the child's candidate base.  The memo key
rolls down with the search: the last m labels are shifted in one at a time,
and the head is packed once per visit of slot m + 1.  Labels occupy fields of
(n - 1).bit_length() bits, so keys stay injective at every n.

Verdicts are exact: Found comes with a verified witness, NotFound only after
exhausting the pruned tree, and a spent node budget yields Unknown, never a
wrong answer.  The node count is deterministic, so Unknown is reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph

FOUND = "found"
NOT_FOUND = "not_found"
UNKNOWN = "unknown"

_MEMO_CAP = 4_000_000


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str
    witness: tuple[int, ...] | None
    nodes_expanded: int

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else list(self.witness),
            "nodes_expanded": self.nodes_expanded,
        }


def verify_witness(g: Graph, m: int, order) -> bool:
    """True iff every pair at cyclic distance <= m in `order` is an edge of g."""
    n = g.n
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError("witness is not a permutation of the vertex set")
    adj = g.adj
    for i in range(n):
        row = adj[order[i]]
        for d in range(1, min(m, n - 1) + 1):
            if not (row >> order[(i + d) % n]) & 1:
                return False
    return True


class _BudgetSpent(Exception):
    pass


@lru_cache(maxsize=256)
def _tables(n: int, m: int) -> tuple[tuple, tuple]:
    """Per-position tables (carry, checks) shared by every search on n
    vertices for the m-th power.

    carry[pos]: the slots whose rows a vertex at pos + 1 must meet, apart
    from the vertex at pos itself: the window slots max(0, pos + 1 - m) ..
    pos - 1, then the head slots 0 .. m - (n - pos - 1) that wrap round to
    it.  checks[pos]: the (slot, needed) pairs of the forward check at pos,
    one per window slot q, needing min(q + m, n - 1) - pos + 1 unused
    partners.
    """
    carry = []
    checks = []
    for pos in range(n):
        nxt = pos + 1
        heads = m - (n - nxt) + 1 if nxt >= n - m else 0
        carry.append(tuple(range(max(0, nxt - m), pos)) + tuple(range(heads)))
        checks.append(tuple((q, min(q + m, n - 1) - pos + 1) for q in range(max(0, pos - m), pos)))
    return tuple(carry), tuple(checks)


def contains_ham_power(g: Graph, m: int, budget: int | None = None) -> SearchOutcome:
    """Decide membership in the m-th-power-of-Hamiltonian-cycle family.

    Requires n >= m + 2 (the property's domain).  `budget` caps the number of
    vertex placements; exceeding it returns Unknown.
    """
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    n = g.n
    if n < m + 2:
        raise ValueError(f"property needs n >= m + 2, got n={n}, m={m}")

    # Cycle powers are 2m-regular once n >= 2m + 1, so a low-degree vertex
    # rules containment out immediately.
    if n >= 2 * m + 1 and min(r.bit_count() for r in g.adj) < 2 * m:
        return SearchOutcome(NOT_FOUND, None, 0)

    # relabel ascending by (degree, index); bit order then equals degree order
    perm = sorted(range(n), key=lambda v: (g.adj[v].bit_count(), v))
    inv = [0] * n
    for new, old in enumerate(perm):
        inv[old] = new
    adj = [0] * n
    for u, v in g.edges:
        adj[inv[u]] |= 1 << inv[v]
        adj[inv[v]] |= 1 << inv[u]

    carry, checks = _tables(n, m)
    full = (1 << n) - 1
    width = (n - 1).bit_length()  # memo field width: fits every label 0 .. n-1
    tail_shift = m * width
    tail_mask = (1 << tail_shift) - 1
    head_slots = range(1, max(m, 2))
    head_bits = len(head_slots) * width
    limit = budget if budget is not None else sys.maxsize  # no search gets near it
    last = n - 1
    anchor = n - 1  # max-degree vertex after the relabeling
    order = [0] * n
    rows = [0] * n  # rows[q] = adj[order[q]]
    order[0] = anchor
    rows[0] = adj[anchor]
    nodes = 0
    head = 0
    failed: set[int] = set()

    def extend(pos: int, unused: int, base: int, tail: int) -> bool:
        # base: AND of every row slot pos must meet; tail: the last m labels
        nonlocal nodes, head
        key = None
        if pos > m:
            if pos == m + 1:
                head = 0
                for q in head_slots:
                    head = (head << width) | order[q]
            key = (((unused << tail_shift) | tail) << head_bits) | head
            if key in failed:
                return False

        cand = base & unused
        if pos == last:
            cand &= -(1 << (order[1] + 1))  # reflection: last slot above the second

        if cand:
            # the last m placed must keep enough unused partners for their windows
            for q, needed in checks[pos]:
                if (rows[q] & unused).bit_count() < needed:
                    cand = 0
                    break

        if cand:
            keep = full
            for q in carry[pos]:
                keep &= rows[q]
            nxt = pos + 1
            while cand:
                bit = cand & -cand
                cand ^= bit
                nodes += 1
                if nodes > limit:
                    raise _BudgetSpent
                v = bit.bit_length() - 1
                order[pos] = v
                row = rows[pos] = adj[v]
                if nxt == n or extend(nxt, unused ^ bit, keep & row, ((tail << width) | v) & tail_mask):
                    return True
        if key is not None and len(failed) < _MEMO_CAP:
            failed.add(key)
        return False

    try:
        if extend(1, full ^ (1 << anchor), rows[0], anchor):
            witness = tuple(perm[v] for v in order)
            if not verify_witness(g, m, witness):
                raise AssertionError(f"search produced an order that is not an m={m} cycle power: {witness}")
            return SearchOutcome(FOUND, witness, nodes)
        return SearchOutcome(NOT_FOUND, None, nodes)
    except _BudgetSpent:
        return SearchOutcome(UNKNOWN, None, nodes)
    finally:
        # extend reaches itself through its closure; without this the memo
        # would live on until the next cyclic garbage collection
        del extend


def brute_force_contains(g: Graph, m: int) -> bool:
    """Oracle: scan all (n-1)!/2 cyclic orders, checking adjacency directly.

    Only for small n; shares no pruning with contains_ham_power.
    """
    from itertools import permutations

    n = g.n
    if n < m + 2:
        raise ValueError(f"property needs n >= m + 2, got n={n}, m={m}")
    adjset = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    dmax = min(m, n - 1)
    for perm in permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        cyc = (0,) + perm
        ok = True
        for i in range(n):
            u = cyc[i]
            for d in range(1, dmax + 1):
                if (u, cyc[(i + d) % n]) not in adjset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
