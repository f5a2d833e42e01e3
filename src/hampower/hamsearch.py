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

A parent settles each child before descending into it: a child with no
candidate for its slot is dead, and a child whose memo key is already in the
failure set is memoized; neither is called.  So every call is a live state,
and the memo holds only exhausted live states (a dead state costs the parent
one AND to recognise, less than a memo lookup).  This decides no node count:
a node is counted when the parent places a vertex, whether or not the child
is then called.  Only the memo cap (_MEMO_CAP stored keys) sees the
difference: it counts live states alone.

Each node does little besides bit operations.  Everything that depends only
on the position (the window slots a child inherits, the head slots that wrap
round to it, the forward check's (slot, needed) pairs) sits in tables built
once per (n, m) and cached; a check that needs at most one partner is implied
by the candidate set and left out.  A call ANDs the rows its children share
with the unused set once, and a child's candidates are that AND with its own
row.  A memo key has three fields, high to low: the unused set, the head, and
the tail (the last m labels), each label in (n - 1).bit_length() bits, so
keys stay injective at every n.  A call forms one key base for all its
children: its own key with the tail shifted up by one label.  A child's key is
that base with the child's bit cleared from the unused field and its label
put in the tail.  No two paths reach the same state before slot m + 2, so
keys need the head only from there on: the call at slot m + 1 reads the head
off its tail (slots 1 .. m), and its descendants inherit it through their
keys.  The order is written only on the way back up
from a success, and rows[pos] only for a child that is called.  The last slot
runs no candidate loop: it keeps the candidates above slot 1 (reflection) and
places the lowest, one node.

Verdicts are exact: Found comes with a verified witness, NotFound only after
exhausting the pruned tree, and a spent node budget yields Unknown, never a
wrong answer.  The node count is deterministic, so Unknown is reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, _integer, induced_subgraph

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
    """True iff every pair at cyclic distance <= m in `order` is an edge of g.

    The entries must be integers (numpy integers included, bools not)."""
    m = _integer("m", m)
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    n = g.n
    order = [v if type(v) is int else _integer("witness entry", v) for v in order]
    if sorted(order) != list(range(n)):
        raise ValueError("witness is not a permutation of the vertex set")
    adj = g.adj
    reach = min(m, n - 1)
    # Slot i needs the next `reach` entries as neighbours.  They are distinct
    # vertices, so their bits sum to the mask of them, and the mask slides
    # one slot per step.
    ring = [1 << v for v in order]
    ring += ring[: reach + 1]
    need = sum(ring[1 : reach + 1])
    for i, v in enumerate(order):
        if adj[v] & need != need:
            return False
        need += ring[i + reach + 1] - ring[i + 1]
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
    one per window slot q = max(0, pos - m) .. pos - 1 that needs
    needed = min(q + m, n - 1) - pos + 1 >= 2 unused partners.

    A pair needing at most one partner always passes, so it is left out.
    The search calls a position only with a nonempty candidate set `cand`
    (the root's may be empty, and then it has nothing to place anyway), and
    `cand` is the set of unused vertices adjacent to every window slot q:
    the parent built it as the AND of those slots' rows with the unused set.
    So rows[q] & unused contains `cand` and has at least one vertex.  At the
    last position every window slot needs exactly one, so checks[n - 1] is
    empty.
    """
    carry = []
    checks = []
    for pos in range(n):
        nxt = pos + 1
        heads = m - (n - nxt) + 1 if nxt >= n - m else 0
        carry.append(tuple(range(max(0, nxt - m), pos)) + tuple(range(heads)))
        window = range(max(0, pos - m), pos)
        checks.append(tuple((q, needed) for q in window if (needed := min(q + m, n - 1) - pos + 1) > 1))
    return tuple(carry), tuple(checks)


def contains_ham_power(g: Graph, m: int, budget: int | None = None) -> SearchOutcome:
    """Decide membership in the m-th-power-of-Hamiltonian-cycle family.

    Requires n >= m + 2 (the property's domain).  `budget`, None or at least
    1, caps the number of vertex placements; exceeding it returns Unknown.
    `m` and `budget` must be integers (numpy integers included, bools not).
    """
    m = _integer("m", m)
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    if budget is not None:
        budget = _integer("budget", budget)
        if budget < 1:
            raise ValueError("budget must be positive or None")
    n = g.n
    if n < m + 2:
        raise ValueError(f"property needs n >= m + 2, got n={n}, m={m}")

    # Cycle powers are 2m-regular once n >= 2m + 1, so a low-degree vertex
    # rules containment out immediately.
    degree = [row.bit_count() for row in g.adj]
    if n >= 2 * m + 1 and min(degree) < 2 * m:
        return SearchOutcome(NOT_FOUND, None, 0)

    # relabel ascending by (degree, index) (sorted is stable); bit order then
    # equals degree order
    perm = sorted(range(n), key=degree.__getitem__)
    adj = induced_subgraph(g, perm).adj

    carry, checks = _tables(n, m)
    # memo key fields, high to low: unused set, head, tail (last m labels);
    # each label takes `width` bits, enough for every label 0 .. n - 1
    width = (n - 1).bit_length()
    tail_shift = m * width
    tail_mask = (1 << tail_shift) - 1
    heads = max(m - 1, 1)  # head slots 1 .. heads: the wrap slots, slot 1 the pivot
    head_shift = (m - heads) * width  # the head is slot m + 1's tail shifted this far down
    pivot_shift = tail_shift + (heads - 1) * width
    rest_shift = tail_shift + heads * width
    label_mask = (1 << width) - 1
    limit = budget if budget is not None else sys.maxsize  # no search gets near it
    last = n - 1
    anchor = n - 1  # max-degree vertex after the relabeling
    order = [0] * n  # slots 1 .. n - 1 are written on the way back from a success
    rows = [0] * n  # rows[q] = adj[order[q]] for the slots on the current path
    order[0] = anchor
    rows[0] = adj[anchor]
    nodes = 0
    failed: set[int] = set()

    def extend(pos: int, unused: int, cand: int, tail: int, key: int | None) -> bool:
        # cand: the unused vertices adjacent to every vertex slot pos must
        # meet, empty only at the root; tail: the last m labels; key: this
        # state's memo key from slot m + 2 on.  The parent has ruled out a
        # dead state (no candidate) and a memoized one, so every call is live.
        nonlocal nodes
        if pos <= m + 1:
            # No two paths reach the same state before slot m + 2, so the
            # keys up to here never hit, and the head field is free to use:
            # from slot m + 1 on it holds the head, read off the tail.
            key = (unused << rest_shift) | ((tail >> head_shift) << tail_shift) | tail
        if pos == last:
            cand &= -(2 << ((key >> pivot_shift) & label_mask))  # reflection: above slot 1
            if cand:
                nodes += 1
                if nodes > limit:
                    raise _BudgetSpent
                order[pos] = (cand & -cand).bit_length() - 1
                return True

        # the last m placed must keep enough unused partners for their windows
        for q, needed in checks[pos]:
            if (rows[q] & unused).bit_count() < needed:
                cand = 0
                break

        if cand:
            keep = unused  # a child's row never holds the child, so it drops out
            for q in carry[pos]:
                keep &= rows[q]
            tw = (tail << width) & tail_mask
            base = (key ^ tail) | tw  # the children's keys, less their own bit and label
            nxt = pos + 1
            while cand:
                bit = cand & -cand
                cand ^= bit
                nodes += 1
                if nodes > limit:
                    raise _BudgetSpent
                v = bit.bit_length() - 1
                row = adj[v]
                child = keep & row
                if not child:
                    continue  # dead: nothing can fill slot nxt
                sub_key = (base ^ (bit << rest_shift)) | v
                if sub_key in failed:
                    continue
                rows[pos] = row
                if extend(nxt, unused ^ bit, child, tw | v, sub_key):
                    order[pos] = v
                    return True
        if pos > m and len(failed) < _MEMO_CAP:
            failed.add(key)
        return False

    try:
        unused = ((1 << n) - 1) ^ (1 << anchor)
        if extend(1, unused, rows[0] & unused, anchor, None):
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

    m = _integer("m", m)
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
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
