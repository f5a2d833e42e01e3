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
    integers and never re-explored.  The memo holds one head's states at a
    time, so a key needs only the used set and the last m vertices.

A parent settles each child before descending into it: a child with no
candidate for its slot is dead, and a child whose memo key is already in the
failure set is memoized; neither is called.  So every call is a live state,
and the memo holds only exhausted live states (a dead state costs the parent
one AND to recognise, less than a memo lookup).  This decides no node count:
a node is counted when the parent places a vertex, whether or not the child
is then called.  Only the memo cap sees the difference: it counts live
states alone.

Each node does little besides bit operations.  Everything that depends only
on the position (the window slots a child inherits, the head slots that wrap
round to it, the forward check's (slot, needed) pairs) sits in tables built
once per (n, m) and cached; a check that needs at most one partner is implied
by the candidate set and left out.  A call ANDs the rows its children share
with the unused set once, and a child's candidates are that AND with its own
row.

The head is slots 1 .. max(m - 1, 1): the slots besides the anchor that the
last m slots wrap round to, and slot 1, the reflection pivot.  Every state
with a given head lies below the one call that follows the head's last slot,
and depth-first search finishes that call's subtree before it places another
head.  So that call empties the failure set, losing no hit, and reads the
pivot off its tail; _MEMO_CAP bounds the keys stored under the current head.

A memo key has two fields, high to low: the unused set and the tail (the
last m labels), each label in (n - 1).bit_length() bits, so keys stay
injective at every n; the size of the unused set fixes the slot, so keys of
different slots never meet.  The root's key holds the anchor alone in its
tail, and a call forms one key base for all its children: its own key with
the tail shifted up by one label.  A child's key is that base with the
child's bit cleared from the unused field and its label put in the tail.
The order is written only on the way back up from a success, and rows[pos]
only for a child that is called.

The recursion runs in per-slot steps.  A table built per search gives the
step of each slot, and a call looks up its children's step once, so no call
tests which slot it fills:

  * the general step, which holds the only candidate loop, fills every slot
    but the last;
  * slot heads + 1 runs a wrapper that empties the failure set and reads the
    pivot, then the general step, or the last-slot step when heads + 1 is
    the last slot (n = 3, m = 1);
  * the last-slot step runs no candidate loop: it keeps the candidates above
    slot 1 (reflection) and places the lowest, one node.

Every step stores its state when it fails, at every slot.  A state at slot
pos <= m holds the anchor and every slot after it in its tail, so one path
alone reaches it: its parent looks its key up once, before the only call,
and the key never hits.  Such a slot is at most heads + 1, so the key is
stored only after that slot's subtree has returned, and the next store of a
state past slot heads + 1 comes after the next call at slot heads + 1 has
emptied the set.  So these keys never take a place under _MEMO_CAP that a
state of the current head could use, and no count changes.

A call counts its placements in a local variable, the size of its candidate
set less the candidates left when a child succeeds, and adds them to the
node count when it returns; it tests the budget once, after its loop, and
the search tests it once more before building the outcome.  While a loop
runs, the count therefore lacks the placements of the loops still open on
its path, fewer than n per slot: a budgeted search may place fewer than n^2
vertices past its budget before it stops.  Those placements change nothing.
The result is Unknown, reported as budget + 1 nodes, exactly when the
placements in all exceed the budget, as when each placement was tested.

An exhaustive search (no budget, and a key that fits in 64 bits: n + m *
(n - 1).bit_length() <= 64) decides a head that the DFS has not finished in
n^2 placements (_HEAD_ALLOWANCE) by a layer pass instead.  The partial run
is dropped: the node count goes back to its value at the head's call and
the failure set is emptied.  The pass holds the head's distinct live states
at one slot as numpy rows of memo keys and candidate sets.  Per layer it
applies the forward check, adds the candidates of every state that passes
to the node count, expands each candidate into its child, drops the dead
children and keeps one row per key.  Within a head that fails, the DFS
calls each distinct live state exactly once: every called state fails and
is stored, so a later reach is a memo hit, placed but not called, and
states of different slots never share a key.  So the DFS places exactly the
candidates of the distinct live states that pass the forward check, which
is what the pass sums.  A head succeeds iff its last layer holds a state
with a candidate above the pivot; then the DFS runs the head again with no
allowance, so witnesses and Found counts are those of the DFS alone.  A
head also goes back to the DFS, from its start, once its states would reach
_MEMO_CAP (past the cap the DFS re-explores states, and the counts differ)
or one layer would place more than _MEMO_CAP children, which bounds the
pass's memory by about what the memo may hold.  A budgeted search, and one
whose keys need more than 64 bits, runs the DFS alone.

Verdicts are exact: Found comes with a verified witness, NotFound only after
exhausting the pruned tree, and a spent node budget yields Unknown, never a
wrong answer.  The node count is deterministic, so Unknown is reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, _induced_rows, _integer

FOUND = "found"
NOT_FOUND = "not_found"
UNKNOWN = "unknown"

_MEMO_CAP = 4_000_000
_HEAD_ALLOWANCE = 1  # an exhaustive head's DFS places at most this many n^2 nodes before the layer pass


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str
    witness: tuple[int, ...] | None
    nodes_expanded: int


def verify_witness(g: Graph, m: int, order) -> bool:
    """True iff every pair at cyclic distance <= m in `order` is an edge of g.

    The entries must be integers (numpy integers included, bools not)."""
    m = _integer("power m", m, 1)
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
    1, caps the number of vertex placements; exceeding it returns Unknown
    with budget + 1 nodes.  `m` and `budget` must be integers (numpy
    integers included, bools not).
    """
    m = _integer("power m", m, 1)
    if budget is not None:
        budget = _integer("budget", budget, 1)
    n = g.n
    if n < m + 2:
        raise ValueError(f"property needs n >= m + 2, got n={n}, m={m}")

    # Cycle powers are 2m-regular once n >= 2m + 1, so a low-degree vertex
    # rules containment out immediately.
    degree = [row.bit_count() for row in g.adj]
    if n >= 2 * m + 1 and min(degree) < 2 * m:
        return SearchOutcome(NOT_FOUND, None, 0)

    # relabel ascending by (degree, index) (sorted is stable); bit order then
    # equals degree order.  perm is a permutation by construction, so the
    # rows are built without induced_subgraph's checks.
    perm = sorted(range(n), key=degree.__getitem__)
    adj = _induced_rows(g, perm)

    carry, checks = _tables(n, m)
    # memo key fields, high to low: unused set, tail (last m labels); each
    # label takes `width` bits, enough for every label 0 .. n - 1
    width = (n - 1).bit_length()
    tail_shift = m * width
    tail_mask = (1 << tail_shift) - 1
    heads = max(m - 1, 1)  # head slots 1 .. heads: the wrap slots, slot 1 the pivot
    pivot_shift = (heads - 1) * width  # slot 1's label in the tail at slot heads + 1
    label_mask = (1 << width) - 1
    limit = budget if budget is not None else sys.maxsize  # no search gets near it
    last = n - 1
    anchor = n - 1  # max-degree vertex after the relabeling
    order = [0] * n  # slots 1 .. n - 1 are written on the way back from a success
    rows = [0] * n  # rows[q] = adj[order[q]] for the slots on the current path
    order[0] = anchor
    rows[0] = adj[anchor]
    nodes = 0  # placements of the calls that have returned
    pivot = 0  # slot 1's label, set when the head is placed
    failed: set[int] = set()

    def step(pos: int, unused: int, cand: int, tail: int, key: int) -> bool:
        # Every slot but the last.  cand: the unused vertices adjacent to
        # every vertex slot pos must meet, empty only at the root; tail: the
        # last m labels; key: this state's memo key.  The parent has ruled
        # out a dead state (no candidate) and a memoized one, so every call
        # is live.
        nonlocal nodes
        # the last m placed must keep enough unused partners for their windows
        for q, needed in checks[pos]:
            if (rows[q] & unused).bit_count() < needed:
                break
        else:
            keep = unused  # a child's row never holds the child, so it drops out
            for q in carry[pos]:
                keep &= rows[q]
            tw = (tail << width) & tail_mask
            base = (key ^ tail) | tw  # the children's keys, less their own bit and label
            nxt = pos + 1
            down = steps[nxt]
            placed = cand.bit_count()  # every candidate is placed unless a child succeeds
            while cand:
                bit = cand & -cand
                cand ^= bit
                v = bit.bit_length() - 1
                row = adj[v]
                child = keep & row
                if not child:
                    continue  # dead: nothing can fill slot nxt
                sub_key = (base ^ (bit << tail_shift)) | v
                if sub_key in failed:
                    continue
                rows[pos] = row
                if down(nxt, unused ^ bit, child, tw | v, sub_key):
                    order[pos] = v
                    nodes += placed - cand.bit_count()
                    return True
            nodes += placed
            if nodes > limit:
                raise _BudgetSpent
        if len(failed) < _MEMO_CAP:
            failed.add(key)
        return False

    def last_step(pos: int, unused: int, cand: int, tail: int, key: int) -> bool:
        nonlocal nodes
        cand &= -(2 << pivot)  # reflection: above slot 1
        if cand:
            nodes += 1
            order[pos] = (cand & -cand).bit_length() - 1
            return True
        if len(failed) < _MEMO_CAP:
            failed.add(key)
        return False

    def head_step(pos: int, unused: int, cand: int, tail: int, key: int) -> bool:
        # slot heads + 1, below a new head: no state of an earlier head recurs
        nonlocal pivot
        failed.clear()
        pivot = (tail >> pivot_shift) & label_mask
        return after_head(pos, unused, cand, tail, key)

    def bounded_head_step(pos: int, unused: int, cand: int, tail: int, key: int) -> bool:
        # head_step of an exhaustive search: the DFS gets `allowance` nodes,
        # then its run is dropped and the layer pass decides the head, unless
        # the head succeeds or would store _MEMO_CAP states; then the DFS
        # runs it again without a bound
        nonlocal nodes, limit
        start = nodes
        limit = start + allowance
        try:
            return head_step(pos, unused, cand, tail, key)
        except _BudgetSpent:
            pass
        finally:
            limit = sys.maxsize
        nodes = start
        failed.clear()
        placed = layer_pass(pos, key, cand)
        if placed is None:
            return head_step(pos, unused, cand, tail, key)
        nodes += placed
        return False

    def layer_pass(pos: int, key: int, cand: int) -> int | None:
        # The nodes the DFS places below this call at slot heads + 1 when its
        # head fails; None when the head succeeds or its states would reach
        # _MEMO_CAP.  A layer is the head's distinct live states at one slot,
        # as numpy rows of memo keys and candidate sets.
        nonlocal table
        if table is None:
            table = np.array(adj, dtype=np.uint64)

        def row(q):  # slot q's row in every state: a head slot's is fixed, the others are in the tail
            return rows[q] if q <= heads else table[(keys >> ((pos - 1 - q) * width)) & label_mask]

        keys = np.array([key], dtype=np.uint64)
        cands = np.array([cand], dtype=np.uint64)
        placed = 0
        states = 1
        while states < _MEMO_CAP:
            if pos == last:  # last_step places a node only on success
                return None if (cands & (((1 << n) - 1) & -(2 << pivot))).any() else placed
            unused = keys >> tail_shift
            if checks[pos]:
                ok = np.ones(len(keys), dtype=bool)
                for q, needed in checks[pos]:
                    ok &= np.bitwise_count(row(q) & unused) >= needed
                keys, cands, unused = keys[ok], cands[ok], unused[ok]
            count = int(np.bitwise_count(cands).sum(dtype=np.int64))
            if count > _MEMO_CAP:
                return None
            placed += count
            keep = unused
            for q in carry[pos]:
                keep = keep & row(q)
            base = (keys & ~np.uint64(tail_mask)) | ((keys << width) & tail_mask)
            # every (state, candidate) pair, as the state's index and the candidate's label
            bits = np.unpackbits(cands.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8),
                                 axis=1, count=n, bitorder="little")
            at, v = np.divmod(np.flatnonzero(bits), n)
            child = keep[at] & table[v]
            live = child != 0
            at, child = at[live], child[live]
            v = v[live].astype(np.uint64)
            child_keys = (base[at] ^ (np.uint64(1) << (v + tail_shift))) | v
            # one row per distinct key; equal keys have equal candidate sets
            by_key = np.argsort(child_keys)
            child_keys = child_keys[by_key]
            first = np.empty(len(by_key), dtype=bool)
            first[:1] = True
            np.not_equal(child_keys[1:], child_keys[:-1], out=first[1:])
            keys, cands = child_keys[first], child[by_key[first]]
            if not len(keys):
                return placed
            states += len(keys)
            pos += 1
        return None

    after_head = last_step if heads + 1 == last else step
    # exhaustive: no budget, and a key fits in a uint64 (n bits of unused set, m labels)
    exhaustive = budget is None and n + tail_shift <= 64
    allowance = _HEAD_ALLOWANCE * n * n
    table = None  # adj as numpy rows, built when a head first switches to the layer pass
    steps = [step] * n  # steps[pos]: the step that fills slot pos
    steps[last] = last_step
    steps[heads + 1] = bounded_head_step if exhaustive else head_step

    unused = ((1 << n) - 1) ^ (1 << anchor)
    try:
        found = steps[1](1, unused, rows[0] & unused, anchor, (unused << tail_shift) | anchor)
    except _BudgetSpent:
        found = False
    finally:
        # the steps reach each other through this table; without this the
        # memo would live on until the next cyclic garbage collection
        steps.clear()
    if nodes > limit:
        return SearchOutcome(UNKNOWN, None, limit + 1)
    if not found:
        return SearchOutcome(NOT_FOUND, None, nodes)
    witness = tuple(perm[v] for v in order)
    if not verify_witness(g, m, witness):
        raise AssertionError(f"search produced an order that is not an m={m} cycle power: {witness}")
    return SearchOutcome(FOUND, witness, nodes)


def brute_force_contains(g: Graph, m: int) -> bool:
    """Oracle: scan all (n-1)!/2 cyclic orders, checking adjacency directly.

    Only for small n; shares no pruning with contains_ham_power.
    """
    from itertools import permutations

    m = _integer("power m", m, 1)
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
