"""Containment decider: soundness, completeness at small scale, budgets."""

import gc
import hashlib
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import hampower

from hampower import hamsearch
from hampower.graphs import Graph, complete_graph, cycle_power, path_power, patched_bipartite, sample_gnp, union
from hampower.hamsearch import (
    FOUND,
    NOT_FOUND,
    UNKNOWN,
    brute_force_contains,
    contains_ham_power,
    verify_witness,
)
from fractions import Fraction


def test_complete_graphs_found():
    for m in (1, 2, 3):
        for n in range(m + 2, m + 6):
            out = contains_ham_power(complete_graph(n), m)
            assert out.verdict == FOUND
            assert verify_witness(complete_graph(n), m, out.witness)


def test_cycle_powers_found():
    for m in (1, 2, 3, 4):
        for n in range(max(3, m + 2), 2 * m + 6):
            g = cycle_power(n, m)
            out = contains_ham_power(g, m)
            assert out.verdict == FOUND, (n, m)
            assert verify_witness(g, m, out.witness)


def test_path_powers_not_found():
    # endpoint degree m < 2m at n = 2m + 2 vertices
    for m in (1, 2, 3, 4, 5):
        out = contains_ham_power(path_power(2 * m + 2, m), m)
        assert out.verdict == NOT_FOUND


def test_path_power_not_found_matches_brute():
    for m in (1, 2, 3):
        assert not brute_force_contains(path_power(2 * m + 2, m), m)


def test_patched_bipartite_base_not_found():
    g = patched_bipartite(12, Fraction(1, 12))
    assert contains_ham_power(g, 2).verdict == NOT_FOUND


def test_domain_checks():
    with pytest.raises(ValueError):
        contains_ham_power(complete_graph(3), 2)  # n < m + 2
    with pytest.raises(ValueError):
        contains_ham_power(complete_graph(5), 0)


def test_verify_witness():
    g = cycle_power(9, 2)
    assert verify_witness(g, 2, range(9))
    assert verify_witness(complete_graph(7), 3, [3, 1, 4, 0, 5, 2, 6])
    # swapping two adjacent cycle vertices breaks some window pair
    bad = [1, 0, 2, 3, 4, 5, 6, 7, 8]
    assert not verify_witness(g, 2, bad)
    with pytest.raises(ValueError):
        verify_witness(g, 2, [0, 1, 2])
    with pytest.raises(ValueError):
        verify_witness(g, 2, [0] * 9)


def test_verify_witness_numpy_entries_above_64_vertices():
    # numpy entries become Python ints: 1 << np.int64(70) would be 0, an
    # empty mask that any order passes
    g = cycle_power(70, 2)
    assert verify_witness(g, 2, np.arange(70))
    bad = np.arange(70)
    bad[[10, 40]] = bad[[40, 10]]
    assert not verify_witness(g, 2, bad)


def test_verify_witness_rejects_bool_and_float_entries():
    g = complete_graph(4)
    for order in ([0, True, 2, 3], [0, 1.0, 2, 3], [0, np.bool_(True), 2, 3], np.array([0.0, 1.0, 2.0, 3.0])):
        with pytest.raises(TypeError, match="witness entry must be an integer"):
            verify_witness(g, 2, order)


def test_power_below_one_is_rejected():
    for m in (0, -2):  # with no pair to check, m < 1 used to pass on any graph
        with pytest.raises(ValueError, match=f"^power m must be >= 1, got {m}$"):
            verify_witness(Graph(5), m, range(5))
        with pytest.raises(ValueError, match=f"^power m must be >= 1, got {m}$"):
            brute_force_contains(Graph(5), m)


def test_matches_brute_force_on_random_corpus():
    rng = random.Random(424242)
    for i in range(120):
        m = rng.choice([1, 2, 3])
        n = rng.randint(m + 2, 9)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        g = sample_gnp(n, p, 31000 + i)
        fast = contains_ham_power(g, m)
        assert (fast.verdict == FOUND) == brute_force_contains(g, m), (i, n, m)
        if fast.verdict == FOUND:
            assert verify_witness(g, m, fast.witness)


def test_matches_brute_force_at_eleven_vertices():
    for m, seed, p in ((2, 61, 0.35), (3, 62, 0.55)):
        g = sample_gnp(11, p, seed)
        fast = contains_ham_power(g, m)
        assert (fast.verdict == FOUND) == brute_force_contains(g, m), (m, seed)


def test_monotone_under_edge_addition():
    rng = random.Random(9)
    for chain in range(6):
        n, m = 9, 2
        g = sample_gnp(n, 0.25, 600 + chain)
        was_found = contains_ham_power(g, m).verdict == FOUND
        missing = sorted(set((i, j) for i in range(n) for j in range(i + 1, n)) - g.edges)
        rng.shuffle(missing)
        for extra in missing:
            g = Graph(n, set(g.edges) | {extra})
            now_found = contains_ham_power(g, m).verdict == FOUND
            assert not (was_found and not now_found)
            was_found = now_found
        assert was_found  # complete graph at the end


def test_degree_necessity_prune():
    # min degree < 2m with n >= 2m+1 refutes without expanding a node
    g = path_power(8, 2)
    out = contains_ham_power(g, 2)
    assert out.verdict == NOT_FOUND and out.nodes_expanded == 0


def test_budget_unknown_reproducible():
    g = union(patched_bipartite(14, Fraction(1, 14)), sample_gnp(14, 0.12, 8))
    a = contains_ham_power(g, 2, budget=10)
    b = contains_ham_power(g, 2, budget=10)
    assert a.verdict == UNKNOWN
    assert a == b
    full = contains_ham_power(g, 2)
    assert full.verdict in (FOUND, NOT_FOUND)


def test_non_integer_power_and_budget_are_rejected():
    # a float budget would be compared as a real and a bool would act as 0 or
    # 1; numpy integers stay accepted
    g = complete_graph(7)
    for kwargs, name in (
        ({"m": 2.0}, "m"),
        ({"m": True}, "m"),
        ({"m": 2, "budget": 2.5}, "budget"),
        ({"m": 2, "budget": True}, "budget"),
        ({"m": 2, "budget": np.bool_(True)}, "budget"),
    ):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            contains_ham_power(g, **kwargs)
    for m in (2.0, False):
        with pytest.raises(TypeError, match="m must be an integer"):
            verify_witness(g, m, range(7))
    out = contains_ham_power(g, np.int64(2), budget=np.int32(3))
    assert (out.verdict, out.nodes_expanded) == (UNKNOWN, 4)
    assert verify_witness(g, np.int8(2), range(7))


def test_budget_below_one_is_rejected():
    g = complete_graph(7)
    for budget in (0, -4):
        with pytest.raises(ValueError, match=f"^budget must be >= 1, got {budget}$"):
            contains_ham_power(g, 2, budget)
    assert contains_ham_power(g, 2, budget=1).verdict == UNKNOWN  # one placement, then spent


def test_memo_freed_on_return():
    # a finished search must leave no reference cycle holding its memo alive
    g = union(patched_bipartite(14, Fraction(1, 12)), sample_gnp(14, 0.04, 14000))
    gc.collect()
    gc.disable()
    try:
        for budget in (None, 100):
            contains_ham_power(g, 2, budget)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_witness_always_within_range():
    out = contains_ham_power(cycle_power(12, 3), 3)
    assert sorted(out.witness) == list(range(12))


# Verdict and node count for each graph of a seeded near-threshold corpus:
# union(patched_bipartite(n, 1/12), sample_gnp(n, p, 1000 * n + seed)), m = 2.
# Node counts are deterministic and depend only on the pruning, so a change
# that should leave the search tree alone must leave every row unchanged.
GOLDEN_NEAR_THRESHOLD = [
    (14, 0.04, 0, NOT_FOUND, 2845),
    (14, 0.04, 1, NOT_FOUND, 14189),
    (14, 0.08, 0, NOT_FOUND, 27669),
    (14, 0.08, 1, NOT_FOUND, 51133),
    (14, 0.12, 0, FOUND, 15),
    (14, 0.12, 1, NOT_FOUND, 89057),
    (14, 0.16, 0, FOUND, 15),
    (14, 0.16, 1, FOUND, 13),
    (16, 0.04, 0, NOT_FOUND, 22739),
    (16, 0.04, 1, NOT_FOUND, 5139),
    (16, 0.08, 0, NOT_FOUND, 98083),
    (16, 0.08, 1, NOT_FOUND, 26575),
    (16, 0.12, 0, FOUND, 16),
    (16, 0.12, 1, NOT_FOUND, 194509),
    (16, 0.16, 0, FOUND, 15),
    (16, 0.16, 1, FOUND, 17),
]

# The same for other powers, on sample_gnp(n, p, 7000 + 10 * n + seed).
GOLDEN_OTHER_POWERS = [
    (1, 16, 0.3, 0, FOUND, 49),
    (1, 18, 0.35, 2, FOUND, 29),
    (3, 13, 0.7, 2, FOUND, 144),
    (3, 14, 0.72, 0, NOT_FOUND, 25953),
    (3, 14, 0.72, 1, NOT_FOUND, 16613),
    (3, 14, 0.72, 2, FOUND, 4363),
    (4, 12, 0.8, 0, NOT_FOUND, 469),
    (4, 12, 0.8, 2, FOUND, 5057),
    (4, 13, 0.85, 1, FOUND, 556),
]


# m = 1 on union(K_{a, n-a}, sample_gnp(n, q, 100 * n + seed)), as
# (n, a, q, seed, verdict, nodes).  At m = 1 the single head slot is slot 1,
# the vertex placed at the first memoized depth, so packing the head before
# that vertex is placed moves every one of these counts.
GOLDEN_M1_HEAD = [
    (10, 3, 0.1, 0, NOT_FOUND, 1193),
    (10, 3, 0.2, 1, NOT_FOUND, 3727),
    (12, 4, 0.1, 1, NOT_FOUND, 12217),
    (12, 5, 0.1, 1, NOT_FOUND, 21802),
]


# The witness of each Found row above, keyed by the row's leading fields.
GOLDEN_WITNESSES = {
    (14, 0.12, 0): (7, 1, 11, 0, 5, 8, 9, 2, 4, 12, 10, 3, 6, 13),
    (14, 0.16, 0): (7, 1, 11, 0, 5, 12, 10, 2, 4, 8, 9, 3, 6, 13),
    (14, 0.16, 1): (7, 6, 8, 0, 1, 12, 2, 5, 9, 4, 3, 10, 13, 11),
    (16, 0.12, 0): (8, 1, 12, 0, 2, 10, 11, 4, 5, 13, 7, 6, 9, 15, 3, 14),
    (16, 0.16, 0): (8, 2, 12, 0, 3, 11, 10, 1, 4, 13, 5, 7, 9, 6, 14, 15),
    (16, 0.16, 1): (8, 4, 11, 0, 5, 14, 9, 1, 12, 10, 6, 13, 3, 7, 2, 15),
    (1, 16, 0.3, 0): (10, 6, 0, 14, 7, 8, 1, 5, 11, 12, 3, 9, 4, 13, 15, 2),
    (1, 18, 0.35, 2): (11, 1, 3, 17, 13, 10, 14, 7, 15, 2, 8, 6, 0, 5, 4, 16, 12, 9),
    (3, 13, 0.7, 2): (5, 10, 12, 7, 3, 11, 9, 0, 6, 8, 1, 2, 4),
    (3, 14, 0.72, 2): (0, 6, 13, 1, 12, 10, 3, 5, 4, 9, 7, 2, 8, 11),
    (4, 12, 0.8, 2): (9, 11, 2, 7, 1, 8, 10, 6, 3, 4, 0, 5),
    (4, 13, 0.85, 1): (11, 3, 7, 0, 2, 5, 4, 1, 12, 9, 6, 10, 8),
}


def _golden_found_rows():
    """(key, graph, m, nodes) for every Found row of the two golden tables."""
    for n, p, seed, verdict, nodes in GOLDEN_NEAR_THRESHOLD:
        if verdict == FOUND:
            g = union(patched_bipartite(n, Fraction(1, 12)), sample_gnp(n, p, 1000 * n + seed))
            yield (n, p, seed), g, 2, nodes
    for m, n, p, seed, verdict, nodes in GOLDEN_OTHER_POWERS:
        if verdict == FOUND:
            yield (m, n, p, seed), sample_gnp(n, p, 7000 + 10 * n + seed), m, nodes


def test_golden_witnesses():
    keys = []
    for key, g, m, nodes in _golden_found_rows():
        assert contains_ham_power(g, m).witness == GOLDEN_WITNESSES[key], key
        keys.append(key)
    assert sorted(keys) == sorted(GOLDEN_WITNESSES)


def test_golden_budget_boundary():
    # A Found search with N placements places its last slot as node N: a
    # budget of N - 1 is spent on that placement, a budget of N is not.
    for key, g, m, nodes in _golden_found_rows():
        short = contains_ham_power(g, m, budget=nodes - 1)
        assert (short.verdict, short.witness, short.nodes_expanded) == (UNKNOWN, None, nodes), key
        exact = contains_ham_power(g, m, budget=nodes)
        assert (exact.verdict, exact.witness, exact.nodes_expanded) == (FOUND, GOLDEN_WITNESSES[key], nodes), key


def test_golden_node_counts_near_threshold():
    for n, p, seed, verdict, nodes in GOLDEN_NEAR_THRESHOLD:
        g = union(patched_bipartite(n, Fraction(1, 12)), sample_gnp(n, p, 1000 * n + seed))
        out = contains_ham_power(g, 2)
        assert (out.verdict, out.nodes_expanded) == (verdict, nodes), (n, p, seed)
        if verdict == FOUND:
            assert verify_witness(g, 2, out.witness)


def test_golden_node_counts_other_powers():
    for m, n, p, seed, verdict, nodes in GOLDEN_OTHER_POWERS:
        g = sample_gnp(n, p, 7000 + 10 * n + seed)
        out = contains_ham_power(g, m)
        assert (out.verdict, out.nodes_expanded) == (verdict, nodes), (m, n, p, seed)
        if verdict == FOUND:
            assert verify_witness(g, m, out.witness)


def test_golden_node_counts_m1_head():
    for n, a, q, seed, verdict, nodes in GOLDEN_M1_HEAD:
        g = union(Graph(n, [(u, v) for u in range(a) for v in range(a, n)]), sample_gnp(n, q, 100 * n + seed))
        out = contains_ham_power(g, 1)
        assert (out.verdict, out.nodes_expanded) == (verdict, nodes), (n, a, q, seed)


def _digest_corpus():
    """300 seeded searches: m = 1..4, n <= 12, patched-bipartite and
    K_{a, n-a} bases plus G(n, p), each graph at budgets None, 40 and 9000."""
    rng = random.Random(170017)
    for i in range(100):
        m = 1 + i % 4
        if i % 2:
            n = rng.randrange(max(m + 2, 6), 13, 2)
            base = patched_bipartite(n, rng.choice([Fraction(1, n), Fraction(1, 4)]))
        else:
            n = rng.randint(m + 3, 12)
            a = rng.randint(2, n // 2)
            base = Graph(n, [(u, v) for u in range(a) for v in range(a, n)])
        g = union(base, sample_gnp(n, 0.1 * m + rng.choice([0.1, 0.2, 0.3]), 91000 + i))
        for budget in (None, 40, 9000):
            yield i, m, n, budget, g


def test_search_equivalence_digest():
    # Guards every rewrite of the search that should leave it unchanged:
    # verdicts, node counts and witnesses of the whole corpus hash to one
    # value.  A change that moves node counts on purpose re-pins it.
    lines = []
    for i, m, n, budget, g in _digest_corpus():
        out = contains_ham_power(g, m, budget)
        lines.append(f"{i} {m} {n} {budget} {out.verdict} {out.nodes_expanded} {out.witness}")
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    assert digest == "4f9653b14ed3bd9d31eee5687585972a6db416748c7004e7d6c620de6a369da7"


def _tiny_corpus():
    """Five seeded graphs at each of n = m + 2 and n = m + 3 for m = 1..4,
    the first of each five complete.  n = 3, m = 1 has slot 1 as its head
    and slot 2 as both the slot after it and the last slot; from m = 3 on
    the head is two slots or more."""
    rng = random.Random(2031)
    for m in range(1, 5):
        for n in (m + 2, m + 3):
            for seed in range(5):
                p = 1.0 if seed == 0 else rng.choice([0.7, 0.8, 0.9])
                yield m, n, seed, sample_gnp(n, p, 31000 + 100 * m + 10 * n + seed)


def test_tiny_search_digest():
    # Every budget from 1 to one past the unbudgeted count, and no budget,
    # on the smallest graphs the property allows: each Unknown point, verdict
    # and witness hashes to one value, pinned before the search's per-slot
    # steps were written.
    lines = []
    for m, n, seed, g in _tiny_corpus():
        full = contains_ham_power(g, m).nodes_expanded
        for budget in (None, *range(1, full + 2)):
            out = contains_ham_power(g, m, budget)
            lines.append(f"{m} {n} {seed} {budget} {out.verdict} {out.nodes_expanded} {out.witness}")
    assert len(lines) == 438
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "69c112ed52caf045318bb659d6727d66ebf98ca0b84e2aeb6766de12ed4d0ee8"


def test_memo_cap_keeps_verdicts(monkeypatch):
    # Past the cap no state is stored.  Verdicts stay exact, and a capped
    # search expands at least the nodes of the uncapped one.
    # Complete bipartite bases make the memo pay off even at n <= 9.
    rng = random.Random(5150)
    corpus = []
    for i in range(48):
        m = 1 + i % 3
        n = rng.randint(m + 5, 9)
        a = rng.randint(2, n // 2)
        base = Graph(n, [(u, v) for u in range(a) for v in range(a, n)])
        g = union(base, sample_gnp(n, 0.15 * m + rng.choice([0.0, 0.1, 0.2]), 52000 + i))
        corpus.append((g, m, contains_ham_power(g, m).nodes_expanded, brute_force_contains(g, m)))
    for cap in (0, 5):
        monkeypatch.setattr(hamsearch, "_MEMO_CAP", cap)
        grew = 0
        for g, m, nodes, found in corpus:
            out = contains_ham_power(g, m)
            assert (out.verdict == FOUND) == found, (cap, g.n, m)
            assert out.nodes_expanded >= nodes, (cap, g.n, m)
            if found:
                assert verify_witness(g, m, out.witness)
            grew += out.nodes_expanded > nodes
        assert grew, cap  # the cap was reached and cost nodes


def test_memo_cap_bounds_one_head(monkeypatch):
    # The memo holds one head's states at a time, so the cap bounds that
    # memo alone.  This row stores at most 1,003 keys under one head and
    # 11,406 in all, so a cap of 3,000 costs it no node.
    monkeypatch.setattr(hamsearch, "_MEMO_CAP", 3000)
    g = union(patched_bipartite(14, Fraction(1, 12)), sample_gnp(14, 0.08, 14000))
    out = contains_ham_power(g, 2)
    assert (out.verdict, out.nodes_expanded) == (NOT_FOUND, 27669)


def test_golden_budget_cut():
    g = union(patched_bipartite(16, Fraction(1, 12)), sample_gnp(16, 0.12, 16001))
    for budget in (1000, 50000):
        out = contains_ham_power(g, 2, budget=budget)
        assert (out.verdict, out.nodes_expanded) == (UNKNOWN, budget + 1)


def test_relabeled_cycle_power_above_64_vertices():
    # labels need 7-bit memo fields from n = 65 on
    n = 66
    perm = list(range(n))
    random.Random(66).shuffle(perm)
    g = Graph(n, ((perm[u], perm[v]) for u, v in cycle_power(n, 2).edges))
    out = contains_ham_power(g, 2)
    assert (out.verdict, out.nodes_expanded) == (FOUND, 68)
    assert out.witness == (
        65, 25, 20, 2, 62, 37, 54, 5, 12, 57, 64, 46, 27, 56, 17, 51, 58, 13, 34, 36, 3, 9,
        39, 55, 59, 15, 50, 28, 18, 16, 63, 60, 35, 6, 47, 31, 11, 29, 33, 8, 45, 4, 23, 10,
        26, 49, 40, 32, 1, 48, 7, 24, 52, 44, 38, 0, 22, 53, 30, 14, 19, 41, 21, 43, 42, 61,
    )
    assert verify_witness(g, 2, out.witness)


def test_memo_keys_distinct_above_64_vertices():
    # With 6-bit fields, label 64 spills into its neighbour field, so distinct
    # states share a key; on this graph that wrongly cut 280 nodes (34917).
    g = union(patched_bipartite(66, Fraction(1, 12)), sample_gnp(66, 0.05, 2))
    out = contains_ham_power(g, 2)
    assert (out.verdict, out.nodes_expanded) == (FOUND, 35197)
    assert verify_witness(g, 2, out.witness)


def test_budget_unknown_reproducible_above_64_vertices():
    g = union(patched_bipartite(70, Fraction(1, 12)), sample_gnp(70, 0.01, 0))
    a = contains_ham_power(g, 2, budget=5000)
    b = contains_ham_power(g, 2, budget=5000)
    assert a.verdict == UNKNOWN and a.nodes_expanded == 5001
    assert a == b


def test_unverified_witness_raises_under_optimize_flag():
    # Found must carry a checked witness even when asserts are compiled out:
    # from the search, and when a sweep's chain decider transfers a witness
    # to a graph that is not a supergraph
    code = textwrap.dedent("""
        import sys
        assert not __debug__
        import hampower.hamsearch as hs
        from hampower.graphs import Graph, complete_graph
        from hampower.montecarlo import _decide_chain
        try:
            _decide_chain([complete_graph(6), Graph(6)], 2, None)
        except AssertionError as exc:
            print("raised:", exc)
        else:
            sys.exit(1)
        hs.verify_witness = lambda g, m, order: False
        try:
            hs.contains_ham_power(complete_graph(6), 2)
        except AssertionError as exc:
            print("raised:", exc)
            sys.exit(0)
        sys.exit(1)
    """)
    src = os.path.dirname(os.path.dirname(hampower.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("raised:") == 2, proc.stdout


def _pass_and_dfs(monkeypatch, corpus):
    """(verdict, nodes, witness) of each (g, m) in `corpus` with the layer
    pass on every head that places a node (allowance 0), then with the DFS
    alone (an allowance no head reaches), and the number of popcounts the
    layer pass took in each run: the DFS takes none."""
    layers = []
    bitwise_count = np.bitwise_count

    def counted(*args, **kwargs):
        layers[-1] += 1
        return bitwise_count(*args, **kwargs)

    monkeypatch.setattr(np, "bitwise_count", counted)
    runs = []
    for allowance in (0, 10**12):
        monkeypatch.setattr(hamsearch, "_HEAD_ALLOWANCE", allowance)
        layers.append(0)
        runs.append([(out.verdict, out.nodes_expanded, out.witness)
                     for out in (contains_ham_power(g, m) for g, m in corpus)])
    return runs, layers


def test_layer_pass_matches_dfs_on_digest_corpus(monkeypatch):
    corpus = [(g, m) for i, m, n, budget, g in _digest_corpus() if budget is None]
    (passed, dfs), (layers, none) = _pass_and_dfs(monkeypatch, corpus)
    assert passed == dfs
    assert layers and not none


def test_layer_pass_matches_dfs_on_seeded_graphs(monkeypatch):
    # m = 1..4 and m + 2 <= n <= 18 on three kinds of base: none, K_{a, n-a}
    # and patched bipartite (m <= 3: at m = 4 a proof can take 30 s of DFS),
    # each with a G(n, p) part near where the power first appears
    rng = random.Random(3232)
    corpus = []
    for i in range(64):
        m = 1 + i % 4
        n = rng.randint(m + 2, 18)
        kind = i // 4 % (3 if m < 4 else 2)
        if kind == 0:
            base, q = Graph(n), 0.25 + 0.15 * m
        elif kind == 1:
            a = rng.randint(1, n // 2)
            base, q = Graph(n, [(u, v) for u in range(a) for v in range(a, n)]), 0.05 + 0.1 * m
        else:
            n += n % 2
            base, q = patched_bipartite(n, Fraction(1, 4)), 0.05 + 0.1 * m
        corpus.append((union(base, sample_gnp(n, min(1.0, q + rng.uniform(-0.1, 0.1)), 32000 + i)), m))
    (passed, dfs), (layers, none) = _pass_and_dfs(monkeypatch, corpus)
    assert passed == dfs
    assert {verdict for verdict, _, _ in dfs} == {FOUND, NOT_FOUND}
    assert layers and not none


def test_layer_pass_matches_dfs_on_criterion_11_cells(monkeypatch):
    # the first six NotFound cells above p = 0 of the criterion-11 sweep
    from hampower.graphs import gnp_process, pair_uniforms
    from hampower.montecarlo import trial_seed

    base = patched_bipartite(16, Fraction(1, 12))
    ps = [i / 10 for i in range(1, 11)]
    corpus = []
    for t in range(6):
        parts, _ = gnp_process(16, pair_uniforms(16, trial_seed(20260810, t)), ps, 3)
        corpus += [(g, 2) for g in (union(base, part) for part in parts) if contains_ham_power(g, 2).verdict == NOT_FOUND]
    corpus = corpus[:6]
    (passed, dfs), (layers, none) = _pass_and_dfs(monkeypatch, corpus)
    assert len(dfs) == 6 and {verdict for verdict, _, _ in dfs} == {NOT_FOUND}
    assert passed == dfs
    assert layers and not none


def test_budgeted_search_keeps_the_dfs(monkeypatch):
    # A budgeted search never reaches the layer pass: with the allowance at 0
    # and numpy gone from the module, every outcome is the one it was.
    corpus = [(g, m, budget) for i, m, n, budget, g in _digest_corpus() if budget is not None]
    expected = [contains_ham_power(g, m, budget) for g, m, budget in corpus]
    monkeypatch.setattr(hamsearch, "_HEAD_ALLOWANCE", 0)
    monkeypatch.setattr(hamsearch, "np", None)
    assert [contains_ham_power(g, m, budget) for g, m, budget in corpus] == expected
    assert {out.verdict for out in expected} == {FOUND, NOT_FOUND, UNKNOWN}


def test_layer_pass_matches_dfs_under_memo_cap(monkeypatch):
    # A head whose states would reach the cap goes back to the DFS, which
    # re-explores past the cap; below it the pass counts what the DFS does.
    rng = random.Random(5150)
    corpus = [(union(patched_bipartite(14, Fraction(1, 12)), sample_gnp(14, 0.08, 14000)), 2)]
    for i in range(24):
        m = 1 + i % 3
        n = rng.randint(m + 5, 12)
        a = rng.randint(2, n // 2)
        base = Graph(n, [(u, v) for u in range(a) for v in range(a, n)])
        corpus.append((union(base, sample_gnp(n, 0.15 * m + rng.choice([0.0, 0.1, 0.2]), 53000 + i)), m))
    for cap in (0, 5, 3000):
        monkeypatch.setattr(hamsearch, "_MEMO_CAP", cap)
        (passed, dfs), (layers, none) = _pass_and_dfs(monkeypatch, corpus)
        assert passed == dfs, cap
        assert bool(layers) == (cap > 0) and not none, cap  # at cap 0 every head goes back at once
