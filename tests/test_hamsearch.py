"""Containment decider: soundness, completeness at small scale, budgets."""

import gc
import os
import random
import subprocess
import sys
import textwrap

import pytest

import hampower

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
    assert out.verdict == FOUND
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
    # Found must carry a checked witness even when asserts are compiled out
    code = textwrap.dedent("""
        import sys
        assert not __debug__
        import hampower.hamsearch as hs
        from hampower.graphs import complete_graph
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
    assert "raised:" in proc.stdout
