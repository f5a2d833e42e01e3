"""Graph constructors, clique counting, sampling, I/O, and the input rules."""

import ast
import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampower import graphs
from hampower.graphs import (
    Graph,
    complete_graph,
    count_cliques,
    count_new_cliques,
    coupled_gnp,
    cycle_power,
    eps_patch_size,
    induced_edge_count,
    induced_subgraph,
    parse_edge_list,
    patched_bipartite,
    pair_uniforms,
    path_power,
    sample_gnp,
    to_dot,
    to_edge_list,
    union,
)


def naive_clique_count(g: Graph, s: int) -> int:
    """Oracle: scan all C(n, s) subsets."""
    total = 0
    for sub in combinations(range(g.n), s):
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
            total += 1
    return total


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    g = Graph(4, [(1, 0), (0, 1), (2, 3)])
    assert g.num_edges == 2  # deduplicated, normalized


@pytest.mark.parametrize("n,expected", [(1, 0), (5, 10), (7, 21)])
def test_complete_graph_sizes(n, expected):
    assert complete_graph(n).num_edges == expected


def test_path_power_small_exact():
    g = path_power(4, 2)
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)})
    assert g.num_edges == 4 * 2 - 3  # vm - C(m+1,2)


def test_path_power_complete_below_mplus1():
    assert path_power(3, 5) == complete_graph(3)


def test_path_power_brute_count():
    # independent enumeration over pairs at distance <= m
    v, m = 10, 3
    expected = sum(1 for i in range(v) for j in range(i + 1, v) if j - i <= m)
    assert expected == 24 == v * m - math.comb(m + 1, 2)
    assert path_power(v, m).num_edges == expected


@pytest.mark.parametrize("v,m", [(5, 4), (8, 1), (9, 2), (12, 3), (20, 5)])
def test_path_power_edge_formula(v, m):
    if v >= m + 1:
        assert path_power(v, m).num_edges == v * m - math.comb(m + 1, 2)


def test_cycle_power_small():
    assert cycle_power(5, 2) == complete_graph(5)
    assert cycle_power(9, 2).num_edges == 18


def test_cycle_power_brute_count():
    v, m = 12, 3
    expected = sum(
        1 for i in range(v) for j in range(i + 1, v) if min(j - i, v - (j - i)) <= m
    )
    assert expected == 36
    assert cycle_power(v, m).num_edges == expected


@pytest.mark.parametrize("v,m", [(7, 3), (9, 4), (11, 5), (15, 2)])
def test_cycle_power_edge_formula(v, m):
    if v >= 2 * m + 1:
        assert cycle_power(v, m).num_edges == v * m


@pytest.mark.parametrize("v,m", [(9, 2), (10, 3), (13, 4)])
def test_cycle_minus_vertex_contains_path_power(v, m):
    """Dropping one cycle vertex and re-reading the rest in path order keeps
    every pair within path distance m adjacent (the wrap pairs are extra)."""
    cyc = cycle_power(v, m)
    for drop in range(v):
        rest = [x for x in range(v) if x != drop]
        rest = rest[drop:] + rest[:drop]  # start right after the dropped vertex
        ind = induced_subgraph(cyc, rest)
        assert path_power(v - 1, m).edges <= ind.edges


def test_patched_bipartite_canonical_counts():
    g = patched_bipartite(12, Fraction(1, 12))
    assert g.num_edges == 36 + 5 + 5
    assert g.min_degree() == 7  # n/2 + floor(eps*n)


def test_patched_bipartite_degree_spectrum():
    n, eps = 16, Fraction(1, 8)
    k = eps_patch_size(n, eps)
    g = patched_bipartite(n, eps)
    half = n // 2
    for v in range(n):
        in_patch = v < k or half <= v < half + k
        expected = n - k if in_patch else half + k
        assert g.degree(v) == expected


def test_patched_bipartite_patch_vertex_full_degree():
    # at eps = 1/8 on 8 vertices the patch vertex touches everything
    g = patched_bipartite(8, Fraction(1, 8))
    assert g.degree(0) == 7


def test_patched_bipartite_contains_complete_bipartite():
    n = 12
    g = patched_bipartite(n, Fraction(1, 6))
    half = n // 2
    for x in range(half):
        for y in range(half, n):
            assert g.has_edge(x, y)


def test_patched_bipartite_errors():
    with pytest.raises(ValueError):
        patched_bipartite(11, Fraction(1, 11))  # odd
    with pytest.raises(ValueError):
        patched_bipartite(12, Fraction(1, 2))  # eps > 1/4
    with pytest.raises(ValueError):
        patched_bipartite(12, Fraction(1, 100))  # empty patch


def test_patched_bipartite_eps_forms():
    g = patched_bipartite(16, Fraction(1, 8))
    assert patched_bipartite(16, "1/8") == patched_bipartite(16, 0.125) == g
    for bad in ("1/0", "0.1e", True, None):  # "1/0" was a ZeroDivisionError
        with pytest.raises(ValueError, match=f"eps must be a number, got {bad!r}"):
            patched_bipartite(16, bad)


# Each call used to truncate a float, read a bool as 0 or 1, or fail deep
# inside with an unrelated message.
@pytest.mark.parametrize("fn,args", [
    pytest.param(count_cliques, (complete_graph(6), 2.5), id="count_cliques-float"),
    pytest.param(count_cliques, (complete_graph(6), True), id="count_cliques-bool"),
    pytest.param(count_new_cliques, (Graph(4), Graph(4), 3.0), id="count_new_cliques-float"),
    pytest.param(Graph, (3, [(True, 2)]), id="Graph-bool-endpoint"),
    pytest.param(Graph, (3, [(0, 2.0)]), id="Graph-float-endpoint"),
    pytest.param(Graph, (2.5,), id="Graph-float-n"),
    pytest.param(complete_graph, (4.0,), id="complete_graph-float"),
    pytest.param(path_power, (5, True), id="path_power-bool"),
    pytest.param(cycle_power, (7, True), id="cycle_power-bool"),
    pytest.param(cycle_power, (7.0, 2), id="cycle_power-float"),
    pytest.param(patched_bipartite, (16.0, Fraction(1, 8)), id="patched_bipartite-float"),
    pytest.param(pair_uniforms, (5, 1.5), id="pair_uniforms-float-seed"),
    pytest.param(sample_gnp, (5, 0.5, 1.5), id="sample_gnp-float-seed"),
    pytest.param(sample_gnp, (5.0, 0.5, 1), id="sample_gnp-float-n"),
])
def test_integer_arguments_reject_bools_and_floats(fn, args):
    with pytest.raises(TypeError, match="must be an integer, got (bool|float)"):
        fn(*args)


def test_integer_arguments_take_numpy_integers_by_value():
    g = Graph(np.int64(3), [(np.int64(0), np.uint8(2))])
    assert g == Graph(3, [(0, 2)]) and type(g.n) is int
    assert sample_gnp(np.int64(9), 0.5, np.uint64(7)) == sample_gnp(9, 0.5, 7)
    assert cycle_power(np.int32(7), np.int8(2)) == cycle_power(7, 2)
    assert count_cliques(complete_graph(np.int16(6)), np.int64(3)) == 20


def _is_operator_index(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and any(a.name == "index" for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == "index"
            and isinstance(node.value, ast.Name) and node.value.id == "operator")


def test_each_input_rule_has_one_home():
    """graphs._integer is the one use of operator.index in the package, and
    no module but graphs defines an integer or number rule of its own."""
    uses, rules, integer = [], [], None
    for path in sorted(Path(graphs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            uses += [path.name] * _is_operator_index(node)
            if isinstance(node, ast.FunctionDef) and node.name in ("_integer", "_number", "_json_int"):
                rules.append((path.name, node.name))
                if (path.name, node.name) == ("graphs.py", "_integer"):
                    integer = node
    assert rules == [("graphs.py", "_integer"), ("graphs.py", "_number")]
    assert uses == ["graphs.py"] and sum(map(_is_operator_index, ast.walk(integer))) == 1


def test_sample_gnp_endpoints():
    assert sample_gnp(8, 0.0, 1).num_edges == 0
    assert sample_gnp(8, 1.0, 1) == complete_graph(8)
    with pytest.raises(ValueError):
        sample_gnp(8, 1.5, 1)


def test_sample_gnp_determinism_and_coupling():
    a = sample_gnp(30, 0.3, 12345)
    b = sample_gnp(30, 0.3, 12345)
    assert a == b
    small = sample_gnp(30, 0.1, 12345)
    assert small.edges <= a.edges  # one uniform per pair, thresholded


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_sample_gnp_coupling_property(seed):
    lo = sample_gnp(12, 0.2, seed)
    hi = sample_gnp(12, 0.7, seed)
    assert lo.edges <= hi.edges


def test_sample_gnp_concentration():
    n = 1000
    g = sample_gnp(n, 0.5, 777)
    pairs = n * (n - 1) // 2
    sigma = math.sqrt(pairs / 4)
    assert abs(g.num_edges - pairs / 2) < 5 * sigma


# to_edge_list sha256 of sample_gnp(n, p, seed), computed when graphs still
# stored edge sets; building the rows straight from the uniforms keeps them
GNP_DIGESTS = [
    (0, 0.5, 1, 0, "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101"),
    (1, 0.5, 1, 0, "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
    (1, 1.0, 2, 0, "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
    (2, 1.0, 3, 1, "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834"),
    (9, 0.0, 5, 0, "d52500b48d55f05d0479fc1942b467d04378c86c62a461d94ec8b0c6a8365ec8"),
    (9, 1.0, 5, 36, "d6fd01c8ecd5a992afbb19d5115b271a156b9bc0d04db96c3848be7b86c9cc7e"),
    (8, 0.5, 0, 15, "aee2ea82aa04e5afa3593c0957546e9f31ee7693b8afad0db4c0e5397d0e2f34"),
    (13, 0.37, 123456789, 34, "9be9d09176b17352e1bda75c0fd76ece550b037a8405e63ced5cbffea423f987"),
    (40, 0.75, 20260810, 591, "91dbfa2b3b395aff64ebb31fe47c67a09925e64ef84f39e69847e091a9cbec2d"),
    (65, 0.5, 42, 1035, "2a1ee873b97dc6e8cfa24222fe666754ea3555ba14770fb98f86b392ee473f12"),
    (70, 0.1, 11, 245, "f49e2fa2445f2554852dd90ff67aacec591de60df68157e3fb0e5ab56bfc0c95"),
    (130, 0.02, 2**64 + 5, 170, "4290735912aa09cb20a34211ad733adc165dfa876d1059771cfd91a65e8ef910"),
]


@pytest.mark.parametrize("n,p,seed,num_edges,digest", GNP_DIGESTS)
def test_sample_gnp_edge_list_pinned(n, p, seed, num_edges, digest):
    g = sample_gnp(n, p, seed)
    assert g.num_edges == num_edges
    assert hashlib.sha256(to_edge_list(g).encode("ascii")).hexdigest() == digest


def random_edge_set(rng: random.Random, n: int, p: float) -> set:
    return {(u, v) for u, v in combinations(range(n), 2) if rng.random() < p}


def test_union_matches_edge_set_union():
    rng = random.Random(7)
    for n in (0, 1, 2, 7, 64, 65, 100):
        for p, q in ((0.0, 0.3), (0.2, 0.2), (0.5, 0.9), (1.0, 0.1)):
            a, b = random_edge_set(rng, n, p), random_edge_set(rng, n, q)
            u = union(Graph(n, a), Graph(n, b))
            assert u.edges == a | b
            assert u.num_edges == len(a | b)
            assert u == Graph(n, a | b) and hash(u) == hash(Graph(n, a | b))


def test_count_cliques_matches_combinations_oracle():
    rng = random.Random(11)
    for n, p, s_max in ((0, 0.5, 5), (1, 0.5, 5), (6, 1.0, 5), (10, 0.6, 5), (14, 0.45, 5), (70, 0.2, 3)):
        es = random_edge_set(rng, n, p)
        g = Graph(n, es)
        for s in range(1, s_max + 1):
            expected = sum(
                all(pair in es for pair in combinations(sub, 2)) for sub in combinations(range(n), s)
            )
            assert count_cliques(g, s) == expected, (n, p, s)


def test_has_edge_rejects_out_of_range_vertices():
    g = complete_graph(5)
    assert g.has_edge(0, 4) and g.has_edge(4, 0)
    # rows must not be read from the end: -1 is not vertex 4
    for u, v in ((-1, 0), (0, -1), (-1, -2), (-5, 1), (5, 0), (0, 5), (70, 1), (2, 2)):
        assert g.has_edge(u, v) is False
    assert Graph(0).has_edge(0, 0) is False


def test_equality_and_hash_agree_across_constructions():
    for n, p, seed in ((0, 0.5, 1), (1, 0.5, 1), (12, 0.4, 3), (70, 0.1, 11)):
        from_rows = sample_gnp(n, p, seed)
        from_edges = parse_edge_list(to_edge_list(from_rows))
        relabeled = induced_subgraph(from_edges, range(n))
        for g in (from_edges, relabeled):
            assert g == from_rows and hash(g) == hash(from_rows)
        assert len({from_rows, from_edges, relabeled}) == 1
    g = sample_gnp(12, 0.4, 3)
    missing = next(pair for pair in combinations(range(12), 2) if pair not in g.edges)
    assert Graph(12, g.edges | {missing}) != g
    assert Graph(3) != Graph(4) and Graph(3) != frozenset()


def test_union_identities():
    g = path_power(6, 1)
    c = cycle_power(6, 1)
    assert union(g, Graph(6)) == g
    assert union(g, g) == g
    assert union(g, c) == c  # path edges are a subset of the cycle's
    with pytest.raises(ValueError):
        union(g, Graph(7))


def test_count_cliques_fixed_values():
    assert count_cliques(complete_graph(6), 4) == 15
    assert count_cliques(cycle_power(9, 2), 3) == 9
    assert count_cliques(Graph(5), 2) == 0
    assert count_cliques(complete_graph(3), 1) == 3


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=2, max_value=5))
@settings(max_examples=20, deadline=None)
def test_count_cliques_matches_naive(seed, s):
    g = sample_gnp(9, 0.5, seed)
    assert count_cliques(g, s) == naive_clique_count(g, s)


def test_count_cliques_naive_agreement_to_12():
    for n in (10, 11, 12):
        g = sample_gnp(n, 0.45, 5000 + n)
        for s in (3, 4, 5):
            assert count_cliques(g, s) == naive_clique_count(g, s)


def test_count_new_cliques_is_the_difference_of_counts():
    # nested pairs old <= new from one coupled family, including old == new,
    # an empty old (p = 0) and a complete new (p = 1)
    for n in range(31):
        gnp = coupled_gnp(n, pair_uniforms(n, 700 + n))
        for a, b in ((0.0, 0.0), (0.4, 0.4), (0.0, 0.35), (0.2, 0.5), (0.5, 1.0), (0.0, 1.0)):
            old, new = gnp(a), gnp(b)
            for s in range(1, 7):
                expected = count_cliques(new, s) - count_cliques(old, s)
                assert count_new_cliques(old, new, s) == expected, (n, a, b, s)


def test_count_new_cliques_rejects_bad_input():
    small, big = sample_gnp(10, 0.3, 1), sample_gnp(10, 0.6, 1)
    with pytest.raises(ValueError, match="vertex counts differ"):
        count_new_cliques(Graph(9), big, 3)
    with pytest.raises(ValueError, match="clique size"):
        count_new_cliques(small, big, 0)
    with pytest.raises(ValueError, match="edge the new graph lacks"):
        count_new_cliques(big, small, 3)


def test_induced_subgraph():
    g = path_power(8, 2)
    ind = induced_subgraph(g, [0, 2, 4, 6])
    assert ind.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert induced_subgraph(complete_graph(5), [4, 1, 2]) == complete_graph(3)
    assert induced_subgraph(g, range(8)) == g
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0, 1])
    with pytest.raises(ValueError):
        induced_subgraph(g, [7, 8])


def test_induced_edge_count_matches_subgraph():
    g = sample_gnp(10, 0.5, 99)
    for sub in ([0, 3, 4], [1, 2, 5, 8, 9], list(range(10))):
        assert induced_edge_count(g, sub) == induced_subgraph(g, sub).num_edges


def test_edge_list_round_trip_and_stability():
    g = sample_gnp(9, 0.4, 31337)
    text = to_edge_list(g)
    assert parse_edge_list(text) == g
    assert to_edge_list(parse_edge_list(text)) == text
    first = text.splitlines()[0].split()
    assert first == [str(g.n), str(g.num_edges)]


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n1 0\n")  # u < v required
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # header count mismatch


def test_dot_output_stable():
    g = path_power(4, 1)
    d = to_dot(g)
    assert d == to_dot(parse_edge_list(to_edge_list(g)))
    assert d.startswith("graph G {")
    assert "  0 -- 1;" in d
