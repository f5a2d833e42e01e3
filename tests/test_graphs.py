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

from hampower import density, graphs
from hampower.graphs import (
    Graph,
    complete_graph,
    count_cliques,
    cycle_power,
    eps_patch_size,
    gnp_process,
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
        if all(g.adj[u] >> v & 1 for u, v in combinations(sub, 2)):
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


def test_cycle_power_is_every_pair_within_cyclic_distance():
    # m runs past v // 2 too, where the two directions of the wrap meet
    for v in range(3, 15):
        for m in range(1, v + 1):
            pairs = [(i, j) for i in range(v) for j in range(i + 1, v) if min(j - i, v - j + i) <= m]
            assert cycle_power(v, m) == Graph(v, pairs), (v, m)


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
    assert min(map(int.bit_count, g.adj)) == 7  # n/2 + floor(eps*n)


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
            assert g.adj[x] >> y & 1


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


# eps_patch_size reads eps as patched_bipartite does ("1/0" was a
# ZeroDivisionError, True was read as 1)
@pytest.mark.parametrize("bad", ["1/0", "0.1e", True, None])
def test_eps_patch_size_rejects_non_numbers(bad):
    assert eps_patch_size(16, "1/8") == eps_patch_size(16, 0.125) == 2
    with pytest.raises(ValueError, match=f"eps must be a number, got {bad!r}"):
        eps_patch_size(16, bad)


# Each call used to truncate a float, read a bool as 0 or 1, or fail deep
# inside with an unrelated message.
@pytest.mark.parametrize("fn,args", [
    pytest.param(count_cliques, (complete_graph(6), 2.5), id="count_cliques-float"),
    pytest.param(count_cliques, (complete_graph(6), True), id="count_cliques-bool"),
    pytest.param(gnp_process, (4, pair_uniforms(4, 1), [0.5], 3.0), id="gnp_process-float"),
    pytest.param(Graph, (3, [(True, 2)]), id="Graph-bool-endpoint"),
    pytest.param(Graph, (3, [(0, 2.0)]), id="Graph-float-endpoint"),
    pytest.param(Graph, (2.5,), id="Graph-float-n"),
    pytest.param(complete_graph, (4.0,), id="complete_graph-float"),
    pytest.param(path_power, (5, True), id="path_power-bool"),
    pytest.param(cycle_power, (7, True), id="cycle_power-bool"),
    pytest.param(cycle_power, (7.0, 2), id="cycle_power-float"),
    pytest.param(patched_bipartite, (16.0, Fraction(1, 8)), id="patched_bipartite-float"),
    pytest.param(eps_patch_size, (16.0, Fraction(1, 8)), id="eps_patch_size-float"),
    pytest.param(eps_patch_size, (True, Fraction(1, 2)), id="eps_patch_size-bool"),
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


def _bound_messages(node) -> int:
    """The string constants under node (f-string parts included) that word a
    lower bound."""
    return sum(isinstance(n, ast.Constant) and isinstance(n.value, str) and "must be >=" in n.value
               for n in ast.walk(node))


def test_each_input_rule_has_one_home():
    """graphs._integer is the one use of operator.index in the package and
    the one place that words a lower bound (`must be >=`), and no module but
    graphs defines an integer or number rule of its own."""
    uses, rules, integer, bounds = [], [], None, []
    for path in sorted(Path(graphs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bounds += [path.name] * _bound_messages(tree)
        for node in ast.walk(tree):
            uses += [path.name] * _is_operator_index(node)
            if isinstance(node, ast.FunctionDef) and node.name in ("_integer", "_number", "_json_int"):
                rules.append((path.name, node.name))
                if (path.name, node.name) == ("graphs.py", "_integer"):
                    integer = node
    assert rules == [("graphs.py", "_integer"), ("graphs.py", "_number")]
    assert uses == ["graphs.py"] and sum(map(_is_operator_index, ast.walk(integer))) == 1
    assert bounds == ["graphs.py"] and _bound_messages(integer) == 1


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


def old_pack_rows(bits: np.ndarray) -> tuple[int, ...]:
    """Oracle: the byte-slicing packer the word-column one replaced."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return tuple(int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(packed)))


def threshold_oracle(n: int, uniforms: np.ndarray, p: float) -> Graph:
    """Oracle: lay the uniforms out as a symmetric matrix (diagonal 1, never
    below p) and pack `matrix < p`, as the sampler did before the walk."""
    matrix = np.ones((n, n))
    iu = np.triu_indices(n, k=1)
    matrix[iu] = uniforms
    matrix.T[iu] = uniforms
    return Graph._from_rows(old_pack_rows(matrix < p))


# nondecreasing p lists: p = 0 and p = 1, repeated p, one p, none
WALK_PS = ([0.0, 0.0, 0.35, 0.35, 0.6, 1.0], [0.2, 0.5], [1.0], [0.0], [0.45, 0.45], [])


def assert_walk_matches_oracles(n, uniforms, ps, s):
    parts, counts = gnp_process(n, uniforms, ps, s)
    assert parts == [threshold_oracle(n, uniforms, p) for p in ps], (n, ps, s)
    assert counts == [count_cliques(g, s) for g in parts], (n, ps, s)


def test_gnp_process_matches_its_oracles():
    # every graph is the thresholded matrix and every count is count_cliques
    # of it, so each step of the counts is the cliques its new edges close
    for n in [*range(31), 65, 130]:
        uniforms = pair_uniforms(n, 700 + n)
        for ps in WALK_PS:
            for s in range(2, 7 if n <= 30 else 6 if n == 65 else 4):
                assert_walk_matches_oracles(n, uniforms, ps, s)


def test_gnp_process_with_tied_uniforms():
    # hand-built uniforms with ties among themselves and with the p values:
    # a pair is kept iff its uniform lies strictly below p
    n = 6
    uniforms = np.array([0.5, 0.25, 0.5, 0.75, 0.25, 0.5, 0.0, 0.75, 0.25, 0.5, 0.5, 0.0, 0.25, 0.75, 0.5])
    for ps in ([0.0, 0.25, 0.5, 0.75, 1.0], [0.25, 0.25, 0.5000001], [0.5, 0.75]):
        for s in range(2, 6):
            assert_walk_matches_oracles(n, uniforms, ps, s)
    parts, counts = gnp_process(n, uniforms, [0.25, 0.5], 2)
    assert counts == [2, 6] and parts[1].num_edges == 6


def test_gnp_process_rejects_bad_input():
    uniforms = pair_uniforms(10, 1)
    with pytest.raises(ValueError, match="need 36 pair uniforms for n=9, got 45"):
        gnp_process(9, uniforms, [0.5], 3)
    with pytest.raises(ValueError, match="clique size must be >= 2"):
        gnp_process(10, uniforms, [0.5], 1)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            gnp_process(10, uniforms, [0.2, p], 3)
    with pytest.raises(ValueError, match="p list must be nondecreasing"):
        gnp_process(10, uniforms, [0.5, 0.4], 3)
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\], got nan"):
        sample_gnp(10, float("nan"), 1)


def test_gnp_process_reads_each_p_as_a_number():
    # any iterable of numbers; a bool was read as 0 or 1, and a string, a
    # numpy array and an iterator failed with unrelated messages
    uniforms = pair_uniforms(6, 3)
    expected = gnp_process(6, uniforms, [0.0, 0.5, 1.0], 3)
    for ps in (np.linspace(0, 1, 3), iter([0.0, 0.5, 1.0]), (0, Fraction(1, 2), np.float32(1))):
        assert gnp_process(6, uniforms, ps, 3) == expected
    for bad in (True, "0.5"):
        with pytest.raises(ValueError, match=f"^p must be a number, got {bad!r}$"):
            sample_gnp(6, bad, 1)
        with pytest.raises(ValueError, match=f"^p must be a number, got {bad!r}$"):
            gnp_process(6, uniforms, [0.2, bad], 3)


def test_gnp_process_does_not_depend_on_the_pair_index_cache():
    # the pair indices are cached per n; calls at n = 5, 40, 5 give what each
    # gives on a fresh cache, and what the thresholded matrix gives
    ps = [0.0, 0.3, 0.3, 0.7, 1.0]
    calls = [(n, pair_uniforms(n, 31 + n), s) for n, s in ((5, 3), (40, 3), (5, 4), (40, 5))]
    fresh = []
    for n, uniforms, s in calls:
        graphs._pair_indices.cache_clear()
        fresh.append(gnp_process(n, uniforms, ps, s))
    graphs._pair_indices.cache_clear()
    for (n, uniforms, s), want in zip(calls + calls, fresh + fresh):
        assert gnp_process(n, uniforms, ps, s) == want, (n, s)
        assert want[0] == [threshold_oracle(n, uniforms, p) for p in ps]
    assert graphs._pair_indices.cache_info().currsize == 2


def test_cached_pair_indices_are_read_only():
    iu, iv = graphs._pair_indices(7)
    assert (iu.tolist(), iv.tolist()) == tuple(a.tolist() for a in np.triu_indices(7, k=1))
    for a in (iu, iv):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    assert graphs._pair_indices(7)[0] is iu


@pytest.mark.parametrize("n", [2, 16, 63, 64, 65, 130])
def test_induced_rows_match_the_subgraph_oracle(n):
    # the unchecked relabel that the search uses equals induced_subgraph and
    # the subgraph read off the edge set, for permutations and for subsets
    rng = np.random.default_rng(n)
    for p in (0.0, 0.3, 0.8, 1.0):
        g = sample_gnp(n, p, int(rng.integers(2**32)))
        for vs in (rng.permutation(n).tolist(), list(range(n)), rng.permutation(n)[: n // 2 + 1].tolist()):
            rows = graphs._induced_rows(g, vs)
            assert type(rows) is tuple and all(type(r) is int for r in rows)
            oracle = Graph(len(vs), [(i, j) for i, j in combinations(range(len(vs)), 2)
                                     if (min(vs[i], vs[j]), max(vs[i], vs[j])) in g.edges])
            assert rows == oracle.adj == induced_subgraph(g, vs).adj, (n, p, vs)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129])
def test_row_packing_round_trips_at_word_boundaries(n):
    rng = np.random.default_rng(n)
    for k, density in ((n, 0.5), (n, 1.0), (3, 0.0), (0, 0.5), (1, 0.9)):
        bits = rng.random((k, n)) < density
        rows = graphs._pack_rows(bits)
        assert type(rows) is tuple and all(type(r) is int for r in rows)
        assert rows == old_pack_rows(bits)
        unpacked = graphs._unpack_rows(rows, n)
        assert unpacked.shape == (k, n) and np.array_equal(unpacked, bits)


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


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: induced_edge_count(complete_graph(3), [0, -1]), ValueError,
                 "vertex -1 out of range for n=3", id="edge-count-negative"),  # was "negative shift count"
    pytest.param(lambda: induced_edge_count(complete_graph(3), [0, 7]), ValueError,
                 "vertex 7 out of range for n=3", id="edge-count-above-n"),  # was an IndexError
    pytest.param(lambda: induced_edge_count(complete_graph(3), [0, 0, 1]), ValueError,
                 "duplicate vertices in subset", id="edge-count-duplicate"),  # returned 1
    pytest.param(lambda: induced_edge_count(complete_graph(3), [0, 1.0]), TypeError,
                 "vertex must be an integer, got float 1.0", id="edge-count-float"),
    pytest.param(lambda: induced_subgraph(complete_graph(3), [True, 0]), TypeError,
                 "vertex must be an integer, got bool True", id="subgraph-bool"),  # a 2-vertex graph
    pytest.param(lambda: induced_subgraph(complete_graph(3), [2, -1]), ValueError,
                 "vertex -1 out of range for n=3", id="subgraph-negative"),
    pytest.param(lambda: path_power(4, 1).degree(-1), ValueError,
                 "vertex -1 out of range for n=4", id="degree-negative"),  # vertex 3's degree
    pytest.param(lambda: path_power(4, 1).degree(4), ValueError,
                 "vertex 4 out of range for n=4", id="degree-above-n"),
    pytest.param(lambda: path_power(4, 1).degree(True), TypeError,
                 "vertex must be an integer, got bool True", id="degree-bool"),
])
def test_vertices_share_one_rule(call, error, match):
    with pytest.raises(error, match=f"^{match}$"):
        call()


def test_vertices_take_numpy_integers_by_value():
    g = path_power(6, 2)
    assert induced_subgraph(g, np.array([4, 0, 2])) == induced_subgraph(g, [4, 0, 2])
    assert induced_edge_count(g, (np.int8(1), np.uint64(2))) == 1
    assert g.degree(np.int64(0)) == 2


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


def test_edge_list_rejects_duplicate_lines():
    # "3 1 / 1 2 / 1 2" used to parse as a one-edge graph: the header was
    # compared only with the count of the merged edges
    with pytest.raises(ValueError, match="^duplicate edge line '1 2'$"):
        parse_edge_list("3 1\n1 2\n1 2\n")
    with pytest.raises(ValueError, match="^duplicate edge line '0  1'$"):  # the line as written
        parse_edge_list("3 2\n0 1\n1 2\n0  1\n")


@pytest.mark.parametrize("text, token", [
    ("1_1 1\n+0 1_0\n", "1_1"),  # int() read this as 11 vertices with the edge (0, 10)
    ("\u0663 0\n", "\u0663"),   # an Arabic-Indic three: n = 3
    ("3 1\n-0 2\n", "-0"),       # the edge (0, 2)
], ids=["underscores-and-sign", "non-ascii-digit", "signed-zero"])
def test_edge_list_takes_plain_decimal_tokens_only(tmp_path, text, token):
    message = f"^edge-list entries must be plain decimal integers, got {token!r}$"
    with pytest.raises(ValueError, match=message):
        parse_edge_list(text)
    # a file is read as UTF-8, so the parser names the token there too; read
    # as ASCII, the non-ASCII digit failed on its first byte, 0xd9
    f = tmp_path / "bad.edges"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        graphs.load_edge_list(f)


def test_json_writer_maps_fields_and_refuses_other_types():
    rep = density.DensityReport(Fraction(3, 2), (0, 1), "brute")
    assert graphs._to_json(rep) == {"value": "3/2", "witness": [0, 1], "method": "brute"}
    assert graphs._to_json([None, True, 2, 0.5, "x", (Fraction(-1, 8),)]) == [None, True, 2, 0.5, "x", ["-1/8"]]
    # nothing is stringified by default: a set or an array is a mistake
    for bad, name in [({1, 2}, "set"), (np.arange(3), "ndarray"), (np.int64(3), "int64"),
                      ((1, {2: 3}), "dict")]:
        with pytest.raises(TypeError, match=f"^no JSON form for type {name}$"):
            graphs._to_json(bad)


def test_dot_output_stable():
    g = path_power(4, 1)
    d = to_dot(g)
    assert d == to_dot(parse_edge_list(to_edge_list(g)))
    assert d.startswith("graph G {")
    assert "  0 -- 1;" in d
