"""Bridges, braids, and disjoint braid unions."""

from math import comb

import pytest

from hampower import braids
from hampower.braids import braid, braid_edge_count, bridge, s_braids
from hampower.graphs import complete_graph, path_power
from hampower.partitioned_paths import check_edge_floor_exhaustive, iter_valid_label_masks, same_side_edge_floor


def test_bridge_single_edge():
    g = bridge(1)
    assert g.n == 2 and g.edges == frozenset({(0, 1)})


def test_bridge_four():
    assert bridge(4).num_edges == 10


def test_bridge_three_degree_sequence():
    g = bridge(3)
    assert g.num_edges == 6
    assert [g.degree(v) for v in range(6)] == [1, 2, 3, 3, 2, 1]


def test_braid_5_3_4():
    g = braid(5, 3, 4)
    assert g.n == 20
    assert g.num_edges == 58 == 4 * comb(5, 2) + 3 * comb(4, 2)


def test_braid_single_clique():
    for ell in range(2, 7):
        assert braid(ell, min(ell, 2), 1) == complete_graph(ell)


def test_braid_is_path_power_when_bridges_saturate():
    # ell in {r, r+1} collapses the braid onto the r-th power of a path
    assert braid(3, 3, 2) == path_power(6, 3)
    for r in range(1, 5):
        for ell in (r, r + 1):
            if ell < 2:
                continue
            for t in range(1, 5):
                assert braid(ell, r, t) == path_power(t * ell, r)


def test_braid_edge_count_formula_exhaustive():
    for ell in range(2, 9):
        for r in range(1, ell + 1):
            for t in range(1, 7):
                g = braid(ell, r, t)
                assert g.num_edges == braid_edge_count(ell, r, t)


def test_braid_degree_bounds():
    ell, r, t = 6, 3, 4
    g = braid(ell, r, t)
    for v in range(g.n):
        assert g.degree(v) <= ell - 1 + 2 * r
    # first-clique vertices off the bridge keep the bare clique degree
    for v in range(ell - r):
        assert g.degree(v) == ell - 1


def test_braid_param_validation():
    with pytest.raises(ValueError):
        braid(1, 1, 2)
    with pytest.raises(ValueError):
        braid(4, 5, 2)
    with pytest.raises(ValueError):
        braid(4, 2, 0)


def test_s_braids():
    assert s_braids(5, 3, 4, 1) == braid(5, 3, 4)
    g = s_braids(5, 3, 4, 2)
    assert g.n == 40 and g.num_edges == 116
    three = s_braids(4, 2, 1, 3)
    assert three.n == 12 and three.num_edges == 3 * comb(4, 2)
    # copies are vertex-disjoint: no edge crosses a 20-vertex block boundary
    assert all((u < 20) == (v < 20) for u, v in g.edges)


# Each call used to read a bool as 0 or 1, keep a float (an inexact floor),
# or fail deep inside with a TypeError that named no argument.
@pytest.mark.parametrize("fn,args,name", [
    pytest.param(braid, (4, True, 3), "bridge width r", id="braid-bool-r"),
    pytest.param(braid, (4.0, 2, 3), "clique size ell", id="braid-float-ell"),
    pytest.param(bridge, (True,), "bridge width r", id="bridge-bool"),
    pytest.param(s_braids, (4, 2, 3, True), "copy count s", id="s_braids-bool-s"),
    pytest.param(braid_edge_count, (4, 2, 3.0), "clique count t", id="braid_edge_count-float-t"),
    pytest.param(iter_valid_label_masks, (3, True), "power m", id="iter_valid_label_masks-bool-m"),
    pytest.param(iter_valid_label_masks, (3.0, 2), "length L", id="iter_valid_label_masks-float-L"),
    pytest.param(check_edge_floor_exhaustive, (2, True), "L_max", id="check_edge_floor_exhaustive-bool"),
    pytest.param(same_side_edge_floor, (2, 3.5), "length L", id="same_side_edge_floor-float-L"),
    pytest.param(same_side_edge_floor, (2.0, 3), "power m", id="same_side_edge_floor-float-m"),
])
def test_braid_and_label_mask_integer_arguments(fn, args, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got (bool|float)"):
        fn(*args)


def test_braid_edges_are_built_only_behind_the_parameter_check():
    # the public braid_edges(3, 5, 2) returned edges at vertex -2, and
    # braid_edges(3, 1, 2.0) failed without naming the argument
    assert not hasattr(braids, "braid_edges")
    with pytest.raises(ValueError, match="bridge width must satisfy 1 <= r <= ell, got r=5, ell=3"):
        braid(3, 5, 2)
    with pytest.raises(TypeError, match="^clique count t must be an integer, got float 2.0$"):
        s_braids(3, 1, 2.0, 1)
