"""The integer rule across the package: every integer argument of a public
entry point is read by graphs._integer, which takes numpy integers by value,
refuses bools and floats, and words each lower bound the same way."""

import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from hampower import braids, density, graphs, hamsearch, montecarlo, thresholds, verify
from hampower import partitioned_paths as pp
from hampower.graphs import Graph, complete_graph

K3, K7 = complete_graph(3), complete_graph(7)
PATH = pp.PartitionedPath(3, "AABBA")
SEGMENTS = pp.SegmentList((2, 1, 2), "A")
config = partial(montecarlo.ExperimentConfig, n=8, m=2, base=montecarlo.BaseGraphSpec("complete"),
                 p_grid=(0.5,), trials=2, seed=1)
CONFIG = config()

# (entry point, arguments that it accepts, position of the integer, its name)
ROUTED = [
    (thresholds.braid_density_limit, (5, 3), 0, "power m"),
    (thresholds.braid_density_limit, (5, 3), 1, "clique size ell"),
    (thresholds.optimal_ell_sq, (5,), 0, "power m"),
    (thresholds.optimal_ell_floor_ceil, (5,), 0, "power m"),
    (thresholds.optimal_ell, (5,), 0, "power m"),
    (thresholds.threshold_exponent, (5,), 0, "power m"),
    (thresholds.threshold_exponent_of_n, (5,), 0, "power m"),
    (thresholds.summary_ell, (5,), 0, "power m"),
    (thresholds.braid_regime_report, (2, 5), 0, "m_lo"),
    (thresholds.braid_regime_report, (2, 5), 1, "m_hi"),
    (thresholds.build_tables, (3,), 0, "m_max"),
    (density.verify_truncation_margins, (5, 2, 3), 0, "clique size ell"),
    (density.verify_truncation_margins, (5, 2, 3), 1, "bridge width r"),
    (density.verify_truncation_margins, (5, 2, 3), 2, "clique count t"),
    (density.truncation_margin_low, (5, 2, 3, 1), 3, "x"),
    (density.truncation_margin_high, (5, 2, 3, 3), 3, "x"),
    (density.truncation_margin_linear_factor, (5, 2, 3, 3), 3, "x"),
    (density.first_moment_profile, (K3, 100, 0.3), 1, "scale n"),
    (pp.clique_free, (PATH, 3), 1, "clique_size"),
    (pp.normalize, (PATH, 100), 1, "budget"),
    (pp.normalized_edge_closed_form, (SEGMENTS, 3), 1, "power m"),
    (pp.mask_to_labels, (5, 3), 1, "length L"),
    (montecarlo.run_sweep, (CONFIG, 1), 1, "workers"),
    (montecarlo.trial_seed, (7, 0), 0, "seed"),
    (montecarlo.trial_seed, (7, 1), 1, "trial"),
    (verify.regime, (12,), 0, "m_max"),
    (verify.structure, (6, 8), 0, "power m"),
    (verify.structure, (6, 8), 1, "lmax"),
    (verify.tail_margins, (4, 2), 0, "ell_max"),
    (verify.tail_margins, (4, 2), 1, "t_max"),
    (verify.balanced, (3, 2), 0, "ell_max"),
    (verify.balanced, (3, 2), 1, "t_max"),
]


@pytest.mark.parametrize("kind", ["bool", "float"])
@pytest.mark.parametrize("fn,args,i,name", [
    pytest.param(*case, id=f"{case[0].__name__}-{case[3]}".replace(" ", "_")) for case in ROUTED
])
def test_entry_points_read_integers_through_the_rule(fn, args, i, name, kind):
    # the float equals an accepted integer, so only its type is at fault
    bad = True if kind == "bool" else float(args[i])
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {kind} {bad!r}$"):
        fn(*args[:i], bad, *args[i + 1:])


# (call, the integer's name, its least value, the value passed)
BOUNDS = [
    (partial(braids.braid, 1, 1, 2), "clique size ell", 2, 1),
    (partial(braids.braid, 3, 1, 0), "clique count t", 1, 0),
    (partial(braids.s_braids, 3, 1, 2, 0), "copy count s", 1, 0),
    (partial(braids.bridge, 0), "bridge width r", 1, 0),
    (partial(Graph, -1), "vertex count", 0, -1),
    (partial(graphs.complete_graph, 0), "n", 1, 0),
    (partial(graphs.path_power, 0, 1), "v", 1, 0),
    (partial(graphs.path_power, 3, 0), "power m", 1, 0),
    (partial(graphs.cycle_power, 2, 1), "v", 3, 2),
    (partial(graphs.cycle_power, 5, 0), "power m", 1, 0),
    (partial(graphs.pair_uniforms, -1, 0), "n", 0, -1),
    (partial(graphs.gnp_process, 3, np.zeros(3), [0.5], 1), "clique size", 2, 1),
    (partial(graphs.count_cliques, K3, 0), "clique size", 1, 0),
    (partial(hamsearch.verify_witness, K7, 0, range(7)), "power m", 1, 0),
    (partial(hamsearch.contains_ham_power, K7, 0), "power m", 1, 0),
    (partial(hamsearch.contains_ham_power, K7, 2, -4), "budget", 1, -4),
    (partial(hamsearch.brute_force_contains, K7, -1), "power m", 1, -1),
    (partial(config, m=0), "config m", 1, 0),
    (partial(config, trials=0), "config trials", 1, 0),
    (partial(config, budget=0), "config budget", 1, 0),
    (partial(montecarlo.clique_stats, 10, 0.5, 0, 2, 1), "power m", 1, 0),
    (partial(montecarlo.clique_stats, 10, 0.5, 1, 0, 1), "trials", 1, 0),
    (partial(montecarlo.run_sweep, CONFIG, 0), "workers", 1, 0),
    (partial(pp.PartitionedPath, 0, "AB"), "power m", 1, 0),
    (partial(pp.SegmentList, (2, 0, 1), "A"), "segment size", 1, 0),
    (partial(pp.same_side_edge_floor, 1, 3), "power m", 2, 1),
    (partial(pp.same_side_edge_floor, 2, 0), "length L", 1, 0),
    (partial(pp.iter_valid_label_masks, 3, 0), "power m", 1, 0),
    (partial(pp.check_edge_floor_exhaustive, 1, 3), "power m", 2, 1),
    (partial(pp.clique_free, PATH, 0), "clique_size", 1, 0),
    (partial(pp.normalize, PATH, -5), "budget", 0, -5),
    (partial(pp.normalized_edge_closed_form, SEGMENTS, 0), "power m", 1, 0),
    (partial(pp.mask_to_labels, 5, -1), "length L", 0, -1),
    (partial(thresholds.braid_density_limit, 1, 1), "power m", 2, 1),
    (partial(thresholds.optimal_ell_sq, 1), "power m", 2, 1),
    (partial(thresholds.optimal_ell, 0), "power m", 2, 0),
    (partial(thresholds.threshold_exponent, 1), "power m", 2, 1),
    (partial(thresholds.summary_ell, 0), "power m", 2, 0),
    (partial(thresholds.build_tables, 1), "m_max", 2, 1),
    (partial(density.first_moment_profile, K3, 1, 0.5), "scale n", 2, 1),
    (partial(density.verify_truncation_margins, 5, 2, 1), "clique count t", 2, 1),
]


@pytest.mark.parametrize("call,name,least,value", [
    pytest.param(*case, id=f"{case[0].func.__name__}-{case[1]}".replace(" ", "_")) for case in BOUNDS
])
def test_each_lower_bound_has_one_wording(call, name, least, value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be >= {least}, got {value}')}$"):
        call()


def test_integer_arguments_are_read_exactly():
    # numpy integers used to overflow (optimal_ell(np.int8(100)) was 8), miss
    # the reference tables or come back as numpy scalars, and floats were
    # computed with as reals
    assert thresholds.optimal_ell(np.int8(100)) == 71
    assert thresholds.optimal_ell_sq(np.int8(100)) == 5050
    rec = thresholds.threshold_exponent(np.int16(300))
    assert rec == thresholds.threshold_exponent(300) and type(rec.m) is int
    assert density.verify_truncation_margins(np.int64(5), 2, 3) is True
    with pytest.raises(TypeError, match="^power m must be an integer, got float 3.0$"):
        pp.normalized_edge_closed_form(pp.SegmentList((2, 1, 2), "A"), 3.0)
    with pytest.raises(TypeError, match="^x must be an integer, got float 0.5$"):
        density.truncation_margin_low(5, 2, 3, 0.5)
    assert thresholds.braid_density_limit(np.int8(100), np.int8(71)) == thresholds.braid_density_limit(100, 71)
    assert density.braid_density(np.int8(100), 2, np.int8(3)) == density.braid_density(100, 2, 3)
    assert density.first_moment_profile(K3, np.int64(100), Fraction(3, 10)) == density.first_moment_profile(K3, 100, 0.3)
