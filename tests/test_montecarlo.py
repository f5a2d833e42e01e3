"""Sweeps: config round-trips, coupling, determinism, CSV, clique stats."""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampower import hamsearch, montecarlo
from hampower.graphs import Graph, complete_graph, cycle_power, patched_bipartite, path_power, sample_gnp, union
from hampower.hamsearch import FOUND, NOT_FOUND, UNKNOWN
from hampower.montecarlo import (
    BaseGraphSpec,
    CSV_HEADER,
    ExperimentConfig,
    ExponentGrid,
    clique_stats,
    emit_csv,
    result_to_csv,
    run_sweep,
    trial_seed,
)


def small_config(**overrides):
    kw = dict(
        n=10,
        m=2,
        base=BaseGraphSpec("empty"),
        p_grid=(0.0, 0.3, 0.7, 1.0),
        trials=8,
        seed=99,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(n=3)  # below m + 2
    with pytest.raises(ValueError):
        small_config(p_grid=(0.5, 1.2))
    with pytest.raises(ValueError):
        BaseGraphSpec("nonsense")
    with pytest.raises(ValueError):
        BaseGraphSpec("patched_bipartite")  # missing eps


def test_config_rejects_power_below_one():
    # the sweep used to accept these and fail at its first search
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be >= 1"):
            small_config(m=m)
        with pytest.raises(ValueError, match="m must be >= 1"):
            small_config(m=m, p_grid=())


def test_config_integer_fields_checked_when_built_directly():
    # these used to fail later inside run_sweep, run to the first search, or
    # break json.dumps of to_json_dict
    for key, bad in [("n", 16.0), ("m", True), ("trials", 1.5), ("seed", 1.5), ("seed", "7"),
                     ("budget", 2.5), ("budget", False)]:
        with pytest.raises(TypeError, match=f"{key} must be an integer"):
            small_config(**{key: bad})
    cfg = small_config(n=np.int64(12), m=np.int32(2), trials=np.int64(2), seed=np.uint8(3),
                       budget=np.int64(500))
    assert all(type(getattr(cfg, k)) is int for k in ("n", "m", "trials", "seed", "budget"))
    assert json.loads(json.dumps(cfg.to_json_dict())) == small_config(n=12, trials=2, seed=3,
                                                                      budget=500).to_json_dict()


def test_config_json_round_trip():
    cfg = small_config(
        base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 12)),
        n=16,
        budget=1000,
    )
    blob = json.dumps(cfg.to_json_dict())
    assert ExperimentConfig.from_json_dict(json.loads(blob)) == cfg


def test_config_json_rejects_unknown_keys():
    good = small_config(base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 12)), n=16).to_json_dict()
    misspelt = dict(good)
    misspelt["budgte"] = 1000
    with pytest.raises(ValueError, match="budgte"):
        ExperimentConfig.from_json_dict(misspelt)
    bad_base = dict(good, base={"kind": "patched_bipartite", "eps": "1/12", "epsilon": "1/8"})
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentConfig.from_json_dict(bad_base)
    bad_grid = dict(good, p_grid={"alpha": "9/4", "mu_list": ["0"], "mu": ["1"]})
    with pytest.raises(ValueError, match=r"\['mu'\]"):
        ExperimentConfig.from_json_dict(bad_grid)


def test_config_json_budget_type():
    d = small_config(budget=1000).to_json_dict()
    assert ExperimentConfig.from_json_dict(d).budget == 1000
    assert ExperimentConfig.from_json_dict(dict(d, budget=None)).budget is None
    for bad in ("1000", 1000.0, True, False, [1000]):
        with pytest.raises(ValueError, match="budget"):
            ExperimentConfig.from_json_dict(dict(d, budget=bad))


def test_config_json_missing_keys():
    good = small_config(p_grid=ExponentGrid(Fraction(9, 4), (Fraction(0),))).to_json_dict()
    for key in ("n", "m", "base", "p_grid", "trials", "seed"):
        with pytest.raises(ValueError, match=f"missing required key '{key}'"):
            ExperimentConfig.from_json_dict({k: v for k, v in good.items() if k != key})
    with pytest.raises(ValueError, match="base is missing required key 'kind'"):
        ExperimentConfig.from_json_dict(dict(good, base={}))
    for key in ("alpha", "mu_list"):
        grid = {k: v for k, v in good["p_grid"].items() if k != key}
        with pytest.raises(ValueError, match=f"p_grid is missing required key '{key}'"):
            ExperimentConfig.from_json_dict(dict(good, p_grid=grid))


def test_config_json_integer_fields():
    d = small_config().to_json_dict()
    for key in ("n", "m", "trials", "seed"):
        for bad in (2.7, float(d[key]), str(d[key]), True, None):
            with pytest.raises(ValueError, match=f"config {key} must be an integer"):
                ExperimentConfig.from_json_dict(dict(d, **{key: bad}))


def test_config_json_wrong_shapes_name_the_field():
    d = small_config().to_json_dict()
    grid = small_config(p_grid=ExponentGrid(Fraction(9, 4), (Fraction(0),))).to_json_dict()["p_grid"]
    cases = [
        ([d], "config must be a JSON object"),
        (dict(d, p_grid="0.5"), "config p_grid"),
        (dict(d, p_grid=[0.5, None]), "config p_grid entry must be a number"),
        (dict(d, base=["empty"]), "base must be a JSON object"),
        (dict(d, base={"kind": "patched_bipartite", "eps": None}), "base eps must be a number"),
        (dict(d, base={"kind": "file", "path": 3}), "base path must be a string"),
        (dict(d, p_grid=dict(grid, alpha=[9, 4])), "p_grid alpha must be a number"),
        (dict(d, p_grid=dict(grid, alpha="9/0")), "p_grid alpha must be a number"),
        (dict(d, p_grid=dict(grid, mu_list="0")), "p_grid mu_list must be a JSON list"),
        (dict(d, p_grid=dict(grid, mu_list=[{}])), "p_grid mu_list entry must be a number"),
        # JSON booleans are never numbers, and probabilities are never strings
        (dict(d, p_grid=[True]), "config p_grid entry must be a number"),
        (dict(d, p_grid=[0.5, False]), "config p_grid entry must be a number"),
        (dict(d, p_grid=["0.5"]), "config p_grid entry must be a number"),
        (dict(d, base={"kind": "patched_bipartite", "eps": True}), "base eps must be a number"),
        (dict(d, p_grid=dict(grid, alpha=True)), "p_grid alpha must be a number"),
        (dict(d, p_grid=dict(grid, mu_list=["0", False])), "p_grid mu_list entry must be a number"),
        # a base field that its kind does not use is an error, not silently dropped
        (dict(d, base={"kind": "complete", "eps": "1/8"}), "base eps is used only by kind"),
        (dict(d, base={"kind": "file", "path": "x", "eps": "1/8"}), "base eps is used only by kind"),
        (dict(d, base={"kind": "empty", "path": "x"}), "base path is used only by kind"),
        (dict(d, base={"kind": "patched_bipartite", "eps": "1/8", "path": "x"}),
         "base path is used only by kind"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json_dict(bad)


def test_config_json_fraction_strings_stay_valid():
    # to_json_dict writes eps, alpha and mu_list as fraction strings
    d = small_config(base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 8)), n=16,
                     p_grid=ExponentGrid(Fraction(9, 4), (Fraction(-1, 8), Fraction(0)))).to_json_dict()
    assert d["base"]["eps"] == "1/8" and d["p_grid"] == {"alpha": "9/4", "mu_list": ["-1/8", "0"]}
    cfg = ExperimentConfig.from_json_dict(d)
    assert cfg.base.eps == Fraction(1, 8)
    assert cfg.p_grid == ExponentGrid(Fraction(9, 4), (Fraction(-1, 8), Fraction(0)))


def test_config_p_grid_entries_checked_when_built_directly():
    # (True, 0.5) used to be swept as p = 1 and then written as JSON that
    # from_json_dict refuses; ("0.5",) failed with a bare TypeError
    for grid, bad in [((True, 0.5), "True"), (("0.5",), "'0.5'"), ((0.5, None), "None")]:
        with pytest.raises(ValueError, match=f"config p_grid entry must be a number, got {bad}"):
            small_config(p_grid=grid)
    cfg = small_config(p_grid=[Fraction(1, 2), 1, np.float64(0.25)])
    assert cfg.p_grid == (0.5, 1.0, 0.25) and all(type(p) is float for p in cfg.p_grid)


def test_config_p_grid_iterator_sweeps_every_point():
    # validation used to use the iterator up, so the sweep ran no grid point
    rows = run_sweep(small_config(p_grid=iter([0.5, 1.0]), trials=2)).rows
    assert [row.p for row in rows] == [0.5, 1.0]


def test_config_p_grid_list_equals_its_tuple_twin():
    listed, tupled = small_config(p_grid=[0.0, 0.5]), small_config(p_grid=(0.0, 0.5))
    assert listed == tupled and hash(listed) == hash(tupled)  # a list was unhashable
    listed, tupled = (small_config(p_grid=ExponentGrid(Fraction(9, 4), mu)) for mu in ([0], (0,)))
    assert listed == tupled and hash(listed) == hash(tupled)


def test_float_eps_and_alpha_survive_a_json_round_trip():
    # the floats are stored as the Fractions they equal; they used to come
    # back from JSON as Fraction(1, 10), which is not the float 0.1
    base = BaseGraphSpec("patched_bipartite", eps=0.1)
    assert base.eps == Fraction(0.1)
    assert BaseGraphSpec.from_json_dict(json.loads(json.dumps(base.to_json_dict()))) == base
    cfg = small_config(n=16, base=base, p_grid=ExponentGrid(0.1, (0,)))
    assert cfg.p_grid.alpha == Fraction(0.1) and cfg.p_grid.mu_list == (Fraction(0),)
    assert ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict()))) == cfg


def test_config_warnings_point_at_the_caller():
    # stacklevel 2 pointed at the dataclass-generated __init__ ("<string>")
    for overrides, message in [(dict(n=30), "no search budget"), (dict(budget=50), "below n")]:
        with pytest.warns(UserWarning, match=message) as record:
            small_config(**overrides)
        assert [w.filename for w in record] == [__file__]


@st.composite
def configs(draw):
    """Arguments the ExperimentConfig constructor accepts, in every form it
    takes: numpy integers, Fraction or float probabilities, and Fraction,
    float or "p/q" eps and exponents."""
    def integer(lo, hi):
        k = draw(st.integers(lo, hi))
        return k if draw(st.booleans()) else np.int64(k)

    def rational(lo, hi):
        x = draw(st.fractions(lo, hi, max_denominator=1000))
        return draw(st.sampled_from([x, float(x), f"{x.numerator}/{x.denominator}"]))

    n = integer(3, 60)
    kind = draw(st.sampled_from(["complete", "empty", "patched_bipartite", "file"]))
    eps = rational(Fraction(1, 1000), Fraction(1, 4)) if kind == "patched_bipartite" else None
    base = BaseGraphSpec(kind, eps, draw(st.text(min_size=1)) if kind == "file" else None)
    if draw(st.booleans()):
        grid = ExponentGrid(rational(0, 3), [rational(0, 1) for _ in range(draw(st.integers(0, 4)))])
    else:
        grid = draw(st.lists(st.one_of(st.floats(0, 1), st.fractions(0, 1, max_denominator=1000)), max_size=6))
    return ExperimentConfig(n=n, m=integer(1, n - 2), base=base, p_grid=grid, trials=integer(1, 1000),
                            seed=draw(st.integers(-2**70, 2**70)) if draw(st.booleans()) else integer(0, 2**62),
                            budget=draw(st.none() | st.integers(1, 10**7)))


@pytest.mark.filterwarnings("ignore::UserWarning")  # the budget advice
@given(configs())
@settings(max_examples=200, deadline=None)
def test_every_accepted_config_survives_a_json_round_trip(cfg):
    assert ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict()))) == cfg


def test_sweep_csv_pinned():
    # computed when sweeps built each random part from an edge list; the
    # coupled rows must reproduce every verdict and clique mean
    cfg = ExperimentConfig(n=12, m=2, base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 8)),
                           p_grid=(0.0, 0.2, 0.35, 0.5, 0.75, 1.0), trials=8, seed=424242)
    assert result_to_csv(run_sweep(cfg, workers=1)) == (
        "p,found_frac,notfound_frac,unknown_frac,mean_kcliques\n"
        "0,0,1,0,0\n"
        "0.2,0.25,0.75,0,1.125\n"
        "0.35,0.625,0.375,0,8.875\n"
        "0.5,0.875,0.125,0,29.125\n"
        "0.75,1,0,0,84.375\n"
        "1,1,0,0,220\n"
    )


def test_exponent_grid():
    grid = ExponentGrid(Fraction(9, 4), (Fraction(0), Fraction(1, 10)))
    cfg = small_config(n=12, m=2, p_grid=grid)
    ps = cfg.probabilities()
    assert ps[0] == pytest.approx(12.0 ** (-9 / 4))
    assert ps[1] == pytest.approx(12.0 ** (-9 / 4 - 1 / 10))
    blob = json.dumps(cfg.to_json_dict())
    assert ExperimentConfig.from_json_dict(json.loads(blob)) == cfg


def test_sweep_complete_base_always_found():
    cfg = small_config(base=BaseGraphSpec("complete"), p_grid=(0.0, 0.5, 1.0), trials=4)
    res = run_sweep(cfg)
    for row in res.rows:
        assert row.found == 4 and row.not_found == 0 and row.unknown == 0


def test_sweep_empty_base_at_zero():
    cfg = small_config(p_grid=(0.0,), trials=5)
    res = run_sweep(cfg)
    assert res.rows[0].not_found == 5


def test_sweep_row_conservation_and_cliques():
    cfg = small_config(trials=6)
    res = run_sweep(cfg)
    for row in res.rows:
        assert row.found + row.not_found + row.unknown == 6
    assert res.rows[0].mean_cliques == 0.0  # p = 0: no random edges
    assert res.rows[-1].mean_cliques == math.comb(10, 3)  # p = 1: all triangles


def test_sweep_matches_direct_sampling():
    """The trial graphs are exactly base union sample_gnp(n, p, trial_seed),
    and each row's clique mean is the mean of their direct counts."""
    from hampower.graphs import count_cliques

    configs = [
        small_config(trials=3, p_grid=(0.4,)),
        # unsorted grids with a repeated p, 0 and 1: the counts are carried
        # up the grid in increasing p, so every step and a zero step occur
        small_config(m=2, n=11, trials=4, p_grid=(0.6, 0.0, 0.35, 1.0, 0.35, 0.15)),
        small_config(m=3, n=12, trials=3, seed=7, p_grid=(1.0, 0.5, 0.0, 0.8, 0.5, 0.65)),
        small_config(m=2, n=14, trials=3, seed=3,
                     p_grid=ExponentGrid(Fraction(1, 2), (Fraction(1, 4), Fraction(0), Fraction(1, 8)))),
    ]
    for cfg in configs:
        res = run_sweep(cfg)
        for row, p in zip(res.rows, cfg.probabilities(), strict=True):
            total = sum(count_cliques(sample_gnp(cfg.n, p, trial_seed(cfg.seed, t)), cfg.m + 1)
                        for t in range(cfg.trials))
            assert row.p == p and row.mean_cliques == total / cfg.trials, (cfg, p)


def test_per_trial_found_curves_monotone():
    cfg = small_config(
        base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 12)),
        n=12,
        p_grid=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        trials=6,
        seed=5,
    )
    res = run_sweep(cfg)
    assert len(res.verdicts) == cfg.trials
    for verdicts in res.verdicts:
        curve = [v == FOUND for v in verdicts]
        assert curve == sorted(curve)  # False before True, never back
        assert curve[-1]  # found at p = 1
        assert not curve[0]  # base alone lacks the structure
        assert UNKNOWN not in verdicts  # no budget
    # the rows are the verdicts counted per grid point
    for ip, row in enumerate(res.rows):
        column = [verdicts[ip] for verdicts in res.verdicts]
        assert (row.found, row.not_found) == (column.count(FOUND), column.count(NOT_FOUND))


def test_sweep_deterministic_across_worker_counts():
    cfg = small_config(trials=6)
    a = result_to_csv(run_sweep(cfg, workers=1))
    b = result_to_csv(run_sweep(cfg, workers=2))
    assert a == b


def test_csv_round_trip(tmp_path):
    cfg = small_config(trials=4)
    res = run_sweep(cfg)
    out = tmp_path / "rows.csv"
    emit_csv(res, out)
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 1 + len(res.rows)
    # a second run writes the same bytes
    assert result_to_csv(run_sweep(cfg)) == text


def test_pool_bounded_by_trial_count(monkeypatch):
    # a sweep never asks for more processes than it has trials
    seen = []

    class InProcessPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
    cfg = small_config(trials=3)
    res = run_sweep(cfg, workers=64)
    assert seen == [3]
    assert result_to_csv(res) == result_to_csv(run_sweep(cfg, workers=1))


def test_sweep_calls_the_module_globals(monkeypatch):
    # The benchmark times and traces a sweep by rebinding these module
    # globals, so each one must exist and be called through its name.  The
    # config is test_sweep_csv_pinned's: it has transferred Found cells.
    cfg = ExperimentConfig(n=12, m=2, base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 8)),
                           p_grid=(0.0, 0.2, 0.35, 0.5, 0.75, 1.0), trials=8, seed=424242)
    expected = result_to_csv(run_sweep(cfg))
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(montecarlo, "pair_uniforms"), (montecarlo, "contains_ham_power"),
                         (montecarlo, "union"), (montecarlo, "count_cliques"),
                         (hamsearch, "verify_witness")]:
        counting(module, name)
    assert result_to_csv(run_sweep(cfg, workers=1)) == expected
    # verify_witness counts the search's own witness checks too; union is
    # called once per cell, so 6 * 8 = 48 (42 while refuted cells were not built)
    assert calls == {"pair_uniforms": 8, "contains_ham_power": 24, "verify_witness": 30,
                     "count_cliques": 8, "union": 48}


def test_budgeted_sweep_pinned():
    # Unknown probes leave cells to be searched on their own; the grid is
    # unsorted and repeats 0.3.  Computed before the chain decider was split out.
    cfg = ExperimentConfig(n=16, m=2, base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 12)),
                           p_grid=(1.0, 0.1, 0.3, 0.0, 0.5, 0.2, 0.3), trials=4, seed=20260810, budget=400)
    result = run_sweep(cfg)
    assert result_to_csv(result) == (
        "p,found_frac,notfound_frac,unknown_frac,mean_kcliques\n"
        "1,1,0,0,560\n"
        "0.1,0,0,1,1\n"
        "0.3,1,0,0,12.75\n"
        "0,0,0,1,0\n"
        "0.5,1,0,0,88.25\n"
        "0.2,0.75,0,0.25,5.5\n"
        "0.3,1,0,0,12.75\n"
    )
    F, U = FOUND, UNKNOWN
    assert result.verdicts == ((F, U, F, U, F, U, F),) + ((F, U, F, U, F, F, F),) * 3


def spy_chain(monkeypatch, chain):
    """Record, as chain positions, the graphs that the decider searches and
    the graphs that any witness is verified on."""
    searched, verified = [], []
    search, verify = montecarlo.contains_ham_power, hamsearch.verify_witness

    def position(g):
        return next(i for i, h in enumerate(chain) if h is g)

    def searching(g, m, budget=None):
        searched.append(position(g))
        return search(g, m, budget)

    def verifying(g, m, order):
        verified.append(position(g))
        return verify(g, m, order)

    monkeypatch.setattr(montecarlo, "contains_ham_power", searching)
    monkeypatch.setattr(hamsearch, "verify_witness", verifying)
    return searched, verified


def test_chain_transfers_not_found_down(monkeypatch):
    chain = [Graph(8) for _ in range(3)]
    searched, _ = spy_chain(monkeypatch, chain)
    assert montecarlo._decide_chain(chain, 2, None) == [NOT_FOUND] * 3
    assert searched == [1, 2]  # chain[0] is a subgraph of the refuted chain[1]


def test_chain_reverifies_found_witness_up(monkeypatch):
    cycle = cycle_power(8, 2)
    chain = [Graph(8), path_power(8, 2), cycle, union(cycle, Graph(8, [(0, 4)])), complete_graph(8)]
    searched, verified = spy_chain(monkeypatch, chain)
    assert montecarlo._decide_chain(chain, 2, None) == [NOT_FOUND] * 2 + [FOUND] * 3
    assert searched == [2, 0, 1]
    assert [i for i in verified if i not in searched] == [3, 4]


def test_chain_searches_graphs_unknown_probes_leave_open(monkeypatch):
    # patched_bipartite(16, 1/12) is NotFound after 5139 nodes, Unknown at budget 400
    chain = [Graph(16) for _ in range(4)] + [patched_bipartite(16, Fraction(1, 12)) for _ in range(2)]
    chain.append(complete_graph(16))
    searched, _ = spy_chain(monkeypatch, chain)
    assert montecarlo._decide_chain(chain, 2, None) == [NOT_FOUND] * 6 + [FOUND]
    assert searched == [3, 5, 6]
    searched.clear()
    assert montecarlo._decide_chain(chain, 2, 400) == [NOT_FOUND] * 4 + [UNKNOWN] * 2 + [FOUND]
    assert searched == [3, 5, 6, 4]  # chain[4] lies between a NotFound and a Found probe


def test_chain_not_nested_fails_the_transferred_witness():
    # the witness of complete_graph(6) does not hold on the empty graph above it;
    # python -O is covered by test_unverified_witness_raises_under_optimize_flag
    with pytest.raises(AssertionError, match="the chain is not nested"):
        montecarlo._decide_chain([complete_graph(6), Graph(6)], 2, None)


def test_csv_header_only_for_empty_grid():
    cfg = small_config(p_grid=(), trials=2)
    assert result_to_csv(run_sweep(cfg)) == CSV_HEADER + "\n"


def test_clique_stats_endpoints():
    st = clique_stats(12, 0.0, 2, 5, 3)
    assert st.empirical_mean == 0.0 and st.first_moment == 0.0
    st = clique_stats(12, 1.0, 2, 3, 3)
    assert st.empirical_mean == math.comb(12, 3) == st.first_moment


def test_counts_below_one_are_rejected():
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(small_config(trials=2), workers=workers)
    with pytest.raises(ValueError, match="trials must be >= 1"):  # was a ZeroDivisionError
        clique_stats(12, 0.5, 2, 0, 3)


def test_clique_stats_near_threshold():
    # n = 60, m = 2, p = n^(-2 - 1/10): triangles are rare and the empirical
    # mean sits within five Poisson-scale sigmas of the first moment
    n, m, trials = 60, 2, 500
    p = float(n) ** -2.1
    st = clique_stats(n, p, m, trials, seed=2024)
    sigma_mean = math.sqrt(st.first_moment / trials)
    assert abs(st.empirical_mean - st.first_moment) <= 5 * sigma_mean
