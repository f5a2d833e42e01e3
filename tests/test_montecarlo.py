"""Sweeps: config round-trips, coupling, determinism, CSV, clique stats."""

import json
import math
from fractions import Fraction

import pytest

from hampower.graphs import sample_gnp
from hampower.montecarlo import (
    BaseGraphSpec,
    CSV_HEADER,
    ExperimentConfig,
    ExponentGrid,
    clique_stats,
    emit_csv,
    parse_csv,
    per_trial_found_curves,
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
    """The trial graphs are exactly base union sample_gnp(n, p, trial_seed)."""
    cfg = small_config(trials=3, p_grid=(0.4,))
    res = run_sweep(cfg)
    from hampower.graphs import count_cliques

    total = 0
    for t in range(cfg.trials):
        g = sample_gnp(cfg.n, 0.4, trial_seed(cfg.seed, t))
        total += count_cliques(g, cfg.m + 1)
    assert res.rows[0].mean_cliques == total / cfg.trials


def test_per_trial_found_curves_monotone():
    cfg = small_config(
        base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 12)),
        n=12,
        p_grid=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        trials=6,
        seed=5,
    )
    for curve in per_trial_found_curves(cfg):
        assert curve == sorted(curve)  # False before True, never back
        assert curve[-1]  # found at p = 1
        assert not curve[0]  # base alone lacks the structure


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
    rows = parse_csv(text)
    assert len(rows) == len(res.rows)
    for parsed, row in zip(rows, res.rows):
        assert parsed["p"] == pytest.approx(row.p)
        assert parsed["found_frac"] == pytest.approx(row.found / cfg.trials)
    # emitting the parsed numbers again is byte-stable
    assert result_to_csv(run_sweep(cfg)) == text


def test_csv_header_only_for_empty_grid():
    cfg = small_config(p_grid=(), trials=2)
    assert result_to_csv(run_sweep(cfg)) == CSV_HEADER + "\n"


def test_clique_stats_endpoints():
    st = clique_stats(12, 0.0, 2, 5, 3)
    assert st.empirical_mean == 0.0 and st.first_moment == 0.0
    st = clique_stats(12, 1.0, 2, 3, 3)
    assert st.empirical_mean == math.comb(12, 3) == st.first_moment


def test_clique_stats_near_threshold():
    # n = 60, m = 2, p = n^(-2 - 1/10): triangles are rare and the empirical
    # mean sits within five Poisson-scale sigmas of the first moment
    n, m, trials = 60, 2, 500
    p = float(n) ** -2.1
    st = clique_stats(n, p, m, trials, seed=2024)
    sigma_mean = math.sqrt(st.first_moment / trials)
    assert abs(st.empirical_mean - st.first_moment) <= 5 * sigma_mean
