"""Acceptance gate: every criterion at its stated tolerance and time limit.

Each test prints one PASS line (visible under `pytest -s`); a failure of any
assertion is a failure of the corresponding criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from hampower import verify
from hampower.braids import braid
from hampower.density import (
    braid_density,
    is_strictly_balanced,
    max_density_brute,
    max_density_opt,
    truncation_margin_low,
)
from hampower.graphs import cycle_power, path_power, sample_gnp
from hampower.hamsearch import FOUND, NOT_FOUND, brute_force_contains, contains_ham_power
from hampower.montecarlo import BaseGraphSpec, ExperimentConfig, result_to_csv, run_sweep
from hampower.partitioned_paths import (
    PartitionedPath,
    iter_valid_label_masks,
    mask_to_labels,
    normalize,
    normalized_edge_closed_form,
)
from hampower.thresholds import (
    braid_density_limit,
    braid_regime_report,
    build_tables,
    optimal_ell,
    threshold_exponent,
)


class Timer:
    def __init__(self, limit: float, label: str):
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            print(f"ACCEPTANCE {self.label} PASS ({self.elapsed:.2f}s, limit {self.limit:.0f}s)")
            assert self.elapsed < self.limit, f"{self.label} exceeded {self.limit}s"
        return False


BRAID_GRID = [
    (ell, r, t)
    for ell in range(2, 8)
    for r in range(1, ell + 1)
    for t in range(2, 5)
    if t * ell <= 20
]


@pytest.fixture(scope="module")
def braid_brute_reports():
    return {
        (ell, r, t): max_density_brute(braid(ell, r, t))
        for ell, r, t in BRAID_GRID
    }


def test_criterion_01_table_reproduction():
    with Timer(1.0, "1 table reproduction"):
        report = build_tables()
        assert report.ok
        alphas = {c.m: c for c in report.cells if c.table == "alpha"}
        expected = {2: 1, 3: 1, 4: Fraction(3, 2), 5: 2, 6: Fraction(9, 4),
                    7: Fraction(13, 5), 8: 3, 9: Fraction(7, 2)}
        for m, val in expected.items():
            assert alphas[m].computed == val and alphas[m].match
        for c in report.cells:
            if c.table == "optimal":
                assert c.m in {7, 10, 11, 12, 13, 14}
                assert c.match
        # the known inconsistency is flagged and the computed value wins
        assert len(report.discrepancies) == 2
        assert all("m=10" in d and "known inconsistent" in d for d in report.discrepancies)
        assert threshold_exponent(10).alpha == Fraction(27, 7)


def test_criterion_02_optimal_ell_convention():
    with Timer(1.0, "2 optimal-ell convention"):
        assert optimal_ell(20) == 14
        assert braid_density_limit(20, 14) == 8
        assert optimal_ell(5) == 4
        assert braid_density_limit(5, 4) == Fraction(7, 4)
        assert optimal_ell(13) == 10


def test_criterion_03_regime_inequality():
    with Timer(1.0, "3 regime inequality m<=200"):
        check = verify.regime(200)
        assert check.ok and check.checked == 199
        failing = [r.m for r in braid_regime_report(2, 200) if not r.holds]
        assert failing == [2, 3, 4, 5, 6, 8, 9]


def test_criterion_04_braid_densities(braid_brute_reports):
    with Timer(300.0, "4 braid densities"):
        assert len(BRAID_GRID) == 61
        for (ell, r, t), rep in braid_brute_reports.items():
            if ell < r * (r + 1):
                assert rep.value == braid_density(ell, r, t), (ell, r, t)
                balanced, witness = is_strictly_balanced(braid(ell, r, t))
                assert balanced, (ell, r, t, witness)
            else:
                assert rep.value == Fraction(ell, 2), (ell, r, t)


def test_criterion_05_oracle_equivalence(braid_brute_reports):
    with Timer(120.0, "5 oracle equivalence"):
        for seed in range(200):
            g = sample_gnp(12, 0.4, 52000 + seed)
            assert max_density_opt(g).value == max_density_brute(g).value, seed
        for (ell, r, t), rep in braid_brute_reports.items():
            assert max_density_opt(braid(ell, r, t)).value == rep.value, (ell, r, t)


def test_criterion_06_truncation_margins():
    with Timer(10.0, "6 truncation margins"):
        check = verify.tail_margins(12, 6)
        assert check.ok and check.checked == 185, check.counterexample
        for r in range(2, 4):
            ell = r * (r + 1)
            if ell <= 12:
                for t in range(2, 7):
                    assert truncation_margin_low(ell, r, t, 0) == 0


def test_criterion_07_edge_floor_exhaustive():
    with Timer(600.0, "7 edge floor exhaustive"):
        for m, lmax, labelings in ((2, 14, 3190), (3, 16, 46496), (4, 14, 23006)):
            check = verify.edge_floor(m, lmax)
            assert check.ok and check.checked == labelings, (m, check.counterexample)


def test_criterion_08_normalization_contract():
    with Timer(900.0, "8 normalization contract"):
        # full corpus at m <= 3, L <= 14
        for m in (2, 3):
            for L in range(1, 15):
                for mask in iter_valid_label_masks(L, m):
                    p = PartitionedPath(m, mask_to_labels(mask, L))
                    res = normalize(p)
                    assert res.steps <= 4 * L * L
                    assert res.segments.is_normalized(m)
                    assert normalized_edge_closed_form(res.segments, m) == res.normalized_edges
                    assert 2 * res.slack <= (m - 1) ** 2
        # 100k random valid labelings at m <= 9, L <= 200
        rng = random.Random(20260810)
        for _ in range(100_000):
            m = rng.randint(2, 9)
            L = rng.randint(1, 200)
            labs = []
            side = rng.choice("AB")
            while len(labs) < L:
                labs.extend(side * rng.randint(1, m))
                side = "A" if side == "B" else "B"
            p = PartitionedPath(m, "".join(labs[:L]))
            res = normalize(p)
            assert res.steps <= 4 * L * L
            assert res.segments.is_normalized(m)
            assert normalized_edge_closed_form(res.segments, m) == res.normalized_edges
            assert 2 * res.slack <= (m - 1) ** 2


def test_criterion_09_structure_suites():
    with Timer(1200.0, "9 structure suites m=6 and m=9"):
        # passing also shows far12 = 2L - 6 and far123 = 3L - 12: see verify.structure
        for m, lmax, labelings in ((6, 18, 24432), (9, 16, 45584)):
            check = verify.structure(m, lmax)
            assert check.ok and check.checked == labelings, (m, check.counterexample)


def test_criterion_10_search_correctness():
    with Timer(600.0, "10 search correctness"):
        rng = random.Random(1003)
        for i in range(500):
            m = rng.choice([1, 2, 3])
            n = rng.randint(m + 2, 10)
            p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
            g = sample_gnp(n, p, 91000 + i)
            out = contains_ham_power(g, m)
            assert out.verdict in (FOUND, NOT_FOUND)
            assert (out.verdict == FOUND) == brute_force_contains(g, m), (i, n, m)
        for m in (1, 2, 3, 4):
            for n in range(max(3, m + 2), 2 * m + 6):
                assert contains_ham_power(cycle_power(n, m), m).verdict == FOUND
        for m in (1, 2, 3, 4, 5):
            assert contains_ham_power(path_power(2 * m + 2, m), m).verdict == NOT_FOUND


def test_criterion_11_monte_carlo_sweep():
    with Timer(600.0, "11 coupled sweep determinism"):
        config = ExperimentConfig(
            n=16,
            m=2,
            base=BaseGraphSpec("patched_bipartite", eps=Fraction(1, 12)),
            p_grid=tuple(i / 10 for i in range(11)),
            trials=200,
            seed=20260810,
        )
        res1 = run_sweep(config, workers=1)
        fracs = [row.found / config.trials for row in res1.rows]
        assert all(a <= b for a, b in zip(fracs, fracs[1:])), fracs
        assert fracs[0] == 0.0
        assert fracs[-1] == 1.0
        assert all(row.unknown == 0 for row in res1.rows)
        res2 = run_sweep(config, workers=2)
        assert result_to_csv(res2) == result_to_csv(res1)


def test_criterion_12_braid_density_limit_gap():
    with Timer(1.0, "12 braid density limit"):
        for ell, r in ((4, 3), (5, 3)):
            limit = braid_density_limit(ell + r, ell)
            prev = braid_density(ell, r, 1)
            for t in range(2, 1001):
                cur = braid_density(ell, r, t)
                assert cur > prev
                prev = cur
            assert limit - prev < Fraction(1, 1000)
            assert prev < limit
