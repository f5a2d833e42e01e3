"""Threshold calculus: limiting braid densities, optimal ell, tables."""

import hashlib
from fractions import Fraction

import pytest

from hampower.thresholds import (
    REGIME_CLASSIC,
    REGIME_OVER,
    braid_density_limit,
    braid_regime_report,
    build_tables,
    optimal_ell,
    optimal_ell_floor_ceil,
    optimal_ell_sq,
    summary_ell,
    threshold_exponent,
    threshold_exponent_of_n,
)


def braid_density_limit_alt(m: int, ell: int) -> Fraction:
    """Second closed form of braid_density_limit: ell + (m^2 + m)/(2*ell) - m - 1."""
    if not 1 <= ell <= m:
        raise ValueError(f"ell must lie in [1, m], got ell={ell}, m={m}")
    return ell + Fraction(m * m + m, 2 * ell) - m - 1


def admissible_ells(m: int) -> list[tuple[int, Fraction]]:
    """All ell with m/2 <= ell <= m-1 and ell < (m-ell)*(m-ell+1), with densities.

    These are exactly the clique sizes for which the upper-bound machinery
    applies; the list can be empty (it is for m = 2).
    """
    if m < 2:
        raise ValueError(f"power must be >= 2, got m={m}")
    out = []
    for ell in range(1, m):
        r = m - ell
        if 2 * ell >= m and ell < r * (r + 1):
            out.append((ell, braid_density_limit(m, ell)))
    return out


def test_density_limit_fixed_values():
    assert braid_density_limit(7, 5) == Fraction(13, 5)
    assert braid_density_limit(2, 2) == Fraction(1, 2)
    assert braid_density_limit(20, 14) == 8 == braid_density_limit(20, 15)
    assert braid_density_limit(6, 4) == Fraction(9, 4)
    assert braid_density_limit(9, 6) == Fraction(7, 2)


def test_density_limit_closed_forms_agree():
    for m in range(2, 61):
        for ell in range(1, m + 1):
            assert braid_density_limit(m, ell) == braid_density_limit_alt(m, ell)


def test_density_limit_domain():
    with pytest.raises(ValueError):
        braid_density_limit(5, 0)
    with pytest.raises(ValueError):
        braid_density_limit(5, 6)


def test_density_limit_completed_square_bound():
    # f >= sqrt(2m^2+2m) - m - 1, checked as (f + m + 1)^2 >= 2m^2 + 2m
    for m in range(2, 41):
        for ell in range(1, m + 1):
            f = braid_density_limit(m, ell)
            assert (f + m + 1) ** 2 >= 2 * m * m + 2 * m


def test_optimal_ell_fixed_values():
    assert optimal_ell(20) == 14  # tie f(14)=f(15)=8 resolved to the floor
    assert optimal_ell(13) == 10
    assert optimal_ell(5) == 4
    assert optimal_ell(8) == 6  # lambda_8 = 6 exactly
    assert optimal_ell_sq(8) == 36


def test_optimal_ell_matches_direct_argmin():
    for m in range(2, 201):
        fl, ce = optimal_ell_floor_ceil(m)
        assert fl * fl <= m * (m + 1) // 2 < (fl + 1) ** 2
        best = min(range(1, m + 1), key=lambda e: (braid_density_limit(m, e), e))
        assert optimal_ell(m) == best


def test_optimal_ell_bounds():
    for m in range(4, 201):
        assert 2 * optimal_ell(m) >= m
    for m in range(2, 201):
        assert braid_density_limit(m, optimal_ell(m)) <= Fraction(m, 2)


def test_threshold_exponents_table():
    expected = {
        2: (1, REGIME_CLASSIC),
        3: (1, REGIME_CLASSIC),
        4: (Fraction(3, 2), REGIME_CLASSIC),
        5: (2, REGIME_OVER),
        6: (Fraction(9, 4), REGIME_OVER),
        7: (Fraction(13, 5), REGIME_OVER),
        8: (3, REGIME_CLASSIC),
        9: (Fraction(7, 2), REGIME_OVER),
    }
    for m, (alpha, regime) in expected.items():
        rec = threshold_exponent(m)
        assert rec.alpha == alpha
        assert rec.regime == regime
    assert threshold_exponent(10).alpha == Fraction(27, 7)
    assert threshold_exponent(11).alpha == Fraction(17, 4)
    assert threshold_exponent(9).density_at_ell == Fraction(24, 7)  # not the exponent


def test_regime_report():
    rows = {r.m: r for r in braid_regime_report(2, 20)}
    assert rows[7].ell == 5 and rows[7].r_capacity == 6 and rows[7].holds
    assert rows[14].ell == 10 and rows[14].r_capacity == 20 and rows[14].holds
    assert rows[6].ell == 5 and rows[6].r == 1 and not rows[6].holds
    failing = [m for m, r in rows.items() if not r.holds]
    assert failing == [2, 3, 4, 5, 6, 8, 9]


def test_regime_holds_through_200():
    for row in braid_regime_report(10, 200):
        assert row.holds


def test_admissible_ells():
    m6 = dict(admissible_ells(6))
    assert m6[4] == Fraction(9, 4)
    m9 = dict(admissible_ells(9))
    assert m9[6] == Fraction(7, 2)
    m4 = admissible_ells(4)
    assert m4 == [(2, braid_density_limit(4, 2))]
    assert optimal_ell(4) == 3 and 3 not in dict(m4)


def test_summary_ell():
    # smallest clique size at which a single clique is the densest braid piece
    assert [summary_ell(m) for m in range(2, 11)] == [2, 2, 3, 4, 5, 6, 6, 7, 8]


def test_exponent_of_n():
    assert threshold_exponent_of_n(7) == Fraction(-5, 13)
    assert threshold_exponent_of_n(10) == Fraction(-7, 27)
    assert threshold_exponent_of_n(2) == -1


def test_build_tables_matches_pinned_values():
    report = build_tables()
    assert report.ok
    assert all(c.match for c in report.cells if c.table == "alpha")
    assert all(c.match for c in report.cells if c.table == "optimal")
    # the one pinned inconsistency: summary m=10 density-at-ell-1 and exponent
    summary = [c for c in report.cells if c.table == "summary"]
    mismatched = [c for c in summary if not c.match]
    assert sorted(c.name for c in mismatched) == [
        "summary[10].density_at_ell_minus_1",
        "summary[10].exponent",
    ]
    assert all(c.known_inconsistent for c in mismatched)
    assert len(report.discrepancies) == 2
    by_name = {c.name: c for c in summary}
    assert by_name["summary[10].density_at_ell_minus_1"].computed == Fraction(27, 7)
    assert by_name["summary[10].density_at_ell_minus_1"].expected == Fraction(27, 4)
    assert by_name["summary[10].exponent"].computed == Fraction(-7, 27)


def test_build_tables_optimal_row_m11():
    report = build_tables()
    row = {c.column: c for c in report.cells if (c.table, c.m) == ("optimal", 11)}
    assert row["floor"].computed == 8
    assert row["ceil"].computed == 9
    assert row["density_at_floor"].computed == Fraction(17, 4)
    assert row["density_at_ceil"].computed == Fraction(13, 3)
    assert row["ell"].computed == 8


def test_build_tables_summary_row_m7():
    report = build_tables()
    row = {c.column: c for c in report.cells if (c.table, c.m) == ("summary", 7)}
    assert row["density_at_ell_minus_1"].computed == Fraction(13, 5)
    assert row["circled"].computed == "at_ell_minus_1"
    assert row["exponent"].computed == Fraction(-5, 13)


# The ordered cell names of build_tables(), as their count and the sha256 of
# the names joined by newlines, and its two discrepancy lines.
GOLDEN_CELL_NAMES = (119, "56023f57708d75c475df5c930b01e02061b4d63e39d9546437f9fb0f2cb29061")
GOLDEN_DISCREPANCIES = [
    "summary table, m=10, density_at_ell_minus_1: computed 27/7 != pinned 27/4 "
    "(known inconsistent; computed value wins)",
    "summary table, m=10, exponent: computed -7/27 != pinned -4/27 "
    "(known inconsistent; computed value wins)",
]


def test_table_cell_fields():
    report = build_tables()
    names = [c.name for c in report.cells]
    assert (len(names), hashlib.sha256("\n".join(names).encode()).hexdigest()) == GOLDEN_CELL_NAMES
    for c in report.cells:
        column = "" if c.column is None else f".{c.column}"
        assert c.name == f"{c.table}[{c.m}]{column}"
        assert (c.column is None) == (c.table == "alpha")
    assert [c.table for c in report.cells] == sorted(
        (c.table for c in report.cells), key=["alpha", "optimal", "summary"].index)
    assert report.discrepancies == GOLDEN_DISCREPANCIES


def test_build_tables_m_max_below_two_rejected():
    for m_max in (1, 0, -5):
        with pytest.raises(ValueError, match=f"^m_max must be >= 2, got {m_max}$"):
            build_tables(m_max)
    assert [c.m for c in build_tables(2).cells if c.table == "summary"] == [2] * 7
