"""The finite verification core, one function per `hampower verify` target,
called by both the CLI and the tests.  Each takes plain bounds and returns a
Check: the verdict, the items examined, detail lines and the first
counterexample.  Bounds that cover nothing raise ValueError naming the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import braids, density, thresholds
from . import partitioned_paths as pp
from .graphs import _integer

# power m -> structure check; the clique size it forbids is pp.FORBIDDEN_CLIQUE_SIZE[m]
STRUCTURE_CHECKS = {6: pp.m6_structure_check, 9: pp.m9_structure_check}


@dataclass(frozen=True)
class Check:
    ok: bool
    checked: int
    lines: list[str]
    counterexample: str | None


def _check(target: str, ok: bool, checked: int, lines: list[str], cex: str | None) -> Check:
    if checked == 0:
        raise ValueError(f"verify {target}: the bounds leave nothing to check")
    return Check(ok, checked, lines, cex)


def tables() -> Check:
    """The reference tables (checked: cells); only the known inconsistent
    summary cells may mismatch."""
    report = thresholds.build_tables()
    discrepancies = report.discrepancies
    lines = [f"table cells checked; discrepancies: {len(discrepancies)}"]
    lines += [f"  {d}" for d in discrepancies]
    # report.ok makes every mismatch a flagged cell, so this counts them all
    ok = report.ok and len(discrepancies) == len(thresholds.KNOWN_INCONSISTENT_SUMMARY_CELLS)
    return _check("tables", ok, len(report.cells), lines, None if ok else "unexpected table mismatch")


def regime(m_max: int) -> Check:
    """ell < r(r+1) for m = 2..m_max (checked: values of m); it may fail
    only below m = 10, and not at m = 7."""
    rows = thresholds.braid_regime_report(2, _integer("m_max", m_max))
    failing = [r.m for r in rows if not r.holds]
    ok = all(r.holds for r in rows if r.m == 7 or r.m >= 10) and all(m < 10 for m in failing)
    lines = [f"m={r.m}: ell={r.ell}, r={r.r}, r(r+1)={r.r_capacity}, {'holds' if r.holds else 'fails'}"
             for r in rows if r.m <= 14 or not r.holds] + [f"failing m: {failing}"]
    cex = None if ok else f"regime inequality failed at m in {failing}"
    return _check("regime", ok, len(rows), lines, cex)


def edge_floor(m: int, lmax: int) -> Check:
    """The edge floor d*L - 2m^2 for L <= lmax (checked: valid labelings)."""
    rows = pp.check_edge_floor_exhaustive(m, lmax)
    bad = [r for r in rows if not r.ok]
    lines = [f"L={r.L}: valid={r.num_valid}, min_edges={r.min_edges}, floor={r.floor}, "
             f"{'ok' if r.ok else 'VIOLATED'} (minimizer {r.minimizer})" for r in rows]
    cex = None if not bad else f"floor violated at L={bad[0].L} by {bad[0].minimizer}"
    return _check("edge-floor", not bad, sum(r.num_valid for r in rows), lines, cex)


def structure(m: int, lmax: int) -> Check:
    """The m = 6 or m = 9 structure check for 2 <= L <= lmax (checked: valid
    labelings without a same-side clique of the forbidden size), up to the
    first failure.

    Passing also shows far12 = 2L - 6 (m = 6, L >= 7) and far123 = 3L - 12
    (m = 9, L >= 10): such an L has a full (m+1)-window, which, clique-free,
    leaves each side at least m + 2 - clique_size >= k vertices (3 >= 2 at
    m = 6, 4 >= 3 at m = 9), and then `identity_ok` requires kL - k(k+1).
    """
    m, lmax = _integer("power m", m), _integer("lmax", lmax)
    if m not in STRUCTURE_CHECKS:
        raise ValueError(f"structure checks exist for m in {sorted(STRUCTURE_CHECKS)}, got {m}")
    pp._check_mask_length(lmax)  # before enumerating the shorter lengths
    check, clique_size = STRUCTURE_CHECKS[m], pp.FORBIDDEN_CLIQUE_SIZE[m]
    labelings = (
        pp.PartitionedPath(m, pp.mask_to_labels(mask, L))
        for L in range(2, lmax + 1)
        for mask in pp.iter_valid_label_masks(L, m)
        if pp._mask_clique_free(mask, L, m, clique_size)
    )
    checked, bad = 0, None
    for p in labelings:
        checked += 1
        if not check(p).ok:
            bad = p.labels
            break
    lines = [f"checked {checked} clique-free valid labelings up to L={lmax}"]
    cex = None if bad is None else f"structure check failed on {bad}"
    return _check(f"m{m}", bad is None, checked, lines, cex)


def tail_margins(ell_max: int, t_max: int) -> Check:
    """Positive truncation margins for r + 2 <= ell <= min(ell_max,
    r(r+1) - 1) and 2 <= t <= t_max (checked: (ell, r, t) triples)."""
    ell_max, t_max = _integer("ell_max", ell_max), _integer("t_max", t_max)
    count, bad = 0, None
    for r in range(1, ell_max):
        for ell in range(r + 2, min(ell_max, r * (r + 1) - 1) + 1):
            for t in range(2, t_max + 1):
                count += 1
                if not density.verify_truncation_margins(ell, r, t) and bad is None:
                    bad = f"(ell={ell}, r={r}, t={t})"
    lines = [f"checked {count} parameter triples" + (", all margins positive" if bad is None else "")]
    return _check("tail-margins", bad is None, count, lines,
                  None if bad is None else f"non-positive margin at {bad}")


def balanced(ell_max: int, t_max: int) -> Check:
    """Brute-force densities of braid(ell, r, t) for ell <= ell_max, t <= t_max
    and t * ell <= density.BRUTE_CAP (checked: braids, one detail line each):
    strictly balanced at the closed form when ell < r(r+1), maximum ell/2 (a
    clique) otherwise."""
    ell_max, t_max = _integer("ell_max", ell_max), _integer("t_max", t_max)
    lines, bad = [], None
    for ell in range(2, min(ell_max, density.BRUTE_CAP // 2) + 1):
        for r in range(1, ell + 1):
            for t in range(2, min(t_max, density.BRUTE_CAP // ell) + 1):
                g = braids.braid(ell, r, t)
                rep = density.max_density_brute(g)
                braid_regime = ell < r * (r + 1)
                if braid_regime:
                    # strictly balanced iff the brute witness is the whole vertex set
                    ok = rep.value == density.braid_density(ell, r, t) and len(rep.witness) == g.n
                else:
                    ok = rep.value == Fraction(ell, 2)
                if not ok and bad is None:
                    bad = f"(ell={ell}, r={r}, t={t}): max density {rep.value}"
                lines.append(f"ell={ell} r={r} t={t}: max={rep.value} "
                             f"{'braid' if braid_regime else 'clique'} regime")
    return _check("balanced", bad is None, len(lines), lines, bad)
