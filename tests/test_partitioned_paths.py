"""Partitioned paths: segments, edge counts, normalization, structure checks."""

import copy
import hashlib
import pickle
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hampower.partitioned_paths import (
    SIDE_A,
    SIDE_B,
    BudgetExceeded,
    EdgeFloorRow,
    M6Report,
    M9Report,
    PartitionedPath,
    SegmentList,
    check_edge_floor_exhaustive,
    clique_free,
    iter_valid_label_masks,
    m6_structure_check,
    m9_structure_check,
    mask_to_labels,
    normalize,
    normalized_edge_closed_form,
    same_side_edge_count,
    same_side_edge_floor,
    segments,
)
from hampower.thresholds import braid_density_limit, optimal_ell


def is_valid(path: PartitionedPath) -> bool:
    """No m+1 consecutive positions on the same side."""
    run = 0
    prev = None
    for c in path.labels:
        run = run + 1 if c == prev else 1
        prev = c
        if run > path.m:
            return False
    return True


def window_side_counts(path: PartitionedPath, width: int) -> list[tuple[int, int]]:
    """(count_A, count_B) for every window of `width` >= 1 consecutive positions."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    counts = []
    for i in range(path.L - width + 1):
        b = path.labels.count(SIDE_B, i, i + width)
        counts.append((width - b, b))
    return counts


def random_valid_path(rng: random.Random, m: int, L: int) -> PartitionedPath:
    """Uniform-ish valid labeling via run lengths in [1, m]."""
    labs = []
    side = rng.choice("AB")
    while len(labs) < L:
        labs.extend(side * rng.randint(1, m))
        side = "A" if side == "B" else "B"
    return PartitionedPath(m, "".join(labs[:L]))


def same_side_edges(path: PartitionedPath) -> tuple[int, list[tuple[int, int]]]:
    """Oracle for same_side_edge_count: the count with the explicit position pairs."""
    pairs = []
    L = path.L
    labels = path.labels
    for i in range(L):
        for j in range(i + 1, min(i + path.m, L - 1) + 1):
            if labels[i] == labels[j]:
                pairs.append((i, j))
    return len(pairs), pairs


def test_segments_examples():
    assert segments(PartitionedPath(3, "AABBB")) == SegmentList((2, 3), "A")
    assert segments(PartitionedPath(4, "AAAA")) == SegmentList((4,), "A")
    assert segments(PartitionedPath(2, "ABAB")) == SegmentList((1, 1, 1, 1), "A")


def test_segment_list_round_trip():
    seg = SegmentList((2, 3, 1), "B")
    assert seg.to_labels() == "BBAAAB"
    assert segments(PartitionedPath(3, seg.to_labels())) == seg


def test_segment_sizes_go_through_the_integer_rule():
    # (1, 2.5) used to build and fail later in to_labels, (1, True) built,
    # and a list was stored as given: unhashable and unequal to the tuple
    with pytest.raises(TypeError, match="^segment size must be an integer, got float 2.5$"):
        SegmentList((1, 2.5), "A")
    with pytest.raises(TypeError, match="^segment size must be an integer, got bool True$"):
        SegmentList((1, True), "A")
    seg = SegmentList([1, np.int64(2)], "A")
    assert seg == SegmentList((1, 2), "A") and hash(seg) == hash(SegmentList((1, 2), "A"))
    assert type(seg.sizes) is tuple and [type(x) for x in seg.sizes] == [int, int]
    assert seg.to_labels() == "ABB"
    with pytest.raises(ValueError, match="^segment size must be >= 1, got 0$"):
        SegmentList([2, 0], "A")


def test_path_field_types():
    for m in (2.5, 2.0, True, False, "3", None):
        with pytest.raises(TypeError, match="power m must be an integer"):
            PartitionedPath(m, "AB")
    for labels in (5, None, b"AB", ["A", "B"]):
        with pytest.raises(TypeError, match="labels must be a str"):
            PartitionedPath(2, labels)
    # integer types other than int are taken by value, as a plain int
    p = PartitionedPath(np.int64(3), "AAAB")
    assert p == PartitionedPath(3, "AAAB") and type(p.m) is int
    with pytest.raises(ValueError, match="^power m must be >= 1, got 0$"):
        PartitionedPath(np.int8(0), "AB")


def test_validity():
    with pytest.raises(ValueError, match=r"labels must be A/B strings, found \[' ', 'C', 'x'\]"):
        PartitionedPath(2, "ABxC A")
    assert is_valid(PartitionedPath(3, "AAABBB"))
    assert not is_valid(PartitionedPath(3, "AAAAB"))
    assert is_valid(PartitionedPath(2, ""))
    # the character loop agrees with the mask enumeration on every labeling
    for m in (1, 2, 3, 5):
        for L in range(11):
            valid = set(iter_valid_label_masks(L, m))
            for x in range(1 << L):
                assert is_valid(PartitionedPath(m, mask_to_labels(x, L))) == (x in valid), (m, L, x)


def test_same_side_edges_examples():
    m = 5
    count, pairs = same_side_edges(PartitionedPath(m, "A" * m))
    assert count == comb(m, 2)
    assert same_side_edge_count(PartitionedPath(2, "ABABAB")) == 4
    assert same_side_edge_count(PartitionedPath(2, "")) == 0
    count, pairs = same_side_edges(PartitionedPath(3, "AAABBB"))
    assert count == 6
    assert ((0, 1) in pairs) and ((3, 5) in pairs)


def test_same_side_edge_count_matches_pair_list():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(2, 7)
        p = random_valid_path(rng, m, rng.randint(1, 40))
        count, pairs = same_side_edges(p)
        assert count == same_side_edge_count(p) == len(pairs)


def test_edge_floor_values():
    assert same_side_edge_floor(2, 10) == Fraction(1, 2) * 10 - 8 == -3
    assert same_side_edge_floor(5, 100) == 125
    assert same_side_edge_floor(3, 40) == 22


def test_normalize_already_normal():
    res = normalize(PartitionedPath(4, "AABBAABB"))
    assert res.segments == SegmentList((2, 2, 2, 2), "A")
    assert res.transcript == []
    assert res.slack == 0


def test_normalize_oversized_first_run():
    # the initiation trims the oversized first run, then the oversize case
    # trims the enlarged second segment
    res = normalize(PartitionedPath(3, "AAAAABB"))
    assert res.segments == SegmentList((3, 3, 1), "A")
    assert [s.op for s in res.transcript] == ["init-split", "case1"]
    assert res.original_edges == 10 and res.normalized_edges == 6


def test_normalize_small_prefix_merge():
    res = normalize(PartitionedPath(3, "ABAAAA"))
    assert res.segments == SegmentList((2, 3, 1), "B")
    assert res.transcript[0].op == "init-merge"


def test_normalize_shift_and_final_merge():
    # (3,1,1,3) at m=4: two pull-across shifts repair the middle, the jointly
    # small final pair is merged outright
    res = normalize(PartitionedPath(4, "AAABABBB"))
    ops = [s.op for s in res.transcript]
    assert ops == ["case2-shift", "case2-shift", "case3"]
    assert res.segments == SegmentList((3, 3, 2), "A")


def test_normalize_emptying_shift_merges_neighbors():
    # (4,1,1,1,4) at m=4: the middle singleton empties and its neighbors fuse
    res = normalize(PartitionedPath(4, "AAAABABAAAA"))
    assert any(s.op == "case2-merge" for s in res.transcript)
    assert res.segments.is_normalized(4)


def test_normalize_single_segment_inputs():
    res = normalize(PartitionedPath(5, "AAA"))
    assert res.segments == SegmentList((3,), "A")
    assert res.transcript == []
    res = normalize(PartitionedPath(2, "A"))
    assert res.segments == SegmentList((1,), "A")


def test_normalize_total_below_m_merges_everything():
    res = normalize(PartitionedPath(9, "ABABA"))
    assert res.segments == SegmentList((5,), "A")
    assert 2 * res.slack <= 64


def test_normalize_budget():
    with pytest.raises(BudgetExceeded):
        normalize(PartitionedPath(4, "AAABAABBB"), budget=1)


def test_normalize_contract_exhaustive_small():
    for m in (2, 3, 4):
        for L in range(1, 13):
            for mask in iter_valid_label_masks(L, m):
                p = PartitionedPath(m, mask_to_labels(mask, L))
                res = normalize(p)
                assert res.segments.is_normalized(m)
                assert sum(res.segments.sizes) == L
                assert normalized_edge_closed_form(res.segments, m) == res.normalized_edges
                assert 2 * res.slack <= (m - 1) ** 2
                assert res.steps <= 4 * L * L


def test_normalize_contract_random():
    rng = random.Random(20260810)
    for _ in range(2000):
        m = rng.randint(2, 9)
        L = rng.randint(1, 200)
        p = random_valid_path(rng, m, L)
        res = normalize(p)
        assert res.segments.is_normalized(m)
        assert normalized_edge_closed_form(res.segments, m) == res.normalized_edges
        assert 2 * res.slack <= (m - 1) ** 2


# Golden normalization runs: every valid labeling with m in {2, 3} and
# L <= 12, then 2000 seeded random valid labelings with m in 2..9 and
# L <= 200 (drawn as in criterion 8), as the digest of each run's segments,
# transcript, edge counts and step count.
GOLDEN_NORMALIZE = (7276, "7b1a8e330a160a1d37208ed43b5901e576b444a484cc5024b8395401d3a4e5f7")


def golden_normalize_paths():
    for m in (2, 3):
        for L in range(1, 13):
            for mask in iter_valid_label_masks(L, m):
                yield PartitionedPath(m, mask_to_labels(mask, L))
    rng = random.Random(20261019)
    for _ in range(2000):
        m = rng.randint(2, 9)
        yield random_valid_path(rng, m, rng.randint(1, 200))


def normalize_record(res) -> tuple:
    return (res.segments.sizes, res.segments.first_side,
            [(s.op, s.index, s.before, s.after) for s in res.transcript],
            res.original_edges, res.normalized_edges, res.steps)


def test_golden_normalize_runs():
    h = hashlib.sha256()
    count = 0
    for p in golden_normalize_paths():
        h.update(f"{normalize_record(normalize(p))!r}\n".encode())
        count += 1
    assert (count, h.hexdigest()) == GOLDEN_NORMALIZE


def test_normalize_budget_is_exact():
    # a budget of exactly the steps taken passes; one step fewer raises
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(2, 9)
        p = random_valid_path(rng, m, rng.randint(1, 200))
        steps = normalize(p).steps
        assert normalize(p, budget=steps).steps == steps
        if steps:
            with pytest.raises(BudgetExceeded, match=f"exceeded {steps - 1} steps"):
                normalize(p, budget=steps - 1)


def test_value_objects_are_slotted_and_round_trip():
    p = PartitionedPath(6, "AAAABBB" * 2)
    res = normalize(PartitionedPath(4, "AAAABABAAAA"))
    objects = [
        p,
        segments(p),
        res.transcript[0],
        res,
        check_edge_floor_exhaustive(3, 6)[-1],
        m6_structure_check(p),
        m6_structure_check(PartitionedPath(6, "AAAAA")),
        m9_structure_check(PartitionedPath(9, ("AAAAA" + "BBBBB") * 2)),
    ]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert twin == obj and twin is not obj
            if type(obj).__hash__ is not None:  # the frozen classes
                assert hash(twin) == hash(obj)


def test_normalized_term_sum_dominates_floor():
    # sum x_i * f(x_i) >= f(ell_m) * L, the per-segment density bound
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(2, 9)
        p = random_valid_path(rng, m, rng.randint(1, 80))
        seg = normalize(p).segments
        total = sum(x * braid_density_limit(m, x) for x in seg.sizes)
        floor = braid_density_limit(m, optimal_ell(m)) * sum(seg.sizes)
        assert total >= floor


def test_closed_form_matches_direct_enumeration():
    rng = random.Random(77)
    for _ in range(300):
        m = rng.randint(2, 9)
        p = random_valid_path(rng, m, rng.randint(1, 60))
        seg = normalize(p).segments
        direct = same_side_edge_count(seg.to_path(m))
        assert normalized_edge_closed_form(seg, m) == direct


# Reference oracles: the per-mask loops that the numpy chunk scans replaced.


def reference_has_run(x: int, k: int) -> bool:
    r = x
    for _ in range(k - 1):
        r &= r >> 1
    return r != 0


def reference_valid_masks(L: int, m: int) -> list[int]:
    full = (1 << L) - 1
    return [x for x in range(1 << L)
            if not reference_has_run(x, m + 1) and not reference_has_run(~x & full, m + 1)]


def reference_mask_to_labels(x: int, L: int) -> str:
    return "".join("B" if (x >> i) & 1 else "A" for i in range(L))


def reference_mask_edge_count(x: int, L: int, m: int) -> int:
    total = 0
    for d in range(1, min(m, L - 1) + 1):
        agree = ~(x ^ (x >> d)) & ((1 << (L - d)) - 1)
        total += agree.bit_count()
    return total


def reference_edge_floor_rows(m: int, L_max: int) -> list:
    rows = []
    for L in range(1, L_max + 1):
        floor = same_side_edge_floor(m, L)
        best = best_mask = None
        count = 0
        for x in reference_valid_masks(L, m):
            count += 1
            e = reference_mask_edge_count(x, L, m)
            if best is None or e < best:
                best, best_mask = e, x
        rows.append(EdgeFloorRow(L, count, best, floor, best is None or best >= floor,
                                 None if best_mask is None else reference_mask_to_labels(best_mask, L)))
    return rows


def test_valid_label_masks_match_reference():
    for m in range(1, 8):
        for L in range(15):
            masks = list(iter_valid_label_masks(L, m))
            assert masks == reference_valid_masks(L, m), (m, L)
            assert all(type(x) is int for x in masks)


def test_edge_floor_rows_match_reference():
    for m in range(2, 7):
        assert check_edge_floor_exhaustive(m, 14) == reference_edge_floor_rows(m, 14), m


def test_label_mask_length_bounds():
    # rejected before any mask is built: 2^63 masks could not be enumerated
    for L in (-1, 63, 10**6):
        with pytest.raises(ValueError, match=f"got L={L}"):
            iter_valid_label_masks(L, 2)
        with pytest.raises(ValueError, match=f"got L={L}"):
            check_edge_floor_exhaustive(2, L)
    iter_valid_label_masks(62, 2)  # accepted; the scan is lazy
    assert check_edge_floor_exhaustive(2, 0) == []


def test_label_masks_reject_power_below_one():
    # raised when called, before any mask is built (it used to yield nothing)
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"^power m must be >= 1, got {m}$"):
            iter_valid_label_masks(3, m)
    with pytest.raises(ValueError, match="^power m must be >= 1, got -1$"):
        iter_valid_label_masks(63, -1)  # m is checked before L


def test_mask_to_labels_reads_the_low_bits_of_any_int():
    masks = list(range(-70, 300)) + [2**70 + 0b1011, -(2**70) + 5, 2**62 - 1]
    for L in range(12):
        for x in masks:
            assert mask_to_labels(x, L) == reference_mask_to_labels(x, L), (x, L)
    assert mask_to_labels(0b1101, 2) == "BA"
    assert mask_to_labels(-1, 3) == "BBB"
    assert mask_to_labels(-2, 3) == "ABB"
    assert mask_to_labels(5, 0) == ""


def test_window_side_counts_match_reference():
    rng = random.Random(15)
    for _ in range(300):
        L = rng.randint(0, 70)
        p = PartitionedPath(rng.randint(1, 9), "".join(rng.choice("AB") for _ in range(L)))
        for width in [w for w in (1, rng.randint(1, L + 2), L, L + 1) if w >= 1]:
            want = [(w.count("A"), w.count("B")) for w in
                    (p.labels[i : i + width] for i in range(L - width + 1))]
            assert window_side_counts(p, width) == want


def test_check_edge_floor_exhaustive_small():
    rows = check_edge_floor_exhaustive(2, 12)
    assert all(r.ok for r in rows)
    # vacuous at tiny L: bound is negative there
    assert rows[2].floor == Fraction(1, 2) * 3 - 8
    rows3 = check_edge_floor_exhaustive(3, 12)
    assert all(r.ok for r in rows3)
    assert all(r.minimizer is not None for r in rows3)


def test_far_counts():
    # a side of s vertices has s - t t-far pairs, all edges when L <= m + 1
    rep = m6_structure_check(PartitionedPath(6, "AAAA"))
    assert rep.far12_edges == rep.far12_expected == 3 + 2
    rep = m9_structure_check(PartitionedPath(9, "AAAAAA"))
    assert rep.far123_edges == rep.far123_expected == 5 + 4 + 3
    rep = m9_structure_check(PartitionedPath(9, "ABAB"))  # one 1-far pair per side
    assert rep.far123_edges == rep.far123_expected == 2


def test_spanning_power_check():
    rep = m6_structure_check(PartitionedPath(6, "AAAABBB" * 2))
    assert rep.spans_ok and rep.far12_edges == rep.far12_expected == 2 * 14 - 6
    assert m9_structure_check(PartitionedPath(9, "AAAAAA")).spans_ok
    assert m9_structure_check(PartitionedPath(9, "AAAAAABBBBBB")).spans_ok


def test_window_side_counts_and_clique_free():
    p = PartitionedPath(6, "AAAABBB")
    assert window_side_counts(p, 7) == [(4, 3)]
    assert clique_free(p, 5)
    assert not clique_free(PartitionedPath(6, "AABAABA" + "B" * 3), 5)
    # paths no longer than m+1 are a single window, narrower than m+1
    assert not clique_free(PartitionedPath(6, "AAAAA"), 5)
    assert not clique_free(PartitionedPath(9, "A" * 7), 7)
    assert clique_free(PartitionedPath(6, "AAAAB"), 5)
    assert clique_free(PartitionedPath(6, ""), 5)


def test_clique_free_matches_window_side_counts():
    # clique_free stops at the first window that holds a clique; it must agree
    # with the side counts of every window, on every labeling up to L = 9
    for m in (1, 2, 3, 6):
        for L in range(10):
            width = min(m + 1, L)
            for x in range(1 << L):
                p = PartitionedPath(m, mask_to_labels(x, L))
                counts = window_side_counts(p, width) if width else []
                for clique_size in range(1, m + 3):
                    want = all(a < clique_size and b < clique_size for a, b in counts)
                    assert clique_free(p, clique_size) == want, (p.labels, clique_size)


def test_window_and_clique_sizes_below_one_rejected():
    p = PartitionedPath(6, "AAAABBB")
    for width in (0, -2):
        with pytest.raises(ValueError, match="width must be >= 1"):
            window_side_counts(p, width)
    for clique_size in (0, -1):
        with pytest.raises(ValueError, match="clique_size must be >= 1"):
            clique_free(p, clique_size)
        with pytest.raises(ValueError, match="clique_size must be >= 1"):
            clique_free(PartitionedPath(6, ""), clique_size)


def test_m6_structure_blocks():
    p = PartitionedPath(6, ("AAAA" + "BBB") * 4)
    rep = m6_structure_check(p)
    assert rep.ok
    assert rep.precondition_ok
    assert rep.far12_edges == 2 * 28 - 6
    assert rep.identity_2l6
    assert 4 * rep.far3_edges >= 28 - 6


def test_m6_structure_precondition_violations():
    rep = m6_structure_check(PartitionedPath(6, "AABAA" + "B" * 6))  # 6-run of B
    assert not rep.precondition_ok and not rep.ok
    rep = m6_structure_check(PartitionedPath(6, "AABAABA" * 2))  # 5 As in 7-window
    assert not rep.precondition_ok
    with pytest.raises(ValueError):
        m6_structure_check(PartitionedPath(5, "AAB"))


def test_m9_structure_blocks():
    p = PartitionedPath(9, ("AAAAA" + "BBBBB") * 3)
    rep = m9_structure_check(p)
    assert rep.ok
    assert rep.far123_edges == 3 * 30 - 12
    assert rep.identity_3l12
    # no 5-far edges in the 5-block pattern, so the 4-far bound is saturated
    assert rep.z == 0
    assert rep.w == 30 - 8


def test_m9_structure_z_zero_forces_many_w():
    for reps in (2, 3):
        p = PartitionedPath(9, ("AAAAA" + "BBBBB") * reps)
        rep = m9_structure_check(p)
        if rep.z == 0:
            assert rep.w >= rep.L - 8


# Golden reports of the m=6 and m=9 checks: every valid labeling with
# L >= m + 1 up to the bound below (precondition failures included), as the
# digest of each report's repr and verdict.  Shorter labelings are left out:
# there clique_free looks at a window narrower than m + 1.
GOLDEN_STRUCTURE = {
    # m: (L_max, labelings, sha256)
    6: (14, 30594, "982bf7b18a1ed6d638bc00fc80044206374a5cd87582a1aacfc5cbca3af7c6c0"),
    9: (13, 15296, "890e3b6317f8d41594d8b4869f3ecb6bc6bb802623e9a02bcc6df6be74243aa0"),
}


def golden_structure_digest(m: int, L_max: int) -> tuple[int, str]:
    check = {6: m6_structure_check, 9: m9_structure_check}[m]
    h = hashlib.sha256()
    count = 0
    for L in range(m + 1, L_max + 1):
        for mask in iter_valid_label_masks(L, m):
            rep = check(PartitionedPath(m, mask_to_labels(mask, L)))
            h.update(f"{rep!r} {rep.ok}\n".encode())
            count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("m", sorted(GOLDEN_STRUCTURE))
def test_golden_structure_reports(m):
    L_max, count, digest = GOLDEN_STRUCTURE[m]
    assert golden_structure_digest(m, L_max) == (count, digest)


# Reference oracle: the structure checks on explicit side position lists,
# one walk per (side, t), which the table of same-side counts replaced.


def positions(path: PartitionedPath, side: str) -> list[int]:
    return [i for i, c in enumerate(path.labels) if c == side]


def reference_far_edge_count(pos: list[int], t: int, m: int) -> int:
    """t-far pairs among the sorted positions `pos` that lie within distance m."""
    return sum(1 for a, b in zip(pos, pos[t:]) if b - a <= m)


def reference_structure_core(path: PartitionedPath, m: int, clique_size: int, k: int,
                             names: tuple[str, str, str], label: str):
    windows = window_side_counts(path, min(m + 1, path.L)) if path.L else []
    if not (is_valid(path) and all(a < clique_size and b < clique_size for a, b in windows)):
        note = f"precondition violated: invalid labeling or same-side K_{clique_size} present"
        return None, windows, {"L": path.L, "precondition_ok": False, "notes": [note]}
    pos = (positions(path, SIDE_A), positions(path, SIDE_B))
    far = sum(reference_far_edge_count(p, t, m) for p in pos for t in range(1, k + 1))
    expected = sum(max(0, len(p) - t) for p in pos for t in range(1, k + 1))
    exact = far == k * path.L - k * (k + 1)
    identity_ok = far == expected
    notes = []
    if min(map(len, pos)) >= k and not exact:
        identity_ok = False
        notes.append(f"{label} total differs from {k}L-{k * (k + 1)} despite nondegenerate sides")
    return pos, windows, {
        "L": path.L, "precondition_ok": True, "a_count": len(pos[0]), "b_count": len(pos[1]),
        names[0]: far, names[1]: expected, names[2]: exact, "spans_ok": far == expected,
        "identity_ok": identity_ok, "notes": notes,
    }


def reference_m6_structure_check(path: PartitionedPath) -> M6Report:
    pos, windows, fields = reference_structure_core(
        path, 6, 5, 2, ("far12_edges", "far12_expected", "identity_2l6"), "1-,2-far")
    if pos is None:
        return M6Report(**fields)
    far3 = sum(reference_far_edge_count(p, 3, 6) for p in pos)
    return M6Report(
        **fields, far3_edges=far3, far3_bound_ok=4 * far3 >= path.L - 6,
        windows_ok=path.L < 7 or all(sorted(ab) == [3, 4] for ab in windows),
    )


def reference_m9_structure_check(path: PartitionedPath) -> M9Report:
    pos, _, fields = reference_structure_core(
        path, 9, 7, 3, ("far123_edges", "far123_expected", "identity_3l12"), "t<=3-far")
    if pos is None:
        return M9Report(**fields)
    (w_a, w_b), (z_a, z_b) = ([reference_far_edge_count(p, t, 9) for p in pos] for t in (4, 5))
    w, z, L = w_a + w_b, z_a + z_b, path.L
    return M9Report(
        **fields, w_a=w_a, w_b=w_b, z_a=z_a, z_b=z_b,
        w_bound_ok=3 * w >= L - 9,
        wz_relation_ok=L - 8 - w <= 4 * z,
        wz_total_ok=2 * (w + z) >= L - 10,
    )


STRUCTURE_CHECKS = {
    # m: (check, reference, clique size, L_max of the exhaustive test)
    6: (m6_structure_check, reference_m6_structure_check, 5, 15),
    9: (m9_structure_check, reference_m9_structure_check, 7, 13),
}


def random_clique_free_labels(rng: random.Random, m: int, clique_size: int, L: int) -> str:
    """Up to L labels, each drawn at random unless it would complete a
    same-side K_clique_size within its last m + 1 positions; stops early when
    neither side fits."""
    labels = ""
    while len(labels) < L:
        first = rng.choice("AB")
        for c in (first, "B" if first == "A" else "A"):
            if (labels[-m:] + c).count(c) < clique_size:
                labels += c
                break
        else:
            break
    return labels


@pytest.mark.parametrize("m", sorted(STRUCTURE_CHECKS))
def test_structure_reports_match_reference_exhaustive(m):
    # every valid labeling up to the certify benchmark's lengths, L = 0 included
    check, reference, _, L_max = STRUCTURE_CHECKS[m]
    for L in range(L_max + 1):
        for mask in iter_valid_label_masks(L, m):
            p = PartitionedPath(m, mask_to_labels(mask, L))
            assert check(p) == reference(p), p.labels


@pytest.mark.parametrize("m", sorted(STRUCTURE_CHECKS))
def test_structure_reports_match_reference_random(m):
    # 3000 random labelings up to L = 30: arbitrary strings and valid ones,
    # most of them holding a same-side clique, and clique-free ones
    check, reference, clique_size, _ = STRUCTURE_CHECKS[m]
    rng = random.Random(1800 + m)
    for i in range(3000):
        L = rng.randint(0, 30)
        if i % 3 == 0:
            p = PartitionedPath(m, "".join(rng.choice("AB") for _ in range(L)))
        elif i % 3 == 1:
            p = random_valid_path(rng, m, L)
        else:
            p = PartitionedPath(m, random_clique_free_labels(rng, m, clique_size, L))
        assert check(p) == reference(p), p.labels
