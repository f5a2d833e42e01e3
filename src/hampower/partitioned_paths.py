"""Partitioned m-paths: segments, same-side edge counts, and normalization.

A partitioned path is the m-th power of a path whose vertices carry an A/B
side label; it is valid when no m+1 consecutive vertices share a side.  The
object of interest is the number of same-side edges (pairs at path distance
at most m with equal labels).

normalize() runs the iterative rewriting procedure that turns any valid
labeling into one whose maximal runs x_1..x_q satisfy

    (a) x_i <= m for all i, and
    (b) x_i + x_{i+1} >= m for consecutive i,

while increasing the same-side edge count by at most (m-1)^2/2 in total.  In
that normal form the same-side edge count has the closed form

    sum_i C(x_i, 2)  +  sum_{interior i} (m - x_i)(m - x_i + 1)/2,

which is bounded below by same_side_edge_floor(m, L) = d*L - 2m^2 where d is
the optimal limiting braid density for power m.  The exhaustive checker
verifies that floor directly against every valid labeling at small lengths.
It works on int64 numpy tables of label masks (bit i set iff position i is
B), a chunk of 2^12 consecutive masks at a time: the run test filters a
chunk to its valid masks, and each mask's same-side edges are popcounts of
the same shifted-XOR agreement terms that same_side_edge_count applies to
one mask.  Masks hold at most 62 labels, far beyond what enumeration reaches.

Also here: the structural checks used for the powers m = 6 (clique-number
4 labelings) and m = 9 (clique-number 6).  Both run one core (precondition,
spanning k-th powers, the t <= k far-edge identity) and add only their own
facts.  The core reads every t-far edge count off one table: for each
position i, c_i is the number of positions among i+1..i+m on i's side (one
popcount of that side's mask), and the t-far edges of a side are the
positions i on it with c_i >= t.  The m = 6 window fact needs no scan of its
own: a labeling that passes the precondition has no same-side K_5, so each
7-window (seven positions pairwise within distance 6) holds at most 4 labels
of each side, and since 4 + 3 = 7 it splits 4/3.

clique_free() decides the same precondition as that table, but stays a
separate scan because it stops at the first window holding a clique, where
about 95% of the valid labelings the verifiers enumerate stop; building the
table for each of them first was about 3x slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .graphs import _integer
from .thresholds import braid_density_limit, optimal_ell

SIDE_A = "A"
SIDE_B = "B"
_OTHER = {SIDE_A: SIDE_B, SIDE_B: SIDE_A}
_LABEL_BITS = str.maketrans(SIDE_A + SIDE_B, "01")  # bit i of a label mask: position i is B
_BIT_LABELS = str.maketrans("01", SIDE_A + SIDE_B)
_NOT_A_SIDE = str.maketrans("", "", SIDE_A + SIDE_B)  # deletes both sides, keeps strays


class BudgetExceeded(RuntimeError):
    """The normalization step budget (4*L^2) was exhausted."""


@dataclass(frozen=True)
class PartitionedPath:
    """An m-path with an A/B labeling of its positions."""

    m: int
    labels: str

    def __post_init__(self):
        m = self.m
        if type(m) is not int:  # the common case skips the call
            m = _integer("power m", m)
            object.__setattr__(self, "m", m)
        if m < 1:
            raise ValueError(f"power must be >= 1, got {m}")
        if not isinstance(self.labels, str):
            raise TypeError(f"labels must be a str, got {type(self.labels).__name__}")
        stray = self.labels.translate(_NOT_A_SIDE)
        if stray:
            raise ValueError(f"labels must be A/B strings, found {sorted(set(stray))}")

    @property
    def L(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SegmentList:
    """Maximal same-side runs of a partitioned path, alternating sides."""

    sizes: tuple[int, ...]
    first_side: str

    def __post_init__(self):
        if any(x < 1 for x in self.sizes):
            raise ValueError("segment sizes must be positive")
        if self.first_side not in (SIDE_A, SIDE_B):
            raise ValueError("first_side must be A or B")

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def side(self, i: int) -> str:
        return self.first_side if i % 2 == 0 else _OTHER[self.first_side]

    def to_labels(self) -> str:
        return "".join(self.side(i) * x for i, x in enumerate(self.sizes))

    def to_path(self, m: int) -> PartitionedPath:
        return PartitionedPath(m, self.to_labels())

    def is_normalized(self, m: int) -> bool:
        if any(x > m for x in self.sizes):
            return False
        return all(
            self.sizes[i] + self.sizes[i + 1] >= m for i in range(len(self.sizes) - 1)
        )


def segments(path: PartitionedPath) -> SegmentList:
    """Run-length decomposition into maximal same-side segments."""
    if not path.labels:
        raise ValueError("cannot decompose an empty labeling")
    sizes = []
    run = 1
    for prev, cur in zip(path.labels, path.labels[1:]):
        if cur == prev:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return SegmentList(tuple(sizes), path.labels[0])


# ---------------------------------------------------------------------------
# Same-side edge counting


def _label_mask(labels: str) -> int:
    """The label mask of a labeling: bit i is set iff position i is B."""
    return int("0" + labels[::-1].translate(_LABEL_BITS), 2)  # "0": labels may be empty


def same_side_edge_count(path: PartitionedPath) -> int:
    """Number of pairs at path distance <= m with equal labels (fast bit count)."""
    return sum(a.bit_count() for a in _agreements(_label_mask(path.labels), path.L, path.m))


def normalized_edge_closed_form(seg: SegmentList, m: int) -> int:
    """Same-side edges of a normalized segment list, in closed form.

    Within-segment: C(x_i, 2) each (complete, since x_i <= m).  Across: all
    cross edges join segments two apart, and the count between S_{i-1} and
    S_{i+1} depends only on the middle size: (m - x_i)(m - x_i + 1)/2.
    Requires the list to satisfy (a) and (b).
    """
    if not seg.is_normalized(m):
        raise ValueError("closed form only applies to normalized segment lists")
    sizes = seg.sizes
    total = sum(comb(x, 2) for x in sizes)
    for i in range(1, len(sizes) - 1):
        gap = m - sizes[i]
        total += gap * (gap + 1) // 2
    return total


def same_side_edge_floor(m: int, L: int) -> Fraction:
    """The guaranteed same-side edge count d*L - 2m^2 for valid labelings,
    where d is the optimal limiting braid density for power m."""
    if m < 2:
        raise ValueError(f"power must be >= 2, got {m}")
    if L < 1:
        raise ValueError(f"length must be >= 1, got {L}")
    return braid_density_limit(m, optimal_ell(m)) * L - 2 * m * m


# ---------------------------------------------------------------------------
# Normalization procedure


@dataclass(frozen=True)
class NormalizeStep:
    op: str                      # init-split | init-merge | case1 | case2-shift | case2-merge | case3
    index: int                   # segment index the operation acted at
    before: tuple[int, ...]
    after: tuple[int, ...]


@dataclass
class NormalizeResult:
    segments: SegmentList
    transcript: list[NormalizeStep]
    original_edges: int
    normalized_edges: int
    steps: int

    @property
    def slack(self) -> int:
        """normalized - original same-side edges; at most (m-1)^2/2 by construction."""
        return self.normalized_edges - self.original_edges


def normalize(path: PartitionedPath, budget: int | None = None) -> NormalizeResult:
    """Rewrite a valid labeling into normal form ((a) and (b) above).

    The procedure scans segments left to right.  Oversized segments push
    their tail into the next segment (changing those vertices' side); when
    two consecutive segments are jointly too small, single vertices are
    pulled across from the right (changing the order, not the partition)
    until the pair is repaired, merging segments as they empty; a jointly
    too-small final pair is merged outright and the procedure stops.

    Valid labelings (no m+1 consecutive same-side vertices) are the inputs
    of interest, but the procedure is total: oversized runs are trimmed by
    the initiation split and the oversize case, and the edge accounting
    below holds either way.

    The default step budget is 4*L^2; exceeding it raises BudgetExceeded
    (that would be a finding, not an expected outcome).  The returned result
    carries a transcript and both edge counts; the accounting guarantee
    original >= normalized - (m-1)^2/2 is re-verified here on every run by
    recounting edges of the reconstructed normalized labeling.
    """
    m = path.m
    L = path.L
    if budget is None:
        budget = 4 * L * L
    original = same_side_edge_count(path)

    seg = segments(path)
    sizes = list(seg.sizes)
    first = seg.first_side
    transcript: list[NormalizeStep] = []
    steps = 0

    def spend():
        nonlocal steps
        steps += 1
        if steps > budget:
            raise BudgetExceeded(f"normalization exceeded {budget} steps at L={L}, m={m}")

    def log(op: str, idx: int, before: tuple[int, ...]):
        transcript.append(NormalizeStep(op, idx, before, tuple(sizes)))

    def split(idx: int, op: str):
        # keep the first m vertices of segment idx, push the rest rightwards
        before = tuple(sizes)
        over = sizes[idx] - m
        sizes[idx] = m
        if idx + 1 < len(sizes):
            sizes[idx + 1] += over
        else:
            sizes.append(over)
        log(op, idx, before)

    # Initiation: cap the first segment, then absorb a too-small prefix.
    if sizes[0] > m:
        spend()
        split(0, "init-split")
    acc = 0
    j = 0
    for x in sizes:
        if acc + x < m:
            acc += x
            j += 1
        else:
            break
    if j >= 2:
        spend()
        before = tuple(sizes)
        merged = sum(sizes[:j])
        new_first = first if (j - 1) % 2 == 0 else _OTHER[first]
        sizes[:j] = [merged]
        first = new_first
        log("init-merge", 0, before)

    # Iteration: segments 0..i-1 satisfy (a) and (b); examine segment i.
    i = 1
    while i < len(sizes):
        spend()
        if sizes[i] > m:
            split(i, "case1")
            i += 1
        elif sizes[i - 1] + sizes[i] < m:
            if i + 1 < len(sizes):
                before = tuple(sizes)
                sizes[i - 1] += 1
                sizes[i + 1] -= 1
                if sizes[i + 1] == 0:
                    del sizes[i + 1]
                    if i + 1 < len(sizes):
                        # the emptied slot's right neighbor shares segment i's side
                        sizes[i] += sizes.pop(i + 1)
                        log("case2-merge", i, before)
                    else:
                        log("case2-shift", i, before)
                else:
                    log("case2-shift", i, before)
                # stay at i and re-check
            else:
                before = tuple(sizes)
                sizes[i - 1] += sizes.pop(i)
                log("case3", i, before)
                break
        else:
            i += 1  # case 0: conditions hold, move on

    out = SegmentList(tuple(sizes), first)
    if not out.is_normalized(m):
        raise AssertionError(f"normalization produced a non-normal list {out}")
    normalized = same_side_edge_count(out.to_path(m))
    if 2 * (normalized - original) > (m - 1) ** 2:
        raise AssertionError(
            f"edge accounting violated: slack {normalized - original} "
            f"exceeds (m-1)^2/2 for m={m}, labels={path.labels!r}"
        )
    return NormalizeResult(out, transcript, original, normalized, steps)


# ---------------------------------------------------------------------------
# Exhaustive verification of the edge floor


@dataclass(frozen=True)
class EdgeFloorRow:
    L: int
    num_valid: int
    min_edges: int | None
    floor: Fraction
    ok: bool
    minimizer: str | None


_MAX_MASK_LENGTH = 62  # int64 chunks: 2^L and every mask must fit
_CHUNK = 1 << 12


def _check_mask_length(L: int) -> None:
    if not 0 <= L <= _MAX_MASK_LENGTH:
        raise ValueError(f"label masks hold 0..{_MAX_MASK_LENGTH} positions, got L={L}")


def _agreements(x, L: int, m: int):
    """For each distance d = 1..min(m, L-1), the bits i of mask(s) x whose
    positions i and i + d carry equal labels; a Python int or an int64 array."""
    return (~(x ^ (x >> d)) & ((1 << (L - d)) - 1) for d in range(1, min(m, L - 1) + 1))


def _valid_mask_chunks(L: int, m: int):
    """The valid label masks of length L (no m+1 consecutive equal bits), in
    ascending order, as int64 arrays holding one chunk's survivors each."""
    full = (1 << L) - 1
    for lo in range(0, 1 << L, _CHUNK):
        x = np.arange(lo, min(lo + _CHUNK, 1 << L), dtype=np.int64)
        # after m steps, bit i of ones (zeros) is set iff bits i..i+m of x are all 1 (0)
        ones, zeros = x, ~x & full
        for _ in range(m):
            ones = ones & (ones >> 1)
            zeros = zeros & (zeros >> 1)
        yield x[(ones | zeros) == 0]


def iter_valid_label_masks(L: int, m: int):
    """All side-label bitmasks of length L with no m+1 consecutive equal bits,
    as Python ints in ascending order.  L must lie in 0..62 and m be >= 1."""
    if m < 1:
        raise ValueError(f"power m must be >= 1, got m={m}")
    _check_mask_length(L)
    return (x for chunk in _valid_mask_chunks(L, m) for x in chunk.tolist())


def mask_to_labels(x: int, L: int) -> str:
    """The labeling of the low L bits of x (bit i set: position i is B)."""
    full = (1 << L) - 1
    # the sentinel bit L fixes the digit count at L + 1 (L may be 0)
    return format((x & full) | (full + 1), "b")[:0:-1].translate(_BIT_LABELS)


def check_edge_floor_exhaustive(m: int, L_max: int) -> list[EdgeFloorRow]:
    """For every valid labeling of every length L <= L_max, verify that the
    same-side edge count meets same_side_edge_floor(m, L); reports the
    minimizing labeling per L (first in mask order among ties).  L_max must
    lie in 0..62."""
    if m < 2:
        raise ValueError(f"power must be >= 2, got {m}")
    _check_mask_length(L_max)
    rows = []
    for L in range(1, L_max + 1):
        floor = same_side_edge_floor(m, L)
        best = None
        best_mask = None
        count = 0
        for x in _valid_mask_chunks(L, m):
            if not len(x):
                continue
            count += len(x)
            edges = np.zeros(len(x), np.int16)  # at most C(62, 2) same-side edges
            for agree in _agreements(x, L, m):
                edges += np.bitwise_count(agree)
            i = int(edges.argmin())  # the first minimum in mask order
            if best is None or edges[i] < best:
                best = int(edges[i])
                best_mask = int(x[i])
        ok = best is None or best >= floor
        rows.append(
            EdgeFloorRow(
                L,
                count,
                best,
                floor,
                ok,
                None if best_mask is None else mask_to_labels(best_mask, L),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# t-far edges and the structural checks for powers 6 and 9


# power m -> the same-side clique size its structure check forbids
FORBIDDEN_CLIQUE_SIZE = {6: 5, 9: 7}


def clique_free(path: PartitionedPath, clique_size: int) -> bool:
    """No `clique_size` >= 1 same-side vertices pairwise within path distance m.

    Such a clique exists iff some window of min(m+1, L) consecutive positions
    holds clique_size same-side vertices (a path no longer than m+1 is one
    window).  Stops at the first window whose B count b or A count width - b
    reaches clique_size; most valid labelings hold a clique and stop early,
    which is why this scan does not build the `_far_counts` table that the
    structure checks read their precondition from.
    """
    if clique_size < 1:
        raise ValueError(f"clique_size must be >= 1, got {clique_size}")
    width = min(path.m + 1, path.L)
    x = _label_mask(path.labels)
    window = (1 << width) - 1
    for i in range(path.L - width + 1):
        b = (x >> i & window).bit_count()
        if b >= clique_size or width - b >= clique_size:
            return False
    return True


def _far_counts(labels: str, m: int) -> tuple[list[int], list[int]]:
    """far[s][t] for the sides s = A, B (indices 0, 1) and t = 0..m+1: the
    number of positions i on side s with c_i >= t, where c_i counts the
    positions among i+1..i+m on side s.

    The t-far pair of i (i and the t-th next position on its side) is an
    edge exactly when c_i >= t, so far[s][t] is the number of t-far edges on
    side s; far[s][0] is the size of side s.  One popcount per position, then
    a cumulative histogram per side.
    """
    L = len(labels)
    x = _label_mask(labels)
    masks = (~x & ((1 << L) - 1), x)
    window = (1 << m) - 1
    far = ([0] * (m + 2), [0] * (m + 2))
    for i in range(L):
        s = x >> i & 1
        far[s][(masks[s] >> (i + 1) & window).bit_count()] += 1
    for hist in far:
        for t in range(m, -1, -1):
            hist[t] += hist[t + 1]
    return far


@dataclass
class M6Report:
    """Structural counts for one valid labeling of a 6-path with no same-side K_5."""

    L: int
    precondition_ok: bool
    a_count: int = 0
    b_count: int = 0
    far12_edges: int = 0
    far12_expected: int = 0         # per-side sum of max(0, |Z| - t), t <= 2
    far3_edges: int = 0
    windows_ok: bool = False        # every 7-window splits 4/3
    spans_ok: bool = False          # both sides carry spanning 2-paths
    identity_ok: bool = False       # far12 == expected (== 2L-6 when both sides >= 2)
    identity_2l6: bool = False
    far3_bound_ok: bool = False     # far3 >= (L-6)/4
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.precondition_ok
            and self.windows_ok
            and self.spans_ok
            and self.identity_ok
            and self.far3_bound_ok
        )


def _structure_core(path: PartitionedPath, m: int, k: int,
                    names: tuple[str, str, str], label: str):
    """The steps the m=6 and m=9 checks share: the precondition (valid, no
    same-side K_s for s = FORBIDDEN_CLIQUE_SIZE[m]), the spanning k-th powers
    and the t <= k far-edge identity.  Returns (the `_far_counts` table, or
    None when the precondition fails; report fields); `names` are the check's
    fields for the t <= k far-edge total, its expected value and whether it
    equals kL - k(k+1)."""
    if path.m != m:
        raise ValueError(f"this check applies to {m}-paths, got m={path.m}")
    clique_size = FORBIDDEN_CLIQUE_SIZE[m]
    far = _far_counts(path.labels, m)
    # a same-side K_s has a least vertex i with c_i >= s - 1, and the first
    # position i of a run of m + 1 has c_i = m >= clique_size - 1 (both
    # checks have clique_size <= m + 1): one test covers both halves of the
    # precondition
    if far[0][clique_size - 1] or far[1][clique_size - 1]:
        note = f"precondition violated: invalid labeling or same-side K_{clique_size} present"
        return None, {"L": path.L, "precondition_ok": False, "notes": [note]}
    total = sum(f[t] for f in far for t in range(1, k + 1))
    expected = sum(max(0, f[0] - t) for f in far for t in range(1, k + 1))
    exact = total == k * path.L - k * (k + 1)
    identity_ok = total == expected
    notes = []
    if min(far[0][0], far[1][0]) >= k and not exact:
        identity_ok = False
        notes.append(f"{label} total differs from {k}L-{k * (k + 1)} despite nondegenerate sides")
    return far, {
        "L": path.L, "precondition_ok": True, "a_count": far[0][0], "b_count": far[1][0],
        names[0]: total, names[1]: expected, names[2]: exact,
        # each (side, t) term counts at most its pairs as edges, so the totals
        # agree exactly when every t-far pair with t <= k is an edge
        "spans_ok": total == expected,
        "identity_ok": identity_ok, "notes": notes,
    }


def m6_structure_check(path: PartitionedPath) -> M6Report:
    """The m = 6 structure facts for labelings without a same-side K_5.

    Asserted: every 7-window splits 4/3, both sides span 2-paths, the 1- and
    2-far edges number exactly sum max(0, |Z|-t) (which is 2L-6 once both
    sides have >= 2 vertices; always the case for L >= 7), and the 3-far
    edges number at least (L-6)/4.  A violated precondition is reported, not
    asserted.

    The window fact follows from the precondition: the seven positions of a
    7-window lie pairwise within distance 6, so with no same-side K_5 each
    side holds at most 4 of them, and 4 + 3 = 7 leaves only the 4/3 split (a
    path shorter than 7 has no 7-window).
    """
    far, fields = _structure_core(
        path, 6, 2, ("far12_edges", "far12_expected", "identity_2l6"), "1-,2-far")
    if far is None:
        return M6Report(**fields)
    far3 = far[0][3] + far[1][3]
    return M6Report(**fields, far3_edges=far3, far3_bound_ok=4 * far3 >= path.L - 6, windows_ok=True)


@dataclass
class M9Report:
    """Structural counts for one valid labeling of a 9-path with no same-side K_7."""

    L: int
    precondition_ok: bool
    a_count: int = 0
    b_count: int = 0
    far123_edges: int = 0
    far123_expected: int = 0        # per-side sum of max(0, |Z| - t), t <= 3
    w_a: int = 0                    # 4-far edges on side A
    w_b: int = 0
    z_a: int = 0                    # 5-far edges on side A
    z_b: int = 0
    spans_ok: bool = False          # both sides carry spanning 3-paths
    identity_ok: bool = False       # far123 == expected (== 3L-12 when sides >= 3)
    identity_3l12: bool = False
    w_bound_ok: bool = False        # w >= L/3 - 3
    wz_relation_ok: bool = False    # L - 8 - w <= 4z
    wz_total_ok: bool = False       # w + z >= L/2 - 5
    notes: list[str] = field(default_factory=list)

    @property
    def w(self) -> int:
        return self.w_a + self.w_b

    @property
    def z(self) -> int:
        return self.z_a + self.z_b

    @property
    def ok(self) -> bool:
        return (
            self.precondition_ok
            and self.spans_ok
            and self.identity_ok
            and self.w_bound_ok
            and self.wz_relation_ok
            and self.wz_total_ok
        )


def m9_structure_check(path: PartitionedPath) -> M9Report:
    """The m = 9 structure facts for labelings without a same-side K_7.

    Asserted: both sides span 3-paths, the t <= 3 far edges number exactly
    sum max(0, |Z|-t) (3L-12 once both sides have >= 3 vertices; always the
    case for L >= 10), and the 4-/5-far counts w, z satisfy w >= L/3 - 3,
    L - 8 - w <= 4z and w + z >= L/2 - 5.
    """
    far, fields = _structure_core(
        path, 9, 3, ("far123_edges", "far123_expected", "identity_3l12"), "t<=3-far")
    if far is None:
        return M9Report(**fields)
    (w_a, z_a), (w_b, z_b) = far[0][4:6], far[1][4:6]
    w, z, L = w_a + w_b, z_a + z_b, path.L
    return M9Report(
        **fields, w_a=w_a, w_b=w_b, z_a=z_a, z_b=z_b,
        w_bound_ok=3 * w >= L - 9,
        wz_relation_ok=L - 8 - w <= 4 * z,
        wz_total_ok=2 * (w + z) >= L - 10,
    )
