"""Star discrepancy, its classical bounds, and the interpolation bound."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantornormal.blocks import DigitString
from cantornormal import discrepancy as discrepancy_module
from cantornormal.cantor import scaled_prefix_counts
from cantornormal.constructions import ConstructionSpec, SegmentSpec, build_C
from cantornormal.errors import NeedsMoreDigitsError
from cantornormal.discrepancy import (
    _sweep,
    PrefixWeights,
    boundf_hypotheses,
    concat_bound,
    e1l_bound,
    epsbar,
    f_bound,
    kn1_bound,
    scaled_digits,
    star_discrepancy,
    star_discrepancy_from_counts,
    distinct_values,
    star_discrepancy_of_rows,
    sweep_dtype,
    unit_sequence,
)

from oracles import literal_points, sweep_dstar

points = st.lists(
    st.integers(1, 60).flatmap(
        lambda den: st.integers(0, den - 1).map(lambda num: Fraction(num, den))
    ),
    min_size=1,
    max_size=40,
)


def test_unit_sequence_validation():
    assert unit_sequence([0, Fraction(1, 2)]) == (Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        unit_sequence([Fraction(1)])
    with pytest.raises(ValueError):
        unit_sequence([Fraction(-1, 3)])


def test_star_discrepancy_frozen():
    assert star_discrepancy([Fraction(0)]) == 1
    assert star_discrepancy([Fraction(1, 2)]) == Fraction(1, 2)
    # centered two-point grid: best possible
    assert star_discrepancy([Fraction(1, 4), Fraction(3, 4)]) == Fraction(1, 4)
    with pytest.raises(ValueError):
        star_discrepancy([])


# ---------------------------------------------------------------------------
# The one point reader: every entry point reads each point once, and checks
# it as the literal oracle does.
# ---------------------------------------------------------------------------


class CountedFraction(Fraction):
    """A Fraction that counts the reads of its terms."""

    reads = 0

    def as_integer_ratio(self):
        self.reads += 1
        return super().as_integer_ratio()

    @property
    def numerator(self):
        self.reads += 1
        return super().numerator

    @property
    def denominator(self):
        self.reads += 1
        return super().denominator


_unit_fractions = st.integers(1, 2**70).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))
_in_unit = st.one_of(
    st.just(0),
    _unit_fractions,
    _unit_fractions.map(lambda f: CountedFraction(f.numerator, f.denominator)),
    st.integers(0, 999).map(lambda k: f"0.{k:03d}"),
    st.floats(0, 1, exclude_max=True),
)
_outside = st.one_of(
    st.sampled_from([1, -1, 2, "1.5", "-0.25", 1.0, -0.5, Fraction(3, 2), CountedFraction(-1, 3)]),
    st.fractions(min_value=1),
    st.fractions(max_value=0).filter(lambda f: f < 0),
)
_unconvertible = st.sampled_from(["pear", "1/0", "", None, float("nan"), float("inf"), [0]])


def _raised(fn, zs):
    try:
        return fn(zs), None
    except Exception as exc:  # the kind and the message are compared
        return None, (type(exc), str(exc))


@given(st.lists(st.one_of(_in_unit, _in_unit, _outside, _unconvertible), min_size=1, max_size=8))
@settings(max_examples=300)
def test_point_reader_matches_the_literal_check(zs):
    expected, error = _raised(literal_points, zs)
    got, got_error = _raised(unit_sequence, zs)
    assert got_error == error
    if error is None:
        assert isinstance(got, tuple) and got == tuple(expected)
        assert all(g is z for g, z in zip(got, zs) if isinstance(z, Fraction))
        assert star_discrepancy(zs) == sweep_dstar(expected)
    else:
        assert _raised(star_discrepancy, zs)[1] == error
        assert _raised(kn1_bound, zs)[1] == error


@given(
    st.lists(_in_unit, max_size=6), st.integers(0, 6), st.integers(0, 6), _outside, _unconvertible, st.booleans()
)
def test_first_bad_point_is_reported_in_either_order(good, at, gap, outside, unconvertible, outside_first):
    at = min(at, len(good))
    first, second = (outside, unconvertible) if outside_first else (unconvertible, outside)
    zs = good[:at] + [first] + good[at : at + gap] + [second] + good[at + gap :]
    error = _raised(literal_points, zs)[1]
    if outside_first:
        assert error[0] is ValueError and error[1].startswith(f"point {at} is ")
    for fn in (unit_sequence, star_discrepancy, kn1_bound):
        assert _raised(fn, zs)[1] == error


@pytest.mark.parametrize("den", [7, 2**40, 2**70], ids=["q-small", "q-2^40", "q-2^70"])
def test_each_entry_point_reads_each_point_once(den):
    zs = [CountedFraction(p, den + p) for p in (3, 0, 5, 1, 3, den - 1)]
    expected = sweep_dstar([Fraction(z.numerator, z.denominator) for z in zs])
    srt = sorted(zs)
    for fn, arg in ((star_discrepancy, zs), (kn1_bound, srt), (unit_sequence, zs)):
        for z in zs:
            z.reads = 0
        result = fn(arg)
        assert [z.reads for z in zs] == [1] * len(zs), fn.__name__
        assert fn is unit_sequence or result == expected


@pytest.mark.parametrize("n", [1, 2, 3, 7, 25])
def test_centered_grid_is_optimal(n):
    grid = [Fraction(2 * i - 1, 2 * n) for i in range(1, n + 1)]
    assert star_discrepancy(grid) == Fraction(1, 2 * n)
    assert kn1_bound(grid) == Fraction(1, 2 * n)


@given(points)
def test_star_discrepancy_matches_sweep(zs):
    assert star_discrepancy(zs) == sweep_dstar(zs)


@given(points)
def test_star_discrepancy_is_order_invariant(zs):
    assert star_discrepancy(list(reversed(zs))) == star_discrepancy(zs)


@given(points)
def test_star_discrepancy_range(zs):
    d = star_discrepancy(zs)
    assert Fraction(1, 2 * len(zs)) <= d <= 1


@given(points)
def test_counts_interface_agrees(zs):
    counts = {}
    for z in zs:
        counts[z] = counts.get(z, 0) + 1
    assert star_discrepancy_from_counts(counts, len(zs)) == star_discrepancy(zs)


def test_counts_interface_partial_mass():
    # missing mass shows up as a right-end gap
    assert star_discrepancy_from_counts({Fraction(0): 1}, 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        star_discrepancy_from_counts({}, 0)


@pytest.mark.parametrize(
    "table, n",
    [
        ({Fraction(3, 2): 1}, 1),  # value above 1
        ({1: 1}, 1),  # value 1 itself
        ({Fraction(-1, 3): 1}, 1),  # value below 0
        ({Fraction(1, 2): 5}, 1),  # counts sum past n
        ({Fraction(1, 2): -3}, 4),  # negative count
        ({Fraction(1, 2): Fraction(1, 2)}, 1),  # fractional count
        ({Fraction(1, 2): 1.0}, 1),  # float count
    ],
)
def test_counts_interface_rejects_invalid_tables(table, n):
    with pytest.raises(ValueError):
        star_discrepancy_from_counts(table, n)


def test_counts_interface_accepts_pairs_and_int_keys():
    table = {0: 1, Fraction(1, 2): 2}
    d = sweep_dstar([Fraction(0), Fraction(1, 2), Fraction(1, 2)])
    assert star_discrepancy_from_counts(table, 3) == d
    assert star_discrepancy_from_counts([(Fraction(1, 2), 2), (0, 1)], 3) == d
    assert star_discrepancy_from_counts(iter(table.items()), 3) == d


@given(points)
def test_kn1_bounds_discrepancy_on_sorted_input(zs):
    # the bound is tight: the displacement formula is D* itself on any sorted
    # input, ties included (Kuipers & Niederreiter, Ch. 2, Thm 1.4)
    assert kn1_bound(sorted(zs)) == star_discrepancy(zs) == sweep_dstar(zs)


# ---------------------------------------------------------------------------
# The integer kernel on hard inputs: ties, the ends of [0, 1), denominators
# above 2**100, and Farey neighbours a/q < c/r (c q - a r = 1), which lie
# exactly 1/(q r) apart and arrive in descending order.
# ---------------------------------------------------------------------------

BIG = 2**100


@st.composite
def farey_pairs(draw):
    """(a/q, c/r) with c q - a r = 1 and q > 2**100."""
    q = draw(st.integers(BIG, 2 * BIG))
    a = draw(st.integers(1, q - 2).filter(lambda a: math.gcd(a, q) == 1))
    r = -pow(a, -1, q) % q
    c = (1 + a * r) // q
    return Fraction(a, q), Fraction(c, r)


def _fractions(den_lo, den_hi):
    return st.integers(den_lo, den_hi).flatmap(
        lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q))
    )


_ends = st.integers(1, 2 * BIG).flatmap(
    lambda q: st.sampled_from([Fraction(0), Fraction(q - 1, q)])
)
_repeated = st.tuples(
    st.one_of(_fractions(1, 12), _fractions(BIG, 2 * BIG), _ends), st.integers(1, 3)
).map(lambda zc: [zc[0]] * zc[1])
_descending_pair = farey_pairs().map(lambda pair: [pair[1], pair[0]])
hard_points = st.lists(st.one_of(_repeated, _descending_pair), min_size=1, max_size=12).map(
    lambda chunks: [z for chunk in chunks for z in chunk]
)


def test_farey_pair_with_two_large_denominators():
    q, a = BIG + 1, 10**29
    r = -pow(a, -1, q) % q  # about 2**99
    lo, hi = Fraction(a, q), Fraction((1 + a * r) // q, r)
    assert hi - lo == Fraction(1, q * r)
    assert star_discrepancy([hi, lo]) == kn1_bound([lo, hi]) == sweep_dstar([lo, hi])
    assert star_discrepancy_from_counts({hi: 1, lo: 1}, 2) == sweep_dstar([lo, hi])
    with pytest.raises(ValueError, match="sorted ascending"):
        kn1_bound([hi, lo])


@given(hard_points)
@settings(max_examples=300)
def test_every_dstar_entry_point_matches_sweep(zs):
    d = sweep_dstar(zs)
    assert star_discrepancy(zs) == d
    assert kn1_bound(sorted(zs)) == d
    counts = Counter(zs)  # keeps first-seen order: Farey pairs stay descending
    assert star_discrepancy_from_counts(counts, len(zs)) == d
    assert star_discrepancy_from_counts(list(counts.items()), len(zs)) == d


# (p, q, count) triples, neither reduced nor distinct: 2/4 next to 1/2
triples = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 4), st.integers(0, 3)).flatmap(
        lambda t: st.integers(0, t[0] - 1).map(lambda p: (p * t[1], t[0] * t[1], t[2]))
    ),
    min_size=1,
    max_size=12,
).filter(lambda ts: any(c for _, _, c in ts))


@given(triples)
@settings(max_examples=300)
def test_count_table_with_repeated_unreduced_values_matches_sweep(ts):
    # each triple is one table entry, so 2/4 and 1/2 (or a value twice, or a
    # count of 0) are separate entries of one value
    points = [Fraction(p, q) for p, q, c in ts for _ in range(c)]
    table = [(Fraction(p, q), c) for p, q, c in ts]
    assert star_discrepancy_from_counts(table, len(points)) == sweep_dstar(points)


# (p, q) per position with q <= 12, not reduced: 2/4 may follow 1/2
coded_points = st.lists(
    st.integers(1, 12).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q))),
    min_size=1,
    max_size=30,
)


def prefix_dstars(p, q, ends):
    """D* of the points p[:e] / q[:e] for each end e: one count row per prefix, one sweep.

    The positions are ranked once by ``distinct_values``; row r counts the
    first ends[r] positions over the distinct values, so a value a prefix
    misses has count 0 there.
    """
    vp, vq, index = distinct_values(p, q)
    rows = np.array([np.bincount(index[:e], minlength=len(vp)) for e in ends])
    return star_discrepancy_of_rows(vp, vq, rows, ends)


@given(coded_points, st.sampled_from([1, 5, 2**30, 2**59]), st.sampled_from([np.int64, object]), st.data())
@settings(max_examples=300)
def test_prefix_sweep_matches_sweep_on_each_prefix(pairs, scale, dtype, data):
    # scale 2**30 takes one or two int64 key words.  Scale 2**59 makes
    # denominators of 60 to 63 bits: once q > 3 (past 61 bits) or the points
    # number 16 (q * n past 2**63) the rows are swept as object whatever
    # the terms' dtype, else the keys take two words of 1- or 2-bit limbs
    ends = sorted(data.draw(st.sets(st.integers(1, len(pairs)))) | {1})
    p = np.array([a * scale for a, _ in pairs], dtype=dtype)
    q = np.array([b * scale for _, b in pairs], dtype=dtype)
    points = [Fraction(a, b) for a, b in pairs]
    assert prefix_dstars(p, q, ends) == [sweep_dstar(points[:e]) for e in ends]


def test_prefix_sweep_on_prefixes_that_miss_values():
    # 1/3 and 2/3 are ranked from the start but absent from the first prefixes
    p, q = np.array([1, 1, 1, 1, 2]), np.array([2, 2, 2, 3, 3])
    points = [Fraction(1, 2)] * 3 + [Fraction(1, 3), Fraction(2, 3)]
    ends = [1, 2, 3, 4, 5]
    assert prefix_dstars(p, q, ends) == [sweep_dstar(points[:e]) for e in ends]
    assert prefix_dstars(p, q, [1, 1]) == [Fraction(1, 2)] * 2
    # the same points as one-copy segments of a construction
    spec = ConstructionSpec(tuple(SegmentSpec(1, (a,), b) for a, b in zip(p.tolist(), q.tolist())))
    values = spec.scaled_values
    rows = scaled_prefix_counts(spec, ends)
    assert rows[:3, [0, 2]].tolist() == [[0, 0]] * 3  # columns 1/3 and 2/3, around 1/2
    assert star_discrepancy_of_rows(values.p, values.q, rows, ends) == [sweep_dstar(points[:e]) for e in ends]


def test_sweep_dtype_is_int64_while_every_term_fits():
    assert sweep_dtype(201, 20100) is np.int64
    # the ranking's limbs need denominators of at most 61 bits
    assert sweep_dtype(2**61 - 1, 1) is np.int64
    assert sweep_dtype(2**61, 1) is object
    # the sweep's products need n * max_q below 2**63
    assert sweep_dtype(3, (2**63 - 1) // 3) is np.int64
    assert sweep_dtype(3, (2**63 - 1) // 3 + 1) is object
    assert sweep_dtype(2**40, 2**23 - 1) is np.int64
    assert sweep_dtype(2**40, 2**23) is object


# ---------------------------------------------------------------------------
# The one ranking and sweep at each denominator scale: one int64 key word
# (q <= 60), two words of several limbs (2**30 to 2**40), and object arrays
# (past 2**63).
# ---------------------------------------------------------------------------

DENOMINATOR_SCALES = {"one-word": (1, 60), "two-words": (2**30, 2**40), "object": (2**63, 2**70)}


def _int_array(values):
    big = any(v >= 2**63 for v in values)
    return np.array(values, dtype=object if big else np.int64)


@st.composite
def scaled_entries(draw):
    """(p, q, count) entries over a few values of one denominator scale.

    Entries draw from a small pool of values, so a value repeats across
    entries, and each entry scales its terms by 1 to 3, so p/q is often not
    in lowest terms.  The pool holds the Farey neighbour c/r of its first
    values a/q: 1/(q r) above, as close as two values of the scale get, so
    their keys agree in every leading bit but the last few.  Counts run from
    0 to 3, at least one positive.
    """
    lo, hi = DENOMINATOR_SCALES[draw(st.sampled_from(sorted(DENOMINATOR_SCALES)))]
    value = st.integers(lo, hi).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q)))
    pool = draw(st.lists(value, min_size=1, max_size=8))
    for a, q in pool[:2]:
        if a and math.gcd(a, q) == 1 and (r := -pow(a, -1, q) % q) > 1:
            pool.append(((1 + a * r) // q, r))
    entries = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=16))
    assume(any(c for _, _, c in entries))
    return [(p * k, q * k, c) for (p, q), k, c in entries]


@given(scaled_entries(), st.data())
@settings(max_examples=300)
def test_kernel_matches_sweep_at_every_denominator_scale(entries, data):
    points = [Fraction(p, q) for p, q, c in entries for _ in range(c)]
    d = sweep_dstar(points)
    assert star_discrepancy(points) == d
    assert kn1_bound(sorted(points)) == d
    table = [(Fraction(p, q), c) for p, q, c in entries]  # repeated values, counts of 0
    assert star_discrepancy_from_counts(table, len(points)) == d
    # one position per point, in the entries' order and unreduced terms
    p = _int_array([p for p, _, c in entries for _ in range(c)])
    q = _int_array([q for _, q, c in entries for _ in range(c)])
    ends = sorted(data.draw(st.sets(st.integers(1, len(points)))) | {len(points)})
    assert prefix_dstars(p, q, ends) == [sweep_dstar(points[:e]) for e in ends]


@st.composite
def near_tied_pairs(draw):
    """Farey neighbours a/q < c/r in [1/4, 1/2], which differ by 1/(q r) < 2**-53 of a/q."""
    lo, hi = draw(st.sampled_from([(2**30, 2**40), (2**63, 2**70)]))
    q = draw(st.integers(lo, hi))
    a = draw(st.integers(q // 4 + 1, q // 2 - 1).filter(lambda a: math.gcd(a, q) == 1))
    r = -pow(a, -1, q) % q
    assume(r > q // 16)
    lo_v, hi_v = Fraction(a, q), Fraction((1 + a * r) // q, r)
    assert hi_v - lo_v == Fraction(1, q * r) and hi_v - lo_v < lo_v / 2**53
    return lo_v, hi_v


@given(near_tied_pairs(), st.booleans())
@settings(max_examples=200)
def test_exact_maximum_wins_a_near_tie(pair, swap):
    # with z1 in [1/4, 1/2) and z2 = 1 - w, D* of (z1, z2) is max(z1, w):
    # two sweep candidates closer than float64 can tell apart
    z1, w = pair[::-1] if swap else pair
    points = [z1, 1 - w]
    d = max(pair)
    assert sweep_dstar(points) == d
    assert star_discrepancy(points) == kn1_bound(points) == d
    assert star_discrepancy_from_counts({z: 1 for z in points}, 2) == d
    p = _int_array([z.numerator for z in points])
    q = _int_array([z.denominator for z in points])
    assert prefix_dstars(p, q, [1, 2]) == [sweep_dstar(points[:1]), d]


@st.composite
def count_matrices(draw):
    """(entries, rows, n) for ``_sweep``: a count matrix over ascending entries, one n per row.

    The entries p/q draw from a small pool of values at one denominator
    scale, each scaled by 1 to 3, and are sorted by value: a value often
    repeats over adjacent entries, some in other terms.  Each row gives
    every entry a count of 0 to 3 and has its own n, up to 3 more than its
    counts sum to (the mass above every value).
    """
    lo, hi = DENOMINATOR_SCALES[draw(st.sampled_from(sorted(DENOMINATOR_SCALES)))]
    value = st.integers(lo, hi).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q)))
    pool = draw(st.lists(value, min_size=1, max_size=6))
    drawn = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=1, max_size=10))
    entries = sorted(((p * k, q * k) for (p, q), k in drawn), key=lambda e: Fraction(*e))
    counts = st.lists(st.integers(0, 3), min_size=len(entries), max_size=len(entries))
    rows = draw(st.lists(counts, min_size=1, max_size=5))
    n = [max(1, sum(row) + draw(st.integers(0, 3))) for row in rows]
    return entries, rows, n


@given(count_matrices())
@settings(max_examples=300)
def test_matrix_sweep_matches_sweep_row_by_row(matrix):
    entries, rows, n = matrix
    # mass left out of a row's table sits above every value, as at gamma = 1
    expected = [
        sweep_dstar([Fraction(p, q) for (p, q), c in zip(entries, row) for _ in range(c)] + [1] * (m - sum(row)))
        for row, m in zip(rows, n)
    ]
    # object arrays always; int64 too where every term fits
    fits = sweep_dtype(max(q for _, q in entries), max(n)) is np.int64
    for dtype in (object, np.int64) if fits else (object,):
        p = np.array([p for p, _ in entries], dtype=dtype)
        q = np.array([q for _, q in entries], dtype=dtype)
        assert _sweep(p, q, np.array(rows, dtype=dtype), n) == expected
    # and each row as its own checked table
    for row, m, d in zip(rows, n, expected):
        assert star_discrepancy_from_counts([(Fraction(*e), c) for e, c in zip(entries, row)], m) == d


@given(count_matrices())
@settings(max_examples=100)
def test_rows_over_distinct_values_match_sweep(matrix):
    entries, rows, n = matrix
    vp, vq, index = distinct_values([p for p, _ in entries], [q for _, q in entries])
    values = [Fraction(p, q) for p, q in zip(vp.tolist(), vq.tolist())]
    assert values == sorted(set(Fraction(*e) for e in entries))
    assert [values[j] for j in index.tolist()] == [Fraction(*e) for e in entries]
    # fold each row's entries onto the distinct values
    folded = np.zeros((len(rows), len(values)), dtype=object)
    for r, row in enumerate(rows):
        for j, c in zip(index.tolist(), row):
            folded[r, j] += c
    expected = [
        sweep_dstar([Fraction(p, q) for (p, q), c in zip(entries, row) for _ in range(c)] + [1] * (m - sum(row)))
        for row, m in zip(rows, n)
    ]
    assert star_discrepancy_of_rows(vp, vq, folded, n) == expected


def test_large_matrices_sweep_in_row_blocks(monkeypatch):
    values = sorted({Fraction(a, q) for q in range(2, 30) for a in range(0, q, 3)})
    p = np.array([v.numerator for v in values])
    q = np.array([v.denominator for v in values])
    rows = [[(i * 7 + j * j) % 4 for j in range(len(values))] for i in range(7)]
    n = [sum(row) + i % 3 for i, row in enumerate(rows)]
    expected = [
        sweep_dstar([v for v, c in zip(values, row) for _ in range(c)] + [1] * (m - sum(row)))
        for row, m in zip(rows, n)
    ]
    assert _sweep(p, q, np.array(rows), n) == expected
    # two rows per block with a last block of one, then one row per block
    for block in (2 * len(values), 1):
        monkeypatch.setattr(discrepancy_module, "_SWEEP_BLOCK", block)
        assert _sweep(p, q, np.array(rows), n) == expected


@pytest.mark.parametrize("max_q, narrow", [(255, np.uint8), (256, np.uint16)])
def test_ranking_on_both_sides_of_the_16_bit_key_cut(max_q, narrow):
    # below q = 256 every key (p << 16) // q fits 16 bits and is radix sorted
    # as uint16; q = 256 takes the int64 key.  The values crowd both ends of
    # [0, 1), where the keys reach 0 and the top of their range, and some
    # repeat in other terms
    qs = (max_q, max_q - 1, 128, 97, 3, 2)
    entries = [(p, q) for q in qs for p in sorted({0, 1, q // 2, q - 2, q - 1})]
    entries += [(2, 4), (90, 194), (max_q - 3, max_q - 1), (127, 254)]
    entries = [entries[i * 7 % len(entries)] for i in range(len(entries))]  # unsorted, every entry once
    points = [Fraction(p, q) for p, q in entries]
    for dtype in (np.int64, narrow):
        p = np.array([p for p, _ in entries], dtype=dtype)
        q = np.array([q for _, q in entries], dtype=dtype)
        order, keys = discrepancy_module._rank(p, q, max_q)
        if max_q < 256:
            assert [k.dtype for k in keys] == [np.uint16]
            assert int(keys[0].max()) == ((max_q - 1) << 16) // max_q
        else:
            assert [k.dtype for k in keys] == [np.int64]
        assert [points[i] for i in order.tolist()] == sorted(points)
        vp, vq, index = distinct_values(p, q)
        values = [Fraction(a, b) for a, b in zip(vp.tolist(), vq.tolist())]
        assert values == sorted(set(points))
        assert [values[j] for j in index.tolist()] == points
    assert star_discrepancy(points) == sweep_dstar(points)
    assert kn1_bound(sorted(points)) == sweep_dstar(points)
    with pytest.raises(ValueError, match="sorted ascending"):
        kn1_bound(points)


@given(st.lists(st.integers(200, 300).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q))), min_size=1, max_size=30))
@settings(max_examples=200)
def test_points_near_the_16_bit_key_cut_match_the_oracle(entries):
    points = [Fraction(p, q) for p, q in entries]
    assert star_discrepancy(points) == sweep_dstar(points)
    vp, vq, index = distinct_values([p for p, _ in entries], [q for _, q in entries])
    values = [Fraction(a, b) for a, b in zip(vp.tolist(), vq.tolist())]
    assert values == sorted(set(points))
    assert [values[j] for j in index.tolist()] == points


def test_kn1_ranks_its_points_once(monkeypatch):
    calls = []
    real = discrepancy_module._rank
    monkeypatch.setattr(discrepancy_module, "_rank", lambda *a: calls.append(1) or real(*a))
    zs = sorted(Fraction(i * 7 % 13, 13) for i in range(40))
    assert kn1_bound(zs) == sweep_dstar(zs)
    assert len(calls) == 1


@pytest.mark.parametrize("ends", [[2, 3.0], [0], [3, 2], [1, 6]])
def test_prefix_sweep_refuses_bad_ends(ends):
    # prefix ends are positions of a construction: integers that ascend within it
    spec = ConstructionSpec(tuple(SegmentSpec(1, (a,), b) for a, b in [(0, 2), (1, 2), (1, 3), (2, 3), (0, 5)]))
    with pytest.raises((ValueError, NeedsMoreDigitsError), match="integer >= 1|must ascend|up to position 6"):
        scaled_prefix_counts(spec, ends)
    # no ends give no rows
    assert scaled_prefix_counts(spec, []).shape == (0, len(spec.scaled_values.p))


# one-copy segments: a block of 1 to 4 digits over a small base or one past 2**63
one_copy_segments = st.lists(
    st.one_of(st.integers(2, 60), st.integers(2**63, 2**70)).flatmap(
        lambda base: st.lists(st.integers(0, base - 1), min_size=1, max_size=4).map(
            lambda block: SegmentSpec(1, block, base)
        )
    ),
    min_size=1,
    max_size=40,
)


@given(one_copy_segments, st.data())
@settings(max_examples=150, deadline=None)
def test_construction_prefix_rows_match_sweep_on_the_literal_prefix(segs, data):
    spec = ConstructionSpec(tuple(segs))
    points = [Fraction(d, seg.base) for seg in segs for d in seg.block]
    ends = sorted(data.draw(st.sets(st.integers(1, len(points)), min_size=1)))
    values = spec.scaled_values
    rows = scaled_prefix_counts(spec, ends)
    assert star_discrepancy_of_rows(values.p, values.q, rows, ends) == [sweep_dstar(points[:e]) for e in ends]


@given(farey_pairs(), st.lists(_fractions(1, 12), max_size=4))
def test_kn1_rejects_farey_pair_out_of_order(pair, others):
    lo, hi = pair
    with pytest.raises(ValueError, match="sorted ascending"):
        kn1_bound([hi, lo])
    # still out of order when other points sit below the pair
    below = sorted(z for z in others if z < lo)
    with pytest.raises(ValueError, match="sorted ascending"):
        kn1_bound(below + [hi, lo])


def test_kn1_frozen_and_validation():
    # displacement of (0, 1/2) from (1/4, 3/4): both off by 1/4
    assert kn1_bound([Fraction(0), Fraction(1, 2)]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        kn1_bound([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError):
        kn1_bound([])


def test_concat_bound_frozen():
    parts = [(2, 3, Fraction(1, 4)), (1, 4, Fraction(1, 2))]
    assert concat_bound(parts) == Fraction(7, 20)
    with pytest.raises(ValueError):
        concat_bound([(0, 0, Fraction(1, 2))])  # no points at all
    with pytest.raises(ValueError):
        concat_bound([(-1, 3, Fraction(1, 2))])


@given(
    st.lists(
        st.tuples(
            st.integers(1, 3),
            st.lists(
                st.integers(1, 24).flatmap(
                    lambda den: st.integers(0, den - 1).map(lambda p: Fraction(p, den))
                ),
                min_size=1,
                max_size=6,
            ),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60)
def test_concat_bound_covers_actual_concatenation(families):
    # feed each family's exact discrepancy in as its eps; the weighted
    # average must then cover the concatenated sequence
    parts = []
    seq = []
    for copies, pts in families:
        parts.append((copies, len(pts), star_discrepancy(pts)))
        seq.extend(pts * copies)
    assert star_discrepancy(seq) <= concat_bound(parts)


def test_scaled_digits():
    assert scaled_digits(DigitString((0, 3, 2)), 4) == (
        Fraction(0),
        Fraction(3, 4),
        Fraction(2, 4),
    )
    with pytest.raises(ValueError):
        scaled_digits((4,), 4)


def test_e1l_bound_frozen_and_validation():
    assert e1l_bound(3, Fraction(1, 100), 18) == Fraction(1, 3) + Fraction(1, 100) + Fraction(1, 18)
    with pytest.raises(ValueError):
        e1l_bound(1, Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        e1l_bound(3, Fraction(0), 10)
    with pytest.raises(ValueError):
        e1l_bound(3, Fraction(1, 2), 0)


def test_e1l_bound_covers_enumeration_block():
    # every digit of this block has frequency exactly 1/3
    blk = build_C(3, 2)
    d = star_discrepancy(scaled_digits(blk, 3))
    assert d == Fraction(1, 3)
    assert d <= e1l_bound(3, Fraction(1, 100), len(blk))


# ---------------------------------------------------------------------------
# Interpolation bound.
# ---------------------------------------------------------------------------


def pw_example():
    return PrefixWeights(
        entries=((4, 2, Fraction(1, 4)), (2, 3, Fraction(1, 4))),
        next_length=5,
        next_eps=Fraction(1, 10),
    )


def test_prefix_weights_validation():
    with pytest.raises(ValueError):
        PrefixWeights(entries=(), next_length=5, next_eps=Fraction(1, 10))
    with pytest.raises(ValueError):
        PrefixWeights(entries=((1, 0, Fraction(1, 2)),), next_length=5, next_eps=Fraction(1, 10))
    with pytest.raises(ValueError):
        PrefixWeights(entries=((-1, 2, Fraction(1, 2)),), next_length=5, next_eps=Fraction(1, 10))
    with pytest.raises(ValueError):
        PrefixWeights(entries=((1, 2, Fraction(1, 2)),), next_length=0, next_eps=Fraction(1, 10))


def test_f_bound_hand_computed():
    pw = pw_example()
    assert pw.included_points == 14
    assert pw.included_mass == Fraction(7, 2)
    assert f_bound(pw, 0, 0) == Fraction(1, 4)
    assert f_bound(pw, 1, 0) == Fraction(4, 19)
    assert f_bound(pw, 0, 1) == Fraction(3, 10)
    assert epsbar(pw) == Fraction(17, 38)
    assert epsbar(pw) == f_bound(pw, 0, pw.next_length)


def test_f_bound_validation():
    pw = pw_example()
    with pytest.raises(ValueError):
        f_bound(pw, -1, 0)
    with pytest.raises(ValueError):
        f_bound(pw, 0, 6)  # z beyond next_length
    empty = PrefixWeights(entries=((0, 2, Fraction(1, 4)),), next_length=5, next_eps=Fraction(1, 10))
    with pytest.raises(ValueError):
        f_bound(empty, 0, 0)


def test_hypotheses_pass_on_example():
    rep = boundf_hypotheses(pw_example())
    assert rep.holds
    assert bool(rep)
    assert rep.failures == ()


def test_hypotheses_failure_names():
    # zero multiplicity on the last included family
    rep = boundf_hypotheses(
        PrefixWeights(((4, 2, Fraction(1, 4)), (0, 3, Fraction(1, 4))), 5, Fraction(1, 10))
    )
    assert "last-multiplicity-positive" in rep.failures

    # head families carry eps >= 1, so their mass swamps their count
    rep = boundf_hypotheses(
        PrefixWeights(((1, 2, Fraction(3, 2)), (2, 3, Fraction(1, 4))), 5, Fraction(1, 10))
    )
    assert rep.failures == ("earlier-mass-dominates-error",)

    # single included family has an empty head
    rep = boundf_hypotheses(PrefixWeights(((2, 3, Fraction(1, 4)),), 5, Fraction(1, 10)))
    assert "earlier-mass-dominates-error" in rep.failures

    # next family's tolerance not below 1
    rep = boundf_hypotheses(
        PrefixWeights(((4, 2, Fraction(1, 4)), (2, 3, Fraction(1, 4))), 5, Fraction(1))
    )
    assert "next-eps-below-one" in rep.failures

    # next block too long relative to the last included family
    rep = boundf_hypotheses(
        PrefixWeights(((4, 2, Fraction(1, 4)), (1, 1, Fraction(1, 2))), 10, Fraction(1, 2))
    )
    assert "next-block-small-enough" in rep.failures


def test_hypotheses_are_strict_at_their_boundaries():
    # head points equal to head mass, and next_length / (l_i |x_i|) equal to
    # (1 - eps'_i) / eps'_{i+1} = (1 - 1/2) / (1/4) = 2, both fail
    head = (10, 10, Fraction(1, 10))
    assert boundf_hypotheses(PrefixWeights((head, (1, 2, Fraction(1, 2))), 3, Fraction(1, 4))).holds
    rep = boundf_hypotheses(PrefixWeights((head, (1, 2, Fraction(1, 2))), 4, Fraction(1, 4)))
    assert rep.failures == ("next-block-small-enough",)
    rep = boundf_hypotheses(PrefixWeights(((1, 2, Fraction(1)), (1, 2, Fraction(1, 2))), 3, Fraction(1, 4)))
    assert rep.failures == ("earlier-mass-dominates-error",)
    # the totals are integers over the lcm of the eps' denominators
    pw = PrefixWeights((head, (3, 4, Fraction(1, 6)), (1, 9, Fraction(2, 15))), 3, Fraction(1, 4))
    # points 100 + 12 + 9, mass 10 + 2 + 6/5 = 396/30
    assert (pw.included_points, pw.mass_numerator, pw.mass_denominator) == (121, 396, 30)
    assert pw.included_mass == Fraction(66, 5)


def test_hypotheses_allow_perfect_next_family():
    # eps' = 0 on the next family trivially satisfies the length condition
    pw = PrefixWeights(((4, 2, Fraction(1, 4)), (2, 3, Fraction(1, 4))), 50, Fraction(0))
    assert boundf_hypotheses(pw).holds


def test_epsbar_is_grid_maximum():
    # under the hypotheses, f decreases in whole blocks and increases in
    # extras, so the corner (0, next_length) dominates the whole grid
    pw = pw_example()
    bar = epsbar(pw)
    for w in range(4):
        for z in range(pw.next_length + 1):
            val = f_bound(pw, w, z)
            if (w, z) == (0, pw.next_length):
                assert val == bar
            else:
                assert val < bar
            if w >= 1:
                assert val < f_bound(pw, w - 1, z)
            if z >= 1:
                assert val > f_bound(pw, w, z - 1)

