"""Mixed-radix expansions: conversions, moments, orbits, scaled digits."""

import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantornormal.cantor import (
    BasicSequence,
    CantorExpansion,
    RationalInterval,
    digits_to_value,
    normality_ratio,
    orbit_numerators,
    orbit_point,
    q_moment,
    salat_hypothesis,
    scaled_prefix_counts,
    scaled_value_counts,
    value_to_digits,
)
from cantornormal.blocks import count_occurrences, count_prefix_occurrences
from cantornormal.constructions import (
    ConstructionSpec,
    SegmentSpec,
    build_P_runs,
    qde_spec,
    qnex_spec,
    salat_counterexample_spec,
)
from cantornormal.errors import (
    InvalidSpecError,
    NeedsMoreDigitsError,
    SizeLimitError,
)
from cantornormal.discrepancy import star_discrepancy_of_rows
from cantornormal import cantor as cantor_module
from cantornormal.limits import size_cap

from oracles import literal_orbit, slow_count, slow_q_moment

# rational points of [0, 1) with small denominators
rationals = st.integers(2, 50).flatmap(
    lambda den: st.integers(0, den - 1).map(lambda num: Fraction(num, den))
)
base_lists = st.lists(st.integers(2, 10), min_size=14, max_size=20)


# ---------------------------------------------------------------------------
# Base sequences.
# ---------------------------------------------------------------------------


def test_basic_sequence_backings():
    c = BasicSequence.constant(5)
    assert c.q_runs(1) == [(5, 1)]
    assert c.q_runs(10**9) == [(5, 10**9)]
    assert c.horizon is None
    e = BasicSequence.explicit([2, 3, 3, 4])
    assert [e.q_runs(n) for n in (1, 2, 3)] == [[(2, 1)], [(2, 1), (3, 1)], [(2, 1), (3, 2)]]
    assert e.q_runs(4) == [(2, 1), (3, 2), (4, 1)]
    assert e.runs == ((2, 1), (3, 2), (4, 1))
    assert e.horizon == 4


def test_basic_sequence_validation():
    with pytest.raises(InvalidSpecError):
        BasicSequence.constant(1)
    with pytest.raises(InvalidSpecError):
        BasicSequence.explicit([2, 1, 3])
    with pytest.raises(InvalidSpecError):
        BasicSequence.explicit([])


def test_basic_sequence_horizon():
    e = BasicSequence.explicit([2, 3])
    assert e.q_runs(2) == [(2, 1), (3, 1)]
    with pytest.raises(NeedsMoreDigitsError):
        e.q_runs(3)


# ---------------------------------------------------------------------------
# Expansions and intervals.
# ---------------------------------------------------------------------------


def test_from_digits_validates_range():
    Q = BasicSequence.explicit([2, 3, 4])
    exp = CantorExpansion.from_digits(Q, (1, 2, 3))
    assert [exp.spec.digit_at(n) for n in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(InvalidSpecError):
        CantorExpansion.from_digits(Q, (2, 0, 0))  # 2 > q_1 - 1
    with pytest.raises(NeedsMoreDigitsError):
        exp.spec.digit_at(4)
    with pytest.raises(ValueError):
        exp.spec.digit_at(0)


# small bases make runs of equal entries common; 300 and 2**64 + 1 take the
# digits past uint8 and into the object dtype
explicit_bases = st.integers(2, 5) | st.just(300) | st.just(2**64 + 1)
explicit_digits = st.integers(0, 5) | st.just(299) | st.just(2**64)


@given(st.lists(st.tuples(explicit_bases, explicit_digits), min_size=1, max_size=30), st.integers(0, 30))
@settings(max_examples=200)
def test_from_digits_refuses_at_the_literal_first_bad_position(pairs, cut):
    qs = [q for q, _ in pairs]
    ds = [d for _, d in pairs][:cut]
    Q = BasicSequence.explicit(qs)
    bad = next((n for n, (d, q) in enumerate(zip(ds, qs), start=1) if d >= q), None)
    if bad is None:
        exp = CantorExpansion.from_digits(Q, ds)
        assert exp.horizon == len(ds)
        assert [exp.spec.digit_at(n) for n in range(1, len(ds) + 1)] == ds
        assert [exp.spec.q_at(n) for n in range(1, len(ds) + 1)] == qs[: len(ds)]
    else:
        message = f"^digit {ds[bad - 1]} at position {bad} outside allowed range 0..{qs[bad - 1] - 1}$"
        with pytest.raises(InvalidSpecError, match=message):
            CantorExpansion.from_digits(Q, ds)


def test_digits_prefix_and_cap():
    Q = BasicSequence.constant(10)
    exp = CantorExpansion.from_digits(Q, (9, 0, 9))
    assert exp.spec.digits_prefix(2).as_tuple() == (9, 0)
    with size_cap(2), pytest.raises(SizeLimitError):
        exp.spec.digits_prefix(3)


def test_rational_interval():
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.contains(Fraction(2, 5))
    assert not iv.contains(Fraction(9, 10))
    assert iv.to_json() == {"lo": "1/3", "hi": "1/2"}
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        RationalInterval(Fraction(-1, 2), Fraction(1, 3))


def test_digits_to_value_frozen():
    Q = BasicSequence.explicit([2, 3, 4])
    exp = CantorExpansion.from_digits(Q, (1, 2, 3))
    iv = digits_to_value(exp)
    # 1/2 + 2/6 + 3/24 = 23/24, plus one unit in the last place
    assert iv.lo == Fraction(23, 24)
    assert iv.hi == 1
    assert iv.width == Fraction(1, 24)
    assert digits_to_value(exp, 0) == RationalInterval(Fraction(0), Fraction(1))


def test_digits_to_value_honours_size_cap(monkeypatch):
    monkeypatch.setenv("CNL_SIZE_CAP", "3")
    exp = CantorExpansion.from_digits(BasicSequence.constant(2), (1, 1, 1, 1))
    assert digits_to_value(exp, 3).lo == Fraction(7, 8)
    with pytest.raises(SizeLimitError):
        digits_to_value(exp)  # all four digits
    # refused before the horizon is checked, however far n reaches
    with pytest.raises(SizeLimitError):
        digits_to_value(exp, 10**12)


def test_value_to_digits_frozen():
    Q = BasicSequence.constant(2)
    assert value_to_digits(Fraction(1, 3), Q, 6).as_tuple() == (0, 1, 0, 1, 0, 1)
    Q2 = BasicSequence.explicit([2, 3, 4])
    assert value_to_digits(Fraction(23, 24), Q2, 3).as_tuple() == (1, 2, 3)
    with pytest.raises(ValueError):
        value_to_digits(Fraction(1), Q, 3)
    with pytest.raises(ValueError):
        value_to_digits(Fraction(-1, 2), Q, 3)


def test_value_to_digits_honours_size_cap(monkeypatch):
    monkeypatch.setenv("CNL_SIZE_CAP", "4")
    Q = BasicSequence.constant(2)
    assert value_to_digits(Fraction(1, 3), Q, 4).as_tuple() == (0, 1, 0, 1)
    with pytest.raises(SizeLimitError):
        value_to_digits(Fraction(1, 3), Q, 10**12)


@given(rationals, base_lists)
def test_value_digit_round_trip_encloses(x, qs):
    Q = BasicSequence.explicit(qs)
    n = 12
    digits = value_to_digits(x, Q, n)
    assert all(0 <= d < q for d, q in zip(digits, qs))
    iv = digits_to_value(CantorExpansion.from_digits(Q, digits), n)
    assert iv.contains(x)
    assert iv.width == Fraction(1, math.prod(qs[:n]))


def test_round_trip_exact_when_denominator_divides():
    Q = BasicSequence.constant(2)
    x = Fraction(21, 64)
    digits = value_to_digits(x, Q, 6)
    iv = digits_to_value(CantorExpansion.from_digits(Q, digits), 6)
    assert iv.lo == x  # remainder is exactly zero after 6 binary digits


# ---------------------------------------------------------------------------
# Moments and normality ratios.
# ---------------------------------------------------------------------------


def test_q_moment_constant_frozen():
    Q = BasicSequence.constant(2)
    assert q_moment(Q, 8, 3) == 1
    assert q_moment(Q, 10, 1) == 5


@given(st.lists(st.integers(2, 9), min_size=3, max_size=16), st.integers(1, 3))
def test_q_moment_matches_direct_sum(qs, k):
    n = len(qs) - k + 1
    if n < 1:
        return
    Q = BasicSequence.explicit(qs)
    assert q_moment(Q, n, k) == slow_q_moment(qs, k)


def test_q_moment_spec_paths_agree():
    spec = qde_spec(i_max=4)
    Q = BasicSequence.from_spec(spec)
    qs, _ = literal_expansion(spec.segments)
    for n, k in [(50, 1), (100, 1), (30, 2), (64, 3)]:
        assert q_moment(Q, n, k) == slow_q_moment(qs[: n + k - 1], k)


def test_q_moment_validation():
    Q = BasicSequence.constant(2)
    with pytest.raises(ValueError):
        q_moment(Q, 0, 1)
    with pytest.raises(ValueError):
        q_moment(Q, 5, 0)
    with pytest.raises(NeedsMoreDigitsError):
        q_moment(BasicSequence.explicit([2, 2]), 2, 2)  # needs q_3


def test_q_moment_position_loop_honours_size_cap():
    spec = qde_spec(i_max=4)
    spec_Q = BasicSequence.from_spec(spec)
    qs = literal_expansion(spec.segments)[0][:120]  # base 2 through position 64, then 3
    # an explicit list is held as runs and summed in closed form like a spec
    Q = BasicSequence.explicit(qs)
    with size_cap(50):
        assert q_moment(Q, 50, 2) == slow_q_moment(qs[:51], 2)
        # the closed forms loop over no positions, so the cap leaves them alone
        for seq in (Q, spec_Q):
            assert q_moment(seq, 51, 2) == slow_q_moment(qs[:52], 2)
            assert q_moment(seq, 51, 1) == slow_q_moment(qs[:51], 1)
        assert q_moment(spec_Q, 50, 2) == slow_q_moment(qs[:51], 2)
        assert q_moment(BasicSequence.constant(2), 10**9, 2) == Fraction(10**9, 4)
    # windows across a base change are the only terms summed one by one
    with size_cap(1):
        with pytest.raises(SizeLimitError):
            q_moment(spec_Q, 100, 2)
        with pytest.raises(SizeLimitError):
            q_moment(Q, 100, 2)


# Segments with bases from a small range (so equal adjacent bases are common),
# multiplicity 0 and blocks of 1 digit (so runs are often shorter than k).
@st.composite
def small_specs(draw):
    segments = []
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.integers(2, 4))
        block = draw(st.lists(st.integers(0, base - 1), min_size=1, max_size=4))
        segments.append(SegmentSpec(draw(st.integers(0, 3)), block, base))
    if not any(seg.multiplicity for seg in segments):
        segments.append(SegmentSpec(1, (1,), 2))
    return ConstructionSpec(tuple(segments))


@given(small_specs(), st.integers(1, 4))
@settings(max_examples=150)
def test_q_moment_closed_form_matches_direct_sum(spec, k):
    Q = BasicSequence.from_spec(spec)
    qs, _ = literal_expansion(spec.segments)
    for n in range(1, spec.total_length - k + 2):
        assert q_moment(Q, n, k) == slow_q_moment(qs[: n + k - 1], k)
    with pytest.raises(NeedsMoreDigitsError):
        q_moment(Q, max(1, spec.total_length - k + 2), k)


@given(small_specs(), st.data())
@settings(max_examples=150)
def test_normality_ratio_over_runs_matches_built_prefix(spec, data):
    exp = CantorExpansion.from_spec(spec)
    digits = spec.digits_prefix(spec.total_length).as_tuple()
    k = data.draw(st.integers(1, min(4, spec.total_length)))
    block = tuple(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
    qs, _ = literal_expansion(spec.segments)
    for n in range(1, spec.total_length - k + 2):
        count = slow_count(block, digits[: n + k - 1])
        assert normality_ratio(exp, block, n) == Fraction(count) / slow_q_moment(qs[: n + k - 1], k)
    with pytest.raises(NeedsMoreDigitsError):
        normality_ratio(exp, block, spec.total_length - k + 2)


def test_normality_ratio_reaches_the_end_of_qnex():
    spec = qnex_spec()
    exp = CantorExpansion.from_spec(spec)
    n = spec.total_length - 1
    assert n == 2_345_622_568_959
    # a prefix of n digits is never built, so a cap of the largest block's
    # 2,097,152 digits, built at the first read, does not stop the count
    with size_cap(2_097_152):
        count = count_occurrences((0, 1), spec.prefix_runs(n + 1))
        ratio = normality_ratio(exp, (0, 1), n)
    assert count == 2_793_472
    assert ratio == Fraction(count) / q_moment(exp.Q, n, 2)
    assert float(ratio) == pytest.approx(1.0000000000583784, abs=1e-15)
    m = 5 * 10**6
    prefix = spec.digits_prefix(m + 1)
    assert count_occurrences((0, 1), spec.prefix_runs(m + 1)) == count_prefix_occurrences((0, 1), prefix, m)


def test_normality_ratio_at_the_end_of_qnex_in_bounded_memory():
    # the count matches each 2**21-digit block in chunks, not by collecting
    # every hit's index, which peaked near 50 MiB
    spec = qnex_spec()
    exp = CantorExpansion.from_spec(spec)
    n = spec.total_length - 1
    tracemalloc.start()
    try:
        normality_ratio(exp, (10,), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


# explicit bases from 2..4, so runs of equal bases form and break
@st.composite
def explicit_expansions(draw):
    qs = draw(st.lists(st.integers(2, 4), min_size=1, max_size=16))
    ds = [draw(st.integers(0, q - 1)) for q in qs]
    return qs, ds


@given(explicit_expansions(), st.data())
@settings(max_examples=150)
def test_explicit_expansion_readers_match_oracles(qd, data):
    qs, ds = qd
    exp = CantorExpansion.from_digits(BasicSequence.explicit(qs), ds)
    assert exp.horizon == len(qs)
    k = data.draw(st.integers(1, min(3, len(qs))))
    block = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    for n in range(1, len(qs) - k + 2):
        moment = slow_q_moment(qs[: n + k - 1], k)
        assert q_moment(exp.Q, n, k) == moment
        assert normality_ratio(exp, block, n) == Fraction(slow_count(block, ds[: n + k - 1])) / moment
    with pytest.raises(NeedsMoreDigitsError):
        normality_ratio(exp, block, len(qs) - k + 2)
    for n in range(len(qs)):
        for tail in range(1, len(qs) - n + 1):
            iv = orbit_point(exp, n, tail)
            assert (iv.lo, iv.hi) == literal_orbit(qs, ds, n, tail)


def test_expansion_without_digits_has_horizon_zero():
    exp = CantorExpansion.from_digits(BasicSequence.explicit([3, 2]), ())
    assert exp.horizon == 0
    assert digits_to_value(exp) == RationalInterval(Fraction(0), Fraction(1))
    with pytest.raises(NeedsMoreDigitsError):
        orbit_point(exp, 0, tail=1)


def test_normality_ratio_frozen():
    Q = BasicSequence.constant(2)
    exp = CantorExpansion.from_digits(Q, (0, 1) * 5)
    assert normality_ratio(exp, (0,), 8) == 1
    assert normality_ratio(exp, (0, 1), 8) == 2
    assert normality_ratio(exp, (1, 1), 8) == 0


# ---------------------------------------------------------------------------
# Orbits.
# ---------------------------------------------------------------------------


@given(rationals, base_lists, st.integers(0, 6), st.integers(2, 8))
@settings(max_examples=120)
def test_orbit_encloses_exact_modular_value(x, qs, n, tail):
    Q = BasicSequence.explicit(qs)
    digits = value_to_digits(x, Q, len(qs))
    exp = CantorExpansion.from_digits(Q, digits)
    iv = orbit_point(exp, n, tail=tail)
    shifted = x * math.prod(qs[:n])
    exact = shifted - math.floor(shifted)
    assert iv.contains(exact)
    assert iv.width == Fraction(1, math.prod(qs[n : n + tail]))


def test_orbit_point_validation():
    Q = BasicSequence.explicit([2, 3, 4])
    exp = CantorExpansion.from_digits(Q, (1, 2, 3))
    with pytest.raises(NeedsMoreDigitsError):
        orbit_point(exp, 1, tail=3)  # needs digit 4
    with pytest.raises(ValueError):
        orbit_point(exp, -1, tail=1)
    with pytest.raises(ValueError):
        orbit_point(exp, 1, tail=0)
    assert orbit_point(exp, 0, tail=2).lo == Fraction(1, 2) + Fraction(2, 6)


def test_orbit_point_tail_honours_size_cap():
    exp = CantorExpansion.from_digits(BasicSequence.explicit([2, 3, 4]), (1, 2, 3))
    with size_cap(3):
        assert orbit_point(exp, 0, tail=3).lo == Fraction(1, 2) + Fraction(2, 6) + Fraction(3, 24)
        with pytest.raises(SizeLimitError):
            orbit_point(exp, 0, tail=4)


# bases at the edges of the int64 chunk widths (2 and 3 fold many digits per
# chunk, 2**31 two, 2**32 and 2**62 one) and past int64, with object digits
chunk_edge_bases = [2, 3, 2**31, 2**32, 2**62, 2**64 + 1]


@st.composite
def orbit_segments(draw):
    """Up to four explicit segments, some with no copies, over small and chunk-edge bases."""
    segs = []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(2, 9) | st.sampled_from(chunk_edge_bases))
        block = draw(st.lists(st.integers(0, q - 1) | st.just(q - 1), min_size=1, max_size=6))
        segs.append(SegmentSpec(draw(st.just(0) | st.integers(1, 30)), block, q))
    if not any(seg.length for seg in segs):
        segs.append(SegmentSpec(1, (1,), 2))
    return segs


# the oracle's Fractions reach thousands of bits past int64 bases, so no deadline
@given(orbit_segments(), st.data())
@settings(max_examples=150, deadline=None)
def test_orbit_numerators_match_literal_orbit(segs, data):
    qs, ds = literal_expansion(segs)
    exp = CantorExpansion.from_spec(ConstructionSpec(tuple(segs)))
    tail = data.draw(st.integers(1, len(qs)))
    ns = data.draw(st.lists(st.integers(0, len(qs) - tail), min_size=1, max_size=8))
    pairs = orbit_numerators(exp, ns, tail)
    assert len(pairs) == len(ns)
    for n, (num, den) in zip(ns, pairs):
        lo, hi = literal_orbit(qs, ds, n, tail)
        assert den == math.prod(qs[n : n + tail])
        assert (Fraction(num, den), Fraction(num + 1, den)) == (lo, hi)
        # orbit_point is the one-element batch
        assert orbit_numerators(exp, [n], tail) == [(num, den)]
        assert orbit_point(exp, n, tail) == RationalInterval(lo, hi)


@pytest.mark.parametrize("q", chunk_edge_bases)
def test_orbit_numerators_at_chunk_edges(q):
    # 133 digits over q, then 6 over base 3: tails either side of every chunk width
    block = [q - 1, 0] + [(7919 * k + 3) % q for k in range(5)]
    segs = [SegmentSpec(19, block, q), SegmentSpec(0, (1,), 5), SegmentSpec(3, (2, 1), 3)]
    qs, ds = literal_expansion(segs)
    exp = CantorExpansion.from_spec(ConstructionSpec(tuple(segs)))
    for tail in (1, 2, 3, 30, 31, 32, 38, 39, 40, 61, 62, 63, 64, 124, 125, 139):
        ns = sorted({n for n in (0, 1, 133 - tail, 135 - tail, len(qs) - tail) if 0 <= n <= len(qs) - tail})
        for n, pair in zip(ns, orbit_numerators(exp, ns, tail)):
            lo, hi = literal_orbit(qs, ds, n, tail)
            assert (Fraction(pair[0], pair[1]), Fraction(pair[0] + 1, pair[1])) == (lo, hi)


def test_orbit_numerators_check_the_cap_once_per_batch(monkeypatch):
    calls = []
    monkeypatch.setattr(cantor_module, "check_cap", lambda required, what="digits": calls.append((required, what)))
    exp = CantorExpansion.from_digits(BasicSequence.explicit([2, 3, 4, 5, 6]), (1, 2, 3, 4, 5))
    assert len(orbit_numerators(exp, [0, 1, 2], 3)) == 3
    assert calls == [(3, "positions")]
    monkeypatch.undo()
    with size_cap(2), pytest.raises(SizeLimitError):
        orbit_numerators(exp, [], 3)


# ---------------------------------------------------------------------------
# Scaled digits and the staircase helpers.
# ---------------------------------------------------------------------------


def test_salat_hypothesis_frozen():
    Q = BasicSequence.from_spec(salat_counterexample_spec(6))
    assert salat_hypothesis(Q, 1) == Fraction(1, 2)
    assert salat_hypothesis(Q, 3) == Fraction(7, 18)
    assert salat_hypothesis(Q, 6) == Fraction(23, 72)
    assert salat_hypothesis(BasicSequence.constant(4), 100) == Fraction(1, 4)


def test_salat_hypothesis_spec_path_matches_direct():
    spec = qde_spec(i_max=5)
    Q = BasicSequence.from_spec(spec)
    qs, _ = literal_expansion(spec.segments)
    for n in (1, 63, 64, 65, 199, 200):
        direct = sum(Fraction(1, q) for q in qs[:n]) / n
        assert salat_hypothesis(Q, n) == direct


def literal_expansion(segs):
    """Base entries and digits of segments, written out position by position."""
    qs, ds = [], []
    for seg in segs:
        qs += [seg.base] * seg.length
        ds += list(seg.block) * seg.multiplicity
    return qs, ds


def test_scaled_value_counts_matches_brute_force():
    spec = qde_spec(i_max=4)
    qs, ds = literal_expansion(spec.segments)
    for n in (1, 63, 64, 65, 100, 550, 551, spec.total_length):
        brute = Counter(map(Fraction, ds[:n], qs[:n]))
        assert scaled_value_counts(spec, n) == brute
        assert sum(scaled_value_counts(spec, n).values()) == n


# small segments (multiplicity, base, block): zero multiplicities, and bases
# up to 301 so digits reach 300 and leave the uint8 dtype, or 2**64 + 1 so a
# digit may be 2**64 and need the object dtype
segments = st.lists(
    st.tuples(st.integers(0, 4), st.integers(2, 301) | st.just(2**64 + 1)).flatmap(
        lambda mb: st.lists(
            st.integers(0, min(mb[1], 301) - 1) | st.just(mb[1] - 1), min_size=1, max_size=5
        ).map(
            lambda digits: SegmentSpec(mb[0], digits, mb[1])
        )
    ),
    min_size=1,
    max_size=5,
)


@given(segments)
@settings(max_examples=150)
def test_prefix_readers_match_literal_expansion(segs):
    spec = ConstructionSpec(tuple(segs))
    qs, ds = literal_expansion(segs)
    exp = CantorExpansion.from_spec(spec)
    # every n, so each cut inside a copy is visited
    for n in range(len(qs) + 1):
        assert spec.digits_prefix(n).as_tuple() == tuple(ds[:n])
        runs = list(spec.q_runs(n))
        assert all(run > 0 for _, run in runs)
        assert [b for b, run in runs for _ in range(run)] == qs[:n]
        if n:
            assert scaled_value_counts(spec, n) == Counter(map(Fraction, ds[:n], qs[:n]))
        # tails from one digit up to the end, crossing copy and segment seams
        for tail in sorted({1, 2, 3, 7, len(qs) - n} - {0}):
            if n + tail <= len(qs):
                iv = orbit_point(exp, n, tail)
                assert (iv.lo, iv.hi) == literal_orbit(qs, ds, n, tail)
    with pytest.raises(NeedsMoreDigitsError):
        spec.digits_prefix(len(qs) + 1)
    # past the horizon the first missing base entry is named
    for n, missing in ((0, len(qs) + 1), (len(qs), len(qs) + 1), (len(qs) + 2, len(qs) + 3)):
        message = f"needs base entries up to position {missing} (only {len(qs)} available)"
        with pytest.raises(NeedsMoreDigitsError, match=rf"^{re.escape(message)}$"):
            orbit_point(exp, n, len(qs) - n + 1 if n <= len(qs) else 1)
    # the tail counts against the size cap, wherever it starts
    if len(qs) >= 2:
        with size_cap(len(qs) - 1):
            assert orbit_point(exp, 1, len(qs) - 1) == RationalInterval(*literal_orbit(qs, ds, 1, len(qs) - 1))
            with pytest.raises(SizeLimitError):
                orbit_point(exp, 0, len(qs))


def matrix_tables(spec, matrix):
    """Each row of a ``scaled_prefix_counts`` matrix as a value -> count Counter, zero counts left out."""
    values = [Fraction(p, q) for p, q in zip(spec.scaled_values.p.tolist(), spec.scaled_values.q.tolist())]
    return [Counter({v: c for v, c in zip(values, row) if c}) for row in matrix.tolist()]


@pytest.mark.parametrize("family", [qde_spec, qnex_spec])
def test_scaled_prefix_counts_match_one_position_tables(family):
    spec = family()
    total = spec.total_length
    rng = random.Random(15)
    positions = {1, total} | {b + d for b in spec.boundaries for d in (-1, 0, 1) if 1 <= b + d <= total}
    positions |= {rng.randrange(1, total + 1) for _ in range(30)}
    positions = sorted(positions)
    matrix = scaled_prefix_counts(spec, positions)
    assert matrix.shape == (len(positions), len(spec.scaled_values.p))
    tables = matrix_tables(spec, matrix)
    assert tables == [scaled_value_counts(spec, n) for n in positions]
    assert matrix.sum(axis=1).tolist() == positions


def copy_counts(spec, n):
    """The scaled-digit table of the first n digits, segment by segment: whole copies, then the cut copy."""
    table, left = Counter(), n
    for seg in spec.segments:
        take = min(left, seg.length)
        full, rem = divmod(take, len(seg.block_digits)) if take else (0, 0)
        block = [Fraction(d, seg.base) for d in seg.block_digits]
        for v, c in Counter(block).items():
            table[v] += full * c
        table.update(block[:rem])
        left -= take
    return +table


@given(segments, st.data())
@settings(max_examples=100)
def test_scaled_prefix_counts_match_literal_expansion(segs, data):
    spec = ConstructionSpec(tuple(segs))
    qs, ds = literal_expansion(segs)
    if not qs:
        return
    positions = range(1, len(qs) + 1)
    expected = [Counter(map(Fraction, ds[:n], qs[:n])) for n in positions]
    assert matrix_tables(spec, scaled_prefix_counts(spec, positions)) == expected
    # a draw of positions, some repeated and some exactly on segment ends, and each one alone
    ends = sorted({b for b in spec.boundaries if b})
    drawn = sorted(data.draw(st.lists(st.sampled_from([*positions, *ends]), min_size=1, max_size=12)))
    assert matrix_tables(spec, scaled_prefix_counts(spec, drawn)) == [expected[n - 1] for n in drawn]
    assert [matrix_tables(spec, scaled_prefix_counts(spec, [n]))[0] for n in drawn] == [expected[n - 1] for n in drawn]
    assert scaled_value_counts(spec, drawn[0]) == expected[drawn[0] - 1]
    # one column per distinct value, ascending, whatever the segments repeat
    values = matrix_tables(spec, np.ones((1, len(spec.scaled_values.p)), dtype=np.int64))[0]
    assert list(values) == sorted(set(map(Fraction, ds, qs)))


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_scaled_prefix_counts_across_empty_segments_and_repeated_digits(rows):
    # zero-copy segments between filled ones, blocks that repeat digits (and
    # two segments over one base that share values), cut copies at every offset
    spec = ConstructionSpec(
        (
            SegmentSpec(0, (1,), 2),
            SegmentSpec(3, (1, 1, 0, 1), 3),
            SegmentSpec(0, (4, 4), 5),
            SegmentSpec(0, (2,), 7),
            SegmentSpec(2, (2, 2, 2), 4),
            SegmentSpec(4, (0, 3, 3, 0, 2), 6),
            SegmentSpec(0, (1,), 2),
            SegmentSpec(1, (0, 4, 2, 4, 4, 4), 6),
        )
    )
    qs, ds = literal_expansion(spec.segments)
    literal = [Counter(map(Fraction, ds[:n], qs[:n])) for n in range(len(qs) + 1)]
    ends = [b for b in spec.boundaries if b]
    positions = sorted([*range(1, len(qs) + 1), *ends, *ends[::2]])
    for at in range(0, len(positions), rows):
        chunk = positions[at : at + rows]
        assert matrix_tables(spec, scaled_prefix_counts(spec, chunk)) == [literal[n] for n in chunk]


def test_scaled_prefix_counts_object_path_over_many_rows():
    # past 2**63 the matrix holds Python ints: rows that cut the long segment
    # at many offsets, repeat, end it exactly, and cut the next one
    big = 2**62 + 3
    spec = ConstructionSpec(
        (SegmentSpec(2, (1, 0, 1), 2), SegmentSpec(0, (4,), 5), SegmentSpec(big, (0, 2, 1, 2), 3), SegmentSpec(5, (3, 0), 4))
    )
    b = spec.boundaries
    positions = sorted([1, 6, 7, 8, 9, 10, 10, 2**63, 2**63 + 1, 2**64 - 1, b[3] - 1, b[3], b[3], b[3] + 1, b[4] - 1, b[4]])
    matrix = scaled_prefix_counts(spec, positions)
    assert matrix.dtype == object
    assert matrix_tables(spec, matrix) == [copy_counts(spec, n) for n in positions]
    assert all(type(c) is int for c in matrix.ravel().tolist())
    assert matrix.sum(axis=1).tolist() == positions


def test_rows_that_end_a_segment_before_an_astronomical_block():
    # the rows fit int64, but one copy of the next block holds each digit
    # more than 2**63 times; rows that take none of it read no digit of it
    huge = build_P_runs(12, 144)
    spec = ConstructionSpec((SegmentSpec(3, (1, 0), 2), SegmentSpec(2, huge, 2**12), SegmentSpec(1, (1,), 3)))
    assert spec.scaled_values.once.dtype == object
    half = Fraction(1, 2)
    for positions in ([2, 6], [6, 6], [1, 2, 3, 6]):
        matrix = scaled_prefix_counts(spec, positions)
        assert matrix.dtype == np.int64
        assert matrix_tables(spec, matrix) == [Counter({half: (n + 1) // 2, 0: n // 2}) for n in positions]
    with size_cap(10**6), pytest.raises(SizeLimitError):
        scaled_prefix_counts(spec, [6, 7])


def test_scaled_prefix_counts_at_every_position_of_a_small_qde():
    spec = qde_spec(i_max=4)
    qs, ds = literal_expansion(spec.segments)
    positions = list(range(1, spec.total_length + 1))
    counted, expected = Counter(), []
    for q, d in zip(qs, ds):
        counted[Fraction(d, q)] += 1
        expected.append(+counted)
    assert matrix_tables(spec, scaled_prefix_counts(spec, positions)) == expected
    assert [copy_counts(spec, n) for n in (1, 64, 65, 550, 551, 2598)] == [expected[n - 1] for n in (1, 64, 65, 550, 551, 2598)]


@pytest.mark.parametrize("n_total, tamper", [(1, None), (20100, None), (24999, None), (24999, 150), (40000, 7)])
def test_staircase_prefix_counts_match_its_literal_digits(n_total, tamper):
    # one-copy rows 1..m over base m + 1, the last one cut.  Up to 256 rows
    # a (row, digit) key fits 16 bits and the entries are grouped by a radix
    # sort; n = 40000 takes 283 rows, so its keys are uint32.  A tampered row
    # repeats a digit and holds 0, so its entries count more than once.
    spec = salat_counterexample_spec(n_total)
    if tamper is not None:
        row = spec.segments[tamper - 1]
        block = [0] + [tamper // 2] * (tamper - 2) + [tamper]
        segs = list(spec.segments)
        segs[tamper - 1] = SegmentSpec(1, block, row.base)
        spec = ConstructionSpec(tuple(segs))
    qs, ds = literal_expansion(spec.segments)
    assert len(qs) == n_total
    ends = [m * (m + 1) // 2 for m in range(1, 300, 37)]
    positions = sorted({1, n_total - 1, n_total} - {0} | {e for e in ends if e <= n_total})
    tables = matrix_tables(spec, scaled_prefix_counts(spec, positions))
    counted, at = Counter(), 0
    for n, table in zip(positions, tables):
        counted.update(map(Fraction, ds[at:n], qs[at:n]))
        at = n
        assert table == +counted
    assert (0 in counted) == (tamper is not None)


@pytest.mark.parametrize("n", [127, 128, 255, 256, 32767, 32768, 65536, 2**31, 2**32])
def test_one_value_counts_reach_every_position(n):
    # every digit is 1 over base 2, so the one count is n itself: at the
    # edges of the small integer types it must not wrap, whether the
    # position ends a run of whole copies, cuts a run of two-digit copies,
    # or cuts a single copy longer than the type holds
    copies = ConstructionSpec((SegmentSpec(n, (1,), 2),))
    assert scaled_prefix_counts(copies, [n]).tolist() == [[n]]
    assert scaled_value_counts(copies, n) == {Fraction(1, 2): n}
    pairs = ConstructionSpec((SegmentSpec(n, (1, 1), 2),))
    assert scaled_prefix_counts(pairs, [n - 1, n]).tolist() == [[n - 1], [n]]
    if n <= 1 << 16:
        cut = ConstructionSpec((SegmentSpec(1, [1] * (n + 1), 2),))
        assert scaled_prefix_counts(cut, [n]).tolist() == [[n]]
        assert scaled_value_counts(cut, n) == {Fraction(1, 2): n}
    values = copies.scaled_values
    assert star_discrepancy_of_rows(values.p, values.q, scaled_prefix_counts(copies, [n]), [n]) == [Fraction(1, 2)]


def test_scaled_prefix_counts_skip_empty_segments():
    spec = ConstructionSpec(
        (
            SegmentSpec(2, (0, 1, 2), 3),
            SegmentSpec(0, (4,), 5),
            SegmentSpec(3, (1, 3), 4),
        )
    )
    qs, ds = literal_expansion(spec.segments)
    positions = [1, 5, 6, 6, 7, 12]  # 6 ends the first segment and is given twice
    tables = matrix_tables(spec, scaled_prefix_counts(spec, positions))
    assert tables == [Counter(map(Fraction, ds[:n], qs[:n])) for n in positions]
    # the empty segment has no entries, so its digit 4/5 gets no column
    starts = spec.scaled_values.starts
    assert starts[1] == starts[2]
    assert Fraction(4, 5) not in matrix_tables(spec, np.ones((1, len(spec.scaled_values.p)), dtype=np.int64))[0]
    assert all(Fraction(4, 5) not in scaled_value_counts(spec, n) for n in positions)
    assert all(0 not in scaled_value_counts(spec, n).values() for n in positions)


def test_scaled_prefix_counts_go_to_object_arrays_past_int64():
    # 2**62 copies over base 2, then base 3: n * max q passes 2**63 at the second position
    big = 2**62
    spec = ConstructionSpec((SegmentSpec(big, (0, 1), 2), SegmentSpec(3, (2, 0, 1), 3)))
    positions = [3, 2 * big + 4]
    matrix = scaled_prefix_counts(spec, positions)
    assert matrix.dtype == object
    half, third, two_thirds = Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)
    expected = [
        Counter({Fraction(0): 2, half: 1}),
        # the first segment whole, then one copy of (2, 0, 1) and the cut copy (2,)
        Counter({Fraction(0): big + 1, half: big, third: 1, two_thirds: 2}),
    ]
    assert matrix_tables(spec, matrix) == expected
    assert [scaled_value_counts(spec, n) for n in positions] == expected
    assert all(type(c) is int for c in scaled_value_counts(spec, positions[1]).values())


def test_scaled_prefix_counts_validation():
    spec = qde_spec(i_max=3)
    with pytest.raises(ValueError, match="must ascend"):
        list(scaled_prefix_counts(spec, [5, 3]))
    with pytest.raises(ValueError):
        list(scaled_prefix_counts(spec, [0, 3]))
    with pytest.raises(NeedsMoreDigitsError):
        list(scaled_prefix_counts(spec, [3, spec.total_length + 1]))


def test_scaled_value_counts_validation():
    spec = qde_spec(i_max=3)
    with pytest.raises(ValueError):
        scaled_value_counts(spec, 0)
    with pytest.raises(NeedsMoreDigitsError):
        scaled_value_counts(spec, spec.total_length + 1)
