"""Enumeration blocks and segment constructions."""

import itertools
from collections import Counter, OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantornormal import blocks as blocks_module
from cantornormal import constructions
from cantornormal.blocks import (
    ConcatSpec,
    DigitString,
    EnumerationRuns,
    concat,
    count_occurrences,
    max_digit,
    tally_blocks,
)
from cantornormal.cantor import CantorExpansion, orbit_point, q_moment, scaled_prefix_counts, scaled_value_counts
from cantornormal.constructions import (
    ConstructionSpec,
    SegmentSpec,
    assemble,
    build_C,
    build_P,
    build_P_runs,
    qde_default_eps,
    qde_spec,
    qnex_spec,
    repetition_count,
    salat_counterexample_spec,
)
from cantornormal.errors import (
    InvalidSpecError,
    NeedsMoreSegmentsError,
    SizeLimitError,
)
from cantornormal.discrepancy import star_discrepancy_of_rows
from cantornormal.limits import size_cap
from cantornormal.verify import DEFAULT_JOBS

from oracles import chunk_runs, literal_enumeration

# ---------------------------------------------------------------------------
# Weighted enumeration blocks.
# ---------------------------------------------------------------------------


def test_build_P_smallest_frozen():
    blk = build_P(2, 1)
    assert type(blk) is DigitString and max_digit(blk) == 2  # no base attached
    assert blk.as_tuple() == (0, 1, 2, 2)


def test_build_P_22_frozen_counts():
    blk = build_P(2, 2)
    assert len(blk) == 32
    assert count_occurrences((2,), blk) == 16
    assert count_occurrences((2, 2), blk) == 8
    assert count_occurrences((0, 0), blk) == 2


@pytest.mark.parametrize("b,w", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_build_P_chunk_structure(b, w):
    # independent structural oracle: cut into length-w chunks, run-length
    # encode, and check the runs against the block's top-digit count
    blk = build_P(b, w)
    runs = chunk_runs(blk.as_tuple(), w)
    chunks = [ch for ch, _ in runs]
    assert chunks == sorted(chunks)
    assert len(set(chunks)) == len(chunks)
    assert set(chunks) == set(itertools.product(range(b + 1), repeat=w))
    rep = 2**b - b
    for ch, r in runs:
        assert r == rep ** ch.count(b)


@pytest.mark.parametrize("b,w", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (6, 1)])
def test_build_P_length_identity(b, w):
    assert len(build_P(b, w)) == w * 2 ** (b * w)


def test_build_P_runs_checks_before_enumerating(monkeypatch):
    # the (b+1)**w runs are checked against the cap on the first read of the
    # run table, before the table is made
    def unreachable(*args):
        raise AssertionError("the run table was enumerated past the cap")

    monkeypatch.setattr(blocks_module, "enumeration_table", unreachable)
    with size_cap(26):
        runs = build_P_runs(2, 3)  # length and top digit need no table
        assert (len(runs), max_digit(runs)) == (3 * 2**6, 2)
        with pytest.raises(SizeLimitError):
            runs.groups
    monkeypatch.setenv("CNL_SIZE_CAP", "26")
    with pytest.raises(SizeLimitError):
        build_P_runs(2, 3).groups
    with pytest.raises(ValueError):
        build_P_runs(2, 0)


def test_build_P_run_parts_agree_with_block():
    for b, w in [(2, 2), (3, 1)]:
        flat = []
        for copies, blk in build_P_runs(b, w).parts:
            flat.extend(blk.as_tuple() * copies)
        assert tuple(flat) == build_P(b, w).as_tuple()


def test_build_P_run_copies_stay_integers_between_int64_and_uint64():
    # 65520**4 lies in [2**63, 2**64): a dtype picked from the values alone
    # would be float64, which a run table refuses
    (copies, table), = build_P_runs(16, 4).groups
    assert copies.dtype == object
    assert copies[-1] == 65520**4 and table[-1].tolist() == [16] * 4
    assert copies.tolist() == [65520 ** row.count(16) for row in table.tolist()]


def test_repetition_count_matches_runs():
    runs = chunk_runs(build_P(3, 2).as_tuple(), 2)
    for ch, r in runs:
        assert repetition_count(3, 2, ch) == r


def test_repetition_count_validation():
    # a digit above b has no place in build_P(b, w); count_top_digit refuses it
    with pytest.raises(ValueError, match="^digit 3 exceeds top digit 2$"):
        repetition_count(2, 2, (0, 3))
    with pytest.raises(ValueError, match="^expected a length-2 block, got length 1$"):
        repetition_count(2, 2, (0,))


def test_build_P_validation_and_cap():
    with pytest.raises(ValueError):
        build_P(1, 1)
    with pytest.raises(ValueError):
        build_P(2, 0)
    with size_cap(10**5), pytest.raises(SizeLimitError):
        build_P(6, 4)


@pytest.mark.parametrize("b,w", [(2, 2), (3, 2), (6, 1)])
def test_build_P_runs_describe_build_P(b, w):
    runs = build_P_runs(b, w)
    assert len(runs.parts) == (b + 1) ** w
    assert len(runs) == w * 2 ** (b * w)
    assert concat(runs).as_tuple() == build_P(b, w).as_tuple()


@pytest.mark.parametrize("b,w", [(2, 1), (2, 2), (2, 3), (3, 2), (6, 1)])
def test_build_P_run_table_is_the_enumeration(b, w):
    # one packed table: every base-(b+1) block of length w in order, with
    # (2**b - b)**(top digits) copies, written out literally
    literal = [(list(tup), ((1 << b) - b) ** tup.count(b)) for tup in itertools.product(range(b + 1), repeat=w)]
    (copies, table), = build_P_runs(b, w).groups
    assert table.shape == ((b + 1) ** w, w)
    assert list(zip(table.tolist(), copies.tolist())) == literal
    pairs = [(blk, c) for c, blk in build_P_runs(b, w).parts]
    assert [(list(blk), c) for blk, c in pairs] == literal
    assert all(type(blk) is DigitString for blk, _ in pairs)
    flat = [d for row, c in literal for d in row * c]
    assert concat(build_P_runs(b, w)).as_tuple() == concat(ConcatSpec([(c, blk) for blk, c in pairs])).as_tuple() == tuple(flat)


def test_build_P_runs_tally_builds_no_run_table():
    # 7**6 runs exceed a cap of 1000, but the 7**3 three-digit blocks do not
    with size_cap(1000):
        runs = build_P_runs(6, 6)
        codes, counts = tally_blocks(runs, 3, 7)
        assert codes.tolist() == list(range(7**3)) and sum(counts.tolist()) == len(runs) - 2
        with pytest.raises(SizeLimitError, match="needs 117649 enumerated runs"):
            runs.groups


_EQUIVALENCE_POINTS = sorted(
    {(kw["b"], kw["w"], kw.get("k", kw.get("k_max"))) for claim, kw in DEFAULT_JOBS if claim in ("eknu", "bounds-ng-nl")}
    | {(6, 6, 3)}
)


@pytest.mark.parametrize("b,w,k_max", _EQUIVALENCE_POINTS)
def test_build_P_runs_closed_form_equals_the_run_scan(b, w, k_max):
    # the closed form against tally_blocks on a plain ConcatSpec of the same runs
    runs = build_P_runs(b, w)
    plain = ConcatSpec(runs.parts)
    for k in range(1, k_max + 1):
        closed, scanned = tally_blocks(runs, k, b + 1), tally_blocks(plain, k, b + 1)
        assert [part.tolist() for part in closed] == [part.tolist() for part in scanned]


@pytest.mark.parametrize("b,w,k", [(2, 2, 1), (2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 2), (4, 2, 3)])
def test_build_P_runs_run_walk_equals_the_closed_form(b, w, k):
    # the occurrence counter walks the run table; tally_blocks reads the closed form
    runs = build_P_runs(b, w)
    codes, counts = tally_blocks(runs, k, b + 1)
    closed = dict(zip(codes.tolist(), counts.tolist()))
    for code, block in enumerate(itertools.product(range(b + 1), repeat=k)):
        assert count_occurrences(block, runs) == closed.get(code, 0)


def test_build_P_runs_cap_counts_runs_not_digits():
    runs = build_P_runs(6, 6)  # 7**6 runs describing ~4.1e11 digits
    assert len(runs) == 6 * 2**36
    with pytest.raises(SizeLimitError):
        concat(runs)
    with size_cap(2400), pytest.raises(SizeLimitError):
        build_P_runs(6, 4).groups
    with size_cap(2401):
        assert len(build_P_runs(6, 4).parts) == 7**4
    with pytest.raises(ValueError):
        build_P_runs(1, 2)


# ---------------------------------------------------------------------------
# Plain enumeration blocks.
# ---------------------------------------------------------------------------


def test_build_C_32_frozen():
    blk = build_C(3, 2)
    assert type(blk) is DigitString and max_digit(blk) == 2
    assert blk.as_tuple() == (0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2, 2, 0, 2, 1, 2, 2)


@pytest.mark.parametrize("b,w", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 1)])
def test_build_C_lists_every_block_once(b, w):
    runs = chunk_runs(build_C(b, w).as_tuple(), w)
    assert all(r == 1 for _, r in runs)
    chunks = [ch for ch, _ in runs]
    assert chunks == sorted(chunks)
    assert len(chunks) == b**w


@pytest.mark.parametrize("b,w", [(2, 3), (3, 2), (4, 2)])
def test_build_C_digit_frequencies(b, w):
    # every digit occurs w * b**(w-1) times, which is why the scaled
    # digits of these blocks spread almost uniformly
    digits = build_C(b, w).as_tuple()
    for d in range(b):
        assert digits.count(d) == w * b ** (w - 1)


def test_build_C_cap():
    with size_cap(10**6), pytest.raises(SizeLimitError):
        build_C(10, 7)


@pytest.mark.parametrize("builder", [build_P, build_C])
def test_enumeration_digits_are_built_once_and_shared(builder):
    first, second = builder(3, 2), builder(3, 2)
    assert first == second
    assert first.digits is second.digits
    assert not first.digits.flags.writeable
    with pytest.raises(ValueError):
        first.digits[0] = 1


def test_enumeration_cache_never_bypasses_the_cap():
    ends = qnex_spec().boundaries[6:]
    for n in ends:
        qnex_spec().digit_at(n)  # every block of the family is now built and kept
    build_C(3, 2)
    with size_cap(5):
        # a spec reads no digit as it is built; its first digit read is refused
        spec = qnex_spec()
        with pytest.raises(SizeLimitError):
            spec.digit_at(ends[0])
        with pytest.raises(SizeLimitError):
            build_C(3, 2)
    with pytest.raises(ValueError):
        build_P(1, 2)
    # blocks built before keep their digits after a refused call
    assert spec.segments[5].block_digits == build_P(6, 2)


def test_enumeration_cache_is_bounded_in_bytes(monkeypatch):
    monkeypatch.setattr(constructions, "_ENUMERATIONS", OrderedDict())
    monkeypatch.setattr(constructions, "_enumerations_nbytes", 0)
    monkeypatch.setattr(constructions, "_ENUMERATIONS_BYTES", 2 * 18)
    a, b = build_C(3, 2), build_C(2, 3)  # 18 and 24 one-byte digits
    assert build_C(2, 3).digits is b.digits
    assert build_C(3, 2).digits is not a.digits  # evicted, least recently used
    assert build_C(3, 2) == a


def test_enumeration_cache_keeps_a_running_byte_total(monkeypatch):
    monkeypatch.setattr(constructions, "_ENUMERATIONS", OrderedDict())
    monkeypatch.setattr(constructions, "_enumerations_nbytes", 0)
    monkeypatch.setattr(constructions, "_ENUMERATIONS_BYTES", 50)

    def held():
        cached = constructions._ENUMERATIONS
        assert constructions._enumerations_nbytes == sum(b.digits.nbytes for b in cached.values())
        return list(cached)

    build_C(3, 2), build_C(2, 3), build_P(2, 1)  # 18, 24 and 4 one-byte digits
    assert held() == [("C", 3, 2), ("C", 2, 3), ("P", 2, 1)]
    build_C(3, 2)  # a hit moves it to the back and evicts nothing
    assert held() == [("C", 2, 3), ("P", 2, 1), ("C", 3, 2)]
    build_C(2, 2)  # 8 more bytes pass 50: the least recently used block goes
    assert held() == [("P", 2, 1), ("C", 3, 2), ("C", 2, 2)]
    build_C(4, 3)  # 192 bytes, over the whole budget: nothing stays
    assert held() == []
    build_P(2, 1)
    assert held() == [("P", 2, 1)]


def test_segment_reads_the_cached_top_digit_of_an_enumeration(monkeypatch):
    monkeypatch.setattr(constructions, "_ENUMERATIONS", OrderedDict())
    monkeypatch.setattr(constructions, "_enumerations_nbytes", 0)
    block = build_P(2, 2)
    [cached] = constructions._ENUMERATIONS.values()
    assert cached is block and build_P(2, 2) is block and block.top == 2
    # the segment keeps the block it is given and reads its top digit, not rescanned
    monkeypatch.setitem(block.__dict__, "top", 7)
    with pytest.raises(InvalidSpecError, match="digit 7 out of range for base 3"):
        SegmentSpec(1, block, 3)
    monkeypatch.setitem(block.__dict__, "top", 2)
    assert SegmentSpec(1, block, 3).block is block
    # a copy of the digits, or a slice of them, is scanned
    assert SegmentSpec(1, block.digits.copy(), 3).block == block
    with pytest.raises(InvalidSpecError, match="digit 2 out of range for base 2"):
        SegmentSpec(1, block[:6], 2)


# ---------------------------------------------------------------------------
# Segment constructions.
# ---------------------------------------------------------------------------


def small_spec():
    return ConstructionSpec(
        (
            SegmentSpec(0, (0, 1), 2),
            SegmentSpec(2, (0, 1), 2),
            SegmentSpec(3, (1, 3), 4),
        ),
        family=None,
    )


def test_segment_spec_validation():
    with pytest.raises(InvalidSpecError):
        SegmentSpec(-1, (0,), 2)
    with pytest.raises(InvalidSpecError):
        SegmentSpec(1, (0, 1), 1)
    with pytest.raises(InvalidSpecError):
        SegmentSpec(1, (3,), 3)  # digit 3 needs base >= 4
    with pytest.raises(InvalidSpecError):
        ConstructionSpec(())


def test_boundaries_and_total_length():
    spec = small_spec()
    assert spec.boundaries == (0, 0, 4, 10)
    assert spec.total_length == 10


def test_assemble_frozen():
    q, digits = assemble(small_spec(), 10)
    assert q == [2, 2, 2, 2, 4, 4, 4, 4, 4, 4]
    assert digits.as_tuple() == (0, 1, 0, 1, 1, 3, 1, 3, 1, 3)


def test_random_access_matches_assembly():
    spec = small_spec()
    q, digits = assemble(spec, spec.total_length)
    for n in range(1, spec.total_length + 1):
        assert spec.q_at(n) == q[n - 1]
        assert spec.digit_at(n) == digits[n - 1]


def test_position_validation():
    spec = small_spec()
    with pytest.raises(ValueError):
        spec.segment_at(0)
    with pytest.raises(NeedsMoreSegmentsError):
        spec.segment_at(11)
    with pytest.raises(NeedsMoreSegmentsError):
        spec.digits_prefix(11)


def test_segment_at_matches_linear_scan():
    spec = small_spec()
    L = spec.boundaries
    m = len(spec.segments)
    for n in range(1, spec.total_length + 1):
        assert spec.segment_at(n) == next(
            s for s in range(1, m + 1) if L[s - 1] < n <= L[s]
        )


def test_idef_and_t0_conventions():
    spec = small_spec()
    L = spec.boundaries
    m = len(spec.segments)
    # prefix convention: the unique i with L[i] < n <= L[i+1]
    for n in range(1, spec.total_length + 1):
        brute = next(i for i in range(m) if L[i] < n <= L[i + 1])
        assert spec.idef_index(n) == brute
    # successor convention: segment containing position n+1
    for n in range(0, spec.total_length):
        assert spec.t0_index(n) == spec.segment_at(n + 1)
    assert spec.idef_index(4) == 1
    assert spec.t0_index(4) == 3
    with pytest.raises(NeedsMoreSegmentsError):
        spec.t0_index(spec.total_length)


def test_q_runs_and_product():
    spec = small_spec()
    assert list(spec.q_runs(10)) == [(2, 4), (4, 6)]
    assert list(spec.q_runs(5)) == [(2, 4), (4, 1)]


def test_spec_json_round_trip(tmp_path):
    for spec in (small_spec(), qde_spec(i_max=4), qnex_spec(i_max=6)):
        again = ConstructionSpec.from_json(spec.to_json())
        assert again == spec
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ConstructionSpec.load(path) == spec


def test_spec_json_generator_provenance():
    spec = qde_spec(i_max=3)
    obj = spec.to_json()
    blocks = [seg["block"] for seg in obj["segments"]]
    assert {"gen": "C", "b": 2, "w": 2} in blocks
    assert {"gen": "C", "b": 3, "w": 2} in blocks
    # generated blocks are stored by recipe, not by their digits
    assert all("digits" not in blk for blk in blocks if blk["gen"] != "explicit")


def test_spec_from_json_validation():
    with pytest.raises(InvalidSpecError):
        ConstructionSpec.from_json({"segments": []})
    with pytest.raises(InvalidSpecError):
        ConstructionSpec.from_json({"segments": "nope"})
    with pytest.raises(InvalidSpecError):
        ConstructionSpec.from_json(
            {"segments": [{"l": 1, "block": {"gen": "X", "b": 2, "w": 2}, "base": 3}]}
        )
    with pytest.raises(InvalidSpecError):
        ConstructionSpec.from_json(
            {"segments": [{"l": 1, "block": {"gen": "explicit"}, "base": 3}]}
        )


SPEC_DATA = Path(__file__).resolve().parent / "data" / "specs"


def mixed_spec():
    # explicit digits, build_P's runs, build_C's runs and a zero-copy filler
    return ConstructionSpec(
        (
            SegmentSpec(0, (0, 1), 2),
            SegmentSpec(3, (1, 0, 2), 3),
            SegmentSpec(2, build_P_runs(2, 2), 4),
            SegmentSpec(4, EnumerationRuns(3, 1, 2), 3),
        ),
        family="mixed",
    )


@pytest.mark.parametrize("name, make", [("qnex", qnex_spec), ("qde", qde_spec), ("mixed", mixed_spec)])
def test_spec_json_bytes_are_frozen(tmp_path, name, make):
    # the files were saved when every block was held as its digits plus a
    # generator tag; a block held as its runs saves the same bytes
    spec = make()
    path = tmp_path / "spec.json"
    spec.save(path)
    assert path.read_bytes() == (SPEC_DATA / f"{name}_spec.json").read_bytes()
    for again in (ConstructionSpec.load(path), ConstructionSpec.from_json(spec.to_json())):
        assert again == spec and hash(again) == hash(spec)


def test_an_explicit_block_saves_as_its_digits():
    # an explicit block has no recipe that could disagree with its digits,
    # not even when they are build_P's own
    spec = ConstructionSpec((SegmentSpec(1, (0, 1, 2), 3), SegmentSpec(1, build_P(2, 2), 3)))
    blocks = [seg["block"] for seg in spec.to_json()["segments"]]
    assert blocks == [{"gen": "explicit", "digits": [0, 1, 2]}, {"gen": "explicit", "digits": list(build_P(2, 2))}]
    again = ConstructionSpec.from_json(spec.to_json())
    assert again == spec and again.boundaries == (0, 3, 35)
    with pytest.raises(TypeError):
        SegmentSpec(1, (0, 1, 2), 3, generator=("P", 2, 2))


def test_segment_refuses_runs_it_cannot_save_or_pack():
    with pytest.raises(InvalidSpecError, match=r"^runs \(3, 5, 2\) are neither build_P's nor build_C's$"):
        SegmentSpec(1, EnumerationRuns(3, 5, 2), 3)
    # any other ConcatSpec is refused, never iterated into digits
    with size_cap(5), pytest.raises(TypeError, match="use concat"):
        SegmentSpec(1, ConcatSpec([(1000, DigitString([0, 1, 2]))]), 3)


_SHAPES = st.sampled_from([(3, 2, 1), (3, 2, 2), (4, 5, 1), (2, 1, 1), (2, 1, 3), (3, 1, 2)])  # (alphabet, rep, w)
_SEGMENTS = st.tuples(
    st.integers(0, 3),
    st.one_of(_SHAPES.map(lambda shape: EnumerationRuns(*shape)), st.lists(st.integers(0, 4), min_size=1, max_size=4)),
    st.integers(0, 2),
)


@given(st.lists(_SEGMENTS, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_enumeration_segments_read_like_their_literal_digits(raw):
    segments = [SegmentSpec(m, block, max(2, max_digit(block) + 1 + extra)) for m, block, extra in raw]
    spec = ConstructionSpec(tuple(segments))
    digits, scaled = [], []
    for seg in segments:
        block = seg.block
        if isinstance(block, EnumerationRuns):
            literal = literal_enumeration(block.alphabet, block.rep, block.w)
        else:
            literal = list(block)
        assert seg.block_digits.as_tuple() == tuple(literal)
        copies = literal * seg.multiplicity
        digits += copies
        scaled += [Fraction(d, seg.base) for d in copies]
    assert spec.total_length == len(digits)
    for n in range(1, len(digits) + 1):
        assert spec.digit_at(n) == digits[n - 1]
        assert concat(spec.prefix_runs(n)).as_tuple() == tuple(digits[:n])
        assert scaled_value_counts(spec, n) == Counter(scaled[:n])


def test_digit_reads_build_an_enumeration_once_per_segment(monkeypatch):
    # a budget below build_P(2, 2)'s 32 bytes caches nothing, so only the
    # segment's own memo saves a rebuild
    monkeypatch.setattr(constructions, "_ENUMERATIONS", OrderedDict())
    monkeypatch.setattr(constructions, "_enumerations_nbytes", 0)
    monkeypatch.setattr(constructions, "_ENUMERATIONS_BYTES", 31)
    calls = []
    real = constructions.build_P

    def counted(b, w):
        calls.append((b, w))
        return real(b, w)

    monkeypatch.setattr(constructions, "build_P", counted)
    spec = ConstructionSpec((SegmentSpec(1, build_P_runs(2, 2), 3), SegmentSpec(3, build_P_runs(2, 2), 4)))
    assert calls == []  # building a spec reads no digit
    literal = literal_enumeration(3, 2, 2)
    for n in range(1, 51):
        assert spec.digit_at(n) == literal[(n - 1) % 32]
    assert calls == [(2, 2), (2, 2)] and not constructions._ENUMERATIONS


def paper_qnex():
    return qnex_spec(i_max=12, w_fn=lambda i: i * i, l_fn=lambda i: 2 ** (4 * i * i))


def paper_qde():
    return qde_spec(i_max=9, w_fn=lambda i: i * i, l_fn=lambda i: i ** (3 * i))


@pytest.mark.parametrize(
    "make, sizes",
    [
        # segment i: (copies, block length, base)
        (paper_qnex, [(2 ** (4 * i * i), i * i * 2 ** (i**3), 2**i) for i in range(6, 13)]),
        (paper_qde, [(i ** (3 * i), i * i * i ** (i * i), i) for i in range(2, 10)]),
    ],
    ids=["qnex", "qde"],
)
def test_paper_parameter_specs_answer_closed_forms(make, sizes):
    spec = make()
    nonempty = [seg for seg in spec.segments if seg.multiplicity]
    assert [(seg.multiplicity, seg.block.length, seg.base) for seg in nonempty] == sizes
    total = sum(m * length for m, length, _ in sizes)
    assert spec.total_length == total and total.bit_length() > 300
    Q = CantorExpansion.from_spec(spec).Q
    assert q_moment(Q, total, 1) == sum(Fraction(m * length, q) for m, length, q in sizes)
    seams = sum(Fraction(1, q * r) for (_, _, q), (_, _, r) in zip(sizes, sizes[1:]))
    assert q_moment(Q, total - 1, 2) == sum(Fraction(m * length - 1, q * q) for m, length, q in sizes) + seams
    for seg in nonempty:
        for k in (1, 2):
            tally = tally_blocks(seg.block, k, seg.base)
            closed = seg.block.window_counts(k, seg.base)
            assert [part.tolist() for part in tally] == [part.tolist() for part in closed]


@pytest.mark.parametrize("make", [paper_qnex, paper_qde], ids=["qnex", "qde"])
def test_paper_parameter_digit_reads_hit_the_cap(make):
    spec = make()
    exp = CantorExpansion.from_spec(spec)
    # the first segment whose block passes the default cap of 10**8 digits
    s = next(s for s, seg in enumerate(spec.segments) if seg.block.length > 10**8)
    n = spec.boundaries[s]
    reads = [
        lambda: spec.digit_at(n + 1),
        lambda: orbit_point(exp, n),
        lambda: scaled_value_counts(spec, n + 1),  # a cut copy of the block reads its digits
        lambda: spec.prefix_runs(n + 1),
    ]
    if n < 10**8:  # a longer prefix is refused for its length alone
        reads.append(lambda: spec.digits_prefix(n + 1))
    for read in reads:
        with pytest.raises(SizeLimitError):
            read()


@pytest.fixture
def no_enumeration_digits(monkeypatch):
    def refuse(b, w):
        raise AssertionError(f"digits of an enumeration read: {b, w}")

    monkeypatch.setattr(constructions, "build_P", refuse)
    monkeypatch.setattr(constructions, "build_C", refuse)


def test_paper_qde_scaled_digits_at_segment_ends(no_enumeration_digits):
    # every segment end takes whole segments only, so each table is a closed
    # form; its D* is 1/i plus less than 2e-7, and exactly 1/2 at i = 2
    spec = paper_qde()
    ends = list(spec.boundaries[2:])
    values = spec.scaled_values
    matrix = scaled_prefix_counts(spec, ends)
    assert matrix.sum(axis=1).tolist() == ends
    d_stars = star_discrepancy_of_rows(values.p, values.q, matrix, ends)
    assert d_stars[0] == Fraction(1, 2)
    for i, d in zip(range(2, 10), d_stars):
        assert Fraction(1, i) <= d < Fraction(1, i) + Fraction(2, 10**7)
    # one row at a time reads the same tables, the last one of them too
    assert scaled_value_counts(spec, ends[-1]) == {
        Fraction(p, q): c for p, q, c in zip(values.p.tolist(), values.q.tolist(), matrix[-1].tolist()) if c
    }


def test_paper_qnex_scaled_values_read_no_digits(no_enumeration_digits):
    spec = paper_qnex()
    values = spec.scaled_values
    # segment i: digits 0..i over base 2**i, the top one 2**i - i times as often as each other
    entries = [(seg, d) for seg in spec.segments if seg.multiplicity for d in range(seg.block.top + 1)]
    once = [
        seg.block.w * (2**seg.block.top) ** (seg.block.w - 1) * (seg.block.rep if d == seg.block.top else 1)
        for seg, d in entries
    ]
    assert values.once.tolist() == once
    assert values.whole.tolist() == [c * seg.multiplicity for c, (seg, _) in zip(once, entries)]
    assert values.digits.tolist() == [d for _, d in entries]
    ends = list(spec.boundaries[6:])
    assert scaled_prefix_counts(spec, ends).sum(axis=1).tolist() == ends


def test_assemble_respects_cap():
    spec = qde_spec()
    with size_cap(10**5), pytest.raises(SizeLimitError):
        assemble(spec, 10**6)


# ---------------------------------------------------------------------------
# The two scaled families and the staircase witness.
# ---------------------------------------------------------------------------


def test_qnex_spec_frozen_shape():
    spec = qnex_spec()
    assert spec.family == "qnex-scaled"
    assert len(spec.segments) == 10
    assert spec.boundaries == (
        0, 0, 0, 0, 0, 0,
        33554432,
        570425344,
        9160359936,
        146599313408,
        2345622568960,
    )
    # segment i: 2**(2i) copies of a length 2*2**(2i) block over base 2**i
    for i in range(6, 11):
        seg = spec.segments[i - 1]
        assert seg.multiplicity == 2 ** (2 * i)
        assert seg.base == 2**i
        assert len(seg.block) == 2 * 2 ** (2 * i)
        assert seg.block == build_P_runs(i, 2)


def test_qnex_digits_stay_within_base():
    spec = qnex_spec()
    # sample the first digits of each nonempty segment
    for i in range(6, 11):
        lo = spec.boundaries[i - 1]
        for n in (lo + 1, lo + 7, spec.boundaries[i]):
            assert 0 <= spec.digit_at(n) <= i  # block digits, not base-1
            assert spec.q_at(n) == 2**i


def test_qnex_spec_guards():
    with pytest.raises(InvalidSpecError):
        qnex_spec(i_min=5)
    with pytest.raises(InvalidSpecError):
        qnex_spec(i_min=8, i_max=7)
    # the paper's parameters build; a digit read is refused
    spec = qnex_spec(w_fn=lambda i: i * i, l_fn=lambda i: 2 ** (4 * i * i))
    with pytest.raises(SizeLimitError):
        spec.digit_at(1)


def test_qde_spec_frozen_shape():
    spec = qde_spec()
    assert spec.family == "qde-scaled"
    assert spec.total_length == 1261414
    assert spec.boundaries[:4] == (0, 0, 64, 550)
    for i in range(2, 13):
        seg = spec.segments[i - 1]
        assert seg.multiplicity == i**3
        assert seg.base == i
        assert len(seg.block) == 2 * i * i
        assert seg.block == EnumerationRuns(i, 1, 2)


def test_default_eps_schedules():
    assert qde_default_eps(1) == Fraction(3, 5)
    assert qde_default_eps(4) == Fraction(1, 4)


def test_salat_staircase_frozen():
    spec = salat_counterexample_spec(10)
    # one segment per row m: digits 1..m once, over base m + 1
    assert [(seg.multiplicity, seg.block.as_tuple(), seg.base) for seg in spec.segments] == [
        (1, (1,), 2), (1, (1, 2), 3), (1, (1, 2, 3), 4), (1, (1, 2, 3, 4), 5)
    ]
    q, digits = assemble(spec, 10)
    assert digits.as_tuple() == (1, 1, 2, 1, 2, 3, 1, 2, 3, 4)
    assert q == [2, 3, 3, 4, 4, 4, 5, 5, 5, 5]
    # truncation mid-row keeps the row prefix
    cut = salat_counterexample_spec(8)
    assert cut.total_length == 8
    assert (cut.segments[-1].block.as_tuple(), cut.segments[-1].base) == ((1, 2), 5)
    with pytest.raises(ValueError):
        salat_counterexample_spec(0)
    with size_cap(9), pytest.raises(SizeLimitError):
        salat_counterexample_spec(10)


@given(st.integers(1, 300))
@settings(max_examples=30)
def test_salat_never_emits_zero_and_digits_fit(n):
    spec = salat_counterexample_spec(n)
    assert spec.total_length == n
    q, digits = assemble(spec, n)
    assert all(d >= 1 for d in digits)
    assert all(d < b for d, b in zip(digits, q))
