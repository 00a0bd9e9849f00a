"""Digit strings, occurrence counting, and the binary digit file format."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantornormal import blocks as B
from cantornormal.blocks import (
    ConcatSpec,
    DigitString,
    EnumerationRuns,
    concat,
    count_occurrences,
    count_prefix_occurrences,
    count_run_occurrences,
    count_top_digit,
    digit_data,
    enumeration_table,
    max_digit,
    read_digit_file,
    tally_blocks,
    write_digit_file,
)
from cantornormal.cantor import BasicSequence, CantorExpansion
from cantornormal.constructions import SegmentSpec
from cantornormal.errors import InvalidSpecError, NeedsMoreDigitsError, SizeLimitError
from cantornormal.limits import size_cap

from oracles import decode_tally, slow_count, slow_run_tally, slow_tally

digit_lists = st.lists(st.integers(0, 6), min_size=0, max_size=40)
patterns = st.lists(st.integers(0, 6), min_size=1, max_size=5)
# digits above 255 leave the uint8 dtype; 2**64 needs the object dtype
wide_digits = st.integers(0, 300) | st.just(2**64)


def test_block_validation():
    # a block meets its base only in a segment, which packs its digits
    with pytest.raises(InvalidSpecError):
        SegmentSpec(1, (0,), 1)
    with pytest.raises(InvalidSpecError, match="^digit 3 out of range for base 3$"):
        SegmentSpec(1, (0, 3), 3)
    with pytest.raises(ValueError, match="non-negative"):
        SegmentSpec(1, (-1,), 3)
    blk = SegmentSpec(1, (0, 1, 2), 3).block
    assert type(blk) is DigitString
    assert len(blk) == 3
    assert blk.as_tuple() == (0, 1, 2)
    assert list(blk) == [0, 1, 2]
    assert blk[1] == 1


@pytest.mark.parametrize(
    "make, bad",
    [
        (lambda: SegmentSpec(1, (1.5, 2.9), 3), "1.5 at index 0"),
        (lambda: DigitString(["2", 1.7]), "'2' at index 0"),
        (lambda: tally_blocks([0, 0.5, 1.2, 0.9], 1, 2), "0.5 at index 1"),
        (lambda: CantorExpansion.from_digits(BasicSequence.constant(2), (1.5, 0)), "1.5 at index 0"),
    ],
    ids=["SegmentSpec", "DigitString", "tally_blocks", "from_digits"],
)
def test_non_integer_digits_are_refused_not_truncated(make, bad):
    with pytest.raises(ValueError, match=f"^digits must be integers, got {re.escape(bad)}$"):
        make()


def test_digitstring_equal_across_inputs():
    from_tuple = DigitString((3, 1, 4))
    from_bytes = DigitString(bytes([3, 1, 4]))
    from_slice = DigitString((2**64, 3, 1, 4, 300))[1:4]
    assert from_tuple == from_bytes == from_slice
    assert hash(from_tuple) == hash(from_bytes) == hash(from_slice)
    assert from_tuple != DigitString((3, 1, 5))
    # a segment compares its packed digits and its base
    assert SegmentSpec(1, from_tuple, 5) == SegmentSpec(1, (3, 1, 4), 5) == SegmentSpec(1, from_slice, 5)
    assert SegmentSpec(1, from_tuple, 5) != SegmentSpec(1, from_tuple, 6)


def test_digits_leave_the_array_as_python_ints():
    big = 2**64 + 7
    for ds in (DigitString((1, 200)), DigitString((1, 300)), DigitString((1, big))):
        assert all(type(d) is int for d in (ds[0], ds[-1], *ds, *ds.as_tuple()))
        assert all(type(d) is int for d in ds[1:])
    blk = SegmentSpec(1, (0, big, 5), big + 1).block
    assert all(type(d) is int for d in list(blk))
    spec = ConcatSpec(((2, DigitString((0, 300))), (1, DigitString((big,)))))
    assert all(type(d) is int for d in spec)
    for text in (spec, concat(spec), (7, 200, 7, 200)):
        for k in (1, 2, 3):
            codes, counts = tally_blocks(text, k, big + 1)
            assert all(type(x) is int for x in codes.tolist() + counts.tolist())
    assert type(max_digit(spec)) is type(count_top_digit((1, 2), 2)) is int
    assert type(count_occurrences((200,), (7, 200))) is int


def test_digitstring_slicing_and_equality():
    ds = DigitString((3, 1, 4, 1, 5))
    assert ds[1:4].as_tuple() == (1, 4, 1)
    assert ds == DigitString(bytes([3, 1, 4, 1, 5]))
    assert len(DigitString(())) == 0


def test_concat_repeats_blocks_in_order():
    spec = ConcatSpec(((2, DigitString((0, 1))), (3, DigitString((2,)))))
    assert concat(spec).as_tuple() == (0, 1, 0, 1, 2, 2, 2)
    # zero multiplicities contribute nothing
    assert concat(((0, DigitString((1,))), (1, DigitString((0,))))).as_tuple() == (0,)


@pytest.mark.parametrize("m", [2.7, "3", None], ids=["float", "str", "None"])
def test_concat_spec_refuses_non_integer_multiplicity(m):
    # a multiplicity is read with operator.index: never truncated or parsed
    parts = ((1, DigitString((0,))), (m, DigitString((1,))))
    with pytest.raises(InvalidSpecError, match=f"^part 1: multiplicity must be an integer, got {re.escape(repr(m))}$"):
        ConcatSpec(parts)


def test_concat_spec_reads_numpy_integer_multiplicities():
    spec = ConcatSpec(((np.int64(2), DigitString((0, 1))), (np.uint8(1), DigitString((2,)))))
    assert [type(m) for m, _ in spec.parts] == [int, int]
    assert spec.length == 5 and tuple(spec) == (0, 1, 0, 1, 2)


def test_concat_rejects_all_zero_copies():
    with pytest.raises(ValueError):
        ConcatSpec(((0, DigitString((0,))),))


def test_concat_spec_length_and_lazy_digits():
    spec = ConcatSpec(((2, DigitString((0, 1))), (0, DigitString((4,))), (3, DigitString((2,)))))
    assert len(spec) == 7
    assert tuple(spec) == (0, 1, 0, 1, 2, 2, 2)
    # 10**12 copies are described, not built
    huge = ConcatSpec(((10**12, DigitString((0, 1))),))
    assert len(huge) == 2 * 10**12
    assert next(iter(huge)) == 0


def test_concat_honours_size_cap():
    spec = ConcatSpec(((5, DigitString((0, 1))),))
    with size_cap(10):
        assert len(concat(spec)) == 10
    with size_cap(9), pytest.raises(SizeLimitError):
        concat(spec)
    with pytest.raises(SizeLimitError):
        concat(((10**12, DigitString((0, 1))),))
    # past 2**63 digits: len() cannot say, the length and the cap still can
    with pytest.raises(SizeLimitError):
        concat(((10**30, DigitString((0, 1))),))


def test_tally_blocks_over_runs_past_index_size():
    spec = ConcatSpec(((10**30, DigitString((0, 1))),))
    assert spec.length == 2 * 10**30
    assert decode_tally(tally_blocks(spec, 2, 2), 2, 2) == {(0, 1): 10**30, (1, 0): 10**30 - 1}


def test_digit_data_refuses_concat_spec():
    spec = ConcatSpec(((3, DigitString((0, 1))),))
    with pytest.raises(TypeError):
        digit_data(spec)
    with pytest.raises(TypeError):
        count_occurrences((0, 1), spec)


def test_max_digit_paths_agree():
    long_bytes = bytes(300) + b"\x07" + bytes(10)
    assert max_digit(long_bytes) == 7
    assert max_digit(bytearray(long_bytes)) == 7
    assert max_digit(b"\x00\x03\x01") == 3
    assert max_digit((0, 300, 2)) == 300
    spec = ConcatSpec(((0, DigitString((9,))), (2, DigitString((0, 3)))))
    assert max_digit(spec) == 3  # a zero-multiplicity part adds no digits


def test_digit_range_messages_on_long_blocks():
    with pytest.raises(InvalidSpecError, match="digit 5 out of range for base 3"):
        SegmentSpec(1, bytes(300) + b"\x05", 3)
    with pytest.raises(ValueError, match="digit 5 exceeds top digit 4"):
        count_top_digit(bytes(300) + b"\x05", 4)


def test_count_occurrences_frozen():
    # abab has two ab's and one bab has one overlap site
    assert count_occurrences((0, 1), (0, 1, 0, 1)) == 2
    assert count_occurrences((1, 1), (1, 1, 1, 1)) == 3
    assert count_occurrences((2,), (0, 1)) == 0
    assert count_occurrences((0,), ()) == 0


def test_count_occurrences_rejects_empty_pattern():
    with pytest.raises(ValueError):
        count_occurrences((), (0, 1))


@given(patterns, digit_lists)
def test_count_occurrences_matches_sliding_window(pat, text):
    assert count_occurrences(pat, text) == slow_count(pat, text)


@given(st.lists(wide_digits, min_size=1, max_size=4),
       st.lists(wide_digits, min_size=0, max_size=30))
def test_count_occurrences_wide_digits(pat, text):
    assert count_occurrences(pat, text) == slow_count(pat, text)


def test_count_prefix_occurrences_window():
    text = (0, 1, 0, 1, 0)
    # positions 1..3 of (0,1): starts at 1 and 3
    assert count_prefix_occurrences((0, 1), text, 3) == 2
    assert count_prefix_occurrences((0, 1), text, 1) == 1
    with pytest.raises(NeedsMoreDigitsError):
        count_prefix_occurrences((0, 1), text, 5)
    with pytest.raises(ValueError):
        count_prefix_occurrences((0, 1), text, 0)


@given(patterns, digit_lists, st.integers(1, 50))
def test_count_prefix_occurrences_matches_truncation(pat, text, n):
    required = n + len(pat) - 1
    if len(text) < required:
        with pytest.raises(NeedsMoreDigitsError):
            count_prefix_occurrences(pat, text, n)
    else:
        expected = sum(
            1 for i in range(n) if tuple(text[i : i + len(pat)]) == tuple(pat)
        )
        assert count_prefix_occurrences(pat, text, n) == expected


def test_count_top_digit():
    assert count_top_digit((2, 0, 2, 1), 2) == 2
    assert count_top_digit((), 5) == 0
    with pytest.raises(ValueError):
        count_top_digit((3,), 2)


def test_tally_blocks_frozen():
    # (0, 1) and (1, 0) read in base 3 are codes 1 and 3
    codes, counts = tally_blocks((0, 1, 0, 1), 2, 3)
    assert (codes.tolist(), counts.tolist()) == ([1, 3], [2, 1])
    codes, counts = tally_blocks((5,), 2, 6)
    assert len(codes) == len(counts) == 0
    with pytest.raises(ValueError):
        tally_blocks((0, 1), 0, 2)


@pytest.mark.parametrize(
    "text, top",
    [((0, 3, 1), 3), (ConcatSpec(((2, DigitString((0, 4))), (1, DigitString((2,))))), 4), (EnumerationRuns(3, 2, 2), 2)],
    ids=["digits", "ConcatSpec", "EnumerationRuns"],
)
def test_tally_blocks_refuses_a_digit_outside_the_alphabet(text, top):
    # with alphabet = top, the windows (top,) and (1, 0) would share a code
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match=f"^alphabet must be an integer above the top digit {top}, got {top}$"):
            tally_blocks(text, k, top)
        assert len(tally_blocks(text, k, top + 1)[0]) > 0


@given(digit_lists, st.integers(1, 3))
def test_tally_blocks_matches_window_scan(text, length):
    assert decode_tally(tally_blocks(text, length, 7), 7, length) == slow_tally(text, length)


@given(st.lists(wide_digits, min_size=0, max_size=25), st.integers(1, 3))
def test_tally_blocks_wide_digits(text, length):
    alphabet = 2**64 + 1
    assert decode_tally(tally_blocks(text, length, alphabet), alphabet, length) == slow_tally(text, length)


@given(st.lists(st.integers(0, 4), min_size=2, max_size=200), st.integers(1, 4))
@settings(max_examples=40)
def test_tally_blocks_chunked_path(text, length):
    # shrink the chunk size so the vectorized pass crosses chunk seams
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B, "_TALLY_CHUNK", 7)
        assert decode_tally(tally_blocks(bytes(text), length, 5), 5, length) == slow_tally(text, length)


_short_runs = st.tuples(st.integers(0, 3), st.lists(st.integers(0, 4), min_size=1, max_size=3))


@given(st.lists(st.integers(0, 4), min_size=8, max_size=30), st.sampled_from([1, 2, 3, 10**20]), _short_runs,
       _short_runs, st.integers(1, 4))
@settings(max_examples=100)
def test_tally_blocks_chunks_a_long_run(block, copies, before, after, length):
    # the long block is a one-row group of more windows than a chunk holds,
    # between shorter runs
    runs = [before, (copies, block), after]
    spec = ConcatSpec(tuple((m, DigitString(b)) for m, b in runs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B, "_TALLY_CHUNK", 7)
        assert decode_tally(tally_blocks(spec, length, 5), 5, length) == slow_run_tally(runs, length)


@given(st.data())
@settings(max_examples=100)
def test_tally_blocks_chunks_a_run_table(data):
    # a chunk of 40 windows takes up to 10 rows of a run table at once, or
    # one row, and cuts a row of more than 40 digits
    width = data.draw(st.integers(1, 9) | st.integers(41, 50))
    rows = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=width, max_size=width), min_size=2, max_size=12))
    one_count = st.sampled_from([1, 3]).map(lambda c: [c] * len(rows))
    copies = data.draw(one_count | st.lists(st.sampled_from([1, 2, 5]), min_size=len(rows), max_size=len(rows)))
    spec = ConcatSpec(tuple((c, DigitString(row)) for c, row in zip(copies, rows)))
    (_, table), = spec.groups  # equal-length runs pack into one table
    assert len(table) == len(rows)
    text = [d for c, row in zip(copies, rows) for d in row * c]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(B, "_TALLY_CHUNK", 40)
        for k in (1, 2, width, width + 1):
            assert decode_tally(tally_blocks(spec, k, 5), 5, k) == slow_tally(text, k)


# Parts drawn from a small pool so that equal adjacent blocks are common;
# lengths 0..5 make parts shorter than the window.
_pool_block = st.one_of(
    st.lists(st.integers(0, 3), min_size=0, max_size=5),
    st.lists(wide_digits, min_size=1, max_size=4),
)
concat_specs = st.lists(_pool_block, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([DigitString(b) for b in pool])),
        min_size=1,
        max_size=6,
    ).filter(lambda parts: any(m for m, _ in parts))
).map(lambda parts: ConcatSpec(tuple(parts)))


@given(concat_specs)
@settings(max_examples=100)
def test_concat_matches_lazy_digits(spec):
    assert concat(spec).as_tuple() == tuple(spec)


@given(concat_specs, st.integers(1, 4))
@settings(max_examples=300)
def test_tally_blocks_over_runs_matches_window_scan(spec, length):
    alphabet = 2**64 + 1
    assert decode_tally(tally_blocks(spec, length, alphabet), alphabet, length) == slow_tally(concat(spec), length)


@given(concat_specs, st.data())
@settings(max_examples=300)
def test_count_run_occurrences_matches_window_scan(spec, data):
    text = concat(spec).as_tuple()
    # a window of the text half the time, so that most patterns occur
    k = data.draw(st.integers(1, 5))
    if len(text) >= k and data.draw(st.booleans()):
        start = data.draw(st.integers(0, len(text) - k))
        pat = text[start : start + k]
    else:
        pat = tuple(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
    assert count_run_occurrences(pat, spec) == slow_count(pat, text)


def test_count_run_occurrences_frozen():
    spec = ConcatSpec(((3, DigitString((0, 1))), (1, DigitString((1,))), (2, DigitString((1,)))))
    assert count_run_occurrences((1, 1), spec) == 3
    assert count_run_occurrences((0, 1, 0), spec) == 2
    assert count_run_occurrences((0, 1, 1, 1, 1), spec) == 1
    # 10**30 copies are counted, not built
    assert count_run_occurrences((1, 0), ConcatSpec(((10**30, DigitString((0, 1))),))) == 10**30 - 1
    with pytest.raises(TypeError):
        count_run_occurrences((0,), DigitString((0, 1)))
    with pytest.raises(ValueError):
        count_run_occurrences((), spec)


def test_tally_blocks_over_runs_frozen():
    # 3*(0,1) | 1*(1,) | 2*(1,): seams inside a part, between parts, equal blocks
    spec = ConcatSpec(((3, DigitString((0, 1))), (1, DigitString((1,))), (2, DigitString((1,)))))
    assert decode_tally(tally_blocks(spec, 2, 2), 2, 2) == {(0, 1): 3, (1, 0): 2, (1, 1): 3}
    assert decode_tally(tally_blocks(spec, 9, 2), 2, 9) == {(0, 1, 0, 1, 0, 1, 1, 1, 1): 1}
    assert decode_tally(tally_blocks(spec, 10, 2), 2, 10) == {}


# Runs for the run counter: copies 0 and 1 common, block lengths 1..4 so
# that equal-length neighbours share a table and unequal ones split it,
# digits past 255 and past 2**64 in some blocks.
_run_digits = st.one_of(st.integers(0, 2), st.integers(250, 300), st.just(2**64 + 3))
_run_pool = st.lists(st.lists(_run_digits, min_size=1, max_size=4), min_size=1, max_size=4)
run_specs = _run_pool.flatmap(
    lambda pool: st.lists(
        st.tuples(st.sampled_from([0, 1, 1, 2, 3, 7]), st.sampled_from([DigitString(b) for b in pool])),
        min_size=1,
        max_size=7,
    ).filter(lambda parts: any(m for m, _ in parts))
).map(lambda parts: ConcatSpec(tuple(parts)))


@given(run_specs, st.data())
@settings(max_examples=300)
def test_run_counter_matches_window_scan(spec, data):
    longest = max(len(b) for _, b in spec.parts)
    # k = 1, k equal to a block length, and k past every block length
    k = data.draw(st.integers(1, longest + 3))
    text = [d for m, b in spec.parts for d in b.as_tuple() * m]
    alphabet = 2**64 + 4
    assert decode_tally(tally_blocks(spec, k, alphabet), alphabet, k) == slow_tally(text, k)


@given(st.data())
@settings(max_examples=200)
def test_run_table_matches_window_scan(data):
    width = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(st.integers(0, 300), min_size=width, max_size=width), min_size=1, max_size=6))
    copies = data.draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=len(rows), max_size=len(rows)).filter(any))
    spec = ConcatSpec(tuple((c, DigitString(row)) for c, row in zip(copies, rows)))
    text = [d for c, row in zip(copies, rows) for d in row * c]
    assert spec.length == len(text)
    assert concat(spec).as_tuple() == tuple(spec) == tuple(text)
    # one table of the rows with copies, in order
    assert [(c.tolist(), t.tolist()) for c, t in spec.groups] == [
        ([c for c in copies if c], [r for c, r in zip(copies, rows) if c])]
    for k in (1, width, width + 1, width + 3):
        assert decode_tally(tally_blocks(spec, k, 301), 301, k) == slow_tally(text, k)


def test_run_groups_split_on_block_length():
    parts = ((2, DigitString((0, 1))), (0, DigitString((2, 2))), (1, DigitString((1, 0))), (3, DigitString((5,))))
    spec = ConcatSpec(parts + ((4, DigitString(())),))
    assert [(c.tolist(), t.tolist()) for c, t in spec.groups] == [([2, 1], [[0, 1], [1, 0]]), ([3], [[5]])]
    # past 2**63 digits the copy counts are Python ints
    (copies, _), = ConcatSpec(((10**30, DigitString((0, 1))),)).groups
    assert copies.dtype == object and copies.tolist() == [10**30]


def test_one_row_groups_are_read_only_views_of_their_row():
    row = DigitString((1, 2, 3))
    spec = ConcatSpec(((2, DigitString((0,))), (1, row), (4, DigitString((5, 5))), (1, DigitString((4, 4)))))
    groups = spec.groups
    assert [t.shape for _, t in groups] == [(1, 1), (1, 3), (2, 2)]
    assert np.shares_memory(groups[1][1], row.digits)
    assert not any(t.flags.writeable for _, t in groups)


def test_staircase_prefix_stacks_no_single_rows(monkeypatch):
    from cantornormal.constructions import salat_counterexample_spec

    stacked = []
    stack = np.stack
    monkeypatch.setattr(np, "stack", lambda rows, *a, **kw: stacked.append(len(rows)) or stack(rows, *a, **kw))
    digits = salat_counterexample_spec(20100).digits_prefix(20100)
    assert len(digits) == 20100
    assert stacked == []  # 200 rows of 200 lengths: one view each


# ---------------------------------------------------------------------------
# Binary digit files.
# ---------------------------------------------------------------------------


def test_digit_file_format_frozen(tmp_path):
    path = tmp_path / "d.bin"
    write_digit_file(path, (1, 200, 0))
    raw = path.read_bytes()
    # 8-byte little-endian count, then 1, LEB128(200) = 0xC8 0x01, 0
    assert raw == b"\x03\x00\x00\x00\x00\x00\x00\x00" + bytes([1, 0xC8, 0x01, 0])


@given(st.lists(st.integers(0, 10**6), max_size=60))
@settings(max_examples=60)
def test_digit_file_round_trip(tmp_path_factory, digits):
    path = tmp_path_factory.mktemp("io") / "d.bin"
    assert write_digit_file(path, digits) == len(digits)
    assert read_digit_file(path).as_tuple() == tuple(digits)


def test_digit_file_round_trip_bytes_fast_path(tmp_path):
    path = tmp_path / "d.bin"
    data = bytes(range(128)) * 3
    write_digit_file(path, DigitString(data))
    # every digit below 128 is stored as the byte itself
    assert path.read_bytes()[8:] == data
    assert read_digit_file(path) == DigitString(data)


def test_digit_file_iterable_needs_count(tmp_path):
    path = tmp_path / "d.bin"
    with pytest.raises(ValueError):
        write_digit_file(path, iter([1, 2, 3]))
    write_digit_file(path, iter([1, 2, 3]), count=3)
    assert read_digit_file(path).as_tuple() == (1, 2, 3)


def test_digit_file_count_mismatch(tmp_path):
    path = tmp_path / "d.bin"
    with pytest.raises(ValueError, match="yielded 2 digits, expected 5"):
        write_digit_file(path, iter([1, 2]), count=5)


@pytest.mark.parametrize(
    "digits",
    [DigitString([1, 2, 3]), DigitString([200, 2, 3]), [1, 2, 3], [200, 2, 3]],
    ids=["small-string", "wide-string", "small-list", "wide-list"],
)
def test_digit_file_sized_count_mismatch_raises(tmp_path, digits):
    # the byte-per-digit path (small DigitString) and the LEB128 path refuse alike
    path = tmp_path / "d.bin"
    with pytest.raises(ValueError, match="count 2 does not match 3 digits"):
        write_digit_file(path, digits, count=2)
    assert not path.exists()


def test_digit_file_truncation_detected(tmp_path):
    path = tmp_path / "d.bin"
    write_digit_file(path, (1, 2, 3, 4))
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    with pytest.raises(ValueError):
        read_digit_file(path)
    path.write_bytes(data[:4])
    with pytest.raises(ValueError):
        read_digit_file(path)


def test_digit_file_dangling_continuation(tmp_path):
    path = tmp_path / "d.bin"
    path.write_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" + bytes([0x80]))
    with pytest.raises(ValueError):
        read_digit_file(path)


@given(st.integers(2, 6), st.integers(1, 4), st.data())
def test_enumeration_table_rows_are_product_order(b, w, data):
    full = list(itertools.product(range(b), repeat=w))
    assert enumeration_table(b, w).tolist() == [list(row) for row in full]
    lo = data.draw(st.integers(0, b**w))
    hi = data.draw(st.integers(lo, b**w))
    rows = enumeration_table(b, w, lo, hi)
    assert rows.shape == (hi - lo, w) and rows.dtype == np.uint8
    assert rows.tolist() == [list(row) for row in full[lo:hi]]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 4))
def test_enumeration_runs_closed_form_matches_literal_runs(a, r, w):
    # every base-a block of length w in itertools.product order, r**t copies
    # of a block with t top digits: build_P(b, w) is a = b + 1,
    # r = 2**b - b, and build_C(b, w) is r = 1
    runs = [(r ** blk.count(a - 1), blk) for blk in itertools.product(range(a), repeat=w)]
    spec = EnumerationRuns(a, r, w)
    assert spec.length == sum(c * len(blk) for c, blk in runs) and max_digit(spec) == a - 1
    for k in range(1, w + 1):
        assert decode_tally(tally_blocks(spec, k, a), a, k) == slow_run_tally(runs, k)
    assert "groups" not in vars(spec)  # no run table was built
    # past w the runs are scanned
    assert decode_tally(tally_blocks(spec, w + 1, a), a, w + 1) == slow_run_tally(runs, w + 1)


# Every kind of text with its literal window counts: digit sequences, runs
# of up to 10**20 copies, and enumerations in build_P's shape (rep
# 2**b - b) and build_C's (rep 1), the latter tallied past w too.
def _enumeration(a, rep, w):
    runs = [(rep ** blk.count(a - 1), blk) for blk in itertools.product(range(a), repeat=w)]
    return EnumerationRuns(a, rep, w), a - 1, w + 1, lambda k: slow_run_tally(runs, k)


_run_lists = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 3, 10**20]), st.lists(st.integers(0, 4), min_size=1, max_size=4)),
    min_size=1, max_size=6,
).filter(lambda runs: any(c for c, _ in runs))
tally_texts = st.one_of(
    digit_lists.map(lambda t: (t, max(t, default=0), 4, lambda k: slow_tally(t, k))),
    _run_lists.map(lambda runs: (ConcatSpec(tuple((c, DigitString(b)) for c, b in runs)),
                                 max(d for c, b in runs if c for d in b), 4, lambda k: slow_run_tally(runs, k))),
    st.builds(lambda b, w: _enumeration(b + 1, 2**b - b, w), st.integers(2, 4), st.integers(1, 3)),
    st.builds(lambda b, w: _enumeration(b, 1, w), st.integers(2, 4), st.integers(1, 3)),
)


@given(tally_texts, st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_tally_blocks_contract(case, wider, data):
    # ascending codes in any alphabet past the top digit, counts as the
    # literal scan has them; a wider alphabet re-codes the closed form
    text, top, longest, literal = case
    k = data.draw(st.integers(1, longest))
    alphabet = top + wider
    assert decode_tally(tally_blocks(text, k, alphabet), alphabet, k) == literal(k)


@pytest.mark.parametrize("case", [
    ((0, 3, 1, 3, 0), 3, 4, lambda k: slow_tally((0, 3, 1, 3, 0), k)),
    (ConcatSpec(((10**20, DigitString((0, 2))), (3, DigitString((1,))))), 2, 4,
     lambda k: slow_run_tally([(10**20, (0, 2)), (3, (1,))], k)),
    _enumeration(7, 58, 2),
], ids=["digits", "ConcatSpec", "EnumerationRuns"])
def test_tally_blocks_object_codes(case):
    # alphabet**k >= 2**63: the codes are Python ints in an object array
    text, _, longest, literal = case
    alphabet = 2**32
    for k in range(2, longest + 1):
        codes, counts = tally_blocks(text, k, alphabet)
        assert codes.dtype == object
        assert decode_tally((codes, counts), alphabet, k) == literal(k)


def test_enumeration_runs_validation():
    for args in [(1, 1, 1), (2, 0, 1), (2, 1, 0), (2.0, 1, 1)]:
        with pytest.raises(InvalidSpecError):
            EnumerationRuns(*args)


def test_enumeration_table_reaches_rows_past_int64():
    # row i is i written in base b, even where i and b pass 2**64
    b = 2**64 + 5
    rows = enumeration_table(b, 2, b + 3, b + 5)
    assert rows.dtype == object
    assert rows.tolist() == [[1, 3], [1, 4]]
    assert enumeration_table(b, 2, b**2 - 1, b**2).tolist() == [[b - 1, b - 1]]
