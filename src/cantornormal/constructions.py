"""Segmented digit-sequence constructions.

A construction spec is an ordered list of segments ``(l_i, x_i, b_i)``: the
digit sequence is ``l_1`` copies of block ``x_1``, then ``l_2`` copies of
``x_2``, and so on, while the base sequence is constant ``b_i`` across
segment ``i``.  Specs support random access to any digit or base entry,
so astronomically long constructions (the scaled families below reach
lengths around 10**12, the paper's own 2**2312 by i = 12) stay cheap to probe:
a block is explicit digits or an enumeration's runs, whose digits are
built at their first read, under the size cap.

Two enumeration blocks do the heavy lifting:

* ``build_P(b, w)``: every base-(b+1) block of length w in lexicographic
  order, repeated ``(2**b - b)**t`` times where t counts its top digits.
  The repeats make block frequencies match the top-heavy weighting
  ``nu(b)``; the total length is exactly ``w * 2**(b*w)``.
* ``build_C(b, w)``: every base-b block of length w once, in order; total
  length ``w * b**w``.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

import numpy as np

from .blocks import (
    ConcatSpec,
    DigitString,
    EnumerationRuns,
    concat,
    count_top_digit,
    digit_data,
    enumeration_table,
)
from .discrepancy import distinct_values
from .errors import InvalidSpecError, NeedsMoreSegmentsError
from .limits import check_cap


def _check_bw(b: int, w: int) -> None:
    if not isinstance(b, int) or b < 2:
        raise ValueError(f"b must be an integer >= 2, got {b}")
    if not isinstance(w, int) or w < 1:
        raise ValueError(f"w must be an integer >= 1, got {w}")


# The enumeration blocks built so far, least recently used first, and their
# digits' bytes.  Their arrays are read-only down to the memory that owns
# them, so packing shares them, and a block is handed out itself, so its top
# digit is found once.
_ENUMERATIONS: OrderedDict[tuple, DigitString] = OrderedDict()
_enumerations_nbytes = 0
_ENUMERATIONS_BYTES = 16 << 20


def _enumeration(key: tuple, build: Callable[[], np.ndarray]) -> DigitString:
    """The cached block under ``key``, its digits built by ``build()`` on a miss."""
    global _enumerations_nbytes
    block = _ENUMERATIONS.pop(key, None)
    if block is None:
        digits = build()
        digits.setflags(write=False)
        block = DigitString(digits)
        _enumerations_nbytes += digits.nbytes
    _ENUMERATIONS[key] = block
    while _enumerations_nbytes > _ENUMERATIONS_BYTES:
        _enumerations_nbytes -= _ENUMERATIONS.popitem(last=False)[1].digits.nbytes
    return block


def build_P(b: int, w: int) -> DigitString:
    """Weighted enumeration block of digits 0..b, length ``w * 2**(b*w)``.

    Lists all base-(b+1) blocks of length w lexicographically, repeating a
    block with t top digits ``(2**b - b)**t`` times: ``concat`` of
    ``build_P_runs(b, w)``.  The digits are built once per process and
    shared by every DigitString returned; the size cap is checked on every
    call.  The block carries no base: a segment gives it one, and the qnex
    family reads it over base ``2**b``.
    """
    _check_bw(b, w)
    total = w * (1 << (b * w))
    check_cap(total)  # refuse before enumerating the runs
    return _enumeration(("P", b, w), lambda: concat(build_P_runs(b, w)).digits)


def build_P_runs(b: int, w: int) -> EnumerationRuns:
    """build_P(b, w) as its runs, without building its digits.

    The runs are the ``(b+1)**w`` base-(b+1) blocks of length w in
    lexicographic order; a run with t top digits has ``(2**b - b)**t``
    copies.  Its length and top digit are closed forms, and so are its
    window counts up to length w (``EnumerationRuns.window_counts``).  The
    packed run table, one (runs x w) digit table made by
    ``blocks.enumeration_table`` as ``build_C`` is, is built on the first
    read of ``groups``, ``parts`` or the digits, and its runs count against
    the size cap there, not the ``w * 2**(b*w)`` digits they describe.
    """
    _check_bw(b, w)
    return EnumerationRuns(b + 1, (1 << b) - b, w)


def repetition_count(b: int, w: int, block) -> int:
    """How many copies of ``block`` appear consecutively inside build_P(b, w).

    ``block`` is a length-w digit sequence; ``count_top_digit`` refuses a
    digit above b.
    """
    digits = digit_data(block)
    if len(digits) != w:
        raise ValueError(f"expected a length-{w} block, got length {len(digits)}")
    return ((1 << b) - b) ** count_top_digit(digits, b)


def build_C(b: int, w: int) -> DigitString:
    """Plain enumeration block: every base-b block of length w once, in order.

    Built once per process like ``build_P``; the size cap is checked on
    every call.
    """
    _check_bw(b, w)
    total = w * b**w
    check_cap(total)
    def digits() -> np.ndarray:
        table = enumeration_table(b, w)
        table.setflags(write=False)
        return table.reshape(-1)

    return _enumeration(("C", b, w), digits)


def _generator(runs: EnumerationRuns) -> tuple[str, int, int] | None:
    """("P", b, w) or ("C", b, w) when ``runs`` are build_P's or build_C's runs, else None."""
    if runs.rep == 1:
        return "C", runs.alphabet, runs.w
    b = runs.alphabet - 1
    return ("P", b, runs.w) if runs.rep == (1 << b) - b else None


@dataclass(frozen=True)
class SegmentSpec:
    """One construction segment: ``multiplicity`` copies of ``block``, base ``base``.

    ``block`` is build_P's or build_C's EnumerationRuns, or any other digit
    sequence, held packed as a DigitString (a DigitString is kept as given,
    with its top digit).  This is the one place digits meet a base: every
    digit must lie in 0..base-1.  ``length`` is the segment's digit count,
    found at construction; ``block_digits`` reads the block's digits.
    """

    multiplicity: int
    block: DigitString | EnumerationRuns
    base: int

    def __post_init__(self):
        mult, block, base = self.multiplicity, self.block, self.base
        if not isinstance(mult, int) or mult < 0:
            raise InvalidSpecError(f"multiplicity must be an integer >= 0, got {mult}")
        if not isinstance(base, int) or base < 2:
            raise InvalidSpecError(f"segment base must be an integer >= 2, got {base}")
        attrs = self.__dict__  # a frozen instance's attributes, written directly
        if isinstance(block, EnumerationRuns):
            if _generator(block) is None:
                raise InvalidSpecError(f"runs {block.alphabet, block.rep, block.w} are neither build_P's nor build_C's")
        else:
            if not isinstance(block, DigitString):
                block = attrs["block"] = DigitString(block)  # packing refuses any other ConcatSpec
            attrs["block_digits"] = block  # its digits are read already
        if not (length := block.length):
            raise InvalidSpecError("segment block must hold at least one digit")
        if (top := block.top) >= base:
            raise InvalidSpecError(f"digit {top} out of range for base {base}")
        attrs["length"] = mult * length

    @cached_property
    def block_digits(self) -> DigitString:
        """The block's digits, kept once read; an enumeration's come from build_P or build_C."""
        if isinstance(self.block, DigitString):
            return self.block
        gen, b, w = _generator(self.block)
        return (build_P if gen == "P" else build_C)(b, w)


@dataclass(frozen=True)
class ScaledValues:
    """The distinct scaled digits d/base of a spec, ascending, as integer arrays.

    ``p`` and ``q`` hold one (digit, base) pair per distinct value, not
    necessarily in lowest terms, ranked by ``discrepancy.distinct_values``;
    no Fraction is made.  A count vector over ``p``/``q`` is a scaled-digit
    table; ``cantor.scaled_prefix_counts`` fills them.

    The other arrays hold one entry per (segment, distinct digit of its
    block), segment by segment, digits ascending: ``digits`` the digit (in
    the dtype of the segment blocks), ``columns`` its value's column of
    ``p``/``q``, ``once`` how often it occurs in one copy of the block and
    ``whole`` in the whole segment.  ``columns`` is intp, the type numpy
    indexes with; the others are in the narrowest integer type that holds
    them: ``once`` holds the longest block's length and ``whole`` the spec's
    length (object past 2**64 - 1).  Segment s has entries
    ``starts[s]:starts[s + 1]``, none when it has no copies.
    """

    p: np.ndarray
    q: np.ndarray
    digits: np.ndarray
    columns: np.ndarray
    once: np.ndarray
    whole: np.ndarray
    starts: tuple[int, ...]

    @classmethod
    def of(cls, spec: ConstructionSpec) -> ScaledValues:
        """Every segment's block counted at once, with no numpy call per segment.

        The blocks of the segments with copies are counted by one
        ``_digit_entries`` call, and their scaled digits ranked by one
        ``distinct_values`` call.
        """
        segments = spec.segments
        used = [s for s, seg in enumerate(segments) if seg.multiplicity]
        starts = np.zeros(len(segments) + 1, dtype=np.intp)
        if not used:
            none = np.zeros(0, dtype=np.int64)
            return cls(none, none, none, none.astype(np.intp), none, none, tuple(starts.tolist()))
        arrays, tops, bases, copies = zip(
            *((seg.block_digits.digits, seg.block.top, seg.base, seg.multiplicity) for seg in map(segments.__getitem__, used))
        )
        digits, once, counted = _digit_entries(arrays, max(tops) + 1)
        starts[np.array(used) + 1] = counted
        p, q, columns = distinct_values(digits, np.array(bases, dtype=np.min_scalar_type(max(bases))).repeat(counted))
        copies = np.array(copies, dtype=np.min_scalar_type(spec.total_length)).repeat(counted)
        return cls(p, q, digits, columns, once, copies * once, tuple(starts.cumsum().tolist()))


def _digit_entries(arrays: tuple[np.ndarray, ...], width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each array's distinct digits, ascending, and how often each occurs, all arrays at once.

    Returns (digits, once, counted): the entries of one array after another,
    ``digits`` in the arrays' joined dtype and ``once`` in the narrowest
    type that holds the longest array's length, and ``counted[i]`` entries
    for array i.  Every digit is below ``width``.  Each digit gets the key
    i * width + digit, in the narrowest type that holds every key, and one
    stable sort groups equal keys: a radix sort while the keys fit 16 bits.
    No numpy call is made per array, and the temporaries go on return.
    """
    lengths = [len(a) for a in arrays]
    joined = np.concatenate(arrays)
    size = len(arrays) * width
    offsets = np.arange(len(arrays) + 1, dtype=np.min_scalar_type(size)) * width  # each array's first key, then size
    keys = np.repeat(offsets[:-1], lengths)
    keys += joined  # digits are below width, so their type is no wider than the keys'
    keys.sort(kind="stable")
    new = np.empty(len(keys) + 1, dtype=bool)  # where an entry starts, and the end
    new[0] = new[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    edges = np.flatnonzero(new).astype(np.min_scalar_type(len(keys)))
    once = (edges[1:] - edges[:-1]).astype(np.min_scalar_type(max(lengths)))
    pairs = keys[new[:-1]]
    bounds = pairs.searchsorted(offsets)
    counted = bounds[1:] - bounds[:-1]
    return (pairs - offsets[:-1].repeat(counted)).astype(joined.dtype), once, counted


def _segment_from_json(raw) -> SegmentSpec:
    """One entry of a spec's 'segments' list; integers must be JSON integers."""
    try:
        mult, base, block_obj = raw["l"], raw["base"], raw["block"]
        gen = block_obj["gen"]
    except (TypeError, KeyError) as exc:
        raise InvalidSpecError("malformed entry") from exc
    if type(mult) is not int or type(base) is not int:
        raise InvalidSpecError(f"'l' and 'base' must be integers, got {mult!r} and {base!r}")
    if gen in ("P", "C"):
        gb, gw = block_obj.get("b"), block_obj.get("w")
        if type(gb) is not int or type(gw) is not int:
            raise InvalidSpecError(f"generator {gen} needs integer 'b' and 'w'")
        _check_bw(gb, gw)
        return SegmentSpec(mult, build_P_runs(gb, gw) if gen == "P" else EnumerationRuns(gb, 1, gw), base)
    if gen == "explicit":
        digits = block_obj.get("digits")
        if not (isinstance(digits, list) and all(type(d) is int for d in digits)):
            raise InvalidSpecError("explicit block needs a 'digits' list of integers")
        return SegmentSpec(mult, digits, base)
    raise InvalidSpecError(f"unknown generator {gen!r}")


@dataclass(frozen=True)
class ConstructionSpec:
    """Ordered segments defining a base sequence and digit sequence jointly."""

    segments: tuple[SegmentSpec, ...]
    family: str | None = None

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise InvalidSpecError("construction spec needs at least one segment")
        if not all(isinstance(s, SegmentSpec) for s in segs):
            raise InvalidSpecError("segments must be SegmentSpec instances")
        object.__setattr__(self, "segments", segs)

    @cached_property
    def boundaries(self) -> tuple[int, ...]:
        """Cumulative digit counts: boundaries[i] = length through segment i."""
        acc = [0]
        for seg in self.segments:
            acc.append(acc[-1] + seg.length)
        return tuple(acc)

    @property
    def total_length(self) -> int:
        return self.boundaries[-1]

    @cached_property
    def scaled_values(self) -> ScaledValues:
        """The spec's distinct scaled digits as one integer table, built once."""
        return ScaledValues.of(self)

    def _check_position(self, n: int) -> None:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"positions are 1-based integers, got {n}")
        if n > self.total_length:
            raise NeedsMoreSegmentsError(n, self.total_length)

    def segment_at(self, n: int) -> int:
        """1-based index of the segment containing digit position n."""
        self._check_position(n)
        return bisect_left(self.boundaries, n)

    def q_at(self, n: int) -> int:
        """Base entry at position n."""
        return self.segments[self.segment_at(n) - 1].base

    def digit_at(self, n: int) -> int:
        """Digit at position n, via modular indexing into the segment block."""
        s = self.segment_at(n)
        block = self.segments[s - 1].block_digits
        return block[(n - self.boundaries[s - 1] - 1) % len(block)]

    def idef_index(self, n: int) -> int:
        """Index i with boundaries[i] < n <= boundaries[i+1] (prefix convention)."""
        self._check_position(n)
        return bisect_left(self.boundaries, n) - 1

    def t0_index(self, n: int) -> int:
        """Index j with boundaries[j-1] < n+1 <= boundaries[j] (successor convention)."""
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"successor convention needs n >= 0, got {n}")
        if n + 1 > self.total_length:
            raise NeedsMoreSegmentsError(n + 1, self.total_length)
        return bisect_left(self.boundaries, n + 1)

    def prefix_parts(self, n_max: int) -> Iterator[tuple[SegmentSpec, int]]:
        """Yield (segment, positions taken) covering the first n_max positions.

        Segments that contribute no position are skipped; every other
        segment is taken whole except the last, which may end inside a copy.
        """
        if not isinstance(n_max, int) or n_max < 0:
            raise ValueError(f"n_max must be an integer >= 0, got {n_max}")
        if n_max > self.total_length:
            raise NeedsMoreSegmentsError(n_max, self.total_length)
        remaining = n_max
        for seg in self.segments:
            if remaining == 0:
                return
            take = min(remaining, seg.length)
            if take:
                yield seg, take
                remaining -= take

    def q_runs(self, n_max: int) -> Iterator[tuple[int, int]]:
        """Yield (base, run length) pairs covering the first n_max positions."""
        for seg, take in self.prefix_parts(n_max):
            yield seg.base, take

    def prefix_runs(self, n_max: int) -> ConcatSpec:
        """The first n_max >= 1 digits as (copies, block) runs, not built.

        Each segment taken gives its whole copies, then its cut copy.
        """
        parts = []
        for seg, take in self.prefix_parts(n_max):
            block = seg.block_digits
            full, rem = divmod(take, len(block))
            parts.append((full, block))
            if rem:
                parts.append((1, block[:rem]))
        return ConcatSpec(tuple(parts))

    def digits_prefix(self, n_max: int) -> DigitString:
        """Materialize the first n_max digits (size-capped)."""
        check_cap(n_max)
        return concat(self.prefix_runs(n_max)) if n_max else DigitString(())

    def to_json(self) -> dict:
        segments = []
        for seg in self.segments:
            if isinstance(seg.block, EnumerationRuns):
                gen, gb, gw = _generator(seg.block)
                block_obj: dict = {"gen": gen, "b": gb, "w": gw}
            else:
                block_obj = {"gen": "explicit", "digits": list(seg.block)}
            segments.append({"l": seg.multiplicity, "block": block_obj, "base": seg.base})
        out: dict = {"segments": segments}
        if self.family is not None:
            out["family"] = self.family
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ConstructionSpec":
        try:
            raw_segments = obj["segments"]
        except (TypeError, KeyError) as exc:
            raise InvalidSpecError("construction JSON needs a 'segments' list") from exc
        if not isinstance(raw_segments, list) or not raw_segments:
            raise InvalidSpecError("'segments' must be a nonempty list")
        family = obj.get("family")
        if "family" in obj and not isinstance(family, str):
            raise InvalidSpecError(f"'family' must be a string, got {family!r}")
        segments = []
        for idx, raw in enumerate(raw_segments):
            # every error names the entry, the block builders' own included
            try:
                segments.append(_segment_from_json(raw))
            except ValueError as exc:
                raise InvalidSpecError(f"segment {idx}: {exc}") from exc
        return cls(tuple(segments), family=family)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ConstructionSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def assemble(spec: ConstructionSpec, n_max: int) -> tuple[list[int], DigitString]:
    """Materialize the first n_max base entries and digits of a spec."""
    digits = spec.digits_prefix(n_max)
    q: list[int] = []
    for base, run in spec.q_runs(n_max):
        q.extend([base] * run)
    return q, digits


# ---------------------------------------------------------------------------
# Scaled construction families.
# ---------------------------------------------------------------------------


def qnex_spec(
    i_min: int = 6,
    i_max: int = 10,
    w_fn: Callable[[int], int] | None = None,
    l_fn: Callable[[int], int] | None = None,
) -> ConstructionSpec:
    """Scaled Q-normal-but-orbit-collapsing family.

    Segment i < i_min is empty filler ((0,1) with multiplicity 0) so that
    segment indices keep their meaning; segment i >= i_min holds ``l_fn(i)``
    copies of ``build_P_runs(i, w_fn(i))`` over base ``2**i``.  The defaults
    (w=2, l=2**(2i), i in [6, 10]) give a total length around 2.3 * 10**12,
    fine for random access though far beyond materialization.

    The unscaled parameters (w_fn(i) = i*i, l_fn(i) = 2**(4*i*i)) build
    too, but a digit read raises a size-limit error: the very first block
    has 36 * 2**216 digits.
    """
    if not isinstance(i_min, int) or i_min < 6:
        raise InvalidSpecError(f"i_min must be an integer >= 6, got {i_min}")
    if not isinstance(i_max, int) or i_max < i_min:
        raise InvalidSpecError(f"i_max must be >= i_min, got {i_max}")
    w_fn = w_fn or (lambda i: 2)
    l_fn = l_fn or (lambda i: 2 ** (2 * i))
    segments = [SegmentSpec(0, (0, 1), 2) for _ in range(1, i_min)]
    for i in range(i_min, i_max + 1):
        segments.append(SegmentSpec(l_fn(i), build_P_runs(i, w_fn(i)), 2**i))
    return ConstructionSpec(tuple(segments), family="qnex-scaled")


def qde_default_eps(i: int) -> Fraction:
    """Default tolerance schedule for the distribution-normal family."""
    if i == 1:
        return Fraction(3, 5)
    return Fraction(1, i)


def qde_spec(
    i_min: int = 2,
    i_max: int = 12,
    w_fn: Callable[[int], int] | None = None,
    l_fn: Callable[[int], int] | None = None,
) -> ConstructionSpec:
    """Scaled family that is normal in both senses.

    Segment 1 is empty filler; segment i >= i_min holds ``l_fn(i)`` copies
    of build_C(i, w_fn(i))'s runs over base i.  Defaults: w=2, l=i**3,
    i in [2, 12], total length 1,261,414 digits.  The unscaled parameters
    (w_fn(i) = i*i, l_fn(i) = i**(3*i)) build too; digit reads past the cap raise.
    """
    if not isinstance(i_min, int) or i_min < 2:
        raise InvalidSpecError(f"i_min must be an integer >= 2, got {i_min}")
    if not isinstance(i_max, int) or i_max < i_min:
        raise InvalidSpecError(f"i_max must be >= i_min, got {i_max}")
    w_fn = w_fn or (lambda i: 2)
    l_fn = l_fn or (lambda i: i**3)
    segments = [SegmentSpec(0, (0, 1), 2)]
    for i in range(2, i_min):
        segments.append(SegmentSpec(0, (0, 1), i))
    for i in range(i_min, i_max + 1):
        segments.append(SegmentSpec(l_fn(i), EnumerationRuns(i, 1, w_fn(i)), i))
    return ConstructionSpec(tuple(segments), family="qde-scaled")


def salat_counterexample_spec(n_max: int) -> ConstructionSpec:
    """The classic one-direction-only witness, its first n_max positions.

    Row m is one segment: the digits 1, 2, ..., m once, over base m+1.  Rows
    follow in order and the last is cut at n_max positions.  The digit 0
    never occurs, yet the scaled digits d/(m+1) equidistribute.  The n_max
    positions count against the size cap.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max}")
    check_cap(n_max, what="positions")
    # rows 1..full take full(full+1)/2 <= n_max positions, and a cut row
    # takes the rest, fewer than full + 1; every row's digits are a prefix
    # of 1..full, sharing its array
    full = (isqrt(8 * n_max + 1) - 1) // 2
    takes = list(range(1, full + 1))
    if cut := n_max - full * (full + 1) // 2:
        takes.append(cut)
    counting = np.arange(1, full + 1, dtype=np.min_scalar_type(full))
    counting.setflags(write=False)
    rows = DigitString(counting).prefixes(takes)
    return ConstructionSpec(tuple(SegmentSpec(1, row, m + 1) for m, row in enumerate(rows, 1)))
