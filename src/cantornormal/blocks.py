"""Digit strings: construction, counting, file IO.

A digit string is a finite string of non-negative integers with no base
attached; a digit meets its base only in a construction segment
(``constructions.SegmentSpec``), the one place digits are checked against
one.  Occurrence counting is always overlapping, with 1-based start
positions.

Digits are arbitrary-precision integers at the API boundary.  Internally a
digit sequence is one read-only numpy array whose dtype is the smallest
unsigned type holding its top digit (uint8 up to uint64), or ``object``
past 2**64 - 1 so digits of any size still work.  ``_pack_digits`` is the
only place that looks at the input's type; every kernel below has one numpy
path for all dtypes, and digits leave the array as Python ints.

A ``ConcatSpec`` (copies of a few distinct blocks) is never materialized
implicitly: ``tally_blocks`` counts its windows from its packed run tables
and ``count_run_occurrences`` from its parts, and only ``concat`` builds
its digits, under the size cap.  There is one window tally over runs: a
digit sequence is tallied as a single run of one copy.  The weighted
enumeration of every block of a length (``EnumerationRuns``, build_P's
runs) has closed-form window counts for windows no longer than its blocks,
so those are tallied without its run table.  Window counts have one form
throughout: (codes, counts) arrays, a window's code being its digits read
in a base the caller names, the codes in ascending order.
"""
from __future__ import annotations

import functools
import itertools
import operator
import struct
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, NeedsMoreDigitsError
from .limits import check_cap

# windows handled per numpy pass, so scans of long texts use bounded memory
_TALLY_CHUNK = 1 << 22


def _pack_digits(digits) -> np.ndarray:
    """The packed form of a digit sequence, validated.

    Accepts a DigitString (its array is shared), bytes, bytearray, an
    unsigned numpy array (shared when it is read-only, else copied) or any
    iterable of integers.  Each entry is read with ``operator.index``, so a
    float or a string is refused, never truncated.  Digits must be
    non-negative; no base is attached, so ``SegmentSpec`` is where digits
    meet one.
    """
    if isinstance(digits, DigitString):
        return digits.digits
    if isinstance(digits, np.ndarray) and digits.dtype.kind == "u":
        arr = digits.copy() if digits.flags.writeable else digits
    elif isinstance(digits, (bytes, bytearray)):
        arr = np.frombuffer(bytes(digits), dtype=np.uint8)
    else:
        entries = digits if isinstance(digits, (list, tuple)) else list(digits)
        try:
            vals = list(map(operator.index, entries))
        except TypeError:
            for pos, d in enumerate(entries):
                try:
                    operator.index(d)
                except TypeError:
                    raise ValueError(f"digits must be integers, got {d!r} at index {pos}") from None
            raise
        low, top = (min(vals), max(vals)) if vals else (0, 0)
        if low < 0:
            raise ValueError(f"digits must be non-negative, got {low}")
        arr = np.array(vals, dtype=np.min_scalar_type(top))
    arr.setflags(write=False)
    return arr


def digit_data(x) -> np.ndarray:
    """Packed digit array behind a DigitString or plain digit sequence.

    A ConcatSpec is refused: its digits are built only by ``concat``, which
    honours the size cap.
    """
    if isinstance(x, ConcatSpec):
        raise TypeError("a ConcatSpec is not materialized implicitly; use concat(spec)")
    return _pack_digits(x)


def max_digit(x) -> int:
    """Largest digit of a nonempty digit sequence or of a ConcatSpec.

    A DigitString or a ConcatSpec gives its cached ``top``.
    """
    if isinstance(x, (ConcatSpec, DigitString)):
        return x.top
    return int(digit_data(x).max())


@dataclass(frozen=True, eq=False)
class DigitString:
    """Immutable string of non-negative integer digits, no base attached.

    Equal digit strings compare and hash equal whatever input they were
    packed from; indexing gives Python ints and slicing gives a
    DigitString that shares the packed array.  ``top``, the largest digit
    of a nonempty string, is found once.
    """

    digits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "digits", _pack_digits(self.digits))

    def __len__(self) -> int:
        return len(self.digits)

    @functools.cached_property
    def top(self) -> int:
        return int(self.digits.max())

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits.tolist())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return DigitString(self.digits[idx])
        return self.digits.item(idx)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.digits.tolist())

    def __eq__(self, other):
        if not isinstance(other, DigitString):
            return NotImplemented
        return np.array_equal(self.digits, other.digits)

    def __hash__(self) -> int:
        return hash(self.as_tuple())


def exact_type(bound: int):
    """int64 while every integer of a computation stays below ``bound``, else object.

    Copy counts and window counts of a text of n digits are below n, for one.
    """
    return np.int64 if bound < 1 << 63 else object


class ConcatSpec:
    """Concatenation recipe: ordered runs of copies of a block.

    A spec is made from (multiplicity, block) ``parts`` and packs them on
    first use into ``groups``: one (copies vector, runs x length digit
    table) pair per stretch of consecutive runs whose blocks have one
    length, runs with no digits left out.  Multiplicities are >= 0 and at
    least one must be positive.  ``length`` (and ``len`` while it fits an
    index) is the number of digits described, and iteration yields them
    lazily; neither materializes the concatenation.
    """

    def __init__(self, parts):
        checked = []
        for idx, (m, b) in enumerate(parts):
            try:
                m = operator.index(m)
            except TypeError:
                raise InvalidSpecError(f"part {idx}: multiplicity must be an integer, got {m!r}") from None
            if m < 0:
                raise InvalidSpecError(f"part {idx}: multiplicity must be >= 0, got {m}")
            if not isinstance(b, DigitString):
                raise InvalidSpecError(f"part {idx}: concat parts must pair an int with a DigitString")
            checked.append((m, b))
        if not any(m > 0 for m, _ in checked):
            raise InvalidSpecError("at least one multiplicity must be positive")
        self.parts = tuple(checked)
        self.length = sum(m * len(b) for m, b in checked)

    @functools.cached_property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        count_type = exact_type(self.length)
        runs = [(m, b.digits) for m, b in self.parts if m and len(b)]
        out = []
        for _, group in itertools.groupby(runs, key=lambda run: len(run[1])):
            copies, rows = zip(*group)
            table = rows[0][None] if len(rows) == 1 else np.stack(rows)
            table.setflags(write=False)
            out.append((np.array(copies, dtype=count_type), table))
        return tuple(out)

    @functools.cached_property
    def top(self) -> int:
        """Largest digit, read from the run tables, which hold only runs with digits."""
        return max(int(table.max()) for _, table in self.groups)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return itertools.chain.from_iterable(
            itertools.chain.from_iterable(itertools.repeat(row, m))
            for copies, table in self.groups
            for m, row in zip(copies.tolist(), table.tolist())
        )


class EnumerationRuns(ConcatSpec):
    """Every base-``alphabet`` block of length ``w``, in lexicographic order, as runs.

    A block with t top digits (``alphabet - 1``) has ``rep**t`` copies.
    ``constructions.build_P_runs(b, w)`` is ``EnumerationRuns(b + 1, 2**b - b, w)``;
    build_C(b, w) would be ``EnumerationRuns(b, 1, w)``.  The length,
    ``w * s**w`` with s = alphabet - 1 + rep, and the top digit are closed
    forms, and so are the window counts of every length up to w
    (``window_counts``).  The run table behind ``groups``, ``parts`` and
    iteration is built on its first read, and its alphabet**w runs count
    against the size cap there.
    """

    def __init__(self, alphabet: int, rep: int, w: int):
        for name, value, least in (("alphabet", alphabet, 2), ("rep", rep, 1), ("w", w, 1)):
            if not isinstance(value, int) or value < least:
                raise InvalidSpecError(f"{name} must be an integer >= {least}, got {value!r}")
        self.alphabet, self.rep, self.w = alphabet, rep, w
        self.length = w * (alphabet - 1 + rep) ** w

    @property
    def top(self) -> int:
        return self.alphabet - 1

    @functools.cached_property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        check_cap(self.alphabet**self.w, what="enumerated runs")
        table = enumeration_table(self.alphabet, self.w)
        table.setflags(write=False)
        # an explicit dtype: numpy would read a list whose top lies in
        # [2**63, 2**64) as float64
        powers = np.array([self.rep**t for t in range(self.w + 1)], dtype=exact_type(self.length))
        return ((powers[np.count_nonzero(table == self.top, axis=1)], table),)

    @functools.cached_property
    def parts(self) -> tuple[tuple[int, DigitString], ...]:
        (copies, table), = self.groups
        return tuple((m, DigitString(row)) for m, row in zip(copies.tolist(), table))

    def window_counts(self, k: int, alphabet: int) -> tuple[np.ndarray, np.ndarray]:
        """``tally_blocks(self, k, alphabet)`` for a window length k <= w, in closed form.

        Write a = alphabet, r = rep and s = a - 1 + r, so the text has
        n = w * s**w digits.  A block B of length k with t top digits occurs

            N(B) = w * r**t * s**(w-k) - delta(B) = n * mu(B) - delta(B)

        times, where mu gives the top digit mass r/s and every other digit
        1/s (nu(b) for build_P, uniform(b) for build_C), and delta(B) counts
        the 1 <= j < k with B = top**j 0**(k-j) (so it is 0 or 1).

        Count each window at the copy it starts in, at offset p of a copy
        of the length-w block X.  Fixing k digits of X leaves w - k free
        ones, and summing X's r**(top digits) copies over them gives
        r**t * s**(w-k), each free digit adding (a - 1) + r = s.

        * Windows inside one copy (p <= w - k): B at each of the w - k + 1
          offsets, so (w - k + 1) * r**t * s**(w-k).
        * Windows across a seam between two copies of one run, at split
          j = w - p (1 <= j < k): X ends with B[:j] and starts with B[j:],
          which do not overlap as k <= w, and each X has its copies less
          one such seams: (k - 1) * (r**t * s**(w-k) - a**(w-k)).
        * Windows across the seam from the run of X to the run of its
          lexicographic successor X + 1, at split j: X ends with B[:j], and
          X + 1 starts with B[j:].  Unless B[:j] is all top digits, X + 1
          keeps X's first k - j digits, so a**(w-k) blocks X qualify.  When
          it is, X = Y top**j carries into Y, X + 1 = (Y + 1) 0**j, and
          Y -> Y + 1 maps the blocks other than top**(w-j) onto those other
          than 0**(w-j): a**(w-k) blocks, less one when B[j:] = 0**(k-j).

        The a**(w-k) terms cancel between the two kinds of seam, leaving
        N(B).  Every block occurs, so the codes are those of the a**k blocks
        in lexicographic order, read in base ``alphabet`` (at least a); they
        count against the size cap.
        """
        a, r, w = self.alphabet, self.rep, self.w
        check_cap(a**k, what="enumerated blocks")
        s = a - 1 + r
        # the code and the top digits of each length-k block, in lexicographic order
        code_type = exact_type(alphabet**k - 1)
        codes, tops = np.zeros(1, dtype=code_type), np.zeros(1, dtype=np.intp)
        for _ in range(k):
            codes = np.add.outer(codes * alphabet, np.arange(a, dtype=code_type)).ravel()
            tops = np.add.outer(tops, np.arange(a) == a - 1).ravel()
        powers = np.array([w * r**t * s ** (w - k) for t in range(k + 1)], dtype=exact_type(w * r**k * s ** (w - k)))
        counts = powers[tops]
        for j in range(1, k):
            counts[(a**j - 1) * a ** (k - j)] -= 1  # the row of top**j 0**(k-j)
        return codes, counts


def concat(spec) -> DigitString:
    """Concatenate blocks with multiplicities: m1*B1 then m2*B2, etc.

    ``spec`` is a ConcatSpec or a sequence of (multiplicity, block) pairs.
    Zero multiplicities contribute nothing; all-zero spec is rejected.
    The digits built count against the size cap.
    """
    if not isinstance(spec, ConcatSpec):
        spec = ConcatSpec(tuple(spec))
    total = spec.length
    check_cap(total)
    out = np.empty(total, dtype=np.result_type(np.uint8, *(table.dtype for _, table in spec.groups)))
    pos = 0
    for copies, table in spec.groups:
        size = table.shape[1]
        for m, raw in zip(copies.tolist(), table):
            # the m copies are the rows of an (m, size) view; the rows filled
            # so far are copied onward, so a run takes about log2(m) array copies
            rows = out[pos : pos + m * size].reshape(m, size)
            rows[0] = raw
            done = 1
            while done < m:
                rows[done : 2 * done] = rows[: min(done, m - done)]
                done *= 2
            pos += m * size
    out.setflags(write=False)
    return DigitString(out)


def enumeration_table(b: int, w: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Rows lo..hi-1 of the table of every base-b block of length w, in lexicographic order.

    Row i is the base-b expansion of i with w digits, so the row order is
    ``itertools.product(range(b), repeat=w)`` order and a row's index is
    its base-b code.  ``hi`` defaults to ``b**w``; a caller that wants
    bounded memory asks for a range of rows at a time.
    """
    hi = b**w if hi is None else hi
    table = np.empty((hi - lo, w), dtype=np.min_scalar_type(b - 1))
    for j in range(w):
        # digit j of row i is i // place % b, constant on each run of place
        # rows that starts at a multiple of place: the rows before the first
        # such run, the whole runs as one broadcast, then the rows after them
        place = b ** (w - 1 - j)
        col = table[:, j]
        head = min(-lo % place, hi - lo)
        runs, first = (hi - lo - head) // place, -(-lo // place) % b
        col[:head] = lo // place % b
        if runs:
            values = (first + np.arange(runs, dtype=exact_type(b + runs))) % b
            col[head : head + runs * place].reshape(runs, place)[:] = values[:, None]
        col[head + runs * place :] = (first + runs) % b
    return table


def _windows(seq: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Overlapping slices of ``seq`` that hold each length-k window once."""
    for lo in range(0, len(seq) - k + 1, _TALLY_CHUNK):
        yield seq[lo : lo + _TALLY_CHUNK + k - 1]


def _match_mask(pat: list[int], seq: np.ndarray, n: int) -> np.ndarray:
    """Mask of the starts 0..n-1 of ``seq`` at which ``pat`` occurs."""
    hit = seq[:n] == pat[0]
    for j in range(1, len(pat)):
        hit &= seq[j : j + n] == pat[j]
    return hit


def _pattern(block) -> list[int]:
    pat = digit_data(block).tolist()
    if not pat:
        raise ValueError("occurrence counting needs a nonempty block")
    return pat


def count_occurrences(block, text) -> int:
    """Number of (overlapping) occurrences of ``block`` inside ``text``."""
    pat = _pattern(block)
    k = len(pat)
    count = 0
    for part in _windows(digit_data(text), k):
        count += int(np.count_nonzero(_match_mask(pat, part, len(part) - k + 1)))
    return count


def count_run_occurrences(block, spec: ConcatSpec) -> int:
    """Occurrences of ``block`` in m1*B1 m2*B2 ... from the distinct blocks alone.

    One vectorized pass per part, walking the parts from the last: a
    match at offset p of a length-L block stays inside its part of m
    copies for m - (p+k-1)//L of them, and the at most k - 1 windows that
    leave the part are matched on its last k - 1 digits followed by the
    next k - 1 digits of the text.  Counts are exact Python ints.
    """
    if not isinstance(spec, ConcatSpec):
        raise TypeError("count_run_occurrences counts a ConcatSpec; use count_occurrences on digits")
    pat = _pattern(block)
    k = len(pat)
    count = 0
    follow = np.empty(0, dtype=np.uint8)  # the first k-1 digits after the current part
    for m, blk in reversed(spec.parts):
        size = len(blk)
        if m == 0 or size == 0:
            continue
        # one copy, then the k - 1 digits that follow it while the copies repeat
        ext = np.resize(blk.digits, size + k - 1)
        seams = (np.flatnonzero(_match_mask(pat, ext, size)) + k - 1) // size
        for crossed, hits in enumerate(np.bincount(seams).tolist()):
            count += hits * max(0, m - crossed)
        edge = min(k - 1, m * size)
        local = np.concatenate((ext[-edge % size :][:edge], follow))
        if len(local) >= k:
            count += int(np.count_nonzero(_match_mask(pat, local, len(local) - k + 1)))
        follow = np.concatenate((ext[:edge], follow))[: k - 1]
    return count


def count_prefix_occurrences(block, text, n: int) -> int:
    """Occurrences of ``block`` starting at positions 1..n of ``text``.

    Equals counting over the prefix of length n + len(block) - 1; raises
    NeedsMoreDigitsError when the text is shorter than that.
    """
    pat = digit_data(block)
    hay = digit_data(text)
    k = len(pat)
    if k == 0:
        raise ValueError("occurrence counting needs a nonempty block")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"position bound must be an integer >= 1, got {n}")
    required = n + k - 1
    if len(hay) < required:
        raise NeedsMoreDigitsError(required, available=len(hay))
    return count_occurrences(pat, hay[:required])


def count_top_digit(block, b: int) -> int:
    """How many digits of ``block`` equal ``b`` (the top digit of base b+1)."""
    if not isinstance(b, int) or b < 1:
        raise ValueError(f"top digit must be an integer >= 1, got {b}")
    raw = digit_data(block)
    if len(raw) > 0 and (top := max_digit(raw)) > b:
        raise ValueError(f"digit {top} exceeds top digit {b}")
    return int(np.count_nonzero(raw == b))


def tally_blocks(text, length: int, alphabet: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact counts of the length-``length`` windows of ``text``, by base-``alphabet`` code.

    Returns ``(codes, counts)``: the codes of the windows that occur, in
    strictly ascending order, and how often each occurs.  A window's code
    is its digits read in base ``alphabet``, which is its row in
    ``enumeration_table(alphabet, length)``.  Codes are int64 while
    alphabet**length fits, else Python ints; counts are int64 while they
    fit, else Python ints.  Every digit must be below ``alphabet``, or
    distinct windows would share a code.

    ``text`` is a digit sequence or a ConcatSpec.  A digit sequence is
    counted as one run of one copy.  A ConcatSpec is counted from its run
    tables without building its digits, so the work grows with the number
    and length of its distinct runs, not with the length described; an
    EnumerationRuns text is counted from its closed form
    (``EnumerationRuns.window_counts``) while ``length`` is at most its
    block length, and builds no run table.
    """
    if not isinstance(length, int) or length < 1:
        raise ValueError(f"window length must be an integer >= 1, got {length}")
    if isinstance(text, ConcatSpec):
        n = text.length
        top = text.top if n else 0
    else:
        seq = digit_data(text)
        n = len(seq)
        top = int(seq.max()) if n else 0
    if not isinstance(alphabet, int) or alphabet <= top:
        raise ValueError(f"alphabet must be an integer above the top digit {top}, got {alphabet!r}")
    if isinstance(text, EnumerationRuns) and length <= text.w:
        return text.window_counts(length, alphabet)
    if n < length:
        return np.zeros(0, dtype=exact_type(alphabet**length - 1)), np.zeros(0, dtype=np.int64)
    groups = text.groups if isinstance(text, ConcatSpec) else ((np.ones(1, dtype=np.int64), seq[None]),)
    return _tally_runs(groups, length, alphabet)


def _window_codes(digits: np.ndarray, k: int, alpha: int, code_type) -> np.ndarray:
    """Base-``alpha`` codes of the length-k windows along the last axis of ``digits``."""
    n = digits.shape[-1] - k + 1
    codes = digits[..., :n].astype(code_type)
    for j in range(1, k):
        codes *= alpha
        # digits are below alpha, so casting them to the code type is exact
        np.add(codes, digits[..., j : j + n], out=codes, casting="unsafe")
    return codes


def _add_counts(totals: dict[int, int], codes: np.ndarray, weights, size: int) -> None:
    """Add to ``totals`` each code's summed ``weights``, one weight per code.

    An int ``weights`` is every code's weight: the codes are counted and
    each count is scaled by it.  Codes lie below ``size``.  They are
    counted in a dense table while ``size`` is no longer than the codes,
    else by sorting them with ``unique``; an array of weights is summed
    with ``np.add.at`` in its own exact dtype.
    """
    scale = weights if isinstance(weights, int) else 1
    if size <= max(len(codes), 1 << 16):
        if isinstance(weights, int):
            table = np.bincount(codes)
        else:
            table = np.zeros(size, dtype=weights.dtype)
            np.add.at(table, codes, weights)
        found = np.flatnonzero(table)
        sums = table[found]
    elif isinstance(weights, int):
        found, sums = np.unique(codes, return_counts=True)
    else:
        found, inverse = np.unique(codes, return_inverse=True)
        sums = np.zeros(len(found), dtype=weights.dtype)
        np.add.at(sums, inverse, weights)
    for code, c in zip(found.tolist(), sums.tolist()):
        totals[code] += c * scale


def _tally_runs(groups, k: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """tally_blocks over (copies vector, runs x length digit table) groups.

    Every window is counted at the run it starts in.  In a run of c copies
    of a length-L block, the window at offset p of a copy stays inside the
    run for c - (p+k-1)//L of the copies: all c when it fits in one copy
    (p <= L - k), fewer as it crosses seams between copies, none when that
    is <= 0.  Those windows are coded for a chunk of a table's rows at
    once, on each row followed by its own first k - 1 digits, and summed
    with those copy counts as weights.  When a chunk's rows share one copy
    count, as a digit sequence's one row does, the windows that fit in one
    copy are counted unweighted instead and scaled by it, a row longer
    than a chunk taken as ``_windows`` takes flat text.

    The at most k - 1 windows that start in a run and leave it are counted
    once each on a seam text: every run in order, cut to its first and its
    last k - 1 digits when it has more than 2(k - 1).  The first k - 1
    digits after a run's end never reach a cut, so each such window reads
    the same digits there as in the full text.  Weights are int64 while the
    text's length fits, Python ints otherwise.
    """
    code_type = exact_type(alpha**k - 1)
    totals: dict[int, int] = defaultdict(int)
    seam, starts = [], []
    cols = np.arange(2 * (k - 1))
    for copies, table in groups:
        size = table.shape[1]
        inner = max(0, size - k + 1)  # offsets whose window fits in one copy
        # each window of a chunk holds a code, a weight and their selected
        # copies, so a chunk takes a quarter of _TALLY_CHUNK windows
        step = max(1, (_TALLY_CHUNK >> 2) // (size + k - 1))
        for lo in range(0, len(table), step):
            rows, counts = table[lo : lo + step], copies[lo : lo + step]
            first = 0  # the first offset whose windows are weighted
            if inner and (counts == counts[0]).all():
                for part in _windows(rows[0], k) if len(rows) == 1 else (rows,):
                    _add_counts(totals, _window_codes(part, k, alpha, code_type).ravel(), int(counts[0]), alpha**k)
                first = inner
            # the window at offset p crosses (p + k - 1) // size copy seams
            weights = counts[:, None] - (np.arange(first, size) + k - 1) // size
            kept = weights > 0
            if kept.any():
                codes = _window_codes(rows[:, np.arange(first, size + k - 1) % size], k, alpha, code_type)
                _add_counts(totals, codes[kept], weights[kept], alpha**k)
            if k > 1:
                # a run of 2(k-1) digits or more keeps its first k - 1 digits and
                # its last k - 1, which sit at columns (i - 2(k-1)) mod size for
                # i = k-1..2k-3 since its length is a multiple of size
                edges = (cols - np.where(cols < k - 1, 0, 2 * (k - 1))) % size
                span = np.minimum(counts * size, 2 * (k - 1)).astype(np.int64)[:, None]
                kept = cols < span
                seam.append(np.where(span == 2 * (k - 1), rows[:, edges], rows[:, cols % size])[kept])
                starts.append((cols >= span - np.minimum(span, k - 1))[kept])
    if k > 1:
        text, starts = np.concatenate(seam), np.concatenate(starts)
        for lo, part in zip(itertools.count(0, _TALLY_CHUNK), _windows(text, k)):
            codes = _window_codes(part, k, alpha, code_type)
            _add_counts(totals, codes[starts[lo : lo + len(codes)]], 1, alpha**k)
    codes = sorted(totals)
    counts = [totals[code] for code in codes]
    return np.array(codes, dtype=code_type), np.array(counts, dtype=exact_type(max(counts)))


# ---------------------------------------------------------------------------
# Binary digit files: 8-byte little-endian count, then unsigned LEB128 digits.
# ---------------------------------------------------------------------------


def _leb128_encode(value: int, out: bytearray) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def write_digit_file(path, digits, count: int | None = None) -> int:
    """Write digits to ``path`` in the length-prefixed binary format.

    ``digits`` may be a DigitString or digit sequence, or any iterable when
    ``count`` is given.  A ``count`` that differs from the length of a
    sized input is a ValueError, raised before the file is opened; a
    sizeless iterable must yield at least ``count`` digits, of which the
    first ``count`` are written.  Returns the number of digits written.
    """
    try:
        size = len(digits)  # type: ignore[arg-type]
    except TypeError:
        size = None
    if count is None:
        if size is None:
            raise ValueError("count is required for sizeless digit iterables")
        count = size
    count = int(count)
    if count < 0:
        raise ValueError(f"digit count must be >= 0, got {count}")
    if size is not None and size != count:
        raise ValueError(f"count {count} does not match {size} digits")
    if isinstance(digits, (DigitString, np.ndarray)):
        digits = digit_data(digits)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", count))
        if isinstance(digits, np.ndarray) and (len(digits) == 0 or max_digit(digits) < 0x80):
            # every digit < 128 encodes as itself
            fh.write(digits.astype(np.uint8).tobytes())
            return count
        buf = bytearray()
        written = 0
        for d in itertools.islice(iter(digits), count):
            d = int(d)
            if d < 0:
                raise ValueError(f"digits must be non-negative, got {d}")
            _leb128_encode(d, buf)
            written += 1
            if len(buf) >= _TALLY_CHUNK:
                fh.write(buf)
                buf.clear()
        fh.write(buf)
    if written != count:
        raise ValueError(f"iterable yielded {written} digits, expected {count}")
    return count


def read_digit_file(path) -> DigitString:
    """Read a digit file written by :func:`write_digit_file`."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header")
        (count,) = struct.unpack("<Q", header)
        payload = fh.read()
    if len(payload) == count and (count == 0 or max_digit(payload) < 0x80):
        return DigitString(payload)
    digits: list[int] = []
    value = 0
    shift = 0
    for byte in payload:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            digits.append(value)
            value = 0
            shift = 0
    if shift != 0:
        raise ValueError(f"{path}: dangling LEB128 continuation")
    if len(digits) != count:
        raise ValueError(f"{path}: header says {count} digits, file holds {len(digits)}")
    return DigitString(tuple(digits))
