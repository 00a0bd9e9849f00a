"""Series expansions of reals against a varying base sequence.

Positions are 1-based throughout.  A base sequence q assigns an integer
q_n >= 2 to each position; a digit sequence E with 0 <= E_n <= q_n - 1
represents the real

    x = sum_n E_n / (q_1 * q_2 * ... * q_n).

All arithmetic is exact (int and Fraction): a finite digit prefix pins x
into a closed rational interval of width 1/(q_1*...*q_n), and the orbit
of x under repeated multiply-by-q_n-mod-1 is enclosed the same way.

A base sequence is held as runs of equal entries and an expansion as a
construction spec (copies of blocks, each segment over one base), so
moments, block counts and orbit tails are read run by run or segment by
segment, never position by position.  Orbit enclosures have one fold,
``orbit_numerators``: a batch of shifts gives one integer pair (num, den)
each, with the tail digits gathered once per segment and folded in 64-bit
chunks; ``orbit_point`` is its one-element ``RationalInterval`` view.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby

import numpy as np

from .blocks import DigitString, count_occurrences, digit_data
from .constructions import ConstructionSpec, SegmentSpec
from .discrepancy import sweep_dtype
from .errors import InvalidSpecError, NeedsMoreDigitsError, NeedsMoreSegmentsError
from .limits import check_cap


def _validate_base(q: int, n: int) -> int:
    if not isinstance(q, int) or q < 2:
        raise InvalidSpecError(f"base entry at position {n} must be an integer >= 2, got {q}")
    return q


class BasicSequence:
    """A base sequence q_1, q_2, ... with entries >= 2, held as runs of equal entries.

    ``runs`` holds (base, length) pairs in order.  A run of length None
    never ends; only a constant sequence, one such run, has one, and its
    ``horizon`` (the largest valid position) is None.  Any other sequence
    ends at its last run.  The constructors check every entry.
    """

    def __init__(self, runs: Iterable[tuple[int, int | None]]):
        self.runs = tuple(runs)
        endless = bool(self.runs) and self.runs[-1][1] is None
        self.horizon = None if endless else sum(length for _, length in self.runs)

    @classmethod
    def constant(cls, q: int) -> "BasicSequence":
        return cls(((_validate_base(q, 1), None),))

    @classmethod
    def explicit(cls, qs: Sequence[int]) -> "BasicSequence":
        qs = tuple(qs)
        if not qs:
            raise InvalidSpecError("explicit base sequence must be nonempty")
        for n, q in enumerate(qs, start=1):
            _validate_base(q, n)
        return cls((q, len(list(run))) for q, run in groupby(qs))

    @classmethod
    def from_spec(cls, spec: ConstructionSpec) -> "BasicSequence":
        return cls(spec.q_runs(spec.total_length))

    def q_runs(self, n_max: int) -> list[tuple[int, int]]:
        """(base, run length) pairs covering the first n_max positions."""
        if self.horizon is not None and n_max > self.horizon:
            raise NeedsMoreDigitsError(n_max, self.horizon, what="base entries")
        out = []
        for base, length in self.runs:
            if n_max == 0:
                break
            take = n_max if length is None else min(n_max, length)
            out.append((base, take))
            n_max -= take
        return out


class CantorExpansion:
    """A digit sequence over a base sequence, held as a construction spec.

    ``spec`` gives the digits segment by segment, each segment over one
    base; ``Q`` is the base sequence the expansion was built against, equal
    to the spec's bases through ``horizon``, the number of digits.
    """

    def __init__(self, spec: ConstructionSpec, Q: BasicSequence):
        self.spec = spec
        self.Q = Q
        self.horizon = spec.total_length

    @classmethod
    def from_digits(cls, Q: BasicSequence, digits) -> "CantorExpansion":
        """``digits`` over Q, cut at Q's runs into one-copy segments.

        Each digit must be an integer in 0..q_n - 1.  ``SegmentSpec`` checks
        each run's digits against its base; when it refuses one, the first
        position out of range is named.  No digits give horizon 0, held as
        one zero-copy filler segment as the scaled families use.
        """
        ds = DigitString(digits)
        segments = []
        start = 0
        for base, length in Q.q_runs(len(ds)):
            piece = ds[start : start + length]
            try:
                segments.append(SegmentSpec(1, piece, base))
            except InvalidSpecError:
                over = piece.digits >= base
                if not over.any():
                    raise
                n = start + int(over.argmax()) + 1
                raise InvalidSpecError(
                    f"digit {ds[n - 1]} at position {n} outside allowed range 0..{base - 1}"
                ) from None
            start += length
        return cls(ConstructionSpec(tuple(segments) or (SegmentSpec(0, (0, 1), 2),)), Q)

    @classmethod
    def from_spec(cls, spec: ConstructionSpec) -> "CantorExpansion":
        return cls(spec, BasicSequence.from_spec(spec))


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] inside [0, 1], exact endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi)}


def digits_to_value(exp: CantorExpansion, n: int | None = None) -> RationalInterval:
    """Enclose the represented real using the first n digits.

    The partial sum is a lower bound; adding one full unit in the last
    place (the width 1/(q_1...q_n)) bounds every admissible tail from
    above, since the tail sum of maximal digits telescopes to exactly
    that width.  n defaults to every digit of the expansion.  The n
    positions read count against the size cap.
    """
    if n is None:
        n = exp.horizon
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n}")
    if n == 0:
        return RationalInterval(Fraction(0), Fraction(1))
    return orbit_point(exp, 0, tail=n)


def value_to_digits(x, Q: BasicSequence, n: int) -> DigitString:
    """First n digits of x in [0, 1) against base sequence Q (greedy).

    Each step peels off the integer part of r * q_m.  For rational x this
    is exact; the digit stream satisfies 0 <= E_m <= q_m - 1 automatically.
    The n positions count against the size cap.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"x must lie in [0, 1), got {x}")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n}")
    check_cap(n, what="positions")
    out = []
    r = x
    for q, run in Q.q_runs(n):
        for _ in range(run):
            r *= q
            d = int(r)
            out.append(d)
            r -= d
    return DigitString(out)


def q_moment(Q: BasicSequence, n: int, k: int) -> Fraction:
    """Normalizer sum_{j=1..n} 1 / (q_j * q_{j+1} * ... * q_{j+k-1}).

    This is the expected count of any fixed length-k block in the first n
    positions under ideal behavior; block counts are compared against it.
    Needs base entries through position n + k - 1.  Summed in closed form
    over Q's runs (``_runs_q_moment``), so n may reach the full length of
    a construction, or any length on a constant base.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    return _runs_q_moment(Q.q_runs(n + k - 1), n, k)


def _runs_q_moment(runs: Iterable[tuple[int, int]], n: int, k: int) -> Fraction:
    """q_moment over (base, length) runs covering positions 1..n+k-1 exactly.

    Runs of equal base are merged first.  Every window that starts in a run
    of base b and fits inside it has product b**k, so those add
    (length - k + 1) / b**k at once.  The at most k - 1 windows that start
    in a run and leave it are summed one by one over the bases after it;
    they are positions visited singly, so they count against the size cap.
    """
    merged: list[list[int]] = []
    for base, length in runs:
        if merged and merged[-1][0] == base:
            merged[-1][1] += length
        else:
            merged.append([base, length])
    check_cap(min(n, len(merged) * (k - 1)), what="positions")
    total = Fraction(0)
    for i, (base, length) in enumerate(merged):
        if length >= k:
            total += Fraction(length - k + 1, base**k)
        # heads[m]: product of the first m bases after this run, as far as they reach
        heads = [1]
        for after, after_len in merged[i + 1 : i + k]:
            for _ in range(min(after_len, k - len(heads))):
                heads.append(heads[-1] * after)
        # the window with its last t digits in this run takes k - t bases after it
        for t in range(max(1, k - len(heads) + 1), min(k - 1, length) + 1):
            total += Fraction(1, base**t * heads[k - t])
    return total


def normality_ratio(exp: CantorExpansion, block, n: int) -> Fraction:
    """Observed-over-expected count of ``block`` in the first n digits.

    Ratio N(B, prefix) / q_moment(Q, n, k); tends to 1 along n exactly
    when the expansion treats B as often as the base sequence allows.  The
    count is ``count_occurrences`` over ``spec.prefix_runs(n + k - 1)``,
    one chunked pass over each distinct segment block and never building
    the prefix, so n may reach the construction's full length in bounded
    memory.
    """
    pat = digit_data(block)
    k = len(pat)
    moment = q_moment(exp.Q, n, k)  # refuses n < 1 and an empty block first
    count = count_occurrences(pat, exp.spec.prefix_runs(n + k - 1))
    return Fraction(count) / moment


@lru_cache(maxsize=256)
def _chunk_powers(q: int) -> tuple[int, np.ndarray]:
    """(c, [q**(c-1), ..., q, 1]) with c = 62 // bits(q - 1), at least 1, so that q**c <= 2**62.

    The powers are uint64, so their product with any unsigned digit array
    stays exact in uint64.
    """
    c = max(1, 62 // (q - 1).bit_length())
    powers = np.array([q**e for e in range(c - 1, -1, -1)] if c > 1 else [1], dtype=np.uint64)
    powers.setflags(write=False)
    return c, powers


def orbit_numerators(exp: CantorExpansion, positions: Iterable[int], tail: int = 64) -> list[tuple[int, int]]:
    """Integer enclosures of T_n(x) = (q_1 ... q_n) * x mod 1, one per shift n in ``positions``.

    The shifted value equals the tail series sum_{m>=1}
    E_{n+m} / (q_{n+1} ... q_{n+m}).  Truncated after ``tail`` terms it is
    num/den with den = q_{n+1} ... q_{n+tail}, and one unit in the last
    place covers the rest, so T_n(x) lies in [num/den, (num+1)/den].  The
    pair (num, den) of Python ints is returned for each n, in order.

    Each window is cut into one piece per segment crossed, and the pieces
    that meet a segment with the same length are folded together: one
    ``take(mode="wrap")`` reads a (pieces x length) index matrix from the
    segment block, left-padded with zeros to a multiple of
    c = 62 // bits(q - 1) digits, so that q**c <= 2**62.  One uint64 matrix
    product gives each chunk of c digits its base-q value, and one Python
    Horner step per chunk folds a row.  A base with q**2 > 2**62 folds one
    digit per step, from the block's own digit array (object past 2**64).
    Pieces join a window's fold in segment order, so a window that
    crosses segment ends folds piece by piece.  Needs digits through
    position n + tail for every n; ``tail``, the positions read per
    enclosure, is checked once against the size cap, and n is not.
    """
    positions = list(positions)
    for n in positions:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"n must be an integer >= 0, got {n}")
    if not isinstance(tail, int) or tail < 1:
        raise ValueError(f"tail must be an integer >= 1, got {tail}")
    check_cap(tail, what="positions")
    spec, horizon = exp.spec, exp.horizon
    bounds = spec.boundaries
    # per (segment, digits taken), the (window, offset in the segment) of each such piece
    pieces: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for row, n in enumerate(positions):
        if n + tail > horizon:
            raise NeedsMoreDigitsError(max(n, horizon) + 1, horizon, what="base entries")
        s, m = bisect_right(bounds, n), tail
        while m:
            if take := min(m, bounds[s] - n):
                pieces.setdefault((s, take), []).append((row, n - bounds[s - 1]))
                n, m = n + take, m - take
            s += 1
    nums, dens = [0] * len(positions), [1] * len(positions)
    for (s, take), group in sorted(pieces.items()):
        seg = spec.segments[s - 1]
        q, digits = seg.base, seg.block_digits.digits
        c, powers = _chunk_powers(q)
        pad = -take % c
        rows, starts = zip(*group)
        first = np.array([start % len(digits) for start in starts])
        chunks = digits.take(first[:, None] + np.arange(-pad, take), mode="wrap")
        if pad:
            chunks[:, :pad] = 0
        if c > 1:
            chunks = chunks.reshape(-1, c).dot(powers).reshape(len(rows), -1)
        step, unit = q**c, q**take
        for row, values in zip(rows, chunks.tolist()):
            num = 0
            for v in values:
                num = num * step + v
            nums[row] = nums[row] * unit + num
            dens[row] *= unit
    return list(zip(nums, dens))


def orbit_point(exp: CantorExpansion, n: int, tail: int = 64) -> RationalInterval:
    """Enclose T_n(x) = (q_1 ... q_n) * x mod 1 from the digits n+1 .. n+tail.

    The one-element ``RationalInterval`` view of ``orbit_numerators``:
    [num/den, (num+1)/den] for the one pair it gives for n.  The ``tail``
    positions count against the size cap; n does not.
    """
    [(num, den)] = orbit_numerators(exp, (n,), tail)
    return RationalInterval(Fraction(num, den), Fraction(num + 1, den))


def scaled_prefix_counts(spec: ConstructionSpec, positions: Iterable[int]) -> np.ndarray:
    """Count matrix of the scaled digits E_m/q_m over m <= n, one row for each n in ``positions``.

    Column j counts the value spec.scaled_values.p[j] / q[j], so row r is
    the scaled-digit table of the first positions[r] digits.  One walk over
    the segments, read from the flat arrays of ``spec.scaled_values``: the
    whole segments reached since the last position add their ``whole``
    counts to a running row as one range of entries, by one ``np.add.at``.
    Each position's row is the running row plus its cut segment's whole
    copies times its ``once`` counts, plus the cut copy's digits, placed
    among the segment's ascending digits by one ``searchsorted`` and
    counted by one ``np.bincount``.  No digit is read per position, no
    Fraction is made, and nothing counts against the size cap, so
    positions may be astronomically large as long as the construction
    reaches them.  Counts are exact integers: the matrix is int64 while
    ``sweep_dtype`` for the largest position says so, else object.
    Positions must not descend; each is checked as it is reached.
    """
    bounds = spec.boundaries
    positions = list(positions)
    prev = 1
    for n in positions:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n}")
        if n < prev:
            raise ValueError(f"positions must ascend, got {n} after {prev}")
        if n > spec.total_length:
            raise NeedsMoreSegmentsError(n, spec.total_length)
        prev = n
    table = spec.scaled_values
    starts = table.starts
    dtype = sweep_dtype(int(table.q.max(initial=1)), prev)
    rows = np.zeros((len(positions), len(table.p)), dtype=dtype)
    running = np.zeros(len(table.p), dtype=dtype)
    s = 0  # segments 1..s are in the running row
    for row, n in zip(rows, positions):
        if (reached := bisect_right(bounds, n) - 1) > s:
            whole = slice(starts[s], starts[reached])
            np.add.at(running, table.columns[whole], table.whole[whole].astype(dtype, copy=False))
            s = reached
        row += running
        if take := n - bounds[s]:
            block = spec.segments[s].block_digits
            full, rem = divmod(take, len(block))
            cut = slice(starts[s], starts[s + 1])
            present = table.digits[cut]
            part = np.bincount(present.searchsorted(block.digits[:rem]), minlength=len(present))
            row[table.columns[cut]] += full * table.once[cut].astype(dtype, copy=False) + part.astype(dtype, copy=False)
    return rows


def scaled_value_counts(spec: ConstructionSpec, n: int) -> dict[Fraction, int]:
    """Multiplicity table of the scaled digits E_m/q_m over positions m <= n.

    A view of the one row ``scaled_prefix_counts(spec, [n])``: its nonzero
    entries, one Fraction each.  Closed form per segment, no digit read per
    position, nothing against the size cap.
    """
    table = spec.scaled_values
    row = scaled_prefix_counts(spec, (n,))[0]
    found = row.nonzero()[0]
    return {
        Fraction(p, q): c
        for p, q, c in zip(table.p.take(found).tolist(), table.q.take(found).tolist(), row.take(found).tolist())
    }


def salat_hypothesis(Q: BasicSequence, n: int) -> Fraction:
    """Mean reciprocal base (1/n) * sum_{m=1..n} 1/q_m, exact."""
    return q_moment(Q, n, 1) / n
