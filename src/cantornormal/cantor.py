"""Series expansions of reals against a varying base sequence.

Positions are 1-based throughout.  A base sequence q assigns an integer
q_n >= 2 to each position; a digit sequence E with 0 <= E_n <= q_n - 1
represents the real

    x = sum_n E_n / (q_1 * q_2 * ... * q_n).

All arithmetic is exact (int and Fraction): a finite digit prefix pins x
into a closed rational interval of width 1/(q_1*...*q_n), and the orbit
of x under repeated multiply-by-q_n-mod-1 is enclosed the same way.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .blocks import DigitString, count_prefix_occurrences, count_run_occurrences, digit_data, tally_blocks
from .constructions import ConstructionSpec
from .errors import InvalidSpecError, NeedsMoreDigitsError
from .limits import check_cap


def _validate_base(q: int, n: int) -> int:
    if not isinstance(q, int) or q < 2:
        raise InvalidSpecError(f"base entry at position {n} must be an integer >= 2, got {q}")
    return q


class BasicSequence:
    """A base sequence q_1, q_2, ... with entries >= 2.

    Backed by a constant, an explicit finite list, a construction spec, or
    an arbitrary rule.  Finite backings expose a ``horizon`` (the largest
    valid position); unbounded backings have ``horizon`` None.
    """

    def __init__(self, fn: Callable[[int], int], horizon: int | None = None,
                 const: int | None = None, spec: ConstructionSpec | None = None):
        self._fn = fn
        self.horizon = horizon
        self.const = const
        self.spec = spec

    @classmethod
    def constant(cls, q: int) -> "BasicSequence":
        _validate_base(q, 1)
        return cls(lambda n: q, horizon=None, const=q)

    @classmethod
    def explicit(cls, qs: Sequence[int]) -> "BasicSequence":
        qs = tuple(qs)
        if not qs:
            raise InvalidSpecError("explicit base sequence must be nonempty")
        for n, q in enumerate(qs, start=1):
            _validate_base(q, n)

        def fn(n: int, _qs=qs) -> int:
            return _qs[n - 1]

        return cls(fn, horizon=len(qs))

    @classmethod
    def from_spec(cls, spec: ConstructionSpec) -> "BasicSequence":
        return cls(spec.q_at, horizon=spec.total_length, spec=spec)

    def q(self, n: int) -> int:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"positions are 1-based integers, got {n}")
        if self.horizon is not None and n > self.horizon:
            raise NeedsMoreDigitsError(n, self.horizon, what="base entries")
        return _validate_base(self._fn(n), n)

    def prefix(self, n: int) -> list[int]:
        return [self.q(m) for m in range(1, n + 1)]


class CantorExpansion:
    """A digit sequence paired with its base sequence."""

    def __init__(self, Q: BasicSequence, digit_fn: Callable[[int], int],
                 horizon: int | None = None, spec: ConstructionSpec | None = None):
        self.Q = Q
        self._digit_fn = digit_fn
        horizons = [h for h in (horizon, Q.horizon) if h is not None]
        self.horizon = min(horizons) if horizons else None
        self.spec = spec

    @classmethod
    def from_digits(cls, Q: BasicSequence, digits) -> "CantorExpansion":
        ds = tuple(digits)
        for n, d in enumerate(ds, start=1):
            q = Q.q(n)
            if not 0 <= d <= q - 1:
                raise InvalidSpecError(
                    f"digit {d} at position {n} outside allowed range 0..{q - 1}"
                )

        def fn(n: int, _ds=ds) -> int:
            return _ds[n - 1]

        return cls(Q, fn, horizon=len(ds))

    @classmethod
    def from_spec(cls, spec: ConstructionSpec) -> "CantorExpansion":
        return cls(BasicSequence.from_spec(spec), spec.digit_at,
                   horizon=spec.total_length, spec=spec)

    def digit(self, n: int) -> int:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"positions are 1-based integers, got {n}")
        if self.horizon is not None and n > self.horizon:
            raise NeedsMoreDigitsError(n, self.horizon)
        return self._digit_fn(n)

    def window(self, start: int, m: int) -> Iterable[tuple[int, Sequence[int]]]:
        """Positions start+1 .. start+m as (base, digits) pieces, in order.

        Every digit of a piece sits over the piece's base.  A spec-backed
        expansion reads ``spec.window``: one piece per segment crossed.  Any
        other expansion gives one-position pieces read through ``Q.q`` and
        ``digit``.  Past the horizon both refuse the first base entry missing.
        """
        if self.spec is None:
            return ((self.Q.q(pos), (self.digit(pos),)) for pos in range(start + 1, start + m + 1))
        if start + m > self.horizon:
            raise NeedsMoreDigitsError(max(start, self.horizon) + 1, self.horizon, what="base entries")
        return self.spec.window(start, m)

    def digits_prefix(self, n: int) -> DigitString:
        if self.spec is not None:
            return self.spec.digits_prefix(n)
        check_cap(n)
        return DigitString([self.digit(m) for m in range(1, n + 1)])


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
    that width.  The n positions read count against the size cap.
    """
    if n is None:
        if exp.horizon is None:
            raise ValueError("unbounded expansion: pass an explicit digit count n")
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
    for m in range(1, n + 1):
        r *= Q.q(m)
        d = int(r)
        out.append(d)
        r -= d
    return DigitString(out)


def q_moment(Q: BasicSequence, n: int, k: int) -> Fraction:
    """Normalizer sum_{j=1..n} 1 / (q_j * q_{j+1} * ... * q_{j+k-1}).

    This is the expected count of any fixed length-k block in the first n
    positions under ideal behavior; block counts are compared against it.
    Needs base entries through position n + k - 1.  A constant base and a
    construction spec are summed in closed form, so n may reach the spec's
    full length; any other base sequence is read once per position, and
    those n positions count against the size cap.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    if Q.const is not None:
        return Fraction(n, Q.const**k)
    if Q.spec is not None:
        return _runs_q_moment(Q.spec.q_runs(n + k - 1), n, k)
    check_cap(n, what="positions")
    # rolling window of the product q_j ... q_{j+k-1}
    window = 1
    for m in range(1, k + 1):
        window *= Q.q(m)
    total = Fraction(1, window)
    for j in range(2, n + 1):
        window //= Q.q(j - 1)
        window *= Q.q(j + k - 1)
        total += Fraction(1, window)
    return total


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
        for after, after_len in merged[i + 1 :]:
            if len(heads) >= k:
                break
            for _ in range(min(after_len, k - len(heads))):
                heads.append(heads[-1] * after)
        # the window with its last t digits in this run takes k - t bases after it
        for t in range(max(1, k - len(heads) + 1), min(k - 1, length) + 1):
            total += Fraction(1, base**t * heads[k - t])
    return total


def normality_ratio(exp: CantorExpansion, block, n: int) -> Fraction:
    """Observed-over-expected count of ``block`` in the first n digits.

    Ratio N(B, prefix) / q_moment(Q, n, k); tends to 1 along n exactly
    when the expansion treats B as often as the base sequence allows.  On
    an expansion with a spec the count runs over
    ``spec.prefix_runs(n + k - 1)``, one vectorized pass per segment block
    and never building the prefix, so n may reach the construction's full
    length.  Any other expansion builds its prefix, under the size cap.
    """
    pat = digit_data(block)
    k = len(pat)
    moment = q_moment(exp.Q, n, k)  # refuses n < 1 and an empty block first
    if exp.spec is not None:
        count = count_run_occurrences(pat, exp.spec.prefix_runs(n + k - 1))
    else:
        count = count_prefix_occurrences(pat, exp.digits_prefix(n + k - 1), n)
    return Fraction(count) / moment


def orbit_point(exp: CantorExpansion, n: int, tail: int = 64) -> RationalInterval:
    """Enclose T_n(x) = (q_1 ... q_n) * x mod 1 from digits alone.

    The shifted value equals the tail series sum_{m>=1}
    E_{n+m} / (q_{n+1} ... q_{n+m}); truncating after ``tail`` terms gives
    a lower endpoint, and one unit in the last place covers the rest.
    Needs digits through position n + tail, read as ``exp.window(n, tail)``
    pieces: on a spec one slice per segment crossed, else one position at
    a time.  Each piece is folded by Horner's rule over its one base.  The
    ``tail`` positions count against the size cap; n does not.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n}")
    if not isinstance(tail, int) or tail < 1:
        raise ValueError(f"tail must be an integer >= 1, got {tail}")
    check_cap(tail, what="positions")
    num = 0
    den = 1
    for q, digits in exp.window(n, tail):
        for d in digits:
            num = num * q + d
        den *= q ** len(digits)
    return RationalInterval(Fraction(num, den), Fraction(num + 1, den))


def scaled_value_counts(spec: ConstructionSpec, n: int) -> dict[Fraction, int]:
    """Multiplicity table of the scaled digits E_m/q_m over positions m <= n.

    Works segment by segment in closed form: a segment's whole copies add
    its block's digit tally (``SegmentSpec.digit_tally``, tallied once per
    segment) times their number, and only the cut copy is tallied here.
    No digit is read per position and nothing counts against the size cap,
    so n may be astronomically large as long as the construction reaches it.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    counts: dict[Fraction, int] = {}
    for seg, take in spec.prefix_parts(n):
        full, rem = divmod(take, len(seg.block))
        parts = [(full, seg.digit_tally)] if full else []
        if rem:
            parts.append((1, tally_blocks(seg.block[:rem], 1).items()))
        for copies, tally in parts:
            for (d,), c in tally:
                v = Fraction(d, seg.base)
                counts[v] = counts.get(v, 0) + copies * c
    return counts


def salat_hypothesis(Q: BasicSequence, n: int) -> Fraction:
    """Mean reciprocal base (1/n) * sum_{m=1..n} 1/q_m, exact."""
    return q_moment(Q, n, 1) / n
