"""Star discrepancy of finite point sets in [0, 1), and bounds on it.

The star discrepancy of z_1, ..., z_n is

    D*(z) = sup over 0 < gamma <= 1 of | A([0, gamma)) / n  -  gamma |

where A counts the points below gamma.  Everything here is exact: points
come in as Fractions, the sup is attained at a point value or its
one-sided limit, and the bounds (sorted-grid, concatenation, scaled-block)
are evaluated in rational arithmetic so that an inequality either holds
or visibly fails.

One ranking and one sweep compute D* (Kuipers & Niederreiter, Ch. 2,
Thm 1.4), both over integer arrays p, q of values p/q:

- ``_rank`` orders the values exactly.  Each value p/q gets the key
  floor(p * 2**s / q) with 2**s above the square of every denominator, so
  distinct values get distinct keys and equal values equal ones, however
  they are written.  While max q < 2**8 the key (p << 2 bits(max q)) // q
  fits 16 bits, and a stable argsort of uint16 keys is a radix sort; the
  staircase's and the scaled qde's denominators are that small.  While
  max q < 2**20 the key is that one int64 word.  Past that it comes from
  long division in steps of L = 62 - bits(max q) bits, so each step
  r << L stays below 2**62, and is packed into at most two words of up to
  62 bits.  One argsort orders the top word, which is the whole key while
  max q < 2**20 or 2**30 <= max q < 2**31; ``np.lexsort`` runs only when
  the top word ties.
- ``_sweep`` takes the values in that order and a (tables x values) count
  matrix, one n per row, and gives every row's D* in one vectorized pass;
  a single table is one 1-D row through the same code.  Along each row,
  each candidate is an integer d over q * n.  A float64 pre-filter keeps
  the candidates within a relative 2**-40 of their row's float maximum
  (the float error is at most about 4 * 2**-53), and only those (row,
  column) pairs are compared by integer cross-multiplication, so each
  maximum stays exact.  Only the results are built as Fractions.

Ranking takes integer arrays of any type.  Past its 16-bit keys, and in
the sweep, the arrays are int64 while ``sweep_dtype`` says every term fits:
denominators of at most 61 bits, and n * max q below 2**63 for the largest
n swept.  Otherwise they hold Python ints in object arrays, and the key is
the one integer (p << 2 bits(max q)) // q.  Point sets with denominators
past 2**61 take that path, such as notdn-scaled's 100 orbit points, whose
denominators have up to 641 bits; so do tables whose n * max q passes 2**63.

``unit_sequence`` reads a point list in one pass into a ``_Points`` tuple,
which keeps each point's checked terms as the arrays p, q; ``_dstar``
ranks and sweeps them.  ``star_discrepancy_from_counts`` reads a value ->
count table's values that way, ``star_discrepancy`` is the table of count
1 per point, and ``kn1_bound`` ranks its points once for its sortedness
check and its sweep.  ``distinct_values`` ranks an integer-coded list of
values once, and ``star_discrepancy_of_rows`` sweeps a count matrix over
values ranked beforehand.  Nested prefixes of a sequence take that path
too: a construction's scaled-digit tables at many positions are the rows
of one ``cantor.scaled_prefix_counts`` matrix, so mqd-scaled and the
staircase counterexample each sweep all their prefixes in one call.
"""
from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocks import digit_data, max_digit


def unit_sequence(zs) -> tuple[Fraction, ...]:
    """Validate and convert points to exact Fractions in [0, 1), as a ``_Points`` tuple."""
    return _Points(zs)


def sweep_dtype(max_q: int, n: int):
    """int64 if ranking and sweeping n points with denominators <= max_q fits it, else object.

    The ranking shifts remainders below max_q left by L = 62 - bits(max_q),
    which needs bits(max_q) <= 61; the sweep's products p * n and
    count * q are at most n * max_q.
    """
    return np.int64 if max_q.bit_length() <= 61 and n * max_q < 1 << 63 else object


def _ints(values) -> np.ndarray:
    """Integers as int64, or as object if one does not fit.

    ``values`` is a list of Python ints, a list of equal-length such lists,
    or an integer or object array, which is returned as it is.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuO":
        return values
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def _rank(p: np.ndarray, q: np.ndarray, max_q: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ascending order of the values p/q, and the exact integer keys that give it.

    ``p`` and ``q`` are nonempty integer arrays, with 0 <= p < q <= max_q.
    The key of p/q is floor(p * 2**s / q) with 2**s above max_q**2:
    distinct values p/q < p'/q' differ by at least 1/(q q') > 2**-s, so
    their keys differ, and equal values get equal keys however they are
    written.  With s = 2 bits(max_q) the key is the one integer
    (p << s) // q.  While s <= 16 it is below 2**16 and is computed in
    uint32 and kept as uint16, and a stable argsort of 16-bit keys is a
    radix sort.  Otherwise the terms go to ``sweep_dtype``: the key is that
    integer in object arrays and in int64 while max_q < 2**20.  Past that,
    in int64, it comes from long division, L = 62 - bits(max_q) bits per
    step so that r << L stays below 2**62, packed into words of at most 62
    bits: one word while 2**30 <= max_q < 2**31, never more than two.  One
    argsort orders the top word; ``np.lexsort`` runs only when that word
    ties.
    """
    bits = max_q.bit_length()
    if 2 * bits <= 16:
        # one expression, so the uint32 temporaries are gone before the argsort
        keys = [np.floor_divide(np.left_shift(p, 2 * bits, dtype=np.uint32, casting="unsafe"), q, dtype=np.uint32,
                                casting="unsafe").astype(np.uint16)]
        return keys[0].argsort(kind="stable"), keys
    dtype = sweep_dtype(max_q, 1)
    p, q = p.astype(dtype, copy=False), q.astype(dtype, copy=False)
    if dtype == object or 3 * bits <= 62:  # then p << 2 bits stays below 2**62
        keys = [(p << 2 * bits) // q]
    else:
        step = 62 - bits
        per_word = 62 // step
        keys, r = [], p
        while len(keys) * per_word * step < 2 * bits:
            word, r = np.divmod(r << step, q)
            for _ in range(per_word - 1):
                limb, r = np.divmod(r << step, q)
                word = (word << step) | limb
            keys.append(word)
    order = keys[0].argsort()
    if len(keys) > 1:
        top = keys[0][order]
        if (top[1:] == top[:-1]).any():
            order = np.lexsort(keys[::-1])
    return order, keys


def _dense_ranks(order: np.ndarray, keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """From ``_rank``: the rank of each position among the distinct values, and where the values rise.

    The second array marks each sorted position ``order[i + 1]`` whose
    value is above that of ``order[i]``.
    """
    rises = np.zeros(len(order) - 1, dtype=bool)  # where the next sorted value is larger
    for key in keys:
        ranked = key[order]
        rises |= ranked[1:] != ranked[:-1]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order[0]] = 0
    rank[order[1:]] = rises.cumsum()
    return rank, rises


# Entries of a count matrix swept at once.  Larger temporaries come back
# from the allocator as fresh pages on every call: sweeping four rows of
# 12363 values at once faulted in about 400 more pages than row by row.
_SWEEP_BLOCK = 1 << 13


def _sweep(p: np.ndarray, q: np.ndarray, counts: np.ndarray, n: Sequence[int]) -> list[Fraction]:
    """D* of each table in ``counts``: n[r] points, counts[r, i] of them at p[i]/q[i].

    The one D* sweep; nothing is checked.  ``counts`` is a (tables x
    values) matrix, or one table as a 1-D row; every step runs along the
    last axis, so both take the same code, and a matrix of more than
    ``_SWEEP_BLOCK`` entries goes through in blocks of rows.  The values
    ascend; equal values must be adjacent but may repeat and need not be in
    lowest terms.  The arrays are nonempty and all in one ``sweep_dtype``
    for max q and the largest n; ``n`` holds one Python int per table.
    Counts may be 0 and each table's sum to at most its n.  Over a table's
    entries with cumulative counts c_t, the sup is the max over t of
    max(c_t/n - v_t, v_t - c_{t-1}/n), plus the right-end gap 1 - c_last/n
    (0 when all mass is counted).  An entry that splits a value, or has
    count 0, gives candidates between the value's true ones, so the maximum
    is unchanged.  The float pre-filter keeps, per table, the candidates
    within a relative 2**-40 of its float maximum; only those (table,
    value) pairs are compared by integer cross-multiplication.
    """
    width = counts.shape[-1]
    if len(n) > 1 and counts.size > _SWEEP_BLOCK:
        step = max(1, _SWEEP_BLOCK // width)
        return [d for r in range(0, len(n), step) for d in _sweep(p, q, counts[r : r + step], n[r : r + step])]
    # candidates over q * n: A over [0, v] - v, and v - A just left of v,
    # which sum to count * q >= 0
    cum = np.add.accumulate(counts, axis=-1)
    above = cum * q - p * np.array(n, dtype=counts.dtype).reshape(counts.shape[:-1] + (1,))
    d = np.maximum(above, counts * q - above)
    ratio = np.asarray(d / q, dtype=np.float64)  # within about 4 * 2**-53 of d / q
    near = ratio >= np.maximum.reduce(ratio, axis=-1, keepdims=True) * (1 - 2.0**-40)
    flat = near.ravel().nonzero()[0]  # far faster than a 2-D nonzero on long rows
    found = zip(d.take(flat).tolist(), q.take(flat, mode="wrap").tolist())
    if len(flat) == len(n):  # one candidate left per table: its maximum
        best = list(found)
    else:
        best = [(0, 1)] * len(n)
        for at, (num, den) in zip(flat.tolist(), found):
            r = at // width
            if num * best[r][1] > best[r][0] * den:
                best[r] = num, den
    out = []
    for (num, den), m, counted in zip(best, n, cum[..., -1:].ravel().tolist()):
        if (gap := m - counted) * den > num:
            num, den = gap, 1
        out.append(Fraction(num, den * m))
    return out


class _Points(tuple):
    """Points checked to lie in [0, 1): a tuple of Fractions that carries their lowest terms.

    Making one is the one reader of a point list: one pass reads each
    point's terms once, through ``Fraction`` only for a point that is not
    one, and the first point that fails, by conversion or by lying outside
    [0, 1), raises.  ``p``, ``q`` hold the terms in ``sweep_dtype``, ``max_q``
    is the largest q (0 for none), and ``ranked`` is their ``_rank``, made
    once for every reader.
    """

    def __new__(cls, zs):
        values, ps, qs = [], [], []
        for i, z in enumerate(zs):
            f = z if isinstance(z, Fraction) else Fraction(z)
            p, q = f.as_integer_ratio()
            if not 0 <= p < q:
                raise ValueError(f"point {i} is {f}, outside [0, 1)")
            values.append(f)
            ps.append(p)
            qs.append(q)
        points = super().__new__(cls, values)
        terms = _ints([ps, qs])
        points.max_q = int(terms[1].max()) if qs else 0
        points.p, points.q = terms.astype(sweep_dtype(points.max_q, len(qs)), copy=False)
        points.ranked = _rank(points.p, points.q, points.max_q)
        return points


def _dstar(points: _Points, counts: Sequence[int], n: int) -> Fraction:
    """D* of n points, counts[i] at points[i] and the rest above them: the one rank-and-sweep, unchecked."""
    dtype = sweep_dtype(points.max_q, n)
    order = points.ranked[0]
    p, q, c = (a.take(order).astype(dtype, copy=False) for a in (points.p, points.q, _ints(counts)))
    return _sweep(p, q, c, [n])[0]


def _count(c) -> int:
    try:
        c = operator.index(c)
    except TypeError:
        raise ValueError(f"count {c!r} is not an integer") from None
    if c < 0:
        raise ValueError(f"count {c} is negative")
    return c


def star_discrepancy_from_counts(value_counts, n: int) -> Fraction:
    """D* of n points from a value -> multiplicity table, checked.

    ``value_counts`` is a mapping, or an iterable of (value, count) pairs;
    it is read once, and a value may repeat.  Counts are integers >= 0
    that sum to at most n; the values, read by ``unit_sequence``, are ints
    or Fractions (anything else goes through ``Fraction``) in [0, 1).  Mass
    left out of the table lies above every value.
    """
    if operator.index(n) <= 0:
        raise ValueError(f"need a positive point count, got {n}")
    items = value_counts.items() if isinstance(value_counts, Mapping) else value_counts
    values, counts = [], []
    for v, c in items:
        values.append(v)
        counts.append(c if type(c) is int and c >= 0 else _count(c))
    if (total := sum(counts)) > n:
        raise ValueError(f"counts sum to {total}, more than n = {n}")
    points = unit_sequence(values)
    if not points:
        return Fraction(1)  # all the mass lies above every value
    return _dstar(points, counts, n)


def distinct_values(ps, qs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values among the p/q, ascending, and where each entry's value lies among them.

    ``ps`` and ``qs`` are nonempty integer sequences or arrays of one
    length with 0 <= p < q; they are not checked, and p/q need not be in
    lowest terms.  Returns (vp, vq, index): each distinct value keeps the
    terms of one of its entries, and entry i has the value vp[j]/vq[j] for
    j = index[i].  The entries are ranked once by ``_rank``; each value
    keeps the terms of its first entry in rank order, in the types of ``ps``
    and ``qs`` (int64 for Python ints that fit, else object), and index is
    an intp array.
    """
    p, q = _ints(ps), _ints(qs)
    max_q = int(q.max())
    order, keys = _rank(p, q, max_q)
    index, rises = _dense_ranks(order, keys)
    firsts = np.concatenate(([True], rises))  # the first sorted position of each value
    return p[order][firsts], q[order][firsts], index


def star_discrepancy_of_rows(p: np.ndarray, q: np.ndarray, counts: np.ndarray, n: Sequence[int]) -> list[Fraction]:
    """Exact D* of each row of a count matrix over ascending values p/q.

    Row r describes n[r] points, counts[r, i] of them at p[i]/q[i], the
    rest above every value.  ``p`` and ``q`` are integer arrays holding
    distinct values in ascending order, as ``distinct_values`` returns them;
    ``counts`` has one column per value, and nothing is checked.  Every
    array is brought to ``sweep_dtype`` for max q and the largest n, and
    all rows go through one ``_sweep``.
    """
    n = list(n)
    dtype = sweep_dtype(int(q.max()), max(n))
    return _sweep(p.astype(dtype, copy=False), q.astype(dtype, copy=False), counts.astype(dtype, copy=False), n)


class _CountOne(tuple):
    """Points read as a value -> count table: iteration pairs each with count 1 as it goes.

    n pairs alive at once would wake the garbage collector, which walks every object in the process.
    """

    def __iter__(self):
        return zip(super().__iter__(), itertools.repeat(1))


def star_discrepancy(zs) -> Fraction:
    """Exact star discrepancy of a finite point sequence in [0, 1): its table of count 1 per point."""
    table = _CountOne(zs)
    if not table:
        raise ValueError("star discrepancy of an empty sequence is undefined")
    return star_discrepancy_from_counts(table, len(table))


def kn1_bound(zs) -> Fraction:
    """Star discrepancy of a sorted sequence by the displacement formula.

    For z_1 <= ... <= z_n:  D*(z) = 1/(2n) + max_i |z_i - (2i-1)/(2n)|
    (Kuipers & Niederreiter, Ch. 2, Thm 1.4).  The identity holds for every
    sorted input, ties included, so this equals star_discrepancy(z), and it
    is computed as such: the kernel's sweep over the points.  Requires
    sorted input, which is checked on the exact ranks: they must not
    descend.  The one ranking serves both the check and the sweep.
    """
    points = unit_sequence(zs)
    if not points:
        raise ValueError("empty sequence")
    if np.any(np.diff(_dense_ranks(*points.ranked)[0]) < 0):
        raise ValueError("displacement bound needs the sequence sorted ascending")
    return _dstar(points, [1] * len(points), len(points))


def concat_bound(parts: Sequence[tuple[int, int, Fraction]]) -> Fraction:
    """Weighted-average bound for a concatenation of point families.

    ``parts`` lists (copies, length, eps) per family: copies * length points
    each of whose families has star discrepancy at most eps.  The combined
    sequence then has discrepancy at most the point-weighted average of the
    eps values.
    """
    total = 0
    acc = Fraction(0)
    for copies, length, eps in parts:
        if copies < 0 or length < 0:
            raise ValueError("copies and length must be >= 0")
        eps = Fraction(eps)
        weight = copies * length
        total += weight
        acc += weight * eps
    if total == 0:
        raise ValueError("concatenation bound needs at least one point")
    return acc / total


def scaled_digits(block, b: int) -> tuple[Fraction, ...]:
    """Map digits to points d / b in [0, 1).  Digits must be < b."""
    digits = digit_data(block)
    if not isinstance(b, int) or b < 1:
        raise ValueError(f"b must be an integer >= 1, got {b}")
    if len(digits) and (top := max_digit(digits)) >= b:
        raise ValueError(f"digit {top} not below {b}")
    return tuple(Fraction(d, b) for d in digits.tolist())


def e1l_bound(b: int, eps, length: int) -> Fraction:
    """Discrepancy bound for the scaled digits of a near-uniform block.

    If every single digit 0..b-1 occurs in a length-``length`` block with
    frequency within a factor (1 +- eps) of 1/b, the points d/b have

        D* <= 1/b + eps + 1/length.

    The 1/b term is the grid coarseness, eps the frequency slack, and
    1/length covers the one-endpoint correction.
    """
    if not isinstance(b, int) or b < 2:
        raise ValueError(f"b must be an integer >= 2, got {b}")
    if not isinstance(length, int) or length < 1:
        raise ValueError(f"length must be an integer >= 1, got {length}")
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return Fraction(1, b) + eps + Fraction(1, length)


@dataclass(frozen=True)
class PrefixWeights:
    """Inputs to the prefix-discrepancy interpolation bound.

    ``entries`` lists (copies, block length, eps') for the fully included
    families 1..i: eps'_j bounds the scaled-digit discrepancy of family j's
    block.  ``next_length`` and ``next_eps`` describe family i+1, which the
    prefix may cut into: a partial count of whole copies plus a remainder
    of fewer than one block.
    """

    entries: tuple[tuple[int, int, Fraction], ...]
    next_length: int
    next_eps: Fraction

    def __post_init__(self):
        if not self.entries:
            raise ValueError("need at least one fully included family")
        ok = []
        for copies, length, eps in self.entries:
            if not (isinstance(copies, int) and copies >= 0):
                raise ValueError(f"copies must be an integer >= 0, got {copies}")
            if not (isinstance(length, int) and length >= 1):
                raise ValueError(f"block length must be an integer >= 1, got {length}")
            ok.append((copies, length, Fraction(eps)))
        object.__setattr__(self, "entries", tuple(ok))
        if not (isinstance(self.next_length, int) and self.next_length >= 1):
            raise ValueError(f"next_length must be an integer >= 1, got {self.next_length}")
        object.__setattr__(self, "next_eps", Fraction(self.next_eps))

    @property
    def included_points(self) -> int:
        return sum(c * ln for c, ln, _ in self.entries)

    @property
    def included_mass(self) -> Fraction:
        return sum((c * ln * e for c, ln, e in self.entries), Fraction(0))


def f_bound(pw: PrefixWeights, w: int, z: int) -> Fraction:
    """Interpolated discrepancy bound after w whole next-blocks + z extras.

        f(w, z) = (sum_j l_j |x_j| eps'_j  +  |x_{i+1}| eps'_{i+1} w  +  z)
                  / (sum_j l_j |x_j|  +  |x_{i+1}| w  +  z)

    The z extra points are budgeted at the worst rate 1 apiece.
    """
    if not (isinstance(w, int) and w >= 0):
        raise ValueError(f"w must be an integer >= 0, got {w}")
    if not (isinstance(z, int) and 0 <= z <= pw.next_length):
        raise ValueError(f"z must be an integer in [0, next_length], got {z}")
    num = pw.included_mass + pw.next_length * pw.next_eps * w + z
    den = pw.included_points + pw.next_length * w + z
    if den == 0:
        raise ValueError("bound undefined on an empty prefix")
    return Fraction(num) / den


def epsbar(pw: PrefixWeights) -> Fraction:
    """Worst case of the interpolation bound over a partial next family.

    Equals f(0, next_length): no whole next-blocks, a full block's worth of
    unbudgeted extras.  Under the hypotheses below, f(w, z) < epsbar for
    every grid point with w >= 1 or z < next_length, so epsbar bounds the
    discrepancy of every prefix ending inside family i+1.
    """
    return f_bound(pw, 0, pw.next_length)


@dataclass(frozen=True)
class HypothesisReport:
    """Which preconditions of the interpolation bound hold, by name."""

    holds: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.holds


def boundf_hypotheses(pw: PrefixWeights) -> HypothesisReport:
    """Check the preconditions that make epsbar a true worst case.

    Named by content:
    - last-multiplicity-positive: the final fully included family has l > 0
    - last-length-positive: its block is nonempty
    - next-eps-below-one: eps'_{i+1} < 1
    - earlier-mass-dominates-error: sum over families 1..i-1 of l|x| is
      strictly larger than the corresponding sum of l|x|eps'
    - next-block-small-enough: |x_{i+1}| / (l_i |x_i|) < (1 - eps'_i) / eps'_{i+1}
    """
    failures: list[str] = []
    last_c, last_len, last_eps = pw.entries[-1]
    if last_c <= 0:
        failures.append("last-multiplicity-positive")
    if last_len <= 0:
        failures.append("last-length-positive")
    head = pw.entries[:-1]
    head_points = sum(c * ln for c, ln, _ in head)
    head_mass = sum((c * ln * e for c, ln, e in head), Fraction(0))
    if not head_points > head_mass:
        failures.append("earlier-mass-dominates-error")
    if not pw.next_eps < 1:
        failures.append("next-eps-below-one")
    else:
        denom = last_c * last_len
        small = True
        if pw.next_eps > 0:
            small = denom > 0 and Fraction(pw.next_length, denom) < (1 - last_eps) / pw.next_eps
        if not small:
            failures.append("next-block-small-enough")
    return HypothesisReport(holds=not failures, failures=tuple(failures))
