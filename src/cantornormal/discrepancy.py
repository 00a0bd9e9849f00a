"""Star discrepancy of finite point sets in [0, 1), and bounds on it.

The star discrepancy of z_1, ..., z_n is

    D*(z) = sup over 0 < gamma <= 1 of | A([0, gamma)) / n  -  gamma |

where A counts the points below gamma.  Everything here is exact: points
come in as Fractions, the sup is attained at a point value or its
one-sided limit, and the bounds (sorted-grid, concatenation, scaled-block)
are evaluated in rational arithmetic so that an inequality either holds
or visibly fails.

One integer sweep computes D*: walk the distinct values p/q in ascending
order with their cumulative counts (Kuipers & Niederreiter, Ch. 2,
Thm 1.4).  Each value p/q is ordered by the integer key (p << s) // q,
with 2**s above the square of every denominator, so distinct values get
distinct keys; each sweep candidate is an integer over q * n, and maxima
are compared by cross-multiplication.  Only the result is built as a
Fraction.  The sweep has two forms:

- ``star_discrepancy_from_triples`` is the scalar sweep over a table of
  (p, q, count) triples.  Its way in is ``star_discrepancy_from_counts``,
  which checks a value -> count table and reduces each value to a (p, q)
  pair; ``star_discrepancy`` and ``kn1_bound`` hand that runs of equal
  points.
- ``star_discrepancy_of_prefixes`` is the array sweep over nested prefixes
  of one integer-coded sequence, such as the staircase check in
  ``verify``: the distinct values are ranked once, and each prefix is one
  ``np.bincount`` and a few whole-array operations.  Its arrays are int64
  while ``sweep_dtype`` says every term fits, else Python ints in object
  arrays.  Point sets stay on the scalar sweep: their large denominators
  would force object arrays.
"""
from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocks import digit_data, max_digit


def unit_sequence(zs) -> tuple[Fraction, ...]:
    """Validate and convert points to exact Fractions in [0, 1)."""
    out = []
    for i, z in enumerate(zs):
        f = z if isinstance(z, Fraction) else Fraction(z)
        p, q = f.as_integer_ratio()
        if not 0 <= p < q:
            raise ValueError(f"point {i} is {f}, outside [0, 1)")
        out.append(f)
    return tuple(out)


def _sort_key(max_q: int) -> Callable[[tuple[int, ...]], int]:
    """Integer sort key (p << s) // q of a value given as (p, q, ...) with 0 < q <= max_q.

    2**s > max_q**2: distinct values p/q < p'/q' differ by at least
    1/(q q'), which is more than 2**-s, so a multiple of 2**-s separates
    them; equal values get equal keys whatever their terms.
    """
    s = 2 * max_q.bit_length()
    return lambda t: (t[0] << s) // t[1]


def _ratio(v) -> tuple[int, int]:
    """Numerator and denominator of v in lowest terms."""
    return (v if isinstance(v, Fraction) else Fraction(v)).as_integer_ratio()


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

    ``value_counts`` is a mapping, or an iterable of (value, count) pairs
    with distinct values; it is read once.  Values are ints or Fractions
    (anything else goes through ``Fraction``) in [0, 1); counts are
    integers >= 0 that sum to at most n.  Mass left out of the table lies
    above every value.  Each value is checked and reduced to a (p, q) pair,
    then the table goes through ``star_discrepancy_from_triples``.
    """
    if operator.index(n) <= 0:
        raise ValueError(f"need a positive point count, got {n}")
    items = value_counts.items() if isinstance(value_counts, Mapping) else value_counts
    table = []  # (p, q, count) per value, p/q in lowest terms
    total = 0
    for v, c in items:
        p, q = _ratio(v)
        if not 0 <= p < q:
            raise ValueError(f"value {v} outside [0, 1)")
        c = _count(c)
        total += c
        table.append((p, q, c))
    if total > n:
        raise ValueError(f"counts sum to {total}, more than n = {n}")
    return star_discrepancy_from_triples(table, n)


def star_discrepancy_from_triples(triples: list[tuple[int, int, int]], n: int) -> Fraction:
    """D* of n points given as (p, q, count) triples: count points at p/q.

    The one D* sweep; the triples are not checked.  The caller guarantees
    integers 0 <= p < q, counts >= 0 summing to at most n, and n >= 1;
    ``star_discrepancy_from_counts`` is the checked way in.  p/q need not
    be in lowest terms and a value may repeat: equal values get equal sort
    keys, and a value split over several triples yields the same maximum.
    The list is sorted in place.

    Over distinct sorted values v_1 < ... < v_r with cumulative counts
    c_1 <= ... <= c_r, the sup is max over t of
    max(c_t/n - v_t, v_t - c_{t-1}/n), plus the right-end gap 1 - c_r/n
    (= 0 when all mass is counted).  Left limits at each v_t and the
    endpoint gamma = 1 are covered by those terms.
    """
    triples.sort(key=_sort_key(max(map(operator.itemgetter(1), triples), default=1)))
    # candidates are num / (den * n)
    best_num, best_den = 0, 1
    cum = 0
    for p, q, c in triples:
        pn = p * n
        below = pn - cum * q  # v - A just left of v
        cum += c
        at = cum * q - pn  # A over [0, v] - v
        d = below if below > at else at
        if d * best_den > best_num * q:
            best_num, best_den = d, q
    if (n - cum) * best_den > best_num:  # the right-end gap 1 - c_r/n
        best_num, best_den = n - cum, 1
    return Fraction(best_num, best_den * n)


def sweep_dtype(max_q: int, n: int):
    """int64 if the array sweep over n points with denominators <= max_q fits it, else object.

    The largest terms are the sort keys (p << s) // q, below max_q << s,
    and the sweep products p * n and count * q, at most n * max_q.  The
    codes q * (max_q + 1) + p lie below the keys' bound.
    """
    s = 2 * max_q.bit_length()
    return np.int64 if max(max_q << s, n * max_q) < 1 << 63 else object


def star_discrepancy_of_prefixes(p: np.ndarray, q: np.ndarray, ends: Sequence[int]) -> list[Fraction]:
    """Exact D* of the points p[:e] / q[:e] for each prefix end e in ``ends``.

    ``p`` and ``q`` are integer arrays of one length (int64 or object)
    with 0 <= p < q at every position; they are not checked, and p/q need
    not be in lowest terms.  ``ends`` lie within 1..len(p) and must not
    descend.

    The distinct (p, q) pairs are ranked once: one ``np.unique`` over the
    codes q * (max q + 1) + p, then one argsort of their keys (p << s) // q.
    Each prefix adds the ranks of its new positions to a running
    ``np.bincount`` and runs the sweep of ``star_discrepancy_from_triples``
    as ``cumsum``/``maximum`` arrays over every ranked value.  A value
    absent from the prefix yields |A([0, v))/n - v|, a value of the sup
    itself, and a value split over unreduced pairs yields the same maximum,
    so the result is exact.  The largest candidate d per denominator comes
    from ``np.maximum.reduceat``; only those few are compared by
    cross-multiplication.  Every point is counted, so the right-end gap
    1 - A([0, 1))/n is 0.  The work runs in ``sweep_dtype``.
    """
    ends = list(ends)
    if not ends or ends[0] < 1 or ends[-1] > len(p) or any(a > b for a, b in zip(ends, ends[1:])):
        raise ValueError(f"prefix ends must ascend within 1..{len(p)}, got {ends}")
    max_q = int(q.max())
    dtype = sweep_dtype(max_q, len(p)) if object not in (p.dtype, q.dtype) else object
    p, q = p.astype(dtype, copy=False), q.astype(dtype, copy=False)
    stride = max_q + 1
    found, inverse = np.unique(q * stride + p, return_inverse=True)
    fp, fq = found % stride, found // stride
    order = np.argsort((fp << 2 * max_q.bit_length()) // fq, kind="stable")
    vp, vq = fp[order], fq[order]  # the distinct values, ascending
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    ranks = rank[inverse.ravel()]
    # the values grouped by denominator, for the largest d per denominator
    by_q = np.argsort(vq, kind="stable")
    grouped = vq[by_q]
    starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    dens = grouped[starts].tolist()
    counts = np.zeros(len(order), dtype=np.int64)
    out = []
    prev = 0
    for n in ends:
        counts += np.bincount(ranks[prev:n], minlength=len(order))
        prev = n
        cum = np.cumsum(counts)
        pn = vp * n
        # candidates over q * n: v - A just left of v, and A over [0, v] - v
        d = np.maximum(pn - (cum - counts) * vq, cum * vq - pn)
        best_num, best_den = 0, 1
        for num, den in zip(np.maximum.reduceat(d[by_q], starts).tolist(), dens):
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        out.append(Fraction(best_num, best_den * n))
    return out


def _keyed_order(zs: tuple[Fraction, ...], presorted: bool = False) -> tuple[list[int], Iterable[int]]:
    """Sort keys of nonempty points, and the indices in stable key order (as given if ``presorted``)."""
    key = _sort_key(max(z.denominator for z in zs))
    keys = [key(z.as_integer_ratio()) for z in zs]
    return keys, range(len(zs)) if presorted else sorted(range(len(zs)), key=keys.__getitem__)


def sorted_points(zs) -> list[Fraction]:
    """Points in [0, 1) validated and sorted ascending on exact integer keys."""
    zs = unit_sequence(zs)
    return [zs[i] for i in _keyed_order(zs)[1]] if zs else []


def _value_runs(zs: tuple[Fraction, ...], presorted: bool) -> list[tuple[Fraction, int]]:
    """(value, count) runs of equal points, ascending.

    With ``presorted`` the points must already ascend, which is checked on
    the integer keys; otherwise they are sorted by those keys.
    """
    keys, order = _keyed_order(zs, presorted)
    runs = []
    first, count, prev = None, 0, -1
    for i in order:
        k = keys[i]
        if k == prev:
            count += 1
            continue
        if k < prev:
            raise ValueError("displacement bound needs the sequence sorted ascending")
        if count:
            runs.append((first, count))
        first, count, prev = zs[i], 1, k
    runs.append((first, count))
    return runs


def star_discrepancy(zs) -> Fraction:
    """Exact star discrepancy of a finite point sequence in [0, 1)."""
    zs = unit_sequence(zs)
    if not zs:
        raise ValueError("star discrepancy of an empty sequence is undefined")
    return star_discrepancy_from_counts(_value_runs(zs, presorted=False), len(zs))


def kn1_bound(zs) -> Fraction:
    """Star discrepancy of a sorted sequence by the displacement formula.

    For z_1 <= ... <= z_n:  D*(z) = 1/(2n) + max_i |z_i - (2i-1)/(2n)|
    (Kuipers & Niederreiter, Ch. 2, Thm 1.4).  The identity holds for every
    sorted input, ties included, so this equals star_discrepancy(z), and it
    is computed as such: the kernel's sweep over the runs of equal values.
    Requires sorted input.
    """
    zs = unit_sequence(zs)
    if not zs:
        raise ValueError("empty sequence")
    return star_discrepancy_from_counts(_value_runs(zs, presorted=True), len(zs))


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
