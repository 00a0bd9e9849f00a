"""Star discrepancy of finite point sets in [0, 1), and bounds on it.

The star discrepancy of z_1, ..., z_n is

    D*(z) = sup over 0 < gamma <= 1 of | A([0, gamma)) / n  -  gamma |

where A counts the points below gamma.  Everything here is exact: points
come in as Fractions, the sup is attained at a point value or its
one-sided limit, and the bounds (sorted-grid, concatenation, scaled-block)
are evaluated in rational arithmetic so that an inequality either holds
or visibly fails.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .blocks import digit_data, max_digit


def unit_sequence(zs) -> tuple[Fraction, ...]:
    """Validate and convert points to exact Fractions in [0, 1)."""
    out = []
    for i, z in enumerate(zs):
        f = Fraction(z)
        if not 0 <= f < 1:
            raise ValueError(f"point {i} is {f}, outside [0, 1)")
        out.append(f)
    return tuple(out)


def star_discrepancy_from_counts(value_counts: dict, n: int) -> Fraction:
    """D* from a value -> multiplicity table (n = total count).

    Over distinct sorted values v_1 < ... < v_r with cumulative counts
    c_1 <= ... <= c_r, the sup is max over t of
    max(c_t/n - v_t, v_t - c_{t-1}/n), plus the right-end gap 1 - c_r/n
    (= 0 when all mass is counted).  Left limits at each v_t and the
    endpoint gamma = 1 are covered by those terms.
    """
    if n <= 0:
        raise ValueError(f"need a positive point count, got {n}")
    best = Fraction(0)
    cum = 0
    for v in sorted(value_counts):
        below = Fraction(cum, n)  # A just left of v
        vf = Fraction(v)
        if vf - below > best:
            best = vf - below
        cum += value_counts[v]
        at = Fraction(cum, n)  # A over [0, v]
        if at - vf > best:
            best = at - vf
    right_gap = 1 - Fraction(cum, n)
    if right_gap > best:
        best = right_gap
    return best


def star_discrepancy(zs) -> Fraction:
    """Exact star discrepancy of a finite point sequence in [0, 1)."""
    zs = unit_sequence(zs)
    if not zs:
        raise ValueError("star discrepancy of an empty sequence is undefined")
    return star_discrepancy_from_counts(Counter(zs), len(zs))


def kn1_bound(zs) -> Fraction:
    """Star discrepancy of a sorted sequence by the displacement formula.

    For z_1 <= ... <= z_n:  D*(z) = 1/(2n) + max_i |z_i - (2i-1)/(2n)|
    (Kuipers & Niederreiter, Ch. 2, Thm 1.4).  The identity holds for every
    sorted input, ties included, so this equals star_discrepancy(z).
    Requires sorted input.
    """
    zs = unit_sequence(zs)
    n = len(zs)
    if n == 0:
        raise ValueError("empty sequence")
    if any(a > b for a, b in zip(zs, zs[1:])):
        raise ValueError("displacement bound needs the sequence sorted ascending")
    disp = max(abs(z - Fraction(2 * i - 1, 2 * n)) for i, z in enumerate(zs, start=1))
    return Fraction(1, 2 * n) + disp


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
