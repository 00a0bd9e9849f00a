"""Digit weightings and block-frequency normality checks.

A weighting assigns each digit a non-negative rational mass summing to 1,
extended to blocks multiplicatively.  Two families matter here:

* ``uniform(b)``: every digit below ``b`` gets mass ``1/b``.
* ``nu(b)``: digits ``0..b-1`` get mass ``1/2**b`` each and the top digit
  ``b`` soaks up the rest, ``(2**b - b)/2**b``.  This skewed family is
  exactly ``(b, 2**b)``-uniform: restricted to digits below ``b`` it looks
  like the uniform weighting of the much larger base ``2**b``.

Every digit mass is an integer numerator over one common denominator
``den``, so the masses of m-digit blocks are integer numerators over
``den**m``: ``Weighting.numerators`` gives them for a whole table of
blocks at once.  The checks below compare integer arrays over tables of
enumerated blocks, ``_BLOCK_CHUNK`` rows at a time, and make Fractions
only for what they report.  All verdicts are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocks import ConcatSpec, DigitString, digit_data, enumeration_table, exact_type, tally_blocks
from .limits import check_cap

# blocks enumerated per numpy pass, so a check's memory does not grow with
# the alphabet**k blocks it compares
_BLOCK_CHUNK = 1 << 16


@dataclass(frozen=True)
class Weighting:
    """Digit weighting with multiplicative extension to blocks.

    ``kind`` is ``"uniform"`` or ``"nu"``.
    """

    kind: str
    b: int

    def __post_init__(self):
        if self.kind not in ("uniform", "nu"):
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        if not isinstance(self.b, int) or self.b < 2:
            raise ValueError(f"weighting base must be an integer >= 2, got {self.b}")

    @property
    def support_bound(self) -> int:
        """Largest digit carrying nonzero mass."""
        return self.b - 1 if self.kind == "uniform" else self.b

    @property
    def den(self) -> int:
        """Common denominator of the digit masses: ``2**b`` for nu, ``b`` for uniform."""
        return 1 << self.b if self.kind == "nu" else self.b

    def numerators(self, table: np.ndarray) -> np.ndarray:
        """Mass numerator of each row of a 2-D table of m-digit blocks, over ``den**m``.

        ``nu(b)`` gives ``(2**b - b)**t`` for a row with t digits equal to b,
        ``uniform(b)`` gives 1, and a row with a digit above
        ``support_bound`` gets 0.  The numerators are int64 while the
        largest fits, else Python ints in an object array.
        """
        m = table.shape[1]
        if self.kind == "nu":
            rep = self.den - self.b
            powers = np.array([rep**t for t in range(m + 1)], dtype=exact_type(rep**m))
            num = powers[np.count_nonzero(table == self.b, axis=1)]
        else:
            num = np.ones(len(table), dtype=np.int64)
        num[(table > self.support_bound).any(axis=1)] = 0
        return num

    def weight(self, block) -> Fraction:
        """Mass of a block: the product of its digit masses (1 for empty).

        The one-row view of ``numerators``: the block's numerator over
        ``den`` to the block length, as one Fraction.
        """
        digits = digit_data(block)
        return Fraction(int(self.numerators(digits[None])[0]), self.den ** len(digits))


def uniform(b: int) -> Weighting:
    """Uniform weighting: mass 1/b on each digit 0..b-1."""
    return Weighting(kind="uniform", b=b)


def nu(b: int) -> Weighting:
    """Top-heavy weighting: 1/2**b on digits 0..b-1, the rest on digit b."""
    return Weighting(kind="nu", b=b)


def parse_weighting(token: str) -> Weighting:
    """Parse a CLI token like ``uniform:10`` or ``nu:6``."""
    try:
        kind, _, b = token.partition(":")
        return {"uniform": uniform, "nu": nu}[kind](int(b))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad weighting token {token!r}; expected uniform:B or nu:B") from exc


def check_pb_uniform(mu: Weighting, p: int, b: int, k_max: int) -> bool:
    """Is ``mu`` (p, b)-uniform up to block length ``k_max``?

    True iff every block over digits 0..p-1 of each length k <= k_max has
    mass exactly b**-k.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"p must be an integer >= 1, got {p}")
    if not isinstance(b, int) or b < 1:
        raise ValueError(f"b must be an integer >= 1, got {b}")
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max}")
    for k in range(1, k_max + 1):
        check_cap(p**k, what="enumerated blocks")
        # a block's mass num / den**k is b**-k iff num == den**k / b**k
        target, rest = divmod(mu.den**k, b**k)
        if rest:
            return False
        for lo in range(0, p**k, _BLOCK_CHUNK):
            if (mu.numerators(enumeration_table(p, k, lo, min(lo + _BLOCK_CHUNK, p**k))) != target).any():
                return False
    return True


@dataclass(frozen=True)
class NormalityWitness:
    """First block whose count left the allowed band."""

    block: tuple[int, ...]
    observed: int
    lower: Fraction
    upper: Fraction

    def to_json(self) -> dict:
        return {
            "block": list(self.block),
            "observed": self.observed,
            "lower": str(self.lower),
            "upper": str(self.upper),
        }


@dataclass(frozen=True)
class NormalityVerdict:
    """Outcome of a block-frequency normality check."""

    passed: bool
    length: int
    eps: Fraction
    k: int
    witness: NormalityWitness | None = None

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        out = {
            "passed": self.passed,
            "length": self.length,
            "eps": str(self.eps),
            "k": self.k,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def first_outside_band(text, n: int, m: int, alphabet: int, mu: Weighting, low: int, high: int, over: int,
                       slack: int):
    """First length-m block whose count leaves its integer band, as (row, witness), or None.

    A block B of mass num/D, D = ``mu.den**m``, occurring N times in
    ``text`` (a DigitString or a ConcatSpec of n digits below
    ``alphabet``) is in its band iff

        num*n*low  <=  N*D*over  <=  num*n*high + slack*D*over.

    The blocks are compared in ``enumeration_table(alphabet, m)`` row
    order, ``_BLOCK_CHUNK`` rows at a time, as integer arrays: int64 while
    every term fits, else Python ints.  ``tally_blocks(text, m, alphabet)``
    gives the counts by ascending code, which is that row index, so each
    chunk's counts are one ``searchsorted`` slice.  Only the witness makes
    Fractions.  The alphabet**m blocks compared count against the size
    cap, checked before the text is tallied.
    """
    check_cap(alphabet**m, what="enumerated blocks")
    codes, counts = tally_blocks(text, m, alphabet)
    size, den, edge = alphabet**m, mu.den**m, slack * mu.den**m * over
    # numerators are at most den, since a mass is at most 1, and observed counts at most n
    term_type = exact_type(den * n * max(low, high, over) + edge)
    for lo in range(0, size, _BLOCK_CHUNK):
        hi = min(lo + _BLOCK_CHUNK, size)
        rows = enumeration_table(alphabet, m, lo, hi)
        num = mu.numerators(rows).astype(term_type, copy=False)
        observed = np.zeros(hi - lo, dtype=term_type)
        # hi - 1, not hi, is a code, so it fits the codes' dtype
        first, last = np.searchsorted(codes, lo), np.searchsorted(codes, hi - 1, side="right")
        observed[(codes[first:last] - lo).astype(np.int64, copy=False)] = counts[first:last]
        scaled = observed * (den * over)
        bad = (num * (n * low) > scaled) | (scaled > num * (n * high) + edge)
        if bad.any():
            i = int(np.argmax(bad))
            share = int(num[i]) * n
            witness = NormalityWitness(tuple(rows[i].tolist()), int(observed[i]),
                                       Fraction(share * low, den * over), Fraction(share * high, den * over) + slack)
            return lo + i, witness
    return None


def check_eps_k_normal(y, eps, k: int, mu: Weighting) -> NormalityVerdict:
    """Check that every short block occurs in ``y`` about as often as ``mu`` says.

    Passes iff for every length m <= k and every block B over digits
    0..max(support bound, max digit of y):

        mu(B) * len(y) * (1 - eps)  <=  N(B, y)  <=  mu(B) * len(y) * (1 + eps)

    with N counting overlapping occurrences.  With eps = p/q that is the
    band (q-p, q+p, q, 0) of ``first_outside_band``, compared in integers
    with no Fraction per block.  The first violation (shortest length,
    then lexicographic) is returned as a witness.  ``y`` may be a
    ConcatSpec: its length is the sum of multiplicity times block length,
    its top digit comes from the distinct blocks, and its windows are
    counted without building its digits.  Any other digit sequence is
    packed once into a DigitString, which each length's ``tally_blocks``
    reads without repacking; either text gives its ``length`` and ``top``.
    The alphabet**k blocks of the longest length count against the size
    cap before any length is checked, so a check the cap refuses does no
    work.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError(f"eps must satisfy 0 < eps < 1, got {eps}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    text = y if isinstance(y, ConcatSpec) else DigitString(y)  # packed once; every later read shares it
    n = text.length
    if n == 0:
        raise ValueError("normality check needs a nonempty digit string")
    alphabet = max(mu.support_bound, text.top) + 1
    check_cap(alphabet**k, what="enumerated blocks")
    p, q = eps.numerator, eps.denominator
    for m in range(1, k + 1):
        found = first_outside_band(text, n, m, alphabet, mu, q - p, q + p, q, 0)
        if found is not None:
            return NormalityVerdict(False, n, eps, k, found[1])
    return NormalityVerdict(True, n, eps, k)
