"""Digit weightings and block-frequency normality checks.

A weighting assigns each digit a non-negative rational mass summing to 1,
extended to blocks multiplicatively.  Two families matter here:

* ``uniform(b)``: every digit below ``b`` gets mass ``1/b``.
* ``nu(b)``: digits ``0..b-1`` get mass ``1/2**b`` each and the top digit
  ``b`` soaks up the rest, ``(2**b - b)/2**b``.  This skewed family is
  exactly ``(b, 2**b)``-uniform: restricted to digits below ``b`` it looks
  like the uniform weighting of the much larger base ``2**b``.

All verdicts are computed in exact rational arithmetic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocks import ConcatSpec, digit_data, max_digit, tally_blocks
from .limits import check_cap

_ZERO = Fraction(0)


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

    def weight(self, block) -> Fraction:
        """Mass of a block: the product of its digit masses (1 for empty).

        Each digit mass is an integer numerator over one common denominator,
        so the mass is an integer product over that denominator to the
        block length; one Fraction is made per block, none per digit.
        """
        digits = digit_data(block)
        if len(digits) and int(digits.max()) > self.support_bound:
            return _ZERO
        if self.kind == "nu":
            # numerator 1 below the top digit b, 2**b - b at it
            den = 2**self.b
            num = (den - self.b) ** int(np.count_nonzero(digits == self.b))
        else:
            den, num = self.b, 1
        return Fraction(num, den ** len(digits))


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
        target = Fraction(1, b**k)
        for tup in itertools.product(range(p), repeat=k):
            if mu.weight(tup) != target:
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


def check_eps_k_normal(y, eps, k: int, mu: Weighting) -> NormalityVerdict:
    """Check that every short block occurs in ``y`` about as often as ``mu`` says.

    Passes iff for every length m <= k and every block B over digits
    0..max(support bound, max digit of y):

        mu(B) * len(y) * (1 - eps)  <=  N(B, y)  <=  mu(B) * len(y) * (1 + eps)

    with N counting overlapping occurrences, compared in exact rationals.
    The first violation (shortest length, then lexicographic) is returned
    as a witness.  ``y`` may be a ConcatSpec: its length is the sum of
    multiplicity times block length, its top digit comes from the distinct
    blocks, and its windows are counted without building its digits.  The
    alphabet**k blocks enumerated count against the size cap.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError(f"eps must satisfy 0 < eps < 1, got {eps}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    if isinstance(y, ConcatSpec):
        text, n = y, y.length
    else:
        text = digit_data(y)
        n = len(text)
    if n == 0:
        raise ValueError("normality check needs a nonempty digit string")
    alphabet = max(mu.support_bound, max_digit(text)) + 1
    check_cap(alphabet**k, what="enumerated blocks")
    for m in range(1, k + 1):
        tallies = tally_blocks(text, m) if n >= m else {}
        for tup in itertools.product(range(alphabet), repeat=m):
            mass = mu.weight(tup)
            lower = mass * n * (1 - eps)
            upper = mass * n * (1 + eps)
            observed = tallies.get(tup, 0)
            if not (lower <= observed <= upper):
                witness = NormalityWitness(tup, observed, lower, upper)
                return NormalityVerdict(False, n, eps, k, witness)
    return NormalityVerdict(True, n, eps, k)
