"""Scaled digits can equidistribute without the digit 0 ever appearing.

The staircase construction is one segment per row: row m walks the digits
1,2,...,m once over base m+1.  No digit is ever zero, so the classical
block-frequency notion fails outright for the block (0).  Yet the scaled
values E_n/q_n sweep an ever finer grid of (0,1), so their star
discrepancy at row boundaries is exactly 1/(m+1) and tends to zero.
"""

from fractions import Fraction

from cantornormal import (
    BasicSequence,
    assemble,
    salat_counterexample_spec,
    salat_hypothesis,
    star_discrepancy,
    unit_sequence,
    verify_salat_counterexample,
)


def staircase():
    q, digits = assemble(salat_counterexample_spec(15), 15)
    print("first rows of the staircase:")
    print("  bases ", tuple(q))
    print("  digits", digits.as_tuple())
    print()


def equidistribution():
    print("star discrepancy of the scaled digits at row boundaries (always 1/(m+1)):")
    for m in (10, 50, 200):
        n = m * (m + 1) // 2
        q, digits = assemble(salat_counterexample_spec(n), n)
        pts = unit_sequence(tuple(Fraction(digits[i], q[i]) for i in range(n)))
        d = star_discrepancy(pts)
        print(f"  row {m:>3}: {n:>5} digits, zero count 0, D* = {d}")
    print()


def certificate():
    cert = verify_salat_counterexample(m_rows=200)
    first, last = cert.details["hypothesis_first_last"]
    print(f"certificate over 200 rows: passed={cert.passed}")
    print(f"  zero digit occurrences: {cert.details['zero_count']} in {cert.details['n_total']}")
    print(f"  mean reciprocal base: {first} at the start,"
          f" ~{float(last):.6f} by the end (decreasing)")
    Q = BasicSequence.from_spec(salat_counterexample_spec(20100))
    print(f"  spot check via the library: h(3) = {salat_hypothesis(Q, 3)}")


if __name__ == "__main__":
    staircase()
    equidistribution()
    certificate()
