"""Tour of the two block enumerations and their counting structure.

The C enumeration lists every length-w block over base b once, in
lexicographic order.  The P enumeration works over the extended alphabet
0..b and repeats each block once per top digit it contains, times a fixed
multiplier, which is exactly what makes its block statistics match the
skewed weighting instead of the uniform one.
"""

from cantornormal import (
    build_C,
    build_P,
    build_P_runs,
    count_occurrences,
    count_top_digit,
    nu,
    repetition_count,
)


def show_c():
    listing = build_C(3, 2)
    print("C(3,2), every base-3 pair once:")
    print(" ", listing.as_tuple())
    print("  length", len(listing), "=", "w * b^w =", 2 * 3**2)
    print()


def show_p():
    listing = build_P(2, 2)
    print("P(2,2), pairs over digits {0,1,2} with repetition:")
    print(" ", listing.as_tuple())
    print("  length", len(listing), "=", "w * 2^(b*w) =", 2 * 2**4)
    print()
    print("  block   copies  (2^b-b)^(top digit count)")
    for copies, block in build_P_runs(2, 2).parts:
        predicted = repetition_count(2, 2, block)
        tops = count_top_digit(block, 2)
        print(f"  {block.as_tuple()}  {copies:>5}  {predicted:>3}  (top digit x{tops})")
    print()


def show_counts():
    # occurrence counts inside P track the skewed weighting nu, not the
    # uniform one: the top digit soaks up most of the mass
    text = build_P(4, 2)
    mu = nu(4)
    n = len(text)
    print("P(4,2) single-digit counts against the skewed weighting:")
    for d in range(5):
        observed = count_occurrences((d,), text)
        expected = mu.weight((d,)) * n
        print(f"  digit {d}: observed {observed:>4}  n*mass {float(expected):>8.1f}")
    print()


if __name__ == "__main__":
    show_c()
    show_p()
    show_counts()
