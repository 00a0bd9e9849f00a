"""Independent reference implementations used as test oracles.

Everything here is written from the definitions, in the most literal way
possible, with no imports from the package under test.  Slow is fine; the
point is that a bug in the library and a bug here would have to coincide.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction


def slow_count(pattern, text):
    """Overlapping occurrences by sliding-window tuple comparison."""
    pat = tuple(pattern)
    hay = tuple(text)
    k = len(pat)
    if k == 0 or k > len(hay):
        return 0
    return sum(1 for i in range(len(hay) - k + 1) if hay[i : i + k] == pat)


def slow_tally(text, length):
    """Every length-``length`` window and how often it appears."""
    hay = tuple(text)
    out = {}
    for i in range(len(hay) - length + 1):
        key = hay[i : i + length]
        out[key] = out.get(key, 0) + 1
    return out


def sweep_dstar(points):
    """Star discrepancy by evaluating the defining sup at its breakpoints.

    The empirical gap gamma -> |A([0, gamma))/n - gamma| is piecewise linear
    in gamma with slope -1 between point values, so the sup is attained
    either at a point value (counting strictly-below points) or in the
    right limit just past one (counting through it).  We evaluate both
    candidates at every distinct value plus gamma = 1.
    """
    zs = sorted(Fraction(z) for z in points)
    n = len(zs)
    if n == 0:
        raise ValueError("empty sequence")
    best = Fraction(0)
    for g in sorted(set(zs)) + [Fraction(1)]:
        strictly_below = bisect_left(zs, g)
        best = max(best, abs(Fraction(strictly_below, n) - g))
        if g < 1:
            through = bisect_right(zs, g)
            best = max(best, Fraction(through, n) - g)
    return best


def slow_q_moment(qs, k):
    """Direct sum of reciprocal window products over a finite base list."""
    n = len(qs)
    total = Fraction(0)
    for j in range(n - k + 1):
        prod = 1
        for q in qs[j : j + k]:
            prod *= q
        total += Fraction(1, prod)
    return total


def literal_orbit(qs, ds, n, tail):
    """Enclosure (lo, hi) of T_n(x) from the digits at positions n+1..n+tail.

    lo sums E_m / (q_{n+1} ... q_m) term by term in Fractions; hi adds the
    last term's unit, 1 / (q_{n+1} ... q_{n+tail}).
    """
    assert 0 <= n and 1 <= tail and n + tail <= len(qs) == len(ds)
    lo = Fraction(0)
    unit = Fraction(1)
    for q, d in zip(qs[n : n + tail], ds[n : n + tail]):
        unit /= q
        lo += d * unit
    return lo, lo + unit


def chunk_runs(digits, w):
    """Run-length encode consecutive length-w chunks of a digit string."""
    seq = tuple(digits)
    assert len(seq) % w == 0
    chunks = [seq[i : i + w] for i in range(0, len(seq), w)]
    runs = []
    for ch in chunks:
        if runs and runs[-1][0] == ch:
            runs[-1][1] += 1
        else:
            runs.append([ch, 1])
    return [(tuple(ch), r) for ch, r in runs]
