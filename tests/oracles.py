"""Independent reference implementations used as test oracles.

Everything here is written from the definitions, in the most literal way
possible, with no imports from the package under test.  Slow is fine; the
point is that a bug in the library and a bug here would have to coincide.
"""

import itertools
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


def decode_tally(tally, alphabet, length):
    """A (codes, counts) window tally as a dict keyed by digit tuples.

    Checks the form on the way: codes strictly ascending and below
    alphabet**length, one positive count per code, all leaving their
    arrays as Python ints.
    """
    codes, counts = (part.tolist() for part in tally)
    assert codes == sorted(set(codes)) and all(0 <= code < alphabet**length for code in codes)
    assert len(counts) == len(codes) and all(type(c) is int and c > 0 for c in counts)
    assert all(type(code) is int for code in codes)
    out = {}
    for code, c in zip(codes, counts):
        out[tuple(code // alphabet ** (length - 1 - j) % alphabet for j in range(length))] = c
    return out


def slow_run_tally(runs, length):
    """Window counts of the text made of ``copies`` copies of each ``block``, in order.

    ``runs`` is a list of (copies, block) pairs.  A run keeps at most
    length + 1 of its copies in a shortened text, which is tallied window
    by window.  Every dropped copy sits among kept copies of its own run
    and adds the windows that start in one copy, read around the block:
    once each.
    """
    keep = length + 1
    text, extra = [], {}
    for copies, block in runs:
        block = tuple(block)
        text += block * min(copies, keep)
        if copies > keep:
            around = block * (length // len(block) + 2)
            for p in range(len(block)):
                key = around[p : p + length]
                extra[key] = extra.get(key, 0) + copies - keep
    out = slow_tally(text, length)
    for key, c in extra.items():
        out[key] = out.get(key, 0) + c
    return out


def literal_band_check(runs, eps, k, masses):
    """First block whose count leaves mass * n * (1 -+ eps), or None.

    ``runs`` is a list of (copies, block) pairs making the text; ``masses``
    lists each digit's Fraction mass, digits past its end having mass 0.
    Blocks of length 1..k over digits below max(len(masses), top digit + 1)
    are tried in ``itertools.product`` order; a block's mass is the product
    of its digit masses.  Returns (block, observed, lower, upper).
    """
    n = sum(copies * len(block) for copies, block in runs)
    top = max(d for copies, block in runs if copies for d in block)
    alphabet = max(len(masses), top + 1)
    for m in range(1, k + 1):
        counts = slow_run_tally(runs, m)
        for block in itertools.product(range(alphabet), repeat=m):
            mass = Fraction(1)
            for d in block:
                mass *= masses[d] if d < len(masses) else Fraction(0)
            lower, upper = mass * n * (1 - eps), mass * n * (1 + eps)
            observed = counts.get(block, 0)
            if not lower <= observed <= upper:
                return block, observed, lower, upper
    return None


def literal_band(runs, m, masses, low, high, over, slack):
    """First length-m block whose count leaves mass * n * low/over <= N <= mass * n * high/over + slack, or None.

    ``runs`` and ``masses`` are as in ``literal_band_check``, and blocks are
    tried in the same ``itertools.product`` order.  Returns (rank of the
    block in that order, block, observed, lower, upper).
    """
    n = sum(copies * len(block) for copies, block in runs)
    top = max(d for copies, block in runs if copies for d in block)
    alphabet = max(len(masses), top + 1)
    counts = slow_run_tally(runs, m)
    for rank, block in enumerate(itertools.product(range(alphabet), repeat=m)):
        mass = Fraction(1)
        for d in block:
            mass *= masses[d] if d < len(masses) else Fraction(0)
        lower, upper = mass * n * Fraction(low, over), mass * n * Fraction(high, over) + slack
        observed = counts.get(block, 0)
        if not lower <= observed <= upper:
            return rank, block, observed, lower, upper
    return None


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


def segment_entry(segments, pos):
    """(1-based segment index, base, digit) at 1-based position ``pos`` of (multiplicity, block, base) segments."""
    for index, (mult, block, base) in enumerate(segments, start=1):
        if pos <= mult * len(block):
            return index, base, block[(pos - 1) % len(block)]
        pos -= mult * len(block)
    raise IndexError("position past the last segment")


def literal_orbit_checkpoints(segments, n_checkpoints, M):
    """The shifts n the orbit claims read: about n_checkpoints spread over the nonempty segments.

    Each nonempty segment gets ceil(n_checkpoints / nonempty) positions,
    evenly spaced from its first to its last (its midpoint when it gets one
    or holds one position); a position p becomes the shift p - 1, capped at
    total - M so that M tail digits exist.
    """
    lengths = [mult * len(block) for mult, block, _ in segments]
    total = sum(lengths)
    per = -(-n_checkpoints // sum(1 for length in lengths if length))
    picks = set()
    start = 0
    for length in lengths:
        lo, hi = start + 1, start + length
        if length and (per == 1 or hi == lo):
            picks.add((lo + hi) // 2)
        elif length:
            picks.update(lo + (hi - lo) * i // (per - 1) for i in range(per))
        start += length
    return sorted({min(p - 1, total - M) for p in picks})


def literal_orbit_points(segments, n_checkpoints, M):
    """(n, j, E_{n+1}, lo, hi) at every shift the orbit claims read, summed term by term in Fractions.

    j is the 1-based index of the segment holding position n + 1; lo sums
    E_{n+m} / (q_{n+1} ... q_{n+m}) for m = 1..M and hi adds 1 / (q_{n+1}
    ... q_{n+M}).
    """
    out = []
    for n in literal_orbit_checkpoints(segments, n_checkpoints, M):
        j, _, digit = segment_entry(segments, n + 1)
        lo, unit = Fraction(0), Fraction(1)
        for pos in range(n + 1, n + M + 1):
            _, q, d = segment_entry(segments, pos)
            unit /= q
            lo += d * unit
        out.append((n, j, digit, lo, lo + unit))
    return out


def literal_t0(segments, n_checkpoints, M):
    """The t0-scaled certificate fields: hi <= (j+1)/2**j + 2**-M and E_{n+1} <= j at each shift.

    Returns (passed, checked, counterexample, details) with the
    counterexample at the first shift that breaks either bound.
    """
    largest = {}
    points = literal_orbit_points(segments, n_checkpoints, M)
    for checked, (n, j, digit, _, hi) in enumerate(points, start=1):
        largest[j] = max(largest.get(j, hi), hi)
        bound = Fraction(j + 1, 2**j) + Fraction(1, 2**M)
        if digit > j or hi > bound:
            return False, checked, {"n": n, "j": j, "digit": digit, "hi": hi, "bound": bound}, {}
    details = {"positions": len(points), "max_hi_by_segment": {str(j): largest[j] for j in sorted(largest)}}
    return True, len(points), None, details


def literal_notdn(segments, n_checkpoints, M):
    """The notdn-scaled certificate fields: D* of the upper endpoints (lo where hi is 1) against its threshold.

    Returns (passed, checked, counterexample, details).
    """
    points = literal_orbit_points(segments, n_checkpoints, M)
    j_min = min(j for _, j, _, _, _ in points)
    observed = sweep_dstar([hi if hi < 1 else lo for _, _, _, lo, hi in points])
    threshold = 1 - Fraction(j_min + 1, 2**j_min) - Fraction(1, 2**M)
    counterexample = None if observed >= threshold else {"discrepancy": observed, "threshold": threshold}
    details = {"j_min": j_min, "threshold": threshold, "discrepancy": observed, "points": len(points)}
    return counterexample is None, len(points), counterexample, details


def literal_salat(qs, ds, m_rows):
    """The salat-counterexample certificate fields from per-position bases and digits.

    Row m ends at position m(m+1)/2.  Every sum, mean and D* is a Fraction
    made position by position.  Returns (passed, counterexample, details)
    with the failures in the order the claim lists them.
    """
    values = [Fraction(d, q) for d, q in zip(ds, qs)]
    ends = [m * (m + 1) // 2 for m in range(1, m_rows + 1)]
    samples = sorted({m for m in (50, 100, 150, 200) if m <= m_rows} | {m_rows})
    row_ends = set(ends)
    normalizer, running = [], Fraction(0)
    for pos, q in enumerate(qs, start=1):
        running += Fraction(1, q)
        if pos in row_ends:
            normalizer.append(running)
    means = [s / end for s, end in zip(normalizer, ends)]
    d_samples = [[m, sweep_dstar(values[: ends[m - 1]])] for m in samples]
    details = {
        "n_total": ends[-1],
        "zero_count": list(ds).count(0),
        "hypothesis_first_last": [means[0], means[-1]],
        "d_star_samples": d_samples,
        "normalizer_samples": [[m, normalizer[m - 1]] for m in samples],
    }
    failures = []
    if details["zero_count"]:
        failures.append({"reason": "digit 0 occurred", "count": details["zero_count"]})
    rises = [m for m in range(2, m_rows + 1) if means[m - 1] >= means[m - 2]]
    if rises:
        failures.append({"reason": "mean reciprocal base rose", "at_row": rises[0]})
    if any(a[1] <= b[1] for a, b in zip(d_samples, d_samples[1:])):
        failures.append({"reason": "discrepancy did not decrease", "samples": d_samples})
    row200 = dict((m, d) for m, d in d_samples).get(200)
    if m_rows >= 200 and not (row200 is not None and row200 <= Fraction(1, 20)):
        failures.append({"reason": "row-200 discrepancy above 1/20", "value": row200})
    return not failures, {"failures": failures} if failures else None, details
