"""Acceptance gate: fifteen numbered criteria, one printed verdict each.

The headline constructions are astronomically large (the first nontrivial
full-scale block already has more digits than there are atoms), so the gate
checks the underlying counting and discrepancy identities exhaustively at
desk scale, plus the scaled construction families end to end.  Every check
is exact integer or rational arithmetic; "zero tolerance" means equality
or inequality of Fractions, never float comparison.

Each criterion prints exactly one line

    [acceptance] criterion NN PASS|FAIL (elapsed) detail

before asserting, so a red run still reports every verdict it reached.
"""

import itertools
import math
import random
import time
import timeit
from fractions import Fraction

from oracles import sweep_dstar

from cantornormal.blocks import count_occurrences
from cantornormal.cantor import (
    BasicSequence,
    CantorExpansion,
    digits_to_value,
    orbit_point,
    salat_hypothesis,
    value_to_digits,
)
from cantornormal.constructions import (
    assemble,
    build_C,
    build_P,
    qde_default_eps,
    qde_spec,
    salat_counterexample_spec,
)
from cantornormal.discrepancy import (
    PrefixWeights,
    boundf_hypotheses,
    concat_bound,
    e1l_bound,
    epsbar,
    f_bound,
    kn1_bound,
    scaled_digits,
    star_discrepancy,
    unit_sequence,
)
from cantornormal.verify import (
    _qde_segment_eps_primes,
    verify_bounds_ng_nl,
    verify_eknu,
    verify_lemma_1021,
    verify_lemma_amount,
    verify_lemma_pbw,
    verify_mqd_scaled,
    verify_notdn_scaled,
    verify_salat_counterexample,
    verify_t0_scaled,
)
from cantornormal.weightings import check_eps_k_normal, uniform

SEED = 20260819


def _verdict(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    word = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance] criterion {num:2d} {word} ({elapsed:.2f}s/{budget:g}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_c_block_exact_listing():
    expected = (0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2, 2, 0, 2, 1, 2, 2)
    listing = build_C(3, 2)
    best = min(timeit.repeat(lambda: build_C(3, 2), number=1, repeat=25))
    ok = tuple(listing) == expected
    _verdict(1, ok, best, 0.001, f"18-digit listing exact, best build {best * 1e6:.0f}us")


def test_criterion_02_enumeration_length():
    t0 = time.perf_counter()
    cert = verify_lemma_pbw(b_range=(2, 3, 4, 5, 6), w_range=(1, 2, 3), max_len=10**6)
    ok = cert.passed and cert.checked == 15 and cert.details["skipped"] == []
    _verdict(2, ok, time.perf_counter() - t0, 10.0, f"15/15 lengths equal w*2^(b*w)")


def test_criterion_03_copy_count_identity():
    t0 = time.perf_counter()
    cert = verify_lemma_amount(b_range=(2, 3, 4), w_range=(1, 2, 3))
    expected_checked = sum((b + 1) ** w for b in (2, 3, 4) for w in (1, 2, 3))
    ok = cert.passed and cert.checked == expected_checked
    _verdict(3, ok, time.perf_counter() - t0, 10.0, f"{cert.checked} blocks, all copy counts exact")


def test_criterion_04_count_sandwich():
    t0 = time.perf_counter()
    certs = [
        verify_bounds_ng_nl(b, w, min(w, 2))
        for b in (2, 3, 4, 6)
        for w in (2, 3)
    ]
    ok = all(c.passed for c in certs)
    # independent spot check: the counting primitive agrees with a
    # sliding-window recount on the smallest enumerations
    for b in (2, 3):
        text = build_P(b, 2)
        for block in itertools.product(range(b + 1), repeat=2):
            direct = sum(
                1
                for j in range(len(text) - 1)
                if text[j] == block[0] and text[j + 1] == block[1]
            )
            ok = ok and count_occurrences(block, text) == direct
    checked = sum(c.checked for c in certs)
    _verdict(4, ok, time.perf_counter() - t0, 60.0, f"{checked} sandwich checks over 8 cases")


def test_criterion_05_growth_inequality():
    t0 = time.perf_counter()
    cert = verify_lemma_1021(b_range=range(6, 11), w_range=range(2, 13))
    ok = cert.passed and cert.checked == 455
    _verdict(5, ok, time.perf_counter() - t0, 1.0, "455 exact integer inequalities")


def test_criterion_06_band_normality_of_enumerations():
    t0 = time.perf_counter()
    small = verify_eknu(6, 2, 1)
    large = verify_eknu(6, 4, 2)
    ok = (
        small.passed
        and large.passed
        and small.details["eps"] == Fraction(1, 2)
        and large.details["eps"] == Fraction(1, 2)
        and large.details["length"] == 4 * 2**24
    )
    _verdict(6, ok, time.perf_counter() - t0, 300.0, "both enumerations inside every band")


def test_criterion_07_star_discrepancy_exact():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 1000)
        den = rng.randint(1, 997)
        zs = unit_sequence(tuple(Fraction(rng.randrange(den), den) for _ in range(n)))
        if star_discrepancy(zs) != sweep_dstar(zs):
            mismatches += 1
    grid_ok = all(
        star_discrepancy(tuple(Fraction(2 * i - 1, 2 * n) for i in range(1, n + 1)))
        == Fraction(1, 2 * n)
        for n in range(1, 101)
    )
    ok = mismatches == 0 and grid_ok
    _verdict(7, ok, time.perf_counter() - t0, 60.0,
             f"500 oracle matches ({mismatches} mismatches), centered grids exact")


def test_criterion_08_bound_chain():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 1)
    violations = 0
    for _ in range(200):
        n = rng.randint(1, 60)
        den = rng.randint(1, 97)
        zs = unit_sequence(tuple(Fraction(rng.randrange(den), den) for _ in range(n)))
        if star_discrepancy(zs) > kn1_bound(tuple(sorted(zs))):
            violations += 1
    for _ in range(200):
        parts = []
        points: list[Fraction] = []
        for _ in range(rng.randint(1, 5)):
            m = rng.randint(1, 30)
            den = rng.randint(1, 97)
            part = tuple(Fraction(rng.randrange(den), den) for _ in range(m))
            parts.append((1, m, star_discrepancy(unit_sequence(part))))
            points.extend(part)
        whole = star_discrepancy(unit_sequence(tuple(points)))
        if whole > concat_bound(parts):
            violations += 1
    _verdict(8, violations == 0, time.perf_counter() - t0, 60.0,
             "kn1 and concatenation bounds hold on 400 random cases")


def test_criterion_09_scaled_digit_bound():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 2)
    eps = Fraction(1, 2)
    accepted = 0
    attempts = 0
    violations = 0
    while accepted < 200:
        attempts += 1
        assert attempts < 5000, "rejection sampling stalled"
        b = 2 + attempts % 9
        length = rng.randint(100, 300)
        digits = tuple(rng.randrange(b) for _ in range(length))
        if not check_eps_k_normal(digits, eps, 1, uniform(b)).passed:
            continue
        accepted += 1
        d_star = star_discrepancy(scaled_digits(digits, b))
        if d_star > e1l_bound(b, eps, length):
            violations += 1
    _verdict(9, violations == 0, time.perf_counter() - t0, 120.0,
             f"200 accepted blocks ({attempts} draws), bound never violated")


def test_criterion_10_interpolated_bound_grid():
    t0 = time.perf_counter()
    spec = qde_spec()
    eps_primes = _qde_segment_eps_primes(spec, qde_default_eps)
    i = 6  # prefix through the sixth segment; the next row has 343 copies of 98 digits
    entries = tuple(
        (seg.multiplicity, len(seg.block), eps_primes[j])
        for j, seg in enumerate(spec.segments[:i])
    )
    next_len = len(spec.segments[i].block)
    pw = PrefixWeights(entries, next_len, eps_primes[i])
    assert bool(boundf_hypotheses(pw))
    bar = epsbar(pw)
    ws = sorted({round(j * spec.segments[i].multiplicity / 49) for j in range(50)})
    zs = sorted({round(j * next_len / 49) for j in range(50)})
    bad = 0
    for w in ws:
        for z in zs:
            f = f_bound(pw, w, z)
            if f_bound(pw, w + 1, z) >= f:
                bad += 1
            if z < next_len and f_bound(pw, w, z + 1) <= f:
                bad += 1
            if (w, z) == (0, next_len):
                bad += f != bar  # the bound is defined as this corner value
            elif f >= bar:
                bad += 1
    _verdict(10, bad == 0, time.perf_counter() - t0, 60.0,
             f"{len(ws)}x{len(zs)} grid monotone and below {bar}")


def test_criterion_11_orbit_digit_and_enclosure_bound():
    t0 = time.perf_counter()
    cert = verify_t0_scaled(n_checkpoints=100)
    ok = cert.passed and cert.details["positions"] == 100
    for j_str, hi in cert.details["max_hi_by_segment"].items():
        j = int(j_str)
        ok = ok and hi <= Fraction(j + 1, 2**j) + Fraction(1, 2**64)
    _verdict(11, ok, time.perf_counter() - t0, 120.0,
             "100 checkpoints: digits and orbit uppers inside segment bounds")


def test_criterion_12_orbit_concentration():
    t0 = time.perf_counter()
    cert = verify_notdn_scaled(n_checkpoints=100)
    threshold = 1 - Fraction(7, 64) - Fraction(1, 2**64)
    ok = cert.passed and cert.details["j_min"] == 6 and cert.details["discrepancy"] >= threshold
    _verdict(12, ok, time.perf_counter() - t0, 60.0,
             f"orbit-endpoint discrepancy {float(cert.details['discrepancy']):.4f} >= {float(threshold):.4f}")


def test_criterion_13_scaled_value_discrepancy():
    t0 = time.perf_counter()
    cert = verify_mqd_scaled()
    rows = cert.details["rows"]
    ok = (
        cert.passed
        and cert.details["final_d_star"] == Fraction(5519, 57337)
        and cert.details["final_d_star"] <= Fraction(1, 10)
        and cert.details["epsbar_non_increasing"] is True
        and any(r["asserted"] for r in rows)
        and all(r["d_star"] <= r["epsbar"] for r in rows if r["asserted"])
    )
    _verdict(13, ok, time.perf_counter() - t0, 300.0,
             f"final D* = 5519/57337 ~ {5519 / 57337:.4f} <= 0.1")


def test_criterion_14_all_digits_positive_yet_equidistributing():
    t0 = time.perf_counter()
    cert = verify_salat_counterexample(m_rows=200)
    ok = (
        cert.passed
        and cert.details["n_total"] == 20100
        and cert.details["zero_count"] == 0
        and cert.details["d_star_samples"]
        == [[50, Fraction(1, 51)], [100, Fraction(1, 101)], [150, Fraction(1, 151)], [200, Fraction(1, 201)]]
    )
    # mean reciprocal base strictly decreases at every row boundary
    q, _ = assemble(salat_counterexample_spec(20100), 20100)
    Q = BasicSequence.explicit(q)
    running = Fraction(0)
    pos = 0
    previous = None
    decreasing = True
    for m in range(1, 201):
        for _ in range(m):
            pos += 1
            running += Fraction(1, q[pos - 1])
        h = running / pos
        if previous is not None and h >= previous:
            decreasing = False
        previous = h
        if m in (2, 3):
            decreasing = decreasing and h == salat_hypothesis(Q, pos)
    ok = ok and decreasing
    _verdict(14, ok, time.perf_counter() - t0, 60.0,
             "20100 digits, no zeros, row D* = 1/(m+1), hypothesis strictly decreasing")


def test_criterion_15_expansion_round_trip_and_orbit_identity():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 3)
    bad = 0
    for _ in range(500):
        qs = [rng.randint(2, 50) for _ in range(30)]
        den = rng.randint(1, 10**6)
        x = Fraction(rng.randrange(den), den)
        Q = BasicSequence.explicit(qs)
        digits = value_to_digits(x, Q, 30)
        iv = digits_to_value(CantorExpansion.from_digits(Q, digits), 30)
        if not iv.contains(x) or iv.width != Fraction(1, math.prod(qs)):
            bad += 1
    tail = 12
    for _ in range(40):
        qs = [rng.randint(2, 50) for _ in range(20 + tail)]
        den = rng.randint(1, 10**4)
        x = Fraction(rng.randrange(den), den)
        Q = BasicSequence.explicit(qs)
        exp = CantorExpansion.from_digits(Q, value_to_digits(x, Q, 20 + tail))
        for n in range(21):
            iv = orbit_point(exp, n, tail=tail)
            shifted = x * math.prod(qs[:n])
            exact = shifted - math.floor(shifted)
            if not iv.contains(exact):
                bad += 1
    _verdict(15, bad == 0, time.perf_counter() - t0, 60.0,
             "500 round-trip enclosures and 840 orbit identities exact")
