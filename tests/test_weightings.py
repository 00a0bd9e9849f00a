"""Digit weightings: masses, uniformity, block-frequency checks."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantornormal import blocks as blocks_module
from cantornormal import weightings as weightings_module
from cantornormal.blocks import ConcatSpec, DigitString, concat, max_digit
from cantornormal.constructions import build_P_runs
from cantornormal.errors import SizeLimitError
from cantornormal.limits import size_cap
from cantornormal.weightings import (
    Weighting,
    check_eps_k_normal,
    check_pb_uniform,
    first_outside_band,
    nu,
    parse_weighting,
    uniform,
)

from oracles import literal_band, literal_band_check


def test_uniform_masses():
    mu = uniform(3)
    assert mu.weight((0,)) == Fraction(1, 3)
    assert mu.weight((2,)) == Fraction(1, 3)
    assert mu.weight((3,)) == 0
    assert mu.support_bound == 2


def test_nu_masses_frozen():
    mu = nu(2)
    assert mu.weight((0,)) == Fraction(1, 4)
    assert mu.weight((1,)) == Fraction(1, 4)
    assert mu.weight((2,)) == Fraction(1, 2)
    assert mu.weight((3,)) == 0
    assert mu.support_bound == 2
    assert nu(6).weight((6,)) == Fraction(58, 64)


@given(st.integers(2, 8))
def test_nu_masses_sum_to_one(b):
    mu = nu(b)
    assert sum(mu.weight((j,)) for j in range(b + 1)) == 1


@given(st.integers(2, 6), st.lists(st.integers(0, 6), min_size=0, max_size=6))
def test_weight_is_multiplicative(b, digits):
    mu = nu(b)
    expected = Fraction(1)
    for d in digits:
        expected *= mu.weight((d,))
    assert mu.weight(digits) == expected


def _literal_digit_mass(mu, d):
    """A digit's mass written out from the weighting's definition."""
    if mu.kind == "uniform":
        return Fraction(1, mu.b) if d < mu.b else Fraction(0)
    if d < mu.b:
        return Fraction(1, 2**mu.b)
    return Fraction(2**mu.b - mu.b, 2**mu.b) if d == mu.b else Fraction(0)


weightings = st.one_of(
    st.builds(uniform, st.integers(2, 6) | st.just(300)),
    st.builds(nu, st.integers(2, 6) | st.just(300)),
)


@given(weightings, st.lists(st.integers(0, 8) | st.sampled_from([299, 300, 301, 2**64]), max_size=5))
def test_weight_is_the_product_of_literal_digit_masses(mu, digits):
    expected = Fraction(1)
    for d in digits:
        expected *= _literal_digit_mass(mu, d)
    assert mu.weight(digits) == expected
    if digits:
        assert mu.weight(DigitString(digits)) == expected


@given(weightings, st.integers(0, 12), st.data())
def test_numerators_are_literal_masses_over_den_to_the_length(mu, m, data):
    rows = data.draw(st.lists(st.lists(st.integers(0, 8) | st.sampled_from([299, 300, 301]), min_size=m,
                                       max_size=m), min_size=1, max_size=6))
    table = np.array(rows, dtype=np.uint16).reshape(len(rows), m)
    num = mu.numerators(table)
    assert num.shape == (len(rows),)
    for row, got in zip(rows, num.tolist()):
        expected = Fraction(1)
        for d in row:
            expected *= _literal_digit_mass(mu, d)
        assert Fraction(got, mu.den**m) == expected
    # int64 while the largest numerator fits
    assert num.dtype == (object if mu.kind == "nu" and (mu.den - mu.b) ** m >= 1 << 63 else np.int64)


def test_weight_outside_support_is_zero():
    assert uniform(2).weight((0, 5)) == 0
    assert uniform(2).weight(()) == 1


def test_token_round_trip():
    assert parse_weighting("uniform:10") == uniform(10)
    assert parse_weighting("nu:6") == nu(6)
    with pytest.raises(ValueError):
        parse_weighting("gaussian:3")
    with pytest.raises(ValueError):
        parse_weighting("uniform:x")


def test_weighting_kind_validation():
    with pytest.raises(ValueError):
        Weighting(kind="zipf", b=2)
    with pytest.raises(ValueError):
        Weighting(kind="uniform", b=1)


def test_pb_uniform_frozen():
    # the skewed family looks uniform over base 2**b below the top digit
    for b in range(2, 7):
        assert check_pb_uniform(nu(b), b, 2**b, k_max=2)
    assert check_pb_uniform(uniform(5), 5, 5, k_max=3)
    # wrong b: digit masses are 1/4, not 1/2
    assert not check_pb_uniform(nu(2), 2, 2, k_max=1)
    # p too large: the top digit's mass is not 1/2**b
    assert not check_pb_uniform(nu(2), 3, 4, k_max=1)


def test_pb_uniform_same_verdicts_in_small_chunks(monkeypatch):
    monkeypatch.setattr(weightings_module, "_BLOCK_CHUNK", 3)
    assert check_pb_uniform(nu(3), 3, 8, k_max=3)
    assert check_pb_uniform(uniform(5), 5, 5, k_max=2)
    assert not check_pb_uniform(nu(2), 3, 4, k_max=2)
    # 4**k is not a multiple of 3**k: no block has mass 3**-k
    assert not check_pb_uniform(nu(2), 2, 3, k_max=1)


def test_pb_uniform_validation_and_cap():
    with pytest.raises(ValueError):
        check_pb_uniform(nu(2), 0, 4, k_max=1)
    with size_cap(1000), pytest.raises(SizeLimitError):
        check_pb_uniform(uniform(10), 10, 10, k_max=8)


def test_eps_k_normal_accepts_balanced_string():
    # every 1-block and 2-block of base 2 occurs within a factor 1.5 band
    y = (0, 0, 0, 1, 1, 0, 1, 1)
    verdict = check_eps_k_normal(y, Fraction(1, 2), 2, uniform(2))
    assert verdict.passed
    assert bool(verdict)
    assert verdict.length == 8
    assert verdict.witness is None


def test_eps_k_normal_witness_is_first_violation():
    verdict = check_eps_k_normal((0, 0, 0, 0), Fraction(1, 3), 2, uniform(2))
    assert not verdict
    w = verdict.witness
    assert w.block == (0,)
    assert w.observed == 4
    assert w.upper == Fraction(8, 3)
    assert w.lower == Fraction(4, 3)


def test_eps_k_normal_alphabet_widens_to_text():
    # digit 5 has mass zero, so one occurrence of it must be flagged
    verdict = check_eps_k_normal((0, 1, 5), Fraction(1, 2), 1, uniform(2))
    assert not verdict
    assert verdict.witness.block == (5,)
    assert verdict.witness.observed == 1
    assert verdict.witness.upper == 0


def test_eps_k_normal_packs_a_wide_text_once(monkeypatch):
    # a digit past 2**64 makes an object array, which packing reads entry by
    # entry; max_digit and the tally must share the one packed DigitString
    reads = []
    real = blocks_module.digit_data

    def counted(digits):
        if not isinstance(digits, DigitString):  # a DigitString hands over its array
            reads.append(type(digits))
        return real(digits)

    monkeypatch.setattr(blocks_module, "digit_data", counted)
    y = [0] * 5 + [1, 2**64]
    with size_cap(2**65):  # the alphabet reaches 2**64 + 1
        verdict = check_eps_k_normal(y, Fraction(1, 4), 1, uniform(2))
    assert len(reads) == 1
    # digit 0: 5 of 7 digits, above its band 7/2 * (1 +- 1/4)
    assert not verdict
    w = verdict.witness
    assert (w.block, w.observed, w.lower, w.upper) == ((0,), 5, Fraction(21, 8), Fraction(35, 8))
    with size_cap(2**65):
        assert check_eps_k_normal(DigitString(y), Fraction(1, 4), 1, uniform(2)) == verdict


def test_eps_k_normal_validation():
    with pytest.raises(ValueError):
        check_eps_k_normal((0, 1), Fraction(0), 1, uniform(2))
    with pytest.raises(ValueError):
        check_eps_k_normal((0, 1), Fraction(3, 2), 1, uniform(2))
    with pytest.raises(ValueError):
        check_eps_k_normal((0, 1), Fraction(1, 2), 0, uniform(2))
    with pytest.raises(ValueError):
        check_eps_k_normal((), Fraction(1, 2), 1, uniform(2))
    with size_cap(100), pytest.raises(SizeLimitError):
        check_eps_k_normal((0, 1), Fraction(1, 2), 12, uniform(2))


_runs = st.lists(
    st.tuples(st.integers(0, 3), st.lists(st.integers(0, 2), min_size=1, max_size=4)),
    min_size=1,
    max_size=5,
).filter(lambda parts: any(m for m, _ in parts))


@given(
    _runs,
    st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)]),
    st.integers(1, 3),
    st.sampled_from([uniform(2), uniform(3), nu(2)]),
)
def test_eps_k_normal_same_verdict_on_runs_and_digits(parts, eps, k, mu):
    spec = ConcatSpec(tuple((m, DigitString(d)) for m, d in parts))
    assert check_eps_k_normal(spec, eps, k, mu) == check_eps_k_normal(concat(spec), eps, k, mu)


@pytest.mark.parametrize("mu,passed", [(nu(6), True), (uniform(7), False)])
def test_eps_k_normal_on_build_P_runs(mu, passed):
    runs = build_P_runs(6, 2)
    verdict = check_eps_k_normal(runs, Fraction(1, 2), 1, mu)
    assert verdict.passed is passed
    assert verdict == check_eps_k_normal(concat(runs), Fraction(1, 2), 1, mu)


def test_eps_k_normal_on_runs_past_index_size():
    spec = ConcatSpec(((10**30, DigitString((0, 1))),))
    verdict = check_eps_k_normal(spec, Fraction(1, 2), 1, uniform(2))
    assert verdict.passed
    assert verdict.length == 2 * 10**30


def test_eps_k_normal_json_shapes():
    good = check_eps_k_normal((0, 1, 0, 1), Fraction(1, 2), 1, uniform(2))
    out = good.to_json()
    assert out["passed"] is True
    assert "witness" not in out
    bad = check_eps_k_normal((0, 0, 0, 0), Fraction(1, 3), 1, uniform(2))
    out = bad.to_json()
    assert out["passed"] is False
    assert out["witness"]["block"] == [0]
    assert out["witness"]["upper"] == "8/3"


def _literal_masses(mu):
    return [_literal_digit_mass(mu, d) for d in range(mu.b + (mu.kind == "nu"))]


def _agrees_with_literal_band(runs, eps, k, mu):
    spec = ConcatSpec(tuple((c, DigitString(d)) for c, d in runs))
    verdict = check_eps_k_normal(spec, eps, k, mu)
    expected = literal_band_check(runs, eps, k, _literal_masses(mu))
    assert verdict.passed is (expected is None)
    if expected is not None:
        w = verdict.witness
        assert (w.block, w.observed, w.lower, w.upper) == expected
    if spec.length <= 400:
        assert check_eps_k_normal(concat(spec), eps, k, mu) == verdict
    return verdict


_band_weightings = st.sampled_from([uniform(2), uniform(3), nu(2), nu(3)])


@st.composite
def _near_band_runs(draw, mu):
    """Every length-w block over mu's support, scale * den**w * mass copies each,
    then a few copy counts moved, stray runs above the support and a shuffle."""
    w, scale = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3, 10**18]))
    den = 2**mu.b if mu.kind == "nu" else mu.b
    runs = []
    for blk in itertools.product(range(len(_literal_masses(mu))), repeat=w):
        mass = Fraction(1)
        for d in blk:
            mass *= _literal_digit_mass(mu, d)
        runs.append([int(scale * den**w * mass), list(blk)])
    for i, delta in draw(st.lists(st.tuples(st.integers(0, len(runs) - 1), st.integers(-3, 3)), max_size=3)):
        runs[i][0] = max(0, runs[i][0] + delta * draw(st.sampled_from([1, scale])))
    stray = st.tuples(st.integers(0, 2), st.lists(st.integers(0, len(_literal_masses(mu)) + 1), min_size=1, max_size=3))
    runs += draw(st.lists(stray, max_size=2))
    return [tuple(run) for run in draw(st.permutations(runs))]


_random_runs = st.lists(
    st.tuples(
        st.integers(0, 4) | st.integers(10**17, 10**20),
        st.lists(st.integers(0, 5), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    _band_weightings,
    st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]),
    st.integers(1, 3),
    st.integers(1, 7),
)
def test_eps_k_normal_matches_the_literal_band(data, mu, eps, k, chunk):
    # texts near mu's block frequencies pass or fail at any length; random
    # ones fail early.  Digits past the support bound occur in both, copies
    # of 10**17 and more push the terms past int64, and a chunk of a few
    # rows cuts each length's enumeration mid-way
    runs = data.draw(_near_band_runs(mu) | _random_runs)
    if not any(c for c, _ in runs):
        runs.append((1, [0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weightings_module, "_BLOCK_CHUNK", chunk)
        _agrees_with_literal_band(runs, eps, k, mu)


@settings(max_examples=300, deadline=None)
@given(st.data(), _band_weightings, st.integers(1, 3), st.integers(1, 7))
def test_first_outside_band_matches_the_literal_band(data, mu, m, chunk):
    # low and high sit at different distances from over, and slack (past
    # int64 at times) widens only the upper side
    over = data.draw(st.integers(1, 12))
    low, high = data.draw(st.integers(0, over)), data.draw(st.integers(over, 3 * over))
    slack = data.draw(st.integers(0, 20) | st.integers(10**18, 10**20))
    runs = data.draw(_near_band_runs(mu) | _random_runs)
    if not any(c for c, _ in runs):
        runs.append((1, [0]))
    spec = ConcatSpec(tuple((c, DigitString(d)) for c, d in runs))
    masses = _literal_masses(mu)
    alphabet = max(len(masses), max_digit(spec) + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weightings_module, "_BLOCK_CHUNK", chunk)
        found = first_outside_band(spec, spec.length, m, alphabet, mu, low, high, over, slack)
    expected = literal_band(runs, m, masses, low, high, over, slack)
    if expected is None:
        assert found is None
    else:
        rank, w = found
        assert (rank, w.block, w.observed, w.lower, w.upper) == expected


@pytest.mark.parametrize("scale", [1, 10**18])
@pytest.mark.parametrize("chunk", [1, 4, 1 << 16])
@pytest.mark.parametrize("b,w,k", [(2, 2, 1), (2, 4, 2), (3, 2, 1)])
def test_eps_k_normal_passes_P_runs_like_the_literal_band(monkeypatch, scale, chunk, b, w, k):
    # build_P's runs written out literally, their copies scaled; at scale
    # 10**18 the terms D*n*q pass 2**63 and the check runs on Python ints
    runs = [(scale * (2**b - b) ** blk.count(b), list(blk)) for blk in itertools.product(range(b + 1), repeat=w)]
    monkeypatch.setattr(weightings_module, "_BLOCK_CHUNK", chunk)
    eps = Fraction(1, 2)
    verdict = _agrees_with_literal_band(runs, eps, k, nu(b))
    assert verdict.passed
    assert (scale > 1) is ((2**b) ** k * verdict.length * eps.denominator >= 1 << 63)
    failed = _agrees_with_literal_band(runs, Fraction(1, 4), k, uniform(b + 1))
    assert not failed.passed


def test_eps_k_normal_enumerates_in_bounded_chunks(monkeypatch):
    sizes = []
    table = weightings_module.enumeration_table

    def recorded(b, w, lo=0, hi=None):
        rows = table(b, w, lo, hi)
        sizes.append((w, len(rows)))
        return rows

    monkeypatch.setattr(weightings_module, "enumeration_table", recorded)
    monkeypatch.setattr(weightings_module, "_BLOCK_CHUNK", 5)
    verdict = check_eps_k_normal(build_P_runs(2, 3), Fraction(1, 2), 3, nu(2))
    assert verdict.passed
    assert max(size for _, size in sizes) == 5
    assert [sum(size for m, size in sizes if m == length) for length in (1, 2, 3)] == [3, 9, 27]
