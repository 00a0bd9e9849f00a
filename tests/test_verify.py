"""Verification certificates: honest passes, injected failures, determinism.

Every claim gets at least one negative control: a seam (a module attribute
or a family-tagged spec) is tampered with and the verifier must produce a
failed certificate with a concrete counterexample, never an exception and
never a false pass.
"""

import hashlib
import inspect
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cantornormal import cli
from cantornormal import constructions as constructions_module
from cantornormal import verify as verify_module
from cantornormal import weightings as weightings_module
from cantornormal.blocks import ConcatSpec, tally_blocks
from cantornormal.cantor import BasicSequence, CantorExpansion
from cantornormal.constructions import (
    ConstructionSpec,
    SegmentSpec,
    assemble,
    build_C,
    build_P_runs,
    qde_default_eps,
    qde_spec,
    qnex_spec,
    salat_counterexample_spec,
)
from cantornormal.discrepancy import PrefixWeights, boundf_hypotheses, e1l_bound, sweep_dtype
from cantornormal.errors import InvalidSpecError, SizeLimitError
from cantornormal.limits import size_cap
from cantornormal.verify import (
    CLAIMS,
    DEFAULT_JOBS,
    Certificate,
    run_all,
    run_claim,
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
from cantornormal.weightings import uniform

from oracles import literal_notdn, literal_salat, literal_t0


# ---------------------------------------------------------------------------
# Certificate mechanics.
# ---------------------------------------------------------------------------


def test_failed_certificate_requires_counterexample():
    with pytest.raises(ValueError):
        Certificate(claim="x", params={}, passed=False, checked=1)
    cert = Certificate(claim="x", params={}, passed=False, checked=1, counterexample={"n": 1})
    assert cert.counterexample == {"n": 1}


def test_certificate_json_excludes_runtime_and_stringifies_fractions():
    cert = Certificate(
        claim="x",
        params={"eps": Fraction(1, 3)},
        passed=True,
        checked=2,
        details={"values": [Fraction(1, 2), 5]},
        runtime_seconds=1.23,
        minor_faults=4,
    )
    obj = cert.to_json()
    assert "runtime_seconds" not in obj and "minor_faults" not in obj
    assert obj["params"]["eps"] == "1/3"
    assert obj["details"]["values"] == ["1/2", 5]


def test_certificates_are_byte_identical_across_runs():
    grid = {"b": [2, 3], "w": [1, 2]}
    [a] = run_claim("lemma-amount", grid)
    [b] = run_claim("lemma-amount", grid)
    # the runtimes and page faults differ between the runs; the canonical bytes may not
    assert isinstance(a.runtime_seconds, float) and isinstance(b.runtime_seconds, float)
    assert type(a.minor_faults) is type(b.minor_faults) is int and min(a.minor_faults, b.minor_faults) >= 0
    assert a.canonical_bytes() == b.canonical_bytes()
    assert a.canonical_bytes().endswith(b"\n")


def test_runner_and_direct_call_give_the_same_bytes():
    direct = verify_lemma_amount(b_range=[2, 3], w_range=[1, 2])
    [run] = run_claim("lemma-amount", {"b": [2, 3], "w": [1, 2]})
    assert direct.runtime_seconds is direct.minor_faults is None  # verifiers never read the clock
    assert run.canonical_bytes() == direct.canonical_bytes()
    [point] = run_claim("eknu", {"b": [6], "w": [2], "k": [1]})
    assert point.canonical_bytes() == verify_eknu(6, 2, 1).canonical_bytes()
    [plain] = run_claim("salat-counterexample", {"m_rows": [30]})
    assert plain.canonical_bytes() == verify_salat_counterexample(30).canonical_bytes()


# ---------------------------------------------------------------------------
# Counting lemmas.
# ---------------------------------------------------------------------------


def test_lemma_amount_passes():
    cert = verify_lemma_amount()
    assert cert.passed
    assert cert.checked == sum((b + 1) ** w for b in (2, 3, 4) for w in (1, 2, 3))


def test_lemma_amount_catches_wrong_weighting(monkeypatch):
    monkeypatch.setattr(verify_module, "nu", lambda b: uniform(b + 1))
    cert = verify_lemma_amount(b_range=(2,), w_range=(1,))
    assert not cert.passed
    ce = cert.counterexample
    assert ce["copies"] != ce["expected"]


def test_lemma_amount_past_int64():
    # copies up to 65520**4 times den**4 = 2**64: the comparison runs on Python ints
    cert = verify_lemma_amount(b_range=(16,), w_range=(4,))
    assert cert.passed
    assert cert.checked == 17**4


def test_lemma_amount_names_a_tampered_run(monkeypatch):
    real = verify_module.build_P_runs

    def tampered(b, w):
        runs = real(b, w)
        if (b, w) != (3, 2):
            return runs
        parts = list(runs.parts)
        m, block = parts[7]
        parts[7] = (m + 1, block)  # the run of block (1, 3): 5 copies become 6
        return ConcatSpec(tuple(parts))

    monkeypatch.setattr(verify_module, "build_P_runs", tampered)
    cert = verify_lemma_amount(b_range=(2, 3), w_range=(1, 2))
    assert not cert.passed
    # 2**(3*2) * nu(3)(1, 3) = 64 * (1/8) * (5/8)
    assert cert.counterexample == {"b": 3, "w": 2, "block": [1, 3], "copies": 6, "expected": Fraction(5)}
    # every block of (2, 1), (2, 2) and (3, 1), then (3, 2) up to the run
    assert cert.checked == 3 + 9 + 4 + 8
    assert cert.to_json()["counterexample"]["expected"] == "5"


def test_lemma_pbw_passes():
    cert = verify_lemma_pbw()
    assert cert.passed
    assert cert.checked == 15  # every (b, w) in the default grid fits the cap
    assert cert.details["skipped"] == []


def test_lemma_pbw_skips_oversized_cases():
    cert = verify_lemma_pbw(b_range=(2, 6), w_range=(2, 4), max_len=10**5)
    assert cert.passed
    assert cert.checked == 3
    assert cert.details["skipped"] == [{"b": 6, "w": 4, "length": 4 * 2**24}]


def test_lemma_pbw_catches_wrong_builder(monkeypatch):
    monkeypatch.setattr(verify_module, "build_P", lambda b, w: build_C(b + 1, w))
    cert = verify_lemma_pbw(b_range=(2,), w_range=(2,))
    assert not cert.passed
    assert cert.counterexample == {"b": 2, "w": 2, "expected": 32, "observed": 18}


def test_bounds_ng_nl_passes():
    cert = verify_bounds_ng_nl(2, 2, 2)
    assert cert.passed
    assert cert.checked == 3 + 9  # all 1-blocks and 2-blocks over base 3


def test_bounds_ng_nl_catches_inflated_tally(monkeypatch):
    def inflated(text, k, alphabet):
        codes, counts = tally_blocks(text, k, alphabet)
        counts = counts.copy()
        counts[0] += 10**9  # the first block that occurs
        return codes, counts

    monkeypatch.setattr(weightings_module, "tally_blocks", inflated)
    cert = verify_bounds_ng_nl(2, 2, 1)
    assert not cert.passed
    assert cert.counterexample["observed"] > cert.counterexample["upper"]


def test_bounds_ng_nl_catches_deflated_tally(monkeypatch):
    def deflated(text, k, alphabet):
        codes, counts = tally_blocks(text, k, alphabet)
        if k == 2:
            counts = counts.copy()
            counts[np.searchsorted(codes, 1 * 3 + 2)] = 1  # block (1, 2), whose band is 2 <= N <= 2 * 2 + 3**2
        return codes, counts

    monkeypatch.setattr(weightings_module, "tally_blocks", deflated)
    cert = verify_bounds_ng_nl(2, 2, 2)
    assert not cert.passed
    assert cert.checked == 3 + 6  # every 1-block, then the 2-blocks up to (1, 2)
    # the bounds are JSON integers, not "p/q" strings
    assert json.loads(cert.canonical_bytes())["counterexample"] == {
        "block": [1, 2], "lower": 2, "observed": 1, "upper": 13,
    }


def test_no_verifier_binds_a_callable_default():
    # a function bound as a default escapes whatever later replaces the
    # module global it came from: a test's fake or the benchmark's tracer
    bound = [
        f"{claim}({p.name}=...)"
        for claim, (fn, _) in CLAIMS.items()
        for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty and callable(p.default)
    ]
    assert bound == []


def test_bounds_ng_nl_runtime_includes_the_build(monkeypatch):
    def slow_runs(b, w):
        time.sleep(0.05)
        return build_P_runs(b, w)

    monkeypatch.setattr(verify_module, "build_P_runs", slow_runs)
    [cert] = run_claim("bounds-ng-nl", {"b": [2], "w": [2], "k_max": [1]})
    assert cert.passed and cert.runtime_seconds >= 0.05


def test_runtime_includes_the_default_spec_build(monkeypatch):
    # the default spec is built before any checkpoint is visited; the
    # runner's one timer around the whole call must count it
    def slow_spec():
        time.sleep(0.05)
        return qnex_spec()

    monkeypatch.setattr(verify_module, "qnex_spec", slow_spec)
    [cert] = run_claim("t0-scaled")
    assert cert.passed and cert.runtime_seconds >= 0.05


def test_bounds_ng_nl_guards():
    with pytest.raises(InvalidSpecError):
        verify_bounds_ng_nl(2, 2, 3)
    with pytest.raises(InvalidSpecError):
        verify_bounds_ng_nl(2, 2, 0)


def test_lemma_1021_passes_and_skips_small_bases():
    cert = verify_lemma_1021(b_range=range(4, 8), w_range=range(2, 6))
    assert cert.passed
    assert cert.details["skipped_b"] == [4, 5]
    assert cert.checked > 0


@pytest.mark.parametrize(
    "verifier, kwargs, skipped",
    [
        (verify_lemma_amount, {"b_range": ()}, None),
        (verify_lemma_amount, {"w_range": []}, None),
        (verify_lemma_pbw, {"b_range": (6,), "w_range": (4,)}, ("skipped", [{"b": 6, "w": 4, "length": 4 * 2**24}])),
        (verify_lemma_1021, {"b_range": range(2, 6)}, ("skipped_b", [2, 3, 4, 5])),
        (verify_lemma_1021, {"w_range": (1,)}, ("skipped_b", [])),
    ],
)
def test_range_claims_that_check_nothing_fail(verifier, kwargs, skipped):
    cert = verifier(**kwargs)
    assert not cert.passed
    assert cert.checked == 0
    assert "nothing was checked" in cert.counterexample["reason"]
    if skipped is not None:
        key, value = skipped
        assert cert.details[key] == value


def test_lemma_1021_catches_broken_inequality(monkeypatch):
    monkeypatch.setattr(verify_module, "_growth_rhs", lambda b, w, k, m: -1)
    cert = verify_lemma_1021()
    assert not cert.passed
    assert cert.counterexample["rhs"] == -1


def test_eknu_passes_smallest_case():
    cert = verify_eknu(6, 2, 1)
    assert cert.passed
    assert cert.checked == 7
    assert cert.details["eps"] == Fraction(1, 2)
    assert cert.details["length"] == 2 * 2**12


def test_eknu_catches_wrong_weighting(monkeypatch):
    monkeypatch.setattr(verify_module, "nu", uniform)
    cert = verify_eknu(6, 2, 1)
    assert not cert.passed
    assert "block" in cert.counterexample


def test_eknu_reaches_past_the_digit_cap():
    # 4 * 2**32 digits are described by 9**4 runs: counted, never built
    cert = verify_eknu(8, 4, 2)
    assert cert.passed
    assert cert.details["length"] == 4 * 2**32


def test_eknu_at_b6_w6_k3_is_byte_identical():
    # 7**6 runs describing 6 * 2**36 digits; the digest is the one the
    # per-offset run walk produced before the packed run table
    cert = verify_eknu(6, 6, 3)
    assert cert.passed
    assert cert.canonical_bytes() == (
        b'{"checked":399,"claim":"eknu","counterexample":null,'
        b'"details":{"eps":"1/2","length":412316860416},'
        b'"params":{"b":6,"k":3,"w":6},"passed":true}\n'
    )
    assert hashlib.sha256(cert.canonical_bytes()).hexdigest() == (
        "e809a05c9d3a977b63b2a76eea058c3b0bf4c27b7edcbd342496ec1eb82b3df0"
    )


def test_eknu_cap_bounds_enumerated_runs():
    # the cap counts the 7**2 blocks compared; the 7**4 runs are never built
    with size_cap(48), pytest.raises(SizeLimitError, match="needs 49 enumerated blocks"):
        verify_eknu(6, 4, 2)
    with size_cap(49):
        assert verify_eknu(6, 4, 2).passed


def test_bounds_ng_nl_full_width_window():
    cert = verify_bounds_ng_nl(6, 4, 2)
    assert cert.passed
    assert cert.checked == 7 + 49
    with size_cap(48), pytest.raises(SizeLimitError, match="needs 49 enumerated blocks"):
        verify_bounds_ng_nl(6, 4, 2)
    with size_cap(49):
        assert verify_bounds_ng_nl(6, 4, 2).passed


def test_eknu_guards():
    with pytest.raises(InvalidSpecError):
        verify_eknu(5, 2, 1)
    with pytest.raises(InvalidSpecError):
        verify_eknu(6, 2, 2)
    with pytest.raises(InvalidSpecError):
        verify_eknu(6, 4, 0)


# ---------------------------------------------------------------------------
# Scaled-construction claims: tampered specs wear the right family tag but
# the wrong digits, so only a verifier that reads the data can catch them.
# ---------------------------------------------------------------------------


def tampered_qnex_max_digits():
    segs = [SegmentSpec(0, (0, 1), 2) for _ in range(5)]
    for i in range(6, 11):
        segs.append(SegmentSpec(2 ** (2 * i), (2**i - 1,) * 8, 2**i))
    return ConstructionSpec(tuple(segs), family="qnex-scaled")


def tampered_qnex_spread_digits():
    segs = [SegmentSpec(0, (0, 1), 2) for _ in range(5)]
    for i in range(6, 11):
        segs.append(SegmentSpec(2 ** (2 * i), tuple(range(2**i)), 2**i))
    return ConstructionSpec(tuple(segs), family="qnex-scaled")


def tampered_qde_constant_digits():
    segs = [SegmentSpec(0, (0, 1), 2)]
    for i in range(2, 13):
        segs.append(SegmentSpec(i**3, (0,) * (2 * i * i), i))
    return ConstructionSpec(tuple(segs), family="qde-scaled")


def test_t0_scaled_passes():
    cert = verify_t0_scaled(n_checkpoints=20)
    assert cert.passed
    assert cert.checked == len(range(0)) + cert.details["positions"]
    # the per-segment maxima respect the per-segment thresholds
    for j_str, hi in cert.details["max_hi_by_segment"].items():
        j = int(j_str)
        assert hi <= Fraction(j + 1, 2**j) + Fraction(1, 2**64)


def test_t0_scaled_catches_oversized_digits():
    cert = verify_t0_scaled(tampered_qnex_max_digits(), n_checkpoints=10)
    assert not cert.passed
    ce = cert.counterexample
    assert ce["digit"] > ce["j"] or ce["hi"] > ce["bound"]


def test_t0_scaled_guards():
    with pytest.raises(InvalidSpecError):
        verify_t0_scaled(qde_spec())
    with pytest.raises(ValueError):
        verify_t0_scaled(M=0)


def test_notdn_scaled_passes():
    cert = verify_notdn_scaled(n_checkpoints=20)
    assert cert.passed
    assert cert.details["j_min"] == 6
    assert cert.details["discrepancy"] >= 1 - Fraction(7, 64) - Fraction(1, 2**64)


def test_notdn_scaled_catches_spread_orbit():
    cert = verify_notdn_scaled(tampered_qnex_spread_digits(), n_checkpoints=20)
    assert not cert.passed
    assert cert.counterexample["discrepancy"] < cert.counterexample["threshold"]


def _plain_segments(spec):
    """A spec's segments as (multiplicity, digit tuple, base) triples for the oracles."""
    return [(seg.multiplicity, seg.block_digits.as_tuple(), seg.base) for seg in spec.segments]


@pytest.fixture(scope="module")
def small_qnex():
    spec = qnex_spec(i_max=7)
    return spec, _plain_segments(spec)


def _orbit_fields(cert):
    return cert.passed, cert.checked, cert.counterexample, cert.details


@pytest.mark.parametrize("M", [1, 5, 64])
@pytest.mark.parametrize("n_checkpoints", [1, 7, 33])
def test_orbit_claims_match_fraction_reference(small_qnex, n_checkpoints, M):
    spec, segments = small_qnex
    t0 = verify_t0_scaled(spec, n_checkpoints=n_checkpoints, M=M)
    assert _orbit_fields(t0) == literal_t0(segments, n_checkpoints, M)
    notdn = verify_notdn_scaled(spec, n_checkpoints=n_checkpoints, M=M)
    assert _orbit_fields(notdn) == literal_notdn(segments, n_checkpoints, M)


@pytest.mark.parametrize("tampered", [tampered_qnex_max_digits, tampered_qnex_spread_digits])
def test_orbit_claims_on_tampered_specs_match_fraction_reference(tampered):
    spec = tampered()
    segments = _plain_segments(spec)
    t0 = verify_t0_scaled(spec, n_checkpoints=21)
    assert _orbit_fields(t0) == literal_t0(segments, 21, 64)
    notdn = verify_notdn_scaled(spec, n_checkpoints=21)
    assert _orbit_fields(notdn) == literal_notdn(segments, 21, 64)
    assert not (t0.passed and notdn.passed)


@pytest.mark.parametrize("M", [5, 64])
def test_orbit_claims_cap_the_tail_of_each_enclosure(small_qnex, M):
    # the spec is built outside the cap; only the M tail positions per enclosure count
    spec, _ = small_qnex
    for claim in (verify_t0_scaled, verify_notdn_scaled):
        with size_cap(M - 1), pytest.raises(SizeLimitError):
            claim(spec, M=M)
        with size_cap(M):
            assert claim(spec, M=M).passed


def test_mqd_scaled_passes():
    cert = verify_mqd_scaled()
    assert cert.passed
    assert cert.checked >= 1
    assert cert.details["final_d_star"] <= Fraction(1, 10)
    assert cert.details["epsbar_non_increasing"] is True
    rows = cert.details["rows"]
    # early checkpoints fall before the preconditions hold and say so
    assert any(not r["asserted"] for r in rows)
    assert any(r["asserted"] for r in rows)
    for r in rows:
        if r["asserted"]:
            assert r["d_star"] <= r["epsbar"]


def test_epsbar_rows_work_once_per_included_count(monkeypatch):
    spec = qde_spec()
    positions = verify_module._segment_checkpoints(spec, 40)
    real_epsbar = verify_module.epsbar
    calls = []
    monkeypatch.setattr(verify_module, "epsbar", lambda pw: calls.append(len(pw.entries)) or real_epsbar(pw))
    rows = verify_module.epsbar_rows(spec, positions)
    # 44 checkpoints share 11 fully-included counts; epsbar runs once per asserted one
    assert len(rows) == 44 and len({i for _, i, _, _ in rows}) == 11
    assert calls == sorted({i for _, i, _, bar in rows if bar is not None})
    # every row still equals the bound worked out for its own position alone
    budget = [
        e1l_bound(seg.base, qde_default_eps(s), len(seg.block)) for s, seg in enumerate(spec.segments, start=1)
    ]
    for n, i, hyp, bar in rows:
        assert i == spec.idef_index(n)
        if not 1 <= i < len(spec.segments):
            assert hyp is None and bar is None
            continue
        entries = tuple((seg.multiplicity, len(seg.block), budget[j]) for j, seg in enumerate(spec.segments[:i]))
        pw = PrefixWeights(entries, len(spec.segments[i].block), budget[i])
        assert hyp.failures == boundf_hypotheses(pw).failures
        assert bar == (real_epsbar(pw) if boundf_hypotheses(pw) else None)


def test_mqd_scaled_catches_constant_digits():
    cert = verify_mqd_scaled(tampered_qde_constant_digits())
    assert not cert.passed
    ce = cert.counterexample
    assert ce["d_star"] > ce["epsbar"]


def test_mqd_scaled_catches_a_tampered_count_matrix(monkeypatch):
    real = verify_module.scaled_prefix_counts

    def piled(spec, positions):
        # every scaled digit moved onto the smallest value, 0
        counts = real(spec, positions)
        tampered = np.zeros_like(counts)
        tampered[:, 0] = counts.sum(axis=1)
        return tampered

    monkeypatch.setattr(verify_module, "scaled_prefix_counts", piled)
    cert = verify_mqd_scaled()
    assert not cert.passed
    ce = cert.counterexample
    first = next(r for r in cert.details["rows"] if r["asserted"])
    assert (ce["n"], ce["d_star"]) == (first["n"], 1)
    assert ce["d_star"] > ce["epsbar"]
    assert cert.details["final_d_star"] == 1


def test_mqd_scaled_explicit_checkpoints():
    spec = qde_spec()
    cert = verify_mqd_scaled(spec, checkpoints=[spec.total_length])
    assert cert.passed
    assert len(cert.details["rows"]) == 1
    with pytest.raises(InvalidSpecError):
        verify_mqd_scaled(spec, checkpoints=[0])
    with pytest.raises(InvalidSpecError):
        verify_mqd_scaled(spec, checkpoints=[spec.total_length + 1])
    with pytest.raises(InvalidSpecError):
        verify_mqd_scaled(qnex_spec())


def test_salat_counterexample_passes():
    cert = verify_salat_counterexample(m_rows=60)
    assert cert.passed
    assert cert.details["zero_count"] == 0
    assert cert.details["hypothesis_first_last"][0] == Fraction(1, 2)
    # row-boundary discrepancy is exactly 1/(m+1) on this construction
    assert cert.details["d_star_samples"] == [[50, Fraction(1, 51)], [60, Fraction(1, 61)]]


def _staircase_lists(n_total):
    """The staircase's bases and digits, one entry per position."""
    return assemble(salat_counterexample_spec(n_total), n_total)


def _as_spec(q, digits):
    """A spec holding exactly these per-position bases and digits."""
    return CantorExpansion.from_digits(BasicSequence.explicit(q), digits).spec


def test_salat_counterexample_catches_zero_digit(monkeypatch):
    def with_zero(n_total):
        q, digits = _staircase_lists(n_total)
        tampered = list(digits)
        tampered[4] = 0
        return _as_spec(q, tampered)

    monkeypatch.setattr(constructions_module, "salat_counterexample_spec", with_zero)
    cert = verify_salat_counterexample(m_rows=20)
    assert not cert.passed
    assert any(f["reason"] == "digit 0 occurred" for f in cert.counterexample["failures"])


def test_salat_counterexample_counts_zeros_over_the_whole_staircase(monkeypatch):
    # rows 50 and 60 are sampled; the zeros sit in rows 55 and 60, after the first
    def with_zeros(n_total):
        q, digits = _staircase_lists(n_total)
        tampered = list(digits)
        tampered[55 * 54 // 2] = tampered[n_total - 1] = 0
        return _as_spec(q, tampered)

    monkeypatch.setattr(constructions_module, "salat_counterexample_spec", with_zeros)
    cert = verify_salat_counterexample(m_rows=60)
    q, digits = assemble(with_zeros(1830), 1830)
    assert (cert.passed, cert.counterexample, cert.details) == literal_salat(q, digits, 60)
    assert cert.details["zero_count"] == 2


def test_salat_counterexample_rejects_invalid_generator_output(monkeypatch):
    for wrong in (-1, 1):
        monkeypatch.setattr(
            constructions_module, "salat_counterexample_spec", lambda n, d=wrong: salat_counterexample_spec(n + d)
        )
        with pytest.raises(InvalidSpecError, match="^expected 55 positions, got 5[46]$"):
            verify_salat_counterexample(m_rows=10)

    def digit_out_of_range(n_total):
        spec = salat_counterexample_spec(n_total)
        return ConstructionSpec((SegmentSpec(1, (9,), 2), *spec.segments[1:]))  # base there is 2

    # the segment refuses the digit, so no such spec reaches the verifier
    monkeypatch.setattr(constructions_module, "salat_counterexample_spec", digit_out_of_range)
    with pytest.raises(InvalidSpecError, match="^digit 9 out of range for base 2$"):
        verify_salat_counterexample(m_rows=10)


@pytest.mark.parametrize("m_rows", [*range(2, 41), 60, 200, 201])
def test_salat_counterexample_details_match_per_position_reference(m_rows):
    cert = verify_salat_counterexample(m_rows=m_rows)
    q, digits = _staircase_lists(m_rows * (m_rows + 1) // 2)
    assert (cert.passed, cert.counterexample, cert.details) == literal_salat(q, digits, m_rows)


def _tampered_bases(monkeypatch, changes):
    def tampered(n_total):
        q, digits = _staircase_lists(n_total)
        for pos, base in changes.items():
            q[pos - 1] = base
        return _as_spec(q, digits)

    monkeypatch.setattr(constructions_module, "salat_counterexample_spec", tampered)


@pytest.mark.parametrize(
    "row,base,message",
    [
        (3, 1, "segment base must be an integer >= 2, got 1"),
        (1, 2.0, "segment base must be an integer >= 2, got 2.0"),
        (3, 3, "digit 3 out of range for base 3"),
    ],
    ids=["base-1", "float-base", "digit-over-base"],
)
def test_salat_counterexample_refuses_bad_bases(monkeypatch, row, base, message):
    # a row moved to a bad base is refused by its segment before the verifier reads it
    def tampered(n_total):
        segments = list(salat_counterexample_spec(n_total).segments)
        segments[row - 1] = SegmentSpec(1, segments[row - 1].block, base)
        return ConstructionSpec(tuple(segments))

    monkeypatch.setattr(constructions_module, "salat_counterexample_spec", tampered)
    with pytest.raises(InvalidSpecError, match=f"^{message}$"):
        verify_salat_counterexample(m_rows=10)


def test_salat_counterexample_reads_bases_past_int64_exactly(monkeypatch):
    # position 6 holds digit 3 (row 3); a base of 2**70 keeps it valid
    _tampered_bases(monkeypatch, {6: 2**70})
    cert = verify_salat_counterexample(m_rows=4)
    q, digits = assemble(constructions_module.salat_counterexample_spec(10), 10)
    assert q[5] == 2**70
    assert cert.details == literal_salat(q, digits, 4)[2]
    # rows 1..4 add 1/2, 2/3, 2/4 + 1/2**70 and 4/5
    assert cert.details["normalizer_samples"] == [[4, Fraction(37, 15) + Fraction(1, 2**70)]]


def test_salat_counterexample_object_dtype_matches_reference(monkeypatch):
    # bases times 2**64 do not fit int64, so every array is object
    _tampered_bases(monkeypatch, {pos: base << 64 for pos, base in enumerate(_staircase_lists(465)[0], start=1)})
    q, digits = assemble(constructions_module.salat_counterexample_spec(465), 465)
    assert sweep_dtype(max(q), len(q)) is object
    cert = verify_salat_counterexample(m_rows=30)
    assert cert.details == literal_salat(q, digits, 30)[2]


def test_salat_counterexample_two_word_keys_match_reference(monkeypatch):
    # bases times 2**40 stay int64, with two key words per value
    _tampered_bases(monkeypatch, {pos: base << 40 for pos, base in enumerate(_staircase_lists(465)[0], start=1)})
    q, digits = assemble(constructions_module.salat_counterexample_spec(465), 465)
    assert sweep_dtype(max(q), len(q)) is np.int64
    cert = verify_salat_counterexample(m_rows=30)
    assert cert.details == literal_salat(q, digits, 30)[2]


@pytest.mark.parametrize(
    "changes,at_row",
    [
        # row 3 (positions 4..6) over base 1000: its mean drops below row 4's
        ({4: 1000, 5: 1000, 6: 1000}, 4),
        # rows 1 and 2 over bases 4 and 3, 6: both means are exactly 1/4, which is no decrease
        ({1: 4, 2: 3, 3: 6}, 2),
    ],
    ids=["rise", "tie"],
)
def test_salat_counterexample_names_the_row_where_the_mean_rises(monkeypatch, changes, at_row):
    _tampered_bases(monkeypatch, changes)
    cert = verify_salat_counterexample(m_rows=12)
    q, digits = assemble(constructions_module.salat_counterexample_spec(78), 78)
    assert (cert.passed, cert.counterexample, cert.details) == literal_salat(q, digits, 12)
    assert {"reason": "mean reciprocal base rose", "at_row": at_row} in cert.counterexample["failures"]


def test_salat_counterexample_guards():
    with pytest.raises(InvalidSpecError):
        verify_salat_counterexample(m_rows=1)


# ---------------------------------------------------------------------------
# Registry and drivers.
# ---------------------------------------------------------------------------


def test_claims_registry_covers_default_jobs():
    assert set(name for name, _ in DEFAULT_JOBS) <= set(CLAIMS)
    for claim, (fn, kind) in CLAIMS.items():
        assert kind in ("range", "point", "plain")
        assert callable(fn)


def test_run_claim_unknown():
    with pytest.raises(InvalidSpecError):
        run_claim("lemma-unknown")


def test_run_claim_range_style():
    certs = run_claim("lemma-amount", grid={"b": [2, 3], "w": [1, 2]})
    assert len(certs) == 1
    assert certs[0].params == {"b_range": [2, 3], "w_range": [1, 2]}
    assert certs[0].passed


def test_run_claim_point_style():
    certs = run_claim("bounds-ng-nl", grid={"b": [2, 3], "w": [2]}, k_max=1)
    assert len(certs) == 2
    assert all(c.passed for c in certs)
    assert {c.params["b"] for c in certs} == {2, 3}


def test_run_claim_point_style_needs_every_required_parameter():
    with pytest.raises(InvalidSpecError, match="needs grid values for b, w, k;"):
        run_claim("eknu")
    with pytest.raises(InvalidSpecError, match="needs grid values for k_max"):
        run_claim("bounds-ng-nl", grid={"b": [2], "w": [2]})


def test_run_claim_plain_style():
    certs = run_claim("salat-counterexample", grid={"m_rows": [30]})
    assert len(certs) == 1 and certs[0].passed
    with pytest.raises(InvalidSpecError):
        run_claim("salat-counterexample", grid={"m_rows": [30, 40]})


def test_run_all_respects_budget():
    certs, skipped, overruns = run_all(budget_seconds=0.0)
    # a zero budget is exhausted immediately; every label must still appear
    assert len(certs) + len(skipped) == len(DEFAULT_JOBS)
    assert len(overruns) == len(certs)
    assert len(skipped) >= len(DEFAULT_JOBS) - 1
    assert all(isinstance(label, str) and label for label in skipped)


def test_run_all_unbudgeted_prefix_runs_cheap_jobs():
    # cover the run path without paying for the expensive tail: a budget
    # that comfortably fits the first two jobs but not the whole list
    certs, skipped, overruns = run_all(budget_seconds=2.0)
    assert certs, "at least the cheap lemma jobs should fit a 2 s budget"
    # the budget is checked between jobs, so only the last job run can overrun it
    assert len(overruns) <= 1 and all(label.startswith(certs[-1].claim) for label in overruns)
    assert all(c.passed for c in certs)
    assert all(isinstance(c.runtime_seconds, float) for c in certs)
    assert certs[0].claim == "lemma-amount"


def test_verify_all_output_is_byte_identical(tmp_path):
    # the digests the benchmark checks, read from its expected-output file
    expected = json.loads((Path(__file__).parent.parent / "benchmarks" / "expected_verify_all.json").read_text())
    out = tmp_path / "all.json"
    assert cli.main(["verify", "--all", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected["out_sha256"]
    certs = json.loads(out.read_bytes())["certificates"]
    assert len(certs) == len(expected["certificates"]) == len(DEFAULT_JOBS)
    for raw, want in zip(certs, expected["certificates"]):
        cert = Certificate(**raw)
        assert hashlib.sha256(cert.canonical_bytes()).hexdigest() == want["sha256"], want["label"]
