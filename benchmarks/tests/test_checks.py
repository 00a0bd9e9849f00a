"""Self-test of the benchmark's output checks: each corruption must be caught.

    python3 -m pytest benchmarks/tests -q

Runs real library calls on small inputs, confirms the checks accept the
true answers, then corrupts one certificate byte, one D* numerator, one
orbit endpoint and one epsbar value and confirms each is reported as a
failure.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from cantornormal import cantor, constructions, discrepancy, verify  # noqa: E402


def _all_document(certs) -> bytes:
    """Bytes of a ``cnl verify --all --out`` file holding ``certs``."""
    payload = {"certificates": [c.to_json() for c in certs], "skipped": []}
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _certificate_case():
    certs = [verify.verify_lemma_amount(), verify.verify_lemma_1021()]
    data = _all_document(certs)
    expected = {
        "out_sha256": checks.sha256(data),
        "certificates": [
            {"label": c.claim, "sha256": hashlib.sha256(c.canonical_bytes()).hexdigest()} for c in certs
        ],
    }
    return data, expected


def test_certificates_accepted_then_one_corrupt_byte_caught():
    data, expected = _certificate_case()
    assert checks.check_certificates(checks.certificate_answers(data, 2), expected) == {}
    # flip one digit of the second certificate's "checked" count (keys are sorted)
    key = b'"checked": '
    at = data.index(key, data.index(key) + 1) + len(key)
    digit = data[at:at + 1]
    corrupt = data[:at] + (b"1" if digit != b"1" else b"2") + data[at + 1:]
    bad = checks.check_certificates(checks.certificate_answers(corrupt, 2), expected)
    assert 1 in bad and "certificate bytes differ" in bad[1]
    # the untouched certificate is still reported, through the whole-file digest
    assert "output file differs" in bad[0]


def test_missing_certificate_is_a_failure():
    data, expected = _certificate_case()
    truncated = json.dumps({"certificates": json.loads(data)["certificates"][:1]}).encode()
    bad = checks.check_certificates(checks.certificate_answers(truncated, 2), expected)
    assert 1 in bad


def _family_case():
    """A pass of small queries of every form, with its answers."""
    wl = workloads.FamilyQueries((constructions.qnex_spec(), constructions.qde_spec()), 1, "", None)
    wl.ops = [
        workloads.make_query("report", "qde-scaled", 1, (3,), (1, 7, 300, 2000, 1261400)),
        workloads.make_query("report", "qde-scaled", 2, (1, 0), (5, 90)),
        workloads.make_query("orbit", "qnex-scaled", 0, (), (1, 5000, 123456789)),
        workloads.make_query("moments", "qnex-scaled", 2, (), (3, 400)),
        workloads.make_query("moments", "qde-scaled", 1, (), (10, 10**6)),
    ]
    return wl, wl.run_pass(hostspeed.OpClock())


def _edit(answer, edit):
    """The answer with its printed JSON changed by ``edit(payload)``."""
    code, text = answer
    payload = json.loads(text)
    edit(payload)
    return (code, json.dumps(payload))


def _bump(text: str) -> str:
    f = Fraction(text)
    return str(Fraction(f.numerator + 1, f.denominator))


def test_family_answers_accepted():
    wl, answers = _family_case()
    assert wl.check(answers, 1) == {}


def test_corrupt_dstar_numerator_caught():
    wl, answers = _family_case()
    row = answers[0]
    answers[0] = _edit(row, lambda p: p["d_star_trajectory"][3].update(d_star=_bump(p["d_star_trajectory"][3]["d_star"])))
    bad = wl.check(answers, 1)
    assert 0 in bad and "D*" in bad[0]


def test_corrupt_orbit_endpoint_caught():
    wl, answers = _family_case()
    answers[2] = _edit(answers[2], lambda p: p["rows"][1].update(hi=_bump(p["rows"][1]["hi"])))
    bad = wl.check(answers, 1)
    assert 2 in bad and "width" in bad[2]


def test_corrupt_epsbar_caught():
    wl, answers = _family_case()
    answers[0] = _edit(answers[0], lambda p: p["epsbar_trajectory"][4].update(
        epsbar=str(Fraction(p["epsbar_trajectory"][4]["epsbar"]) + Fraction(1, 10**9))))
    bad = wl.check(answers, 1)
    assert 0 in bad and "epsbar" in bad[0]


def test_failed_command_caught():
    wl, answers = _family_case()
    answers[4] = (2, "")
    assert 4 in wl.check(answers, 1)


def test_orbit_oracle_catches_shifted_enclosure():
    nex = cantor.CantorExpansion.from_spec(constructions.qnex_spec())
    iv = cantor.orbit_point(nex, 5000, tail=checks.ORBIT_TAIL)
    assert checks.check_orbit(checks.qnex_model(), 5000, (iv.lo, iv.hi), full=True) is None
    shift = (iv.hi - iv.lo) / 2  # keeps the width, so only the oracle sees it
    assert checks.check_orbit(checks.qnex_model(), 5000, (iv.lo + shift, iv.hi + shift), full=True)


def test_point_set_checks():
    rng = random.Random(3)
    zs = tuple(Fraction(rng.randrange(q), q) for q in (rng.randint(2, 9) for _ in range(40)))
    op = (zs, (10, 25))
    d = discrepancy.star_discrepancy(zs)
    parts = (zs[:10], zs[10:25], zs[25:])
    eps = tuple(discrepancy.star_discrepancy(p) for p in parts)
    cb = discrepancy.concat_bound([(1, len(p), e) for p, e in zip(parts, eps)])
    answer = (d, discrepancy.kn1_bound(sorted(zs)), cb, eps)
    assert checks.check_point_set(op, answer, full=True) is None
    wrong = (Fraction(d.numerator + 1, d.denominator),) + answer[1:]
    assert checks.check_point_set(op, wrong, full=True) is not None
    # every set is checked against the literal formula, sampled or not
    assert checks.check_point_set(op, wrong, full=False) is not None
    wrong_part = answer[:3] + ((answer[3][0] + Fraction(1, 10**6),) + answer[3][1:],)
    assert checks.check_point_set(op, wrong_part, full=False) is not None


def test_models_match_the_constructions():
    """The independent models agree with the package on a spread of positions."""
    for model, spec in ((checks.qnex_model(), constructions.qnex_spec()),
                        (checks.qde_model(), constructions.qde_spec())):
        assert model.total == spec.total_length
        for p in list(range(1, 300)) + [spec.total_length // k for k in (2, 3, 7, 1000)] + [spec.total_length]:
            assert (model.digit(p), model.base(p)) == (spec.digit_at(p), spec.q_at(p))


def test_host_correction_scales_each_op_by_the_kernel_times_around_it():
    ref = hostspeed.REF_S
    clock = hostspeed.OpClock()
    clock.wall, clock.cpu = [1.0, 2.0], [1.0, 2.0]
    # the host runs at half speed from the second kernel timing on; CPU time is unaffected
    clock.samples = [[(ref, ref)], [(2 * ref, ref), (2 * ref, ref)], [(2 * ref, ref)]]
    wall, cpu = clock.corrected()
    assert wall == [0.75, 1.0]
    assert cpu == [1.0, 2.0]


def test_kernel_samples_during_a_long_op_are_taken_off_its_time():
    clock = hostspeed.OpClock()
    t0 = time.perf_counter()
    with clock.op():
        for _ in range(300):  # about 0.45 s at the reference speed
            hostspeed.kernel()
    elapsed = time.perf_counter() - t0
    clock.finish()
    during = clock.samples[0][1:]
    assert len(during) >= 2
    assert clock.wall[0] < elapsed - sum(wall for wall, _ in during)
