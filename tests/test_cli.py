"""CLI behavior: output shapes, exit codes, determinism, size caps.

Logic paths run in-process through cli.main for speed; true usage errors
(argparse exits) and module execution go through a subprocess.
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cantornormal.blocks import read_digit_file, write_digit_file
from cantornormal.cantor import CantorExpansion, orbit_point
from cantornormal.cli import main, parse_budget, parse_grid
from cantornormal.constructions import ConstructionSpec, SegmentSpec, qde_spec
from cantornormal.errors import InvalidSpecError
from cantornormal.limits import DEFAULT_SIZE_CAP, resolve_cap
from cantornormal.verify import CLAIMS, Certificate


def small_spec() -> ConstructionSpec:
    return ConstructionSpec(
        (
            SegmentSpec(0, (0, 1), 2),
            SegmentSpec(2, (0, 1), 2),
            SegmentSpec(3, (1, 3), 4),
        )
    )


SMALL_DIGITS = (0, 1, 0, 1, 1, 3, 1, 3, 1, 3)
SMALL_Q = (2, 2, 2, 2, 4, 4, 4, 4, 4, 4)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "small.json"
    small_spec().save(str(path))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# Argument helpers.
# ---------------------------------------------------------------------------


def test_parse_grid():
    assert parse_grid("b=2..4,w=1..2,k_max=2") == {
        "b": [2, 3, 4],
        "w": [1, 2],
        "k_max": [2],
    }
    assert parse_grid("b=2,b=5..6") == {"b": [2, 5, 6]}
    with pytest.raises(InvalidSpecError):
        parse_grid("b=2..")
    with pytest.raises(InvalidSpecError):
        parse_grid("=3")


def test_parse_budget():
    assert parse_budget("90") == 90.0
    assert parse_budget("30s") == 30.0
    assert parse_budget("10min") == 600.0
    assert parse_budget("1.5h") == 5400.0
    with pytest.raises(InvalidSpecError):
        parse_budget("soon")


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_json(capsys, spec_file):
    code, payload = run_json(capsys, ["construct", "--spec", spec_file, "--n-max", "10"])
    assert code == 0
    assert payload["q"] == list(SMALL_Q)
    assert payload["digits"] == list(SMALL_DIGITS)


def test_construct_output_and_spec_file_are_frozen(tmp_path, capsys):
    # both files were written when the spec held each block's digits and a
    # generator tag; it now holds the enumeration's runs
    data = Path(__file__).resolve().parent / "data" / "specs"
    spec_out = tmp_path / "spec.json"
    assert main(["construct", "--family", "qnex-scaled", "--n-max", "10", "--spec-out", str(spec_out)]) == 0
    assert capsys.readouterr().out == (data / "construct_out.json").read_text()
    assert spec_out.read_bytes() == (data / "qnex_spec.json").read_bytes()


def test_moments_and_orbit_on_qnex_read_only_the_digits_they_need(capsys):
    # moments reads no digit, and an orbit at n = 100 builds only segment 6's
    # 8192-digit block, so neither builds P(10, 2)'s 2,097,152 digits
    for argv in (["moments", "--k", "2"], ["orbit"]):
        assert main(argv + ["--family", "qnex-scaled", "--checkpoints", "100", "--cap", "1000000"]) == 0
    capsys.readouterr()


def test_construct_csv(capsys, spec_file):
    code = main(["construct", "--spec", spec_file, "--n-max", "4", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,q,digit"
    assert lines[1] == "1,2,0"
    assert lines[4] == "4,2,1"


def test_construct_round_trips_artifacts(tmp_path, capsys, spec_file):
    digits_out = str(tmp_path / "digits.bin")
    spec_out = str(tmp_path / "spec-copy.json")
    code = main(
        [
            "construct",
            "--spec",
            spec_file,
            "--n-max",
            "10",
            "--digits-out",
            digits_out,
            "--spec-out",
            spec_out,
            "--out",
            str(tmp_path / "table.json"),
        ]
    )
    assert code == 0
    assert tuple(read_digit_file(digits_out)) == SMALL_DIGITS
    assert ConstructionSpec.load(spec_out) == small_spec()


def test_construct_over_cap_exits_3(capsys, spec_file):
    assert main(["construct", "--spec", spec_file, "--n-max", "10", "--cap", "5"]) == 3


def test_env_cap_is_honored(monkeypatch, capsys, spec_file):
    monkeypatch.setenv("CNL_SIZE_CAP", "5")
    assert main(["construct", "--spec", spec_file, "--n-max", "10"]) == 3
    monkeypatch.setenv("CNL_SIZE_CAP", "50")
    assert main(["construct", "--spec", spec_file, "--n-max", "10"]) == 0


def test_non_positive_cap_flag_exits_2(capsys, spec_file):
    assert main(["construct", "--spec", spec_file, "--n-max", "10", "--cap", "0"]) == 2
    assert "size cap must be a positive integer" in capsys.readouterr().err


def test_cap_flag_does_not_outlive_its_call(monkeypatch, capsys, spec_file):
    monkeypatch.delenv("CNL_SIZE_CAP", raising=False)
    argv = ["construct", "--spec", spec_file, "--n-max", "10"]
    assert main(argv + ["--cap", "5"]) == 3
    assert resolve_cap() == DEFAULT_SIZE_CAP
    assert main(argv) == 0


# One invocation per subcommand that does capped work, and one per claim:
# ``--cap N`` and ``CNL_SIZE_CAP=N`` must give the same exit code.  The tiny
# cap stops the built prefixes of construct, count and normality, the scaled
# claims at their first read of a block's digits and the claims that
# enumerate blocks or positions; moments and report on a spec build no
# prefix and loop over no positions, so they finish under it, and so does
# moments on qnex-scaled, whose spec reads no digit.  The generous one lets
# everything finish.
_POINT_GRIDS = {"eknu": "b=6,w=2,k=1", "bounds-ng-nl": "b=2,w=2,k_max=2"}
CAP_PARITY_ARGV = {
    "construct": ["construct", "--spec", "SPEC", "--n-max", "10"],
    "count": ["count", "--family", "qde-scaled", "--n-max", "1000", "--block", "1,2"],
    "normality": ["normality", "check", "--spec", "SPEC", "--n-max", "10",
                  "--eps", "1/2", "--k", "1", "--mu", "uniform:4"],
    "moments": ["moments", "--spec", "SPEC", "--k", "2", "--checkpoints", "9"],
    "moments-qnex": ["moments", "--family", "qnex-scaled", "--k", "2", "--checkpoints", "100"],
    "orbit": ["orbit", "--spec", "SPEC", "--checkpoints", "1", "--tail", "8"],
    "orbit-qnex": ["orbit", "--family", "qnex-scaled", "--checkpoints", "100", "--tail", "8"],
    "report": ["report", "--spec", "SPEC", "--block", "1,3", "--checkpoints", "9"],
    **{
        f"verify-{claim}": ["verify", "--claim", claim]
        + (["--grid", _POINT_GRIDS[claim]] if claim in _POINT_GRIDS else [])
        for claim in sorted(CLAIMS)
    },
}


@pytest.mark.parametrize("cap", [5, 10**7], ids=["tiny", "generous"])
@pytest.mark.parametrize("name", sorted(CAP_PARITY_ARGV))
def test_cap_flag_and_env_agree(monkeypatch, capsys, spec_file, name, cap):
    argv = [spec_file if a == "SPEC" else a for a in CAP_PARITY_ARGV[name]]
    monkeypatch.delenv("CNL_SIZE_CAP", raising=False)
    by_flag = main(argv + ["--cap", str(cap)])
    monkeypatch.setenv("CNL_SIZE_CAP", str(cap))
    by_env = main(argv)
    capsys.readouterr()
    assert by_flag == by_env
    assert by_env in ((0, 1, 3) if cap == 5 else (0, 1))


# ---------------------------------------------------------------------------
# count / weights / normality
# ---------------------------------------------------------------------------


def test_count_from_digit_file(tmp_path, capsys):
    path = str(tmp_path / "digits.bin")
    write_digit_file(path, SMALL_DIGITS)
    code, payload = run_json(capsys, ["count", "--in", path, "--block", "1,3"])
    assert code == 0
    assert payload == {"block": [1, 3], "count": 3, "length": 10}


def test_count_prefix_window(tmp_path, capsys):
    path = str(tmp_path / "digits.bin")
    write_digit_file(path, SMALL_DIGITS)
    code, payload = run_json(
        capsys, ["count", "--in", path, "--block", "1,3", "--prefix", "5"]
    )
    assert code == 0
    assert payload == {"block": [1, 3], "count": 1, "positions": 5}


def test_count_from_spec_needs_n_max(capsys, spec_file):
    assert main(["count", "--spec", spec_file, "--block", "1"]) == 2


def test_count_without_input_exits_2(capsys):
    assert main(["count", "--block", "1"]) == 2


def test_count_from_file_refuses_n_max(tmp_path, capsys):
    path = str(tmp_path / "digits.bin")
    write_digit_file(path, SMALL_DIGITS)
    assert main(["count", "--in", path, "--n-max", "5", "--block", "1"]) == 2
    assert "--n-max" in capsys.readouterr().err


def test_weights_eval_frozen(capsys):
    code, payload = run_json(capsys, ["weights", "eval", "--mu", "nu:6", "--block", "6,0"])
    assert code == 0
    assert payload["weight"] == "29/2048"
    assert payload["weight_decimal"] == pytest.approx(29 / 2048)


def test_normality_check_passes_and_fails(tmp_path, capsys):
    good = str(tmp_path / "good.bin")
    write_digit_file(good, (0, 1) * 5)
    argv = ["normality", "check", "--in", good, "--eps", "1/2", "--k", "1", "--mu", "uniform:2"]
    code, payload = run_json(capsys, argv)
    assert code == 0 and payload["passed"] is True

    bad = str(tmp_path / "bad.bin")
    write_digit_file(bad, (0,) * 10)
    argv[argv.index(good)] = bad
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert payload["passed"] is False
    # lex order scans (0,) first: its count 10 already exceeds the band
    assert payload["witness"]["block"] == [0]


# ---------------------------------------------------------------------------
# moments / orbit
# ---------------------------------------------------------------------------


def test_moments_constant_base(capsys):
    code, payload = run_json(
        capsys, ["moments", "--const-base", "2", "--k", "3", "--checkpoints", "8"]
    )
    assert code == 0
    assert payload["rows"] == [{"n": 8, "k": 3, "moment": "1", "moment_decimal": 1.0}]


def test_moments_from_spec_csv(capsys, spec_file):
    code = main(
        ["moments", "--spec", spec_file, "--checkpoints", "1,2", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,k,moment,moment_decimal"
    assert lines[1] == "1,1,1/2,0.5"
    assert lines[2] == "2,1,1,1.0"


def test_moments_require_checkpoints(capsys):
    assert main(["moments", "--const-base", "2"]) == 2
    assert main(["moments", "--const-base", "2", "--checkpoints", "0,2"]) == 2


def test_orbit_matches_library(capsys, spec_file):
    code, payload = run_json(
        capsys, ["orbit", "--spec", spec_file, "--checkpoints", "0,3", "--tail", "4"]
    )
    assert code == 0
    exp = CantorExpansion.from_spec(small_spec())
    for row, n in zip(payload["rows"], (0, 3)):
        iv = orbit_point(exp, n, tail=4)
        assert row["n"] == n
        assert row["j"] == small_spec().t0_index(n)
        assert Fraction(row["lo"]) == iv.lo
        assert Fraction(row["hi"]) == iv.hi
        assert row["lo_decimal"] == pytest.approx(float(iv.lo))


def test_per_position_loops_honour_cap(capsys, spec_file):
    # moments on a spec are a closed form over base runs: no cap stops them.
    # qnex-scaled at n = 2e8 spans 2**25 bases 64, then bases 128.
    argv = ["moments", "--family", "qnex-scaled", "--k", "2", "--checkpoints", "200000000"]
    code, payload = run_json(capsys, argv)
    inside = Fraction(2**25 - 1, 64**2) + Fraction(200000001 - 2**25 - 1, 128**2)
    assert code == 0
    assert payload["rows"][0]["moment"] == str(inside + Fraction(1, 64 * 128)) == "150331647/8192"
    # bases 2,2,2,2,4,...: three windows 2*2, one 2*4, then 4*4 (four at n = 8)
    argv = ["moments", "--spec", spec_file, "--k", "2", "--checkpoints", "8,9", "--cap", "8"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert [r["moment"] for r in payload["rows"]] == ["9/8", "19/16"]
    # an orbit enclosure still reads its tail digits one by one
    assert main(["orbit", "--spec", spec_file, "--checkpoints", "1", "--tail", "5", "--cap", "4"]) == 3
    assert "size cap" in capsys.readouterr().err


def test_moments_past_the_spec_end_exits_2(capsys, spec_file):
    # n + k - 1 = 11 base entries, the spec has 10
    assert main(["moments", "--spec", spec_file, "--k", "2", "--checkpoints", "10"]) == 2
    assert "up to position 11" in capsys.readouterr().err


def test_orbit_csv_header(capsys, spec_file):
    code = main(
        [
            "orbit",
            "--spec",
            spec_file,
            "--checkpoints",
            "0",
            "--tail",
            "4",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,j,lo,hi,lo_decimal,hi_decimal"


def test_checkpoints_must_increase(capsys, spec_file):
    assert main(["orbit", "--spec", spec_file, "--checkpoints", "3,3", "--tail", "2"]) == 2


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------


def test_discrepancy_exact_with_kn1(tmp_path, capsys):
    seq = tmp_path / "points.txt"
    seq.write_text("1/4 0.75\n")
    code, payload = run_json(
        capsys, ["discrepancy", "--in", str(seq), "--bounds", "kn1"]
    )
    assert code == 0
    assert payload["n"] == 2
    assert payload["discrepancy"] == "1/4"
    assert payload["bounds"]["kn1"] == "1/4"
    assert payload["within"]["kn1"] is True


def test_discrepancy_kn2_from_families_file(tmp_path, capsys):
    seq = tmp_path / "points.txt"
    seq.write_text("\n".join(f"{2 * i - 1}/20" for i in range(1, 11)) + "\n")
    fams = tmp_path / "families.json"
    fams.write_text(json.dumps([[2, 3, "1/4"], [1, 4, "1/2"]]))
    code, payload = run_json(
        capsys,
        [
            "discrepancy",
            "--in",
            str(seq),
            "--bounds",
            "kn2",
            "--families",
            str(fams),
        ],
    )
    assert code == 0
    assert payload["discrepancy"] == "1/20"
    assert payload["bounds"]["kn2"] == "7/20"


@pytest.mark.parametrize("families", [{"a": 1}, [[2, 3]], [2, 3, "1/4"], [[2, {}, "1/4"]], [[2, 3, "x"]]])
def test_discrepancy_kn2_malformed_families_exits_2(tmp_path, capsys, families):
    seq = tmp_path / "points.txt"
    seq.write_text("1/2\n")
    fams = tmp_path / "families.json"
    fams.write_text(json.dumps(families))
    argv = ["discrepancy", "--in", str(seq), "--bounds", "kn2", "--families", str(fams)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_discrepancy_violated_bound_exits_1(tmp_path, capsys):
    seq = tmp_path / "points.txt"
    seq.write_text("0 0 0 0\n")
    code, payload = run_json(
        capsys,
        [
            "discrepancy",
            "--in",
            str(seq),
            "--bounds",
            "e1l",
            "--e1l-base",
            "10",
            "--e1l-eps",
            "1/100",
        ],
    )
    assert code == 1
    assert payload["discrepancy"] == "1"
    assert payload["within"]["e1l"] is False


def test_discrepancy_output_is_pinned(tmp_path, capsys):
    # stdout and exit codes as the command printed them before its points
    # were read in one pass
    seq = tmp_path / "points.txt"
    seq.write_text("1/3 0.7, 1/3\n2/9 0 5/6\n0.125 3/7 0.9\n")
    fams = tmp_path / "families.json"
    fams.write_text('[[2, 3, "1/10"], [1, 3, "1/5"]]')
    argv = ["discrepancy", "--in", str(seq), "--bounds", "kn1,kn2,e1l", "--families", str(fams),
            "--e1l-base", "9", "--e1l-eps", "1/20"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        '{\n  "bounds": {\n    "e1l": "49/180",\n    "kn1": "5/21",\n    "kn2": "2/15"\n  },\n'
        '  "discrepancy": "5/21",\n  "discrepancy_decimal": 0.23809523809523808,\n  "n": 9,\n'
        '  "within": {\n    "e1l": true,\n    "kn1": true,\n    "kn2": false\n  }\n}\n'
    )
    seq.write_text("1/4 0.5\n3/2 7/8\n")
    assert main(["discrepancy", "--in", str(seq), "--bounds", "kn1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: point 2 is 3/2, outside [0, 1)\n")


def test_discrepancy_bad_value_exits_2(tmp_path, capsys):
    seq = tmp_path / "points.txt"
    seq.write_text("1/4 pear\n")
    assert main(["discrepancy", "--in", str(seq)]) == 2


def test_discrepancy_unknown_bound_exits_2(tmp_path, capsys):
    seq = tmp_path / "points.txt"
    seq.write_text("1/4\n")
    assert main(["discrepancy", "--in", str(seq), "--bounds", "kn9"]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_claim_writes_deterministic_cert_and_sidecar(tmp_path, capsys):
    argv = ["verify", "--claim", "lemma-amount", "--grid", "b=2..3,w=1..2"]
    out1, out2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    b1 = open(out1, "rb").read()
    b2 = open(out2, "rb").read()
    assert b1 == b2, "certificate files must not embed timing noise"
    cert = json.loads(b1)
    assert cert["passed"] is True
    meta = json.loads(open(out1 + ".meta.json").read())
    assert meta["runtimes"][0]["claim"] == "lemma-amount"
    assert isinstance(meta["runtimes"][0]["runtime_seconds"], float)


def test_verify_failing_claim_exits_1(monkeypatch, capsys):
    def always_fails(**kwargs):
        return Certificate(
            claim="zz-fail", params={}, passed=False, checked=1, counterexample={"n": 1}
        )

    monkeypatch.setitem(CLAIMS, "zz-fail", (always_fails, "plain"))
    code, payload = run_json(capsys, ["verify", "--claim", "zz-fail"])
    assert code == 1
    assert payload["passed"] is False


@pytest.mark.parametrize(
    "claim, grid", [("lemma-1021", "b=2..5"), ("lemma-pbw", "b=6,w=4")]
)
def test_verify_range_claim_that_checks_nothing_exits_1(capsys, claim, grid):
    # every base is outside the hypothesis, or every length over max_len
    code, payload = run_json(capsys, ["verify", "--claim", claim, "--grid", grid])
    assert code == 1
    assert payload["passed"] is False and payload["checked"] == 0
    assert "nothing was checked" in payload["counterexample"]["reason"]


def test_verify_bad_grid_exits_2(capsys):
    assert main(["verify", "--claim", "lemma-amount", "--grid", "b=..2"]) == 2


def test_verify_unknown_grid_name_exits_2(capsys):
    assert main(["verify", "--claim", "eknu", "--grid", "foo=1"]) == 2
    err = capsys.readouterr().err
    assert "'foo'" in err and "accepted: b, k, w" in err
    # range-style claims name their *_range parameters without the suffix
    assert main(["verify", "--claim", "lemma-amount", "--grid", "b_range=2"]) == 2
    assert "accepted: b, w" in capsys.readouterr().err


def test_internal_error_exits_4_with_traceback(monkeypatch, capsys):
    def broken(**kwargs):
        raise TypeError("a fault inside the verifier")

    monkeypatch.setitem(CLAIMS, "zz-broken", (broken, "plain"))
    assert main(["verify", "--claim", "zz-broken"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "a fault inside the verifier" in err and "internal error" in err


def test_verify_sidecar_times_a_swapped_in_claim(monkeypatch, tmp_path, capsys):
    # the runner stamps the time even on a verifier that never reads a clock
    def passes(**kwargs):
        return Certificate(claim="zz-pass", params=kwargs, passed=True, checked=1)

    monkeypatch.setitem(CLAIMS, "zz-pass", (passes, "plain"))
    out = str(tmp_path / "c.json")
    assert main(["verify", "--claim", "zz-pass", "--out", out]) == 0
    meta = json.loads(open(out + ".meta.json").read())
    assert [job["claim"] for job in meta["runtimes"]] == ["zz-pass"]
    assert isinstance(meta["runtimes"][0]["runtime_seconds"], float)


@pytest.mark.parametrize(
    "extra",
    [
        ["--all", "--claim", "lemma-1021", "--budget", "0s"],
        ["--all", "--grid", "b=2"],
        ["--claim", "lemma-1021", "--budget", "1s"],
    ],
)
def test_verify_conflicting_flags_exit_2(tmp_path, capsys, extra):
    out = tmp_path / "c.json"
    assert main(["verify", *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--all" in err and "internal error" not in err
    assert not out.exists()


def test_verify_all_with_zero_budget(capsys):
    code, payload = run_json(capsys, ["verify", "--all", "--budget", "0s"])
    assert code == 0
    assert len(payload["certificates"]) + len(payload["skipped"]) == 13


def test_verify_all_sidecar_names_budget_overruns(monkeypatch, tmp_path, capsys):
    # the first job outlasts the budget: it is kept, named as an overrun, and
    # every later job is skipped
    def slow(**kwargs):
        time.sleep(0.2)
        return Certificate(claim="lemma-amount", params=kwargs, passed=True, checked=1)

    monkeypatch.setitem(CLAIMS, "lemma-amount", (slow, "range"))
    out = tmp_path / "all.json"
    assert main(["verify", "--all", "--budget", "0.05s", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "all.json.meta.json").read_text())
    assert meta["overruns"] == ["lemma-amount"]
    assert [job["claim"] for job in meta["runtimes"]] == ["lemma-amount"]
    assert set(meta["runtimes"][0]) == {"claim", "params", "runtime_seconds", "minor_faults"}
    assert meta["runtimes"][0]["minor_faults"] >= 0
    assert len(json.loads(out.read_text())["skipped"]) == 12
    # a budget that holds names no overrun
    assert main(["verify", "--all", "--budget", "1h", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "all.json.meta.json").read_text())
    assert meta["overruns"] == [] and len(meta["runtimes"]) == 13


def test_verify_cap_reaches_the_run_enumeration(capsys):
    # eknu(6, 4, 2) compares 7**2 blocks, over a cap of 48; the 7**4 runs of
    # build_P(6, 4) are never enumerated, so a cap of 49 lets it pass
    argv = ["verify", "--cap", "48", "--claim", "eknu", "--grid", "b=6,w=4,k=2"]
    assert main(argv) == 3
    assert "needs 49 enumerated blocks" in capsys.readouterr().err
    assert main(["verify", "--cap", "49", "--claim", "eknu", "--grid", "b=6,w=4,k=2"]) == 0
    assert main(["verify", "--cap", "1000", "--all"]) == 3
    # bounds-ng-nl at k_max = 1 compares the 7 one-digit blocks
    assert main(["verify", "--cap", "6", "--claim", "bounds-ng-nl", "--grid", "b=6,w=4,k_max=1"]) == 3
    assert "needs 7 enumerated blocks" in capsys.readouterr().err


@pytest.mark.parametrize("claim,grid", [("eknu", "b=6,w=36,k=4"), ("bounds-ng-nl", "b=6,w=36,k_max=4")])
def test_verify_reaches_the_papers_block_length(capsys, claim, grid):
    # w = b**2: 36 * 2**216 digits and 7**36 runs, neither built; only the
    # 7**4 four-digit blocks are compared, under the default cap
    code, payload = run_json(capsys, ["verify", "--claim", claim, "--grid", grid])
    assert code == 0 and payload["passed"] is True
    if claim == "eknu":
        assert payload["details"]["length"] == 36 * 2**216
        assert type(payload["details"]["length"]) is int
    assert payload["checked"] == sum(7**m for m in range(1, 5))


def test_verify_cap_spares_claims_without_enumeration(capsys):
    code, payload = run_json(capsys, ["verify", "--cap", "5", "--claim", "lemma-1021"])
    assert code == 0
    assert payload["passed"] is True


def test_verify_without_claim_exits_2(capsys):
    assert main(["verify"]) == 2


@pytest.mark.parametrize("claim,keys", [("eknu", "b, w, k"), ("bounds-ng-nl", "b, w, k_max")])
def test_verify_point_claim_without_grid_exits_2(capsys, claim, keys):
    assert main(["verify", "--claim", claim]) == 2
    err = capsys.readouterr().err
    assert f"needs grid values for {keys}" in err
    assert "internal error" not in err
    assert main(["verify", "--claim", claim, "--grid", "b=6"]) == 2
    assert "needs grid values for " + keys.removeprefix("b, ") in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "lemma-amount", "--grid", "b=2,w=3"],  # 27 blocks
    ["verify", "--claim", "salat-counterexample"],  # 20100 positions
])
def test_verify_enumerating_claims_honour_cap(monkeypatch, capsys, argv):
    monkeypatch.delenv("CNL_SIZE_CAP", raising=False)
    assert main(argv + ["--cap", "5"]) == 3
    monkeypatch.setenv("CNL_SIZE_CAP", "5")
    assert main(argv) == 3
    assert "size cap is 5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_plain_spec(capsys, spec_file):
    code, payload = run_json(
        capsys,
        [
            "report",
            "--spec",
            spec_file,
            "--block",
            "1",
            "--checkpoints",
            "2,10",
            "--tail",
            "2",
        ],
    )
    assert code == 0
    assert payload["family"] is None
    assert payload["epsbar_trajectory"] == []
    assert [r["n"] for r in payload["normality_ratios"]] == [2, 10]
    # n = 10 leaves no room for a 2-digit tail; the row degrades to nulls
    assert payload["orbit_enclosures"][1] == {"n": 10, "lo": None, "hi": None}
    assert payload["orbit_enclosures"][0]["lo"] is not None
    d0 = payload["d_star_trajectory"][0]
    assert Fraction(d0["d_star"]) <= 1


def test_report_qde_epsbar_trajectory(capsys):
    code, payload = run_json(
        capsys,
        [
            "report",
            "--family",
            "qde-scaled",
            "--block",
            "0",
            "--checkpoints",
            "64,5000",
            "--tail",
            "4",
        ],
    )
    assert code == 0
    assert payload["family"] == "qde-scaled"
    bars = payload["epsbar_trajectory"]
    assert bars[0]["n"] == 64 and bars[0]["i"] == 1
    assert bars[0]["epsbar"] is None and bars[0]["unmet"]
    assert bars[1]["n"] == 5000 and bars[1]["i"] == 4
    assert Fraction(bars[1]["epsbar"]) < 1
    d = payload["d_star_trajectory"][1]
    assert Fraction(d["d_star"]) <= Fraction(bars[1]["epsbar"])


def test_report_rejects_csv(capsys, spec_file):
    # report is one combined JSON document: it takes no --format
    with pytest.raises(SystemExit) as exc:
        main(["report", "--spec", spec_file, "--checkpoints", "2", "--format", "csv"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# error plumbing and process-level behavior
# ---------------------------------------------------------------------------


def test_malformed_spec_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["construct", "--spec", str(bad), "--n-max", "5"]) == 2
    # a generator without its parameters, and explicit digits that are not integers
    for block in ({"gen": "P", "b": 2}, {"gen": "explicit", "digits": [0, [1]]}):
        bad.write_text(json.dumps({"segments": [{"l": 1, "base": 3, "block": block}]}))
        assert main(["construct", "--spec", str(bad), "--n-max", "1"]) == 2


GOOD_SEGMENT = {"l": 2, "base": 3, "block": {"gen": "P", "b": 2, "w": 1}}


@pytest.mark.parametrize(
    "change",
    [
        {"l": 2.9},
        {"l": True},
        {"base": "3"},
        {"base": 3.0},
        {"block": {"gen": "P", "b": 2.5, "w": 1}},
        {"block": {"gen": "C", "b": 3, "w": True}},
        {"block": {"gen": "P", "b": "2", "w": 1}},
    ],
)
def test_spec_file_values_are_not_coerced(tmp_path, capsys, change):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"segments": [GOOD_SEGMENT, GOOD_SEGMENT | change]}))
    assert main(["construct", "--spec", str(bad), "--n-max", "1"]) == 2
    assert "segment 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, message",
    [
        ({"gen": "explicit", "digits": [5]}, "segment 1: digit 5 out of range for base 3"),
        ({"gen": "P", "b": 1, "w": 1}, "segment 1: b must be an integer >= 2, got 1"),
    ],
)
def test_spec_file_block_errors_name_the_segment(tmp_path, capsys, block, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"segments": [GOOD_SEGMENT, {"l": 1, "base": 3, "block": block}]}))
    assert main(["construct", "--spec", str(bad), "--n-max", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("family", [7, None, ["qde-scaled"]])
def test_spec_file_family_must_be_a_string(tmp_path, capsys, family):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"segments": [GOOD_SEGMENT], "family": family}))
    assert main(["construct", "--spec", str(bad), "--n-max", "1"]) == 2
    assert "'family' must be a string" in capsys.readouterr().err


def test_valid_spec_file_round_trips(tmp_path, capsys):
    path, again = tmp_path / "good.json", tmp_path / "again.json"
    path.write_text(json.dumps({"segments": [GOOD_SEGMENT], "family": "mine"}))
    code, payload = run_json(capsys, ["construct", "--spec", str(path), "--n-max", "8", "--spec-out", str(again)])
    assert code == 0
    assert payload["digits"] == [0, 1, 2, 2, 0, 1, 2, 2]
    spec = ConstructionSpec.load(str(path))
    assert spec.family == "mine"
    assert ConstructionSpec.load(str(again)) == spec
    spec.save(str(again))
    assert ConstructionSpec.load(str(again)) == spec


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.bin")
    assert main(["count", "--in", missing, "--block", "1"]) == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_execution_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "cantornormal.cli", "weights", "eval", "--mu", "nu:2", "--block", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["weight"] == "1/2"
    proc = subprocess.run(
        [sys.executable, "-m", "cantornormal.cli", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.skipif(shutil.which("cnl") is None, reason="console script not installed")
def test_console_script_entry_point():
    proc = subprocess.run(["cnl", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "construct" in proc.stdout


def test_console_script_target_resolves_without_install(capsys):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["cnl"]
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    assert "construct" in capsys.readouterr().out


def test_run_option_values_are_checked(capsys, spec_file):
    assert main(["orbit", "--spec", spec_file, "--checkpoints", "1", "--tail", "0"]) == 2
    assert "tail must be an integer >= 1" in capsys.readouterr().err
    assert main(["orbit", "--spec", spec_file, "--checkpoints", ","]) == 2
    assert "checkpoint list is empty" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--spec", spec_file, "--checkpoints", "1", "--format", "yaml"])
    assert exc.value.code == 2


# Each subcommand takes only the options its handler reads, and one input
# source: anything else is a usage error, not an option silently dropped.
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--in", "F", "--block", "1", "--format", "csv"],
        ["weights", "eval", "--mu", "nu:2", "--block", "2", "--tail", "5"],
        ["verify", "--claim", "lemma-1021", "--checkpoints", "1"],
        ["discrepancy", "--in", "F", "--cap", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_unread_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--const-base", "2", "--family", "qde-scaled", "--checkpoints", "2"],
        ["count", "--in", "F", "--family", "qde-scaled", "--n-max", "5", "--block", "1"],
        ["report", "--spec", "F", "--family", "qde-scaled", "--checkpoints", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_second_input_source_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --family: not allowed with argument" in capsys.readouterr().err
