"""The benchmark's command lines still parse.

``benchmarks/workloads.py`` drives ``cli.main`` with argv lists it builds
itself, so a CLI change that refuses one of them would fail every op of a
benchmark run.  The module is imported from the benchmark directory, as
``benchmarks/tests/test_checks.py`` imports it.
"""
import importlib
from pathlib import Path

from cantornormal import cli
from cantornormal.constructions import qde_spec, qnex_spec

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def test_cli_parses_every_benchmark_argv(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    specs = (qnex_spec(), qde_spec())
    argvs = [list(op.argv) for op in workloads.FamilyQueries(specs, 1, "unused").ops]
    # VerifyAll builds its argv inside run_pass: record the call instead of running it
    monkeypatch.setattr(workloads, "_timed", lambda fn, argv, clock: argvs.append(argv) or 1)
    workloads.VerifyAll(specs, 1, "unused", {"certificates": []}).run_pass(None)
    assert {argv[0] for argv in argvs} == {"report", "orbit", "moments", "verify"}
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)
