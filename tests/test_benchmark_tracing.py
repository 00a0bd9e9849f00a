"""The traced benchmark wraps only package functions that exist, and sees every layer.

``benchmarks/tracing.py`` names the functions it wraps by (module, attribute)
and the ConstructionSpec methods it wraps by name.  Deleting or renaming one
of them makes the traced benchmark run crash, so the names are checked here.
A layer whose calls stop going through a module global that the tracer
swaps records no span, so a traced ``verify --all`` and a traced
family_queries pass are run here too.
"""
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from cantornormal import cli
from cantornormal.constructions import ConstructionSpec, build_P_runs, qde_spec, qnex_spec
from cantornormal.weightings import check_eps_k_normal, nu

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = _load("tracing")
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _, _ in tracing.SPANNED
        if not callable(getattr(importlib.import_module(f"cantornormal.{mod}"), attr, None))
    ]
    missing += [
        f"ConstructionSpec.{attr}"
        for attr in [a for a, _, _ in tracing.SPEC_SPANNED] + list(tracing.SPEC_COUNTED)
        if not callable(getattr(ConstructionSpec, attr, None))
    ]
    assert not missing, f"benchmarks/tracing.py wraps missing functions: {missing}"


def test_work_counts_on_run_verdict_are_python_ints():
    # the eknu (b=6, w=2, k=1) job of verify_all checks a ConcatSpec of runs:
    # 2 * 2**12 digits over the alphabet 0..6, all 7 one-digit blocks compared
    tracing = _load("tracing")
    runs = build_P_runs(6, 2)
    args = (runs, Fraction(1, 2), 1, nu(6))
    verdict = check_eps_k_normal(*args)
    assert verdict.passed
    for got, literal in ((tracing._len_of(runs), 2 * 2**12), (tracing._blocks_checked(args, {}, verdict), 7)):
        assert type(got) is int and got == literal


def test_traced_verify_all_records_every_layer(tmp_path, monkeypatch):
    # about 2 s: the tracer's work count for the band check reads every
    # digit of a ConcatSpec lazily
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # workloads imports its sibling modules
    layers = _load("workloads").VerifyAll.LAYERS
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--all", "--out", str(tmp_path / "all.json")]) == 0
    finally:
        tracer.uninstall()
    assert set(layers) - set(tracer.aggregate()) == set()


def test_traced_family_queries_pass_records_every_layer(tmp_path, monkeypatch):
    # one pass of seed 1: in-process report, orbit and moments calls on both
    # scaled families, each answer checked as the benchmark checks it
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = _load("workloads")
    workload = workloads.FamilyQueries((qnex_spec(), qde_spec()), 1, str(tmp_path))
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        answers = [workloads._cli_call(list(op.argv)) for op in workload.ops]
    finally:
        tracer.uninstall()
    assert workload.check(answers, 1) == {}
    assert set(workload.LAYERS) - set(tracer.aggregate()) == set()
