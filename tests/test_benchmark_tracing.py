"""The traced benchmark wraps only package functions that exist.

``benchmarks/tracing.py`` names the functions it wraps by (module, attribute)
and the ConstructionSpec methods it wraps by name.  Deleting or renaming one
of them makes the traced benchmark run crash, so the names are checked here.
"""
import importlib
import importlib.util
from pathlib import Path

from cantornormal.constructions import ConstructionSpec

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = _load_tracing()
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
