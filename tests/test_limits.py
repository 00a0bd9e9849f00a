"""The size cap: one scoped override, resolved in one module.

``limits.size_cap`` is the only way to change the cap for a block of code,
and no package function takes a ``cap`` argument of its own, so a caller
cannot forget to pass the cap on to the work it starts.
"""
import importlib
import inspect
import pkgutil

import pytest

import cantornormal
from cantornormal.errors import SizeLimitError
from cantornormal.limits import DEFAULT_SIZE_CAP, check_cap, resolve_cap, size_cap


@pytest.fixture(autouse=True)
def no_env_cap(monkeypatch):
    monkeypatch.delenv("CNL_SIZE_CAP", raising=False)


def test_override_env_default_order(monkeypatch):
    assert resolve_cap() == DEFAULT_SIZE_CAP
    monkeypatch.setenv("CNL_SIZE_CAP", "50")
    assert resolve_cap() == 50
    with size_cap(7):
        assert resolve_cap() == 7
    assert resolve_cap() == 50


def test_size_cap_nests_and_restores():
    with size_cap(100) as outer:
        assert outer == 100
        with size_cap(10):
            assert resolve_cap() == 10
            with pytest.raises(SizeLimitError) as info:
                check_cap(11, what="positions")
            assert (info.value.required, info.value.limit, info.value.what) == (11, 10, "positions")
        assert resolve_cap() == 100
        check_cap(100)
    assert resolve_cap() == DEFAULT_SIZE_CAP


def test_size_cap_restored_after_an_exception():
    with pytest.raises(SizeLimitError):
        with size_cap(3):
            check_cap(4)
    assert resolve_cap() == DEFAULT_SIZE_CAP
    with pytest.raises(RuntimeError):
        with size_cap(3), size_cap(2):
            raise RuntimeError("inside two overrides")
    assert resolve_cap() == DEFAULT_SIZE_CAP


@pytest.mark.parametrize("bad", [0, -1, True, 2.5, "10"])
def test_size_cap_rejects_non_positive_integers(bad):
    with pytest.raises(ValueError):
        with size_cap(bad):
            pass
    assert resolve_cap() == DEFAULT_SIZE_CAP


def test_bad_env_cap_is_a_value_error(monkeypatch):
    for bad in ("0", "ten"):
        monkeypatch.setenv("CNL_SIZE_CAP", bad)
        with pytest.raises(ValueError):
            resolve_cap()


def _public_callables():
    """(qualified name, callable) for every public function, class and method
    of the package root and its modules."""
    modules = [cantornormal] + [
        importlib.import_module(f"cantornormal.{info.name}")
        for info in pkgutil.iter_modules(cantornormal.__path__)
    ]
    seen = set()
    for mod in modules:
        for name, obj in vars(mod).items():
            if name.startswith("_") or not callable(obj) or id(obj) in seen:
                continue
            if not getattr(obj, "__module__", "").startswith("cantornormal"):
                continue
            seen.add(id(obj))
            yield f"{obj.__module__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    fn = getattr(member, "__func__", member)
                    if callable(fn):
                        yield f"{obj.__module__}.{name}.{attr}", fn


def test_no_public_callable_takes_a_cap_parameter():
    checked = 0
    offenders = []
    for qualname, fn in _public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        checked += 1
        if "cap" in params:
            offenders.append(qualname)
    assert checked > 50
    assert not offenders, f"take a cap argument instead of reading limits.size_cap: {offenders}"
