"""Global size cap on the work an operation does.

Every operation that can materialize unboundedly many digits, enumerate
unboundedly many runs or blocks, or loop over unboundedly many positions
calls ``check_cap`` first; none takes a cap argument.  This module alone
knows the effective cap: the innermost ``size_cap(n)`` block, else the
``CNL_SIZE_CAP`` environment variable, else the package default of 10**8.
"""
from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import SizeLimitError

DEFAULT_SIZE_CAP = 10**8
ENV_VAR = "CNL_SIZE_CAP"

_override: ContextVar[int | None] = ContextVar("size_cap_override", default=None)


@contextmanager
def size_cap(n: int) -> Iterator[int]:
    """Make ``n`` the size cap inside the block; the previous cap returns on any exit."""
    if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
        raise ValueError(f"size cap must be a positive integer, got {n!r}")
    token = _override.set(n)
    try:
        yield n
    finally:
        _override.reset(token)


def resolve_cap() -> int:
    """Return the effective size cap (a positive integer)."""
    override = _override.get()
    if override is not None:
        return override
    env = os.environ.get(ENV_VAR)
    if env is None:
        return DEFAULT_SIZE_CAP
    try:
        value = int(env)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from exc
    if value <= 0:
        raise ValueError(f"{ENV_VAR} must be positive, got {value}")
    return value


def check_cap(required: int, what: str = "digits") -> None:
    """Refuse work of size ``required`` above the effective cap."""
    limit = resolve_cap()
    if required > limit:
        raise SizeLimitError(required, limit, what)
