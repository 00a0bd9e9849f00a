"""Global size cap on the work an operation does.

Every operation that can materialize unboundedly many digits, or enumerate
unboundedly many runs or blocks, takes an optional ``cap`` argument.  Resolution order: explicit argument,
the ``CNL_SIZE_CAP`` environment variable, then the package default of
10**8 digits.
"""
from __future__ import annotations

import os

from .errors import SizeLimitError

DEFAULT_SIZE_CAP = 10**8
ENV_VAR = "CNL_SIZE_CAP"


def resolve_cap(cap: int | None = None) -> int:
    """Return the effective size cap (a positive integer)."""
    if cap is not None:
        cap = int(cap)
        if cap <= 0:
            raise ValueError(f"size cap must be positive, got {cap}")
        return cap
    env = os.environ.get(ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from exc
        if value <= 0:
            raise ValueError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_SIZE_CAP


def check_cap(required: int, cap: int | None = None, what: str = "digits") -> int:
    """Refuse work of size ``required`` above the effective cap; return the cap."""
    limit = resolve_cap(cap)
    if required > limit:
        raise SizeLimitError(required, limit, what)
    return limit
