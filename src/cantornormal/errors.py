"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/validation problems (including
``InvalidSpecError`` and plain ``ValueError``) exit 2, size-limit refusals
exit 3, and a failed verification certificate exits 1.  Any other exception
is a fault in the library and exits 4 with its traceback.
"""
from __future__ import annotations


class CantorError(Exception):
    """Base class for package-specific errors."""


class InvalidSpecError(CantorError, ValueError):
    """A construction or concatenation spec violates its invariants."""


class SizeLimitError(CantorError):
    """An operation would materialize or enumerate more than the size cap allows."""

    def __init__(self, required: int, limit: int, what: str = "digits"):
        self.required = required
        self.limit = limit
        self.what = what
        super().__init__(
            f"operation needs {required} {what} but the size cap is {limit}; "
            f"raise it with --cap, CNL_SIZE_CAP or limits.size_cap"
        )


class NeedsMoreDigitsError(CantorError):
    """A computation ran past the available digit/entry horizon.

    ``required`` is the 1-based index the computation needed to reach.
    """

    def __init__(self, required: int, available: int | None = None, what: str = "digits"):
        self.required = required
        self.available = available
        avail = "" if available is None else f" (only {available} available)"
        super().__init__(f"needs {what} up to position {required}{avail}")


class NeedsMoreSegmentsError(NeedsMoreDigitsError):
    """A construction spec is too short for the requested prefix length."""

    def __init__(self, required: int, available: int):
        super().__init__(required, available, what="assembled digits")
