"""Shared exception types and the run-wide size cap.

The cap on a dense operator's side d^n is one setting for a whole run, not
a parameter: `with size_cap(n):` sets it for the code inside the block (a
context variable, so each thread starts from the default), and the dense
oracle reads it through `current_size_cap`.  Nothing here needs numpy.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_SIZE_CAP = 4096
_SIZE_CAP_FLOOR = 64

_size_cap: ContextVar[int] = ContextVar("size_cap", default=DEFAULT_SIZE_CAP)


class SizeCapError(RuntimeError):
    """A dense-operator request exceeded the configured size cap."""


class ConsistencyError(RuntimeError):
    """An internal invariant that should be unreachable was violated."""


@contextmanager
def size_cap(cap: int | None) -> Iterator[None]:
    """Cap dense-operator sides at `cap` (None: the default) inside the block;
    a cap below `_SIZE_CAP_FLOOR` raises ValueError on entry."""
    cap = DEFAULT_SIZE_CAP if cap is None else cap
    if cap < _SIZE_CAP_FLOOR:
        raise ValueError(f"size cap must be at least {_SIZE_CAP_FLOOR}")
    token = _size_cap.set(cap)
    try:
        yield
    finally:
        _size_cap.reset(token)


def current_size_cap() -> int:
    """The cap of the innermost `size_cap` block, or the default."""
    return _size_cap.get()
