"""Enumeration caps and shared error types."""

from __future__ import annotations

DEFAULT_CAP = 1 << 20


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured cap.

    Raised instead of stalling; carries the offending count and the cap.
    For a generation's tables the count may be the cells its members
    already span, more than it computed before raising.
    """

    def __init__(self, what: str, count: int, cap: int):
        super().__init__(f"{what}: {count} exceeds cap {cap}")
        self.what = what
        self.count = count
        self.cap = cap


def get_cap(explicit: int | None = None) -> int:
    """The enumeration cap: the explicit argument, else DEFAULT_CAP."""
    return DEFAULT_CAP if explicit is None else explicit


def check_cap(what: str, count: int, cap: int | None = None) -> int:
    cap = get_cap(cap)
    if count > cap:
        raise CapExceeded(what, count, cap)
    return count
