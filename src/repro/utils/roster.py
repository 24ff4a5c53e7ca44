"""The one lookup behind every keyed roster a scenario spec names."""

from __future__ import annotations

from typing import Mapping, TypeVar

__all__ = ["lookup"]

_T = TypeVar("_T")


def lookup(roster: Mapping[str, _T], key: str, what: str) -> _T:
    """``roster[key]``; an unknown key raises ``ValueError`` naming
    ``what`` and the roster's keys."""
    try:
        return roster[key]
    except KeyError:
        raise ValueError(f"unknown {what} {key!r}; "
                         f"choose from {sorted(roster)}") from None
