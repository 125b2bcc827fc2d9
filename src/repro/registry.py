"""The one catalogue type behind every pluggable family of classes.

Acknowledgment techniques, fault models and scenarios are each looked up
by a string key.  Each family's base class owns one :class:`Registry` and
adds to it from ``__init_subclass__`` every subclass whose own class body
sets the key, so defining the class *is* registering it: there is no
decorator to forget, and a lookup returns the class itself.
"""

from __future__ import annotations

from typing import Dict, List


class Registry(Dict[str, type]):
    """``key -> class`` for one family; an unknown key lists the known ones."""

    def __init__(self, kind: str) -> None:
        super().__init__()
        #: What the family is called in error messages (``"technique"``).
        self.kind = kind

    def add(self, key: str, cls: type) -> None:
        """Register ``cls`` under ``key``: non-empty and not yet taken."""
        if not key:
            raise ValueError(f"{cls.__name__} must set a non-empty name")
        if key in self:
            raise ValueError(f"{self.kind} {key!r} is already registered")
        self[key] = cls

    def names(self) -> List[str]:
        """Every registered key, sorted."""
        return sorted(self)

    def __missing__(self, key: str) -> type:
        raise KeyError(f"unknown {self.kind} {key!r}; available: {self.names()}")
