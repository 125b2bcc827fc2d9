"""One-shot events for the discrete-event kernel.

An :class:`Event` is a one-shot notification: code that needs to know when
something has happened (an acknowledgment arrived, an update plan finished)
registers a callback with :meth:`Event.add_callback`, and whoever observes
the occurrence calls :meth:`Event.succeed`.  Once completed an event never
changes state again.
"""

from __future__ import annotations

from typing import Any, Callable, List


class EventAlreadyTriggered(RuntimeError):
    """Raised when code tries to complete an event twice."""


class Event:
    """A one-shot event.

    Parameters
    ----------
    name:
        Optional human-readable label, used only in ``repr`` and debugging
        output.
    """

    __slots__ = ("name", "_callbacks", "_triggered", "_value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has already been completed."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event was completed with."""
        return self._value

    # -- completion -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Complete the event with ``value``.

        Returns the event itself so the call can be chained or returned.
        """
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return self

    # -- observers ---------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event completes.

        If the event already completed, the callback runs immediately.
        """
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "triggered" if self._triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"
