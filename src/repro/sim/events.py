"""Waitable events for the discrete-event kernel.

An :class:`Event` is a one-shot synchronisation object.  Processes wait on it
by ``yield``-ing it; any piece of code (another process, a callback, the
simulator itself) completes it by calling :meth:`Event.succeed` or
:meth:`Event.fail`.  Once completed an event never changes state again.

:class:`Timeout` is an event that the simulator completes automatically after
a fixed amount of simulated time.  :class:`AllOf` / :class:`AnyOf` combine
several events into one.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List


class EventAlreadyTriggered(RuntimeError):
    """Raised when code tries to complete an event twice."""


class Event:
    """A one-shot waitable event.

    Parameters
    ----------
    name:
        Optional human-readable label, used only in ``repr`` and debugging
        output.
    """

    __slots__ = ("name", "_callbacks", "_triggered", "_value", "_ok", "sim")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.sim = None  # set lazily when scheduled by a Simulator
        self._callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._ok = True
        self._value: Any = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has already been completed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event completed successfully (only valid once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was completed with (or the exception on failure)."""
        return self._value

    # -- completion -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Complete the event successfully with ``value``.

        Returns the event itself so the call can be chained or returned.
        """
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Complete the event with an exception.

        The exception is re-raised inside every process waiting on the event.
        """
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self._dispatch()
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

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "triggered" if self._triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event completed by the simulator ``delay`` time units after scheduling.

    Parameters
    ----------
    delay:
        Non-negative simulated-time delay.
    value:
        Optional value delivered to the waiter when the timeout fires.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float, value: Any = None, name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        super().__init__(name=name)
        self.delay = float(delay)
        self._value = value


class AllOf(Event):
    """Completes when *all* child events have completed.

    The value is a list with the values of the children, in the order the
    children were given.  If any child fails, the composite fails with the
    first failure.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, events: Iterable[Event], name: str = "") -> None:
        super().__init__(name=name)
        self.events: List[Event] = list(events)
        self._pending = len(self.events)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self.events])


class AnyOf(Event):
    """Completes as soon as *any* child event completes.

    The value is the ``(event, value)`` pair of the first child to finish.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event], name: str = "") -> None:
        super().__init__(name=name)
        self.events: List[Event] = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            return
        if event.ok:
            self.succeed((event, event.value))
        else:
            self.fail(event.value)
