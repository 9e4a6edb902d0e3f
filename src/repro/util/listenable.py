"""Listener registration mix-in.

JPie's dynamic classes, the SDE publishers and the CDE stub manager all use a
listener/notification pattern (the paper's "registers itself as a listener to
changes in the method signatures", §5.1.1).  ``Listenable`` provides a small,
reusable implementation with deterministic notification order.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

Listener = Callable[..., None]


class Listenable:
    """Mix-in providing ``add_listener`` / ``notify``.

    Listeners are invoked in registration order.  A listener raising an
    exception does not prevent the remaining listeners from running; the
    first exception is re-raised after all listeners have been notified so
    that programming errors remain visible.
    """

    def __init__(self) -> None:
        self._listeners: list[Listener] = []

    def add_listener(self, listener: Listener) -> None:
        """Register ``listener``; duplicate registrations are ignored."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    @property
    def listeners(self) -> Iterable[Listener]:
        """A snapshot of the registered listeners, in notification order."""
        return tuple(self._listeners)

    def notify(self, *args: Any, **kwargs: Any) -> None:
        """Invoke every registered listener with the given arguments."""
        first_error: BaseException | None = None
        for listener in tuple(self._listeners):
            try:
                listener(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
