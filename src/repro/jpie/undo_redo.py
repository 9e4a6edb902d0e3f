"""The environment-wide undo/redo stack.

"Each DL Publisher listens to changes in the corresponding dynamic class by
monitoring the JPie undo/redo stack" (§5.6).  Every mutation of a dynamic
class is recorded here as a :class:`ChangeRecord`; stack listeners receive the
record as it is pushed, which is the signal the SDE publishers use to start or
reset their stability timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import JPieError
from repro.jpie.listeners import ClassChangeEvent
from repro.util.listenable import Listenable


@dataclass
class ChangeRecord:
    """One entry on the undo/redo stack."""

    class_name: str
    event: ClassChangeEvent
    undo_action: Callable[[], None] | None = None
    sequence: int = 0

    @property
    def undoable(self) -> bool:
        """True if the change can be reverted."""
        return self.undo_action is not None

    def __str__(self) -> str:
        return f"#{self.sequence} {self.event}"


class UndoRedoStack(Listenable):
    """A linear undo history with change notification.

    Undoing a change executes its recorded inverse action.  The inverse
    action itself produces a new change event (so listeners such as the SDE
    publishers see undo as just another edit — which is exactly the §5.6
    behaviour: undoing an interface change must also eventually republish).
    """

    def __init__(self) -> None:
        super().__init__()
        self._records: list[ChangeRecord] = []
        self._sequence = 0
        self._replaying = False

    # -- recording ------------------------------------------------------------

    def push(self, record: ChangeRecord) -> ChangeRecord:
        """Push ``record`` and notify stack listeners."""
        self._sequence += 1
        record.sequence = self._sequence
        self._records.append(record)
        self.notify(record)
        return record

    # -- inspection --------------------------------------------------------------

    @property
    def records(self) -> tuple[ChangeRecord, ...]:
        """The complete history, oldest first."""
        return tuple(self._records)

    @property
    def depth(self) -> int:
        """Number of records on the stack."""
        return len(self._records)

    def last(self) -> ChangeRecord | None:
        """The most recent record, if any."""
        return self._records[-1] if self._records else None

    # -- undo ----------------------------------------------------------------------

    def undo(self) -> ChangeRecord:
        """Undo the most recent undoable change and return its record."""
        if self._replaying:
            raise JPieError("undo is not reentrant")
        for index in range(len(self._records) - 1, -1, -1):
            record = self._records[index]
            if record.undoable:
                self._records.pop(index)
                self._replaying = True
                try:
                    record.undo_action()
                finally:
                    self._replaying = False
                return record
        raise JPieError("nothing to undo")

    def clear(self) -> None:
        """Forget the entire history (used when exporting a finished class)."""
        self._records.clear()

    def __repr__(self) -> str:
        return f"UndoRedoStack(depth={len(self._records)})"
