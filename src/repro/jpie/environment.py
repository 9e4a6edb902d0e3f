"""The JPie environment: class registry, load events and the undo/redo stack.

The environment is what SDE plugs into: it loads (creates) dynamic classes,
fires :class:`~repro.jpie.listeners.ClassLoadedEvent` notifications so SDE can
detect new subclasses of its gateway classes (§5.1.1), owns the global
undo/redo stack the publishers monitor (§5.6) and hosts the debugger that
surfaces remote exceptions to the developer (§6).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import JPieError
from repro.jpie.debugger import JPieDebugger
from repro.jpie.dynamic_class import DynamicClass
from repro.jpie.listeners import ClassChangeEvent, ClassLoadedEvent
from repro.jpie.undo_redo import ChangeRecord, UndoRedoStack
from repro.util.listenable import Listenable


class JPieEnvironment(Listenable):
    """A running JPie session hosting dynamic classes and plug-ins."""

    def __init__(self, name: str = "jpie") -> None:
        super().__init__()
        self.name = name
        self._classes: dict[str, DynamicClass] = {}
        self.undo_stack = UndoRedoStack()
        self.debugger = JPieDebugger()
        self._instance_listeners: list[Callable[[DynamicClass, Any], None]] = []

    # -- class loading -------------------------------------------------------

    def create_class(
        self, name: str, superclass: DynamicClass | type | None = None
    ) -> DynamicClass:
        """Create (load) a new dynamic class and notify load listeners.

        This is the programmatic equivalent of the JPie user creating a new
        class in the GUI, e.g. extending ``SOAPServer`` (§4).
        """
        if name in self._classes:
            raise JPieError(f"a class named {name!r} is already loaded")
        dynamic_class = DynamicClass(name, superclass=superclass, environment=self)
        self._classes[name] = dynamic_class
        self.notify(ClassLoadedEvent(class_name=name, dynamic_class=dynamic_class))
        return dynamic_class

    def get_class(self, name: str) -> DynamicClass:
        """Return the loaded class named ``name``."""
        try:
            return self._classes[name]
        except KeyError:
            raise JPieError(f"no class named {name!r} is loaded") from None

    @property
    def classes(self) -> tuple[DynamicClass, ...]:
        """All loaded classes, in load order."""
        return tuple(self._classes.values())

    def add_class_load_listener(self, listener: Callable[[ClassLoadedEvent], None]) -> None:
        """Register a listener for class-load events (what SDE does)."""
        self.add_listener(listener)

    # -- instance creation events -----------------------------------------------

    def add_instance_listener(
        self, listener: Callable[[DynamicClass, Any], None]
    ) -> None:
        """Register a listener invoked whenever any dynamic class is
        instantiated.  SDE uses this to activate the call handler when the
        first instance of a gateway subclass appears (§5.1.3)."""
        if listener not in self._instance_listeners:
            self._instance_listeners.append(listener)

    def _instance_created(self, dynamic_class: DynamicClass, instance: Any) -> None:
        for listener in tuple(self._instance_listeners):
            listener(dynamic_class, instance)

    # -- change plumbing -----------------------------------------------------------

    def _class_changed(
        self,
        dynamic_class: DynamicClass,
        event: ClassChangeEvent,
        undo: Callable[[], None] | None,
    ) -> None:
        self.undo_stack.push(
            ChangeRecord(class_name=dynamic_class.name, event=event, undo_action=undo)
        )

    def __repr__(self) -> str:
        return f"JPieEnvironment({self.name!r}, classes={list(self._classes)})"
