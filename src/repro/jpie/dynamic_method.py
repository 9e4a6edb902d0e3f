"""Dynamic methods.

A dynamic method's signature *and* implementation can be changed while the
program runs; "changes taking effect immediately upon existing instances of
the class" (§1).  Mutations are routed through the owning
:class:`~repro.jpie.dynamic_class.DynamicClass` so that change events are
fired and the undo/redo stack is maintained.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import DynamicClassError, SignatureError
from repro.interface import OperationSignature, Parameter
from repro.jpie.modifiers import Modifier
from repro.rmitypes import RmiType, VOID
from repro.util.validation import require_identifier

MethodBody = Callable[..., Any]


def _default_body(*_args: Any, **_kwargs: Any) -> None:
    """The body a freshly created method starts with (an empty method)."""
    return None


class DynamicMethod:
    """A mutable method definition belonging to a dynamic class."""

    def __init__(
        self,
        name: str,
        parameters: tuple[Parameter, ...] = (),
        return_type: RmiType = VOID,
        body: MethodBody | None = None,
        modifiers: set[Modifier] | None = None,
    ) -> None:
        require_identifier(name, "method name")
        self._name = name
        self._parameters = tuple(parameters)
        self._return_type = return_type
        #: The signature built from the three fields above; dropped whenever
        #: one of them changes (OperationSignature is immutable).
        self._signature: OperationSignature | None = None
        self._body: MethodBody = body if body is not None else _default_body
        self.modifiers: set[Modifier] = set(modifiers or {Modifier.PUBLIC})
        self.owner = None  # set by DynamicClass.add_method

    # -- accessors -----------------------------------------------------------

    @property
    def name(self) -> str:
        """The method name."""
        return self._name

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        """The formal parameters in declaration order."""
        return self._parameters

    @property
    def return_type(self) -> RmiType:
        """The declared return type."""
        return self._return_type

    @property
    def body(self) -> MethodBody:
        """The current implementation."""
        return self._body

    @property
    def is_distributed(self) -> bool:
        """True if the method carries the ``distributed`` modifier (§4)."""
        return Modifier.DISTRIBUTED in self.modifiers

    def signature(self) -> OperationSignature:
        """The method's signature as a technology-neutral operation."""
        if self._signature is None:
            self._signature = OperationSignature(self._name, self._parameters, self._return_type)
        return self._signature

    # -- invocation -------------------------------------------------------------

    def invoke(self, instance: Any, *arguments: Any) -> Any:
        """Invoke the *current* body on ``instance`` with ``arguments``.

        The arity and argument types are checked against the *current*
        signature, so a signature change is immediately visible to callers.
        """
        if len(arguments) != len(self._parameters):
            raise SignatureError(
                f"method {self._name!r} expects {len(self._parameters)} argument(s), "
                f"got {len(arguments)}"
            )
        for value, parameter in zip(arguments, self._parameters):
            try:
                parameter.param_type.validate(value)
            except Exception as exc:
                raise SignatureError(
                    f"argument {parameter.name!r} of {self._name!r}: {exc}"
                ) from None
        return self._body(instance, *arguments)

    # -- mutation ----------------------------------------------------------------

    def rename(self, new_name: str) -> None:
        """Rename the method.

        JPie "maintains consistency of declaration and use": callers that
        hold the :class:`DynamicMethod` object (rather than its name) keep
        working, and the owning class updates its lookup table.
        """
        require_identifier(new_name, "method name")
        if self.owner is not None:
            self.owner._rename_method(self, new_name)
        else:
            self._apply_rename(new_name)

    def set_parameters(self, parameters: tuple[Parameter, ...]) -> None:
        """Replace the formal parameter list."""
        old = self._parameters
        self._parameters = tuple(parameters)
        self._signature = None
        # Validate the combination early (duplicate names, etc.).
        try:
            self.signature()
        except Exception:
            self._parameters = old
            raise
        if self.owner is not None:
            self.owner._method_signature_changed(
                self, f"parameters {[str(p) for p in old]} -> {[str(p) for p in parameters]}"
            )

    def set_return_type(self, return_type: RmiType) -> None:
        """Change the declared return type."""
        old = self._return_type
        self._return_type = return_type
        self._signature = None
        if self.owner is not None:
            self.owner._method_signature_changed(
                self, f"return type {old.type_name} -> {return_type.type_name}"
            )

    def set_body(self, body: MethodBody) -> None:
        """Replace the implementation; takes effect on the very next call."""
        if not callable(body):
            raise DynamicClassError("method body must be callable")
        self._body = body
        if self.owner is not None:
            self.owner._method_body_changed(self)

    def add_modifier(self, modifier: Modifier) -> None:
        """Add a modifier (selecting 'distributed' adds the method to the
        server interface, §4)."""
        if modifier in self.modifiers:
            return
        self.modifiers.add(modifier)
        if self.owner is not None:
            self.owner._method_modifiers_changed(self, f"+{modifier}")

    def remove_modifier(self, modifier: Modifier) -> None:
        """Remove a modifier (deselecting 'distributed' removes the method
        from the server interface, §4)."""
        if modifier not in self.modifiers:
            return
        self.modifiers.discard(modifier)
        if self.owner is not None:
            self.owner._method_modifiers_changed(self, f"-{modifier}")

    def _apply_rename(self, new_name: str) -> None:
        self._name = new_name
        self._signature = None

    def __repr__(self) -> str:
        flags = ",".join(sorted(str(m) for m in self.modifiers))
        return f"DynamicMethod({self.signature().describe()} [{flags}])"
