"""Application export: converting a dynamic class into a static one.

"At the end of the development phase, the dynamic SDE server can be converted
into a static SOAP or CORBA server through JPie's built-in application export
mechanism" (§7).  Export freezes the *current* definition: the result no
longer tracks subsequent changes to the dynamic class.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ExportError
from repro.interface import OperationSignature
from repro.jpie.dynamic_class import DynamicClass


def export_static_class(dynamic_class: DynamicClass) -> type:
    """Create an ordinary Python class from the current class definition.

    Methods become plain Python methods bound to the bodies as they exist at
    export time; fields become instance attributes initialised in
    ``__init__``.  Later mutations of the dynamic class do not affect the
    exported class or its instances.
    """
    if not dynamic_class.methods and not dynamic_class.fields:
        raise ExportError(
            f"class {dynamic_class.name!r} has no members; nothing to export"
        )

    field_defaults = {
        field.name: field.initial_value for field in dynamic_class.fields
    }

    def __init__(self) -> None:  # noqa: N807 - generated constructor
        for name, value in field_defaults.items():
            setattr(self, name, value)

    namespace: dict[str, Any] = {"__init__": __init__, "__doc__": f"Exported from dynamic class {dynamic_class.name}"}

    for method in dynamic_class.methods:
        namespace[method.name] = _freeze_method(method.body)

    exported = type(dynamic_class.name, (object,), namespace)
    exported.__exported_from__ = dynamic_class.name
    return exported


def _freeze_method(body: Callable[..., Any]) -> Callable[..., Any]:
    def frozen(self, *arguments: Any) -> Any:
        return body(self, *arguments)

    frozen.__doc__ = getattr(body, "__doc__", None)
    return frozen


def export_operation_table(
    dynamic_class: DynamicClass, instance: Any | None = None
) -> list[tuple[OperationSignature, Callable[..., Any]]]:
    """Freeze the distributed interface into a static operation table.

    The result is directly usable as the operation list of a
    :class:`~repro.interface.ServiceDefinition`, which either static server
    deploys; that is how the "convert into a static SOAP or CORBA server"
    step works: the exported table no longer follows live changes.

    If ``instance`` is omitted a fresh instance of the dynamic class is
    created to carry the exported state.
    """
    distributed = dynamic_class.distributed_methods()
    if not distributed:
        raise ExportError(
            f"class {dynamic_class.name!r} has no distributed methods to export"
        )
    target = instance if instance is not None else dynamic_class.new_instance()

    table: list[tuple[OperationSignature, Callable[..., Any]]] = []
    for method in distributed:
        signature = method.signature()
        body = method.body  # frozen now, on purpose

        def implementation(*arguments: Any, _body=body, _target=target) -> Any:
            return _body(_target, *arguments)

        table.append((signature, implementation))
    return table
