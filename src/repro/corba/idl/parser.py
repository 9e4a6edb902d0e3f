"""Parsing a CORBA-IDL document back into an :class:`InterfaceDescription`.

The parser is a small tokenizer + recursive-descent parser for the subset of
IDL the generator emits (which is also the subset the paper's type mapping
allows): one module, ``interface`` blocks containing either ``attribute``
declarations (user-defined struct types) or operation declarations, and
``sequence<T>`` types.  By the generator's convention the *last* interface in
the module is the service interface; every preceding interface declares a
struct type.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from repro.corba.idl.mapping import rmi_type_from_idl
from repro.errors import IdlError
from repro.interface import (
    DESCRIPTION_MEMO_SIZE,
    InterfaceDescription,
    OperationSignature,
    Parameter,
)
from repro.rmitypes import TypeRegistry, resolve_structs

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<symbol>[{}();,<>])|(?P<other>\S))"
)


@dataclass
class _Pragmas:
    version: int = 0
    namespace: str = ""
    endpoint: str = ""


@dataclass
class _RawInterface:
    name: str
    attributes: list[tuple[str, str]] = field(default_factory=list)  # (name, type)
    operations: list[tuple[str, str, list[tuple[str, str]]]] = field(default_factory=list)
    # operations: (return type, name, [(param type, param name), ...])


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.tokens: list[str] = []
        for line in text.splitlines():
            stripped = line.split("//", 1)[0]
            if stripped.lstrip().startswith("#"):
                continue
            position = 0
            while position < len(stripped):
                match = _TOKEN_RE.match(stripped, position)
                if match is None:
                    break
                token = match.group("word") or match.group("symbol") or match.group("other")
                self.tokens.append(token)
                position = match.end()
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise IdlError("unexpected end of IDL document")
        self.index += 1
        return token

    def expect(self, expected: str) -> str:
        token = self.next()
        if token != expected:
            raise IdlError(f"expected {expected!r} but found {token!r}")
        return token


def _parse_pragmas(text: str) -> _Pragmas:
    pragmas = _Pragmas()
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith("#pragma"):
            continue
        parts = stripped.split(None, 2)
        if len(parts) < 3:
            continue
        _, key, value = parts
        if key == "version":
            try:
                pragmas.version = int(value)
            except ValueError:
                raise IdlError(f"malformed version pragma: {value!r}") from None
        elif key == "namespace":
            pragmas.namespace = value
        elif key == "endpoint":
            pragmas.endpoint = value
    return pragmas


def _parse_type_token(tokens: _Tokenizer) -> str:
    """Read a type spelling, which may be ``sequence<...>`` (possibly nested)."""
    token = tokens.next()
    if token != "sequence":
        return token
    tokens.expect("<")
    inner = _parse_type_token(tokens)
    tokens.expect(">")
    return f"sequence<{inner}>"


def _parse_interface(tokens: _Tokenizer) -> _RawInterface:
    tokens.expect("interface")
    name = tokens.next()
    tokens.expect("{")
    raw = _RawInterface(name=name)
    while tokens.peek() != "}":
        if tokens.peek() == "attribute":
            tokens.expect("attribute")
            attr_type = _parse_type_token(tokens)
            attr_name = tokens.next()
            tokens.expect(";")
            raw.attributes.append((attr_name, attr_type))
            continue
        return_type = _parse_type_token(tokens)
        op_name = tokens.next()
        tokens.expect("(")
        parameters: list[tuple[str, str]] = []
        while tokens.peek() != ")":
            tokens.expect("in")
            param_type = _parse_type_token(tokens)
            param_name = tokens.next()
            parameters.append((param_type, param_name))
            if tokens.peek() == ",":
                tokens.next()
        tokens.expect(")")
        tokens.expect(";")
        raw.operations.append((return_type, op_name, parameters))
    tokens.expect("}")
    tokens.expect(";")
    return raw


@functools.lru_cache(maxsize=DESCRIPTION_MEMO_SIZE)
def parse_idl(text: str) -> InterfaceDescription:
    """Parse a CORBA-IDL document and return the interface it describes.

    Parses are memoised by document text (see :data:`DESCRIPTION_MEMO_SIZE`),
    so every client that fetched the same published document shares one
    frozen description.  A malformed document is not remembered: it raises
    on every call.

    Raises
    ------
    IdlError
        If the document does not conform to the supported IDL subset.
    """
    return _parse_idl(text)


def _parse_idl(text: str) -> InterfaceDescription:
    pragmas = _parse_pragmas(text)
    tokens = _Tokenizer(text)

    tokens.expect("module")
    module_name = tokens.next()
    tokens.expect("{")

    interfaces: list[_RawInterface] = []
    while tokens.peek() == "interface":
        interfaces.append(_parse_interface(tokens))
    tokens.expect("}")
    if tokens.peek() == ";":
        tokens.next()

    if not interfaces:
        raise IdlError("IDL module declares no interfaces")

    service_raw = interfaces[-1]
    struct_raws = interfaces[:-1]

    structs = resolve_structs(
        ((raw.name, raw.attributes) for raw in struct_raws), rmi_type_from_idl, IdlError
    )
    registry = TypeRegistry(structs)

    operations = []
    for return_type, op_name, parameters in service_raw.operations:
        operations.append(
            OperationSignature(
                name=op_name,
                parameters=tuple(
                    Parameter(param_name, rmi_type_from_idl(param_type, registry))
                    for param_type, param_name in parameters
                ),
                return_type=rmi_type_from_idl(return_type, registry),
            )
        )

    namespace = pragmas.namespace or module_name
    return InterfaceDescription(
        service_name=service_raw.name,
        namespace=namespace,
        operations=tuple(sorted(operations, key=lambda op: op.name)),
        structs=tuple(sorted(structs, key=lambda s: s.name)),
        version=pragmas.version,
        endpoint_url=pragmas.endpoint,
    )
