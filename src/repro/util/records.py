"""Dataclasses as JSON records: one checked codec for every declarative part.

A *record* is a dataclass's fields in declaration order, each value written
by its type: a nested dataclass as its own record, a tuple or list as a
JSON list, a mapping as a JSON object, anything else as it stands.  A
:class:`RecordCodec` adds, per field name, what JSON cannot hold as
written: a converter in each direction, the record class a field reads
back as (``[cls]`` for a list of them), and the key of a field whose key
is not its name.

Reading takes exactly the class's keys, all of them, because the writer
always writes all of them.  It restores the fields without calling
``__init__`` (so a class with its own signature reads like the rest), then
runs the class's own ``__post_init__``: a record is checked by the code
that checks the class when a program builds it.  Any failure raises
:class:`~repro.errors.TraceError` naming the record.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import TraceError

#: ``(value, owner) -> value``; the owner is the object being written or
#: the record being read.
Convert = Callable[[Any, Any], Any]


@contextmanager
def naming(where: str) -> Iterator[None]:
    """Re-raise a failure inside the block as a TraceError naming ``where``."""
    try:
        yield
    except TraceError:
        raise
    except Exception as error:
        raise TraceError(f"{where}: {error}") from error


def check_keys(record: Any, keys: Iterable[str], where: str) -> None:
    """Raise a TraceError unless ``record`` is an object of exactly ``keys``."""
    if not isinstance(record, Mapping):
        raise TraceError(f"{where} is {record!r}, not an object")
    unknown = sorted(set(record).difference(keys))
    if unknown:
        raise TraceError(f"{where} records {unknown}, which its reader cannot rebuild")
    missing = sorted(set(keys).difference(record))
    if missing:
        raise TraceError(f"{where} lacks {missing}, which its reader needs")


def _tuples(value: Any, _owner: Any = None) -> Any:
    """JSON lists read back as the tuples the dataclasses hold."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


@dataclass(frozen=True)
class RecordCodec:
    """Writes dataclasses as records and reads them back, checked."""

    #: Field name -> converter of its value into JSON.
    to_json: Mapping[str, Convert] = field(default_factory=dict)
    #: Field name -> converter of its JSON back, or the record class it
    #: holds (``None`` or one record), or ``[cls]`` (a list of them).
    from_json: Mapping[str, "Convert | type | list[type]"] = field(default_factory=dict)
    #: Field name -> its key, where the two differ.
    keys: Mapping[str, str] = field(default_factory=dict)

    def write(self, value: Any, _owner: Any = None) -> Any:
        """``value`` as JSON: a dataclass as its record, recursively."""
        if is_dataclass(value) and not isinstance(value, type):
            return {
                self.keys.get(f.name, f.name): self.to_json.get(f.name, self.write)(
                    getattr(value, f.name), value
                )
                for f in fields(value)
            }
        if isinstance(value, (tuple, list)):
            return [self.write(item) for item in value]
        if isinstance(value, Mapping):
            return {key: self.write(item) for key, item in value.items()}
        return value

    def read(self, cls: "type | list[type]", value: Any, where: str) -> Any:
        """``value`` read as a ``cls`` record, or ``None``; with ``[cls]``, a
        list read as a tuple of records, each named by its ``name`` (else
        its position)."""
        if isinstance(cls, list):
            if not isinstance(value, list):
                raise TraceError(f"{where} is {value!r}, not a list")
            return tuple(
                self.read(cls[0], item, f"{where} {_label(item, number)}")
                for number, item in enumerate(value, 1)
            )
        if value is None:
            return None
        keys = {self.keys.get(f.name, f.name): f.name for f in fields(cls)}
        check_keys(value, keys, where)
        record = object.__new__(cls)
        with naming(where):
            for key, name in keys.items():
                convert = self.from_json.get(name, _tuples)
                object.__setattr__(
                    record,
                    name,
                    self.read(convert, value[key], f"{where} {key}")
                    if isinstance(convert, (type, list))
                    else convert(value[key], value),
                )
            post_init = getattr(record, "__post_init__", None)
            if post_init is not None:
                post_init()
        return record


def _label(item: Any, number: int) -> str:
    name = item.get("name") if isinstance(item, Mapping) else None
    return repr(name) if isinstance(name, str) else str(number)
