"""General-purpose utilities shared by every layer of the reproduction."""

from repro.util.ids import IdGenerator, fresh_id
from repro.util.validation import (
    require,
    require_identifier,
    require_non_negative,
    require_positive,
    require_type,
)
from repro.util.listenable import Listenable

__all__ = [
    "IdGenerator",
    "fresh_id",
    "require",
    "require_identifier",
    "require_non_negative",
    "require_positive",
    "require_type",
    "Listenable",
]
