"""The name → operation index of ``InterfaceDescription`` (hypothesis).

``operation``, ``has_operation`` and ``is_compatible`` look operations up
in an index built once per description.  They must answer exactly what a
linear scan of the operations tuple answers, on every description and on
the copies ``with_version`` and ``with_operations`` make.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.evolve import is_compatible
from repro.interface import InterfaceDescription, InterfaceError, OperationSignature, Parameter
from repro.rmitypes import INT, STRING, VOID, FieldDef, StructType

#: Few names, so lookups hit and miss and two descriptions share names.
NAMES = ("a", "b", "c", "d", "e", "f")

types = st.sampled_from([INT, STRING])

signatures = st.builds(
    OperationSignature,
    name=st.sampled_from(NAMES),
    parameters=st.sampled_from([(), (Parameter("x", INT),), (Parameter("x", STRING),)]),
    return_type=st.sampled_from([VOID, INT, STRING]),
)

structs = st.builds(
    lambda name, kind: StructType(name, (FieldDef("v", kind),)),
    st.sampled_from(("P", "Q")),
    types,
)


def _unique(items):
    """The first item of each name, in order."""
    seen: dict = {}
    for item in items:
        seen.setdefault(item.name, item)
    return tuple(seen.values())


descriptions = st.builds(
    lambda operations, struct_list, version: InterfaceDescription(
        "Svc", "urn:svc", _unique(operations), _unique(struct_list), version
    ),
    st.lists(signatures, max_size=6),
    st.lists(structs, max_size=2),
    st.integers(0, 5),
)


def scan_operation(description: InterfaceDescription, name: str):
    """The reference lookup: a linear scan of the operations tuple."""
    for operation in description.operations:
        if operation.name == name:
            return operation
    return None


def scan_is_compatible(bound: InterfaceDescription, current: InterfaceDescription) -> bool:
    """The reference predicate: every bound operation and struct found,
    unchanged, by scanning the current description."""
    for operation in bound.operations:
        if scan_operation(current, operation.name) != operation:
            return False
    for struct in bound.structs:
        if struct not in current.structs:
            return False
    return True


def _copies(description: InterfaceDescription, operations) -> list[InterfaceDescription]:
    return [
        description,
        description.with_version(description.version + 1),
        description.with_operations(_unique(operations), description.structs),
        replace(description, operations=()),
    ]


class TestOperationIndex:
    @settings(max_examples=200)
    @given(descriptions, st.lists(signatures, max_size=6))
    def test_lookup_equals_a_linear_scan(self, description, operations):
        for copy in _copies(description, operations):
            for name in (*NAMES, "missing"):
                expected = scan_operation(copy, name)
                assert copy.operation(name) == expected
                assert copy.has_operation(name) is (expected is not None)

    @settings(max_examples=300)
    @given(descriptions, descriptions, st.lists(signatures, max_size=6))
    def test_is_compatible_equals_a_linear_scan(self, bound, current, operations):
        for copy in _copies(current, operations):
            assert is_compatible(bound, copy) is scan_is_compatible(bound, copy)
            assert is_compatible(copy, copy)

    @given(descriptions)
    def test_copies_keep_equality_and_hashing(self, description):
        copy = description.with_version(description.version)
        assert copy == description
        assert hash(copy) == hash(description)
        assert copy.same_signature(description.with_version(description.version + 1))

    def test_duplicate_names_are_still_rejected(self):
        with pytest.raises(InterfaceError, match="duplicate operation 'a'"):
            InterfaceDescription("Svc", "urn:svc", (OperationSignature("a"), OperationSignature("a")))
