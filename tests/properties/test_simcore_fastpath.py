"""Property tests for the simulation-core fast paths.

The perf work (tuple heap entries, live pending counter, lazy cancel purge,
the direct SOAP envelope writer, bytearray CDR buffers) must be invisible to
every observer except the wall clock.  These properties pin that down:

* the optimized scheduler dispatches in exactly ``(time, insertion-order)``
  under arbitrary schedule/cancel churn, matching a naive reference
  implementation event for event;
* ``pending_count`` stays equal to a full queue scan at every step;
* SOAP envelopes written straight to text round-trip arbitrary RMI values,
  including tab, newline and carriage return, and their wire bytes are the
  text's UTF-8 encoding (the exact bytes are pinned by the wire corpus in
  ``tests/soap/test_envelope_wire_golden.py``);
* CDR marshalling round-trips arbitrary nested values and matches pinned
  golden wire bytes (the fast buffer cannot drift the format).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.corba.cdr import marshal_values, unmarshal_values
from repro.sim import Scheduler
from repro.soap.envelope import SoapRequest, SoapResponse
from repro.rmitypes import infer_type


# ---------------------------------------------------------------------------
# Scheduler dispatch order under cancellation churn
# ---------------------------------------------------------------------------

#: One scheduled event: (delay-bucket, cancel-the-event-this-many-back).
_churn_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    ),
    min_size=1,
    max_size=80,
)


class TestSchedulerChurnProperties:
    @given(ops=_churn_ops)
    @settings(max_examples=120, deadline=None)
    def test_dispatch_order_matches_reference_under_cancellation(self, ops):
        """Pre-run cancels never perturb the (time, insertion) order of the
        survivors, and cancelled events never run."""
        scheduler = Scheduler()
        dispatched: list[int] = []
        events = []
        expected = []  # (time_bucket, insertion_index) of surviving events
        for index, (bucket, cancel_back) in enumerate(ops):
            event = scheduler.schedule(
                bucket * 0.125, lambda i=index: dispatched.append(i)
            )
            events.append((index, bucket, event))
            if cancel_back is not None and cancel_back <= len(events):
                events[-cancel_back][2].cancel()

        survivors = [
            (bucket, index) for index, bucket, event in events if not event.cancelled
        ]
        survivors.sort()
        scheduler.run_until_idle()
        assert dispatched == [index for _bucket, index in survivors]
        assert scheduler.pending_count == 0

    @given(ops=_churn_ops)
    @settings(max_examples=120, deadline=None)
    def test_pending_count_matches_live_scan(self, ops):
        """The O(1) counter agrees with an exhaustive pending scan after
        every schedule/cancel and after every dispatch."""
        scheduler = Scheduler()
        events = []
        for bucket, cancel_back in ops:
            events.append(scheduler.schedule(bucket * 0.125, lambda: None))
            if cancel_back is not None and cancel_back <= len(events):
                events[-cancel_back].cancel()
            assert scheduler.pending_count == sum(1 for e in events if e.pending)
        while scheduler.step():
            assert scheduler.pending_count == sum(1 for e in events if e.pending)

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_mid_run_cancellation_matches_reference(self, ops):
        """Events cancelling *future* events mid-run behave exactly like a
        naive sorted-list reference scheduler."""

        # Reference: pick the lowest (time, seq) live event, run its effect.
        cancelled_ref = set()
        order_ref: list[int] = []
        reference = sorted(
            (bucket, index, ahead) for index, (bucket, ahead) in enumerate(ops)
        )
        done_ref = set()
        while True:
            candidate = next(
                (
                    entry
                    for entry in reference
                    if entry[1] not in done_ref and entry[1] not in cancelled_ref
                ),
                None,
            )
            if candidate is None:
                break
            _bucket, index, ahead = candidate
            done_ref.add(index)
            order_ref.append(index)
            if ahead is not None and index + ahead < len(ops):
                cancelled_ref.add(index + ahead)

        # Optimized scheduler, same semantics expressed through Event.cancel.
        scheduler = Scheduler()
        order: list[int] = []
        events: list = []

        def make_callback(index: int, ahead: int | None):
            def run() -> None:
                order.append(index)
                if ahead is not None and index + ahead < len(events):
                    events[index + ahead].cancel()

            return run

        for index, (bucket, ahead) in enumerate(ops):
            events.append(scheduler.schedule(bucket * 0.125, make_callback(index, ahead)))
        scheduler.run_until_idle()
        assert order == order_ref


# ---------------------------------------------------------------------------
# SOAP envelopes: round trips and wire bytes
# ---------------------------------------------------------------------------

#: Every string XML 1.0 can carry: the other C0 controls, U+FFFE and U+FFFF
#: are refused by the encoder (tested in ``tests/soap``).
_xml_text = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=("Cs", "Cc"), exclude_characters="\ufffe\uffff"),
        st.sampled_from("\t\n\r"),
    ),
    max_size=40,
)
_primitive = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.booleans(),
    _xml_text,
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
# Arrays must be homogeneous: infer_type derives the element type from the
# first item and the encoder rejects mixed lists.
_homogeneous_list = st.one_of(
    st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1), min_size=1, max_size=5),
    st.lists(st.booleans(), min_size=1, max_size=5),
    st.lists(_xml_text, min_size=1, max_size=5),
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=5
    ),
)
_value = st.one_of(_primitive, _homogeneous_list)
_operation = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,12}", fullmatch=True)
_namespace = st.sampled_from(
    ["urn:sde:EchoService", "urn:repro", "urn:x-test:service", "http://example.org/ns"]
)


class TestEnvelopeRoundTripProperties:
    @given(operation=_operation, namespace=_namespace, arguments=st.lists(_value, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_request_roundtrips(self, operation, namespace, arguments):
        request = SoapRequest.for_call(operation, tuple(arguments), namespace=namespace)
        parsed = SoapRequest.from_xml(request.to_xml())
        assert parsed == request

    @given(operation=_operation, namespace=_namespace, value=_value)
    @settings(max_examples=150, deadline=None)
    def test_response_roundtrips(self, operation, namespace, value):
        response = SoapResponse.for_result(
            operation, value, infer_type(value), namespace=namespace
        )
        assert SoapResponse.from_xml(response.to_xml()) == response


class TestZeroCopyWireEncoding:
    """``to_wire`` and ``to_xml_and_wire`` must give exactly
    ``to_xml().encode("utf-8")`` — including for non-ASCII argument text,
    where the str/bytes length split matters."""

    @given(operation=_operation, namespace=_namespace, arguments=st.lists(_value, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_request_wire_matches_encoded_xml(self, operation, namespace, arguments):
        request = SoapRequest.for_call(operation, tuple(arguments), namespace=namespace)
        expected = request.to_xml().encode("utf-8")
        assert request.to_wire() == expected
        xml, wire = request.to_xml_and_wire()
        assert (xml, wire) == (request.to_xml(), expected)

    @given(operation=_operation, namespace=_namespace, value=_value)
    @settings(max_examples=150, deadline=None)
    def test_response_wire_matches_encoded_xml(self, operation, namespace, value):
        response = SoapResponse.for_result(
            operation, value, infer_type(value), namespace=namespace
        )
        expected = response.to_xml().encode("utf-8")
        assert response.to_wire() == expected
        assert response.to_xml_and_wire() == (response.to_xml(), expected)

    def test_fault_response_wire_uses_slow_path(self):
        from repro.soap.faults import SoapFault

        response = SoapResponse.for_fault("op", SoapFault.non_existent_method("op"))
        assert response.to_wire() == response.to_xml().encode("utf-8")


# ---------------------------------------------------------------------------
# CDR wire format stability
# ---------------------------------------------------------------------------

_cdr_value = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestCdrProperties:
    @given(values=st.lists(_cdr_value, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_marshal_roundtrip(self, values):
        wire = marshal_values(tuple(values))
        decoded = unmarshal_values(wire)
        # Tuples marshal as sequences, so compare list-normalised.
        def normalise(value):
            if isinstance(value, tuple):
                return [normalise(item) for item in value]
            if isinstance(value, list):
                return [normalise(item) for item in value]
            if isinstance(value, dict):
                return {key: normalise(item) for key, item in value.items()}
            return value

        assert decoded == [normalise(value) for value in values]

    def test_golden_wire_bytes(self):
        """The buffer rework must not drift the wire format: these bytes are
        what the seed's fragment-list implementation produced."""
        wire = marshal_values((None, True, 7, 2.5, "hi", [1], {"k": "v"}))
        assert wire == bytes.fromhex(
            "00000007"  # 7 values
            "00"  # null
            "0101"  # boolean true
            "020000000000000007"  # long 7
            "034004000000000000"  # double 2.5
            "04000000026869"  # string "hi"
            "0600000001020000000000000001"  # sequence [1]
            "0700000001000000016b040000000176"  # struct {"k": "v"}
        )
