"""Property-based tests for the middleware invariants.

The interesting invariants of the paper's mechanisms:

* §5.6 — however the developer edits, the publisher eventually publishes the
  final interface, publication versions are strictly increasing, and two
  consecutive publications never describe the same interface;
* §5.7 / §6 — for any interleaving of edits and stale calls, every stale call
  is answered only after the published interface caught up, and the client's
  refreshed view is at least as recent as the version the server reported.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import Scenario, op
from repro.core.sde import SDEConfig
from repro.errors import NonExistentMethodError
from repro.interface import Parameter
from repro.rmitypes import INT
from repro.sim import ResettableTimer, Scheduler


# ---------------------------------------------------------------------------
# Timer property (the primitive underneath §5.6)
# ---------------------------------------------------------------------------


class TestResettableTimerProperties:
    @given(
        st.floats(min_value=0.5, max_value=5.0),
        st.lists(st.floats(min_value=0.01, max_value=4.0), max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_fires_exactly_once_at_timeout_after_last_reset(self, timeout, gaps):
        scheduler = Scheduler()
        fired = []
        timer = ResettableTimer(scheduler, timeout, lambda: fired.append(scheduler.now))
        timer.start()
        last_reset = scheduler.now
        for gap in gaps:
            scheduler.run_for(gap)
            if gap < timeout and scheduler.now - last_reset < timeout:
                timer.reset()
                last_reset = scheduler.now
        scheduler.run_until_idle()
        assert len(fired) == 1
        assert fired[0] >= last_reset + timeout - 1e-9


# ---------------------------------------------------------------------------
# Publisher properties (§5.6)
# ---------------------------------------------------------------------------

edit_gaps = st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=8)


class TestPublisherProperties:
    @given(edit_gaps)
    @settings(max_examples=25, deadline=None)
    def test_final_interface_always_published(self, gaps):
        scenario = Scenario(sde_config=SDEConfig(publication_timeout=1.0, generation_cost=0.1))
        runtime = scenario.service("Service").build()
        service = runtime.dynamic_class("Service")
        publisher = runtime.replicas("Service")[0].publisher

        for index, gap in enumerate(gaps):
            service.add_method(
                f"operation_{index}",
                (Parameter("value", INT),),
                INT,
                body=lambda self, value: value,
                distributed=True,
            )
            runtime.world.run_for(gap)
        runtime.world.run_for(1.0 + 3 * 0.1 + 0.01)
        runtime.world.run_until_idle()

        assert publisher.is_published_current()
        assert publisher.published_description.operation_names() == tuple(
            sorted(f"operation_{i}" for i in range(len(gaps)))
        )

    @given(edit_gaps)
    @settings(max_examples=25, deadline=None)
    def test_versions_strictly_increase_and_no_duplicate_publications(self, gaps):
        scenario = Scenario(sde_config=SDEConfig(publication_timeout=1.0, generation_cost=0.1))
        runtime = scenario.service("Service").build()
        service = runtime.dynamic_class("Service")
        publisher = runtime.replicas("Service")[0].publisher

        for index, gap in enumerate(gaps):
            service.add_method(
                f"operation_{index}", (), INT, body=lambda self: 0, distributed=True
            )
            runtime.world.run_for(gap)
        runtime.world.run_until_idle()

        history = publisher.publication_history
        versions = [record.version for record in history]
        assert versions == sorted(versions)
        assert len(versions) == len(set(versions))
        for earlier, later in zip(history, history[1:]):
            assert not earlier.description.same_signature(later.description)

    @given(edit_gaps)
    @settings(max_examples=25, deadline=None)
    def test_publications_never_exceed_edits_plus_minimal(self, gaps):
        scenario = Scenario(sde_config=SDEConfig(publication_timeout=1.0, generation_cost=0.1))
        runtime = scenario.service("Service").build()
        service = runtime.dynamic_class("Service")
        publisher = runtime.replicas("Service")[0].publisher
        for index, gap in enumerate(gaps):
            service.add_method(
                f"operation_{index}", (), INT, body=lambda self: 0, distributed=True
            )
            runtime.world.run_for(gap)
        runtime.world.run_until_idle()
        assert publisher.stats.publications <= len(gaps) + 1


# ---------------------------------------------------------------------------
# §5.7 / §6 consistency property over random interleavings
# ---------------------------------------------------------------------------


class TestConsistencyProperties:
    @given(
        st.floats(min_value=0.0, max_value=3.0),   # when the developer edits
        st.floats(min_value=0.0, max_value=3.0),   # when the client calls the old method
        st.floats(min_value=0.2, max_value=2.0),   # publication timeout
        st.sampled_from(["soap", "corba"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_recency_guarantee_under_random_timing(self, edit_delay, call_delay, timeout, technology):
        scenario = Scenario(sde_config=SDEConfig(publication_timeout=timeout, generation_cost=0.1))
        operations = [op("add", (("a", INT), ("b", INT)), INT, body=lambda self, a, b: a + b)]
        runtime = scenario.service("Service", operations, technology=technology).build()
        runtime.publish("Service")
        binding = runtime.connect("Service")
        service = runtime.dynamic_class("Service")

        scheduler = runtime.world.scheduler
        outcome = {}

        scheduler.schedule(edit_delay, lambda: service.method("add").rename("sum"),
                           label="developer edit")

        def stale_call():
            try:
                outcome["result"] = binding.invoke("add", 1, 2)
            except NonExistentMethodError as error:
                outcome["error"] = error

        scheduler.schedule(edit_delay + 0.001 + call_delay, stale_call, label="client call")
        scheduler.run_until_idle()

        # The call either succeeded (edit not yet visible is impossible here —
        # the rename happens before the call) or failed with the §6 guarantee.
        assert "error" in outcome
        record = binding.guarantee_records[-1]
        assert record.satisfied
        assert binding.description.has_operation("sum")
