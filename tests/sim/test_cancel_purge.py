"""Units for the scheduler's lazy cancel purge.

Reading ``pending_count`` on a cancel-heavy idle heap triggers the purge
that would otherwise only run on later cancels.
"""

from __future__ import annotations

from repro.sim.scheduler import _PURGE_MIN_QUEUE, Scheduler


class TestPurgeOnPendingCount:
    def test_pending_count_read_purges_cancelled_entries(self):
        """A cancel-heavy heap left idle must shed its dead entries when
        ``pending_count`` is read, not only on the next cancel.

        The sweep trigger compares cancelled entries against queue length, so
        the scenario that previously leaked is: cancels that stay *below* the
        ratio while the queue is full, followed by dispatches that shrink the
        queue until the dead entries dominate — with no further cancel ever
        arriving to re-evaluate the ratio."""
        scheduler = Scheduler()
        dead = 2 * _PURGE_MIN_QUEUE
        # Far-future events, most of which get cancelled...
        far = [
            scheduler.schedule(100.0 + index * 1e-4, lambda: None)
            for index in range(dead + 8)
        ]
        # ... plus enough near-term live events that the cancels stay below
        # the purge ratio while they happen.
        for index in range(2 * dead):
            scheduler.schedule(index * 1e-4 + 1e-6, lambda: None)
        # Keep the *earliest* far-future entries live: the run loop pops
        # cancelled entries it finds at the heap front, so dead entries only
        # linger when a live event shields them.
        for event in far[8:]:
            event.cancel()
        queue_before = len(scheduler._queue)
        assert queue_before == 3 * dead + 8  # no purge ran during the cancels

        # Dispatch the near-term events; the heap is now mostly dead entries.
        scheduler.run_for(1.0)
        assert len(scheduler._queue) == dead + 8

        # A pure read triggers the sweep.
        assert scheduler.pending_count == 8
        assert len(scheduler._queue) == 8

    def test_pending_count_stays_correct_through_purges(self):
        scheduler = Scheduler()
        events = [
            scheduler.schedule((index % 13) * 1e-3 + 0.1, lambda: None)
            for index in range(500)
        ]
        for index, event in enumerate(events):
            if index % 3:
                event.cancel()
                assert scheduler.pending_count == sum(1 for e in events if e.pending)
        scheduler.run_until_idle()
        assert scheduler.pending_count == 0
