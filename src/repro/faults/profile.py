"""Per-link fault profiles: seeded probabilistic loss and bounded jitter.

A :class:`LinkFaultProfile` governs exactly one link *direction* (``A → B``).
Every message transmitted on that direction draws from the profile's private
:class:`random.Random` stream — first a loss draw, then
(when the message survives and the profile jitters) a delay draw — so the
fate of the *n*-th message on a link is a pure function of the seed and the
(deterministic) transmission order.  The network clamps jittered arrivals to
be monotone per direction (see :class:`repro.net.simnet.LinkFault`), so the
transport layer's per-connection FIFO correlation survives any profile.
"""

from __future__ import annotations

import random


class LinkFaultProfile:
    """Loss probability plus uniform extra delay for one link direction.

    Parameters
    ----------
    loss:
        Probability in ``[0, 1]`` that a message on this direction is
        dropped (``1.0`` = a hard one-way blackhole).
    jitter:
        Maximum extra one-way delay in virtual seconds; each surviving
        message is delayed by ``uniform(0, jitter)``.
    rng:
        The seeded random stream to draw from (default ``Random(0)``); one
        profile must own its stream exclusively (one per direction, see
        :meth:`repro.faults.FaultInjector.drop_link`).
    """

    def __init__(
        self,
        loss: float = 0.0,
        jitter: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {loss}")
        if jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.loss = loss
        self.jitter = jitter
        self.rng = rng if rng is not None else random.Random(0)
        #: The network's per-direction ordering clamp (simnet maintains it).
        self.last_arrival = 0.0
        #: Messages this profile dropped / delayed (diagnostics).
        self.dropped = 0
        self.delayed = 0

    def sample(self, size_bytes: int) -> tuple[bool, float]:
        """Decide one message's fate: ``(drop, extra_delay)``.

        Draw order is fixed (loss first, then jitter only for survivors of
        a jittering profile) so the stream stays aligned across runs.
        """
        if self.loss > 0.0 and self.rng.uniform(0.0, 1.0) < self.loss:
            self.dropped += 1
            return True, 0.0
        if self.jitter > 0.0:
            extra = self.rng.uniform(0.0, self.jitter)
            if extra > 0.0:
                self.delayed += 1
            return False, extra
        return False, 0.0

    def __repr__(self) -> str:
        return (
            f"LinkFaultProfile(loss={self.loss}, jitter={self.jitter}, "
            f"dropped={self.dropped}, delayed={self.delayed})"
        )
