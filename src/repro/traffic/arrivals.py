"""Open-loop arrival processes: realistic traffic shapes for scenarios.

Every workload before this module was closed-loop — each client issues its
next call a fixed think time after the previous reply, with start offsets
staggered by a scalar or an ad-hoc callable.  An :class:`ArrivalProcess`
makes the *offered load* a first-class, seeded object instead: it maps a
client-group size to the group's per-client start offsets, so the same
process drives discrete clients and cohort-flow mass identically
(``Scenario.clients(256, arrival=Poisson(rate=50.0))``).

Determinism invariants (ARCHITECTURE.md "Traffic model & replay"):

* **One seeded RNG stream per process.**  Each process owns exactly one
  seed; :meth:`ArrivalProcess.offsets` builds a fresh ``random.Random``
  from it on every call, so the process is a pure function of
  ``(parameters, seed, count)`` — two calls, two runs, or two machines
  produce bit-identical offsets.
* **Replay never re-samples.**  Trace recording serialises the *resolved*
  offsets, not the process, so a replayed scenario reuses the recorded
  floats verbatim (see :mod:`repro.traffic.trace`).
* **Position i is the i-th arrival.**  Offsets are returned sorted, so a
  group's protocol interleave (assigned by position) matches arrival
  order.

:func:`resolve_offsets` is the single entry point the cluster layer uses:
it accepts the legacy scalar spacing, the legacy position→offset callable,
and any :class:`ArrivalProcess`, replacing the scalar-vs-callable
special-casing that used to live in ``cluster/scenario.py`` and
``cluster/cohort.py``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ClusterError


@dataclass(frozen=True)
class ArrivalProcess:
    """A deterministic, seeded open-loop arrival process.

    Subclasses implement :meth:`sample`, producing ``count`` arrival
    offsets (seconds after the group's start) from a fresh seeded RNG.
    :meth:`offsets` wraps it with the shared guarantees: sorted output,
    finite non-negative offsets, exactly ``count`` of them.
    """

    seed: int = 0

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        raise NotImplementedError

    def offsets(self, count: int) -> list[float]:
        """The group's per-client start offsets, sorted (position = rank)."""
        if count < 0:
            raise ClusterError(f"arrival count must be non-negative, got {count}")
        values = sorted(map(float, self.sample(self._rng(), count)))
        if len(values) != count:
            raise ClusterError(
                f"{type(self).__name__} produced {len(values)} offsets for "
                f"{count} clients"
            )
        return _checked(values)

    def _rng(self) -> random.Random:
        # A fresh generator per call: the process is a pure function of its
        # seed, so recording, replaying and re-running never re-sample.
        return random.Random(self.seed)


@dataclass(frozen=True)
class Poisson(ArrivalProcess):
    """Open-loop Poisson arrivals: exponential i.i.d. inter-arrival gaps.

    ``rate`` is the mean arrival rate in clients per virtual second; the
    group's ``count`` clients arrive over roughly ``count / rate`` seconds.
    """

    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ClusterError(f"Poisson rate must be positive, got {self.rate}")

    def sample(self, rng: random.Random, count: int) -> list[float]:
        # CPython's expovariate formula with bound methods in locals: the
        # same floats as ``rng.expovariate(rate)``, no Python call per draw.
        draw, log, rate = rng.random, math.log, self.rate
        offsets: list[float] = []
        append = offsets.append
        now = 0.0
        for _ in range(count):
            now += -log(1.0 - draw()) / rate
            append(now)
        return offsets


@dataclass(frozen=True)
class ParetoHeavyTail(ArrivalProcess):
    """Heavy-tailed (Pareto/Lomax) inter-arrival gaps: bursts and long lulls.

    Gaps are ``scale * (Pareto(alpha) - 1)`` — arbitrarily small inside a
    burst, occasionally enormous — with mean ``scale / (alpha - 1)`` for
    ``alpha > 1``.  Smaller ``alpha`` means a heavier tail.
    """

    alpha: float = 1.5
    scale: float = 0.01

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ClusterError(
                f"ParetoHeavyTail alpha must be positive, got {self.alpha}"
            )
        if self.scale <= 0:
            raise ClusterError(
                f"ParetoHeavyTail scale must be positive, got {self.scale}"
            )

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        now = 0.0
        for _ in range(count):
            now += self.scale * (rng.paretovariate(self.alpha) - 1.0)
            yield now


@dataclass(frozen=True)
class Diurnal(ArrivalProcess):
    """A load curve over one period: arrivals follow a relative-rate shape.

    ``curve`` gives piecewise-constant relative intensities across equal
    slices of ``period`` (e.g. ``(1, 2, 8, 3)`` — quiet night, morning
    ramp, midday peak, evening tail); arrivals are drawn by inverting the
    cumulative intensity, so the group's whole mass lands inside one
    period, distributed as the curve dictates.
    """

    curve: tuple[float, ...] = (1.0, 2.0, 4.0, 2.0)
    period: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "curve", tuple(float(w) for w in self.curve))
        if not self.curve:
            raise ClusterError("Diurnal curve needs at least one segment")
        if any(weight < 0 for weight in self.curve):
            raise ClusterError("Diurnal curve weights must be non-negative")
        if sum(self.curve) <= 0:
            raise ClusterError("Diurnal curve needs a positive total intensity")
        if self.period <= 0:
            raise ClusterError(f"Diurnal period must be positive, got {self.period}")

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        cumulative = [0.0]
        for weight in self.curve:
            cumulative.append(cumulative[-1] + weight)
        total = cumulative[-1]
        segment = self.period / len(self.curve)
        for _ in range(count):
            u = rng.uniform(0.0, total)
            index = min(bisect_right(cumulative, u) - 1, len(self.curve) - 1)
            weight = self.curve[index]
            fraction = (u - cumulative[index]) / weight if weight > 0 else 0.0
            yield (index + fraction) * segment


@dataclass(frozen=True)
class FlashCrowd(ArrivalProcess):
    """Baseline arrivals plus a decaying burst at a fixed instant.

    A fraction ``magnitude / (magnitude + 1)`` of the group belongs to the
    crowd and arrives at ``at`` plus an exponential delay of mean
    ``decay``; the rest is a Poisson(``rate``) baseline.  ``magnitude=3``
    therefore means the crowd is 3× the baseline population.
    """

    at: float = 0.05
    magnitude: float = 3.0
    decay: float = 0.02
    rate: float = 100.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ClusterError(f"FlashCrowd at must be non-negative, got {self.at}")
        if self.magnitude < 0:
            raise ClusterError(
                f"FlashCrowd magnitude must be non-negative, got {self.magnitude}"
            )
        if self.decay <= 0:
            raise ClusterError(f"FlashCrowd decay must be positive, got {self.decay}")
        if self.rate <= 0:
            raise ClusterError(f"FlashCrowd rate must be positive, got {self.rate}")

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        crowd_share = self.magnitude / (self.magnitude + 1.0)
        baseline = 0.0
        for _ in range(count):
            if rng.random() < crowd_share:
                yield self.at + rng.expovariate(1.0 / self.decay)
            else:
                baseline += rng.expovariate(self.rate)
                yield baseline


@dataclass(frozen=True)
class ClientChurn(ArrivalProcess):
    """A churning population: joins gated by a bounded concurrent pool.

    Clients try to join as a Poisson(``join_rate``) stream, but only
    ``population`` of them (default: the steady state
    ``join_rate / leave_rate``) can be active at once; each active client's
    session lasts an exponential ``1 / leave_rate`` on average, and a
    departing client's slot admits the next joiner — so start offsets
    cluster into generational waves instead of a smooth ramp.
    """

    join_rate: float = 100.0
    leave_rate: float = 10.0
    population: int | None = None

    def __post_init__(self) -> None:
        if self.join_rate <= 0:
            raise ClusterError(
                f"ClientChurn join_rate must be positive, got {self.join_rate}"
            )
        if self.leave_rate <= 0:
            raise ClusterError(
                f"ClientChurn leave_rate must be positive, got {self.leave_rate}"
            )
        if self.population is not None and self.population < 1:
            raise ClusterError(
                f"ClientChurn population must be at least 1, got {self.population}"
            )

    def sample(self, rng: random.Random, count: int) -> Iterable[float]:
        pool = self.population
        if pool is None:
            pool = max(1, round(self.join_rate / self.leave_rate))
        joins: list[float] = []
        now = 0.0
        for index in range(count):
            now += rng.expovariate(self.join_rate)
            if index < pool:
                joined = now
            else:
                session = rng.expovariate(self.leave_rate)
                joined = max(now, joins[index - pool] + session)
            joins.append(joined)
            yield joined


def _checked(offsets: list[float]) -> list[float]:
    """``offsets``, unless one is not finite or is negative.

    ``sum`` and ``min`` test in C; the bad value is searched for only when
    the sum is not finite (finite values may also overflow it).
    """
    if offsets and not math.isfinite(sum(offsets)):
        for offset in offsets:
            if not math.isfinite(offset):
                raise ClusterError(f"arrival offsets must be finite, got {offset}")
    if offsets and min(offsets) < 0:
        raise ClusterError(
            f"arrival offsets must be non-negative, got {min(offsets)}"
        )
    return offsets


def resolve_offsets(arrival: Any, count: int) -> list[float]:
    """Per-position start offsets for a ``count``-client group.

    The one shared resolver behind ``Scenario.clients(..., arrival=...)``
    and the cohort flow builder:

    * a float ``s`` staggers position *i* at ``i * s`` (the legacy form);
    * a callable maps the position to its offset;
    * an :class:`ArrivalProcess` draws the whole group's offsets from its
      seeded stream (position = arrival rank).

    Offsets must be finite and non-negative; the same list feeds both the
    discrete representatives and the modeled flow mass, so cohort
    aggregation never shifts when anyone arrives.
    """
    if count < 0:
        raise ClusterError(f"arrival count must be non-negative, got {count}")
    if isinstance(arrival, ArrivalProcess):
        return arrival.offsets(count)
    if callable(arrival):
        return _checked([float(arrival(position)) for position in range(count)])
    step = float(arrival)
    if step < 0:
        raise ClusterError(f"arrival spacing must be non-negative, got {step}")
    return _checked([position * step for position in range(count)])
