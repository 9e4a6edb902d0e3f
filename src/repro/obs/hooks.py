"""Nil-cost observability hook points for the hot paths.

This module is the *only* part of :mod:`repro.obs` the hot layers
(transport, simnet, registry, call handlers, protocol stacks) import, and
it imports nothing in turn — so adding observability to a module can never
create an import cycle and never slows an untraced run beyond one module
attribute load and an ``is not None`` test.

Three module globals carry all the state:

``ACTIVE``
    The installed :class:`repro.obs.api.Observability` instance, or
    ``None`` while observability is off.  It is observability's only tap:
    every hook site — the transport's client send, the registry's
    selections, the call handlers, faults and rollouts — guards with
    ``if hooks.ACTIVE is not None`` and calls a method on it.  Nothing
    registers callbacks anywhere else.

``CONTEXT``
    The :class:`~repro.obs.context.TraceContext` of the client attempt
    currently being *issued*.  The fleet driver sets it immediately before
    the synchronous protocol-stack call construction and resets it right
    after, so the SOAP/GIOP encoders and the transport's client-send hook
    read it without any plumbing through intermediate signatures.  The simulation
    is single-threaded and call construction never yields to the
    scheduler, so a plain module global is race-free by construction.

``SERVER_WIRE_CONTEXT``
    The *encoded* trace context a protocol server decoded from an
    incoming message (SOAP header block / GIOP service context), staged
    for the technology-neutral :class:`~repro.core.sde.call_handler
    .CallHandler` to consume synchronously when ``dispatch`` runs.  The
    consumer clears it, so a message without a context never inherits a
    stale one.
"""

from __future__ import annotations

#: The installed Observability instance (None = observability off).
ACTIVE = None

#: TraceContext of the client attempt currently being issued (or None).
CONTEXT = None

#: Encoded wire context staged by a protocol server for CallHandler.dispatch.
SERVER_WIRE_CONTEXT = None
