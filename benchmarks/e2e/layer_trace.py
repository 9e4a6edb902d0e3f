"""Per-layer host self time, measured from outside the program.

One table maps boundary functions to the layer (a ``repro`` module) they
enter.  :meth:`LayerTracer.install` replaces each of them, before any
scenario is built, with a wrapper that records a span ``(boundary, start,
end, parent)``; nothing under ``src/`` knows it is being traced.  A layer's
self time is its spans' time minus the time of their child spans, so the
self times of all layers add up to the time of the root spans.

Installing is one-way: the traced run gets a process of its own, so the
wrappers never touch the timed, untraced reps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable

#: (layer, "module:qualified.name") — the boundary functions of each layer.
BOUNDARIES: tuple[tuple[str, str], ...] = (
    ("sim", "repro.sim.scheduler:Scheduler.step"),
    ("sim", "repro.sim.servercore:ServerCore.charge"),
    ("sim", "repro.sim.servercore:ServerCore.charge_batch"),
    # Host.send_many is left out: nothing in src/ calls it.
    ("net.simnet", "repro.net.simnet:Host.send"),
    ("net.simnet", "repro.net.simnet:Host.deliver"),
    ("net.transport", "repro.net.transport:ClientChannel.request_async"),
    ("net.transport", "repro.net.transport:Connection.resolve"),
    ("net.transport", "repro.net.transport:Endpoint._on_message"),
    ("net.transport", "repro.net.transport:_ClientConnection._on_message"),
    ("net.http", "repro.net.http.messages:HttpRequest.to_bytes"),
    ("net.http", "repro.net.http.messages:HttpRequest.from_bytes"),
    ("net.http", "repro.net.http.messages:HttpResponse.to_bytes"),
    ("net.http", "repro.net.http.messages:HttpResponse.from_bytes"),
    ("net.http", "repro.net.http.server:HttpServer._on_request"),
    ("net.http", "repro.net.http.client:HttpClient.request_async"),
    ("soap", "repro.soap.envelope:SoapRequest.for_call"),
    ("soap", "repro.soap.envelope:SoapRequest.to_xml_and_wire"),
    ("soap", "repro.soap.envelope:SoapRequest.from_xml"),
    ("soap", "repro.soap.envelope:SoapResponse.from_xml"),
    ("soap", "repro.soap.envelope:SoapResponse.to_xml_and_wire"),
    ("xmlutil", "repro.xmlutil.parser:parse"),
    ("xmlutil", "repro.xmlutil.serializer:serialize"),
    ("corba", "repro.corba.orb:ClientOrb.invoke_async"),
    ("corba", "repro.corba.orb:ServerOrb._on_request"),
    ("corba", "repro.corba.giop:parse_message"),
    ("corba", "repro.corba.cdr:marshal_values"),
    ("corba", "repro.corba.cdr:unmarshal_values"),
    ("soap.wsdl", "repro.soap.wsdl.parser:parse_wsdl"),
    ("soap.wsdl", "repro.soap.wsdl.generator:generate_wsdl"),
    ("corba.idl", "repro.corba.idl.parser:parse_idl"),
    ("corba.idl", "repro.corba.idl.generator:generate_idl"),
    ("core.sde", "repro.core.sde.call_handler:CallHandler.dispatch"),
    ("core.sde", "repro.core.sde.manager_interface:SDEManagerInterface.force_publication"),
    ("jpie", "repro.jpie.dynamic_method:DynamicMethod.invoke"),
    ("cluster.scenario", "repro.cluster.scenario:Scenario.build"),
    ("cluster.scenario", "repro.cluster.scenario:ScenarioRuntime.run"),
    ("cluster.driver", "repro.cluster.driver:FleetDriver.run"),
    ("cluster.registry", "repro.cluster.registry:ServiceRegistry.select"),
    ("cluster.registry", "repro.cluster.registry:ServiceRegistry.select_many"),
    ("cluster.cohort", "repro.cluster.cohort:CohortFlow.prepare"),
    ("cluster.cohort", "repro.cluster.cohort:CohortFlow.start"),
    ("traffic", "repro.traffic.arrivals:resolve_offsets"),
)

#: Layer names in table order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in BOUNDARIES))


class LayerTracer:
    """Wraps every boundary in :data:`BOUNDARIES` and records spans."""

    def __init__(self) -> None:
        #: ``[boundary index, start, end, parent span index or -1]`` per call.
        self.spans: list[list[Any]] = []
        self._open: list[int] = []

    def install(self) -> None:
        """Replace every boundary function with a span-recording wrapper."""
        for index, (_layer, target) in enumerate(BOUNDARIES):
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attribute = qualname.split(".")
                owner = getattr(module, class_name)
                raw = inspect.getattr_static(owner, attribute)
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attribute, type(raw)(self._wrap(index, raw.__func__)))
                else:
                    setattr(owner, attribute, self._wrap(index, raw))
            else:
                # Callers import module-level functions by name, so every
                # repro module attribute holding the original is rebound.
                original = getattr(module, qualname)
                wrapper = self._wrap(index, original)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, name, wrapper)

    def _wrap(self, boundary: int, function: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [boundary, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def reset(self) -> None:
        """Forget the recorded spans (between reps)."""
        self.spans.clear()

    def self_times(self) -> dict[str, float]:
        """Host self seconds per layer over the recorded spans."""
        totals = dict.fromkeys(LAYERS, 0.0)
        spans = self.spans
        for boundary, start, end, parent in spans:
            duration = end - start
            totals[BOUNDARIES[boundary][0]] += duration
            if parent >= 0:
                totals[BOUNDARIES[spans[parent][0]][0]] -= duration
        return totals

    def boundary_counts(self) -> list[int]:
        """Calls recorded per boundary, in :data:`BOUNDARIES` order."""
        counts = [0] * len(BOUNDARIES)
        for span in self.spans:
            counts[span[0]] += 1
        return counts


def layer_crossings(boundary_counts: list[int]) -> dict[str, int]:
    """Boundary calls summed per layer."""
    totals = dict.fromkeys(LAYERS, 0)
    for (layer, _target), count in zip(BOUNDARIES, boundary_counts):
        totals[layer] += count
    return totals
