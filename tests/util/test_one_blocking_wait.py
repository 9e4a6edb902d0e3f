"""``Deferred.wait`` is the one blocking wait on the client side of ``src/``.

Three checks over the syntax trees of ``src/``, by the qualified name of the
function a call sits in:

* ``<scheduler>.run_until(...)`` is called only by ``Deferred.wait`` and the
  fleet driver's run loop;
* ``<deferred>.wait(...)`` is called only by the synchronous façades listed
  in :data:`WAITERS`, each of which resets its connection when the wait
  unwinds before the deferred completed;
* no :class:`~repro.cluster.protocols.ProtocolClient` subclass overrides
  ``prepare_replica``: a stack binds through ``bind_replica``, and the base
  class's ``prepare_replica`` is the one wait on a bind.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: The functions that may drive the scheduler until a condition holds.
RUNNERS = {
    "repro/net/transport.py:Deferred.wait",
    "repro/cluster/driver.py:FleetDriver.run",
}

#: The functions that may block on a deferred.
WAITERS = {
    "repro/cluster/protocols.py:ProtocolClient.prepare_replica",
    "repro/core/cde/binding.py:DynamicClientBinding.invoke",
    "repro/cluster/cohort.py:CohortFlow._calibrate",
}


def _calls(node: ast.AST, scope: str):
    """``(attribute, qualified function name)`` of each ``x.attr(...)`` call
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            yield child.func.attr, scope
        yield from _calls(child, inner)


def blocking_waits(root: Path = SRC) -> list[str]:
    """``"<path>:<function> calls <attr>"`` for each ``run_until`` or
    ``wait`` call outside its allowlist."""
    allowed = {"run_until": RUNNERS, "wait": WAITERS}
    found = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for attr, scope in _calls(ast.parse(path.read_text(encoding="utf-8")), ""):
            where = f"{module}:{scope}"
            if attr in allowed and where not in allowed[attr]:
                found.append(f"{where} calls {attr}")
    return found


def prepare_overrides(root: Path = SRC) -> list[str]:
    """``"<path>:<class>"`` for each ``ProtocolClient`` subclass (by base
    name, transitively) that defines ``prepare_replica``."""
    classes = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = {ast.unparse(base).rpartition(".")[2] for base in node.bases}
                methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                classes.append((path.relative_to(root).as_posix(), node.name, bases, methods))
    stacks = {"ProtocolClient"}
    grew = True
    while grew:
        subclasses = {name for _module, name, bases, _methods in classes if bases & stacks}
        grew = not subclasses <= stacks
        stacks |= subclasses
    return [
        f"{module}:{name}"
        for module, name, _bases, methods in classes
        if name != "ProtocolClient" and name in stacks and "prepare_replica" in methods
    ]


def test_deferred_wait_is_the_one_blocking_wait():
    assert blocking_waits() == []


def test_stacks_bind_through_bind_replica():
    assert prepare_overrides() == []


def test_a_blocking_request_and_a_prepare_override_are_reported(tmp_path):
    """The shapes the client side had before its one bind path: a blocking
    channel request, a second scheduler loop and a stack's own wait."""
    module = tmp_path / "repro" / "net" / "channel.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "class ClientChannel:\n"
        "    def request(self, destination, payload, parse):\n"
        "        deferred = self.request_async(destination, payload, parse)\n"
        "        return deferred.wait(self.scheduler)\n"
        "    def drain(self):\n"
        "        self.scheduler.run_until(lambda: not self.pending)\n"
    )
    stacks = tmp_path / "repro" / "cluster" / "stacks.py"
    stacks.parent.mkdir(parents=True)
    stacks.write_text(
        "from repro.cluster import protocols\n"
        "class SoapStack(protocols.ProtocolClient):\n"
        "    def bind_replica(self, replica): ...\n"
        "class PinnedSoapStack(SoapStack):\n"
        "    def prepare_replica(self, replica): ...\n"
    )
    assert blocking_waits(tmp_path) == [
        "repro/net/channel.py:ClientChannel.request calls wait",
        "repro/net/channel.py:ClientChannel.drain calls run_until",
    ]
    assert prepare_overrides(tmp_path) == ["repro/cluster/stacks.py:PinnedSoapStack"]
