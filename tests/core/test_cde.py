"""Tests for CDE: dynamic client bindings, stub management, §6 client side."""

import ast
from pathlib import Path

import pytest

import repro.core.cde
from repro.cluster import Scenario, op
from repro.cluster.protocols import OUTCOME_OTHER, OUTCOME_STALE, OUTCOME_SUCCESS
from repro.core.cde import ClientStubManager
from repro.core.sde import SDEConfig
from repro.errors import DeadlockError, NonExistentMethodError, TransportError
from repro.net.transport import Deferred
from repro.rmitypes import INT, STRING


class TestBindingBasics:
    def test_connect_fetches_interface(self, calculator_runtime):
        _runtime, _calculator, binding = calculator_runtime
        assert binding.service_name == "Calculator"
        assert set(binding.description.operation_names()) == {"add", "greet"}
        assert binding.interface_version >= 1

    def test_invoke_known_operation(self, calculator_runtime):
        _runtime, _calculator, binding = calculator_runtime
        assert binding.invoke("add", 2, 3) == 5
        assert binding.invoke("greet", "kim") == "hello kim"
        assert binding.stats[OUTCOME_SUCCESS] == 2

    def test_refresh_reports_interface_diff(self, calculator_runtime):
        runtime, calculator, binding = calculator_runtime
        calculator.add_method("square", (), INT, body=lambda self: 0, distributed=True)
        runtime.publish("Calculator")
        diff = binding.refresh()
        assert diff.added == ("square",)
        assert binding.description.has_operation("square")
        assert binding.stats["refreshes"] >= 2


class _ScriptedStack:
    """The binding's real stack, except that ``call`` returns a scripted
    deferred and ``reset_replica`` is recorded."""

    def __init__(self, stack, deferred: Deferred) -> None:
        self._stack = stack
        self._deferred = deferred
        self.resets = []

    def call(self, replica, operation, arguments):
        return self._deferred

    def reset_replica(self, replica):
        self.resets.append(replica.index)

    def __getattr__(self, name):
        return getattr(self._stack, name)


class TestInvokeWait:
    """``invoke`` blocks on the reply deferred; failures reset the replica."""

    def test_reply_that_never_comes_deadlocks_and_resets(self, calculator_runtime):
        _runtime, _calculator, binding = calculator_runtime
        stack = _ScriptedStack(binding.stack, Deferred("orphan reply"))
        binding.stack = stack
        with pytest.raises(DeadlockError, match="orphan reply"):
            binding.invoke("add", 1, 2)
        assert stack.resets == [binding.replica.index]
        assert binding.stats[OUTCOME_OTHER] == 0

    def test_transport_failure_is_classified_and_resets(self, calculator_runtime):
        _runtime, _calculator, binding = calculator_runtime
        failed = Deferred("failed reply")
        failed.fail(TransportError("link down"))
        stack = _ScriptedStack(binding.stack, failed)
        binding.stack = stack
        with pytest.raises(TransportError, match="link down"):
            binding.invoke("add", 1, 2)
        assert stack.resets == [binding.replica.index]
        assert binding.stats[OUTCOME_OTHER] == 1


class TestStaleCallHandling:
    """The client half of the §6 algorithm."""

    def test_stale_call_refreshes_view_and_reports_to_debugger(self, calculator_runtime):
        runtime, calculator, binding = calculator_runtime
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        # The view was refreshed to the forced publication.
        assert binding.description.has_operation("sum")
        assert not binding.description.has_operation("add")
        # The debugger shows the error with the interface diff.
        entry = runtime.cde.debugger.latest()
        assert entry is not None
        assert "add" in str(entry.exception)
        assert "sum" in entry.description

    def test_guarantee_record_satisfied(self, calculator_runtime):
        _runtime, calculator, binding = calculator_runtime
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        record = binding.guarantee_records[-1]
        assert record.satisfied
        assert record.client_version_after_refresh >= record.server_version
        assert "sum" in record.interface_diff.added

    def test_try_again_after_developer_adapts(self, calculator_runtime):
        """Figure 9: the developer inspects the error, fixes the call site,
        and re-executes via the debugger's 'try again'."""
        runtime, calculator, binding = calculator_runtime
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        entry = runtime.cde.debugger.latest()
        # The server developer renames the method back (the §6 corner case);
        # 'try again' then succeeds with the original call.
        calculator.method("sum").rename("add")
        runtime.publish("Calculator")
        assert runtime.cde.debugger.try_again(entry) == 3
        assert entry.resolved

    def test_stale_faults_counted(self, calculator_runtime):
        _runtime, calculator, binding = calculator_runtime
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        assert binding.stats[OUTCOME_STALE] == 1


class TestClientStubManager:
    def test_stub_class_mirrors_interface(self, calculator_runtime):
        runtime, _calculator, binding = calculator_runtime
        manager = runtime.cde.create_stub_class(binding)
        assert set(manager.operation_names) == {"add", "greet"}
        stub = manager.new_stub_instance()
        assert stub.add(4, 5) == 9

    def test_stub_class_updates_on_refresh(self, calculator_runtime):
        runtime, calculator, binding = calculator_runtime
        manager = runtime.cde.create_stub_class(binding)
        stub = manager.new_stub_instance()
        calculator.add_method("square", (), INT, body=lambda self: 0, distributed=True)
        runtime.publish("Calculator")
        binding.refresh()
        assert "square" in manager.operation_names
        assert stub.square() == 0

    def test_stub_methods_removed_when_server_drops_them(self, calculator_runtime):
        runtime, calculator, binding = calculator_runtime
        manager = runtime.cde.create_stub_class(binding)
        calculator.remove_method("greet")
        runtime.publish("Calculator")
        binding.refresh()
        assert "greet" not in manager.operation_names

    def test_stub_signature_changes_propagate_to_live_instances(self, calculator_runtime):
        runtime, calculator, binding = calculator_runtime
        manager = runtime.cde.create_stub_class(binding)
        stub = manager.new_stub_instance()
        from repro.interface import Parameter

        method = calculator.method("add")
        method.set_parameters((Parameter("a", INT), Parameter("b", INT), Parameter("c", INT)))
        method.set_body(lambda self, a, b, c: a + b + c)
        runtime.publish("Calculator")
        binding.refresh()
        assert stub.add(1, 2, 3) == 6

    def test_automatic_update_on_stale_fault(self, calculator_runtime):
        """The binding refresh triggered by a stale fault also updates stubs."""
        runtime, calculator, binding = calculator_runtime
        manager = runtime.cde.create_stub_class(binding)
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        assert "sum" in manager.operation_names
        assert "add" not in manager.operation_names


class TestCdeWireIdentity:
    """Report fingerprints do not cover CDE traffic, so this pins every byte
    a CDE session sends and receives: connect, a stub-class call, a direct
    call, a §6 stale fault with its refresh, and the debugger's "try
    again".  The CORBA stack fetches a replica's IOR once, on its first bind:
    the §6 refresh re-fetches only the IDL."""

    @pytest.mark.parametrize(
        ("technology", "pinned"),
        [
            ("soap", (12, "86af1b23174789aae2758e4d1a5654348eb50cdcf54416c417949204b353575a")),
            ("corba", (14, "dccd6e61e1782ef63df446c6d40f3c99a13d76610c648894509b2ebe8ab88fea")),
        ],
    )
    def test_session_wire_bytes_are_pinned(self, technology, pinned, delivered_digest):
        runtime = (
            Scenario(sde_config=SDEConfig(publication_timeout=0.05, generation_cost=0.01))
            .service(
                "Calculator",
                [
                    op("add", (("a", INT), ("b", INT)), INT, body=lambda self, a, b: a + b),
                    op("greet", (("name", STRING),), STRING,
                       body=lambda self, name: f"hello {name}"),
                ],
                technology=technology,
            )
            .build()
        )
        runtime.world.network.record_deliveries = True
        runtime.publish("Calculator")
        binding = runtime.connect("Calculator")
        stub = runtime.cde.create_stub_class(binding).new_stub_instance()
        assert stub.greet("kim") == "hello kim"
        assert binding.invoke("add", 2, 3) == 5

        calculator = runtime.dynamic_class("Calculator")
        calculator.method("add").rename("sum")
        with pytest.raises(NonExistentMethodError):
            binding.invoke("add", 1, 2)
        entry = runtime.cde.debugger.latest()
        calculator.method("sum").rename("add")
        runtime.publish("Calculator")
        assert runtime.cde.debugger.try_again(entry) == 3

        record = binding.guarantee_records[-1]
        assert (record.server_version, record.client_version_after_refresh) == (3, 3)
        count, digest = delivered_digest(runtime)
        assert (count, digest) == pinned


class TestCdeImports:
    """CDE drives the fleet's protocol stacks; it must not grow a second
    client path of its own."""

    FORBIDDEN = (
        "repro.soap.envelope",
        "repro.soap.wsdl",
        "repro.corba.idl",
        "repro.corba.orb",
        "repro.corba.dii",
        "repro.net.http",
    )

    def test_cde_does_not_import_protocol_codecs(self):
        package = Path(repro.core.cde.__file__).parent
        offending = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                offending += [
                    f"{path.name}: {name}"
                    for name in names
                    if any(name == f or name.startswith(f + ".") for f in self.FORBIDDEN)
                ]
        assert offending == []
