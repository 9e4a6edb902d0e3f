"""A CORBA mail service developed live — the paper's own future-work workload.

Section 8 mentions: "We are currently implementing a medium-sized mail
service application in JPie using CDE and SDE."  This example builds that
application on the CORBA subsystem:

* a ``MailService`` server class with user-defined struct types, developed
  incrementally while a client stays connected over IIOP;
* the published CORBA-IDL document and IOR are retrieved over HTTP exactly as
  in Figure 2;
* at the end of the session the dynamic server is exported to a static
  OpenORB-style server (§7), and the same client code runs against it.

Run with:  python examples/corba_mail_service.py
"""

from repro.cluster import Scenario
from repro.cluster.protocols import BUILTIN_STACKS
from repro.cluster.registry import Replica
from repro.corba import CorbaServiceDefinition, StaticCorbaServer
from repro.interface import Parameter
from repro.jpie import export_operation_table
from repro.rmitypes import BOOLEAN, FieldDef, INT, STRING, ArrayType, StructType


MESSAGE = StructType(
    "Message",
    (
        FieldDef("sender", STRING),
        FieldDef("recipient", STRING),
        FieldDef("subject", STRING),
        FieldDef("body", STRING),
    ),
)


def main() -> None:
    runtime = Scenario().build()
    node = runtime.nodes[0]
    sde = node.sde

    # -- build the mail service incrementally, starting from an empty class ---
    mail = node.environment.create_class("MailService", superclass=sde.corba_server_class)
    mail.declare_struct(MESSAGE)
    mail.add_field("sent", INT, 0)

    state: dict[str, list[dict]] = {}

    def send(self, message):
        state.setdefault(message["recipient"], []).append(message)
        self.set_field("sent", self.get_field("sent") + 1)
        return True

    def inbox_subjects(self, user):
        return [message["subject"] for message in state.get(user, [])]

    mail.add_method("send", (Parameter("message", MESSAGE),), BOOLEAN, body=send, distributed=True)
    mail.add_method(
        "inbox_subjects", (Parameter("user", STRING),), ArrayType(STRING),
        body=inbox_subjects, distributed=True,
    )
    mail.new_instance()
    runtime.settle()

    publisher = sde.managed_server("MailService").publisher
    print("published CORBA-IDL at", publisher.document_url)
    print("published IOR at     ", publisher.ior_url)
    print()
    print(node.manager_interface.view_interface_document("MailService"))

    # -- a CDE client connects via the published IDL + IOR --------------------
    client = runtime.connect("MailService")
    client.invoke("send", {"sender": "kjg", "recipient": "sajeeva",
                           "subject": "SDE draft", "body": "please review"})
    client.invoke("send", {"sender": "bem", "recipient": "sajeeva",
                           "subject": "CDE figures", "body": "attached"})
    print("sajeeva's inbox:", client.invoke("inbox_subjects", "sajeeva"))

    # -- live extension: add a word-count operation while connected -----------
    mail.add_method(
        "count_words", (Parameter("user", STRING),), INT,
        body=lambda self, user: sum(len(m["body"].split()) for m in state.get(user, [])),
        distributed=True,
    )
    runtime.settle()
    client.refresh()
    print("words addressed to sajeeva:", client.invoke("count_words", "sajeeva"))

    # -- end of development: export to a static CORBA server (§7) -------------
    instance = sde.managed_server("MailService").instance
    definition = CorbaServiceDefinition("MailServiceRelease", "urn:mail:release")
    definition.structs.append(MESSAGE)
    for signature, implementation in export_operation_table(mail, instance):
        definition.add_operation(signature, implementation)
    static_server = StaticCorbaServer(node.host, 9500, definition, http_port=8500)
    static_server.start()

    # The same client stack binds the static server through the IDL and IOR
    # it serves, and the CDE's stub class gives it typed methods.
    release = Replica("MailServiceRelease", 0, node, static_server)
    static_client = runtime.cde.connect(BUILTIN_STACKS["corba"], release)
    stub = runtime.cde.create_stub_class(static_client).new_stub_instance()
    print("static export inbox:", stub.inbox_subjects("sajeeva"))
    print("static export word count:", stub.count_words("sajeeva"))


if __name__ == "__main__":
    main()
