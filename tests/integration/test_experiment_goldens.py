"""Exact-value goldens for the paper's experiment drivers.

The other experiment tests check the *shape* of these results (SOAP slower
than CORBA, every Figure 8 run satisfies the guarantee, ...).  These pin the
exact numbers, so a change in how a driver builds its world cannot shift a
reproduced table or figure without failing here.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.core.protocol.interleaving import ReactivePublishingExperiment
from repro.experiments.encoding_costs import run_encoding_comparison
from repro.experiments.interface_generation import run_interface_generation_sweep
from repro.experiments.publication_strategies import run_publication_strategy_comparison
from repro.experiments.stale_flood import run_stale_flood
from repro.experiments.table1 import run_table1


def test_table1_mean_rtts():
    results = run_table1(calls=20)
    assert [(r.configuration, r.mean_rtt) for r in results] == [
        ("SDE SOAP/Axis", 0.5476225388601031),
        ("Axis-Tomcat/Axis", 0.5008466321243523),
        ("SDE CORBA/OpenORB", 0.4876101865284973),
        ("OpenORB/OpenORB", 0.4026101865284975),
    ]


@pytest.mark.parametrize("technology", ["soap", "corba"])
def test_figure8_records(technology):
    records = ReactivePublishingExperiment(technology=technology).run_matrix()
    # (publish point, update point, guarantee satisfied, server version in
    # the fault, client version after the call, change visible, publications)
    assert [astuple(record) for record in records] == [
        (publish, update, True, 3, 3, True, 3)
        for publish in ("1", "2", "3", "4")
        for update in ("i", "ii", "iii", "iv")
    ]


def test_publication_strategy_comparison():
    assert [astuple(r) for r in run_publication_strategy_comparison()] == [
        ("stable-timeout", 15, 3, 4, 0, True, 4.850000000000001),
        ("change-driven", 15, 15, 16, 12, True, 0.0),
        ("polling", 15, 3, 4, 0, True, 5.050000000000004),
    ]


@pytest.mark.parametrize(
    ("change_interface_first", "expected"),
    [(True, (50, 50, 1, 1, 1)), (False, (50, 50, 0, 0, 0))],
)
def test_stale_flood(change_interface_first, expected):
    result = run_stale_flood(change_interface_first=change_interface_first)
    assert astuple(result) == expected


def test_encoding_comparison_wire_sizes():
    # (label, SOAP request, SOAP response, GIOP request, GIOP reply) bytes
    assert [astuple(r) for r in run_encoding_comparison()] == [
        ("two ints", 253, 248, 64, 45),
        ("small string", 237, 257, 57, 46),
        ("medium string", 488, 508, 308, 297),
        ("large string", 4328, 4348, 4148, 4137),
        ("int array (100)", 3913, 255, 953, 45),
        ("struct", 314, 261, 102, 38),
        ("struct array (25)", 2957, 253, 1268, 45),
    ]


def test_interface_generation_document_sizes():
    # (operations, WSDL bytes, IDL bytes)
    assert [astuple(r) for r in run_interface_generation_sweep((1, 10, 50))] == [
        (1, 1267, 264),
        (10, 5554, 717),
        (50, 24879, 2764),
    ]
