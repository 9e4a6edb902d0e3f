"""Experiment drivers reproducing the paper's evaluation.

Each module regenerates one table, figure or ablation; the tests under
``tests/integration/`` check their shapes and pin their exact values:

* :mod:`repro.experiments.table1` — E1, the Table 1 round-trip-time
  comparison between SDE servers and their static counterparts;
* :mod:`repro.core.protocol.interleaving` — E2/E3, the Figure 7 and Figure 8
  interleaving analyses (re-exported here for convenience);
* :mod:`repro.experiments.publication_strategies` — E4, the §5.6 ablation of
  stable-timeout vs change-driven vs polling publication;
* :mod:`repro.experiments.stale_flood` — E5, the §5.7 rogue-client ablation;
* :mod:`repro.experiments.encoding_costs` — E6, SOAP vs GIOP message sizes;
* :mod:`repro.experiments.interface_generation` — E7, interface-generation
  cost versus interface size;
* :mod:`repro.experiments.multi_client` — E8, multi-client scale-out over
  the shared transport layer (RTT, throughput and §5.7 stall-queue depth as
  the client fleet grows, for both middlewares, optionally through a
  bounded server-CPU model).
"""

from repro.core.protocol.interleaving import run_figure7_matrix, run_figure8_matrix
from repro.experiments.table1 import RttResult, run_table1, PAPER_TABLE1_RTT
from repro.experiments.publication_strategies import (
    StrategyResult,
    run_publication_strategy_comparison,
)
from repro.experiments.stale_flood import StaleFloodResult, run_stale_flood
from repro.experiments.encoding_costs import EncodingResult, run_encoding_comparison
from repro.experiments.interface_generation import (
    GenerationResult,
    run_interface_generation_sweep,
)
from repro.experiments.multi_client import (
    MultiClientResult,
    run_multi_client,
)

__all__ = [
    "run_figure7_matrix",
    "run_figure8_matrix",
    "RttResult",
    "run_table1",
    "PAPER_TABLE1_RTT",
    "StrategyResult",
    "run_publication_strategy_comparison",
    "StaleFloodResult",
    "run_stale_flood",
    "EncodingResult",
    "run_encoding_comparison",
    "GenerationResult",
    "run_interface_generation_sweep",
    "MultiClientResult",
    "run_multi_client",
]
