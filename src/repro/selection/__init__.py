"""Runtime selection of collective algorithms.

Three selectors, matching the three curves of the paper's Fig. 5:

* :mod:`repro.selection.model_based` — the paper's contribution: pick the
  algorithm whose calibrated analytical model predicts the lowest time;
* :mod:`repro.selection.ompi_fixed` — the baseline: a port of Open MPI
  3.1's hard-coded broadcast decision function;
* :mod:`repro.selection.oracle` — the ground truth: measure every
  algorithm and pick the best.

:mod:`repro.selection.decision_table` precomputes a selector over a
``(P, m)`` grid and serialises it, the deployment artefact an MPI library
would ship.
"""

from repro.selection.codegen import (
    C_OPERATION_ALGORITHM_IDS,
    algorithm_ids_for,
    compile_python,
    generate_c,
    generate_python,
)
from repro.selection.decision_table import (
    DecisionTable,
    build_decision_table,
    floor_cell,
)
from repro.selection.flat_table import FlatDecisionTable
from repro.selection.model_based import ModelBasedSelector
from repro.selection.ompi_fixed import (
    OmpiFixedSelector,
    ompi_barrier_decision,
    ompi_bcast_decision,
    ompi_gather_decision,
    ompi_reduce_decision,
)
from repro.selection.oracle import MeasuredOracle, Selection

__all__ = [
    "C_OPERATION_ALGORITHM_IDS",
    "DecisionTable",
    "FlatDecisionTable",
    "MeasuredOracle",
    "ModelBasedSelector",
    "OmpiFixedSelector",
    "Selection",
    "algorithm_ids_for",
    "build_decision_table",
    "compile_python",
    "floor_cell",
    "generate_c",
    "generate_python",
    "ompi_barrier_decision",
    "ompi_bcast_decision",
    "ompi_gather_decision",
    "ompi_reduce_decision",
]
