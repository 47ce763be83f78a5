"""repro: model-based selection of optimal MPI collective algorithms.

A complete, simulator-backed reproduction of Nuriyev & Lastovetsky,
"A New Model-Based Approach to Performance Comparison of MPI Collective
Algorithms" (PaCT 2021).  See README.md for a tour and DESIGN.md for the
system inventory.

Quickstart::

    from repro import GRISOU, calibrate_platform, ModelBasedSelector

    calibration = calibrate_platform(GRISOU)
    selector = ModelBasedSelector(calibration.platform)
    choice = selector.select(procs=90, nbytes=1 << 20)
    print(choice.describe())
"""

from repro.clusters import GRISOU, GROS, MINICLUSTER, ClusterSpec, get_preset
from repro.collectives import BCAST_ALGORITHMS
from repro.estimation import (
    AlphaBeta,
    PlatformModel,
    calibrate_platform,
    estimate_alpha_beta,
    estimate_gamma,
    estimate_hockney_p2p,
)
from repro.measure import time_bcast, time_bcast_then_gather, time_gather
from repro.models import (
    DERIVED_BCAST_MODELS,
    TRADITIONAL_BCAST_MODELS,
    GammaFunction,
    HockneyParams,
)
from repro.mpiblib import CollectiveBenchmark
from repro.selection import (
    DecisionTable,
    MeasuredOracle,
    ModelBasedSelector,
    OmpiFixedSelector,
    Selection,
    build_decision_table,
    ompi_bcast_decision,
)
from repro.selection.ompi_fixed import ompi_reduce_decision

__version__ = "1.0.0"

__all__ = [
    "BCAST_ALGORITHMS",
    "DERIVED_BCAST_MODELS",
    "GRISOU",
    "GROS",
    "MINICLUSTER",
    "TRADITIONAL_BCAST_MODELS",
    "AlphaBeta",
    "ClusterSpec",
    "DecisionTable",
    "GammaFunction",
    "HockneyParams",
    "MeasuredOracle",
    "ModelBasedSelector",
    "OmpiFixedSelector",
    "PlatformModel",
    "Selection",
    "CollectiveBenchmark",
    "build_decision_table",
    "calibrate_platform",
    "estimate_alpha_beta",
    "estimate_gamma",
    "estimate_hockney_p2p",
    "get_preset",
    "ompi_bcast_decision",
    "ompi_reduce_decision",
    "time_bcast",
    "time_bcast_then_gather",
    "time_gather",
]
