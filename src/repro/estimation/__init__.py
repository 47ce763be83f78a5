"""Estimation of analytical-model parameters (paper §4).

Two estimation procedures make up the paper's second contribution:

* :mod:`repro.estimation.gamma` — measures ``γ(P)``, the slowdown of the
  non-blocking linear-tree broadcast relative to a point-to-point message,
  from collective communication experiments (§4.1);
* :mod:`repro.estimation.alphabeta` — measures per-algorithm Hockney
  parameters ``α, β`` from experiments that *contain the modelled
  algorithm* (broadcast under test + linear gather, timed on the root),
  solved by Huber regression over the canonical linear system of the
  paper's Fig. 4 (§4.2).  One estimator serves every collective; its
  per-operation profile table says which experiment each one runs.

Supporting machinery: :mod:`repro.estimation.statistics` (confidence-
interval driven adaptive repetition, following MPIBlib),
:mod:`repro.estimation.regression` (OLS and Huber IRLS),
:mod:`repro.estimation.p2p` (classical point-to-point estimation used by the
traditional models and the ablation), and :mod:`repro.estimation.workflow`
(one-call calibration of a platform, for any collective).
"""

from repro.estimation.alphabeta import (
    OPERATION_PROFILES,
    AlphaBeta,
    FitQuality,
    OperationProfile,
    alphabeta_prefetch_jobs,
    estimate_alpha_beta,
)
from repro.estimation.gamma import estimate_gamma
from repro.estimation.p2p import estimate_hockney_p2p
from repro.estimation.regression import huber_fit, mad_screen, ols_fit
from repro.estimation.registry import (
    CalibrationOutcome,
    CalibrationPipeline,
    get_pipeline,
    register_pipeline,
    registered_collectives,
    unregister_pipeline,
)
from repro.estimation.statistics import SampleStats, adaptive_measure
from repro.estimation.workflow import (
    PlatformModel,
    QualityThresholds,
    calibrate_platform,
)

__all__ = [
    "OPERATION_PROFILES",
    "AlphaBeta",
    "CalibrationOutcome",
    "CalibrationPipeline",
    "FitQuality",
    "OperationProfile",
    "PlatformModel",
    "QualityThresholds",
    "SampleStats",
    "adaptive_measure",
    "alphabeta_prefetch_jobs",
    "calibrate_platform",
    "estimate_alpha_beta",
    "estimate_gamma",
    "estimate_hockney_p2p",
    "get_pipeline",
    "huber_fit",
    "mad_screen",
    "ols_fit",
    "register_pipeline",
    "registered_collectives",
    "unregister_pipeline",
]
