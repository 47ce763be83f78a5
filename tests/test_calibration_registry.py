"""The per-collective calibration registry (multi-collective builds).

Covers the registry's contract end to end: the built-in pipelines, the
accepts/tolerates kwarg validation (a genuinely unsupported kwarg is an
error, never silently dropped), ``gamma_max_procs`` forwarding to the
reduce pipeline, the uniform strict quality gate, and the headline
executor property — a warm persistent cache rebuilds *every* collective's
calibration with zero simulations.
"""

from __future__ import annotations

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import ArtifactError
from repro.estimation.registry import (
    CalibrationOutcome,
    CalibrationPipeline,
    get_pipeline,
    register_pipeline,
    registered_collectives,
    run_pipeline,
    unregister_pipeline,
)
from repro.estimation.workflow import QualityThresholds
from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner
from repro.service.artifact import build_artifact
from repro.units import KiB

#: One kwarg set every built-in pipeline either accepts or tolerates —
#: the shape ``build_artifact`` forwards in a combined multi-collective
#: build.
CALIB_KWARGS = dict(
    procs=4,
    sizes=(8 * KiB, 32 * KiB, 128 * KiB),
    gamma_max_procs=3,
    max_reps=3,
    seed=0,
)

#: Thresholds no finite fit can meet (used to trip the strict gate).
IMPOSSIBLE = QualityThresholds(
    max_relative_residual=-1.0, min_converged_fraction=2.0
)


#: Every built-in pipeline: the original four plus the whole suite.
ALL_PIPELINES = (
    "bcast", "reduce", "gather", "barrier",
    "allreduce", "allgather", "alltoall", "scatter",
)


class TestRegistryListing:
    def test_builtin_collectives_registered(self):
        assert set(ALL_PIPELINES) <= set(registered_collectives())

    def test_unknown_operation_names_registered_pipelines(self):
        with pytest.raises(ArtifactError, match="no calibration pipeline"):
            get_pipeline("reduce_scatter")

    def test_build_artifact_rejects_unregistered_collective(self):
        with pytest.raises(ArtifactError, match="no calibration pipeline"):
            build_artifact(MINICLUSTER, collectives=("reduce_scatter",))


class TestKwargContract:
    def _recorder(self, seen: dict):
        def fn(spec, *, runner=None, **kwargs):
            seen.update(kwargs)
            raise RuntimeError("recorder: calibration should not proceed")

        return CalibrationPipeline(
            operation="_test_op",
            fn=fn,
            accepts=frozenset({"seed"}),
            tolerates=frozenset({"procs"}),
        )

    def test_accepted_kwargs_forwarded_tolerated_dropped(self):
        seen: dict = {}
        pipeline = self._recorder(seen)
        with pytest.raises(RuntimeError, match="recorder"):
            pipeline.calibrate(MINICLUSTER, seed=7, procs=4)
        assert seen == {"seed": 7}

    def test_unsupported_kwarg_is_an_error_not_a_drop(self):
        seen: dict = {}
        pipeline = self._recorder(seen)
        with pytest.raises(ArtifactError, match="does not support bogus_knob"):
            pipeline.calibrate(MINICLUSTER, seed=7, bogus_knob=1)
        assert seen == {}  # validation happens before any work

    def test_builtin_pipelines_reject_unknown_kwargs(self):
        for operation in ALL_PIPELINES:
            with pytest.raises(ArtifactError, match="does not support"):
                get_pipeline(operation).calibrate(MINICLUSTER, bogus_knob=1)

    def test_gamma_max_procs_accepted_by_reduce(self):
        # Regression: the reduce pipeline used to silently ignore
        # gamma_max_procs; it must now forward it to the calibration.
        assert "gamma_max_procs" in get_pipeline("reduce").accepts

    def test_duplicate_registration_refused_unless_replaced(self):
        pipeline = CalibrationPipeline(
            operation="_test_dup",
            fn=lambda spec, *, runner=None, **kwargs: None,
            accepts=frozenset(),
        )
        register_pipeline(pipeline)
        try:
            with pytest.raises(ArtifactError, match="already registered"):
                register_pipeline(pipeline)
            register_pipeline(pipeline, replace=True)
            assert get_pipeline("_test_dup") is pipeline
        finally:
            unregister_pipeline("_test_dup")
        with pytest.raises(ArtifactError, match="no calibration pipeline"):
            get_pipeline("_test_dup")


#: The calibration kwargs of a size sweep without γ or segmentation.
_SIZE_SWEEP = frozenset(
    {
        "procs", "algorithms", "sizes", "regressor", "precision",
        "max_reps", "seed", "screen_mad", "retry_budget",
    }
)
_SIBLING_ONLY = frozenset({"gamma_max_procs", "segment_size", "model_params"})

#: Each built-in pipeline's kwarg contract: (accepts, tolerates,
#: size_independent).  Spelled out literally so a change to the profile
#: table cannot silently widen or narrow what a build accepts.
KWARG_CONTRACT = {
    "bcast": (
        _SIZE_SWEEP | _SIBLING_ONLY | {
            "model_family", "estimation", "gamma_method", "gather_bytes",
            "strict",
        },
        frozenset(),
        False,
    ),
    "reduce": (_SIZE_SWEEP | _SIBLING_ONLY, frozenset(), False),
    "gather": (_SIZE_SWEEP, _SIBLING_ONLY, False),
    "barrier": (
        frozenset(
            {
                "proc_counts", "algorithms", "precision", "max_reps",
                "seed", "retry_budget",
            }
        ),
        frozenset(
            {
                "procs", "sizes", "segment_size", "gamma_max_procs",
                "screen_mad", "regressor", "model_params",
            }
        ),
        True,
    ),
    "allreduce": (_SIZE_SWEEP, _SIBLING_ONLY, False),
    "allgather": (_SIZE_SWEEP, _SIBLING_ONLY, False),
    "alltoall": (_SIZE_SWEEP, _SIBLING_ONLY, False),
    "scatter": (_SIZE_SWEEP, _SIBLING_ONLY, False),
}


class TestPinnedKwargContract:
    @pytest.mark.parametrize("operation", ALL_PIPELINES)
    def test_contract_matches_pinned_sets(self, operation):
        accepts, tolerates, size_independent = KWARG_CONTRACT[operation]
        pipeline = get_pipeline(operation)
        assert pipeline.accepts == accepts
        assert pipeline.tolerates == tolerates
        assert pipeline.size_independent is size_independent


#: Out-of-range sweep inputs per operation (the barrier sweeps
#: ``proc_counts``; ``procs`` and ``sizes`` are only tolerated there).
_BAD_SWEEPS = [
    (operation, bad)
    for operation in ALL_PIPELINES
    for bad in (
        (
            {"proc_counts": (99,)},
            {"proc_counts": (1,)},
            {"proc_counts": ()},
        )
        if operation == "barrier"
        else (
            {"procs": 99},
            {"procs": 1},
            {"sizes": (8 * KiB,)},
            {"sizes": (-1, 8 * KiB)},
        )
    )
]


class TestSweepValidation:
    @pytest.mark.parametrize(
        "operation,bad", _BAD_SWEEPS,
        ids=[
            f"{op}-" + ",".join(f"{key}={value}" for key, value in bad.items())
            for op, bad in _BAD_SWEEPS
        ],
    )
    def test_out_of_range_sweep_fails_before_simulating(self, operation, bad):
        # Regression: procs used to be checked only inside the estimator,
        # after the whole prefetch batch had run, and escaped as an untyped
        # SimulationError when the batch itself could not be simulated.
        runner = ParallelRunner(jobs=1)
        kwargs = {**CALIB_KWARGS, **bad}
        try:
            with pytest.raises(ArtifactError, match=f"{operation} calibration failed"):
                run_pipeline(MINICLUSTER, operation, runner=runner, **kwargs)
            assert runner.stats.simulations == 0
        finally:
            runner.close()


class TestGammaMaxProcsForwarding:
    def test_reduce_gamma_table_bounded_by_gamma_max_procs(self):
        outcome = get_pipeline("reduce").calibrate(
            MINICLUSTER,
            procs=4,
            sizes=(8 * KiB, 64 * KiB),
            gamma_max_procs=3,
            max_reps=3,
            seed=0,
        )
        assert outcome.platform.gamma.table
        assert max(outcome.platform.gamma.table) <= 3


class TestWarmCacheRebuild:
    @pytest.mark.parametrize("operation", ALL_PIPELINES)
    def test_rebuild_from_warm_cache_runs_zero_simulations(
        self, operation, tmp_path
    ):
        pipeline = get_pipeline(operation)
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        first = pipeline.calibrate(MINICLUSTER, runner=cold, **CALIB_KWARGS)
        assert cold.stats.simulations > 0
        cold.close()

        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = pipeline.calibrate(MINICLUSTER, runner=warm, **CALIB_KWARGS)
        assert warm.stats.simulations == 0
        warm.close()

        assert second.platform.parameters == first.platform.parameters
        assert second.platform.gamma.table == first.platform.gamma.table

    def test_full_suite_rebuild_is_simulation_free_and_bit_identical(
        self, tmp_path
    ):
        """The acceptance headline: eight collectives, one warm replay.

        A second full-suite build against the same persistent cache must
        run zero simulations and reproduce the exact content hash.
        """
        build_kwargs = dict(
            collectives=ALL_PIPELINES,
            proc_points=(4, 8),
            size_points=(8 * KiB, 64 * KiB),
            **CALIB_KWARGS,
        )
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        first = build_artifact(MINICLUSTER, runner=cold, **build_kwargs)
        assert cold.stats.simulations > 0
        cold.close()

        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = build_artifact(MINICLUSTER, runner=warm, **build_kwargs)
        assert warm.stats.simulations == 0
        warm.close()

        assert set(first.operations) == set(ALL_PIPELINES)
        assert second.artifact_id == first.artifact_id

        # With every operand collective present, the five cross-collective
        # mock-up guidelines flip from skipped to actually checked.
        assert first.guidelines["ok"] is True
        assert first.guidelines["skipped"] == {}
        assert {
            "bcast_le_scatter_plus_allgather",
            "scatter_le_alltoall",
            "gather_le_allgather",
            "reduce_le_allreduce",
            "alltoall_le_scatter",
        } <= set(first.guidelines["checked"])


class TestStrictGate:
    @pytest.mark.parametrize(
        "operation",
        (
            "reduce", "gather", "barrier",
            "allreduce", "allgather", "alltoall", "scatter",
        ),
    )
    def test_strict_build_gates_every_pipeline(self, operation):
        # Regression: --strict used to gate only the broadcast calibration;
        # every pipeline's quality report now feeds the same gate.
        with pytest.raises(
            ArtifactError,
            match=f"strict build refused.*{operation} calibration quality",
        ):
            build_artifact(
                MINICLUSTER,
                collectives=(operation,),
                proc_points=(2, 4, 8),
                size_points=(8 * KiB, 64 * KiB),
                strict=True,
                thresholds=IMPOSSIBLE,
                **CALIB_KWARGS,
            )

    def test_every_calibrating_pipeline_reports_quality(self):
        for operation in ALL_PIPELINES:
            outcome = get_pipeline(operation).calibrate(
                MINICLUSTER, **CALIB_KWARGS
            )
            assert isinstance(outcome, CalibrationOutcome)
            assert outcome.quality, f"{operation} produced no quality report"
            # failing() names a subset of the fitted algorithms (the small
            # test sweep may legitimately trip the model-form residual).
            assert set(outcome.failing()) <= set(outcome.quality)
