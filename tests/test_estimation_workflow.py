"""Tests for the end-to-end calibration workflow and PlatformModel."""

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import EstimationError
from repro.estimation.workflow import (
    DEFAULT_QUALITY,
    PlatformModel,
    QualityThresholds,
    calibrate_platform,
)
from repro.models.gamma import GammaFunction
from repro.models.hockney import HockneyParams
from repro.units import KiB, log_spaced_sizes


class TestCalibration:
    def test_calibrates_all_six_algorithms(self, mini_calibration):
        assert sorted(mini_calibration.platform.algorithms) == [
            "binary",
            "binomial",
            "chain",
            "k_chain",
            "linear",
            "split_binary",
        ]

    def test_gamma_estimate_attached(self, mini_calibration):
        assert mini_calibration.gamma_estimate.table[2] == 1.0

    def test_alpha_beta_per_algorithm(self, mini_calibration):
        for name, estimate in mini_calibration.alpha_beta.items():
            assert estimate.algorithm == name
            # The effective segment cost is what the models consume.
            assert estimate.params.p2p_time(8 * 1024) > 0

    def test_predictions_positive_and_finite(self, mini_platform):
        for name, predicted in mini_platform.predict_all(12, 256 * KiB).items():
            assert predicted > 0, name

    def test_p2p_estimation_mode(self):
        result = calibrate_platform(
            MINICLUSTER,
            estimation="p2p",
            sizes=[8 * KiB, 64 * KiB, 256 * KiB],
            gamma_max_procs=4,
        )
        params = set(
            (p.alpha, p.beta) for p in result.platform.parameters.values()
        )
        assert len(params) == 1  # one shared ping-pong fit
        assert result.p2p_estimate is not None

    def test_traditional_family_mode(self):
        result = calibrate_platform(
            MINICLUSTER,
            model_family="traditional",
            sizes=[8 * KiB, 64 * KiB, 256 * KiB],
            gamma_max_procs=4,
            algorithms=["binomial", "chain"],
        )
        assert result.platform.model_family == "traditional"
        assert sorted(result.platform.algorithms) == ["binomial", "chain"]

    def test_unknown_estimation_rejected(self):
        with pytest.raises(EstimationError):
            calibrate_platform(MINICLUSTER, estimation="magic")

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            calibrate_platform(MINICLUSTER, model_family="quantum")

    def test_ablations_are_bcast_only(self):
        with pytest.raises(EstimationError, match="bcast-only"):
            calibrate_platform(MINICLUSTER, operation="reduce", estimation="p2p")
        with pytest.raises(EstimationError, match="traditional"):
            calibrate_platform(
                MINICLUSTER, operation="gather", model_family="traditional"
            )

    def test_unknown_operation_rejected(self):
        with pytest.raises(EstimationError, match="no calibration profile"):
            calibrate_platform(MINICLUSTER, operation="reduce_scatter")

    def test_sweep_axis_mismatch_rejected(self):
        with pytest.raises(EstimationError, match="proc_counts does not apply"):
            calibrate_platform(MINICLUSTER, proc_counts=(4, 8))
        with pytest.raises(EstimationError, match="procs does not apply"):
            calibrate_platform(MINICLUSTER, operation="barrier", procs=4)


class TestPlatformModel:
    def make_platform(self):
        return PlatformModel(
            cluster="toy",
            segment_size=8 * KiB,
            gamma=GammaFunction({3: 1.1, 4: 1.2}),
            parameters={
                "binomial": HockneyParams(1e-6, 1e-9),
                "chain": HockneyParams(2e-6, 2e-9),
            },
        )

    def test_predict_uses_per_algorithm_parameters(self):
        platform = self.make_platform()
        binomial = platform.predict("binomial", 16, 64 * KiB)
        chain = platform.predict("chain", 16, 64 * KiB)
        assert binomial != chain

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(EstimationError, match="no parameters"):
            self.make_platform().predict("linear", 8, 1024)

    def test_segment_size_override(self):
        platform = self.make_platform()
        default = platform.predict("chain", 16, 256 * KiB)
        coarse = platform.predict("chain", 16, 256 * KiB, segment_size=64 * KiB)
        assert default != coarse

    def test_model_instances_cached(self):
        platform = self.make_platform()
        assert platform.model_for("chain") is platform.model_for("chain")

    def test_json_round_trip(self, tmp_path):
        platform = self.make_platform()
        path = tmp_path / "platform.json"
        platform.save(path)
        loaded = PlatformModel.load(path)
        assert loaded.cluster == platform.cluster
        assert loaded.segment_size == platform.segment_size
        assert loaded.parameters == platform.parameters
        assert loaded.gamma.table == platform.gamma.table
        # And it predicts identically.
        assert loaded.predict("chain", 16, 64 * KiB) == pytest.approx(
            platform.predict("chain", 16, 64 * KiB)
        )

    def test_invalid_family_rejected(self):
        with pytest.raises(EstimationError):
            PlatformModel(
                cluster="toy",
                segment_size=8 * KiB,
                gamma=GammaFunction.ideal(),
                parameters={},
                model_family="bogus",
            )


class TestCalibrationQuality:
    def test_quality_attached_to_every_fit(self, mini_calibration):
        for name, estimate in mini_calibration.alpha_beta.items():
            assert estimate.quality is not None, name
            q = estimate.quality
            assert q.fitted <= q.points
            assert q.screened == q.points - q.fitted
            assert 0.0 <= q.converged_fraction <= 1.0
            assert q.relative_residual >= 0.0

    def test_quality_report_is_json_ready(self, mini_calibration):
        report = mini_calibration.quality_report()
        assert set(report) == set(mini_calibration.alpha_beta)
        import json

        json.dumps(report)  # must not raise

    def test_clean_cluster_passes_default_gate(self, mini_calibration):
        assert mini_calibration.check_quality() == []

    def test_impossible_gate_fails_everything(self, mini_calibration):
        gate = QualityThresholds(
            max_relative_residual=0.0, min_converged_fraction=1.1
        )
        failed = mini_calibration.check_quality(gate)
        assert set(failed) == set(mini_calibration.alpha_beta)

    def test_strict_calibration_raises_on_impossible_gate(self):
        gate = QualityThresholds(
            max_relative_residual=0.0, min_converged_fraction=1.1
        )
        with pytest.raises(EstimationError, match="quality gate"):
            calibrate_platform(
                MINICLUSTER,
                procs=4,
                sizes=log_spaced_sizes(8 * KiB, 64 * KiB, 3),
                gamma_max_procs=4,
                max_reps=3,
                strict=gate,
            )

    def test_strict_calibration_passes_default_gate(self):
        result = calibrate_platform(
            MINICLUSTER,
            procs=4,
            sizes=log_spaced_sizes(8 * KiB, 64 * KiB, 3),
            gamma_max_procs=4,
            max_reps=3,
            strict=DEFAULT_QUALITY,
        )
        assert result.check_quality() == []

    def test_screening_does_not_change_clean_calibration(self):
        kwargs = dict(
            procs=4,
            sizes=log_spaced_sizes(8 * KiB, 64 * KiB, 3),
            gamma_max_procs=4,
            max_reps=3,
        )
        plain = calibrate_platform(MINICLUSTER, **kwargs)
        screened = calibrate_platform(MINICLUSTER, screen_mad=3.5, **kwargs)
        for name in plain.alpha_beta:
            assert screened.alpha_beta[name].alpha == pytest.approx(
                plain.alpha_beta[name].alpha
            )
            assert screened.alpha_beta[name].beta == pytest.approx(
                plain.alpha_beta[name].beta
            )

    def test_retry_budget_counts_no_retries_on_converged_data(self):
        result = calibrate_platform(
            MINICLUSTER,
            procs=4,
            sizes=log_spaced_sizes(8 * KiB, 64 * KiB, 3),
            gamma_max_procs=4,
            max_reps=3,
            retry_budget=2,
        )
        for estimate in result.alpha_beta.values():
            assert estimate.quality is not None
            assert estimate.quality.retried >= 0
