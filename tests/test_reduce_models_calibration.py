"""Tests for the future-work extension: reduce models, calibration, selection."""

import pytest

from repro.clusters import MINICLUSTER
from repro.estimation.workflow import calibrate_platform
from repro.measure import time_reduce
from repro.models.gamma import GammaFunction
from repro.models.reduce_models import DERIVED_REDUCE_MODELS
from repro.selection.model_based import ModelBasedSelector
from repro.units import KiB, MiB

GAMMA = GammaFunction({3: 1.1, 5: 1.3, 7: 1.5})


@pytest.fixture(scope="module")
def reduce_calibration():
    result = calibrate_platform(
        MINICLUSTER,
        operation="reduce",
        procs=8,
        sizes=[8 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB],
        gamma_max_procs=5,
        max_reps=3,
    )
    return result.platform, result.alpha_beta


class TestReduceModels:
    def test_registry_covers_reduce_catalogue(self):
        from repro.collectives.reduce import REDUCE_ALGORITHMS

        assert set(DERIVED_REDUCE_MODELS) == set(REDUCE_ALGORITHMS)

    @pytest.mark.parametrize("name", sorted(DERIVED_REDUCE_MODELS))
    def test_predictions_positive(self, name):
        from repro.models.hockney import HockneyParams

        model = DERIVED_REDUCE_MODELS[name](GAMMA)
        predicted = model.predict(16, 1 * MiB, 8 * KiB, HockneyParams(1e-5, 1e-9))
        assert predicted > 0

    def test_in_order_matches_binomial_structure(self):
        binomial = DERIVED_REDUCE_MODELS["binomial"](GAMMA)
        in_order = DERIVED_REDUCE_MODELS["in_order_binomial"](GAMMA)
        assert binomial.coefficients(20, 256 * KiB, 8 * KiB) == in_order.coefficients(
            20, 256 * KiB, 8 * KiB
        )


class TestReduceCalibration:
    def test_calibrates_all_default_algorithms(self, reduce_calibration):
        # The default sweep covers every flat algorithm; the hierarchical
        # rack-leader variant only joins topology-conditioned builds.
        from repro.collectives.reduce import DEFAULT_REDUCE_ALGORITHMS

        platform, estimates = reduce_calibration
        assert set(platform.algorithms) == set(DEFAULT_REDUCE_ALGORITHMS)
        assert set(estimates) == set(DEFAULT_REDUCE_ALGORITHMS)

    def test_platform_is_reduce_operation(self, reduce_calibration):
        platform, _ = reduce_calibration
        assert platform.operation == "reduce"
        assert platform.model_family == "reduce_derived"

    def test_stage_costs_positive(self, reduce_calibration):
        _, estimates = reduce_calibration
        for name, estimate in estimates.items():
            assert estimate.params.p2p_time(8 * KiB) > 0, name

    def test_prediction_tracks_measured_reduce(self, reduce_calibration):
        platform, _ = reduce_calibration
        for name in ("binomial", "linear"):
            predicted = platform.predict(name, 8, 128 * KiB)
            measured = time_reduce(MINICLUSTER, name, 8, 128 * KiB, 8 * KiB)
            assert 0.3 < predicted / measured < 2.5, name

    def test_json_round_trip_preserves_operation(self, reduce_calibration, tmp_path):
        from repro.estimation.workflow import PlatformModel

        platform, _ = reduce_calibration
        path = tmp_path / "reduce.json"
        platform.save(path)
        loaded = PlatformModel.load(path)
        assert loaded.operation == "reduce"


class TestReduceSelection:
    def test_selector_emits_reduce_selections(self, reduce_calibration):
        platform, _ = reduce_calibration
        selector = ModelBasedSelector(platform)
        choice = selector.select(12, 512 * KiB)
        assert choice.operation == "reduce"
        assert choice.algorithm in DERIVED_REDUCE_MODELS

    def test_selection_close_to_measured_best(self, reduce_calibration):
        """The paper's method, applied beyond the paper: reduce selection
        is near-optimal against exhaustive measurement."""
        platform, _ = reduce_calibration
        selector = ModelBasedSelector(platform)
        procs = 14
        for nbytes in (16 * KiB, 256 * KiB, 1 * MiB):
            measured = {
                name: time_reduce(MINICLUSTER, name, procs, nbytes, 8 * KiB)
                for name in DERIVED_REDUCE_MODELS
            }
            best_time = min(measured.values())
            chosen = selector.select(procs, nbytes)
            degradation = (measured[chosen.algorithm] - best_time) / best_time
            assert degradation < 0.45, (nbytes, chosen.algorithm, measured)

    def test_never_selects_linear_reduce_at_scale(self, reduce_calibration):
        platform, _ = reduce_calibration
        selector = ModelBasedSelector(platform)
        assert selector.select(16, 2 * MiB).algorithm != "linear"
