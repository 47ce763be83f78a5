"""Tests for the barrier extension: models, calibration, selection.

Barrier is the degenerate (payload-free) case of the framework: only α is
identifiable, so each model is a message count times α.  The single-α form
cannot separate wire latency from per-message injection (the linear
barrier's 2(P-1) zero-byte messages serialise at the *injection* cost, not
at full α), so predictions are coarser than the broadcast models' — the
tests below assert the properties that do hold: correct counts, sane fits,
and selection that always avoids the catastrophic algorithm.
"""

import pytest

from repro.clusters import MINICLUSTER
from repro.estimation.alphabeta import estimate_alpha_beta
from repro.estimation.workflow import calibrate_platform
from repro.measure import time_barrier
from repro.models.barrier_models import DERIVED_BARRIER_MODELS
from repro.models.gamma import GammaFunction
from repro.selection.model_based import ModelBasedSelector

GAMMA = GammaFunction.ideal()


class TestBarrierModels:
    def test_registry_covers_barrier_catalogue(self):
        from repro.collectives.barrier import BARRIER_ALGORITHMS

        assert set(DERIVED_BARRIER_MODELS) == set(BARRIER_ALGORITHMS)

    @pytest.mark.parametrize(
        "name,procs,expected",
        [
            ("linear", 9, 16),
            ("double_ring", 9, 18),
            ("bruck", 8, 3),
            ("bruck", 9, 4),
            ("recursive_doubling", 8, 3),
            ("recursive_doubling", 9, 6),  # 4 rounds + fold + release
        ],
    )
    def test_message_counts(self, name, procs, expected):
        model = DERIVED_BARRIER_MODELS[name](GAMMA)
        assert model.coefficients(procs).c_alpha == expected

    @pytest.mark.parametrize("name", sorted(DERIVED_BARRIER_MODELS))
    def test_beta_never_used(self, name):
        model = DERIVED_BARRIER_MODELS[name](GAMMA)
        assert model.coefficients(32).c_beta == 0.0

    @pytest.mark.parametrize("name", sorted(DERIVED_BARRIER_MODELS))
    def test_single_process_free(self, name):
        model = DERIVED_BARRIER_MODELS[name](GAMMA)
        assert model.coefficients(1).c_alpha == 0.0


class TestBarrierCalibration:
    @pytest.fixture(scope="class")
    def platform(self):
        return calibrate_platform(
            MINICLUSTER, operation="barrier", max_reps=3
        ).platform

    def test_all_algorithms_calibrated(self, platform):
        assert set(platform.algorithms) == set(DERIVED_BARRIER_MODELS)
        assert platform.operation == "barrier"

    def test_alphas_positive_betas_zero(self, platform):
        for name in platform.algorithms:
            params = platform.parameters[name]
            assert params.alpha > 0, name
            assert params.beta == 0.0, name

    def test_single_algorithm_fit_tracks_measurement(self):
        """With matching structure (log-round algorithms), the α fit
        predicts unseen sizes well."""
        model = DERIVED_BARRIER_MODELS["bruck"](GAMMA)
        estimate = estimate_alpha_beta(
            MINICLUSTER, model, operation="barrier",
            proc_counts=(4, 8), max_reps=3,
        )
        predicted = model.coefficients(16).c_alpha * estimate.alpha
        measured = time_barrier(MINICLUSTER, "bruck", 16)
        assert predicted == pytest.approx(measured, rel=0.35)

    def test_selection_avoids_the_catastrophic_algorithm(self, platform):
        """Whatever the α compromises, the double ring (2P sequential
        hops) must never be selected at scale."""
        selector = ModelBasedSelector(platform)
        for procs in (4, 8, 12, 16):
            pick = selector.select(procs, 0)
            assert pick.operation == "barrier"
            assert pick.algorithm != "double_ring"

    def test_selected_barrier_within_2x_of_best(self, platform):
        selector = ModelBasedSelector(platform)
        for procs in (4, 8, 16):
            times = {
                name: time_barrier(MINICLUSTER, name, procs)
                for name in platform.algorithms
            }
            pick = selector.select(procs, 0)
            assert times[pick.algorithm] <= 2.0 * min(times.values()), procs

    def test_invalid_proc_counts_rejected(self):
        from repro.errors import EstimationError

        with pytest.raises(EstimationError):
            estimate_alpha_beta(
                MINICLUSTER, DERIVED_BARRIER_MODELS["bruck"](GAMMA),
                operation="barrier", proc_counts=(1,), max_reps=3,
            )

    def test_duplicate_proc_counts_keep_one_sample_per_point(self):
        """Regression: samples used to be keyed by P, so a repeated count
        collapsed two measurements into one and misaligned the residuals."""
        estimate = estimate_alpha_beta(
            MINICLUSTER, DERIVED_BARRIER_MODELS["bruck"](GAMMA),
            operation="barrier", proc_counts=(4, 4, 8), max_reps=3,
        )
        assert estimate.quality.points == estimate.quality.fitted == 3
        assert len(estimate.stats) == len(estimate.points) == 3
        assert estimate.sizes == (4, 4, 8)
        # Each residual pairs a point's message count with its own sample.
        for (count, time), residual, sample in zip(
            estimate.points, estimate.fit.residuals, estimate.stats
        ):
            assert time == sample.mean
            assert residual == pytest.approx(time - count * estimate.alpha)
