"""Four-layer agreement for the non-broadcast collectives.

Mirror of :mod:`tests.test_degenerate_inputs` for reduce, gather,
barrier and the whole-suite collectives (allreduce, allgather, alltoall,
scatter): the same ``(operation, P, m)`` query must get the same answer
from the :class:`DecisionTable`, the compiled Python decision function,
the generated C source (compiled with gcc and executed through
:mod:`ctypes`, broadcast included), and ``POST /select`` on a live
server — including at the degenerate corners.  Also locks the
conventions the extensions introduced: the data-moving models are no-ops
at ``m = 0`` while the barrier is not, and the barrier's decision table
is size-independent (a single ``m = 0`` column).
"""

from __future__ import annotations

import ctypes
import json
from http.client import HTTPConnection

import pytest

from repro.clusters import MINICLUSTER
from repro.selection.codegen import algorithm_ids_for
from repro.service import (
    ArtifactRegistry,
    SelectionService,
    ServiceThread,
    build_artifact,
)
from repro.units import KiB, MiB, log_spaced_sizes

GRID_PROCS = tuple(range(2, 17, 2))
GRID_SIZES = tuple(log_spaced_sizes(8 * KiB, 1 * MiB, 6))

OPERATIONS = (
    "reduce", "gather", "barrier",
    "allreduce", "allgather", "alltoall", "scatter",
)

#: The degenerate sweep: below / on / far above the decision grid.
POINTS = (
    (1, 0),
    (1, 64 * KiB),
    (2, 1),
    (2, 8 * KiB),
    (8, 0),
    (16, 1 * MiB),
    (500, 1 << 30),
)

#: The generated C also covers broadcast (the artifact's eighth table)
#: and the top of its ``size_t`` message-size domain.
C_OPERATIONS = ("bcast",) + OPERATIONS
SIZE_T_MAX = ctypes.c_size_t(-1).value
C_POINTS = POINTS + ((1, SIZE_T_MAX), (8, SIZE_T_MAX), (500, SIZE_T_MAX))


@pytest.fixture(scope="module")
def artifact():
    return build_artifact(
        MINICLUSTER,
        collectives=C_OPERATIONS,
        proc_points=GRID_PROCS,
        size_points=GRID_SIZES,
        procs=6,
        gamma_max_procs=4,
        sizes=(8 * KiB, 64 * KiB, 512 * KiB),
        max_reps=3,
        seed=0,
    )


@pytest.fixture(scope="module")
def decision_fns(artifact):
    return {
        operation: artifact.entries[operation].compile()
        for operation in OPERATIONS
    }


@pytest.fixture(scope="module")
def c_decision_fns(artifact, compile_decision_c):
    return {
        operation: compile_decision_c(artifact.entries[operation].table)
        for operation in C_OPERATIONS
    }


@pytest.fixture(scope="module")
def server(artifact, tmp_path_factory):
    directory = tmp_path_factory.mktemp("multi-collective-artifacts")
    artifact.save(directory / "minicluster.json")
    service = SelectionService(ArtifactRegistry(directory))
    with ServiceThread(service) as handle:
        yield handle


def post_select(port, operation, procs, nbytes):
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(
            "POST",
            "/select",
            json.dumps(
                {
                    "cluster": "minicluster",
                    "operation": operation,
                    "procs": procs,
                    "nbytes": nbytes,
                }
            ),
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestFourLayerAgreement:
    @pytest.mark.parametrize("operation", OPERATIONS)
    @pytest.mark.parametrize("procs,nbytes", POINTS)
    def test_table_codegen_artifact_agree(
        self, artifact, decision_fns, operation, procs, nbytes
    ):
        table = artifact.entries[operation].table
        selection = table.select(procs, nbytes)
        expected = (selection.algorithm, selection.segment_size)
        assert decision_fns[operation](procs, nbytes) == expected
        offline = artifact.select(operation, procs, nbytes)
        assert (offline.algorithm, offline.segment_size) == expected

    @pytest.mark.parametrize("operation", C_OPERATIONS)
    @pytest.mark.parametrize("procs,nbytes", C_POINTS)
    def test_generated_c_agrees_with_table(
        self, artifact, c_decision_fns, operation, procs, nbytes
    ):
        table = artifact.entries[operation].table
        selection = table.select(procs, nbytes)
        ids = algorithm_ids_for(operation)
        assert c_decision_fns[operation](procs, nbytes) == (
            ids[selection.algorithm],
            selection.segment_size,
        )

    @pytest.mark.parametrize("operation", OPERATIONS)
    @pytest.mark.parametrize("procs,nbytes", POINTS)
    def test_server_agrees_with_table(
        self, server, artifact, operation, procs, nbytes
    ):
        selection = artifact.entries[operation].table.select(procs, nbytes)
        status, data = post_select(server.port, operation, procs, nbytes)
        assert status == 200
        assert data["operation"] == operation
        assert data["algorithm"] == selection.algorithm
        assert data["segment_size"] == selection.segment_size

    def test_artifact_verify_passes(self, artifact):
        artifact.verify()  # codegen/table bit-identity across all entries

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_tables_are_tagged_with_their_operation(self, artifact, operation):
        table = artifact.entries[operation].table
        assert {
            choice.operation for row in table.choices for choice in row
        } == {operation}


class TestZeroByteConvention:
    def test_data_moving_models_are_noops_at_zero_bytes(self, artifact):
        for operation in (
            "reduce", "gather",
            "allreduce", "allgather", "alltoall", "scatter",
        ):
            platform = artifact.entries[operation].platform
            predictions = platform.predict_all(8, 0)
            assert predictions and all(
                time == 0.0 for time in predictions.values()
            )

    def test_barrier_predicts_positive_time_at_zero_bytes(self, artifact):
        platform = artifact.entries["barrier"].platform
        predictions = platform.predict_all(8, 0)
        assert predictions and all(time > 0.0 for time in predictions.values())


class TestBarrierSizeIndependence:
    def test_barrier_table_has_a_single_size_column(self, artifact):
        table = artifact.entries["barrier"].table
        assert table.size_points == (0,)
        assert table.proc_points == GRID_PROCS

    def test_barrier_selection_ignores_message_size(self, artifact):
        for procs in (2, 8, 16, 500):
            picks = {
                artifact.select("barrier", procs, nbytes)
                for nbytes in (0, 1, 64 * KiB, 1 << 30)
            }
            assert len(picks) == 1

    def test_barrier_segment_sizes_are_zero(self, artifact):
        table = artifact.entries["barrier"].table
        assert all(
            choice.segment_size == 0
            for row in table.choices
            for choice in row
        )
