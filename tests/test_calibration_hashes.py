"""Pinned artifact content hashes for three calibration workloads.

An artifact's content hash covers every fitted α/β, every γ table and
every decision-table cell, so it changes if any calibration requests a
different simulation, in a different order, with a different seed, or
reduces the results with different floating-point arithmetic.  These
three builds pin that behaviour:

* the quiet eight-collective suite (the ``full_suite_build`` workload of
  ``BENCH_simulator.json``);
* a noisy eight-collective suite with MAD screening and a retry budget,
  so noisy top-ups and retry seeds are exercised;
* a bcast+reduce build on a two-rack leaf-spine fabric, covering the
  hierarchical candidates and ``model_params``.

Each build takes well under a second on one core.
"""

from __future__ import annotations

import pytest

from repro.clusters import MINICLUSTER
from repro.clusters.presets import DEFAULT_NOISE_SIGMA
from repro.exec.runner import ParallelRunner
from repro.fabric import FABRIC_BUILDERS
from repro.service.artifact import build_artifact
from repro.units import KiB

ALL_OPERATIONS = (
    "bcast", "reduce", "gather", "barrier",
    "allreduce", "allgather", "alltoall", "scatter",
)
SIZES = (8 * KiB, 64 * KiB, 512 * KiB)


def _quiet_suite():
    return MINICLUSTER, dict(
        collectives=ALL_OPERATIONS, procs=8, gamma_max_procs=5, max_reps=3,
    )


def _noisy_suite():
    return MINICLUSTER.with_noise(DEFAULT_NOISE_SIGMA), dict(
        collectives=ALL_OPERATIONS,
        procs=4,
        gamma_max_procs=3,
        max_reps=3,
        sizes=SIZES,
        proc_points=(2, 4, 8),
        size_points=(8192, 65536, 1048576),
        screen_mad=1.0,
        retry_budget=2,
    )


def _fabric_pair():
    spec = MINICLUSTER.with_fabric(
        FABRIC_BUILDERS["leaf_spine_2to1"](MINICLUSTER)
    )
    return spec, dict(
        collectives=("bcast", "reduce"),
        procs=8,
        gamma_max_procs=3,
        max_reps=3,
        sizes=SIZES,
        proc_points=(2, 8, 16),
        size_points=(8192, 65536),
    )


@pytest.mark.parametrize(
    "workload,expected",
    [
        (
            _quiet_suite,
            "1737917f55de9f4472393a1fa33a2635930e90f3b68e1e08da210889625ddf0c",
        ),
        (
            _noisy_suite,
            "041cdb8c2e746e88f661fd4e9dff821bfdd80c968d64ffd42a2b3bbb635bcddb",
        ),
        (
            _fabric_pair,
            "57da58b15499e2844f279e6f9a75d45b64d3e09aea6587bc571f00e540e030d1",
        ),
    ],
    ids=["quiet-suite", "noisy-suite", "leaf-spine-fabric"],
)
def test_content_hash_pinned(workload, expected):
    spec, kwargs = workload()
    runner = ParallelRunner(jobs=1)
    try:
        artifact = build_artifact(spec, runner=runner, seed=0, **kwargs)
    finally:
        runner.close()
    assert artifact.content_hash() == expected
