"""The exact bytes ``POST /select`` serves.

Every 200 body is pinned against a document built independently from
:meth:`DecisionTable.lookup` and serialised with compact separators, in
the wire key order ``cluster, operation, procs, nbytes, algorithm,
segment_size, artifact[, fabric][, clamped], trace_id``.  Singles are
checked on their first call (an LRU miss) and their second (a hit);
batches, mixed across a flat and a fabric artifact, are checked whole.
The dict-level :meth:`SelectionService.handle_select` must return the
same answer minus the trace id.
"""

from __future__ import annotations

import json

import pytest

from repro.clusters import MINICLUSTER
from repro.fabric import build_fabric
from repro.service import ArtifactRegistry, SelectionService, build_artifact
from repro.units import KiB, MiB, log_spaced_sizes

GRID_PROCS = (2, 4, 8, 16)
GRID_SIZES = tuple(log_spaced_sizes(8 * KiB, 1 * MiB, 6))
TRACE_ID = "5f0c1d2e3a4b5c6d7e8f90"

#: On-grid, between grid points, above the grid, below it on either or
#: both axes, and the degenerate corners.
POINTS = (
    (2, 8 * KiB),
    (8, GRID_SIZES[3]),
    (16, 1 * MiB),
    (5, 100_000),
    (12, GRID_SIZES[2] + 1),
    (64, 1 << 30),
    (1, 64 * KiB),
    (8, 0),
    (8, 8 * KiB - 1),
    (1, 0),
    (1, 1 << 40),
)


@pytest.fixture(scope="module")
def artifacts(mini_platform):
    kwargs = dict(
        proc_points=GRID_PROCS,
        size_points=GRID_SIZES,
        platforms={"bcast": mini_platform},
    )
    flat = build_artifact(MINICLUSTER, **kwargs)
    fabric_spec = MINICLUSTER.with_fabric(
        build_fabric("leaf_spine_2to1", MINICLUSTER)
    )
    fabric = build_artifact(fabric_spec, **kwargs)
    assert fabric.fabric and not flat.fabric
    return flat, fabric


@pytest.fixture()
def service(artifacts):
    registry = ArtifactRegistry()
    for artifact in artifacts:
        registry.add(artifact)
    return SelectionService(registry)


def queries(artifacts):
    out = []
    for artifact in artifacts:
        for procs, nbytes in POINTS:
            query = {
                "cluster": artifact.cluster,
                "operation": "bcast",
                "procs": procs,
                "nbytes": nbytes,
            }
            if artifact.fabric:
                query["fabric"] = artifact.fabric
            out.append((artifact, query))
    return out


def expected(artifact, query) -> dict:
    table = artifact.entries[query["operation"]].table
    selection, clamped = table.lookup(query["procs"], query["nbytes"])
    result = {
        "cluster": query["cluster"],
        "operation": query["operation"],
        "procs": query["procs"],
        "nbytes": query["nbytes"],
        "algorithm": selection.algorithm,
        "segment_size": selection.segment_size,
        "artifact": artifact.artifact_id,
    }
    if artifact.fabric:
        result["fabric"] = artifact.fabric
    if clamped:
        result["clamped"] = True
    return result


def wire(document: dict) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode()


def test_points_include_clamped_queries(artifacts):
    flags = {"clamped" in expected(a, q) for a, q in queries(artifacts)}
    assert flags == {True, False}


def test_single_bytes_on_miss_and_hit(service, artifacts):
    metrics = service.metrics
    for artifact, query in queries(artifacts):
        body = wire(dict(expected(artifact, query), trace_id=TRACE_ID))
        misses = metrics.cache_misses.total()
        assert service.select_body(dict(query), TRACE_ID) == body
        assert metrics.cache_misses.total() == misses + 1
        hits = metrics.cache_hits.total()
        assert service.select_body(dict(query), TRACE_ID) == body
        assert metrics.cache_hits.total() == hits + 1


def test_batch_bytes(service, artifacts):
    pairs = queries(artifacts)
    body = wire({
        "results": [expected(artifact, query) for artifact, query in pairs],
        "trace_id": TRACE_ID,
    })
    payload = {"queries": [query for _, query in pairs]}
    assert service.select_body(payload, TRACE_ID) == body
    # Twice: the batch path holds no per-query state between requests.
    assert service.select_body(payload, TRACE_ID) == body


def test_empty_batch_bytes(service):
    assert service.select_body({"queries": []}, TRACE_ID) == wire(
        {"results": [], "trace_id": TRACE_ID}
    )


def test_handle_select_is_the_wire_answer(service, artifacts):
    pairs = queries(artifacts)
    for artifact, query in pairs:
        assert service.handle_select(dict(query)) == expected(artifact, query)
    assert service.handle_select(
        {"queries": [query for _, query in pairs]}
    ) == {"results": [expected(artifact, query) for artifact, query in pairs]}
