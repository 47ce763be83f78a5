"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import loadgen  # noqa: E402
from layers import build_metrics, self_times  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402


# -- percentile rule ----------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


# -- self time from nested spans ----------------------------------------------


def _span(span_id, name, start, end, parent=None, **attributes):
    return {"span_id": span_id, "name": name, "start": start,
            "duration": end - start, "parent_id": parent,
            "attributes": attributes}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("1", "estimation.pipeline", 0, 10, operation="bcast"),
        _span("2", "exec.prefetch", 1, 4, "1"),
        _span("3", "exec.run", 5, 9, "1", sims=3),
        _span("4", "sim.event_loop", 6, 7, "3", kind="bcast", algorithm="linear"),
    ]
    assert self_times(spans) == pytest.approx(
        {"estimation": 3.0, "exec": 3.0 + 3.0, "sim": 1.0}
    )


def test_build_metrics_separates_prefetch_topups_and_fallbacks():
    cold = [
        _span("1", "estimation.pipeline", 0, 10, operation="gather"),
        _span("2", "exec.prefetch", 0, 4, "1"),
        _span("3", "exec.run", 0, 4, "2", sims=5),
        _span("4", "sim.batch", 0, 4, "3", unique_cells=5, columnar=3, event_loop=2),
        _span("5", "sim.event_loop", 1, 2, "4", kind="gather", algorithm="binomial"),
        _span("6", "sim.event_loop", 2, 3, "4", kind="gather", algorithm="binomial"),
        _span("7", "exec.run", 5, 7, "1", sims=1),
        _span("8", "sim.event_loop", 5, 6.5, "7", kind="gather", algorithm="linear"),
    ]
    stats = {"simulations": 6, "memo_hits": 0, "cache_hits": 0, "deduped_cells": 0}
    metrics, details = build_metrics(
        cold, {"sim.events": 300}, [], {}, {"cold": stats, "warm": stats}
    )
    assert metrics["sim.columnar_cells"] == 3
    assert metrics["sim.columnar_share"] == pytest.approx(0.6)
    assert metrics["sim.fallback.gather"] == 2
    assert details["fallback_by_algorithm"] == {"gather/binomial": 2}
    assert metrics["exec.topup_s"] == pytest.approx(2.0)
    assert metrics["exec.topup_sims"] == 1
    assert metrics["sim.event_loop_s"] == pytest.approx(3.5)
    assert metrics["sim.us_per_event"] == pytest.approx(3.5e6 / 300)
    assert metrics["estimation.self_s"] == pytest.approx(10 - 4 - 2)
    assert metrics["estimation.pipeline_s.gather"] == pytest.approx(10.0)


# -- failure counting on an injected wrong response ---------------------------


class _Table:
    proc_points, size_points = (2, 4), (0, 1024)

    def lookup(self, procs, nbytes):
        algorithm = "linear" if procs < 4 else "binomial"
        return SimpleNamespace(algorithm=algorithm, segment_size=0), procs < 2


_ARTIFACT = SimpleNamespace(
    cluster="fake", fabric="", operations=["bcast"],
    entries={"bcast": SimpleNamespace(table=_Table())},
)


def _response(query, trace_id: str, algorithm: str | None = None) -> bytes:
    selection, clamped = _Table().lookup(query["procs"], query["nbytes"])
    result = {"cluster": "fake", "operation": "bcast", "procs": query["procs"],
              "nbytes": query["nbytes"],
              "algorithm": algorithm or selection.algorithm, "segment_size": 0}
    if clamped:
        result["clamped"] = True
    body = (json.dumps(result, separators=(",", ":"))[:-1]
            + ',"trace_id":"%s"}' % trace_id).encode()
    return (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nX-Trace-Id: %s\r\n\r\n"
            % (len(body), trace_id.encode())) + body


def _fake_server(sock, stream, wrong: set[int]):
    """Answer every request of ``stream`` with a fresh trace id; the
    responses with sequence number in ``wrong`` carry a wrong algorithm
    of the same length."""

    def serve():
        buffer = b""
        count = 0
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    return
                buffer += data
                while True:
                    index = next((i for i, request in enumerate(stream.requests)
                                  if buffer.startswith(request)), None)
                    if index is None:
                        break
                    buffer = buffer[len(stream.requests[index]):]
                    query = stream.payloads[index]
                    bad = "LINEAR" if query["procs"] < 4 else "BINOMIAL"
                    sock.sendall(_response(
                        query, "%022x" % count, bad if count in wrong else None))
                    count += 1
        except OSError:
            return

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def _stream():
    queries = [{"cluster": "fake", "operation": "bcast", "procs": p, "nbytes": m}
               for p in (1, 2, 3, 4, 5) for m in (0, 100, 5000)]
    return loadgen.Stream(queries, [loadgen.http_request(q) for q in queries], 1)


def test_verify_pass_counts_a_wrong_selection():
    client, server = socket.socketpair()
    stream = _stream()
    thread = _fake_server(server, stream, wrong={4})
    try:
        assert loadgen.verify_pass(client, stream, _ARTIFACT) == 1
        assert len(stream.responses) == len(stream.requests)
    finally:
        client.close()
        server.close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_timed_phases_count_an_injected_wrong_response():
    client, server = socket.socketpair()
    stream = _stream()
    n = len(stream.requests)
    thread = _fake_server(server, stream, wrong={n + 7})
    try:
        assert loadgen.verify_pass(client, stream, _ARTIFACT) == 0
        phase = loadgen.pipelined_phase(client, stream, 4, 0.3, os.getpid())
        assert phase.requests > n
        assert phase.failed == 1
        clean = loadgen.depth1_phase(client, stream, 0.1, os.getpid())
        assert clean.failed == 0 and clean.rtts
    finally:
        client.close()
        server.close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_count_bad_ignores_trace_ids_only():
    stream = _stream()
    stream.responses = [_response(q, "%022x" % i) for i, q in enumerate(stream.payloads)]
    stream.masks = [loadgen._trace_spans(r) for r in stream.responses]
    expected, keep, cumulative = stream.template()
    other = bytearray(b"".join(
        _response(q, "f" * 22) for q in stream.payloads))
    assert loadgen.count_bad(other, expected, keep, cumulative, len(other)) == 0
    other[cumulative[3] + 5] ^= 1
    assert loadgen.count_bad(other, expected, keep, cumulative, len(other)) == 1


# -- smoke configuration --------------------------------------------------------


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_declared_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    done = _run(trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
