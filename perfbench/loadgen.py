"""Closed-loop load generator for ``repro serve``: one process, one
keep-alive connection.

The query stream covers every operation of the artifact, half on-grid
and half off-grid (m = 0, P below the grid, m above the grid, points
between grid lines).  Correctness is established once per run, on a
verification pass that parses every response and compares its selection
with ``DecisionTable.lookup``; the timed phases then byte-compare every
response against the verified one, masking only the per-request trace
id.  A response that differs, or a connection that stalls, counts as
failed.

Phases:

* :func:`pipelined_phase` keeps ``depth`` requests in flight (a closed
  loop: the next request leaves only when a response completes);
* :func:`depth1_phase` sends one request at a time and records each
  client-side round trip.

A run interleaves short slices of the phases and :func:`merge` adds them
up, so each phase samples the whole serving period rather than one
stretch of it.
"""

from __future__ import annotations

import json
import os
import random
import socket
import time
from dataclasses import dataclass, field

import numpy as np

#: Queries per batch request.
BATCH_SIZE = 16

#: A stalled connection fails the phase after this many seconds.
SOCKET_TIMEOUT = 10.0

#: A generator busier than this share of one core is saturated: the
#: phase measured the generator rather than the server.
SATURATED = 0.9

_TRACE_HEADER = b"X-Trace-Id: "
_TRACE_FIELD = b'"trace_id":"'


def make_queries(artifact, count: int, rng: random.Random) -> list[dict]:
    """``count`` queries over every operation of ``artifact``."""
    operations = artifact.operations
    queries = []
    for index in range(count):
        operation = operations[index % len(operations)]
        table = artifact.entries[operation].table
        procs_grid, sizes_grid = table.proc_points, table.size_points
        if index % 2 == 0:
            procs = rng.choice(procs_grid)
            nbytes = rng.choice(sizes_grid)
        else:
            case = (index // 2) % 4
            procs = rng.randint(procs_grid[0], procs_grid[-1] + 4)
            nbytes = rng.randint(1, 2 * sizes_grid[-1] + 1)
            if case == 0:
                nbytes = 0
            elif case == 1:
                procs = rng.randint(1, max(1, procs_grid[0] - 1))
            elif case == 2:
                nbytes = rng.randint(sizes_grid[-1] + 1, 4 * sizes_grid[-1] + 4)
        query = {
            "cluster": artifact.cluster,
            "operation": operation,
            "procs": procs,
            "nbytes": nbytes,
        }
        if artifact.fabric:
            query["fabric"] = artifact.fabric
        queries.append(query)
    return queries


def http_request(payload) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return (
        b"POST /select HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


def expected_results(artifact, payload) -> list[tuple]:
    """What ``DecisionTable.lookup`` says each query of ``payload`` gets."""
    queries = payload["queries"] if "queries" in payload else [payload]
    out = []
    for query in queries:
        table = artifact.entries[query["operation"]].table
        selection, clamped = table.lookup(query["procs"], query["nbytes"])
        out.append((selection.algorithm, selection.segment_size, clamped))
    return out


def served_results(body: bytes) -> list[tuple]:
    document = json.loads(body)
    results = document["results"] if "results" in document else [document]
    return [
        (r["algorithm"], r["segment_size"], r.get("clamped", False))
        for r in results
    ]


@dataclass
class Stream:
    """One request list, cycled by a phase, with verified responses."""

    payloads: list
    requests: list[bytes]
    queries_per_request: int
    #: Filled by :func:`verify_pass`.
    responses: list[bytes] = field(default_factory=list)
    #: Per response: (start, end) byte ranges of the two trace ids.
    masks: list[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.blob = b"".join(self.requests)
        self.offsets = [0]
        for request in self.requests:
            self.offsets.append(self.offsets[-1] + len(request))

    def template(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The pass's expected bytes, the compare mask, and cumulative
        response sizes."""
        expected = np.frombuffer(b"".join(self.responses), dtype=np.uint8)
        keep = np.ones(len(expected), dtype=bool)
        cumulative = [0]
        for response, spans in zip(self.responses, self.masks):
            base = cumulative[-1]
            for start, end in spans:
                keep[base + start:base + end] = False
            cumulative.append(base + len(response))
        return expected, keep, cumulative


def _trace_spans(response: bytes) -> tuple:
    head = response.index(_TRACE_HEADER) + len(_TRACE_HEADER)
    head_end = response.index(b"\r\n", head)
    body = response.rindex(_TRACE_FIELD) + len(_TRACE_FIELD)
    body_end = response.index(b'"', body)
    return ((head, head_end), (body, body_end))


class _Reader:
    """Incremental HTTP/1.1 response reader over one socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = b""

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def read(self) -> tuple[int, bytes, bytes]:
        """``(status, raw response, body)`` of the next response."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head_len = self.buffer.index(b"\r\n\r\n") + 4
        head = self.buffer[:head_len]
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(self.buffer) < head_len + length:
            self._fill()
        raw = self.buffer[:head_len + length]
        self.buffer = self.buffer[head_len + length:]
        return status, raw, raw[head_len:]


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def verify_pass(sock: socket.socket, stream: Stream, artifact, burst: int = 64) -> int:
    """Send every request of ``stream`` once, parse every response and
    check it against ``DecisionTable.lookup``; returns the failure count
    and keeps the responses as the templates of the timed phases."""
    reader = _Reader(sock)
    failures = 0
    stream.responses, stream.masks = [], []
    for start in range(0, len(stream.requests), burst):
        chunk = range(start, min(start + burst, len(stream.requests)))
        sock.sendall(b"".join(stream.requests[i] for i in chunk))
        for index in chunk:
            status, raw, body = reader.read()
            ok = status == 200
            if ok:
                try:
                    ok = served_results(body) == expected_results(
                        artifact, stream.payloads[index])
                except (ValueError, KeyError):
                    ok = False
            failures += not ok
            stream.responses.append(raw)
            # A failed response has no known trace-id positions: later
            # copies of it are compared whole.
            stream.masks.append(_trace_spans(raw) if ok else ((0, 0), (0, 0)))
    return failures


def count_bad(buffer, expected: np.ndarray, keep: np.ndarray,
              cumulative: list[int], upto: int) -> int:
    """Responses in ``buffer[:upto]`` that differ from the template
    outside the trace ids."""
    received = np.frombuffer(buffer, dtype=np.uint8, count=upto)
    differs = (received != expected[:upto]) & keep[:upto]
    if not differs.any():
        return 0
    return sum(
        1 for i in range(len(cumulative) - 1)
        if cumulative[i] < upto and differs[cumulative[i]:min(cumulative[i + 1], upto)].any()
    )


def _cpu_seconds(pid: int) -> float:
    """CPU time of every thread of ``pid``, to the nanosecond (the
    scheduler's ``schedstat``; ``/proc/<pid>/stat`` counts 10 ms ticks)."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:  # the thread ended
            pass
    return total / 1e9


@dataclass
class PhaseResult:
    requests: int
    queries: int
    seconds: float
    failed: int
    server_cpu_s: float
    loadgen_cpu_s: float
    rtts: list[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        """Queries answered per wall-clock second."""
        return self.queries / self.seconds

    @property
    def capacity(self) -> float:
        """Queries answered per second of server CPU time: the rate one
        fully busy server core sustains, whatever share of the phase the
        host let the server run."""
        return self.queries / self.server_cpu_s

    @property
    def server_busy(self) -> float:
        return self.server_cpu_s / self.seconds

    @property
    def loadgen_busy(self) -> float:
        return self.loadgen_cpu_s / self.seconds

    @property
    def saturated(self) -> bool:
        """Whether the generator, not the server, was the busy side."""
        return self.loadgen_busy >= SATURATED or self.loadgen_busy >= self.server_busy


def merge(slices: list[PhaseResult]) -> PhaseResult:
    """One phase's slices as a single result (totals, all round trips)."""
    return PhaseResult(
        requests=sum(s.requests for s in slices),
        queries=sum(s.queries for s in slices),
        seconds=sum(s.seconds for s in slices),
        failed=sum(s.failed for s in slices),
        server_cpu_s=sum(s.server_cpu_s for s in slices),
        loadgen_cpu_s=sum(s.loadgen_cpu_s for s in slices),
        rtts=[rtt for s in slices for rtt in s.rtts],
    )


def pipelined_phase(sock: socket.socket, stream: Stream, depth: int,
                    seconds: float, server_pid: int) -> PhaseResult:
    """Cycle ``stream`` for ``seconds`` with ``depth`` requests in flight."""
    expected, keep, cumulative = stream.template()
    n = len(stream.requests)
    total = cumulative[-1]
    buffer = bytearray(total)
    view = memoryview(buffer)
    requests = memoryview(stream.blob)
    offsets = stream.offsets
    sent = done = position = in_pass = failed = 0
    stopping = False
    cpu0, server0 = time.process_time(), _cpu_seconds(server_pid)
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while True:
            if not stopping and sent - done < depth:
                upto = done + depth
                while sent < upto:
                    first = sent % n
                    last = min(n, first + upto - sent)
                    sock.sendall(requests[offsets[first]:offsets[last]])
                    sent += last - first
            elif stopping and done == sent:
                break
            got = sock.recv_into(view[position:], total - position)
            if not got:
                raise ConnectionError("server closed the connection")
            position += got
            while in_pass < n and cumulative[in_pass + 1] <= position:
                in_pass += 1
                done += 1
            if position == total:
                failed += count_bad(buffer, expected, keep, cumulative, total)
                position = in_pass = 0
            if time.perf_counter() >= deadline:
                stopping = True
    except OSError:
        failed += sent - done
    end = time.perf_counter()
    if position:
        failed += count_bad(buffer, expected, keep, cumulative, position)
    return PhaseResult(
        requests=sent, queries=done * stream.queries_per_request,
        seconds=end - start, failed=failed,
        server_cpu_s=_cpu_seconds(server_pid) - server0,
        loadgen_cpu_s=time.process_time() - cpu0,
    )


def depth1_phase(sock: socket.socket, stream: Stream, seconds: float,
                 server_pid: int) -> PhaseResult:
    """One request in flight; every client-side round trip recorded."""
    n = len(stream.requests)
    sizes = [len(r) for r in stream.responses]
    buffer = bytearray(max(sizes))
    view = memoryview(buffer)
    rtts: list[float] = []
    failed = sent = 0
    clock = time.perf_counter
    cpu0, server0 = time.process_time(), _cpu_seconds(server_pid)
    start = clock()
    deadline = start + seconds
    try:
        while True:
            index = sent % n
            size = sizes[index]
            t0 = clock()
            sock.sendall(stream.requests[index])
            sent += 1
            got = 0
            while got < size:
                count = sock.recv_into(view[got:size], size - got)
                if not count:
                    raise ConnectionError("server closed the connection")
                got += count
            t1 = clock()
            rtts.append(t1 - t0)
            response = stream.responses[index]
            (h0, h1), (b0, b1) = stream.masks[index]
            if not (buffer[:h0] == response[:h0]
                    and buffer[h1:b0] == response[h1:b0]
                    and buffer[b1:size] == response[b1:]):
                failed += 1
            if t1 >= deadline:
                break
    except OSError:
        failed += 1
    end = clock()
    return PhaseResult(
        requests=sent, queries=sent, seconds=end - start, failed=failed,
        server_cpu_s=_cpu_seconds(server_pid) - server0,
        loadgen_cpu_s=time.process_time() - cpu0, rtts=rtts,
    )
