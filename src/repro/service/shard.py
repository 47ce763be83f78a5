"""Sharded front end: ``SO_REUSEPORT`` workers behind one port.

A single :class:`~repro.service.server.HttpServer` process tops out at
one core.  ``repro serve --workers N`` forks N worker processes that
each bind their *own* listening socket to the same ``(host, port)`` with
``SO_REUSEPORT`` — the kernel then load-balances accepted connections
across workers with no userspace proxy in the data path.  Each worker
holds its own read-only :class:`~repro.service.artifact.ArtifactRegistry`
and answers queries exactly like the single-process server.

The :class:`ShardSupervisor` owns the fleet:

* it reserves the shared port up front with a bound (non-listening)
  placeholder socket, so an ephemeral ``port=0`` resolves once and every
  worker binds the same number;
* a monitor thread restarts workers that die, with exponential backoff
  when a worker keeps dying immediately (a crash loop must not spin a
  core);
* each worker also serves an ephemeral *admin* port; the supervisor
  scrapes those and merges the per-worker Prometheus text with
  :func:`~repro.service.metrics.merge_metrics_texts` into one fleet view,
  plus two supervisor-level series (``repro_shard_workers``,
  ``repro_shard_worker_restarts_total``);
* the supervisor's own admin HTTP endpoint (stdlib, thread-based — it is
  off the hot path) exposes the aggregate ``/metrics``, ``/healthz`` and
  ``/workers``, and forwards ``POST /reload`` to the fleet as SIGHUP.

Workers are started with the ``spawn`` context so they never inherit the
supervisor's threads or event loops; the worker entry point rebuilds the
registry from the artifact directory.
"""

from __future__ import annotations

import asyncio
import errno
import json
import logging
import multiprocessing
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.errors import PortInUseError, ServiceError
from repro.service.artifact import ArtifactRegistry
from repro.service.metrics import merge_metrics_texts
from repro.service.server import HttpServer, SelectionService

_logger = logging.getLogger("repro.service.shard")

#: A worker that dies within this many seconds of starting counts as a
#: rapid death; consecutive rapid deaths back the restart loop off.
RAPID_DEATH_SECONDS = 1.0


def reuseport_socket(host: str, port: int) -> socket.socket:
    """A TCP socket bound to ``(host, port)`` with ``SO_REUSEPORT`` set.

    Every worker calls this with the same address; the kernel balances
    incoming connections across all sockets in the reuseport group.
    Raises :class:`~repro.errors.ServiceError` on platforms without
    ``SO_REUSEPORT`` and :class:`~repro.errors.PortInUseError` when the
    port is held by a socket outside the group.
    """
    if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover - linux CI
        raise ServiceError(
            "sharded serving needs SO_REUSEPORT, which this platform "
            "does not support; run with --workers 1"
        )
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except OSError as error:
        sock.close()
        if error.errno == errno.EADDRINUSE:
            raise PortInUseError(
                f"cannot bind {host}:{port}: address already in use"
            ) from error
        raise
    return sock


# -- worker process ----------------------------------------------------------


async def _worker_async(
    service: SelectionService,
    host: str,
    port: int,
    worker_index: int,
    conn,
) -> None:
    sock = reuseport_socket(host, port)
    server = HttpServer(service, host, port, sock=sock)
    # The admin server answers supervisor scrapes on an ephemeral port,
    # off the shared reuseport group — a scrape must hit *this* worker,
    # never be balanced to a sibling.
    admin = HttpServer(service, host, 0)
    await server.start()
    await admin.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        loop.add_signal_handler(signal.SIGHUP, service.reload)
    except (NotImplementedError, RuntimeError, AttributeError):  # pragma: no cover
        pass
    conn.send({
        "worker": worker_index,
        "pid": os.getpid(),
        "port": server.port,
        "admin_port": admin.port,
    })
    conn.close()
    await server.serve_until_shutdown()
    await admin.drain()


def _worker_main(
    directory: str,
    host: str,
    port: int,
    worker_index: int,
    conn,
) -> None:
    """Entry point of one worker process (spawn-safe, module-level)."""
    registry = ArtifactRegistry(directory)
    service = SelectionService(registry)
    asyncio.run(_worker_async(service, host, port, worker_index, conn))


# -- supervisor --------------------------------------------------------------


@dataclass
class WorkerHandle:
    """One live worker as the supervisor sees it."""

    index: int
    process: "multiprocessing.process.BaseProcess"
    pid: int
    port: int
    admin_port: int
    started_at: float = field(default_factory=time.monotonic)
    rapid_deaths: int = 0

    def summary(self) -> dict:
        return {
            "worker": self.index,
            "pid": self.pid,
            "admin_port": self.admin_port,
            "alive": self.process.is_alive(),
        }


class ShardSupervisor:
    """Spawn, monitor and aggregate a fleet of reuseport workers."""

    def __init__(
        self,
        directory: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 2,
        start_timeout: float = 30.0,
    ):
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        self.directory = str(directory)
        self.host = host
        self.port = port
        self.workers = workers
        self.start_timeout = start_timeout
        self.restarts = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._handles: list[WorkerHandle] = []
        self._placeholder: socket.socket | None = None
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Reserve the port, spawn the fleet, start the monitor."""
        # Bound but never listening: reserves the address (resolving an
        # ephemeral port 0 exactly once) without joining the accept
        # group, so every worker binds the same resolved number even
        # across restarts.
        self._placeholder = reuseport_socket(self.host, self.port)
        self.port = self._placeholder.getsockname()[1]
        try:
            for index in range(self.workers):
                self._handles.append(self._spawn(index))
        except Exception:
            self.stop()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()

    def _spawn(self, index: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.directory, self.host, self.port, index, child_conn,
            ),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.start_timeout):
            process.terminate()
            raise ServiceError(
                f"worker {index} did not report ready within "
                f"{self.start_timeout:.0f}s"
            )
        info = parent_conn.recv()
        parent_conn.close()
        _logger.info(
            "worker %d up: pid=%d port=%d admin=%d",
            index, info["pid"], info["port"], info["admin_port"],
        )
        return WorkerHandle(
            index=index,
            process=process,
            pid=info["pid"],
            port=info["port"],
            admin_port=info["admin_port"],
        )

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(0.2):
            with self._lock:
                handles = list(self._handles)
            for position, handle in enumerate(handles):
                if handle.process.is_alive() or self._stopping.is_set():
                    continue
                lifetime = time.monotonic() - handle.started_at
                rapid = handle.rapid_deaths + 1 if (
                    lifetime < RAPID_DEATH_SECONDS
                ) else 0
                if rapid:
                    # Crash loop: back off exponentially so a broken
                    # artifact directory cannot spin a core forever.
                    delay = min(0.5 * (2 ** (rapid - 1)), 5.0)
                    _logger.warning(
                        "worker %d died %.2fs after start (%d rapid "
                        "deaths); backing off %.1fs",
                        handle.index, lifetime, rapid, delay,
                    )
                    if self._stopping.wait(delay):
                        return
                else:
                    _logger.warning(
                        "worker %d (pid %d) died after %.1fs; restarting",
                        handle.index, handle.pid, lifetime,
                    )
                try:
                    replacement = self._spawn(handle.index)
                except Exception:
                    _logger.exception(
                        "failed to restart worker %d", handle.index
                    )
                    continue
                replacement.rapid_deaths = rapid
                with self._lock:
                    self._handles[position] = replacement
                    self.restarts += 1

    def stop(self) -> None:
        """SIGTERM the fleet, join, escalate to kill, release the port."""
        self._stopping.set()
        if self._monitor is not None and self._monitor.is_alive():
            self._monitor.join(timeout=10)
        with self._lock:
            handles = list(self._handles)
            self._handles = []
        for handle in handles:
            if handle.process.is_alive():
                try:
                    os.kill(handle.pid, signal.SIGTERM)
                except ProcessLookupError:  # pragma: no cover - racing exit
                    pass
        for handle in handles:
            handle.process.join(timeout=10)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.kill()
                handle.process.join(timeout=5)
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    # -- fleet operations --------------------------------------------------

    def handles(self) -> list[WorkerHandle]:
        with self._lock:
            return list(self._handles)

    def reload(self) -> dict:
        """Forward a hot reload (SIGHUP) to every live worker."""
        signalled = 0
        for handle in self.handles():
            if not handle.process.is_alive():
                continue
            try:
                os.kill(handle.pid, signal.SIGHUP)
                signalled += 1
            except ProcessLookupError:  # pragma: no cover - racing exit
                pass
        return {"reloaded": signalled, "workers": self.workers}

    def health(self) -> dict:
        handles = self.handles()
        alive = sum(1 for handle in handles if handle.process.is_alive())
        return {
            "status": "ok" if alive == self.workers else "degraded",
            "workers": self.workers,
            "alive": alive,
            "restarts": self.restarts,
            "port": self.port,
        }

    def _scrape(self, handle: WorkerHandle) -> str | None:
        url = f"http://{self.host}:{handle.admin_port}/metrics"
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                return response.read().decode("utf-8")
        except (urllib.error.URLError, OSError, TimeoutError):
            _logger.warning(
                "failed to scrape worker %d at %s", handle.index, url
            )
            return None

    def metrics_text(self) -> str:
        """Fleet-wide Prometheus text: per-worker scrapes merged, plus
        the supervisor's own series."""
        texts = [
            text
            for handle in self.handles()
            if handle.process.is_alive()
            and (text := self._scrape(handle)) is not None
        ]
        merged = merge_metrics_texts(texts) if texts else ""
        alive = sum(
            1 for handle in self.handles() if handle.process.is_alive()
        )
        supervisor = (
            "# HELP repro_shard_workers Live worker processes in the "
            "reuseport group.\n"
            "# TYPE repro_shard_workers gauge\n"
            f"repro_shard_workers {float(alive)}\n"
            "# HELP repro_shard_worker_restarts_total Workers restarted "
            "by the supervisor after dying.\n"
            "# TYPE repro_shard_worker_restarts_total counter\n"
            f"repro_shard_worker_restarts_total {float(self.restarts)}\n"
        )
        return merged + supervisor


# -- supervisor admin endpoint ----------------------------------------------


class _AdminHandler(BaseHTTPRequestHandler):
    """Supervisor admin API: aggregate /metrics, /healthz, /workers,
    and POST /reload fan-out.  Stdlib and threaded — it is a control
    plane, never on the query hot path."""

    supervisor: ShardSupervisor  # set by _make_admin_server

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(
            status, json.dumps(payload).encode("utf-8"), "application/json"
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            self._send(
                200,
                self.supervisor.metrics_text().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        elif path == "/healthz":
            self._send_json(200, self.supervisor.health())
        elif path == "/workers":
            self._send_json(
                200,
                {"workers": [
                    handle.summary() for handle in self.supervisor.handles()
                ]},
            )
        elif path == "/reload":
            self._send_json(405, {"error": {
                "code": "method_not_allowed",
                "message": "GET not allowed on /reload",
            }})
        else:
            self._send_json(404, {"error": {
                "code": "not_found", "message": f"no such endpoint: {path}",
            }})

    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        path = self.path.split("?", 1)[0]
        if path == "/reload":
            self._send_json(200, self.supervisor.reload())
        elif path in ("/metrics", "/healthz", "/workers"):
            self._send_json(405, {"error": {
                "code": "method_not_allowed",
                "message": f"POST not allowed on {path}",
            }})
        else:
            self._send_json(404, {"error": {
                "code": "not_found", "message": f"no such endpoint: {path}",
            }})

    def log_message(self, format, *args):  # noqa: A002 - stdlib API
        _logger.debug("admin: " + format, *args)


def _make_admin_server(
    supervisor: ShardSupervisor, host: str, port: int
) -> ThreadingHTTPServer:
    handler = type("BoundAdminHandler", (_AdminHandler,), {
        "supervisor": supervisor,
    })
    try:
        return ThreadingHTTPServer((host, port), handler)
    except OSError as error:
        if error.errno == errno.EADDRINUSE:
            raise PortInUseError(
                f"cannot bind admin endpoint {host}:{port}: "
                "address already in use"
            ) from error
        raise


def serve_sharded(
    directory: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 2,
    admin_port: int | None = None,
) -> int:
    """Blocking entry point for ``repro serve --workers N``.

    SIGTERM/SIGINT stop the fleet (each worker drains); SIGHUP hot
    reloads every worker.  The admin endpoint defaults to ``port + 1``.
    """
    supervisor = ShardSupervisor(
        directory, host=host, port=port, workers=workers
    )
    supervisor.start()
    admin = _make_admin_server(
        supervisor, host, port + 1 if admin_port is None else admin_port
    )
    admin_thread = threading.Thread(
        target=admin.serve_forever, name="repro-shard-admin", daemon=True
    )
    admin_thread.start()
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    signal.signal(signal.SIGINT, lambda *_: done.set())
    signal.signal(signal.SIGHUP, lambda *_: supervisor.reload())
    print(
        f"repro selection service on http://{supervisor.host}:"
        f"{supervisor.port} ({workers} workers, SO_REUSEPORT); admin on "
        f"http://{host}:{admin.server_address[1]}; "
        "SIGTERM drains, SIGHUP reloads"
    )
    try:
        done.wait()
    finally:
        admin.shutdown()
        admin.server_close()
        supervisor.stop()
    print("fleet stopped; bye")
    return 0
