"""Sharded serving: SO_REUSEPORT workers, supervisor, metrics merge."""

import json
import os
import signal
import socket
import time
import urllib.request

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import PortInUseError, ServiceError
from repro.service import build_artifact, merge_metrics_texts
from repro.service.shard import ShardSupervisor, _make_admin_server, reuseport_socket
from repro.units import KiB, MiB, log_spaced_sizes

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="platform lacks SO_REUSEPORT",
)


@pytest.fixture(scope="module")
def artifact(mini_platform):
    return build_artifact(
        MINICLUSTER,
        proc_points=range(2, 17, 2),
        size_points=log_spaced_sizes(8 * KiB, 1 * MiB, 6),
        platforms={"bcast": mini_platform},
    )


@pytest.fixture(scope="module")
def artifact_dir(artifact, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shard-artifacts")
    artifact.save(directory / "minicluster.json")
    return directory


def raw_select(port: int, payload: dict) -> tuple[int, dict]:
    body = json.dumps(payload).encode()
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(
        b"POST /select HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body
    )
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            break
        chunks.append(data)
    sock.close()
    blob = b"".join(chunks)
    head, _, resp_body = blob.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(resp_body)


class TestReuseportSocket:
    def test_two_sockets_share_a_port(self):
        first = reuseport_socket("127.0.0.1", 0)
        port = first.getsockname()[1]
        second = reuseport_socket("127.0.0.1", port)
        first.close()
        second.close()

    def test_conflict_with_plain_socket(self):
        plain = socket.socket()
        plain.bind(("127.0.0.1", 0))
        port = plain.getsockname()[1]
        with pytest.raises(PortInUseError):
            reuseport_socket("127.0.0.1", port)
        plain.close()


class TestMergeMetricsTexts:
    COUNTERS = (
        "# HELP repro_x_total Things.\n"
        "# TYPE repro_x_total counter\n"
        'repro_x_total{{op="a"}} {a}\n'
        "repro_x_total {plain}\n"
    )

    def test_counters_summed(self):
        merged = merge_metrics_texts([
            self.COUNTERS.format(a=3, plain=10),
            self.COUNTERS.format(a=4, plain=32),
        ])
        assert 'repro_x_total{op="a"} 7' in merged
        assert "repro_x_total 42" in merged

    def test_gauges_maxed(self):
        text = (
            "# HELP repro_g Current level.\n"
            "# TYPE repro_g gauge\nrepro_g {value}\n"
        )
        merged = merge_metrics_texts(
            [text.format(value=3.0), text.format(value=11.0)]
        )
        assert "repro_g 11" in merged

    def test_histograms_summed(self):
        text = (
            "# HELP repro_h Latency.\n"
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{{le="0.1"}} {low}\n'
            'repro_h_bucket{{le="+Inf"}} {total}\n'
            "repro_h_sum {sum}\n"
            "repro_h_count {total}\n"
        )
        merged = merge_metrics_texts([
            text.format(low=2, total=5, sum=0.5),
            text.format(low=3, total=6, sum=0.25),
        ])
        assert 'repro_h_bucket{le="0.1"} 5' in merged
        assert 'repro_h_bucket{le="+Inf"} 11' in merged
        assert "repro_h_sum 0.75" in merged
        assert "repro_h_count 11" in merged

    def test_hit_ratio_recomputed_not_averaged(self):
        def worker(hits, misses):
            return (
                "# TYPE repro_query_cache_hits_total counter\n"
                f"repro_query_cache_hits_total {hits}\n"
                "# TYPE repro_query_cache_misses_total counter\n"
                f"repro_query_cache_misses_total {misses}\n"
                "# TYPE repro_query_cache_hit_ratio gauge\n"
                f"repro_query_cache_hit_ratio {hits / (hits + misses)}\n"
            )

        # max() of the per-worker ratios would be 0.9; the true fleet
        # ratio is (90 + 10) / (100 + 100).
        merged = merge_metrics_texts([worker(90, 10), worker(10, 90)])
        ratio_line = next(
            line for line in merged.splitlines()
            if line.startswith("repro_query_cache_hit_ratio")
        )
        assert float(ratio_line.split()[-1]) == pytest.approx(0.5)

    def test_order_follows_first_appearance(self):
        merged = merge_metrics_texts([
            "# TYPE repro_a counter\nrepro_a 1\n"
            "# TYPE repro_b counter\nrepro_b 1\n",
            "# TYPE repro_c counter\nrepro_c 1\n"
            "# TYPE repro_a counter\nrepro_a 1\n",
        ])
        positions = [merged.index(f"# TYPE repro_{x}") for x in "abc"]
        assert positions == sorted(positions)


class TestShardSupervisor:
    @pytest.fixture(scope="class")
    def fleet(self, artifact_dir):
        supervisor = ShardSupervisor(artifact_dir, port=0, workers=2)
        supervisor.start()
        yield supervisor
        supervisor.stop()

    def test_rejects_zero_workers(self, artifact_dir):
        with pytest.raises(ServiceError):
            ShardSupervisor(artifact_dir, workers=0)

    def test_queries_answered_and_aggregated(self, fleet):
        issued = 6
        for _ in range(issued):
            status, payload = raw_select(fleet.port, {
                "cluster": "minicluster", "operation": "bcast",
                "procs": 8, "nbytes": 64 * KiB,
            })
            assert status == 200
            assert payload["algorithm"]
        text = fleet.metrics_text()
        served = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_select_queries_total")
        )
        assert served >= issued
        assert "repro_shard_workers 2.0" in text

    def test_health_reports_fleet(self, fleet):
        health = fleet.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["alive"] == 2

    def test_dead_worker_restarted_with_new_pid(self, fleet):
        victim = fleet.handles()[0]
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            handles = fleet.handles()
            if (
                all(handle.process.is_alive() for handle in handles)
                and handles[0].pid != victim.pid
            ):
                break
            time.sleep(0.2)
        else:
            pytest.fail("worker was not restarted")
        assert fleet.restarts >= 1
        status, _ = raw_select(fleet.port, {
            "cluster": "minicluster", "operation": "bcast",
            "procs": 4, "nbytes": 32 * KiB,
        })
        assert status == 200
        assert "repro_shard_worker_restarts_total 1" in fleet.metrics_text()

    def test_reload_propagates_to_workers(self, fleet, artifact,
                                          artifact_dir, mini_platform):
        from repro.service import build_artifact as rebuild

        coarse = rebuild(
            MINICLUSTER,
            proc_points=(2, 8),
            size_points=(8 * KiB, 1 * MiB),
            platforms={"bcast": mini_platform},
        )
        coarse.save(artifact_dir / "coarse.json")
        try:
            fleet.reload()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                counts = []
                for handle in fleet.handles():
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{handle.admin_port}/artifacts",
                        timeout=5,
                    ) as response:
                        counts.append(
                            len(json.load(response)["artifacts"])
                        )
                if counts and all(count == 2 for count in counts):
                    break
                time.sleep(0.2)
            else:
                pytest.fail("reload did not reach every worker")
        finally:
            (artifact_dir / "coarse.json").unlink()
            fleet.reload()

    def test_admin_endpoint(self, fleet):
        admin = _make_admin_server(fleet, "127.0.0.1", 0)
        import threading

        thread = threading.Thread(target=admin.serve_forever, daemon=True)
        thread.start()
        port = admin.server_address[1]
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as response:
                assert b"repro_shard_workers" in response.read()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ) as response:
                assert json.load(response)["workers"] == 2
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/workers", timeout=10
            ) as response:
                assert len(json.load(response)["workers"]) == 2
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/reload", method="POST", data=b""
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.load(response)["reloaded"] == 2
        finally:
            admin.shutdown()
            admin.server_close()
