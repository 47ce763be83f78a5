"""The benchmark: what a user pays to build a selection artifact and to
query it, end to end (``--trace 0``) or layer by layer (``--trace 1``).

Usage, from the repository root::

    python3 perfbench/run.py --workload build-fabric --seed 1 --seconds 40 --trace 0

One run walks the user journey for the workload's scenario, in cycles
of

1. a cold build in a fresh ``child.py`` process on an empty result
   cache (``jobs=1``);
2. a warm child on that cache, kept for the rest of the cycle;
3. rounds of a burst of warm rebuilds in that child and a slice of each
   serving phase against ``repro serve`` (default flags), started once
   on the first cold build's artifact and driven by one closed-loop load
   generator (this process) on one keep-alive connection: pipelined
   single queries, pipelined batches of 16, and single queries at
   depth 1.

Every output is checked: each cold and warm build yields the same content
hash, warm builds run 0 simulations, ``SelectionArtifact.verify()``
passes, and every served response is a 200 whose selections equal
``DecisionTable.lookup``.  Builds, warm repeats and HTTP requests are the
operations counted in ``attempted``; each failed check counts in
``failed``.

A traced run (``--trace 1``) makes one untraced cycle, then a
traced cold and warm build, with a traced server, writes the spans as a
Chrome trace under ``.perfbench/traces/`` and reports the per-layer
metrics.  Every run writes its full record (environment, parameters,
samples, checks, content hashes) under ``.perfbench/results/`` and prints
it on the line before the result line.  See ``README.md`` for what each
metric means and which end-to-end metric it moves.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

from loadgen import (  # noqa: E402
    BATCH_SIZE, Stream, connect, depth1_phase, http_request, make_queries,
    merge, pipelined_phase, verify_pass,
)
from scenarios import SMOKE, WORKLOADS  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402

#: In-flight requests of the two pipelined phases.  Sized so the server,
#: not this generator, is the busy side (``loadgen.busy_share.*``).
SINGLE_DEPTH = 256
BATCH_DEPTH = 32
#: Requests per stream; the phases cycle through them.
SINGLE_REQUESTS = 1024
BATCH_REQUESTS = 128
CHILD_TIMEOUT = 150.0

#: Metric names and units, declared once for the driver and this script.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


class ChildError(RuntimeError):
    """A child process failed before producing its result."""


class Server:
    """``repro serve`` on the run's artifact, with the load generator's
    request streams and every slice measured against it."""

    def __init__(self, run: "Run", artifacts: Path):
        from repro.service.artifact import load_artifact

        self.run = run
        self.artifact = load_artifact(artifacts / "artifact.json")
        rng = random.Random(run.seed)
        singles = make_queries(self.artifact, SINGLE_REQUESTS, rng)
        batched = make_queries(self.artifact, BATCH_REQUESTS * BATCH_SIZE, rng)
        batches = [{"queries": batched[i:i + BATCH_SIZE]}
                   for i in range(0, len(batched), BATCH_SIZE)]
        self.single = Stream(singles, [http_request(q) for q in singles], 1)
        self.batch = Stream(batches, [http_request(b) for b in batches], BATCH_SIZE)
        self.slices: dict[str, list] = {"single": [], "batch": [], "depth1": []}

        self.port = _free_port()
        serve_args = ["--artifacts", str(artifacts), "--port", str(self.port)]
        self.spans = run.dir / "server-spans.json"
        if run.trace:
            command = [sys.executable, str(HERE / "child.py"), "serve",
                       "--spans", str(self.spans), "--", *serve_args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.log = open(run.dir / "server.log", "wb")
        start = time.perf_counter()
        self.process = run.spawn(command, stdout=self.log, stderr=subprocess.STDOUT)
        _wait_healthy(self.port, self.process)
        run.setups.append(time.perf_counter() - start)
        self.sock = connect(self.port)
        for stream in (self.single, self.batch):
            failures = verify_pass(self.sock, stream, self.artifact)
            run.check("served_equals_lookup", True, len(stream.requests), failures)
        self.before = _scrape(self.port)

    def round(self, seconds: float) -> None:
        """One slice of each phase: pipelined singles, pipelined batches,
        singles at depth 1."""
        pid = self.process.pid
        self.slices["single"].append(
            pipelined_phase(self.sock, self.single, SINGLE_DEPTH, seconds, pid))
        self.slices["batch"].append(
            pipelined_phase(self.sock, self.batch, BATCH_DEPTH, seconds, pid))
        self.slices["depth1"].append(depth1_phase(self.sock, self.single, seconds, pid))

    def stop(self) -> dict:
        """Stop the server (SIGTERM drains it) and sum up the slices."""
        run = self.run
        after = _scrape(self.port)
        self.sock.close()
        peak_rss = _peak_rss_mb(self.process.pid)
        self.process.send_signal(signal.SIGTERM)
        status = self.process.wait(timeout=30)
        self.log.close()
        run.check("server_clean_exit", status == 0)
        phases = {name: merge(parts) for name, parts in self.slices.items()}
        for name, phase in phases.items():
            run.check(f"served_{name}", True, phase.requests, phase.failed)
            run.sample(f"{name}_slice_qps", *(part.qps for part in self.slices[name]))
            run.sample(f"{name}_slice_server_cpu_qps",
                       *(part.capacity for part in self.slices[name]))
        delta = {name: after[name] - self.before[name] for name in after}
        hits = delta["repro_query_cache_hits_total"]
        lookups = hits + delta["repro_query_cache_misses_total"]
        return {
            "artifact": self.artifact,
            "single": self.single,
            "batch": self.batch,
            "phases": phases,
            "peak_rss_mb": peak_rss,
            "lru_hit_ratio": hits / lookups if lookups else 0.0,
            "batch_queries": delta["repro_select_batch_queries_total"],
            "server_spans": json.loads(self.spans.read_text()) if run.trace else None,
        }


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / "runs" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[int]] = {}
        self.setups: list[float] = []
        self.samples: dict[str, list] = {}
        self.hashes: list[str] = []
        self.processes: list[subprocess.Popen] = []

    # -- accounting --------------------------------------------------------

    def check(self, name: str, ok: bool, count: int = 1, failures: int | None = None) -> None:
        """Count ``count`` operations under check ``name``, ``failures``
        of them failed (all of them when ``ok`` is false)."""
        bad = (0 if ok else count) if failures is None else failures
        tally = self.checks.setdefault(name, [0, 0])
        tally[0] += count
        tally[1] += bad
        self.attempted += count
        self.failed += bad

    def sample(self, name: str, *values) -> None:
        self.samples.setdefault(name, []).extend(values)

    # -- children ----------------------------------------------------------

    def spawn(self, command: list[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(command, cwd=ROOT, env=self.env, **kwargs)
        self.processes.append(process)
        return process

    def start_build(self, mode: str, cache: Path, out: Path | None = None,
                    spans: Path | None = None) -> subprocess.Popen:
        """Spawn a build child and wait until it is ready (a set-up sample)."""
        command = [
            sys.executable, str(HERE / "child.py"), "build",
            "--workload", self.workload.name, "--mode", mode,
            "--cache-dir", str(cache), "--seed", str(self.seed),
        ]
        if out is not None:
            command += ["--out", str(out)]
        if spans is not None:
            command += ["--spans", str(spans)]
        start = time.perf_counter()
        process = self.spawn(command, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
        if process.stdout.readline().strip() != "READY":
            raise ChildError(f"{mode} build child exited {process.wait(timeout=CHILD_TIMEOUT)}")
        self.setups.append(time.perf_counter() - start)
        return process

    @staticmethod
    def rebuild(process: subprocess.Popen, seconds: float) -> None:
        """One burst of warm rebuilds, ``seconds`` long (at least one)."""
        process.stdin.write(f"build {seconds}\n")
        process.stdin.flush()
        if process.stdout.readline().strip() != "BUILT":
            raise ChildError(f"warm build child exited {process.wait(timeout=CHILD_TIMEOUT)}")

    def finish_build(self, mode: str, process: subprocess.Popen) -> dict:
        """End a build child; checks its outputs and returns its result."""
        process.stdin.close()
        output = process.stdout.read()
        process.stdout.close()
        status = process.wait(timeout=CHILD_TIMEOUT)
        results = [line[7:] for line in output.splitlines() if line.startswith("RESULT ")]
        if status != 0 or not results:
            raise ChildError(f"{mode} build child exited {status}")
        result = json.loads(results[-1])
        for digest, simulations in zip(result["hashes"], result["simulations"]):
            if digest not in self.hashes:
                self.hashes.append(digest)
            self.check(f"{mode}_hash_equal", digest == self.hashes[0])
            if mode == "warm":
                self.check("warm_zero_simulations", simulations == 0)
        self.check("artifact_verify", not result["verify_error"])
        self.sample(f"{mode}_build_s", *result["build_s"])
        self.sample(f"{mode}_simulations", *result["simulations"])
        self.sample(f"{mode}_maxrss_mb", result["maxrss_mb"])
        return result

    def cold_build(self, cache: Path, out: Path | None = None,
                   spans: Path | None = None) -> dict:
        return self.finish_build("cold", self.start_build("cold", cache, out, spans))

    # -- the run -----------------------------------------------------------

    def cycles(self, artifacts: Path) -> tuple[Server, dict]:
        """The workload's cycles, each given an equal share of
        ``--seconds``: a cold build, then rounds of a warm rebuild burst
        (in one warm child on the cold build's cache) and a serving
        round, until the cycle's share would be overrun (at least one
        round).  The server starts on the first cold build's artifact
        and idles while builds run, so every metric is sampled across
        the whole run.  A traced run makes one untraced cycle in half of
        ``--seconds``, then a traced cold and warm build."""
        workload = self.workload
        start = time.perf_counter()
        server = None
        shares = 2 if self.trace else workload.cycles
        for count in range(workload.cycles):
            target = start + self.seconds * (count + 1) / shares
            cache = self.dir / f"cache{count}"
            self.cold_build(cache, out=None if server else artifacts / "artifact.json")
            if server is None:
                server = Server(self, artifacts)
            warm = self.start_build("warm", cache)
            while True:
                began = time.perf_counter()
                self.rebuild(warm, workload.warm_seconds)
                server.round(workload.slice_seconds)
                now = time.perf_counter()
                if now + (now - began) > target:
                    break
            self.finish_build("warm", warm)
            if self.trace:
                break
        if not self.trace:
            return server, {}
        cache = self.dir / "cache-traced"
        cold_spans, warm_spans = self.dir / "cold-spans.json", self.dir / "warm-spans.json"
        cold = self.cold_build(cache, spans=cold_spans)
        warm_process = self.start_build("warm", cache, spans=warm_spans)
        self.rebuild(warm_process, 0.0)
        warm = self.finish_build("warm", warm_process)
        return server, {
            "cold": json.loads(cold_spans.read_text()),
            "warm": json.loads(warm_spans.read_text()),
            "exec_stats": {"cold": cold["exec_stats"], "warm": warm["exec_stats"]},
            "cold_build_s": cold["build_s"][0],
        }

    def execute(self) -> dict:
        started = time.perf_counter()
        load = os.getloadavg()
        if self.dir.exists():
            shutil.rmtree(self.dir)
        artifacts = self.dir / "artifacts"
        artifacts.mkdir(parents=True)
        try:
            server, traced = self.cycles(artifacts)
            served = server.stop()
        finally:
            for process in self.processes:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        phases = served["phases"]
        rtts = phases["depth1"].rtts
        focus_rss = (
            max(self.samples["cold_maxrss_mb"])
            if self.workload.focus == "build" else served["peak_rss_mb"]
        )
        end_to_end = {
            "setup_s": statistics.median(self.setups),
            "cold_build_s": statistics.median(self.samples["cold_build_s"]),
            "warm_build_s": statistics.median(self.samples["warm_build_s"]),
            "single_qps": statistics.median(s.capacity for s in server.slices["single"]),
            "batch_qps": statistics.median(s.capacity for s in server.slices["batch"]),
            "rtt_p50_ms": percentile(rtts, 50) * 1e3,
            "peak_rss_mb": focus_rss,
        }
        tail = tail_percentile(len(rtts))
        record = {
            "schema": "perfbench-result/1",
            "workload": self.workload.name,
            "why": self.workload.why,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": _environment(load),
            "parameters": {
                **self.workload.scenario.params(),
                "focus": self.workload.focus,
                "cycles": self.workload.cycles,
                "warm_seconds": self.workload.warm_seconds,
                "slice_seconds": self.workload.slice_seconds,
                "single_depth": SINGLE_DEPTH,
                "batch_depth": BATCH_DEPTH,
                "batch_size": len(served["batch"].payloads[0]["queries"]),
                "single_requests": SINGLE_REQUESTS,
                "batch_requests": BATCH_REQUESTS,
            },
            "content_hashes": self.hashes,
            "checks": {k: {"attempted": a, "failed": f} for k, (a, f) in self.checks.items()},
            "end_to_end": end_to_end,
            "rtt": {
                "samples": len(rtts),
                "tail_percentile": tail,
                "tail_ms": percentile(rtts, tail) * 1e3 if tail else None,
            },
            "phases": {
                name: {
                    "requests": p.requests, "queries": p.queries,
                    "seconds": p.seconds, "failed": p.failed,
                    "wall_qps": p.qps, "server_cpu_qps": p.capacity,
                    "server_busy_share": p.server_busy,
                    "loadgen_busy_share": p.loadgen_busy,
                    "loadgen_saturated": p.saturated,
                }
                for name, p in phases.items()
            },
            "samples": self.samples,
            "setup_samples_s": self.setups,
            "wall_s": time.perf_counter() - started,
        }
        if self.trace:
            from per_layer import per_layer_metrics

            metrics, details = per_layer_metrics(
                self, traced, served, end_to_end, WORK / "traces")
            record["per_layer"] = metrics
            record["per_layer_details"] = details
        return record


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_healthy(port: int, server: subprocess.Popen, timeout: float = 60.0) -> None:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if server.poll() is not None:
            raise ChildError(f"server exited {server.returncode} before ready")
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            finally:
                connection.close()
        except OSError:
            time.sleep(0.005)
    raise ChildError("server not healthy in time")


def _scrape(port: int) -> dict[str, float]:
    """Unlabelled counters of ``/metrics``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", "/metrics")
        text = connection.getresponse().read().decode()
    finally:
        connection.close()
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _environment(load: tuple) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(load),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark (see README.md)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + [SMOKE.name])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = SMOKE if args.workload == SMOKE.name else WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    try:
        record = run.execute()
    except ChildError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    record.update(correct=run.failed == 0, attempted=run.attempted, failed=run.failed)
    section, values = (
        ("per_layer", record["per_layer"]) if args.trace
        else ("end_to_end", record["end_to_end"])
    )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in DECLARED[section]}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"attempted {run.attempted}  failed {run.failed}  "
          f"hashes {', '.join(h[:16] for h in record['content_hashes'])}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
