"""Child processes of a benchmark run: one artifact build, or the server.

``run.py`` spawns every build and server in a fresh interpreter so that
each measurement starts from what a user's ``repro`` command starts from.

Build child::

    python3 perfbench/child.py build --workload build-fabric --mode cold \\
        --cache-dir DIR --out ARTIFACT.json --seed 1 [--spans FILE]

prints ``READY`` once ``repro`` is imported and the cluster spec exists
(the parent's set-up clock stops there), then one ``RESULT <json>`` line.
``--mode warm`` rebuilds on ``--cache-dir`` in bursts: for each
``build SECONDS`` line on standard input it rebuilds until SECONDS have
passed (at least once; the first rebuild is the fresh-process one) and
answers ``BUILT``; at the end of input it prints the ``RESULT``.

Traced server::

    python3 perfbench/child.py serve --spans FILE -- --artifacts DIR --port N

runs ``repro serve`` with the artifact loader wrapped in a span and
writes the spans when the server drains.  (Untraced runs start
``python3 -m repro serve`` directly.)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LayerTracer  # noqa: E402
from scenarios import SMOKE, WORKLOADS  # noqa: E402


def _spec(scenario):
    from repro.clusters import get_preset
    from repro.fabric import build_fabric

    spec = get_preset(scenario.cluster)
    if scenario.noise is not None:
        spec = spec.with_noise(scenario.noise)
    if scenario.fabric:
        spec = spec.with_fabric(build_fabric(scenario.fabric, spec))
    return spec


def _build_kwargs(scenario, seed: int) -> dict:
    kwargs = dict(
        collectives=scenario.collectives,
        procs=scenario.procs,
        gamma_max_procs=scenario.gamma_max_procs,
        max_reps=scenario.max_reps,
        seed=seed,
    )
    if scenario.proc_points:
        kwargs["proc_points"] = scenario.proc_points
    if scenario.size_points:
        kwargs["size_points"] = scenario.size_points
    return kwargs


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_spans(tracer: LayerTracer, path: str) -> None:
    Path(path).write_text(json.dumps(
        {"spans": tracer.spans(), "counters": dict(tracer.counters)}
    ))


def build(args) -> int:
    from repro.errors import ArtifactError
    from repro.exec import ParallelRunner
    from repro.exec.cache import ResultCache
    from repro.service import artifact as artifact_module

    workload = SMOKE if args.workload == SMOKE.name else WORKLOADS[args.workload]
    spec = _spec(workload.scenario)
    kwargs = _build_kwargs(workload.scenario, args.seed)
    print("READY", flush=True)

    tracer = LayerTracer().install_build() if args.spans else None
    times, simulations, hashes, stats = [], [], [], []
    verify_error = ""

    def rebuild():
        runner = ParallelRunner(jobs=1, cache=ResultCache(args.cache_dir))
        try:
            t0 = time.perf_counter()
            artifact = artifact_module.build_artifact(spec, runner=runner, **kwargs)
            times.append(time.perf_counter() - t0)
        finally:
            runner.close()
        simulations.append(runner.stats.simulations)
        hashes.append(artifact.content_hash())
        stats.append(runner.stats.as_dict())
        return artifact

    try:
        if args.mode == "cold":
            artifact = rebuild()
        else:
            # One "build SECONDS" line per burst: rebuild until SECONDS
            # have passed (at least once), then answer BUILT.
            for line in sys.stdin:
                seconds = float(line.split()[1])
                started = time.perf_counter()
                artifact = rebuild()
                while time.perf_counter() - started < seconds:
                    artifact = rebuild()
                print("BUILT", flush=True)
    finally:
        if tracer is not None:
            tracer.restore()
    try:
        artifact.verify()
    except ArtifactError as error:
        verify_error = str(error)
    if args.out:
        artifact.save(args.out)
    if tracer is not None:
        _write_spans(tracer, args.spans)
    print("RESULT " + json.dumps({
        "mode": args.mode,
        "build_s": times,
        "simulations": simulations,
        "hashes": hashes,
        "exec_stats": stats[0],
        "verify_error": verify_error,
        "maxrss_mb": _maxrss_mb(),
    }), flush=True)
    return 0


def serve(args) -> int:
    from repro.cli import main as repro_main

    tracer = LayerTracer().install_serve()
    try:
        status = repro_main(["serve", *args.serve_args])
    finally:
        tracer.restore()
        _write_spans(tracer, args.spans)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build")
    b.add_argument("--workload", required=True)
    b.add_argument("--mode", choices=("cold", "warm"), required=True)
    b.add_argument("--cache-dir", required=True)
    b.add_argument("--out", default="")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--spans", default="")
    b.set_defaults(func=build)
    s = sub.add_parser("serve")
    s.add_argument("--spans", required=True)
    s.add_argument("serve_args", nargs=argparse.REMAINDER)
    s.set_defaults(func=serve)
    args = parser.parse_args(argv)
    if args.command == "serve" and args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
