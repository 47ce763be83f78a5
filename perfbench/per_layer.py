"""Per-layer metrics of a traced run (``--trace 1``).

Build layers come from the spans the traced cold and warm build children
recorded (:mod:`layers`); serving layers from the server's CPU time, its
``/metrics`` deltas, and in-process calls into ``repro.selection`` and
``repro.service`` over the same request bodies the server answered.
"""

from __future__ import annotations

import json
import time

from layers import build_metrics, self_times
from stats import percentile

_TRACE_ID = "0" * 22


def _seconds_per_item(call, items, repeats: int = 5, min_seconds: float = 0.05) -> float:
    """Median over ``repeats`` of the time per item of ``call(items)``,
    each repeat looping until ``min_seconds`` have passed."""
    call(items)  # fill lazily built state (compiled tables, the LRU)
    samples = []
    for _ in range(repeats):
        loops = 0
        start = time.perf_counter()
        while True:
            call(items)
            loops += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        samples.append(elapsed / (loops * len(items)))
    samples.sort()
    return samples[len(samples) // 2]


def _in_process(artifact, single, batch) -> dict[str, float]:
    from repro.service import ArtifactRegistry, SelectionService

    flats = artifact.flat_tables()
    queries = single.payloads
    flat_items = [(flats[q["operation"]].lookup, q["procs"], q["nbytes"]) for q in queries]
    table_items = [
        (artifact.entries[q["operation"]].table.lookup, q["procs"], q["nbytes"])
        for q in queries
    ]

    def lookups(items):
        for lookup, procs, nbytes in items:
            lookup(procs, nbytes)

    registry = ArtifactRegistry()
    registry.add(artifact)
    service = SelectionService(registry)
    select_body = service.select_body

    def bodies(payloads):
        for payload in payloads:
            select_body(payload, _TRACE_ID)

    per_batch = len(batch.payloads[0]["queries"])
    return {
        "selection.flat_lookup_ns": _seconds_per_item(lookups, flat_items) * 1e9,
        "selection.table_lookup_ns": _seconds_per_item(lookups, table_items) * 1e9,
        "service.select_body_us.single": _seconds_per_item(bodies, queries) * 1e6,
        "service.select_body_us.batch":
            _seconds_per_item(bodies, batch.payloads) * 1e6 / per_batch,
    }


def chrome_trace(spans: list[dict]) -> dict:
    """Span dicts (from any number of processes) as a Chrome trace."""
    origin = min((s["start"] for s in spans), default=0.0)
    events = [
        {
            "name": s["name"], "cat": s["name"].split(".", 1)[0], "ph": "X",
            "ts": (s["start"] - origin) * 1e6, "dur": s["duration"] * 1e6,
            "pid": s["pid"], "tid": s["thread_id"],
            "args": dict(s["attributes"], span_id=s["span_id"], parent_id=s["parent_id"]),
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def per_layer_metrics(run, traced: dict, served: dict, end_to_end: dict, traces):
    """``({name: value}, details)`` for one traced run; writes the run's
    Chrome trace into the directory ``traces``."""
    cold, warm = traced["cold"], traced["warm"]
    server_spans = served["server_spans"]["spans"]
    metrics, details = build_metrics(
        cold["spans"], cold["counters"], warm["spans"], warm["counters"],
        traced["exec_stats"],
    )
    metrics["service.load_s"] = sum(
        s["duration"] for s in server_spans if s["name"] == "service.load"
    )
    metrics.update(_in_process(served["artifact"], served["single"], served["batch"]))
    phases = served["phases"]
    for name in ("single", "batch"):
        phase = phases[name]
        metrics[f"service.cpu_us_per_query.{name}"] = phase.server_cpu_s * 1e6 / phase.queries
        metrics[f"service.busy_share.{name}"] = phase.server_busy
        metrics[f"loadgen.busy_share.{name}"] = phase.loadgen_busy
    metrics["loadgen.saturated_phases"] = sum(
        phases[name].saturated for name in ("single", "batch")
    )
    metrics["service.lru_hit_ratio"] = served["lru_hit_ratio"]
    metrics["service.batch_queries"] = served["batch_queries"]
    rtts = phases["depth1"].rtts
    metrics["loadgen.rtt_p99_ms"] = percentile(rtts, 99) * 1e3
    metrics["service.transport_us"] = (
        end_to_end["rtt_p50_ms"] * 1e3 - metrics["service.select_body_us.single"]
    )
    untraced_cold = run.samples["cold_build_s"][0]
    metrics["obs.trace_overhead"] = traced["cold_build_s"] / untraced_cold - 1.0

    all_spans = cold["spans"] + warm["spans"] + server_spans
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{run.workload.name}-seed{run.seed}.json"
    path.write_text(json.dumps(chrome_trace(all_spans)))
    details.update(
        trace_file=str(path.relative_to(traces.parent.parent)),
        spans={"cold": len(cold["spans"]), "warm": len(warm["spans"]),
               "server": len(server_spans)},
        warm_self_s=self_times(warm["spans"]),
    )
    return metrics, details
