"""Per-layer tracing for traced runs, from outside the program.

:class:`LayerTracer` patches a wrapper around each layer's public
functions -- the calls named in ``README.md`` -- that records a
``repro.obs`` span on a private :class:`~repro.obs.spans.SpanRecorder`.
The process-wide recorder stays off, so the program's own spans and the
server's untraced fast paths are untouched.  Calls too small to carry a
span (result-cache ``get``/``put``, ``Simulator.run``) get counters
instead.  :meth:`LayerTracer.restore` puts every original back.

:func:`self_times` and :func:`build_metrics` turn the recorded spans into
the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Mapping

from repro.obs.spans import SpanRecorder
from scenarios import ALL_COLLECTIVES

#: Job kinds ``BatchSimulator.run`` can hand to the event loop.
FALLBACK_KINDS = (
    "bcast", "bcast_then_gather", "bcast_barrier_reps", "barrier_reps",
    "gather", "reduce", "reduce_then_scatter", "barrier", "scatter",
    "allreduce", "allgather", "alltoall", "p2p_roundtrip",
)

#: Layers (first part of a span name) whose self time is reported.
LAYERS = ("sim", "exec", "cache", "estimation", "selection", "tuning", "service")


def _replace_everywhere(original, wrapper, undo: list) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``wrapper`` (functions are imported by name into their callers), and
    every module-level registry dict that holds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append(lambda m=module, a=attr: setattr(m, a, original))
                setattr(module, attr, wrapper)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        undo.append(lambda d=value, k=key: d.__setitem__(k, original))
                        value[key] = wrapper


class LayerTracer:
    """Span and counter wrappers around the layers' public functions."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder(enabled=True)
        self.counters: Counter = Counter()
        self._undo: list[Callable[[], None]] = []

    # -- patching ----------------------------------------------------------

    def _function(self, original, name: str, attrs: Callable | None = None,
                  after: Callable | None = None) -> None:
        span = self.recorder.span

        def wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs is not None else {}
            with span(name, **extra) as current:
                result = original(*args, **kwargs)
                if after is not None:
                    after(current, result)
                return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        _replace_everywhere(original, wrapper, self._undo)

    def _method(self, owner: type, attr: str, wrapper_factory) -> None:
        original = owner.__dict__[attr]
        wrapper = wrapper_factory(original)
        wrapper.__wrapped__ = original
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span_method(self, owner: type, attr: str, name: str) -> None:
        span = self.recorder.span

        def factory(original):
            def wrapper(*args, **kwargs):
                with span(name):
                    return original(*args, **kwargs)
            return wrapper

        self._method(owner, attr, factory)

    def install_build(self) -> "LayerTracer":
        """Wrap every layer a ``build_artifact`` call passes through."""
        from repro.estimation.regression import huber_fit
        from repro.estimation.registry import run_pipeline
        from repro.estimation.statistics import adaptive_measure
        from repro.exec.cache import ResultCache
        from repro.exec.job import execute_job
        from repro.exec.runner import ParallelRunner
        from repro.selection.codegen import generate_python
        from repro.selection.decision_table import build_decision_table
        from repro.service import artifact as artifact_module
        from repro.sim.batch import BatchSimulator
        from repro.sim.engine import Simulator

        span = self.recorder.span
        counters = self.counters

        self._function(artifact_module.build_artifact, "service.build_artifact")
        self._function(
            run_pipeline, "estimation.pipeline",
            attrs=lambda a, k: {"operation": a[1] if len(a) > 1 else k["operation"]},
        )
        self._function(huber_fit, "estimation.fit")
        self._function(adaptive_measure, "estimation.adaptive")
        self._function(
            build_decision_table, "selection.tables",
            attrs=lambda a, k: {"cells": len(set(a[1])) * len(set(a[2]))},
        )
        self._function(generate_python, "selection.codegen")
        self._function(
            artifact_module.stamp_guidelines, "tuning.guidelines",
            after=lambda s, art: s.set_attr("cells", art.guidelines.get("cells", 0)),
        )
        self._function(
            execute_job, "sim.event_loop",
            attrs=lambda a, k: {"kind": a[0].kind, "algorithm": a[0].algorithm},
        )
        self._span_method(artifact_module.SelectionArtifact, "__post_init__",
                          "service.package")
        self._span_method(artifact_module.SelectionArtifact, "content_hash",
                          "service.package")
        self._span_method(ParallelRunner, "prefetch", "exec.prefetch")
        self._span_method(ResultCache, "__init__", "cache.load")

        def runner_run(original):
            def wrapper(self_, batch):
                before = self_.stats.simulations
                with span("exec.run") as current:
                    result = original(self_, batch)
                    current.set_attr("sims", self_.stats.simulations - before)
                    return result
            return wrapper

        def batch_run(original):
            def wrapper(self_, jobs):
                stats = self_.stats
                before = (stats.unique_cells, stats.columnar, stats.event_loop)
                with span("sim.batch") as current:
                    result = original(self_, jobs)
                    current.set_attrs(
                        unique_cells=stats.unique_cells - before[0],
                        columnar=stats.columnar - before[1],
                        event_loop=stats.event_loop - before[2],
                    )
                    return result
            return wrapper

        def simulator_run(original):
            def wrapper(self_, *args, **kwargs):
                before = self_.events_processed
                try:
                    return original(self_, *args, **kwargs)
                finally:
                    counters["sim.events"] += self_.events_processed - before
            return wrapper

        def timed(prefix: str, count: Callable):
            def factory(original):
                def wrapper(*args, **kwargs):
                    start = time.perf_counter()
                    result = original(*args, **kwargs)
                    counters[prefix + "_s"] += time.perf_counter() - start
                    counters[prefix + "_n"] += count(args, result)
                    return result
                return wrapper
            return factory

        self._method(ParallelRunner, "run", runner_run)
        self._method(BatchSimulator, "run", batch_run)
        self._method(Simulator, "run", simulator_run)
        self._method(ResultCache, "get", timed(
            "cache.get", lambda a, r: int(r is not None)))
        self._method(ResultCache, "put", timed("cache.put", lambda a, r: 1))
        self._method(ResultCache, "put_many", timed(
            "cache.put", lambda a, r: len(a[1]) if isinstance(a[1], list) else 0))
        return self

    def install_serve(self) -> "LayerTracer":
        """Wrap artifact loading in the server process (the request path
        stays unwrapped: a span per request would be the cost measured)."""
        from repro.service import artifact as artifact_module

        self._function(artifact_module.load_artifact, "service.load")
        return self

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def spans(self) -> list[dict]:
        return [span.to_dict() for span in self.recorder.finished()]


# -- analysis ---------------------------------------------------------------


def _children(spans: Iterable[Mapping]) -> dict[str, list[Mapping]]:
    children: dict[str, list[Mapping]] = defaultdict(list)
    for span in spans:
        if span.get("parent_id"):
            children[span["parent_id"]].append(span)
    return children


def self_times(spans: list[Mapping]) -> dict[str, float]:
    """Seconds each layer spent in its own code: every span's duration
    minus its child spans', summed by layer (the name's first part)."""
    children = _children(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        inner = sum(child["duration"] for child in children.get(span["span_id"], ()))
        totals[span["name"].split(".", 1)[0]] += span["duration"] - inner
    return dict(totals)


def _total(spans, name: str, where: Callable[[Mapping], bool] = lambda s: True) -> float:
    return sum(s["duration"] for s in spans if s["name"] == name and where(s))


def build_metrics(cold: list[Mapping], cold_counters: Mapping,
                  warm: list[Mapping], warm_counters: Mapping,
                  exec_stats: Mapping) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced cold build and its warm rebuild.

    Everything comes from the cold build except the cache reads
    (``cache.load_s``, ``cache.get_s``, ``cache.hits``), which only a
    warm rebuild exercises.  Returns ``(metrics, details)``; the details
    hold the fallback histogram by algorithm.
    """
    by_id = {span["span_id"]: span for span in cold}
    children = _children(cold)

    def has_ancestor(span, name: str) -> bool:
        parent = by_id.get(span.get("parent_id"))
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent.get("parent_id"))
        return False

    def runner_time_under(span) -> float:
        """Time in the topmost exec.* spans below ``span``."""
        total = 0.0
        stack = list(children.get(span["span_id"], ()))
        while stack:
            child = stack.pop()
            if child["name"].startswith("exec."):
                total += child["duration"]
            else:
                stack.extend(children.get(child["span_id"], ()))
        return total

    metrics: dict[str, float] = {}
    batches = [s for s in cold if s["name"] == "sim.batch"]
    columnar = sum(s["attributes"]["columnar"] for s in batches)
    event_loop = sum(s["attributes"]["event_loop"] for s in batches)
    unique = sum(s["attributes"]["unique_cells"] for s in batches)
    metrics["sim.batch_s"] = _total(cold, "sim.batch")
    metrics["sim.columnar_cells"] = columnar
    metrics["sim.event_loop_cells"] = event_loop
    metrics["sim.columnar_share"] = columnar / unique if unique else 0.0
    fallbacks = Counter()
    by_algorithm = Counter()
    for span in cold:
        if span["name"] != "sim.event_loop":
            continue
        parent = by_id.get(span.get("parent_id"))
        if parent is not None and parent["name"] == "sim.batch":
            kind = span["attributes"]["kind"]
            fallbacks[kind] += 1
            by_algorithm[f"{kind}/{span['attributes']['algorithm'] or '-'}"] += 1
    for kind in FALLBACK_KINDS:
        metrics[f"sim.fallback.{kind}"] = fallbacks.get(kind, 0)
    event_loop_s = _total(cold, "sim.event_loop")
    events = cold_counters.get("sim.events", 0)
    metrics["sim.event_loop_s"] = event_loop_s
    metrics["sim.events"] = events
    metrics["sim.us_per_event"] = event_loop_s * 1e6 / events if events else 0.0

    for key in ("simulations", "memo_hits", "deduped_cells"):
        metrics[f"exec.{key}"] = exec_stats["cold"][key]
    metrics["exec.cache_hits"] = exec_stats["warm"]["cache_hits"]
    metrics["exec.prefetch_s"] = _total(cold, "exec.prefetch")
    topups = [s for s in cold if s["name"] == "exec.run"
              and not has_ancestor(s, "exec.prefetch")]
    metrics["exec.topup_s"] = sum(s["duration"] for s in topups)
    metrics["exec.topup_sims"] = sum(s["attributes"]["sims"] for s in topups)

    metrics["cache.load_s"] = _total(warm, "cache.load")
    metrics["cache.get_s"] = warm_counters.get("cache.get_s", 0.0)
    metrics["cache.hits"] = warm_counters.get("cache.get_n", 0)
    metrics["cache.put_s"] = cold_counters.get("cache.put_s", 0.0)
    metrics["cache.stores"] = cold_counters.get("cache.put_n", 0)

    pipelines = [s for s in cold if s["name"] == "estimation.pipeline"]
    per_op: dict[str, float] = defaultdict(float)
    for span in pipelines:
        per_op[span["attributes"]["operation"]] += span["duration"]
    for operation in ALL_COLLECTIVES:
        metrics[f"estimation.pipeline_s.{operation}"] = per_op.get(operation, 0.0)
    metrics["estimation.self_s"] = sum(
        s["duration"] - runner_time_under(s) for s in pipelines
    )
    metrics["estimation.fits"] = sum(1 for s in cold if s["name"] == "estimation.fit")
    metrics["estimation.fit_s"] = _total(cold, "estimation.fit")
    metrics["estimation.adaptive_calls"] = sum(
        1 for s in cold if s["name"] == "estimation.adaptive"
    )

    metrics["selection.tables_s"] = _total(cold, "selection.tables")
    metrics["selection.table_cells"] = sum(
        s["attributes"]["cells"] for s in cold if s["name"] == "selection.tables"
    )
    metrics["selection.codegen_s"] = _total(cold, "selection.codegen")
    metrics["tuning.guidelines_s"] = _total(cold, "tuning.guidelines")
    metrics["tuning.guideline_cells"] = sum(
        s["attributes"].get("cells", 0) for s in cold
        if s["name"] == "tuning.guidelines"
    )

    def in_package_phase(span) -> bool:
        parent = by_id.get(span.get("parent_id"))
        return parent is not None and parent["name"] == "service.build_artifact"

    metrics["service.package_s"] = _total(cold, "service.package", in_package_phase)
    own = self_times(cold)
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = own.get(layer, 0.0)
    return metrics, {"fallback_by_algorithm": dict(sorted(by_algorithm.items()))}
